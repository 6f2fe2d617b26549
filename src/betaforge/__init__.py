"""betaforge: exact-arithmetic toolkit for beta-expansions with beta in (1, 2).

Generation of greedy/lazy/randomized expansions, complexity-preserving
binary-to-beta conversion for rational and stream-specified bases,
canonicalization over Pisot bases in a linear number of steps (each on
integers of O(n) bits, so the cost per digit grows with n), exact
enumeration of expansion prefix sets, coin-toss extraction, and simulation
of robust conversion hardware built on imperfect comparators.
"""

from .numerics import (
    AlgebraicBeta,
    BetaForgeError,
    BetaSpec,
    BudgetExceededError,
    DomainError,
    ExactnessRequiredError,
    ExactReal,
    Interval,
    MalformedContextError,
    NumberFieldContext,
    NumberFieldElement,
    RationalBeta,
    SizeGuardError,
    StreamBeta,
    beta_from_json,
    beta_value,
    ceil_log2,
    exact_cmp,
    exact_float,
    exact_floor,
    exact_log2_bounds,
    exact_sign,
    floor_log2,
    in_approx,
    parse_rational,
)
from .expand import (
    BitStream,
    LandingInfo,
    StreamExhaustedError,
    TraceStep,
    delta_finite,
    expansion_domain_max,
    greedy_expand,
    greedy_prefix,
    landing_threshold,
    lazy_expand,
    random_expand,
    switch_region,
    tail_bound,
)
from .algebraic import (
    ClassPartition,
    ConjugateBounds,
    Preset,
    ValueClass,
    builtin_presets,
    equiv,
    equiv_class,
    get_preset,
    is_generalized_garsia,
    partition_words,
    separation_bound,
)
from .canonical import (
    FastRunStats,
    PisotWidthError,
    canonicalize_prefixwise,
    m_beta_bruteforce,
    m_beta_fast,
)
from .multivalued import (
    CandidateSet,
    WrongLengthError,
    base_length,
    enumerate_expansions,
    f_1_to_all,
    f_2_to_beta,
    f_beta_to_2,
    g_beta_window,
    nu_measure,
)
from .convert import (
    InsufficientBitsError,
    InvariantViolation,
    RationalConvParams,
    RationalConversion,
    StepDiagnostics,
    StreamConvParams,
    StreamConversion,
    convert_rational,
    convert_stream,
    params_rational,
    params_stream,
    stream_from_exact,
)
from .tosses_adc import (
    PipelineResult,
    Quantizer,
    QuantizerCheck,
    RunRecord,
    adc_run,
    branch_indices,
    denoise_pipeline,
    extract_tosses,
    replay_tosses,
    validate_quantizer,
)
from .pairing import MalformedEncodingError, decode_pairing, encode_pairing
from .cli import run_command

__version__ = "0.1.0"
