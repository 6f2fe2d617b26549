"""betaforge: exact-arithmetic toolkit for beta-expansions with beta in (1, 2).

Generation of greedy/lazy/randomized expansions, complexity-preserving
binary-to-beta conversion for rational and stream-specified bases,
canonicalization over Pisot bases in a linear number of steps (each on
integers of O(n) bits, so the cost per digit grows with n), exact
enumeration of expansion prefix sets, coin-toss extraction, and simulation
of robust conversion hardware built on imperfect comparators.

`import betaforge` loads none of its modules.  The first lookup of a name in
`__all__`, a module name included, imports every module and binds every
name at once (PEP 562), so which object a name holds does not depend on
which name came first.  Importing one module, such as `betaforge.cli`, loads
only the modules it imports; each CLI subcommand loads its own on the call.
"""

__version__ = "0.1.0"

# module -> the names the package binds from it, in import order
_EXPORTS = {
    "numerics": (
        "AlgebraicBeta",
        "BetaForgeError",
        "BetaSpec",
        "BudgetExceededError",
        "DomainError",
        "ExactnessRequiredError",
        "ExactReal",
        "Interval",
        "MalformedContextError",
        "NumberFieldContext",
        "NumberFieldElement",
        "RationalBeta",
        "SizeGuardError",
        "StreamBeta",
        "beta_from_json",
        "beta_value",
        "ceil_log2",
        "exact_cmp",
        "exact_float",
        "exact_floor",
        "exact_log2_bounds",
        "exact_sign",
        "floor_log2",
        "in_approx",
        "parse_rational",
    ),
    "expand": (
        "BitStream",
        "LandingInfo",
        "StreamExhaustedError",
        "TraceStep",
        "delta_finite",
        "expansion_domain_max",
        "greedy_expand",
        "greedy_prefix",
        "landing_threshold",
        "lazy_expand",
        "random_expand",
        "switch_region",
        "tail_bound",
    ),
    "algebraic": (
        "ClassPartition",
        "ConjugateBounds",
        "Preset",
        "ValueClass",
        "builtin_presets",
        "equiv",
        "equiv_class",
        "get_preset",
        "is_generalized_garsia",
        "partition_words",
        "separation_bound",
    ),
    "canonical": (
        "FastRunStats",
        "PisotWidthError",
        "canonicalize_prefixwise",
        "m_beta_bruteforce",
        "m_beta_fast",
    ),
    "multivalued": (
        "CandidateSet",
        "WrongLengthError",
        "base_length",
        "enumerate_expansions",
        "f_1_to_all",
        "f_2_to_beta",
        "f_beta_to_2",
        "g_beta_window",
        "nu_measure",
    ),
    "convert": (
        "InsufficientBitsError",
        "InvariantViolation",
        "RationalConvParams",
        "RationalConversion",
        "StepDiagnostics",
        "StreamConvParams",
        "StreamConversion",
        "convert_rational",
        "convert_stream",
        "params_rational",
        "params_stream",
        "stream_from_exact",
    ),
    "tosses_adc": (
        "PipelineResult",
        "Quantizer",
        "QuantizerCheck",
        "RunRecord",
        "adc_run",
        "branch_indices",
        "denoise_pipeline",
        "extract_tosses",
        "replay_tosses",
        "validate_quantizer",
    ),
    "pairing": ("MalformedEncodingError", "decode_pairing", "encode_pairing"),
    "cli": ("run_command",),
}

__all__ = [*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for module, names in _EXPORTS.items():
        mod = import_module(f".{module}", __name__)
        globals().update((n, getattr(mod, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
