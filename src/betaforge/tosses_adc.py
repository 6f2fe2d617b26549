"""Simulation of expansion hardware with an imperfect comparator, and
recovery of the coin tosses behind any expansion.

The comparator answers reliably only outside a band around its threshold;
inside the band it returns an arbitrary bit, modeled here by an explicit
replayable toss stream.  When the band sits inside the switch region the
device still emits a valid expansion of its input.  Conversely, the tosses
that drive the randomized algorithm to a particular expansion prefix are
recoverable: they sit exactly at the indices where the prefix tree branches,
which are the steps where the prefix's own trajectory visits the switch
region.  `replay_tosses` reads them off that trajectory in time linear in
the prefix length; `extract_tosses` reads them off a given full prefix set
of K members, in any order, with one sort (O(K) when the members come
sorted, as `enumerate_expansions` returns them) and n + 1 bisections for a
word of n digits.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .numerics import (
    BetaSpec,
    DomainError,
    ExactReal,
    beta_value,
    exact_cmp,
    exact_sign,
)
from .expand import BitStream, switch_region, validate_bits, _check_in_domain, _orbit, _region, _side
from .canonical import FastRunStats, m_beta_fast
from .algebraic import ConjugateBounds

__all__ = [
    "Quantizer",
    "QuantizerCheck",
    "RunRecord",
    "PipelineResult",
    "validate_quantizer",
    "adc_run",
    "branch_indices",
    "extract_tosses",
    "replay_tosses",
    "denoise_pipeline",
]


@dataclass(frozen=True)
class Quantizer:
    """Threshold comparator with symmetric uncertainty band [t - eps, t + eps]."""

    t: ExactReal
    eps: ExactReal

    def __post_init__(self):
        if exact_sign(self.eps) < 0:
            raise DomainError("quantizer uncertainty must be nonnegative")


@dataclass(frozen=True)
class QuantizerCheck:
    valid: bool
    reason: Optional[str] = None


@dataclass(frozen=True)
class RunRecord:
    """One device run: emitted bits, the step indices whose residual sat in
    the switch region, the bits emitted at exactly those indices, the final
    shifted residual, and whether any step escaped the representable interval
    (possible only with an unsound quantizer; the run continues clamped)."""

    bits: str
    switch_indices: tuple[int, ...]
    consumed_tosses: str
    residual: ExactReal
    fault: bool
    fault_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class PipelineResult:
    raw: str
    canonical: str
    record: RunRecord
    stats: FastRunStats


def validate_quantizer(beta: BetaSpec, q: Quantizer) -> QuantizerCheck:
    """Sound iff the uncertainty band sits inside the switch region, so that
    an arbitrary in-band answer is always a digit both continuations allow."""
    s_lo, s_hi = switch_region(beta)
    band_lo = q.t - q.eps
    band_hi = q.t + q.eps
    if exact_cmp(band_lo, s_lo) < 0:
        return QuantizerCheck(False, f"band lower end {band_lo} falls below the switch region start {s_lo}")
    if exact_cmp(band_hi, s_hi) > 0:
        return QuantizerCheck(False, f"band upper end {band_hi} exceeds the switch region end {s_hi}")
    return QuantizerCheck(True)


def adc_run(beta: BetaSpec, q: Quantizer, s: ExactReal, n: int, tosses: BitStream) -> RunRecord:
    """Drive the comparator loop for n digits from input s.

    In-band residuals consume the next toss; the trajectory's switch-region
    visits and the bits emitted there are recorded, so a sound run can be
    checked against toss extraction bit for bit.  A digit that would take the
    residual out of the representable interval sets the fault flag and is
    clamped: it steps from the nearer switch-region end instead, which lands
    on 0 or 1/(beta-1) exactly.
    """
    b = beta_value(beta)
    _check_in_domain(b, s)
    switch = []
    fault_idx = []

    # cuts: the switch region (0, 1), then the comparator band (2, 3)
    def rule(i, sign, _):
        side = _side(sign, 0, 1)
        band = _side(sign, 2, 3)
        bit = tosses.next_bit() if band == 0 else int(band > 0)
        if side == 0:
            switch.append(i)
        elif bit != (side > 0):  # 1 below the region or 0 above it
            fault_idx.append(i)
            return bit, 0 if bit else 1
        return bit, None

    bits, r = _orbit(b, s, n, rule, _region(b) + (q.t - q.eps, q.t + q.eps))
    return RunRecord(bits, tuple(switch), "".join(bits[i] for i in switch), r, bool(fault_idx), tuple(fault_idx))


def replay_tosses(beta: BetaSpec, s: ExactReal, x: str) -> str:
    """Tosses that make the randomized algorithm emit x from s, found in one
    pass: x's digits at the steps where its trajectory sits in the switch
    region.  Equals extract_tosses over the full prefix set of s."""
    b = beta_value(beta)
    _check_in_domain(b, s)
    validate_bits(x)
    tosses = []

    def rule(i, sign, _):
        side = _side(sign, 0, 1)
        bit = x[i] == "1"
        if side == 0:
            tosses.append(x[i])
        elif bit != (side > 0):
            raise DomainError("word is not a member of the given prefix set")
        return bit, None

    _orbit(b, s, len(x), rule, _region(b))
    return "".join(tosses)


def branch_indices(expansions: Sequence[str], x: str) -> tuple[int, ...]:
    """Indices i (0-based prefix lengths) at which some member of the prefix
    set shares x's first i digits but then differs.

    Members may come in any order.  Sorted, the members that start with a
    given prefix sit together, from the first member at or after it; so one
    bisection decides membership and one more per depth i decides whether
    some member starts with x[:i] followed by the other digit."""
    validate_bits(x)
    words = sorted(expansions)
    j = bisect_left(words, x)
    if j == len(words) or words[j] != x:
        raise DomainError("word is not a member of the given prefix set")
    branches = []
    for i, d in enumerate(x):
        sibling = x[:i] + ("1" if d == "0" else "0")
        j = bisect_left(words, sibling)
        if j < len(words) and words[j].startswith(sibling):
            branches.append(i)
    return tuple(branches)


def extract_tosses(beta: BetaSpec, expansions: Sequence[str], x: str) -> str:
    """Tosses that make the randomized algorithm emit x: the digit x takes at
    every branch index, in increasing index order.

    `expansions` must be the full prefix set of the underlying value; the
    result equals the consumed-toss prefix of any run that produced x.
    """
    del beta  # extraction is purely combinatorial once the prefix set is given
    return "".join(x[i] for i in branch_indices(expansions, x))


def denoise_pipeline(
    beta: BetaSpec,
    q: Quantizer,
    s: ExactReal,
    n: int,
    tosses: BitStream,
    bounds: Optional[ConjugateBounds] = None,
) -> PipelineResult:
    """Device run followed by canonicalization: the raw expansion is mapped to
    the value-preserving lexicographic maximum of its class."""
    check = validate_quantizer(beta, q)
    if not check.valid:
        raise DomainError(f"pipeline requires a sound quantizer: {check.reason}")
    record = adc_run(beta, q, s, n, tosses)
    canonical, stats = m_beta_fast(beta, record.bits, bounds)
    return PipelineResult(record.bits, canonical, record, stats)
