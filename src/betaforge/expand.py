"""Expansion generators for bases in (1, 2].

Digits of an expansion of s come from iterating the shift map r -> beta*r - b
with b chosen by threshold rules: the greedy rule emits 1 whenever possible,
the lazy rule emits 0 whenever possible, and the randomized rule consults a
coin toss exactly on the switch region [1/beta, 1/(beta*(beta-1))] where both
digits stay valid.  All residuals are exact.  Every rule, the comparator
device in `tosses_adc` included, runs on the one orbit loop `_orbit` and
declares up front the thresholds it compares against.  On a field base the
orbit steps integer coordinates over one shared denominator and sends each
comparison through the integer interval filter of `numerics`; a certified
exact sign is taken only on near-ties.  A rational base p/q steps an integer
numerator over a denominator that gains a factor q per step.

The exact-value cores take an exact base value b, a Fraction or a field
element: `_word_value(b, bits)` behind `delta_finite` and `_tail(b, n)` =
b^-n/(b-1) behind `tail_bound`, also used on converter approximants and
window endpoints.  Both types answer 1 / b, so no core asks which one it
holds to invert it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .numerics import (
    BetaForgeError,
    BetaSpec,
    DomainError,
    ExactReal,
    FILTER_BITS,
    SizeGuardError,
    beta_value,
    exact_cmp,
    exact_float,
    exact_sign,
    _least_power,
    _zcoords,
    _zelement,
    _zmul_beta,
)

__all__ = [
    "BitStream",
    "StreamExhaustedError",
    "TraceStep",
    "LandingInfo",
    "validate_bits",
    "delta_finite",
    "tail_bound",
    "expansion_domain_max",
    "switch_region",
    "greedy_prefix",
    "greedy_expand",
    "lazy_expand",
    "random_expand",
    "landing_threshold",
]


class StreamExhaustedError(BetaForgeError):
    """A finite toss stream ran out while a toss was required."""


class BitStream:
    """Pull-based bit source with a position counter.

    Streams are single-consumer; deterministic replay is obtained by
    reconstructing the stream from the same definition.
    """

    def __init__(self, factory: Callable[[], Iterator[int]], label: str = "<stream>"):
        self._iter = factory()
        self._label = label
        self.consumed = 0

    @classmethod
    def from_bits(cls, bits: str) -> "BitStream":
        validate_bits(bits)
        return cls(lambda: iter(int(b) for b in bits), label=f"bits:{bits}")

    @classmethod
    def constant(cls, bit: int) -> "BitStream":
        return cls(lambda: iter(lambda: bit, 2), label=f"constant:{bit}")

    @classmethod
    def alternating(cls, first: int = 1) -> "BitStream":
        def gen():
            b = first
            while True:
                yield b
                b ^= 1

        return cls(gen, label=f"alternating:{first}")

    def next_bit(self) -> int:
        try:
            b = next(self._iter)
        except StopIteration:
            raise StreamExhaustedError(
                f"toss stream {self._label} exhausted after {self.consumed} bits"
            ) from None
        if b not in (0, 1):
            raise DomainError(f"toss stream produced non-bit value {b!r}")
        self.consumed += 1
        return b


def validate_bits(bits: str) -> str:
    if bits.strip("01"):
        raise DomainError(f"not a bitstring over 0/1: {bits!r}")
    return bits


@dataclass(frozen=True)
class TraceStep:
    """One step of the randomized expansion: residual seen, digit emitted,
    and the toss consumed when the residual sat in the switch region."""

    index: int
    residual_before: ExactReal
    emitted_bit: int
    in_switch: bool
    toss_consumed: Optional[int]

    def __post_init__(self):
        if self.in_switch != (self.toss_consumed is not None):
            raise DomainError("toss_consumed must be present exactly when in_switch")


@dataclass(frozen=True)
class LandingInfo:
    """Landing data for a residual r: the real threshold above which every
    iterate of the greedy map lies in [0, 1), and the least iterate index
    that actually lands there (None when the all-ones fixed point never lands)."""

    threshold: float
    least_landing: Optional[int]


def expansion_domain_max(beta: BetaSpec) -> ExactReal:
    """Right endpoint 1/(beta-1) of the representable interval."""
    b = beta_value(beta)
    return 1 / (b - 1)


def switch_region(beta: BetaSpec):
    """Endpoints (1/beta, 1/(beta*(beta-1))) of the region where both digits
    remain valid; degenerate exactly at beta = 2."""
    return _region(beta_value(beta))


def _region(b):
    return 1 / b, 1 / (b * (b - 1))


def _side(sign, lo, hi) -> int:
    """Where the residual sits against the region between cuts `lo` and `hi`
    of its orbit: -1 below it, +1 above it, 0 inside; at most two signs."""
    if sign(lo) < 0:
        return -1
    return 1 if sign(hi) > 0 else 0


# longest orbit, in digits, of every generator.  At this length, from
# s = 3/4 on 2 vCPUs (Python 3.11), golden and tribonacci took 0.03-0.13 s
# and 3/2 0.04-0.05 s greedy or lazy; sqrt2, whose coordinates grow without
# bound, took 4.1 s greedy or lazy (1.7 s at 10^4 digits, 9.8 s at 2*10^4)
ORBIT_CAP = 1 << 14

# the orbit stops filtering once a residual's filter bounds are wider than
# 2^_FILTER_SLACK times its denominator: 2^-(FILTER_BITS - _FILTER_SLACK) in value
_FILTER_SLACK = FILTER_BITS // 2


def _orbit(b, r, n, rule, cuts=()):
    """The shift map r -> b*r - d for n steps, with (d, origin) =
    rule(i, sign, residual).  The rule compares the residual only with the
    thresholds `cuts` it declares: sign(k) is the certified sign of
    r - cuts[k], and residual() builds the exact r.  The step leaves from r
    when origin is None, else from cuts[origin] (a clamp, see
    tosses_adc.adc_run).  Returns the word and the final residual.

    A rational base p/q steps an integer numerator over a denominator that
    gains a factor q per step, so no step reduces a fraction: each comparison
    is one cross-multiplication with a cut, and the Fraction residual is
    built only when the rule asks for it and once on return.  Field bases
    step integer coordinates over one shared denominator, and likewise build
    the exact residual only when asked for; their comparisons go through the
    integer interval filter (`NumberFieldContext.filter_bounds`): the cuts
    are bounded once per call, the residual once per step at its first
    comparison, and the certified evaluator runs only when the two intervals
    overlap, on a near-tie or an exact one.  On a base whose conjugates are not all inside the unit disk
    the coordinates grow without bound; once a near-tie finds the residual's
    bounds wider than 2^-(FILTER_BITS - _FILTER_SLACK) in value, the filter
    can no longer pay for itself and every later sign is taken exactly.
    More than ORBIT_CAP steps raise SizeGuardError before the first one.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > ORBIT_CAP:
        raise SizeGuardError(f"{n} digits exceed the orbit cap ORBIT_CAP = {ORBIT_CAP}")
    out = []
    if isinstance(b, Fraction):
        # r = x / den, not reduced: with b = p/q, b*r - d = (p*x - d*q*den) / (q*den)
        p, q = b.numerator, b.denominator
        x, den = r.numerator, r.denominator
        cut_nd = [(c.numerator, c.denominator) for c in cuts]

        def sign(k):
            cn, cd = cut_nd[k]
            lhs, rhs = x * cd, cn * den
            return (lhs > rhs) - (lhs < rhs)

        def residual():
            return Fraction(x, den)

        for i in range(n):
            d, origin = rule(i, sign, residual)
            if origin is not None:
                x, den = cut_nd[origin]
            out.append("1" if d else "0")
            den *= q
            x = p * x - den if d else p * x
        return "".join(out), Fraction(x, den)

    ctx = b.ctx
    poly = ctx.minpoly
    a = poly[-1]
    sgn = ctx.sign_of_coeffs
    bounds = ctx.filter_bounds
    den, (v, *cut_v) = _zcoords(ctx.degree, (r,) + tuple(cuts))
    cut_box = [bounds(c) for c in cut_v]
    box = None  # the residual's filter bounds, built at a step's first comparison

    def exact(k):
        return sgn([x - y for x, y in zip(v, cut_v[k])])

    def filtered(k):
        nonlocal box, sign
        if box is None:
            box = bounds(v)
        lo, hi = cut_box[k]
        if box[0] > hi:
            return 1
        if box[1] < lo:
            return -1
        if box[1] - box[0] > den << _FILTER_SLACK:
            sign = exact  # the coordinates have outgrown the filter
        return exact(k)

    def residual():
        return r if r is not None else _zelement(ctx, den, v)

    sign = filtered
    for i in range(n):
        d, origin = rule(i, sign, residual)
        if origin is not None:
            v = cut_v[origin]
        out.append("1" if d else "0")
        v = _zmul_beta(poly, v)
        if a != 1:  # a*beta*v sits over a*den; the cuts follow
            den *= a
            cut_v = [[a * x for x in c] for c in cut_v]
            cut_box = [(a * lo, a * hi) for lo, hi in cut_box]
        if d:
            v[0] -= den
        r = box = None  # the residual now lives in v / den only
    return "".join(out), residual()


def _check_in_domain(b, s):
    if exact_sign(s) < 0 or exact_cmp(s, 1 / (b - 1)) > 0:
        raise DomainError("value outside [0, 1/(beta-1)]")


def _word_value(b: ExactReal, bits: str) -> ExactReal:
    """Exact value sum(bits[i] * b^-(i+1)) for an exact base value b."""
    inv_b = 1 / b
    acc = b - b  # zero of the right type
    one = acc + 1
    for ch in reversed(bits):
        if ch == "1":
            acc = acc + one
        acc = acc * inv_b
    return acc


def delta_finite(beta: BetaSpec, bits: str) -> ExactReal:
    """Exact value sum(bits[i] * beta^-(i+1)); empty input gives 0."""
    return _word_value(beta_value(beta), validate_bits(bits))


def _delta2(bits: str) -> Fraction:
    """Exact value of a 0/1 string read as a binary fraction 0.bits."""
    return Fraction(int(bits or "0", 2), 1 << len(bits))


def _tail(b: ExactReal, n: int) -> ExactReal:
    """b^-n / (b - 1) for the exact base value b."""
    return (1 / b) ** n / (b - 1)


def tail_bound(beta: BetaSpec, n: int) -> ExactReal:
    """beta^-n / (beta - 1): the largest value n trailing digits can add."""
    return _tail(beta_value(beta), n)


def _greedy_rule(i, sign, residual):
    """Digit 1 whenever the residual reaches the cut 1/beta."""
    return sign(0) >= 0, None


def greedy_prefix(beta: BetaSpec, r: ExactReal, n_digits: int):
    """First `n_digits` greedy digits of r together with the shifted residual
    beta^n * (r - value(digits)), still inside [0, 1/(beta-1)]."""
    b = beta_value(beta)
    _check_in_domain(b, r)
    return _orbit(b, r, n_digits, _greedy_rule, (1 / b,))


def greedy_expand(beta: BetaSpec, s: ExactReal, n: int) -> str:
    """n-digit prefix of the lexicographically maximal expansion of s."""
    return greedy_prefix(beta, s, n)[0]


def lazy_expand(beta: BetaSpec, s: ExactReal, n: int) -> str:
    """n-digit prefix of the lexicographically minimal expansion of s."""
    b = beta_value(beta)
    _check_in_domain(b, s)
    return _orbit(b, s, n, lambda i, sign, _: (sign(0) > 0, None), _region(b)[1:])[0]


def random_expand(beta: BetaSpec, s: ExactReal, n: int, tosses: BitStream):
    """Randomized expansion driven by an explicit toss stream.

    Digits are forced outside the switch region and equal the next toss
    inside it.  Returns the emitted word and the full step trace.
    """
    b = beta_value(beta)
    _check_in_domain(b, s)
    trace = []

    def rule(i, sign, residual):
        side = _side(sign, 0, 1)
        bit = tosses.next_bit() if side == 0 else int(side > 0)
        trace.append(TraceStep(i, residual(), bit, side == 0, bit if side == 0 else None))
        return bit, None

    word, _ = _orbit(b, s, n, rule, _region(b))
    return word, trace


def landing_threshold(beta: BetaSpec, r: ExactReal) -> LandingInfo:
    """Least iterate index at which the greedy map brings r into [0, 1),
    together with the real-valued threshold it is compared against.

    The all-ones fixed point r = 1/(beta-1) never lands; its threshold is
    infinite and the landing index is None.  Below it, with F = 1/(beta-1),
    the iterates x_k = beta*x_(k-1) - 1 satisfy x_k - F = beta^k (r - F), so
    x_k < 1 exactly when beta^k > ratio = (2-beta)/(1-(beta-1)r), and ratio
    > 0: the landing index is the least power past ratio.  The threshold is
    log(ratio)/log(beta) in floats.  log(ratio) is taken from a rational: on
    a field base, the midpoint of a 2^-80 enclosure, the one float(ratio)
    rounds.  Past the float range, it is the log of the numerator minus that
    of the denominator, so the threshold stays finite however near r lies
    to the fixed point.
    """
    b = beta_value(beta)
    if isinstance(b, Fraction) and b == 2:
        raise DomainError("landing threshold requires beta strictly below 2")
    _check_in_domain(b, r)
    numer = 1 - (b - 1) * r  # zero exactly at the fixed point
    if exact_sign(numer) == 0:
        return LandingInfo(math.inf, None)
    ratio = (2 - b) / numer
    least = _least_power(b, ratio)
    if exact_cmp(b**least, ratio) == 0:  # beta^least = ratio is no landing yet
        least += 1
    if not isinstance(ratio, Fraction):
        lo, hi = ratio.enclosure(Fraction(1, 1 << 80))
        ratio = (lo + hi) / 2
    try:
        log_ratio = math.log(ratio)
    except (OverflowError, ValueError):  # float(ratio) overflows, or underflows to 0
        log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
    return LandingInfo(log_ratio / math.log(exact_float(b)), least)
