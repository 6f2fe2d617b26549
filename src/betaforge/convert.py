"""Binary-to-beta converters that read a binary expansion prefix and emit
digit chunks of an expansion of the same value in base beta.

Two converters share one chunk engine: each chunk is N steps of the greedy
orbit of `expand`, with no second domain check, as each carry cap lies below
1/(beta-1).  Both read schedules sigma(i) rest on ceil(N*i*log2(b)), b the
base or its dyadic approximant, which one integer core of `numerics` takes
from the integer powers of b.  For a rational base p/q the chunk size N is
computed once from beta, and the running integers p^(N*i) and q^(N*i) also
scale each injected slice.  For a base known only through the digit stream
of beta - 1, the converter refines a dyadic approximant per chunk and also
carries a correction term for the error committed by emitting earlier chunks
against coarser approximants; the schedule is then derived from certified
rational brackets so every containment needed for well-definedness holds
with margin.

All state is exact.  An invariant failure means a broken precondition or a
bug and raises immediately with a state dump; it is never auto-corrected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import (
    AlgebraicBeta,
    BetaForgeError,
    BetaSpec,
    DomainError,
    RationalBeta,
    StreamBeta,
    beta_value,
    ceil_log2,
    exact_cmp,
    floor_log2,
    _ceil_log2_ratio,
    _int_powers,
    _least_power,
)
from .expand import validate_bits, _delta2, _greedy_rule, _orbit, _tail, _word_value

__all__ = [
    "InsufficientBitsError",
    "InvariantViolation",
    "RationalConvParams",
    "RationalConversion",
    "StreamConvParams",
    "StepDiagnostics",
    "StreamConversion",
    "params_rational",
    "convert_rational",
    "params_stream",
    "convert_stream",
    "stream_from_exact",
]

# rational upper bound for Euler's number, used in the approximant-rate check
_E_UPPER = Fraction(27183, 10000)
STREAM_BRACKET_BITS = 48
LOG2_PRECISION_BITS = 16


class InsufficientBitsError(BetaForgeError):
    """Not enough input bits; `required` tells how many the call needs."""

    def __init__(self, kind: str, required: int):
        super().__init__(f"insufficient {kind} bits: need at least {required}")
        self.kind = kind
        self.required = required


class InvariantViolation(BetaForgeError):
    """A converter step left its certified containment region."""


@dataclass(frozen=True)
class RationalConvParams:
    """Chunk size and binary read schedule for a rational base in (1, 2).

    sigma(0) = 0 and sigma is strictly increasing; sigma(i) is clamped up to
    at least i, since the derived formula is only a lower bound and can dip
    below zero for bases close to 1.  With beta = p/q, sigma(i) takes
    ceil(N*i*log2(beta)) from the integers p^(N*i) and q^(N*i).
    """

    beta: Fraction
    N: int
    sigma_offset: int

    def sigma(self, i: int) -> int:
        if i < 0:
            raise DomainError("schedule index must be nonnegative")
        if i == 0:
            return 0
        return self._sigma(i, *_int_powers(self.beta, self.N * i))

    def _sigma(self, i: int, big_p: int, big_q: int) -> int:
        """sigma(i) for i >= 1, given big_p / big_q = beta^(N*i)."""
        return max(i, _ceil_log2_ratio(big_p, big_q) + self.sigma_offset)


def params_rational(beta: RationalBeta) -> RationalConvParams:
    """Schedule for a rational base: N is the least chunk size that contracts
    the carried residual back into [0, 1], and sigma(i) reads just enough
    binary digits to keep each injected increment small."""
    if not isinstance(beta, RationalBeta):
        raise DomainError("the chunk converter needs a rational base; use the stream converter otherwise")
    b = beta.value
    if not (1 < b < 2):
        raise DomainError(f"rational converter needs beta strictly inside (1, 2), got {b}")
    offset = ceil_log2(2 * (b - 1) / (2 - b))
    return RationalConvParams(b, _least_power(b, 2), offset)


@dataclass(frozen=True)
class RationalConversion:
    bits: str
    residuals: tuple[Fraction, ...]
    params: RationalConvParams


def convert_rational(beta: RationalBeta, binary_prefix: str, n: int) -> RationalConversion:
    """Convert the first sigma(n) digits of a greedy binary expansion into
    N*n digits of an expansion of the same value in base beta.

    Each step injects the next binary slice, checks the carried sum stays in
    [0, beta/(2*(beta-1))], and emits the greedy chunk of the sum.  With
    beta = p/q, the running integers P = p^(N*i) and Q = q^(N*i) give both
    sigma(i+1) and the injection P*s / (Q*2^sigma(i+1)) of the slice s
    between sigma(i) and sigma(i+1).  The carry cap lies below 1/(beta-1),
    so each chunk steps the greedy orbit with no further domain check.
    """
    params = params_rational(beta)
    b, n_chunk = params.beta, params.N
    validate_bits(binary_prefix)
    if n < 0:
        raise DomainError("chunk count must be nonnegative")
    last = params.sigma(n)  # sigma increases: check before building the schedule
    if len(binary_prefix) < last:
        raise InsufficientBitsError("binary", last)
    step_p, step_q = b.numerator**n_chunk, b.denominator**n_chunk
    big_p = big_q = 1  # beta^(N*i) = big_p / big_q
    lo = 0  # sigma(i)
    carry_cap = (b / 2) / (b - 1)
    cuts = (1 / b,)
    residual = Fraction(0)
    residuals = [residual]
    out = []
    for i in range(n):
        next_p, next_q = big_p * step_p, big_q * step_q
        hi = params._sigma(i + 1, next_p, next_q)
        injected = Fraction(big_p * int(binary_prefix[lo:hi], 2), big_q << hi)
        total = residual + injected
        if not (0 <= total <= carry_cap):
            raise InvariantViolation(
                f"step {i}: carried sum {total} outside [0, {carry_cap}]; "
                f"residual={residual} injected={injected} beta={b}"
            )
        chunk, residual = _orbit(b, total, n_chunk, _greedy_rule, cuts)
        if not (0 <= residual <= 1):
            raise InvariantViolation(f"step {i}: residual {residual} left [0, 1]")
        out.append(chunk)
        residuals.append(residual)
        big_p, big_q, lo = next_p, next_q, hi
    return RationalConversion("".join(out), tuple(residuals), params)


@dataclass(frozen=True)
class StreamConvParams:
    """Schedule for a stream-specified base, derived entirely from certified
    rational brackets [lo, hi] of beta.

    N contracts residuals for every base down to the conservative floor
    1 + (lo-1)/10; L reads enough base digits up front that the dyadic
    approximants start inside [that floor, beta] and tighten fast enough for
    the correction terms to stay below C_lower.
    """

    N: int
    L: int
    C_lower: Fraction
    floor_log2_C: int
    lo: Fraction
    hi: Fraction

    def lam(self, i: int) -> int:
        return self.N * i + self.L


def _dyadic_log2_upper(a: Fraction) -> Fraction:
    """Dyadic upper bound on log2(a) for a in (1, 2), within 2^-p for
    p = LOG2_PRECISION_BITS: the least k/2^p with a^(2^p) <= 2^k.  No power
    of a rational in (1, 2) is a power of 2, so the bound is strict."""
    scale = 1 << LOG2_PRECISION_BITS
    return Fraction(_ceil_log2_ratio(a.numerator**scale, a.denominator**scale), scale)


def stream_from_exact(beta: BetaSpec) -> StreamBeta:
    """View an exactly known base as a stream base: the greedy binary digits
    of beta - 1 are generated on demand in exact arithmetic.  The brackets
    are exact for a rational base; for an algebraic one they are the context's
    `bracket` of width 2^-STREAM_BRACKET_BITS, bisected from the isolating interval,
    so the schedule `params_stream` derives from them does not depend on
    what ran before in the process."""
    if isinstance(beta, StreamBeta):
        return beta
    b = beta_value(beta)
    if isinstance(b, Fraction) and b >= 2:
        raise DomainError("stream view needs beta strictly inside (1, 2)")
    frac = b - 1
    half = Fraction(1, 2)

    def gen():
        r = frac
        while True:
            if exact_cmp(r, half) >= 0:
                yield 1
                r = 2 * r - 1
            else:
                yield 0
                r = 2 * r

    if isinstance(beta, AlgebraicBeta):
        lo, hi = beta.ctx.bracket(Fraction(1, 1 << STREAM_BRACKET_BITS))
        return StreamBeta(gen, lo, hi)
    return StreamBeta(gen, b, b)


def params_stream(beta: StreamBeta) -> StreamConvParams:
    """Evaluate the schedule conservatively: lower bounds for the correction
    cap and beta - 1, an upper bound for log2(beta), so the containment
    guarantees hold for every base inside the brackets."""
    lo, hi = beta.lo, beta.hi
    floor = 1 + (lo - 1) / 10
    n_chunk = _least_power(floor, 2 * (2 - floor) / (2 - hi))
    # correction cap shrinks as beta grows; evaluate at the upper bracket
    c_lower = (hi / (2 * (hi - 1)) - 1) / 3
    if c_lower <= 0:
        raise DomainError("brackets leave no room for the correction cap; hi too close to 2")
    log2_beta_ub = _dyadic_log2_upper(hi)
    arg = Fraction(9, 10) * min(Fraction(1), c_lower) * (lo - 1) * (1 - log2_beta_ub) ** 2
    big_l = 1 + ceil_log2(1 / arg)
    return StreamConvParams(n_chunk, big_l, c_lower, floor_log2(c_lower), lo, hi)


@dataclass(frozen=True)
class StepDiagnostics:
    """Exact per-step state of the stream converter."""

    index: int
    beta_i: Fraction
    sigma_i: int
    residual: Fraction
    injected: Fraction
    correction: Fraction
    ratio: Fraction
    approx_gap: Fraction  # binary prefix value minus emitted-word value


@dataclass(frozen=True)
class StreamConversion:
    bits: str
    diagnostics: tuple[StepDiagnostics, ...]
    params: StreamConvParams
    approximants: tuple[Fraction, ...]
    sigmas: tuple[int, ...]


def convert_stream(beta: StreamBeta, binary_prefix: str, n: int) -> StreamConversion:
    """Convert a binary prefix into N*n digits of an expansion in a base known
    only through the digit stream of beta - 1.

    Chunk i is emitted greedily against the dyadic approximant built from
    lam(i+1) base digits; the carried residual is rescaled by the approximant
    ratio and a correction term accounts for re-reading the emitted word
    against the newer approximant.  Every step verifies its containment and
    rate certificates; a failure raises InvariantViolation with full state.
    The carry cap 1 + 3C = hi/(2(hi-1)) lies below 1/(b-1) for every
    approximant b <= hi, so each chunk steps the greedy orbit directly.
    """
    params = params_stream(beta)
    n_chunk, big_l, c_low = params.N, params.L, params.C_lower
    validate_bits(binary_prefix)
    if n < 0:
        raise DomainError("chunk count must be nonnegative")

    need_beta_bits = params.lam(n + 1)
    src = beta.bit_factory()
    beta_bits = []
    for _ in range(need_beta_bits):
        try:
            beta_bits.append("1" if next(src) else "0")
        except StopIteration:
            raise InsufficientBitsError("beta", need_beta_bits) from None
    approximants = [1 + _delta2("".join(beta_bits[: params.lam(j)])) for j in range(n + 2)]
    for j, (a, b2) in enumerate(zip(approximants, approximants[1:])):
        if not (1 < a <= b2 <= beta.hi):
            raise InvariantViolation(f"approximants not nondecreasing within brackets: {a} then {b2}")
        # genuine digits pin beta into [a, a + 2^-lam(j)], which must meet [lo, hi]
        if a + Fraction(1, 1 << params.lam(j)) < beta.lo:
            raise InvariantViolation(
                f"approximant {float(a):.6g} cannot reach the claimed lower bracket "
                f"{float(beta.lo):.6g}; stream bits inconsistent with brackets"
            )

    def sigma(i):
        return _ceil_log2_ratio(*_int_powers(approximants[i + 1], n_chunk * i)) - params.floor_log2_C if i else 0

    last = sigma(n)  # checked before the whole schedule is built
    if len(binary_prefix) < last:
        raise InsufficientBitsError("binary", last)
    sigmas = [sigma(i) for i in range(n)] + [last]
    if any(a >= b2 for a, b2 in zip(sigmas, sigmas[1:])):
        raise InvariantViolation(f"binary read schedule not strictly increasing: {sigmas}")

    emitted = ""
    emitted_value = Fraction(0)  # value of `emitted` against the current approximant
    residual = Fraction(0)
    diags = []
    total_cap = 1 + 3 * c_low
    for i in range(n):
        b_cur = approximants[i]
        b_next = approximants[i + 1]
        step_slice = binary_prefix[sigmas[i] : sigmas[i + 1]]
        scale = b_next ** (n_chunk * i)
        injected = scale / Fraction(1 << sigmas[i]) * _delta2(step_slice)
        reread = _word_value(b_next, emitted)
        correction = scale * (emitted_value - reread)

        def fail(msg):
            # exact values can run to thousands of digits; dump approximations
            raise InvariantViolation(
                f"{msg}; step {i}: residual~{float(residual):.6g} injected~{float(injected):.6g} "
                f"correction~{float(correction):.6g} approximants={[float(a) for a in approximants[i:i+3]]} "
                f"sigmas={sigmas}"
            )

        # the opening step reads the whole value mass (its read offset is 0),
        # so only steps i >= 1 are capped by C; step 0 is capped by 1
        if not (0 <= injected <= (c_low if i >= 1 else 1)):
            fail("injected increment outside its cap")
        if not (0 <= correction <= c_low):
            fail("correction outside [0, C]")
        if i >= 1 and not (0 <= residual <= 1 + c_low):
            fail("carried residual outside [0, 1 + C]")
        total = residual + injected + correction
        if not (0 <= total <= total_cap):
            fail("carried sum outside [0, 1 + 3C]")
        if i >= 1:
            gap = min(beta.hi - approximants[i], Fraction(1, 1 << params.lam(i)))
            rate_cap = min(Fraction(1), c_low) / (_E_UPPER * beta.hi ** (n_chunk * i) * n_chunk**2 * i**2)
            if gap > rate_cap:
                fail("approximant not tightening fast enough")
        chunk, shifted = _orbit(b_next, total, n_chunk, _greedy_rule, (1 / b_next,))
        ratio = (approximants[i + 2] / b_next) ** (n_chunk * (i + 1))
        if not (1 <= ratio <= 1 + c_low):
            fail("approximant ratio outside [1, 1 + C]")
        step_residual = residual
        residual = ratio * shifted
        emitted += chunk
        emitted_value = reread + _word_value(b_next, chunk) / scale
        approx_gap = _delta2(binary_prefix[: sigmas[i + 1]]) - emitted_value
        if not (0 <= approx_gap <= _tail(b_next, n_chunk * (i + 1))):
            fail("emitted word drifted from the binary prefix")
        diags.append(
            StepDiagnostics(i, b_cur, sigmas[i], step_residual, injected, correction, ratio, approx_gap)
        )
    return StreamConversion(emitted, tuple(diags), params, tuple(approximants), tuple(sigmas))
