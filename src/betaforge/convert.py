"""Binary-to-beta converters that read a binary expansion prefix and emit
digit chunks of an expansion of the same value in base beta.

Two converters share one chunk engine: each chunk is N steps of the greedy
orbit of `expand`, with no second domain check, as each carry cap lies below
1/(beta-1).  Both read schedules sigma(i) rest on ceil(N*i*log2(b)), b the
base or its dyadic approximant, which one integer core of `numerics` takes
from the integer powers of b.  For a rational base p/q the chunk size N is
computed once from beta, the running integers p^(N*i) and q^(N*i) also
scale each injected slice, and the residual after i chunks is an integer over
q^(N*i)*2^sigma(i), stepped by the integer orbit core of `expand`; only the
recorded residuals are reduced.  For a base known only through the digit stream
of beta - 1, the converter refines a dyadic approximant a = p/2^e per chunk,
scales step i by the power a^(N*i) that sigma(i) is read from, and also
carries a correction term for the error committed by emitting earlier chunks
against coarser approximants; the schedule is then derived from certified
rational brackets so every containment needed for well-definedness holds
with margin.  Its state is integers over denominators known by
construction: the emitted word's value over p^(N*i), the carried sum over
2^(e*N*i + sigma(i+1)), stepped by the same integer orbit core.

All values are exact, and every check cross-multiplies integers; each
chunk reduces one fraction per recorded value.  An invariant failure means a
broken precondition or a bug and raises immediately with a state dump; it is
never auto-corrected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

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
    _power_budget,
)
from .expand import (
    validate_bits,
    _delta2,
    _greedy_rule,
    _least_power,
    _rational_orbit,
    _tail,
)

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

    def sigmas(self, n: int) -> list[int]:
        """[sigma(0), ..., sigma(n)] in one pass: sigma(n) first, under the
        power budget, then the others from running products p^(N*i) and
        q^(N*i)."""
        last = self.sigma(n)
        step_p, step_q = self.beta.numerator**self.N, self.beta.denominator**self.N
        out, big_p, big_q = [0], 1, 1
        for i in range(1, n):
            big_p, big_q = big_p * step_p, big_q * step_q
            out.append(self._sigma(i, big_p, big_q))
        return out + [last] if n else out

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
    between sigma(i) and sigma(i+1).  The residual after i chunks is carried
    as an integer x over Q*2^sigma(i), the denominator the orbit core
    `_rational_orbit` leaves, so each chunk reduces one fraction, the one
    recorded in `residuals`; the checks cross-multiply.  The carry cap lies
    below 1/(beta-1), so each chunk steps the greedy orbit with no further
    domain check.
    """
    params = params_rational(beta)
    b, n_chunk = params.beta, params.N
    validate_bits(binary_prefix)
    if n < 0:
        raise DomainError("chunk count must be nonnegative")
    last = params.sigma(n)  # sigma increases: check before building the schedule
    if len(binary_prefix) < last:
        raise InsufficientBitsError("binary", last)
    p, q = b.numerator, b.denominator
    step_p, step_q = p**n_chunk, q**n_chunk
    big_p = big_q = 1  # beta^(N*i) = big_p / big_q
    lo = 0  # sigma(i)
    cuts = ((q, p),)  # 1/beta
    x = 0  # the residual is x / (big_q << lo)
    residuals = [Fraction(0)]
    out = []
    for i in range(n):
        next_p, next_q = big_p * step_p, big_q * step_q
        hi = params._sigma(i + 1, next_p, next_q)
        injected = big_p * int(binary_prefix[lo:hi], 2)
        tx, tden = (x << (hi - lo)) + injected, big_q << hi
        # 0 <= tx / tden <= beta / (2*(beta-1)) = p / (2*(p-q))
        if not (0 <= tx and 2 * (p - q) * tx <= p * tden):
            raise InvariantViolation(
                f"step {i}: carried sum {Fraction(tx, tden)} outside [0, {(b / 2) / (b - 1)}]; "
                f"residual={residuals[-1]} injected={Fraction(injected, tden)} beta={b}"
            )
        chunk, x, den = _rational_orbit(p, q, tx, tden, n_chunk, _greedy_rule, cuts)
        if not (0 <= x <= den):
            raise InvariantViolation(f"step {i}: residual {Fraction(x, den)} left [0, 1]")
        out.append(chunk)
        residuals.append(Fraction(x, den))
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
    of a rational in (1, 2) is a power of 2, so the bound is strict.  Past
    128 bits in all, a is first rounded up to a multiple of 2^-64."""
    if a.numerator.bit_length() + a.denominator.bit_length() > 128:
        a = Fraction(-((-a.numerator << 64) // a.denominator), 1 << 64)
    scale = 1 << LOG2_PRECISION_BITS
    return Fraction(_ceil_log2_ratio(a.numerator**scale, a.denominator**scale), scale)


def stream_from_exact(beta: BetaSpec) -> StreamBeta:
    """View an exactly known base as a stream base: the greedy binary digits
    of beta - 1 are generated on demand in exact arithmetic, for a rational
    base on an integer numerator over its fixed denominator, for an
    algebraic one by one certified sign per digit.  The brackets
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
    if isinstance(beta, AlgebraicBeta):
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

        lo, hi = beta.ctx.bracket(Fraction(1, 1 << STREAM_BRACKET_BITS))
        return StreamBeta(gen, lo, hi)

    def gen():  # r = u / q: 2r >= 1 exactly when 2u >= q
        u, q = frac.numerator, frac.denominator
        while True:
            u <<= 1
            if u >= q:
                yield 1
                u -= q
            else:
                yield 0

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
    log2_beta_ub = _dyadic_log2_upper(hi)
    if log2_beta_ub >= 1:
        raise DomainError("brackets leave no room for the schedule; hi too close to 2")
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


def _stream_digits(beta: StreamBeta, count: int, k: int) -> str:
    """The first `count` digits of the stream of beta - 1 as a 0/1 string,
    for a schedule whose last step raises the approximant a_(n+1), read from
    all `count` digits, to the power k.  A 1 at digit t (counting from 1)
    gives that approximant a numerator and a denominator of at least t + 1
    bits each, so the power budget is charged 2t + 2 bits as soon as such a
    1 is drawn, and refuses the power before the rest of the stream is read.
    A short stream is an InsufficientBitsError and a digit other than 0 or 1
    (bools count as digits) a DomainError naming its index, both decided
    once `count` digits are drawn."""
    out = []
    bad = None
    for t, digit in enumerate(islice(beta.bit_factory(), count), 1):
        if digit not in (0, 1):
            bad = bad or (t - 1, digit)
        elif digit:
            _power_budget(k, 2 * t + 2)
        out.append("1" if digit else "0")
    if len(out) < count:
        raise InsufficientBitsError("beta", count)
    if bad:
        raise DomainError(f"stream digit {bad[0]} is {bad[1]!r}, not 0 or 1")
    return "".join(out)


def _word_numerator(p: int, e: int, bits: str) -> int:
    """The integer h with h / p^len(bits) = sum(bits[k] * (2^e/p)^(k+1)),
    the value of `bits` against the dyadic base p/2^e.  It splits the word
    in halves u, v (binary splitting): h(uv) = h(u)*p^|v| + 2^(e*|u|)*h(v),
    so each product is between halves of one size, not the whole word and
    p."""
    powers = {}

    def value(lo, hi):
        if hi - lo <= 16:  # a short word by Horner's rule
            h = 0
            for k in range(lo, hi):
                h *= p
                if bits[k] == "1":
                    h += 1 << (e * (k - lo + 1))
            return h
        mid = (lo + hi) // 2
        if hi - mid not in powers:
            powers[hi - mid] = p ** (hi - mid)
        return value(lo, mid) * powers[hi - mid] + (value(mid, hi) << (e * (mid - lo)))

    return value(0, len(bits))


def convert_stream(beta: StreamBeta, binary_prefix: str, n: int) -> StreamConversion:
    """Convert a binary prefix into N*n digits of an expansion in a base known
    only through the digit stream of beta - 1.

    Chunk i is emitted greedily against the dyadic approximant built from
    lam(i+1) base digits; the carried residual is rescaled by the approximant
    ratio and a correction term accounts for re-reading the emitted word
    against the newer approximant.  A base digit other than 0 or 1 (bools
    count as digits) is a DomainError naming its index; the digits are drawn
    only while a_(n+1)^(N*n) can still pass the power budget.  Every step
    verifies its containment and rate certificates; a failure raises
    InvariantViolation with full state.
    Those checks hold the carried sum in [0, 1 + 3C]: the residual is 0 at
    step 0 and at most 1 + C after it, the injection at most 1 at step 0 and
    C after it, the correction at most C.  The carry cap 1 + 3C =
    hi/(2(hi-1)) lies below 1/(b-1) for every approximant b <= hi, so each
    chunk steps the greedy orbit directly.

    The state is integers over denominators known by construction.  Let a =
    p/2^e be the approximant of step i, m = N*i, a^m = P/Q the scale from
    the schedule and x the first sigma(i+1) binary digits as an integer.
    The emitted word's value against a is h/p^m, from one integer pass
    (`_word_numerator`), and the carried sum residual + injected +
    correction, a^m times the prefix value x/2^sigma(i+1) less that word
    value, is (x*P - h*2^sigma(i+1)) / (Q*2^sigma(i+1)), which the integer
    orbit core `_rational_orbit` steps with no reduction.  Every check
    cross-multiplies, and each step reduces one fraction per diagnostic
    value: the residual, the injection, the correction and the gap.
    """
    params = params_stream(beta)
    n_chunk, c_low = params.N, params.C_lower
    validate_bits(binary_prefix)
    if n < 0:
        raise DomainError("chunk count must be nonnegative")

    beta_bits = _stream_digits(beta, params.lam(n + 1), n_chunk * n)
    approximants = [1 + _delta2(beta_bits[: params.lam(j)]) for j in range(n + 2)]
    for j, (a, b2) in enumerate(zip(approximants, approximants[1:])):
        if not (1 < a <= b2 <= beta.hi):
            raise InvariantViolation(f"approximants not nondecreasing within brackets: {a} then {b2}")
        # genuine digits pin beta into [a, a + 2^-lam(j)], which must meet [lo, hi]
        if a + Fraction(1, 1 << params.lam(j)) < beta.lo:
            raise InvariantViolation(
                f"approximant {float(a):.6g} cannot reach the claimed lower bracket "
                f"{float(beta.lo):.6g}; stream bits inconsistent with brackets"
            )

    def power(i):  # a_(i+1)^(N*i) under the power budget: sigma(i) and the scale of step i
        a, k = approximants[i + 1], n_chunk * i
        _power_budget(k, a.numerator.bit_length() + a.denominator.bit_length())
        return a**k

    def sigma(i, big):
        return _ceil_log2_ratio(big.numerator, big.denominator) - params.floor_log2_C if i else 0

    last = sigma(n, power(n))  # checked before the whole schedule is built
    if len(binary_prefix) < last:
        raise InsufficientBitsError("binary", last)
    scales = [power(i) for i in range(n)]
    sigmas = [sigma(i, big) for i, big in enumerate(scales)] + [last]
    if any(a >= b2 for a, b2 in zip(sigmas, sigmas[1:])):
        raise InvariantViolation(f"binary read schedule not strictly increasing: {sigmas}")

    # the rate cap min(1, C) / (E * hi^(N*i) * N^2 * i^2), hi^(N*i) = big_hn / big_hd
    rate = min(Fraction(1), c_low) / _E_UPPER / n_chunk**2
    step_hn, step_hd = beta.hi.numerator**n_chunk, beta.hi.denominator**n_chunk
    big_hn = big_hd = 1
    emitted = ""
    word, word_den = 0, 1  # the value of `emitted` against approximants[i]
    x = 0  # binary_prefix[:sigmas[i]] as an integer
    residual = Fraction(0)
    diags = []
    for i in range(n):
        b_cur = approximants[i]
        b_next = approximants[i + 1]
        p, e = b_next.numerator, b_next.denominator.bit_length() - 1
        m, scale = n_chunk * i, scales[i]
        big_p, big_q = scale.numerator, scale.denominator  # p^m, 2^(e*m)
        lo, hi = sigmas[i], sigmas[i + 1]
        s = int(binary_prefix[lo:hi], 2)
        x = (x << (hi - lo)) + s
        injected = Fraction(s, 1 << hi) * scale  # each gcd it takes has one small side
        reread = _word_numerator(p, e, emitted)  # the value of `emitted` against b_next, over big_p
        correction = Fraction(big_p * word - word_den * reread, big_q * word_den)

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
        if i >= 1:
            big_hn, big_hd = big_hn * step_hn, big_hd * step_hd
            gap = min(beta.hi - b_cur, Fraction(1, 1 << params.lam(i)))
            if gap.numerator * big_hn * i**2 * rate.denominator > rate.numerator * gap.denominator * big_hd:
                fail("approximant not tightening fast enough")
        # the carried sum residual + injected + correction, over big_q * 2^hi
        total = x * big_p - (reread << hi)
        chunk, shifted, _ = _rational_orbit(p, 1 << e, total, big_q << hi, n_chunk, _greedy_rule, ((1 << e, p),))
        ratio = (approximants[i + 2] / b_next) ** (m + n_chunk)
        if not (1 <= ratio <= 1 + c_low):
            fail("approximant ratio outside [1, 1 + C]")
        step_residual = residual
        # ratio * shifted, with shifted over 2^hi * 2^(e*(m+N)) and b_next^(m+N) = p^(m+N) / 2^(e*(m+N))
        residual = Fraction(shifted, 1 << hi) * (approximants[i + 2] / p) ** (m + n_chunk)
        emitted += chunk
        p_chunk = p**n_chunk
        word, word_den = reread * p_chunk + (_word_numerator(p, e, chunk) << (e * m)), big_p * p_chunk
        approx_gap = Fraction(x * word_den - (word << hi), word_den << hi)
        if not (0 <= approx_gap <= _tail(b_next, m + n_chunk)):
            fail("emitted word drifted from the binary prefix")
        diags.append(StepDiagnostics(i, b_cur, lo, step_residual, injected, correction, ratio, approx_gap))
    return StreamConversion(emitted, tuple(diags), params, tuple(approximants), tuple(sigmas))
