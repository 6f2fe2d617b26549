"""Exact number representations and decidable comparisons.

Everything downstream (expansion generators, converters, canonicalization,
enumeration) runs on exact arithmetic: big rationals via `fractions.Fraction`
and elements of a real number field Q(beta) given by an integer minimal
polynomial plus an isolating interval.  A field element is stored as integer
coordinates over one positive denominator in lowest terms, (num, den) with
value sum(num[j] * beta^j) / den, so field arithmetic is integer vector
arithmetic and a sign needs no rescaling.  Signs and enclosures come from
one integer interval evaluator over root brackets bisected afresh from the
isolating interval, so they do not depend on what ran before; bounds that
straddle 0 and are narrower than the resultant bound on a nonzero element
prove the polynomial reducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Callable, Iterator, Sequence, Union

__all__ = [
    "BetaForgeError",
    "MalformedContextError",
    "BudgetExceededError",
    "ExactnessRequiredError",
    "DomainError",
    "SizeGuardError",
    "NumberFieldContext",
    "NumberFieldElement",
    "Interval",
    "RationalBeta",
    "AlgebraicBeta",
    "StreamBeta",
    "BetaSpec",
    "ExactReal",
    "beta_value",
    "beta_from_json",
    "parse_rational",
    "format_rational",
    "exact_sign",
    "exact_cmp",
    "exact_float",
    "exact_floor",
    "floor_log2",
    "ceil_log2",
    "exact_log2_bounds",
    "in_approx",
]

BIT_BUDGET = 1_000_000

# fractional bits of the interval filter's integer bounds (filter_bounds)
FILTER_BITS = 64


class BetaForgeError(Exception):
    """Base class for all library errors."""


class MalformedContextError(BetaForgeError):
    """Number-field context violates its invariants."""


class BudgetExceededError(BetaForgeError):
    """An exact computation would exceed the configured size budget."""


class ExactnessRequiredError(BetaForgeError):
    """A stream-specified base was passed where an exact value is required."""


class DomainError(BetaForgeError):
    """Input outside the documented domain of an operation."""


class SizeGuardError(BetaForgeError):
    """An enumeration grew past its configured cap."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer literal, or a decimal string, exactly."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational from {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """"p/q" or "p"; past the interpreter's int-to-str digit limit, which stays
    as it is, a SizeGuardError."""
    try:
        return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
    except ValueError:  # raised only where the limit exists
        raise SizeGuardError(f"number too long to print: more than {sys.get_int_max_str_digits()} digits") from None


def _cmp_pow2(a: Fraction, m: int) -> int:
    # sign of a - 2^m without building floats
    n, d = a.numerator, a.denominator
    lhs, rhs = (n, d << m) if m >= 0 else (n << (-m), d)
    return (lhs > rhs) - (lhs < rhs)


class NumberFieldContext:
    """A real algebraic number: integer minimal polynomial plus an isolating
    rational interval containing exactly one real root in (1, 2).

    Every root enclosure is a `bracket` and every interval evaluation is
    `filter_bounds` over one, so signs and enclosures are pure functions of
    the context and the request; the memos hold only such values, so
    contexts are safe to share across threads.
    """

    __slots__ = ("minpoly", "degree", "isolating", "_zscale", "_zrows", "_brackets", "_powers")

    def __init__(self, minpoly: Sequence[int], isolating: tuple[Fraction, Fraction]):
        coeffs = tuple(int(c) for c in minpoly)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if len(coeffs) < 2:
            raise MalformedContextError("minimal polynomial must have degree >= 1")
        if coeffs[-1] <= 0:
            raise MalformedContextError("leading coefficient must be positive")
        lo, hi = Fraction(isolating[0]), Fraction(isolating[1])
        if not (1 < lo <= hi < 2):
            raise MalformedContextError("isolating interval must lie within (1, 2)")
        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        slo = self._poly_sign(lo.numerator, lo.denominator)
        shi = self._poly_sign(hi.numerator, hi.denominator)
        if slo == 0 or shi == 0:
            # endpoint happens to be the root only when the root is rational
            if self.degree != 1:
                raise MalformedContextError("isolating endpoint is a root")
        elif slo == shi:
            raise MalformedContextError("minimal polynomial does not change sign over the isolating interval")
        self.isolating = (lo, hi)
        self._zscale, self._zrows = self._reduction_rows()
        self._brackets = {}
        self._powers = {}

    def _poly_sign(self, num: int, den: int) -> int:
        """Sign of the minimal polynomial at num/den for den > 0, taken in
        the integers as the sign of sum(c_i * num^i * den^(degree-i))."""
        poly = self.minpoly
        acc, t = poly[-1], 1
        for c in reversed(poly[:-1]):
            t *= den
            acc = acc * num + c * t
        return (acc > 0) - (acc < 0)

    def _reduction_rows(self):
        """(a^(d-1), rows): rows[k] holds the integer coordinates of
        a^(d-1) * beta^(d+k), a the leading coefficient and d the degree, so
        a product's high coordinates reduce without leaving the integers."""
        d, poly = self.degree, self.minpoly
        a = poly[-1]
        row = [-c for c in poly[:-1]]  # a * beta^d
        rows = []
        for k in range(d - 1):
            if k:
                row = _zmul_beta(poly, row)  # a^(k+1) * beta^(d+k)
            rows.append(tuple(a ** (d - 2 - k) * x for x in row))
        return a ** (d - 1), tuple(rows)

    def enclosure(self) -> tuple[Fraction, Fraction]:
        """The isolating interval.  The package no longer reads it; the name
        stays because the benchmark's tracer (`bench/tracer.py`
        `state_bits`) reports its denominator bits."""
        return self.isolating

    def bracket(self, max_width: Fraction) -> tuple[Fraction, Fraction]:
        """Root bracket of width at most `max_width`, bisected from the
        isolating interval: a pure function of the minimal polynomial, the
        isolating interval and `max_width`.  Memoized per width."""
        got = self._brackets.get(max_width)
        if got is not None:
            return got
        lo, hi = self.isolating
        # the bracket is [p, q] / den; each halving doubles den
        den = lo.denominator * hi.denominator
        p, q = lo.numerator * hi.denominator, hi.numerator * lo.denominator
        w = Fraction(max_width)
        s_hi = self._poly_sign(q, den) or 1  # 0: a rational root on the endpoint
        while (q - p) * w.denominator > w.numerator * den:
            mid, den = p + q, 2 * den
            s_mid = self._poly_sign(mid, den)
            if s_mid == 0:
                # mid is the root itself; pin an interval around it
                root, eps = Fraction(mid, den), w / 4
                got = self._brackets[max_width] = (root - eps, root + eps)
                return got
            p, q = (2 * p, mid) if s_mid == s_hi else (mid, 2 * q)
        got = self._brackets[max_width] = (Fraction(p, den), Fraction(q, den))
        return got

    def refine(self, max_width: Fraction) -> tuple[Fraction, Fraction]:
        """The same as `bracket`.  The name stays because the benchmark's
        tracer (`bench/tracer.py`) wraps `NumberFieldContext.refine` by name."""
        return self.bracket(max_width)

    def filter_bounds(self, v: Sequence[int], bits: int = FILTER_BITS) -> tuple[int, int]:
        """Integers (lo, hi) with lo <= 2^bits * sum(v[j] * root^j) <= hi for
        an integer coordinate vector v: the one interval evaluator.  v[0] is
        taken exactly and root^j, j >= 1, between floor(2^bits * lo^j) and
        ceil(2^bits * hi^j) over the root bracket [lo, hi] of width
        2^-(bits+16), memoized per precision.  The bounds are about
        sum(|v[j]|) units wide, so they separate all but near-ties while the
        coordinates stay small."""
        powers = self._powers.get(bits)
        if powers is None:
            lo, hi = self.bracket(Fraction(1, 1 << (bits + 16)))
            scale = 1 << bits
            powers = self._powers[bits] = tuple(
                (j, floor(scale * lo**j), ceil(scale * hi**j)) for j in range(1, self.degree)
            )
        lo = hi = v[0] << bits
        for j, pl, ph in powers:
            x = v[j]
            if x < 0:
                lo += x * ph
                hi += x * pl
            else:
                lo += x * pl
                hi += x * ph
        return lo, hi

    def sign_of_coeffs(self, coeffs) -> int:
        """Certified sign of sum(coeffs[i] * root^i), for `degree` coefficients;
        exact zero only for the zero coefficient vector.  All-int input is
        evaluated as given; Fraction coefficients are first scaled to integers.

        The sign is read from `filter_bounds` at FILTER_BITS fractional bits,
        then at twice as many, and so on, until the bounds exclude 0.  For a
        nonzero integer vector P and an irreducible minimal polynomial f of
        degree d, Res(f, P) is a nonzero integer and Landau's M(f) <= |f|_2,
        so |P(root)| >= (|P|_1 * |f|_2)^-(d-1).  Bounds that straddle 0 and
        are narrower than that bound therefore prove f reducible, and raise
        MalformedContextError."""
        ints = coeffs
        for c in coeffs:
            if type(c) is not int:
                den = lcm(*(f.denominator for f in coeffs if isinstance(f, Fraction)))
                ints = [f.numerator * (den // f.denominator) if isinstance(f, Fraction) else f * den for f in coeffs]
                break
        if not any(ints[1:]):
            c = ints[0]
            return (c > 0) - (c < 0)
        bits = FILTER_BITS
        norm = 0
        while True:
            lo, hi = self.filter_bounds(ints, bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if not norm:
                l1 = sum(abs(c) for c in ints)
                norm = (l1 * l1 * sum(c * c for c in self.minpoly)) ** (self.degree - 1)
            # width 2^-bits * w below the bound, squared to stay in the
            # integers; the bit lengths rule most levels out without the product
            w = hi - lo
            if 2 * w.bit_length() + norm.bit_length() - 3 < 2 * bits and w * w * norm < 1 << (2 * bits):
                raise MalformedContextError(
                    "a nonzero element has value 0 at the root, so the minimal polynomial is reducible"
                )
            bits *= 2

    def __repr__(self):
        lo, hi = self.isolating
        return f"NumberFieldContext(minpoly={list(self.minpoly)}, isolating=({lo}, {hi}))"


# Integer coordinates: an element of Q(beta) as a vector v of ints over one
# positive denominator, value sum(v[j] * beta^j) / den, the form in which
# NumberFieldElement stores itself.  With a the leading coefficient of the
# minimal polynomial, a*beta*v is again integral, so the shift map and the
# level sweep step without any Fraction arithmetic.


def _zcoords(degree: int, xs) -> tuple[int, list[list[int]]]:
    """(den, vectors): integer coordinates of the exact reals `xs` (Fractions,
    ints or field elements) over one common denominator."""
    pairs = []
    for x in xs:
        if isinstance(x, NumberFieldElement):
            pairs.append((x.num, x.den))
        else:
            q = Fraction(x)
            pairs.append(((q.numerator,) + (0,) * (degree - 1), q.denominator))
    den = lcm(*(d for _, d in pairs))
    return den, [[c * (den // d) for c in num] for num, d in pairs]


def _zmul_beta(poly: Sequence[int], v: list[int]) -> list[int]:
    """a*beta*v for integer coordinates v, where a = poly[-1] leads the
    ascending minimal polynomial `poly`; the value sits over a times the
    denominator of v."""
    a = poly[-1]
    w = [0] + (v[:-1] if a == 1 else [a * x for x in v[:-1]])
    top = v[-1]
    if top:
        w = [x - top * c for x, c in zip(w, poly)]
    return w


def _zdiv_beta(poly: Sequence[int], v: list[int]) -> list[int]:
    """v / beta over the same denominator, for integer coordinates v whose
    quotient is integral; every division below is then exact."""
    a = poly[-1]
    t = -a * v[0] // poly[0]
    return [x + c * t // a for x, c in zip(v[1:], poly[1:])] + [t]


class NumberFieldElement:
    """Element (n0 + n1*beta + ... + n_{d-1}*beta^{d-1}) / den of Q(beta).

    Stored as integer coordinates `num` (a tuple of d ints) over one
    positive denominator `den`, in lowest terms: gcd(den, *num) = 1, and
    zero is ((0, ..., 0), 1).  The form is unique, so equality and hashing
    compare (num, den); addition is one integer vector pass, multiplication
    an integer convolution reduced by the context's integer rows, and the
    sign evaluates `num` directly.  `coeffs` gives the same element as a
    tuple of d Fractions, the form the constructor also accepts.

    Immutable.  Comparisons go through certified sign determination.  Mixed
    arithmetic with ints and Fractions coerces the rational operand into the
    field.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: NumberFieldContext, coeffs: Sequence[Fraction]):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != ctx.degree:
            raise MalformedContextError(f"expected {ctx.degree} coefficients, got {len(cs)}")
        # each coefficient is reduced, so over the lcm of their denominators
        # the coordinates are already in lowest terms
        den = lcm(*(c.denominator for c in cs))
        _set_ctx(self, ctx)
        _set_num(self, tuple(c.numerator * (den // c.denominator) for c in cs))
        _set_den(self, den)

    def __setattr__(self, *_):
        raise AttributeError("NumberFieldElement is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions: num[j] / den for each j."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    @classmethod
    def from_rational(cls, ctx: NumberFieldContext, q) -> "NumberFieldElement":
        return cls(ctx, (Fraction(q),) + (Fraction(0),) * (ctx.degree - 1))

    @classmethod
    def generator(cls, ctx: NumberFieldContext) -> "NumberFieldElement":
        if ctx.degree == 1:
            # beta is rational: -c0/c1
            return cls(ctx, (Fraction(-ctx.minpoly[0], ctx.minpoly[1]),))
        return _zelement(ctx, 1, (0, 1) + (0,) * (ctx.degree - 2))

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.ctx is not self.ctx:
                raise DomainError("cannot mix elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return NumberFieldElement.from_rational(self.ctx, other)
        return None

    def _plus(self, o, sign):
        """self + sign*o, sign = 1 or -1, over the least common denominator."""
        sd, od = self.den, o.den
        if sd == od:
            num = [a + sign * b for a, b in zip(self.num, o.num)]
        else:
            g = gcd(sd, od)
            s, t = od // g, sign * (sd // g)
            num = [a * s + b * t for a, b in zip(self.num, o.num)]
            sd *= s
        return _zelement(self.ctx, sd, num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _zelement(self.ctx, self.den, [-a for a in self.num])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        d = ctx.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(self.num):
            if ai:
                for j, bj in enumerate(o.num):
                    if bj:
                        conv[i + j] += ai * bj
        scale = ctx._zscale
        out = [scale * c for c in conv[:d]]
        for c, row in zip(conv[d:], ctx._zrows):
            if c:
                out = [x + c * r for x, r in zip(out, row)]
        return _zelement(ctx, self.den * o.den * scale, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = NumberFieldElement.from_rational(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "NumberFieldElement":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # gcd(minpoly, self-as-poly) over Q[x]; minpoly irreducible => gcd = 1
        f = [Fraction(c) for c in self.ctx.minpoly]
        g = list(self.coeffs)
        while len(g) > 1 and not g[-1]:
            g.pop()
        # invariants: s*self + t*minpoly = r  (t never needed)
        r0, r1 = f, g
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while len(r1) > 1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1 and not r1[0]:
                raise MalformedContextError("minimal polynomial is reducible")
            if len(r1) == 1:
                inv = 1 / r1[0]
                coeffs = [c * inv for c in s1] + [Fraction(0)] * self.ctx.degree
                return NumberFieldElement(self.ctx, coeffs[: self.ctx.degree])
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def is_zero(self) -> bool:
        return not any(self.num)

    def sign(self) -> int:
        """Certified sign: 0 exactly when the reduced element is zero."""
        return self.ctx.sign_of_coeffs(self.num)

    def enclosure(self, max_width: Fraction) -> tuple[Fraction, Fraction]:
        """Rational enclosure of the real value, of width at most `max_width`:
        `filter_bounds` of `num` over den * 2^bits, bits doubling from
        FILTER_BITS until narrow enough.  A negative width is a DomainError,
        and so is 0 except on a rational element, whose enclosure is [v, v]."""
        if max_width < 0 or (max_width == 0 and any(self.num[1:])):
            raise DomainError(f"enclosure width must be positive, got {max_width}")
        bits = FILTER_BITS
        while True:
            lo, hi = self.ctx.filter_bounds(self.num, bits)
            scale = self.den << bits
            if hi - lo <= max_width * scale:
                return Fraction(lo, scale), Fraction(hi, scale)
            bits *= 2

    def __float__(self):
        lo, hi = self.enclosure(Fraction(1, 1 << 80))
        return float((lo + hi) / 2)

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, NumberFieldElement) else other
        if o is None or not isinstance(o, NumberFieldElement):
            return NotImplemented
        if o.ctx is not self.ctx:
            return False
        return self.num == o.num and self.den == o.den

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((id(self.ctx), self.num, self.den))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else f"{c}*b^{i}")
        return "NFE(" + (" + ".join(terms) if terms else "0") + ")"


# the slots' own setters, which bypass the immutability guard
_set_ctx = NumberFieldElement.ctx.__set__
_set_num = NumberFieldElement.num.__set__
_set_den = NumberFieldElement.den.__set__


def _zelement(ctx: NumberFieldContext, den: int, v: Sequence[int]) -> NumberFieldElement:
    """The field element with integer coordinates v over den > 0, brought
    to lowest terms."""
    g = gcd(den, *v)
    e = object.__new__(NumberFieldElement)
    _set_ctx(e, ctx)
    _set_num(e, tuple(v) if g == 1 else tuple(x // g for x in v))
    _set_den(e, den // g)
    return e


def _poly_divmod(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(1, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] / lb
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    while len(a) > 1 and not a[-1]:
        a.pop()
    return q, a


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    for i, bi in enumerate(b):
        a[i] -= bi
    return a


ExactReal = Union[Fraction, NumberFieldElement]


def exact_sign(x: ExactReal) -> int:
    if isinstance(x, NumberFieldElement):
        return x.sign()
    return (x > 0) - (x < 0)


def exact_cmp(a: ExactReal, b: ExactReal) -> int:
    """Sign of a - b; coerces rationals into the field when needed."""
    if isinstance(a, NumberFieldElement) or isinstance(b, NumberFieldElement):
        return exact_sign(a - b)
    return (a > b) - (a < b)


def exact_float(x: ExactReal) -> float:
    return float(x)


def exact_floor(x: ExactReal) -> int:
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    lo, hi = x.enclosure(Fraction(1, 4))
    k = lo.numerator // lo.denominator
    # walk to the unique k with k <= x < k+1, deciding boundaries exactly
    while exact_cmp(x, k) < 0:
        k -= 1
    while exact_cmp(x, k + 1) >= 0:
        k += 1
    return k


def floor_log2(a: ExactReal) -> int:
    """Greatest m with 2^m <= a, for a > 0, decided exactly."""
    if exact_sign(a) <= 0:
        raise DomainError("floor_log2 requires a positive argument")
    if isinstance(a, Fraction):
        m = a.numerator.bit_length() - a.denominator.bit_length()
        while _cmp_pow2(a, m) < 0:
            m -= 1
        while _cmp_pow2(a, m + 1) >= 0:
            m += 1
        return m
    lo, _ = a.enclosure(Fraction(1, 16))
    if lo <= 0:
        lo, _ = a.enclosure(Fraction(1, 1 << 40))
    m = floor_log2(lo) if lo > 0 else 0
    while exact_cmp(a, Fraction(2) ** m) < 0:
        m -= 1
    while exact_cmp(a, Fraction(2) ** (m + 1)) >= 0:
        m += 1
    return m


def ceil_log2(a: ExactReal) -> int:
    """Least m with 2^m >= a, for a > 0; exact powers of two take their exponent."""
    f = floor_log2(a)
    return f if exact_cmp(a, Fraction(2) ** f) == 0 else f + 1


def _least_power(b: ExactReal, target: ExactReal) -> int:
    """Least m >= 0 with b^m >= target, for b > 1; exact_cmp decides each
    step, so an exact power b^m = target gives m.  A base at or below 1 is a
    DomainError, since its powers need never reach the target."""
    if exact_cmp(b, 1) <= 0:
        raise DomainError(f"least power needs a base above 1, got {b}")
    m = 0
    p = b - b + 1
    while exact_cmp(p, target) < 0:
        p = p * b
        m += 1
    return m


def _size_bits(a: ExactReal) -> int:
    if isinstance(a, Fraction):
        return a.numerator.bit_length() + a.denominator.bit_length()
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in a.coeffs)


def exact_log2_bounds(a: ExactReal, k: int) -> tuple[int, int]:
    """Return (ceil(k*log2(a)), floor(log2(a))), both decided by exact
    comparison of a^k (resp. a) against powers of two.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    if exact_sign(a) <= 0:
        raise DomainError("a must be positive")
    if k * max(1, _size_bits(a)) > BIT_BUDGET:
        raise BudgetExceededError(f"a^{k} would exceed the {BIT_BUDGET}-bit budget")
    p = a ** k
    return ceil_log2(p), floor_log2(a)


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact endpoints, lo <= hi."""

    lo: ExactReal
    hi: ExactReal

    def __post_init__(self):
        if exact_cmp(self.lo, self.hi) > 0:
            raise DomainError("interval endpoints out of order")

    def contains(self, x: ExactReal) -> bool:
        return exact_cmp(self.lo, x) <= 0 and exact_cmp(x, self.hi) <= 0


def in_approx(s: ExactReal, interval: Interval, n: int) -> bool:
    """Membership of s in `interval` widened by 2^-n on both sides.

    Deterministic: true iff s lies in [lo - 2^-n, hi + 2^-n].  Exact
    membership in [lo, hi] always answers true, and a true answer always
    certifies membership in the widened interval.
    """
    if n < 0:
        raise DomainError("precision exponent must be nonnegative")
    pad = Fraction(1, 1 << n)
    return exact_cmp(s, interval.lo - pad) >= 0 and exact_cmp(s, interval.hi + pad) <= 0


@dataclass(frozen=True)
class RationalBeta:
    """Base given exactly as a rational in (1, 2]."""

    value: Fraction

    def __post_init__(self):
        v = Fraction(self.value)
        object.__setattr__(self, "value", v)
        if not (1 < v <= 2):
            raise DomainError(f"base {v} outside (1, 2]")


@dataclass(frozen=True)
class AlgebraicBeta:
    """Base given as the unique root of `ctx.minpoly` inside `ctx` isolating interval."""

    ctx: NumberFieldContext

    def element(self) -> NumberFieldElement:
        return NumberFieldElement.generator(self.ctx)


@dataclass(frozen=True)
class StreamBeta:
    """Base known only through the binary-digit stream of beta - 1, with
    rational bracketing bounds 1 < lo <= beta <= hi < 2.

    `bit_factory` returns a fresh iterator over the digits on every call, so
    consumption is replayable by reconstruction.
    """

    bit_factory: Callable[[], Iterator[int]]
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = Fraction(self.lo), Fraction(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not (1 < lo <= hi < 2):
            raise DomainError("stream brackets must satisfy 1 < lo <= hi < 2")


BetaSpec = Union[RationalBeta, AlgebraicBeta, StreamBeta]


def beta_value(spec: BetaSpec) -> ExactReal:
    """Exact value of the base; stream bases are rejected."""
    if isinstance(spec, RationalBeta):
        return spec.value
    if isinstance(spec, AlgebraicBeta):
        return spec.element()
    if isinstance(spec, StreamBeta):
        raise ExactnessRequiredError(
            "base given as a bit stream has no exact value; use the stream converter"
        )
    raise DomainError(f"not a base specification: {spec!r}")


def _json_rational(obj: dict, key: str) -> Fraction:
    """obj[key] as an exact rational; a missing key is a DomainError."""
    if key not in obj:
        raise DomainError(f"missing key {key!r}")
    return parse_rational(str(obj[key]))


def beta_from_json(obj: dict) -> BetaSpec:
    """Build a base from its JSON object form.

    {"minpoly": [c0, ..., cd], "isolating": ["p/q", "r/s"]} for algebraic;
    {"bits": "0101...", "lo": "p/q", "hi": "r/s"} for a stream base.
    Malformed objects raise DomainError.
    """
    if not isinstance(obj, dict):
        raise DomainError("a base object must be a JSON object")
    if "minpoly" in obj:
        minpoly = obj["minpoly"]
        coeffs = [parse_rational(str(c)) for c in minpoly] if isinstance(minpoly, (list, tuple)) else None
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            raise DomainError("minpoly must be a list of integers")
        isolating = obj.get("isolating")
        if not isinstance(isolating, (list, tuple)) or len(isolating) != 2:
            raise DomainError("isolating must be a list of two rationals")
        lo, hi = (parse_rational(str(q)) for q in isolating)
        return AlgebraicBeta(NumberFieldContext([int(c) for c in coeffs], (lo, hi)))
    if "bits" in obj:
        bits = str(obj["bits"])
        if bits.strip("01"):
            raise DomainError("stream bits must be a string over 0/1")
        lo = _json_rational(obj, "lo")
        hi = _json_rational(obj, "hi")
        return StreamBeta(lambda: iter(int(b) for b in bits), lo, hi)
    raise DomainError("unrecognized base object; expected minpoly/isolating or bits/lo/hi")
