"""Exact number representations and decidable comparisons.

Everything downstream (expansion generators, converters, canonicalization,
enumeration) runs on exact arithmetic: big rationals via `fractions.Fraction`
and elements of a real number field Q(beta) given by an integer minimal
polynomial plus an isolating interval.  A field element is stored as integer
coordinates over one positive denominator in lowest terms, (num, den) with
value sum(num[j] * beta^j) / den, so field arithmetic is integer vector
arithmetic: a product sums, and an inverse eliminates on, the integer
columns of multiplication, and a sign takes the integer vector as it is.
The ceiling log2 of a rational, or of a rational power built as integers
under the one BIT_BUDGET guard, is one integer core too.  Signs and
enclosures come from one integer interval evaluator over root brackets
bisected afresh from the isolating interval, so they do not depend on what
ran before; bounds that straddle 0 and are narrower than the resultant
bound on a nonzero element prove the polynomial reducible.
"""

from __future__ import annotations

import re
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
    """Parse "p/q", an integer literal, or a decimal string, exactly.

    A numerator or denominator of more than sys.get_int_max_str_digits()
    digits, the limit format_rational prints against, is a SizeGuardError,
    and so is a run of more digits than that in the text, which int() would
    refuse.  A decimal m * 10^k is decided before the power of ten is built:
    for a nonzero m written in L characters, 10^(|k| - L) bounds the
    numerator (k > 0) or the denominator (k < 0) from below."""
    text = text.strip()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and any(len(run) - run.count("_") > limit for run in re.findall(r"\d[\d_]*", text)):
        raise SizeGuardError(f"number too long to parse: more than {limit} digits")
    try:
        decimal = re.fullmatch(r"(.*)[eE]([-+]?\d+(?:_\d+)*)", text) if limit else None
        if decimal is None:
            q = Fraction(text)
        else:
            head, k = decimal[1], int(decimal[2])
            q = Fraction(head + "e0")  # the form check, without the power
            if q:
                if abs(k) - len(head) >= limit:
                    raise SizeGuardError(f"number too long to parse: more than {limit} digits")
                q *= Fraction(10) ** k
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational from {text!r}") from exc
    if limit and max(abs(q.numerator), q.denominator) >= 10**limit:
        raise SizeGuardError(f"number too long to parse: more than {limit} digits")
    return q


def format_rational(q: Fraction) -> str:
    """"p/q" or "p"; past the interpreter's int-to-str digit limit, which stays
    as it is, a SizeGuardError."""
    try:
        return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
    except ValueError:  # raised only where the limit exists
        raise SizeGuardError(f"number too long to print: more than {sys.get_int_max_str_digits()} digits") from None


def _ceil_log2_ratio(num: int, den: int) -> int:
    """Least m with 2^m * den >= num, for positive integers: the bit lengths
    put it at m or m + 1, and one shifted comparison decides."""
    m = num.bit_length() - den.bit_length()
    lhs, rhs = (den << m, num) if m >= 0 else (den, num << -m)
    return m if lhs >= rhs else m + 1


def _power_budget(k: int, bits: int) -> None:
    """Refuse an exact power a^k of a `bits`-bit a past BIT_BUDGET bits."""
    if k * bits > BIT_BUDGET:
        raise BudgetExceededError(f"a^{k} would exceed the {BIT_BUDGET}-bit budget")


def _int_powers(q: Fraction, k: int) -> tuple[int, int]:
    """(p^k, r^k) for q = p/r and k >= 0, under the power budget."""
    p, r = q.numerator, q.denominator
    _power_budget(k, p.bit_length() + r.bit_length())
    return p**k, r**k


class NumberFieldContext:
    """A real algebraic number: integer minimal polynomial plus an isolating
    rational interval containing exactly one real root in (1, 2).

    Every root enclosure is a `bracket` and every interval evaluation is
    `filter_bounds` over one, so signs and enclosures are pure functions of
    the context and the request.  The one memo, `_powers`, holds the root
    powers of `filter_bounds` per precision, a value of the same kind, so
    contexts are safe to share across threads.
    """

    __slots__ = ("minpoly", "degree", "isolating", "_powers")

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

    def enclosure(self) -> tuple[Fraction, Fraction]:
        """The isolating interval.  The package no longer reads it; the name
        stays because the benchmark's tracer (`bench/tracer.py`
        `state_bits`) reports its denominator bits."""
        return self.isolating

    def bracket(self, max_width: Fraction) -> tuple[Fraction, Fraction]:
        """Root bracket of width at most `max_width`, bisected from the
        isolating interval: a pure function of the minimal polynomial, the
        isolating interval and `max_width`.  A width of 0 or below is a
        DomainError at once."""
        if max_width <= 0:
            raise DomainError(f"bracket width must be positive, got {max_width}")
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
                return root - eps, root + eps
            p, q = (2 * p, mid) if s_mid == s_hi else (mid, 2 * q)
        return Fraction(p, den), Fraction(q, den)

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

    def sign_of_coeffs(self, coeffs: Sequence[int]) -> int:
        """Certified sign of sum(coeffs[i] * root^i) for an integer coordinate
        vector of `degree` ints; exact zero only for the zero vector.  A field
        element's sign is this sign of its `num`.

        The sign is read from `filter_bounds` at FILTER_BITS fractional bits,
        then at twice as many, and so on, until the bounds exclude 0.  For a
        nonzero integer vector P and an irreducible minimal polynomial f of
        degree d, Res(f, P) is a nonzero integer and Landau's M(f) <= |f|_2,
        so |P(root)| >= (|P|_1 * |f|_2)^-(d-1).  Bounds that straddle 0 and
        are narrower than that bound therefore prove f reducible, and raise
        MalformedContextError."""
        if not any(coeffs[1:]):
            c = coeffs[0]
            return (c > 0) - (c < 0)
        bits = FILTER_BITS
        norm = 0
        while True:
            lo, hi = self.filter_bounds(coeffs, bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if not norm:
                l1 = sum(abs(c) for c in coeffs)
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


def _columns(poly: Sequence[int], v: Sequence[int]) -> list[list[int]]:
    """The integer columns of multiplication by v: (a*beta)^j * v for
    j < degree, each one `_zmul_beta` step from the one before."""
    cols = [list(v)]
    for _ in range(len(v) - 1):
        cols.append(_zmul_beta(poly, cols[-1]))
    return cols


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
    compare (num, den), a rational element hashing as its Fraction; addition
    is one integer vector pass, a product and an inverse work on the integer
    columns of multiplication, and the sign evaluates `num` directly.
    `coeffs` gives the element as d Fractions, as the constructor takes it.

    Immutable.  Comparisons go through certified sign determination.  Mixed
    arithmetic with ints and Fractions coerces the rational operand into the
    field, except division, which scales the coordinates of x or of its
    inverse by the rational directly.
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
        if ctx.degree == 1:  # beta is rational: -c0/c1
            return _zelement(ctx, ctx.minpoly[1], (-ctx.minpoly[0],))
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
        """x*y = sum(y_j * a^(d-1-j) * (a*beta)^j * x) / a^(d-1), a leading
        the degree-d minimal polynomial: a sum of the columns of x."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        a, top = ctx.minpoly[-1], ctx.degree - 1
        out = [0] * ctx.degree
        for j, (y, col) in enumerate(zip(o.num, _columns(ctx.minpoly, self.num))):
            if y:
                y *= a ** (top - j)
                out = [s + y * x for s, x in zip(out, col)]
        return _zelement(ctx, self.den * o.den * a**top, out)

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
        """Multiplicative inverse y = sum(t_j * (a*beta)^j), a the leading
        coefficient: x*y = 1 is solved for the t_j by Gauss-Jordan
        elimination in the integers on the columns (a*beta)^j * num,
        j < degree, that `_zmul_beta` builds, each row kept primitive.  A
        nonzero x whose system is singular is a zero divisor, so the minimal
        polynomial is reducible: MalformedContextError."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        ctx = self.ctx
        d, poly = ctx.degree, ctx.minpoly
        cols = _columns(poly, self.num)
        # row i of sum(t_j * cols[j]) = den * e_0, augmented by its right side
        rows = [[c[i] for c in cols] + [self.den if i == 0 else 0] for i in range(d)]
        for j in range(d):
            p = next((i for i in range(j, d) if rows[i][j]), None)
            if p is None:
                raise MalformedContextError("minimal polynomial is reducible")
            rows[j], rows[p] = rows[p], rows[j]
            pivot = rows[j]
            for i in range(d):
                c = rows[i][j]
                if i != j and c:
                    row = [pivot[j] * x - c * y for x, y in zip(rows[i], pivot)]
                    g = gcd(*row)
                    rows[i] = [x // g for x in row] if g > 1 else row
        a = poly[-1]
        return NumberFieldElement(ctx, [Fraction(a**j * rows[j][d], rows[j][j]) for j in range(d)])

    def _scale(self, q: Fraction) -> "NumberFieldElement":
        """self * q for a rational q: the integer coordinates times its
        numerator, over the denominator times its denominator."""
        return _zelement(self.ctx, self.den * q.denominator, [x * q.numerator for x in self.num])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a field element by zero")
            return self._scale(1 / Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse()._scale(Fraction(other))
        return NotImplemented

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
        if isinstance(other, (int, Fraction)):
            other = NumberFieldElement.from_rational(self.ctx, other)
        elif not isinstance(other, NumberFieldElement):
            return NotImplemented
        return other.ctx is self.ctx and self.num == other.num and self.den == other.den

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes as one
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
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
    """Greatest integer k <= x.  On a field element, k = floor(lo) of a
    1/4-wide enclosure [lo, hi] satisfies k <= x < k + 2, so one exact
    comparison with k + 1 decides."""
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    lo, _ = x.enclosure(Fraction(1, 4))
    k = lo.numerator // lo.denominator
    return k + 1 if exact_cmp(x, k + 1) >= 0 else k


def floor_log2(a: ExactReal) -> int:
    """Greatest m with 2^m <= a, for a > 0, decided exactly; on a rational
    p/r it is -ceil(log2(r/p)).  On a field element, `filter_bounds` of its
    coordinates at doubling precision give integers 0 < lo <= a*den*2^bits
    <= hi < 2*lo, so floor(log2(lo / (den*2^bits))) = m puts the answer at m
    or m + 1, and one exact comparison with 2^(m+1) decides."""
    if exact_sign(a) <= 0:
        raise DomainError("floor_log2 requires a positive argument")
    if isinstance(a, Fraction):
        return -_ceil_log2_ratio(a.denominator, a.numerator)
    bits = FILTER_BITS
    while True:
        lo, hi = a.ctx.filter_bounds(a.num, bits)
        if 0 < lo and hi < 2 * lo:
            break
        bits *= 2
    m = -_ceil_log2_ratio(a.den << bits, lo)
    return m + 1 if exact_cmp(a, Fraction(2) ** (m + 1)) >= 0 else m


def ceil_log2(a: ExactReal) -> int:
    """Least m with 2^m >= a, for a > 0; exact powers of two take their exponent."""
    if isinstance(a, Fraction) and a > 0:
        return _ceil_log2_ratio(a.numerator, a.denominator)
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


def exact_log2_bounds(a: ExactReal, k: int) -> tuple[int, int]:
    """Return (ceil(k*log2(a)), floor(log2(a))), both decided by exact
    comparison of a^k (resp. a) against powers of two, under the power budget.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    if exact_sign(a) <= 0:
        raise DomainError("a must be positive")
    if isinstance(a, Fraction):
        return _ceil_log2_ratio(*_int_powers(a, k)), floor_log2(a)
    _power_budget(k, sum(c.numerator.bit_length() + c.denominator.bit_length() for c in a.coeffs))
    return ceil_log2(a**k), floor_log2(a)


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
