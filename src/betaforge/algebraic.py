"""Algebraic data for bases: minimal polynomials, certified conjugate bounds,
value-equivalence of equal-length digit words, and class enumeration.

Two equal-length words are equivalent when their digit sums against inverse
powers of the base agree exactly; for an algebraic base this is decidable in
the number field.  This module owns the one integer frame for equal-length
words: values scaled by a^(n-1) beta^n, so that every digit weight
a^(n-1) beta^k is an integer coordinate vector (`_weight_walk`), decided by
certified signs.  `equiv` compares two words' vectors, and the
canonicalizer's level sweep merges equal deficits level by level.  Every
set of words with values in a window comes from one depth-first walk,
`_walk`: `equiv_class` walks the one-point window at x's value, and
`_window_walk` scales exact window ends into the frame for the prefix sets
and windows of `multivalued`.  `_classes` groups such words by their
vectors into value classes and rebuilds each class value once.  A certified
separation bound keeps non-equivalent values apart, which is what makes
windowed class enumeration terminate with exact answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from operator import add
from typing import Iterable, Sequence

from .numerics import (
    AlgebraicBeta,
    BetaSpec,
    DomainError,
    ExactReal,
    NumberFieldContext,
    SizeGuardError,
    beta_from_json,
    beta_value,
    parse_rational,
    _json_rational,
    _int_powers,
    _power_budget,
    _zcoords,
    _zdiv_beta,
    _zelement,
    _zmul_beta,
)
from .expand import validate_bits, _cap_length

__all__ = [
    "ConjugateBounds",
    "Preset",
    "ClassPartition",
    "ValueClass",
    "builtin_presets",
    "get_preset",
    "separation_bound",
    "equiv",
    "equiv_class",
    "is_generalized_garsia",
    "partition_words",
]

EQUIV_NODE_CAP = 1 << 21
# digits one listing of words may hold: at least 200,000 words of up to 41 digits
SET_GUARD = 1 << 23
WALK_TABLE_BITS = 1 << 31  # bits of one walk's weight and reach vectors: 256 MiB


@dataclass(frozen=True)
class ConjugateBounds:
    """Certified rational bounds on conjugate products of the base.

    pi_lower underestimates leading * prod |1 - |z|| over all conjugates z,
    bplus_upper overestimates beta * leading * prod of the moduli outside the
    unit circle, and k_beta counts conjugates exactly on the unit circle.
    The pisot flag is declared data; its observable consequence (bounded
    per-level class counts) is checked at runtime by the canonicalizer.
    Built-in and user presets alike are checked here: a nonpositive
    pi_lower, a bplus_upper below 1 or a negative k_beta is a DomainError.
    """

    pi_lower: Fraction
    bplus_upper: Fraction
    k_beta: int
    pisot: bool
    provenance: str = "user"

    def __post_init__(self):
        object.__setattr__(self, "pi_lower", Fraction(self.pi_lower))
        object.__setattr__(self, "bplus_upper", Fraction(self.bplus_upper))
        if self.pi_lower <= 0:
            raise DomainError("pi_lower must be positive")
        if self.bplus_upper < 1:
            raise DomainError("bplus_upper must be at least 1")
        if self.k_beta < 0:
            raise DomainError("k_beta must be nonnegative")


@dataclass(frozen=True)
class Preset:
    """A named algebraic base with its conjugate bounds.  The minimal
    polynomial and isolating interval live once, in `beta.ctx`; every preset,
    built-in or from BETA_FORGE_PRESETS, is built by `_preset`."""

    name: str
    beta: AlgebraicBeta
    bounds: ConjugateBounds


def _preset(name: str, obj, provenance: str) -> Preset:
    """The preset `name` from its BETA_FORGE_PRESETS object form: "minpoly"
    and "isolating" as `beta_from_json` reads them, "pi_lower" and
    "bplus_upper" as rationals, an integer "k_beta" (default 0) and a JSON
    boolean "pisot" (default false).  Any malformed field is a
    BetaForgeError."""
    beta = beta_from_json(obj)
    if not isinstance(beta, AlgebraicBeta):
        raise DomainError("a preset needs minpoly and isolating")
    k_beta = parse_rational(str(obj.get("k_beta", 0)))
    if k_beta.denominator != 1:
        raise DomainError("k_beta must be an integer")
    if k_beta > beta.ctx.degree - 1:  # beta itself is off the unit circle
        raise DomainError(f"k_beta must be at most {beta.ctx.degree - 1}, the degree minus 1")
    pisot = obj.get("pisot", False)
    if not isinstance(pisot, bool):
        raise DomainError(f"pisot must be a JSON boolean, got {pisot!r}")
    pi_lower, bplus_upper = _json_rational(obj, "pi_lower"), _json_rational(obj, "bplus_upper")
    return Preset(name, beta, ConjugateBounds(pi_lower, bplus_upper, int(k_beta), pisot, provenance))


# the built-in bases, each written as a BETA_FORGE_PRESETS entry
_BUILTIN = {
    "golden": {"minpoly": [-1, -1, 1], "isolating": ["3/2", "5/3"],
               "pi_lower": "38/100", "bplus_upper": "1618034/1000000", "pisot": True},
    "sqrt2": {"minpoly": [-2, 0, 1], "isolating": ["7/5", "3/2"], "pi_lower": "2/5", "bplus_upper": "2"},
    "cbrt2": {"minpoly": [-2, 0, 0, 1], "isolating": ["5/4", "13/10"], "pi_lower": "67/1000", "bplus_upper": "2"},
    "tribonacci": {"minpoly": [-1, -1, -1, 1], "isolating": ["9/5", "15/8"],
                   "pi_lower": "68/1000", "bplus_upper": "184/100", "pisot": True},
}

_PRESETS: dict[str, Preset] = {}


def builtin_presets() -> dict[str, Preset]:
    """Registry of built-in bases keyed by name; constructed once and shared."""
    if not _PRESETS:
        _PRESETS.update((name, _preset(name, obj, "preset")) for name, obj in _BUILTIN.items())
    return _PRESETS


def get_preset(name: str) -> Preset:
    presets = builtin_presets()
    if name not in presets:
        raise DomainError(f"unknown preset {name!r}; known: {sorted(presets)}")
    return presets[name]


def separation_bound(bounds: ConjugateBounds, n: int) -> Fraction:
    """Certified positive lower bound on |value(x) - value(y)| over all
    non-equivalent pairs of length-n words:
    pi_lower / (n^k_beta * bplus_upper^n), read from the conjugate bounds
    alone.  Both powers are under the bit budget of `numerics._power_budget`."""
    if n < 1:
        raise DomainError("word length must be >= 1")
    _power_budget(bounds.k_beta, n.bit_length())
    num, den = _int_powers(bounds.bplus_upper, n)
    return bounds.pi_lower * Fraction(den, n**bounds.k_beta * num)


def is_generalized_garsia(ctx: NumberFieldContext) -> bool:
    """The context's minimal polynomial is monic with |constant coefficient|
    >= 2: finite digit sums never collide, so canonicalization is the
    identity."""
    return ctx.minpoly[-1] == 1 and abs(ctx.minpoly[0]) >= 2


def _weight_walk(beta: BetaSpec, n: int, words: Sequence[str] = ()):
    """The integer weight walk behind every length-n word test.

    Values are scaled by a^(n-1) beta^n, where a leads the ascending integer
    polynomial of the base (q*x - p for a rational base p/q, else the minimal
    polynomial), so every digit weight a^(n-1) beta^k (k < n) is an integer
    coordinate vector.  Returns (sign, deficits, levels, scale): `sign`
    certifies the sign of such a vector, deficits[j] sums the weights under
    the ones of words[j] (its scaled value), `levels` yields (weight_i,
    window_i) for i = 1..n, the weight of digit i and the sum of the weights
    after it, and `scale` is the exact factor a^(n-1) beta^n itself (for
    n >= 1), in the type of the base value.
    """
    b = beta_value(beta)
    if isinstance(b, Fraction):
        poly = (-b.numerator, b.denominator)

        def sign(v):
            return (v[0] > 0) - (v[0] < 0)

    else:
        poly = b.ctx.minpoly
        sign = b.ctx.sign_of_coeffs
    a = poly[-1]
    # one ascending pass: weight runs through a^(n-1) beta^k for k < n, the
    # window sums all of them, and each deficit the weights under its ones
    weight = [a ** max(n - 1, 0)] + [0] * (len(poly) - 2)
    window = weight
    deficits = [[0] * len(weight) for _ in words]
    for k in range(n):
        if k:
            weight = _zmul_beta(poly, weight)
            if a != 1:
                weight = [c // a for c in weight]
            window = [u + w for u, w in zip(window, weight)]
        for j, word in enumerate(words):
            if word[n - 1 - k] == "1":
                deficits[j] = list(map(add, deficits[j], weight))

    def levels(weight, window):
        for i in range(1, n + 1):
            if i > 1:
                weight = _zdiv_beta(poly, weight)
            window = [u - w for u, w in zip(window, weight)]
            yield weight, window

    # weight is a^(n-1) beta^(n-1) now, so a*beta*weight is a*scale
    scale = _exact(b, _zmul_beta(poly, weight), a)
    return sign, deficits, levels(weight, window), scale


def _exact(b: ExactReal, v: Sequence[int], den: int = 1) -> ExactReal:
    """The exact value of integer coordinates v over den, in the type of the
    base value b: a Fraction on a rational base, else a field element."""
    return Fraction(v[0], den) if isinstance(b, Fraction) else _zelement(b.ctx, den, v)


def equiv(beta: BetaSpec, x: str, y: str) -> bool:
    """Exact equality of the two words' values; words must have equal length."""
    validate_bits(x)
    validate_bits(y)
    if len(x) != len(y):
        raise DomainError(f"length mismatch: {len(x)} vs {len(y)}")
    sign, (dx, dy), _, _ = _weight_walk(beta, len(x), (x, y))
    return sign([u - v for u, v in zip(dx, dy)]) == 0


def equiv_class(beta: BetaSpec, x: str) -> list[str]:
    """All equal-length words sharing the exact value of x, sorted: the
    window walk (`_walk`) over the one-point window [value(x), value(x)],
    whose scaled end is x's deficit.  More than EQUIV_NODE_CAP visited
    prefixes raise SizeGuardError, which no word of up to 20 digits reaches:
    its prefix tree has 2^21 - 1 nodes.  A word past ORBIT_CAP digits and a
    class of more than SET_GUARD digits raise it too.
    """
    validate_bits(x)
    n = len(x)
    _cap_length(n)
    sign, (deficit,), levels, _ = _weight_walk(beta, n, (x,))
    return [word for word, _ in _walk(sign, levels, 1, deficit, deficit, "equivalence class")]


def _walk(sign, levels, den: int, lo: Sequence[int], hi: Sequence[int], kind: str):
    """The words whose scaled value v (in the frame of `_weight_walk`, whose
    `sign` and `levels` it takes) satisfies lo <= den*v <= hi, in
    lexicographic order, each with its e = den*v - hi.

    Every prefix of i digits and scaled value v carries e = den*v - hi as
    one integer vector, and its child is visited only when the child's
    reachable interval meets the window: digit 1 when e + den*weight_(i+1)
    <= 0, digit 0 when e + den*window_(i+1) + hi - lo >= 0.  So each child
    costs one vector update and one certified sign.  Every visited prefix
    meets the window, so every leaf lies in it; the window must meet [0,
    window_0].  This walk is the one guard on what a listing holds: a step
    table past WALK_TABLE_BITS bits, counted as it is built, more than
    EQUIV_NODE_CAP visited prefixes, or leaves of more than SET_GUARD
    digits in all, raise SizeGuardError naming the `kind` of search."""
    span = [h - l for h, l in zip(hi, lo)]
    steps, bits = [], 0
    for weight, window in levels:
        steps.append(([den * w for w in weight], [den * u + s for u, s in zip(window, span)]))
        bits += sum(x.bit_length() for v in steps[-1] for x in v)
        if bits > WALK_TABLE_BITS:
            raise SizeGuardError(f"{kind} walk table exceeded {WALK_TABLE_BITS} bits")
    n = len(steps)
    visited = listed = 0
    stack = [(0, [-h for h in hi], "")]
    while stack:
        i, e, word = stack.pop()
        visited += 1
        if visited > EQUIV_NODE_CAP:
            raise SizeGuardError(f"{kind} search visited more than {EQUIV_NODE_CAP} prefixes")
        if i == n:
            listed += n
            if listed > SET_GUARD:
                raise SizeGuardError(f"{kind} enumeration exceeded guard {SET_GUARD} digits")
            yield word, e
            continue
        weight, reach = steps[i]
        e1 = list(map(add, e, weight))
        if sign(e1) <= 0:
            stack.append((i + 1, e1, word + "1"))
        if sign(list(map(add, e, reach))) >= 0:
            stack.append((i + 1, e, word + "0"))


def _window_walk(beta: BetaSpec, n: int, lo_w: ExactReal, hi_w: ExactReal, kind: str):
    """The words of n digits whose exact value lies in [lo_w, hi_w].

    The window ends are scaled into the frame of `_weight_walk` once, to
    integer vectors over a common denominator, and `_walk` lists the words.
    Returns (leaves, classes): `leaves` is that walk, yielding each word
    with its vector e in lexicographic order, and classes(leaves) groups
    such leaves into value classes sorted by value (`_classes`).  More
    than ORBIT_CAP digits raise SizeGuardError before the walk is built."""
    _cap_length(n)
    b = beta_value(beta)
    sign, _, levels, scale = _weight_walk(beta, n)
    degree = 1 if isinstance(b, Fraction) else b.ctx.degree
    den, (lo, hi) = _zcoords(degree, (lo_w * scale, hi_w * scale))

    def classes(leaves):
        return _classes(((word, map(add, e, hi)) for word, e in leaves), sign, b, 1 / (den * scale))

    return _walk(sign, levels, den, lo, hi, kind), classes


@dataclass(frozen=True)
class ValueClass:
    value: ExactReal
    members: tuple[str, ...]


@dataclass(frozen=True)
class ClassPartition:
    """Equal-length words grouped by exact value, classes in increasing value
    order and members sorted lexicographically."""

    word_length: int
    classes: tuple[ValueClass, ...]

    def index_of(self, word: str) -> int:
        """1-based index of the class containing `word`."""
        for k, cls in enumerate(self.classes, start=1):
            if word in cls.members:
                return k
        raise DomainError(f"{word!r} is not in any class of this partition")


def _classes(leaves: Iterable[tuple[str, Iterable[int]]], sign, b: ExactReal, unit: ExactReal) -> tuple[ValueClass, ...]:
    """The value classes of (word, vector) leaves, sorted by value.

    Each vector is a word's scaled value in the frame of `_weight_walk`,
    times one positive integer, and `unit` turns it back into the exact
    value.  Equal values have equal vectors, so the words are grouped by
    vector, the classes are sorted by the certified sign of the difference
    of their vectors, and each class value is rebuilt once, as unit times
    its vector."""
    groups: dict = {}
    for word, v in leaves:
        groups.setdefault(tuple(v), []).append(word)
    keys = sorted(groups, key=cmp_to_key(lambda u, v: sign([x - y for x, y in zip(u, v)])))
    return tuple(ValueClass(_exact(b, k) * unit, tuple(sorted(groups[k]))) for k in keys)


def partition_words(beta: BetaSpec, words: Sequence[str]) -> ClassPartition:
    """Group equal-length words into exact value classes, sorted by value:
    `_classes` over the words' scaled values from `_weight_walk`."""
    words = list(words)
    if not words:
        return ClassPartition(0, ())
    n = len(words[0])
    if any(len(validate_bits(w)) != n for w in words):
        raise DomainError("all words in a partition must share one length")
    sign, vectors, _, scale = _weight_walk(beta, n, words)
    return ClassPartition(n, _classes(zip(words, vectors), sign, beta_value(beta), 1 / scale))
