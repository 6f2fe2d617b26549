"""Multivalued conversion maps between bases, exact expansion-set enumeration,
and empirical digit-sum measures.

A prefix of an expansion pins its value to a short interval, so converting a
prefix between bases can only return the set of all candidate prefixes whose
values meet a widened copy of that interval.  Widening exponents, per
operation (always the binary-side precision parameter n, never the converted
length):
    f_beta_to_2   widens the value window by 2^-n
    f_2_to_beta   widens J(x) = [value(x) - 2^-n, value(x) + 2^-n] by 2^-n
    g_beta_window widens [value(x) -/+ tail] by 2^-n with n = len(x)

The exact-value cores `_word_value`, `_tail` and `_least_power` (expand,
the last behind `base_length`) take an exact value, so f_beta_to_2
evaluates a rational or field window endpoint as it would a base.

The exact prefix set of s is a window too: the length-n words with values in
[s - beta^-n/(beta-1), s].  f_2_to_beta, g_beta_window and enumerate_expansions
compute their window here and list its words with the one depth-first
walk of `algebraic._window_walk`, in the integer frame of the level sweep;
g_beta_window groups the walk's leaves into value classes with it, so no
word's value is computed twice.  That walk bounds, in digits, what every
listing holds (`algebraic.SET_GUARD`); f_beta_to_2 lists consecutive
binary words by arithmetic and checks their digits against the same
budget.  nu_measure counts whole subtrees in a walk of its own, on exact
values (`_window_table`, one `exact_cmp` per bound test), and counts its
visited prefixes against the walk's cap, EQUIV_NODE_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import (
    BetaForgeError,
    BetaSpec,
    BudgetExceededError,
    DomainError,
    ExactReal,
    Interval,
    SizeGuardError,
    beta_value,
    exact_cmp,
    exact_floor,
)
from .expand import delta_finite, tail_bound, validate_bits
from .expand import _cap_length, _check_in_domain, _delta2, _least_power, _tail, _word_value
from . import algebraic
from .algebraic import ClassPartition, _window_walk

__all__ = [
    "CandidateSet",
    "WrongLengthError",
    "base_length",
    "f_beta_to_2",
    "f_2_to_beta",
    "g_beta_window",
    "f_1_to_all",
    "enumerate_expansions",
    "nu_measure",
]

NU_BUDGET = 30


class WrongLengthError(BetaForgeError):
    """Input word length does not match the required converted length."""

    def __init__(self, got: int, required: int):
        super().__init__(f"word length {got} does not match required length {required}")
        self.got = got
        self.required = required


@dataclass(frozen=True)
class CandidateSet:
    """Sorted candidate words sharing one length, all of whose values lie in
    the construction window widened by 2^-widen_exponent."""

    length: int
    words: tuple[str, ...]
    window: Interval
    widen_exponent: int

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)


def base_length(beta_value_lo: ExactReal, n: int) -> int:
    """Least m with beta^m >= 2^n: the digit count in base beta that carries
    at least n binary digits of precision.  Exact-power ties take the integer."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    return _least_power(beta_value_lo, Fraction(1 << n))


def _ceil_exact(v: ExactReal) -> int:
    return -exact_floor(-v)


def _bits_of(k: int, n: int) -> str:
    return format(k, f"0{n}b") if n else ""


def f_beta_to_2(beta_window: Interval, x: str, n: int) -> CandidateSet:
    """Binary candidates of length n for a base-side prefix x, where the base
    is only known to lie in `beta_window` (degenerate windows allowed).

    Wrong-length inputs are a typed error carrying the required length.
    """
    validate_bits(x)
    if n < 1:
        raise DomainError("n must be >= 1")
    b1, b2 = beta_window.lo, beta_window.hi
    if exact_cmp(b1, 1) <= 0 or exact_cmp(b2, 2) >= 0:
        raise DomainError("base window must lie inside (1, 2)")
    required = base_length(b1, n)
    if len(x) != required:
        raise WrongLengthError(len(x), required)
    degenerate = exact_cmp(b1, b2) == 0
    pad = Fraction(1, 1 << n)
    v_at_b2 = _word_value(b2, x)
    v_at_b1 = v_at_b2 if degenerate else _word_value(b1, x)
    tail = pad / (b1 - 1) if degenerate else _tail(b1, required)
    window = Interval(v_at_b2 - pad, v_at_b1 + tail)
    scale = 1 << n
    k_lo = max(0, _ceil_exact((window.lo - pad) * scale))
    k_hi = min(scale - 1, exact_floor((window.hi + pad) * scale))
    count = max(0, k_hi - k_lo + 1)
    if count * n > algebraic.SET_GUARD:
        raise SizeGuardError(f"candidate set of {count} words of {n} digits exceeds guard {algebraic.SET_GUARD} digits")
    words = tuple(_bits_of(k, n) for k in range(k_lo, k_hi + 1))
    return CandidateSet(n, words, window, n)


def _window_table(b: ExactReal, length: int):
    """inv_pows[i] = beta^-i, the value of a 1 in place i, and remaining[i],
    the largest value the digits after place i can add, for i = 0..length."""
    inv_b = 1 / b
    inv_pows = [inv_b - inv_b + 1]
    for _ in range(length):
        inv_pows.append(inv_pows[-1] * inv_b)
    tail_factor = 1 / (b - 1)
    remaining = [(inv_pows[i] - inv_pows[length]) * tail_factor for i in range(length + 1)]
    return inv_pows, remaining


def f_2_to_beta(beta: BetaSpec, x: str) -> CandidateSet:
    """Base-side candidates for a binary prefix x: all words of the carried
    length whose value meets [value(x) - 2^-n, value(x) + 2^-n] widened by
    2^-n, n = len(x)."""
    validate_bits(x)
    n = len(x)
    if n < 1:
        raise DomainError("binary prefix must be nonempty")
    b = beta_value(beta)
    m = base_length(b, n)
    v = _delta2(x)
    pad = Fraction(1, 1 << n)
    window = Interval(v - pad, v + pad)
    leaves, _ = _window_walk(beta, m, window.lo - pad, window.hi + pad, "window")
    return CandidateSet(m, tuple(word for word, _ in leaves), window, n)


def g_beta_window(beta: BetaSpec, x: str) -> ClassPartition:
    """Same-base window around the value of x: every word of equal length
    whose value meets [value(x) - tail, value(x) + tail] widened by 2^-n,
    partitioned into exact value classes sorted by class value."""
    validate_bits(x)
    n = len(x)
    if n < 1:
        raise DomainError("word must be nonempty")
    _cap_length(n)
    v = delta_finite(beta, x)
    tail = tail_bound(beta, n)
    pad = Fraction(1, 1 << n)
    leaves, classes = _window_walk(beta, n, v - tail - pad, v + tail + pad, "window")
    return ClassPartition(n, classes(leaves))


def f_1_to_all(beta: BetaSpec, x: str) -> list[tuple[str, ...]]:
    """Candidate expansion sets built from the class partition around x: one
    sorted union per consecutive class range containing the class of x.

    The true prefix set of any value admitting x appears among the candidates;
    their number is iota * (M - iota + 1) for iota the 1-based class index of
    x and M the class count.
    """
    part = g_beta_window(beta, x)
    iota = part.index_of(x)
    m = len(part.classes)
    out = []
    for i in range(1, iota + 1):
        for j in range(iota, m + 1):
            members = []
            for cls in part.classes[i - 1 : j]:
                members.extend(cls.members)
            out.append(tuple(sorted(members)))
    return out


def enumerate_expansions(beta: BetaSpec, s: ExactReal, n: int):
    """Exactly the length-n prefixes of expansions of s, sorted: a word u is
    one iff the residual beta^n (s - value(u)) lies in [0, 1/(beta-1)], that
    is, iff value(u) lies in the window [s - beta^-n/(beta-1), s]."""
    _cap_length(n)
    _check_in_domain(beta_value(beta), s)
    leaves, _ = _window_walk(beta, n, s - tail_bound(beta, n), s, "expansion")
    return [word for word, _ in leaves]


def nu_measure(beta: BetaSpec, m: int, interval: Interval) -> Fraction:
    """Mass 2^-m * #{words u of length m : value(u) in interval}, counted
    exactly with subtree pruning: a subtree is skipped when its reachable
    value interval misses `interval` and counted wholesale when contained.
    m above NU_BUDGET is a BudgetExceededError, and more than
    `algebraic.EQUIV_NODE_CAP` visited prefixes, the cap of every window
    walk, a SizeGuardError."""
    if m < 0:
        raise DomainError("m must be nonnegative")
    if m > NU_BUDGET:
        raise BudgetExceededError(f"m = {m} exceeds the measure budget {NU_BUDGET}")
    b = beta_value(beta)
    inv_pows, remaining = _window_table(b, m)
    lo, hi = interval.lo, interval.hi
    cap = algebraic.EQUIV_NODE_CAP
    visited = 0

    def count(i: int, v: ExactReal) -> int:
        nonlocal visited
        visited += 1
        if visited > cap:
            raise SizeGuardError(f"measure search visited more than {cap} prefixes")
        top = v + remaining[i]
        if exact_cmp(v, hi) > 0 or exact_cmp(top, lo) < 0:
            return 0
        if exact_cmp(v, lo) >= 0 and exact_cmp(top, hi) <= 0:
            return 1 << (m - i)
        return count(i + 1, v) + count(i + 1, v + inv_pows[i + 1])

    return Fraction(count(0, b - b), 1 << m)
