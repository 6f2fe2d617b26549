"""Canonicalization of digit words: map every word to the lexicographically
maximal word of equal length and identical exact value.

Two routes are provided: an exhaustive class search usable as an oracle on
short inputs, and a level sweep that carries one lexicographically maximal
representative per reachable value class from left to right.  For a base
whose conjugates lie inside the unit disk the number of classes alive per
level stays bounded, which is what makes the sweep take a linear number of
steps.  Both routes walk the same integer digit weights in Q(beta)
(`algebraic._weight_walk`), a rational base p/q being the degree-1 case
q*x - p; every weight, window and deficit is an integer vector of O(n)
bits.  The class search is `algebraic.equiv_class`, the one depth-first
walk of `algebraic`; the sweep keeps one weight, one window and one prefix
per live deficit.  On other
bases the classes per level can grow without bound, and more than
SWEEP_CLASS_CAP of them stop the sweep with SizeGuardError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import BetaForgeError, BetaSpec, DomainError, SizeGuardError
from .expand import validate_bits
from .algebraic import ConjugateBounds, equiv_class, _weight_walk

__all__ = [
    "FastRunStats",
    "PisotWidthError",
    "m_beta_bruteforce",
    "m_beta_fast",
    "canonicalize_prefixwise",
]

# classes one sweep level may hold; only a non-Pisot base gets near it
SWEEP_CLASS_CAP = 1 << 16


class PisotWidthError(BetaForgeError):
    """Per-level class count exceeded the declared Pisot width bound."""


@dataclass(frozen=True)
class FastRunStats:
    """Instrumentation of one level sweep: classes alive per level, total
    candidate evaluations, and the declared class-count bound when the base
    was flagged Pisot."""

    per_level_class_counts: tuple[int, ...]
    total_steps: int
    pisot_width_bound: Optional[Fraction]


def m_beta_bruteforce(beta: BetaSpec, x: str) -> str:
    """The lexicographically maximal member of `equiv_class(beta, x)`."""
    return max(equiv_class(beta, x))


def m_beta_fast(beta: BetaSpec, x: str, bounds: Optional[ConjugateBounds] = None):
    """Level-sweep canonicalization.

    Sweeps i = 1..n keeping, per exact value of the scaled deficit, the
    lexicographically maximal feasible prefix; feasibility is the two-sided
    window 0 <= deficit <= (what the remaining digits can contribute).  The
    final level forces deficit 0, so the survivor is the class maximum.

    Every base runs on the integer weight walk that `equiv_class` shares:
    values are scaled by a^(n-1) beta^n, so every digit weight is an integer
    vector, and the weights walk down by exact division by beta; signs go
    through the context's certified evaluator, one per candidate.

    Returns (canonical word, FastRunStats).  When `bounds` declares the base
    Pisot, per-level class counts are checked against the derived width
    bound and a violation raises PisotWidthError; on any base more than
    SWEEP_CLASS_CAP classes at one level raise SizeGuardError.
    """
    validate_bits(x)
    n = len(x)
    if n == 0:
        return "", FastRunStats((), 0, None)
    sign, (deficit,), levels, _ = _weight_walk(beta, n, (x,))

    width_bound = None
    width_cap = None
    if bounds is not None and bounds.pisot:
        width_bound = _pisot_width_bound(beta, bounds)
        width_cap = -(-width_bound.numerator // width_bound.denominator)  # ceil

    level = [(tuple(deficit), "")]
    counts = []
    steps = 0
    for i, (weight, window) in enumerate(levels, start=1):
        # every live deficit d satisfies 0 <= d <= window_(i-1) (level 1: x's
        # deficit sums some of the weights), so d - weight <= window_i and
        # d >= 0 hold already and each candidate, digit 1 and then digit 0,
        # needs one sign; at the last level the window is 0 and the test is
        # exact zero
        last = i == n
        fresh: dict = {}
        for d, word in level:
            d1 = tuple(u - w for u, w in zip(d, weight))
            if (not any(d1)) if last else sign(d1) >= 0:
                fresh.setdefault(d1, word + "1")
            if (not any(d)) if last else sign([u - w for u, w in zip(d, window)]) <= 0:
                fresh.setdefault(d, word + "0")
        steps += 2 * len(level)
        level = list(fresh.items())
        counts.append(len(level))
        if width_cap is not None and len(level) > width_cap:
            raise PisotWidthError(
                f"{len(level)} classes alive at level {i}, above the declared bound {width_bound}"
            )
        if len(level) > SWEEP_CLASS_CAP:
            raise SizeGuardError(
                f"{len(level)} classes alive at level {i}, above the sweep cap {SWEEP_CLASS_CAP}"
            )
    return level[0][1], FastRunStats(tuple(counts), steps, width_bound)


def _pisot_width_bound(beta: BetaSpec, bounds: ConjugateBounds) -> Fraction:
    # classes per level <= 1 / ((beta - 1) * prod |1 - |z||); certify with a
    # rational lower bracket of beta, bisected from the isolating interval so
    # the printed bound does not depend on process history, and the
    # certified pi_lower
    ctx = getattr(beta, "ctx", None)
    if ctx is not None:
        lo, _ = ctx.bracket(Fraction(1, 1 << 24))
    else:
        lo = beta.value
    return 1 / ((lo - 1) * bounds.pi_lower)


def canonicalize_prefixwise(beta: BetaSpec, x: str, checkpoints: Sequence[int]):
    """Canonical form of each prefix x[:c] for the given increasing checkpoints.

    Returns (results, prefix_consistent): the flag records whether each
    result is a prefix of the next.  Consistency across lengths is measured,
    never assumed; inconsistent checkpoints are reported as data.
    """
    validate_bits(x)
    cps = list(checkpoints)
    if any(c < 0 or c > len(x) for c in cps) or any(a >= b for a, b in zip(cps, cps[1:])):
        raise DomainError("checkpoints must be increasing and within the word")
    results = [m_beta_fast(beta, x[:c])[0] for c in cps]
    consistent = all(b.startswith(a) for a, b in zip(results, results[1:]))
    return results, consistent
