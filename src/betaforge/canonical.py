"""Canonicalization of digit words: map every word to the lexicographically
maximal word of equal length and identical exact value.

Two routes are provided: an exhaustive class search usable as an oracle on
short inputs, and a level sweep that carries one lexicographically maximal
representative per reachable value class from left to right.  For a base
whose conjugates lie inside the unit disk the number of classes alive per
level stays bounded, which is what makes the sweep run in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import (
    BetaForgeError,
    BetaSpec,
    DomainError,
    SizeGuardError,
    beta_value,
)
from .expand import validate_bits
from .algebraic import ConjugateBounds, equiv_class, scaled_power_table

__all__ = [
    "FastRunStats",
    "PisotWidthError",
    "m_beta_bruteforce",
    "m_beta_fast",
    "canonicalize_prefixwise",
]

BRUTEFORCE_GUARD = 20


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
    """Lexicographically maximal member of the value class of x, by
    exhaustive class enumeration; guarded to short inputs."""
    validate_bits(x)
    if len(x) > BRUTEFORCE_GUARD:
        raise SizeGuardError(f"bruteforce canonicalization capped at length {BRUTEFORCE_GUARD}")
    return max(equiv_class(beta, x))


def m_beta_fast(beta: BetaSpec, x: str, bounds: Optional[ConjugateBounds] = None):
    """Level-sweep canonicalization.

    Sweeps i = 1..n keeping, per exact value of the scaled deficit, the
    lexicographically maximal feasible prefix; feasibility is the two-sided
    window 0 <= deficit <= (what the remaining digits can contribute).  The
    final level forces deficit 0, so the survivor is the class maximum.

    Returns (canonical word, FastRunStats).  When `bounds` declares the base
    Pisot, per-level class counts are checked against the derived width
    bound and a violation raises PisotWidthError.
    """
    validate_bits(x)
    n = len(x)
    if n == 0:
        return "", FastRunStats((), 0, None)
    b = beta_value(beta)
    powers, windows = scaled_power_table(beta, n)
    # deficit carried per candidate prefix u: beta^n * value(x) minus the
    # scaled digits of u placed so far; the sweep ends at deficit 0 exactly
    deficit0 = powers[0] - powers[0]
    for j, ch in enumerate(x):
        if ch == "1":
            deficit0 = deficit0 + powers[n - j - 1]

    # the sweep runs on raw representations: plain rationals, or coefficient
    # tuples signed through the context's integer interval evaluator
    if isinstance(b, Fraction):
        pw = powers
        wins = windows
        d0 = deficit0

        def feasible(d2, win):
            return 0 <= d2 <= win

        def is_zero(d2):
            return d2 == 0

        def minus(a, p):
            return a - p

    else:
        ctx = b.ctx
        sgn = ctx.sign_of_coeffs
        pw = [p.coeffs for p in powers]
        wins = [w.coeffs for w in windows]
        d0 = deficit0.coeffs

        def feasible(d2, win):
            return sgn(d2) >= 0 and sgn(tuple(a - c for a, c in zip(d2, win))) <= 0

        def is_zero(d2):
            return not any(d2)

        def minus(a, p):
            return tuple(c - q for c, q in zip(a, p))

    width_bound = None
    width_cap = None
    if bounds is not None and bounds.pisot:
        width_bound = _pisot_width_bound(beta, bounds)
        width_cap = -(-width_bound.numerator // width_bound.denominator)  # ceil

    level = [(d0, "")]
    counts = []
    steps = 0
    for i in range(1, n + 1):
        p = pw[n - i]
        win = wins[i]
        last = i == n
        fresh: dict = {}
        for deficit, word in level:
            for digit in (1, 0):
                steps += 1
                d2 = minus(deficit, p) if digit else deficit
                if is_zero(d2) if last else feasible(d2, win):
                    if d2 not in fresh:
                        fresh[d2] = word + str(digit)
        level = list(fresh.items())
        counts.append(len(level))
        if width_cap is not None and len(level) > width_cap:
            raise PisotWidthError(
                f"{len(level)} classes alive at level {i}, above the declared bound {width_bound}"
            )
        if not level:
            raise DomainError("level sweep lost all candidates; invalid input word")
    if len(level) != 1:
        raise BetaForgeError("level sweep ended with multiple exact-value survivors")
    return level[0][1], FastRunStats(tuple(counts), steps, width_bound)


def _pisot_width_bound(beta: BetaSpec, bounds: ConjugateBounds) -> Fraction:
    # classes per level <= 1 / ((beta - 1) * prod |1 - |z||); certify with a
    # rational lower bracket of beta and the certified pi_lower
    ctx = getattr(beta, "ctx", None)
    if ctx is not None:
        lo, _ = ctx.refine(Fraction(1, 1 << 24))
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
