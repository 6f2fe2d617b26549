"""Independent oracles used to compute expected values.

Everything here is deliberately self-contained: plain Fraction loops, integer
coordinates modulo a monic polynomial, and a private bisection for root
brackets.  Nothing imports the package under test, so these results can be
frozen into assertions against it.
"""

from fractions import Fraction


def greedy_oracle(beta: Fraction, s: Fraction, n: int) -> str:
    r = s
    out = []
    for _ in range(n):
        if r < 1 / beta:
            out.append("0")
            r = beta * r
        else:
            out.append("1")
            r = beta * r - 1
    return "".join(out)


def lazy_oracle(beta: Fraction, s: Fraction, n: int) -> str:
    cutoff = 1 / (beta * (beta - 1))
    r = s
    out = []
    for _ in range(n):
        if r <= cutoff:
            out.append("0")
            r = beta * r
        else:
            out.append("1")
            r = beta * r - 1
    return "".join(out)


def adc_oracle(beta: Fraction, t: Fraction, eps: Fraction, s: Fraction, n: int, tosses: str):
    """The comparator loop with a post-step clamp: a step that leaves
    [0, 1/(beta-1)] is a fault, and the residual is clamped to the end it
    crossed.  Returns (bits, switch_indices, consumed_tosses, residual,
    fault, fault_indices)."""
    lo, hi, top = 1 / beta, 1 / (beta * (beta - 1)), 1 / (beta - 1)
    toss = iter(tosses)
    r = s
    bits, switch, consumed, faults = [], [], [], []
    for i in range(n):
        if r < t - eps:
            bit = 0
        elif r > t + eps:
            bit = 1
        else:
            bit = int(next(toss))
        if lo <= r <= hi:
            switch.append(i)
            consumed.append(str(bit))
        bits.append(str(bit))
        r = beta * r - bit
        if r < 0:
            faults.append(i)
            r = Fraction(0)
        elif r > top:
            faults.append(i)
            r = top
    return "".join(bits), tuple(switch), "".join(consumed), r, bool(faults), tuple(faults)


def delta_oracle(beta: Fraction, bits: str) -> Fraction:
    acc = Fraction(0)
    for ch in reversed(bits):
        acc = (acc + (1 if ch == "1" else 0)) / beta
    return acc


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def root_bracket(coeffs, lo: Fraction, hi: Fraction, bits: int):
    """Bisection bracket of width <= 2^-bits for the root of a sign-changing
    polynomial over [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    s_hi = poly_eval(coeffs, hi)
    s_hi = 1 if s_hi > 0 else -1
    target = Fraction(1, 1 << bits)
    while hi - lo > target:
        mid = (lo + hi) / 2
        v = poly_eval(coeffs, mid)
        if v == 0:
            return mid, mid
        if (1 if v > 0 else -1) == s_hi:
            hi = mid
        else:
            lo = mid
    return lo, hi


def zint_mul_by_root(coords, minpoly):
    """Multiply an integer coordinate vector by the root, modulo a monic
    integer minimal polynomial (ascending coefficients, leading 1)."""
    d = len(minpoly) - 1
    top = coords[d - 1]
    out = [0] + list(coords[:-1])
    if top:
        for i in range(d):
            out[i] -= top * minpoly[i]
    return out


def zint_scaled_value(minpoly, word: str):
    """Integer coordinates of sum(word[j] * root^(n-1-j)) in the monic field:
    the word's value scaled by root^n."""
    d = len(minpoly) - 1
    coords = [0] * d
    for ch in word:
        coords = zint_mul_by_root(coords, minpoly)
        if ch == "1":
            coords[0] += 1
    return tuple(coords)


def zint_interval(coords, lo: Fraction, hi: Fraction):
    """Certified value interval of an integer coordinate vector, evaluated
    over a root bracket with interval Horner."""
    alo = ahi = Fraction(coords[-1])
    for c in reversed(coords[:-1]):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def group_by_value(minpoly, n: int):
    """All words of length n grouped by exact scaled value (monic field)."""
    groups = {}
    for k in range(1 << n):
        w = format(k, f"0{n}b")
        groups.setdefault(zint_scaled_value(minpoly, w), []).append(w)
    return groups


def canonical_oracle(minpoly, n: int):
    """word -> lexicographically maximal word of equal exact value."""
    out = {}
    for ws in group_by_value(minpoly, n).values():
        m = max(ws)
        for w in ws:
            out[w] = m
    return out


def enumerate_oracle_rational(beta: Fraction, s: Fraction, n: int):
    """Brute force: words w of length n with s - value(w) in [0, tail]."""
    out = []
    tail = Fraction(1, 1) / beta**n / (beta - 1)
    for k in range(1 << n):
        w = format(k, f"0{n}b")
        gap = s - delta_oracle(beta, w)
        if 0 <= gap <= tail:
            out.append(w)
    return out


def enumerate_oracle_field(minpoly, iso, s: Fraction, n: int, bits: int = 120):
    """Brute force over a monic field: w belongs to the prefix set of s iff
    (root - 1) * (s*root^n - V(w)) lands in [0, 1]; decided with a certified
    root bracket plus exact boundary tests, raising if the bracket cannot."""
    lo, hi = root_bracket(minpoly, Fraction(iso[0]), Fraction(iso[1]), bits)
    d = len(minpoly) - 1
    pow_coords = [0] * d
    pow_coords[0] = 1
    for _ in range(n):
        pow_coords = zint_mul_by_root(pow_coords, minpoly)
    out = []
    for k in range(1 << n):
        w = format(k, f"0{n}b")
        v = zint_scaled_value(minpoly, w)
        t = [s * pc - vc for pc, vc in zip(pow_coords, v)]
        u = [a - b for a, b in zip(zint_mul_by_root(t, minpoly), t)]
        ulo, uhi = zint_interval(u, lo, hi)

        def decide(clo, chi, coords_shifted):
            if clo > 0:
                return 1
            if chi < 0:
                return -1
            if all(c == 0 for c in coords_shifted):
                return 0
            raise AssertionError("oracle bracket too coarse; raise bits")

        above_zero = decide(ulo, uhi, u)
        below_one = -decide(ulo - 1, uhi - 1, [u[0] - 1] + list(u[1:]))
        if above_zero >= 0 and below_one >= 0:
            out.append(w)
    return sorted(out)
