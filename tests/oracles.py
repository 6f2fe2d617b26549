"""Independent oracles used to compute expected values.

Most of this is deliberately self-contained: plain Fraction loops, integer
coordinates modulo a monic polynomial, a private bisection for root
brackets, and `FractionElement`, field arithmetic on tuples of Fraction
coefficients; those results can be frozen into assertions against the
package.

The last section keeps the element-based shift-map orbit and the table-based
level sweep, with its `scaled_power_table`, that integer coordinates
replaced.  They run on the package's
exact elements (Fractions and `NumberFieldElement`, compared with
`exact_cmp`) and share with it only that element arithmetic and the
certified sign evaluator, so they serve as differential oracles for
`expand._orbit`, its digit rules and `canonical.m_beta_fast`.
"""

import functools
import math
from fractions import Fraction

import betaforge as bf


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


@functools.lru_cache(maxsize=None)
def _cached_bracket(minpoly, lo, hi, bits):
    return root_bracket(minpoly, lo, hi, bits)


def interval_eval(coeffs, lo: Fraction, hi: Fraction):
    """Interval Horner evaluation of sum(coeffs[i] * x^i) over x in [lo, hi]."""
    acc_lo = acc_hi = Fraction(0)
    for c in reversed(coeffs):
        p = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(p) + c, max(p) + c
    return acc_lo, acc_hi


class FractionElement:
    """An element of Q(beta) as a tuple of Fraction coefficients, reduced
    modulo the context's minimal polynomial by Fraction reduction rows: the
    representation the package's NumberFieldElement had before it moved to
    integer coordinates over one denominator.

    Signs and enclosures come from the private bisection above, not from
    the package.  `enclosure` repeats the package's precision schedule, so
    it returns the package's endpoints exactly.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == ctx.degree

    def _coerce(self, other):
        if isinstance(other, FractionElement):
            return other
        return FractionElement(self.ctx, (Fraction(other),) + (Fraction(0),) * (self.ctx.degree - 1))

    def __add__(self, other):
        o = self._coerce(other)
        return FractionElement(self.ctx, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FractionElement(self.ctx, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return FractionElement(self.ctx, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        poly = self.ctx.minpoly
        d = len(poly) - 1
        base = [Fraction(-c, poly[-1]) for c in poly[:-1]]
        rows = [base]  # rows[k]: beta^(d+k) reduced to degree < d
        for _ in range(d - 2):
            prev = rows[-1]
            rows.append([s + prev[-1] * b for s, b in zip([Fraction(0)] + prev[:-1], base)])
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                conv[i + j] += a * b
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            out = [x + conv[k] * r for x, r in zip(out, rows[k - d])]
        return FractionElement(self.ctx, out)

    __rmul__ = __mul__

    def inverse(self):
        """Solve self * y = 1 by Gaussian elimination over Q on the matrix
        of multiplication by self."""
        d = self.ctx.degree
        unit = [FractionElement(self.ctx, [Fraction(int(i == j)) for i in range(d)]) for j in range(d)]
        cols = [(self * u).coeffs for u in unit]
        rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
        for c in range(d):
            piv = next(r for r in range(c, d) if rows[r][c])
            rows[c], rows[piv] = rows[piv], rows[c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for r in range(d):
                if r != c and rows[r][c]:
                    rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
        return FractionElement(self.ctx, [rows[i][d] for i in range(d)])

    def sign(self):
        if not any(self.coeffs):
            return 0
        lo, hi = self.ctx.isolating
        bits = 32
        while True:
            blo, bhi = _cached_bracket(tuple(self.ctx.minpoly), lo, hi, bits)
            elo, ehi = interval_eval(self.coeffs, blo, bhi)
            if elo > 0:
                return 1
            if ehi < 0:
                return -1
            bits *= 2

    def enclosure(self, max_width: Fraction):
        """The package's schedule on the private bisection: with the
        coefficients as integers v over one denominator den, floor and
        ceiling power sums over the root bracket of width 2^-(bits+16) bound
        2^bits * den * value, for bits = 64, 128, ... until narrow enough."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        v = [c.numerator * (den // c.denominator) for c in self.coeffs]
        bits = 64
        while True:
            blo, bhi = _cached_bracket(tuple(self.ctx.minpoly), *self.ctx.isolating, bits + 16)
            scale = 1 << bits
            lo = hi = v[0] * scale
            for j, x in enumerate(v[1:], 1):
                pl, ph = math.floor(scale * blo**j), math.ceil(scale * bhi**j)
                lo += x * (pl if x >= 0 else ph)
                hi += x * (ph if x >= 0 else pl)
            if Fraction(hi - lo, den * scale) <= max_width:
                return Fraction(lo, den * scale), Fraction(hi, den * scale)
            bits *= 2

    def __eq__(self, other):
        return self.coeffs == self._coerce(other).coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = [f"{c}" if i == 0 else f"{c}*b^{i}" for i, c in enumerate(self.coeffs) if c]
        return "NFE(" + (" + ".join(terms) if terms else "0") + ")"


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


def all_words(n: int):
    """Every 0/1 word of length n in lexicographic order; n = 0 gives ""."""
    return [format(k, f"0{n}b") if n else "" for k in range(1 << n)]


def enumerate_oracle_rational(beta: Fraction, s: Fraction, n: int):
    """Brute force: words w of length n with s - value(w) in [0, tail]."""
    out = []
    tail = Fraction(1, 1) / beta**n / (beta - 1)
    for w in all_words(n):
        gap = s - delta_oracle(beta, w)
        if 0 <= gap <= tail:
            out.append(w)
    return out


def enumerate_oracle_field(minpoly, iso, s, n: int, bits: int = 120):
    """Brute force over a monic field: w belongs to the prefix set of s iff
    (root - 1) * (s*root^n - V(w)) lands in [0, 1]; decided with a certified
    root bracket plus exact boundary tests, raising if the bracket cannot.
    `s` is a Fraction or the rational power-basis coordinates of a field
    element."""
    lo, hi = root_bracket(minpoly, Fraction(iso[0]), Fraction(iso[1]), bits)
    d = len(minpoly) - 1
    s_coords = list(s) if isinstance(s, (tuple, list)) else [Fraction(s)] + [0] * (d - 1)
    for _ in range(n):
        s_coords = zint_mul_by_root(s_coords, minpoly)
    out = []
    for w in all_words(n):
        v = zint_scaled_value(minpoly, w)
        t = [sc - vc for sc, vc in zip(s_coords, v)]
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


def dyadic_log2_upper_bisection(a: Fraction, precision_bits: int = 16) -> Fraction:
    """Dyadic upper bound on log2(a) for a in (1, 2), within 2^-precision_bits,
    by bisection on the exponent k of 2^k against a^(2^precision_bits)."""
    scale = 1 << precision_bits
    lo_k, hi_k = 0, scale
    # invariant: 2^(lo_k/scale) <= a <= 2^(hi_k/scale), decided exactly on a^scale
    target = a ** scale
    while hi_k - lo_k > 1:
        mid = (lo_k + hi_k) // 2
        if Fraction(2) ** mid <= target:
            lo_k = mid
        else:
            hi_k = mid
    return Fraction(hi_k, scale)


def branch_indices_scan(expansions, x: str) -> tuple:
    """Branch indices of x by comparing it with every member: the depth at
    which each other member first differs from x, if it differs before either
    word ends.  O(K*n) per word; raises DomainError for a non-member."""
    if x not in set(expansions):
        raise bf.DomainError("word is not a member of the given prefix set")
    n = len(x)
    branches = set()
    for y in expansions:
        if y == x:
            continue
        m = min(n, len(y))
        cp = 0
        while cp < m and y[cp] == x[cp]:
            cp += 1
        if cp < m:
            branches.add(cp)
    return tuple(sorted(branches))


# --- element-based orbit and table-based sweep -----------------------------


def element_orbit(b, r, n, rule):
    """The shift map r -> b*r - d on exact elements, with (d, origin) =
    rule(i, r); the step leaves from `origin`."""
    out = []
    for i in range(n):
        d, r = rule(i, r)
        out.append("1" if d else "0")
        r = b * r - 1 if d else b * r
    return "".join(out), r


def _element_region(b):
    return 1 / b, 1 / (b * (b - 1))


def _element_side(r, lo, hi):
    if bf.exact_cmp(r, lo) < 0:
        return -1
    return 1 if bf.exact_cmp(r, hi) > 0 else 0


def greedy_prefix_elements(beta, r, n):
    b = bf.beta_value(beta)
    lo = 1 / b
    return element_orbit(b, r, n, lambda i, r: (bf.exact_cmp(r, lo) >= 0, r))


def lazy_expand_elements(beta, s, n):
    b = bf.beta_value(beta)
    hi = _element_region(b)[1]
    return element_orbit(b, s, n, lambda i, r: (bf.exact_cmp(r, hi) > 0, r))[0]


def random_expand_elements(beta, s, n, tosses: str):
    """(word, steps) with steps = (index, residual, bit, in_switch, toss)."""
    b = bf.beta_value(beta)
    lo, hi = _element_region(b)
    toss = iter(tosses)
    steps = []

    def rule(i, r):
        side = _element_side(r, lo, hi)
        bit = int(next(toss)) if side == 0 else int(side > 0)
        steps.append((i, r, bit, side == 0, bit if side == 0 else None))
        return bit, r

    return element_orbit(b, s, n, rule)[0], steps


def adc_run_elements(beta, t, eps, s, n, tosses: str):
    """(bits, switch_indices, consumed_tosses, residual, fault, fault_indices)
    of the comparator loop with the pre-step clamp."""
    b = bf.beta_value(beta)
    lo, hi = _element_region(b)
    band_lo, band_hi = t - eps, t + eps
    toss = iter(tosses)
    switch, consumed, faults = [], [], []

    def rule(i, r):
        side = _element_side(r, lo, hi)
        band = _element_side(r, band_lo, band_hi)
        bit = int(next(toss)) if band == 0 else int(band > 0)
        if side == 0:
            switch.append(i)
            consumed.append(str(bit))
        elif bit != (side > 0):
            faults.append(i)
            r = lo if bit else hi
        return bit, r

    bits, r = element_orbit(b, s, n, rule)
    return bits, tuple(switch), "".join(consumed), r, bool(faults), tuple(faults)


def replay_tosses_elements(beta, s, x):
    """x's digits at its switch-region visits, or None when x leaves the
    prefix set of s."""
    b = bf.beta_value(beta)
    lo, hi = _element_region(b)
    out = []
    for i, ch in enumerate(x):
        side = _element_side(s, lo, hi)
        bit = ch == "1"
        if side == 0:
            out.append(ch)
        elif bit != (side > 0):
            return None
        s = b * s - 1 if bit else b * s
    return "".join(out)


def scaled_power_table(beta, n):
    """Powers beta^0 .. beta^(n-1) plus suffix sums used as feasibility windows.

    Returns (powers, windows) with windows[i] = sum of beta^k for k < n - i,
    so windows[n] = 0.  Working with values scaled by beta^n keeps all digit
    arithmetic free of divisions.
    """
    b = bf.beta_value(beta)
    powers = [b - b + 1]
    for _ in range(n - 1):
        powers.append(powers[-1] * b)
    windows = [b - b] * (n + 1)
    for i in range(n - 1, -1, -1):
        windows[i] = windows[i + 1] + powers[n - i - 1]
    return powers, windows


def sweep_elements(beta, x):
    """(word, per-level class counts, steps) of the level sweep over the
    power and window tables of `scaled_power_table`, keyed by exact values."""
    n = len(x)
    powers, windows = scaled_power_table(beta, n)
    deficit = powers[0] - powers[0]
    for j, ch in enumerate(x):
        if ch == "1":
            deficit = deficit + powers[n - j - 1]
    level = [(deficit, "")]
    counts = []
    steps = 0
    for i in range(1, n + 1):
        p, win = powers[n - i], windows[i]
        fresh = {}
        for deficit, word in level:
            for digit in (1, 0):
                steps += 1
                d2 = deficit - p if digit else deficit
                if i == n:
                    ok = d2 == 0
                else:
                    ok = bf.exact_sign(d2) >= 0 and bf.exact_cmp(d2, win) <= 0
                key = getattr(d2, "coeffs", d2)
                if ok and key not in fresh:
                    fresh[key] = (d2, word + str(digit))
        level = list(fresh.values())
        counts.append(len(level))
    return level[0][1], tuple(counts), steps
