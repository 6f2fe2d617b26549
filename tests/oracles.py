"""Independent oracles used to compute expected values.

Most of this is deliberately self-contained: plain Fraction loops, integer
coordinates modulo a monic polynomial, a private bisection for root
brackets, and `FractionElement`, field arithmetic on tuples of Fraction
coefficients; those results can be frozen into assertions against the
package.

The last section keeps code that the package replaced, as differential
oracles.  The element-based shift-map orbit, the landing loop
`landing_oracle`, the table-based level sweep, with its
`scaled_power_table`, and the window walk on exact values,
`dfs_window_exact`, run on the package's exact elements (Fractions and
`NumberFieldElement`, compared with `exact_cmp`) and share with it only that
element arithmetic and the certified sign evaluator; they check
`expand._orbit`, its digit rules, `expand.landing_threshold`,
`canonical.m_beta_fast` and `algebraic._window_walk`.  The batched class
search `equiv_class_batched` shares the package's integer frame,
`algebraic._weight_walk`, but not the package's depth-first walk, and
checks `algebraic.equiv_class`.  `inverse_euclid`, the extended Euclidean
algorithm over Fraction polynomials in Q[x], checks
`NumberFieldElement.inverse` (`FractionElement.inverse` also eliminates on
the matrix of multiplication).  `decode_pairing_by_lengths`, the decoder
that tries every item length and arity with its closed-form code length,
checks `pairing.decode_pairing`, with which it shares only `_split_bar`.
`orbit_fractions`, the rational branch of the shift-map orbit as it stepped
Fractions, and `convert_rational_fractions`, the rational converter as it
computed each sigma(i) and injection from a fresh exact power of beta and
carried its residual, injection and carried sum as reduced Fractions,
check `expand._orbit` on rational bases and `convert.convert_rational`.
`convert_stream_fractions`, the stream converter as it re-read the emitted
word in Fractions against each new approximant and carried its injection,
correction and residual as reduced Fractions, and `stream_digits_fractions`,
the rational digit generator of `stream_from_exact` on a Fraction residual,
check `convert.convert_stream` and `convert.stream_from_exact`.
"""

import functools
import math
from fractions import Fraction

import betaforge as bf
from betaforge.pairing import MalformedEncodingError, _split_bar


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


def zint_sign(minpoly, iso, coords) -> int:
    """Certified sign of sum(coords[j] * root^j) for integer or Fraction
    coordinates: interval Horner over bisection brackets of doubling
    precision, and 0 only for the zero vector."""
    if not any(coords):
        return 0
    bits = 64
    while True:
        lo, hi = zint_interval(list(coords), *_cached_bracket(tuple(minpoly), Fraction(iso[0]), Fraction(iso[1]), bits))
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        bits *= 2


def nu_counts_oracle(minpoly, iso, m: int, intervals):
    """Brute force over a monic field: for each (lo, hi) in `intervals`, the
    number of the 2^m words of length m whose value lies in [lo, hi], each
    endpoint a Fraction or the rational power-basis coordinates of a field
    element.  A word's scaled value V (`zint_scaled_value`) and each scaled
    endpoint are enclosed once over a 64-bit root bracket; where two
    enclosures overlap, the certified sign of their difference decides."""
    d = len(minpoly) - 1
    bracket = _cached_bracket(tuple(minpoly), Fraction(iso[0]), Fraction(iso[1]), 64)

    def scaled(e):
        coords = list(e) if isinstance(e, (tuple, list)) else [Fraction(e)] + [0] * (d - 1)
        for _ in range(m):
            coords = zint_mul_by_root(coords, minpoly)
        return coords, zint_interval(coords, *bracket)

    ends = [(scaled(lo), scaled(hi)) for lo, hi in intervals]
    counts = [0] * len(ends)
    for w in all_words(m):
        v = zint_scaled_value(minpoly, w)
        vlo, vhi = zint_interval(v, *bracket)

        def cmp(end):
            coords, (elo, ehi) = end
            if vlo > ehi or vhi < elo:
                return 1 if vlo > ehi else -1
            return zint_sign(minpoly, iso, [x - y for x, y in zip(v, coords)])

        for k, (lo_end, hi_end) in enumerate(ends):
            if cmp(lo_end) >= 0 and cmp(hi_end) <= 0:
                counts[k] += 1
    return counts


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


def landing_oracle(beta, r):
    """The least k at which the greedy map, stepping x -> beta*x - 1 while
    x >= 1, brings r below 1; r must lie below the fixed point 1/(beta-1)."""
    b = bf.beta_value(beta)
    k = 0
    while bf.exact_cmp(r, 1) >= 0:
        r = b * r - 1
        k += 1
    return k


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


def dfs_window_exact(beta, length, lo_w, hi_w):
    """(words, values): the words of the given length whose value lies in
    [lo_w, hi_w], in lexicographic order, from a pruned walk on exact values.
    A prefix of value v at place i is pushed when [v, v + remaining[i]]
    meets the window, remaining[i] the most the later digits can add, at one
    `exact_cmp` per child; the window must meet [0, remaining[0]]."""
    b = bf.beta_value(beta)
    inv_b = 1 / b
    inv_pows = [inv_b - inv_b + 1]
    for _ in range(length):
        inv_pows.append(inv_pows[-1] * inv_b)
    tail_factor = 1 / (b - 1)
    remaining = [(inv_pows[i] - inv_pows[length]) * tail_factor for i in range(length + 1)]
    words, values = [], []
    stack = [(0, b - b, "")]
    while stack:
        i, v, word = stack.pop()
        if i == length:
            words.append(word)
            values.append(v)
            continue
        v1 = v + inv_pows[i + 1]
        if bf.exact_cmp(v1, hi_w) <= 0:
            stack.append((i + 1, v1, word + "1"))
        if bf.exact_cmp(v + remaining[i + 1], lo_w) >= 0:
            stack.append((i + 1, v, word + "0"))
    return words, values


def equiv_class_batched(beta, x):
    """All words of x's length and exact value, sorted: the weight walk's
    live prefixes searched depth first in batches of up to 256, each prefix
    kept while the remaining digits can still cancel its deficit, with an
    exact zero test at the last level."""
    n = len(x)
    if n == 0:
        return [""]
    sign, (deficit,), levels, _ = bf.algebraic._weight_walk(beta, n, (x,))
    levels = list(levels)
    out = []
    stack = [(0, [(tuple(deficit), "")])]
    while stack:
        i, batch = stack.pop()
        if i == n:
            out.extend(word for _, word in batch)
            continue
        weight, window = levels[i]
        last = i + 1 == n
        children = []
        for d, word in batch:
            d1 = tuple(u - w for u, w in zip(d, weight))
            if (not any(d1)) if last else sign(d1) >= 0:
                children.append((d1, word + "1"))
            if (not any(d)) if last else sign([u - w for u, w in zip(d, window)]) <= 0:
                children.append((d, word + "0"))
        stack.extend((i + 1, children[k : k + 256]) for k in range(0, len(children), 256))
    return sorted(out)


def inverse_euclid(x):
    """x^-1 for a nonzero field element x, from the extended Euclidean
    algorithm over Q[x] on the minimal polynomial f and x as a polynomial
    g: s*g + t*f = r runs down to a constant r, and x^-1 = s/r.  A zero
    remainder means gcd(f, g) is not constant, so f is reducible."""

    def trim(p):
        while len(p) > 1 and not p[-1]:
            p.pop()
        return p

    def divmod_(a, b):
        a = list(a)
        db = len(b) - 1
        q = [Fraction(0)] * max(1, len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] / b[-1]
            if c:
                q[i - db] = c
                for j in range(db + 1):
                    a[i - db + j] -= c * b[j]
        return q, trim(a)

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def sub(a, b):
        out = list(a) + [Fraction(0)] * (len(b) - len(a))
        for i, bi in enumerate(b):
            out[i] -= bi
        return out

    ctx = x.ctx
    r0, r1 = [Fraction(c) for c in ctx.minpoly], trim(list(x.coeffs))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, rem = divmod_(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, mul(q, s1))
    if not r1[0]:
        raise bf.MalformedContextError("minimal polynomial is reducible")
    coeffs = [c / r1[0] for c in s1] + [Fraction(0)] * ctx.degree
    return bf.NumberFieldElement(ctx, coeffs[: ctx.degree])


def _decode_arity(raw, arity, item_length):
    parts = _split_bar(raw)
    if parts is None:
        return None
    inner, last = parts
    if arity == 1:
        if last or (item_length is not None and len(inner) != item_length):
            return None
        return [inner]
    if item_length is not None and len(last) != item_length:
        return None
    if arity == 2:
        if item_length is not None and len(inner) != item_length:
            return None
        return [inner, last]
    head = _decode_arity(inner, arity - 1, item_length)
    return None if head is None else head + [last]


def decode_pairing_by_lengths(raw, arity=None, item_length=None):
    """`pairing.decode_pairing` by search: with no arity, every item length
    L and every arity k whose code length, 2L+1 for one item and
    (2^k - 1)L + 2^(k-1) - 1 for k >= 2, is len(raw), each decoded
    recursively; ties go to the one all-nonempty parse, else the fewest
    items."""
    if raw.strip("01"):
        raise MalformedEncodingError("encoding must be a bitstring")
    if arity is not None:
        got = _decode_arity(raw, arity, item_length)
        if got is None:
            raise MalformedEncodingError(f"{raw!r} is not a valid {arity}-item encoding")
        return got
    if item_length is not None and item_length < 0:
        raise MalformedEncodingError(f"item length must be nonnegative, got {item_length}")
    total = len(raw)
    parses = []
    for ln in [item_length] if item_length is not None else range(total + 1):
        if total == 2 * ln + 1:
            parses.append(_decode_arity(raw, 1, ln))
        k = 2
        while ((1 << k) - 1) * ln + (1 << (k - 1)) - 1 <= total:
            if ((1 << k) - 1) * ln + (1 << (k - 1)) - 1 == total:
                parses.append(_decode_arity(raw, k, ln))
            k += 1
    unique = {tuple(p) for p in parses if p is not None}
    if not unique:
        raise MalformedEncodingError(f"{raw!r} does not decode as an equal-length pairing")
    nonempty = {p for p in unique if all(p)}
    if len(nonempty) == 1:
        return list(nonempty.pop())
    shortest = {p for p in unique if len(p) == min(map(len, unique))}
    if len(shortest) > 1:
        raise MalformedEncodingError(f"{raw!r} is ambiguous; pass an explicit arity")
    return list(shortest.pop())


# --- the rational orbit and converter on Fractions --------------------------


def orbit_fractions(b, r, n, rule, cuts=()):
    """`expand._orbit` on a rational base b as it stepped Fractions: sign(k)
    compares the Fraction r with cuts[k], and residual() is r itself."""

    def sign(k):
        c = cuts[k]
        return (r > c) - (r < c)

    def residual():
        return r

    out = []
    for i in range(n):
        d, origin = rule(i, sign, residual)
        if origin is not None:
            r = cuts[origin]
        out.append("1" if d else "0")
        r = b * r - 1 if d else b * r
    return "".join(out), r


def convert_rational_fractions(beta, binary_prefix: str, n: int):
    """`convert.convert_rational` as it ran on Fractions: sigma(i) from
    `exact_log2_bounds` on beta^(N*i), each injection from a fresh power of
    beta, the residual, the injection and the carried sum each a reduced
    Fraction, and each chunk from the greedy rule on `orbit_fractions` after
    the domain check of `greedy_prefix`.  Returns (bits, residuals, sigmas) and
    raises what the converter raised, with the same messages."""
    params = bf.params_rational(beta)
    b, n_chunk = params.beta, params.N

    def sigma(i):
        if i == 0:
            return 0
        lead, _ = bf.exact_log2_bounds(b, n_chunk * i)
        return max(i, lead + params.sigma_offset)

    bf.expand.validate_bits(binary_prefix)
    if n < 0:
        raise bf.DomainError("chunk count must be nonnegative")
    last = sigma(n)
    if len(binary_prefix) < last:
        raise bf.InsufficientBitsError("binary", last)
    sigmas = [sigma(i) for i in range(n)] + [last]
    carry_cap = (b / 2) / (b - 1)
    residual = Fraction(0)
    residuals = [residual]
    out = []
    for i in range(n):
        step_slice = binary_prefix[sigmas[i] : sigmas[i + 1]]
        injected = b ** (n_chunk * i) / Fraction(1 << sigmas[i]) * Fraction(int(step_slice or "0", 2), 1 << len(step_slice))
        total = residual + injected
        if not (0 <= total <= carry_cap):
            raise bf.InvariantViolation(
                f"step {i}: carried sum {total} outside [0, {carry_cap}]; "
                f"residual={residual} injected={injected} beta={b}"
            )
        if not (0 <= total <= 1 / (b - 1)):
            raise bf.DomainError("value outside [0, 1/(beta-1)]")
        chunk, residual = orbit_fractions(b, total, n_chunk, lambda i, sign, _: (sign(0) >= 0, None), (1 / b,))
        if not (0 <= residual <= 1):
            raise bf.InvariantViolation(f"step {i}: residual {residual} left [0, 1]")
        out.append(chunk)
        residuals.append(residual)
    return "".join(out), tuple(residuals), sigmas


def stream_digits_fractions(b):
    """The digits of b - 1 for a rational b in (1, 2), as `stream_from_exact`
    generated them: a Fraction residual r, compared with 1/2 and doubled."""
    r = b - 1
    while True:
        if r >= Fraction(1, 2):
            yield 1
            r = 2 * r - 1
        else:
            yield 0
            r = 2 * r


def convert_stream_fractions(beta, binary_prefix: str, n: int):
    """`convert.convert_stream` as it ran on Fractions: every base digit
    drawn and checked before any size check, each step's injection,
    correction and residual a reduced Fraction, the emitted word re-read with
    `expand._word_value` against each new approximant, each chunk from the
    Fraction orbit `orbit_fractions`, and the rate cap from a fresh power of
    the upper bracket.  Returns the `StreamConversion` and raises what the
    converter raised, with the same messages."""
    from itertools import islice

    from betaforge.convert import _E_UPPER
    from betaforge.expand import _delta2, _tail, _word_value
    from betaforge.numerics import _ceil_log2_ratio, _int_powers

    params = bf.params_stream(beta)
    n_chunk, c_low = params.N, params.C_lower
    bf.expand.validate_bits(binary_prefix)
    if n < 0:
        raise bf.DomainError("chunk count must be nonnegative")

    need_beta_bits = params.lam(n + 1)
    digits = list(islice(beta.bit_factory(), need_beta_bits))
    if len(digits) < need_beta_bits:
        raise bf.InsufficientBitsError("beta", need_beta_bits)
    for k, digit in enumerate(digits):
        if digit not in (0, 1):
            raise bf.DomainError(f"stream digit {k} is {digit!r}, not 0 or 1")
    beta_bits = "".join("1" if digit else "0" for digit in digits)
    approximants = [1 + _delta2(beta_bits[: params.lam(j)]) for j in range(n + 2)]
    for j, (a, b2) in enumerate(zip(approximants, approximants[1:])):
        if not (1 < a <= b2 <= beta.hi):
            raise bf.InvariantViolation(f"approximants not nondecreasing within brackets: {a} then {b2}")
        if a + Fraction(1, 1 << params.lam(j)) < beta.lo:
            raise bf.InvariantViolation(
                f"approximant {float(a):.6g} cannot reach the claimed lower bracket "
                f"{float(beta.lo):.6g}; stream bits inconsistent with brackets"
            )

    def power(i):
        return _int_powers(approximants[i + 1], n_chunk * i)

    def sigma(i, big):
        return _ceil_log2_ratio(*big) - params.floor_log2_C if i else 0

    last = sigma(n, power(n))
    if len(binary_prefix) < last:
        raise bf.InsufficientBitsError("binary", last)
    scales = [power(i) for i in range(n)]
    sigmas = [sigma(i, big) for i, big in enumerate(scales)] + [last]
    if any(a >= b2 for a, b2 in zip(sigmas, sigmas[1:])):
        raise bf.InvariantViolation(f"binary read schedule not strictly increasing: {sigmas}")

    emitted = ""
    emitted_value = Fraction(0)
    residual = Fraction(0)
    diags = []
    for i in range(n):
        b_cur = approximants[i]
        b_next = approximants[i + 1]
        step_slice = binary_prefix[sigmas[i] : sigmas[i + 1]]
        scale = Fraction(*scales[i])
        injected = scale / Fraction(1 << sigmas[i]) * _delta2(step_slice)
        reread = _word_value(b_next, emitted)
        correction = scale * (emitted_value - reread)

        def fail(msg):
            raise bf.InvariantViolation(
                f"{msg}; step {i}: residual~{float(residual):.6g} injected~{float(injected):.6g} "
                f"correction~{float(correction):.6g} approximants={[float(a) for a in approximants[i:i+3]]} "
                f"sigmas={sigmas}"
            )

        if not (0 <= injected <= (c_low if i >= 1 else 1)):
            fail("injected increment outside its cap")
        if not (0 <= correction <= c_low):
            fail("correction outside [0, C]")
        if i >= 1 and not (0 <= residual <= 1 + c_low):
            fail("carried residual outside [0, 1 + C]")
        total = residual + injected + correction
        if i >= 1:
            gap = min(beta.hi - approximants[i], Fraction(1, 1 << params.lam(i)))
            rate_cap = min(Fraction(1), c_low) / (_E_UPPER * beta.hi ** (n_chunk * i) * n_chunk**2 * i**2)
            if gap > rate_cap:
                fail("approximant not tightening fast enough")
        chunk, shifted = orbit_fractions(b_next, total, n_chunk, lambda i, sign, _: (sign(0) >= 0, None), (1 / b_next,))
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
            bf.StepDiagnostics(i, b_cur, sigmas[i], step_residual, injected, correction, ratio, approx_gap)
        )
    return bf.StreamConversion(emitted, tuple(diags), params, tuple(approximants), tuple(sigmas))


def least_power_loop(b, target, cap: int, budget: int) -> int:
    """`expand._least_power` as the plain loop of exact products, with its
    orbit cap and power budget as arguments: before each product the step
    refuses past the cap, then, on a rational base, past the budget.  The
    loop starts from 1 in the base's type, a Fraction or a field element."""
    bits = b.numerator.bit_length() + b.denominator.bit_length() if isinstance(b, Fraction) else 0
    m, power = 0, b - b + 1
    while bf.exact_cmp(power, target) < 0:
        if m == cap:
            raise bf.SizeGuardError(f"least power exceeds the orbit cap ORBIT_CAP = {cap}")
        if (m + 1) * bits > budget:
            raise bf.BudgetExceededError(f"a^{m + 1} would exceed the {budget}-bit budget")
        power *= b
        m += 1
    return m
