"""Reference arithmetic for checking benchmark outputs without betaforge.

Nothing here imports the package under test.  Word values in a rational base
are plain `Fraction`s.  Word values in the monic presets are integer vectors
in Z[beta], and signs of those vectors are certified by integer interval
evaluation over a dyadic bracket of beta that this module finds by bisection
on the minimal polynomial.  A failed check raises `Mismatch`.
"""

from __future__ import annotations

import json
from fractions import Fraction

# minimal polynomial (ascending, monic) and isolating interval of each preset
MONIC = {
    "golden": ((-1, -1, 1), (Fraction(3, 2), Fraction(5, 3))),
    "tribonacci": ((-1, -1, -1, 1), (Fraction(9, 5), Fraction(15, 8))),
}

# greedy expansions of 3/4, 50 digits, for the six bases of the pinned table
TABLE1 = {
    "2": "11000000000000000000000000000000000000000000000000",
    "101/100": "00000000000000000000000000001000000000000000000000",
    "6/5": "01000000000000010000000000000000000100000000000000",
    "3/2": "10000010010010100000000010000001000010000001001001",
    "9/5": "10100010101000000110101000011000011010011000010000",
    "199/100": "10111110001001001001010001100011010000100000111010",
}


class Mismatch(Exception):
    """An output failed its check."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def is_word(w, n: int) -> bool:
    return isinstance(w, str) and len(w) == n and not w.strip("01")


class ZBeta:
    """Z[beta] for a monic integer minimal polynomial with a real root
    inside an isolating interval."""

    def __init__(self, minpoly, isolating):
        self.m = tuple(minpoly)
        self.d = len(minpoly) - 1
        lo, hi = isolating
        k = 64
        p = lo.numerator * (1 << k) // lo.denominator
        q = -(-hi.numerator * (1 << k) // hi.denominator)
        self._sign_lo = self._poly_sign(p, k)
        if self._sign_lo == self._poly_sign(q, k):
            raise ValueError("isolating interval does not bracket a root")
        self._bracket = (p, q, k)

    def _poly_sign(self, x: int, k: int) -> int:
        # sign of minpoly(x / 2^k), scaled by 2^(k*d)
        acc = 0
        for i, c in enumerate(self.m):
            acc += c * x**i << (k * (self.d - i))
        return (acc > 0) - (acc < 0)

    def bracket(self, k: int):
        """(P, Q, k') with P/2^k' <= beta <= Q/2^k', Q - P = 1 and k' >= k."""
        p, q, k0 = self._bracket
        if k0 >= k and q - p <= 1:
            return self._bracket
        k = max(k, k0)
        p, q = p << (k - k0), q << (k - k0)
        while q - p > 1:
            mid = (p + q) // 2
            s = self._poly_sign(mid, k)
            if s == 0:
                p, q = mid - 1, mid + 1
                break
            if s == self._sign_lo:
                p = mid
            else:
                q = mid
        self._bracket = (p, q, k)
        return self._bracket

    def times_beta(self, v):
        top = v[-1]
        out = [0] + list(v[:-1])
        if top:
            for i in range(self.d):
                out[i] -= top * self.m[i]
        return out

    def word(self, bits: str):
        """sum bits[i] * beta^(n-1-i): the value of the word scaled by beta^n."""
        acc = [0] * self.d
        for ch in bits:
            acc = self.times_beta(acc)
            if ch == "1":
                acc[0] += 1
        return acc

    def power(self, n: int):
        acc = [1] + [0] * (self.d - 1)
        for _ in range(n):
            acc = self.times_beta(acc)
        return acc

    def sign(self, v) -> int:
        """Certified sign of sum v[i] * beta^i; 0 only for the zero vector."""
        if not any(v):
            return 0
        k = max(64, 2 * max(abs(c).bit_length() for c in v))
        while k <= 1 << 22:
            p, q, k = self.bracket(k)
            lo = hi = v[-1]
            for j in range(self.d - 2, -1, -1):
                prods = (lo * p, lo * q, hi * p, hi * q)
                scaled = v[j] << (k * (self.d - 1 - j))
                lo, hi = min(prods) + scaled, max(prods) + scaled
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            k *= 2
        raise Mismatch("reference sign did not converge")

    def lower_beta(self) -> Fraction:
        p, _, k = self.bracket(64)
        return Fraction(p, 1 << k)

    def upper_beta(self) -> Fraction:
        _, q, k = self.bracket(64)
        return Fraction(q, 1 << k)


_ZBETA: dict = {}


def zbeta(name: str) -> ZBeta:
    if name not in _ZBETA:
        _ZBETA[name] = ZBeta(*MONIC[name])
    return _ZBETA[name]


def base_of(name: str):
    """The reference base for a preset name or a rational literal."""
    return zbeta(name) if name in MONIC else Fraction(name)


def fmt_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def word_value(beta: Fraction, bits: str) -> Fraction:
    acc = Fraction(0)
    for ch in reversed(bits):
        acc = (acc + (ch == "1")) / beta
    return acc


def binary_value(bits: str) -> Fraction:
    return Fraction(int(bits or "0", 2), 1 << len(bits))


def in_tail(base, s: Fraction, bits: str) -> bool:
    """0 <= s - value(bits) <= beta^-n / (beta - 1): bits is a prefix of an
    expansion of s, with the shifted residual inside [0, 1/(beta-1)]."""
    n = len(bits)
    if isinstance(base, Fraction):
        gap = s - word_value(base, bits)
        return 0 <= gap <= 1 / (base**n * (base - 1))
    # e = den * beta^n * (s - value) lies in Z[beta]; need 0 <= e and e*(beta-1) <= den
    num, den = s.numerator, s.denominator
    e = [num * a - den * b for a, b in zip(base.power(n), base.word(bits))]
    if base.sign(e) < 0:
        return False
    e_times = [a - b for a, b in zip(base.times_beta(e), e)]
    e_times[0] -= den
    return base.sign(e_times) <= 0


def value_key(base, w: str):
    return word_value(base, w) if isinstance(base, Fraction) else tuple(base.word(w))


def key_less(base, a, b) -> bool:
    if isinstance(base, Fraction):
        return a < b
    return base.sign([x - y for x, y in zip(a, b)]) < 0


def check_partition(base, n: int, classes, x=None) -> int:
    """Classes (sequences of member words) group equal-length words by exact
    value, in increasing value order; returns the number of words."""
    seen = set()
    keys = []
    for members in classes:
        expect(len(members) > 0, "empty class")
        expect(list(members) == sorted(members), "class members not sorted")
        expect(all(is_word(w, n) for w in members), "class member of wrong shape")
        key = value_key(base, members[0])
        expect(all(value_key(base, w) == key for w in members[1:]), "class members differ in value")
        keys.append(key)
        seen.update(members)
    count = sum(len(c) for c in classes)
    expect(len(seen) == count, "word repeated across classes")
    expect(len(set(keys)) == len(keys), "two classes share one value")
    expect(all(key_less(base, a, b) for a, b in zip(keys, keys[1:])), "classes out of value order")
    if x is not None:
        expect(x in seen, "window misses its own word")
    return count


def denoise(preset: str, s: Fraction, n: int, raw: str, canonical: str, fault: bool) -> int:
    base = zbeta(preset)
    expect(is_word(raw, n) and is_word(canonical, n), "pipeline word of wrong shape")
    expect(not fault, "sound quantizer run faulted")
    expect(canonical >= raw, "canonical word below the raw word")
    expect(base.word(raw) == base.word(canonical), "canonical word changes the value")
    expect(in_tail(base, s, raw), "raw word is not a prefix of an expansion of s")
    return n


def rational_schedule(beta: Fraction):
    """(N, sigma) of the rational converter: N is the least chunk size with
    beta^N >= 2, sigma(i) = max(i, ceil(N*i*log2(beta)) + ceil(log2(2(beta-1)/(2-beta))))."""
    n_chunk, p = 0, Fraction(1)
    while p < 2:
        p *= beta
        n_chunk += 1
    offset = ceil_log2(2 * (beta - 1) / (2 - beta))

    def sigma(i: int) -> int:
        return 0 if i == 0 else max(i, ceil_log2(beta ** (n_chunk * i)) + offset)

    return n_chunk, sigma


def ceil_log2(a: Fraction) -> int:
    """Least m with 2^m >= a, for a > 0."""
    m = a.numerator.bit_length() - a.denominator.bit_length()

    def at_most_pow2(k):  # a <= 2^k
        return a.numerator <= a.denominator << k if k >= 0 else a.numerator << -k <= a.denominator

    while not at_most_pow2(m):
        m += 1
    while at_most_pow2(m - 1):
        m -= 1
    return m


def conversion_gap(base, prefix: str, sigma: int, bits: str) -> None:
    """The emitted word stays within the tail bound below the value of the
    binary prefix it consumed."""
    expect(0 <= sigma <= len(prefix), "read schedule beyond the prefix")
    expect(in_tail(base, binary_value(prefix[:sigma]), bits), "converted word outside the tail bound")


def rational_conversion(beta: Fraction, prefix: str, chunks: int, bits: str) -> int:
    n_chunk, sigma = rational_schedule(beta)
    expect(is_word(bits, n_chunk * chunks), "rational conversion of wrong length")
    conversion_gap(beta, prefix, sigma(chunks), bits)
    return len(bits)


def stream_conversion(base, prefix: str, chunks: int, n_chunk: int, sigmas, bits: str) -> int:
    expect(n_chunk >= 1 and is_word(bits, n_chunk * chunks), "stream conversion of wrong length")
    sigmas = list(sigmas)
    expect(len(sigmas) == chunks + 1 and sigmas[0] == 0, "stream schedule of wrong shape")
    expect(all(a < b for a, b in zip(sigmas, sigmas[1:])), "stream schedule not increasing")
    conversion_gap(base, prefix, sigmas[chunks], bits)
    return len(bits)


def expansion_set(base, s: Fraction, n: int, words) -> int:
    """`words` is exactly the sorted set of length-n prefixes of expansions of s."""
    words = list(words)
    expect(words == expansions(base, s, n), "prefix set differs from the reference enumeration")
    return n * len(words)


def toss_round_trip(base, s, n, word, consumed, words, extracted) -> int:
    digits = expansion_set(base, s, n, words)
    expect(word in words, "random expansion missing from the prefix set")
    expect(len(extracted) == len(words), "extraction not run on every member")
    expect(extracted[words.index(word)] == consumed, "extracted tosses differ from the consumed ones")
    expect(len(set(extracted)) == len(words), "toss extraction is not injective")
    for y, tosses in zip(words, extracted):
        expect(random_expand(base, s, n, tosses) == (y, tosses), "extracted tosses do not replay to their word")
    return digits


def shift_map(base, s: Fraction):
    """(r0, forced, step) for the shift map r -> beta*r - digit started at s:
    forced(r) is the only valid digit outside the switch region
    [1/beta, 1/(beta(beta-1))] and None inside it."""
    if isinstance(base, Fraction):
        lo, hi = 1 / base, 1 / (base * (base - 1))

        def forced(r):
            return 0 if r < lo else 1 if r > hi else None

        def step(r, bit):
            return base * r - bit

        return s, forced, step
    # r = e / den with e in Z[beta]: r < 1/beta iff beta*e < den, and
    # r > 1/(beta(beta-1)) iff (beta^2 - beta)*e > den
    den = s.denominator

    def forced(e):
        b_e = base.times_beta(e)
        if base.sign([b_e[0] - den] + b_e[1:]) < 0:
            return 0
        q = [a - b for a, b in zip(base.times_beta(b_e), b_e)]
        return 1 if base.sign([q[0] - den] + q[1:]) > 0 else None

    def step(e, bit):
        out = base.times_beta(e)
        out[0] -= bit * den
        return out

    return [s.numerator] + [0] * (base.d - 1), forced, step


def random_expand(base, s: Fraction, n: int, tosses: str):
    """Toss-driven expansion, the next toss deciding each digit inside the
    switch region: (word, tosses consumed)."""
    r, forced, step = shift_map(base, s)
    word, used = [], 0
    for _ in range(n):
        bit = forced(r)
        if bit is None:
            expect(used < len(tosses), "tosses ran out")
            bit = int(tosses[used])
            used += 1
        word.append(str(bit))
        r = step(r, bit)
    return "".join(word), tosses[:used]


def expansions(base, s: Fraction, n: int) -> list:
    """All length-n prefixes of expansions of s, sorted: both digits are
    taken inside the switch region."""
    r0, forced, step = shift_map(base, s)
    out, stack = [], [(r0, "")]
    while stack:
        r, word = stack.pop()
        if len(word) == n:
            out.append(word)
            continue
        bit = forced(r)
        for b in (0, 1) if bit is None else (bit,):
            stack.append((step(r, b), word + str(b)))
    return sorted(out)


def encode_pairing(items) -> str:
    def bar(x):
        return "1" * len(x) + "0" + x

    if len(items) == 1:
        return bar(items[0])
    enc = bar(items[0]) + items[1]
    for it in items[2:]:
        enc = bar(enc) + it
    return enc


def json_object(text: str) -> dict:
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise Mismatch(f"not JSON: {exc}") from None
    expect(isinstance(obj, dict), "JSON output is not an object")
    return obj
