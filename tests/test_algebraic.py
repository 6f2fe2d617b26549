import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

import betaforge as bf
from oracles import delta_oracle, equiv_class_batched, group_by_value, root_bracket, zint_interval
from test_integer_coords import base

GOLDEN_POLY = [-1, -1, 1]
SQRT2_POLY = [-2, 0, 1]
CBRT2_POLY = [-2, 0, 0, 1]
# (1 + sqrt3)/2, a root of the non-monic 2x^2 - 2x - 1
NONMONIC = {"minpoly": [-1, -2, 2], "isolating": ["13/10", "7/5"]}
# x(x^2 - x - 1): reducible, with the root 0, yet it isolates the golden ratio
ZERO_CONSTANT = {"minpoly": [0, -1, -1, 1], "isolating": ["3/2", "5/3"]}


def _base_and_value(name):
    """The base and the exact value of a word on it, computed apart from the
    integer weight walk: element arithmetic on field bases, plain Fractions
    on rational ones."""
    if name in ("nonmonic", "golden", "tribonacci"):
        beta = bf.beta_from_json(NONMONIC) if name == "nonmonic" else bf.get_preset(name).beta
        return beta, lambda w: bf.delta_finite(beta, w)
    q = Fraction(name)
    return bf.RationalBeta(q), lambda w: delta_oracle(q, w)


def min_gap_lower_bound(minpoly, iso, n, bits=120):
    """Certified lower bound on the smallest gap between distinct values of
    length-n words, from the independent integer-coordinate oracle."""
    lo, hi = root_bracket(minpoly, Fraction(iso[0]), Fraction(iso[1]), bits)
    reps = list(group_by_value(minpoly, n).keys())
    scale_lo, scale_hi = zint_interval(_power_coords(minpoly, n), lo, hi)
    intervals = sorted(zint_interval(list(c), lo, hi) for c in reps)
    best = None
    for (alo, ahi), (blo, bhi) in zip(intervals, intervals[1:]):
        gap_lo = blo - ahi
        assert gap_lo > 0, "oracle bracket too coarse"
        best = gap_lo if best is None else min(best, gap_lo)
    # values are scaled by root^n; divide by an upper bound of the scale
    return best / scale_hi


def _power_coords(minpoly, n):
    from oracles import zint_mul_by_root

    d = len(minpoly) - 1
    coords = [0] * d
    coords[0] = 1
    for _ in range(n):
        coords = zint_mul_by_root(coords, minpoly)
    return coords


class TestSeparation:
    def test_golden_length_three(self, golden):
        bound = bf.separation_bound(golden.bounds, 3)
        assert bound <= min_gap_lower_bound(GOLDEN_POLY, ("3/2", "5/3"), 3)
        assert float(bound) < 0.0898  # 0.38 / bplus^3

    def test_sqrt2_length_two(self, sqrt2):
        bound = bf.separation_bound(sqrt2.bounds, 2)
        assert bound == Fraction(1, 10)
        assert bound <= min_gap_lower_bound(SQRT2_POLY, ("7/5", "3/2"), 2)

    def test_golden_length_one(self, golden):
        bound = bf.separation_bound(golden.bounds, 1)
        assert bound == Fraction(38, 100) / golden.bounds.bplus_upper
        # the only nonzero length-1 gap is 1/G ~ 0.618
        assert float(bound) < 0.618

    def test_sound_for_small_lengths(self, golden, sqrt2):
        for preset, poly, iso in [(golden, GOLDEN_POLY, ("3/2", "5/3")), (sqrt2, SQRT2_POLY, ("7/5", "3/2"))]:
            for n in range(1, 9):
                bound = bf.separation_bound(preset.bounds, n)
                assert bound <= min_gap_lower_bound(poly, iso, n)

    def test_rejects_zero_length(self, golden):
        with pytest.raises(bf.DomainError):
            bf.separation_bound(golden.bounds, 0)


class TestEquiv:
    def test_golden_collision(self, golden):
        assert bf.equiv(golden.beta, "011", "100")

    def test_golden_non_collision(self, golden):
        assert not bf.equiv(golden.beta, "01", "10")

    def test_sqrt2_no_collisions(self, sqrt2, rng):
        for _ in range(60):
            n = rng.randrange(1, 11)
            x = format(rng.getrandbits(n), f"0{n}b")
            y = format(rng.getrandbits(n), f"0{n}b")
            assert bf.equiv(sqrt2.beta, x, y) == (x == y)

    def test_length_mismatch(self, golden):
        with pytest.raises(bf.DomainError):
            bf.equiv(golden.beta, "01", "011")
        with pytest.raises(bf.DomainError, match="^all words in a partition must share one length$"):
            bf.partition_words(golden.beta, ["01", "011"])

    def test_rational_base(self):
        spec = bf.RationalBeta(Fraction(3, 2))
        assert bf.equiv(spec, "10", "10")
        assert not bf.equiv(spec, "10", "01")


class TestEquivClass:
    def test_golden_examples(self, golden):
        assert bf.equiv_class(golden.beta, "100") == ["011", "100"]
        assert bf.equiv_class(golden.beta, "0000") == ["0000"]
        assert bf.equiv_class(golden.beta, "1100") == ["1011", "1100"]

    def test_matches_bruteforce_grouping(self, golden, sqrt2, tribonacci, rng):
        for preset, poly in [(golden, GOLDEN_POLY), (sqrt2, SQRT2_POLY), (tribonacci, [-1, -1, -1, 1])]:
            for n in (5, 8):
                groups = group_by_value(poly, n)
                for members in groups.values():
                    got = bf.equiv_class(preset.beta, members[0])
                    assert got == sorted(members)
        # length 12: exhaustive grouping, sampled class checks
        groups = group_by_value(GOLDEN_POLY, 12)
        sampled = rng.sample(sorted(groups), 150)
        for key in sampled:
            members = groups[key]
            assert bf.equiv_class(golden.beta, members[0]) == sorted(members)

    def test_members_share_exact_value(self, golden, rng):
        for _ in range(25):
            n = rng.randrange(2, 11)
            x = format(rng.getrandbits(n), f"0{n}b")
            cls = bf.equiv_class(golden.beta, x)
            assert x in cls
            base = bf.delta_finite(golden.beta, x)
            for y in cls:
                assert (bf.delta_finite(golden.beta, y) - base).sign() == 0

    def test_class_c_singletons(self, sqrt2, cbrt2):
        for preset in (sqrt2, cbrt2):
            assert bf.is_generalized_garsia(preset.beta.ctx)
            for n in range(1, 13):
                groups = group_by_value(list(preset.beta.ctx.minpoly), n)
                assert all(len(ws) == 1 for ws in groups.values())

    def test_node_cap(self, monkeypatch):
        # an n-digit search visits at most 2^(n+1) - 1 prefixes, so a cap of
        # that size is never reached, and 20-digit words stay under the real cap
        assert bf.algebraic.EQUIV_NODE_CAP >= (1 << 21) - 1
        near_one = bf.RationalBeta(Fraction(101, 100))
        words = ["1111100000", "0000011111", "1010101010", "0110100110"]
        monkeypatch.setattr(bf.algebraic, "EQUIV_NODE_CAP", (1 << 11) - 1)
        for x in words:
            assert bf.equiv_class(near_one, x) == [x]
        monkeypatch.setattr(bf.algebraic, "EQUIV_NODE_CAP", 100)
        for x in words:
            with pytest.raises(bf.SizeGuardError, match="more than 100 prefixes"):
                bf.equiv_class(near_one, x)

    @pytest.mark.parametrize(
        "name", ["golden", "tribonacci", "sqrt2", "cbrt2", "nonmonic", "3/2", "7/4", "101/100"]
    )
    def test_matches_the_batched_search(self, name):
        # the depth-first walk lists the class of the batched search, in
        # order, and the bruteforce canonical form is its last member
        beta = base(name)[0]
        rng = random.Random(name)
        for _ in range(12):
            n = rng.randrange(0, 19 if name == "101/100" else 21)
            x = "".join(rng.choice("01") for _ in range(n))
            expect = equiv_class_batched(beta, x)
            assert bf.equiv_class(beta, x) == expect
            assert bf.m_beta_bruteforce(beta, x) == expect[-1]

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "sqrt2", "3/2"])
    def test_empty_word(self, name):
        # the walk over zero digits visits one prefix, the empty word, and lists it
        beta = base(name)[0]
        assert bf.equiv_class(beta, "") == [""]
        assert bf.m_beta_bruteforce(beta, "") == ""


class TestSharedWalk:
    # the first four have no equal-value words of equal length; golden and
    # tribonacci have many
    @pytest.mark.parametrize("name", ["nonmonic", "3/2", "7/4", "2", "golden", "tribonacci"])
    def test_matches_independent_grouping(self, name):
        beta, value = _base_and_value(name)
        for n in range(1, 9):
            groups = {}
            for k in range(1 << n):
                w = format(k, f"0{n}b")
                v = value(w)
                groups.setdefault(getattr(v, "coeffs", v), (v, []))[1].append(w)
            classes = sorted(groups.values(), key=cmp_to_key(lambda a, b: bf.exact_cmp(a[0], b[0])))
            for j, (_, members) in enumerate(classes):
                # neighbouring values are the closest distinct pairs; short
                # words are compared against every other class
                others = classes if n <= 5 else classes[max(j - 1, 0) : j + 2]
                for x in members:
                    assert bf.equiv_class(beta, x) == members
                    for _, ys in others:
                        assert bf.equiv(beta, x, ys[0]) == (ys is members)

    def test_zero_constant_term_is_malformed(self):
        # refused when the base is built, before any walk
        with pytest.raises(bf.MalformedContextError, match="root 0"):
            bf.beta_from_json(ZERO_CONSTANT)


class TestGarsiaPredicate:
    def test_sqrt2(self):
        assert bf.is_generalized_garsia(bf.NumberFieldContext((-2, 0, 1), ("7/5", "3/2")))

    def test_golden(self):
        assert not bf.is_generalized_garsia(bf.NumberFieldContext((-1, -1, 1), ("3/2", "5/3")))

    def test_cbrt2(self):
        assert bf.is_generalized_garsia(bf.NumberFieldContext((-2, 0, 0, 1), ("5/4", "13/10")))

    def test_non_monic(self):
        assert not bf.is_generalized_garsia(bf.NumberFieldContext((-3, 0, 2), ("6/5", "5/4")))


class TestPartition:
    def test_values_strictly_increase(self, golden, rng):
        words = [format(k, "06b") for k in range(64)]
        part = bf.partition_words(golden.beta, words)
        for a, b in zip(part.classes, part.classes[1:]):
            assert bf.exact_cmp(a.value, b.value) < 0
        assert sum(len(c.members) for c in part.classes) == 64

    def test_index_of(self, golden):
        words = [format(k, "04b") for k in range(16)]
        part = bf.partition_words(golden.beta, words)
        k = part.index_of("1100")
        assert "1011" in part.classes[k - 1].members

    def test_presets_available(self):
        names = sorted(bf.builtin_presets())
        assert names == ["cbrt2", "golden", "sqrt2", "tribonacci"]
        with pytest.raises(bf.DomainError):
            bf.get_preset("nope")

    def test_preset_bounds_certified(self, golden, sqrt2, cbrt2, tribonacci):
        # pi_lower must underestimate prod |1 - |z|| (monic presets), checked
        # against independently bracketed conjugate moduli
        checks = {
            "golden": (Fraction(38, 100), Fraction(381, 1000), Fraction(382, 1000)),
            "sqrt2": (Fraction(2, 5), Fraction(414, 1000), Fraction(415, 1000)),
        }
        for preset in (golden, sqrt2):
            pi_lo, true_lo, true_hi = checks[preset.name]
            assert pi_lo <= true_lo
        # bplus_upper at least beta for the Pisot presets (their outside
        # product is empty), and exactly 2 for the square/cube roots of 2
        assert golden.bounds.bplus_upper >= Fraction(1618, 1000)
        assert sqrt2.bounds.bplus_upper == 2
        assert cbrt2.bounds.bplus_upper == 2
        assert tribonacci.bounds.bplus_upper >= Fraction(1839, 1000)
