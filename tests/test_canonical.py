from fractions import Fraction

import pytest

import betaforge as bf
from oracles import canonical_oracle
from test_integer_coords import base

GOLDEN_POLY = [-1, -1, 1]
SQRT2_POLY = [-2, 0, 1]


class TestBruteforce:
    def test_golden_small(self, golden):
        assert bf.m_beta_bruteforce(golden.beta, "011") == "100"

    def test_sqrt2_identity(self, sqrt2, rng):
        for _ in range(40):
            n = rng.randrange(1, 11)
            x = format(rng.getrandbits(n), f"0{n}b")
            assert bf.m_beta_bruteforce(sqrt2.beta, x) == x

    def test_zeros(self, golden):
        assert bf.m_beta_bruteforce(golden.beta, "0" * 8) == "0" * 8

    def test_guard(self, golden):
        # the class walk is the one guard: 21 zeros are one class of one word,
        # while the class of golden "011" * 18 outgrows the walk's digit guard
        assert bf.m_beta_bruteforce(golden.beta, "0" * 21) == "0" * 21
        with pytest.raises(bf.SizeGuardError, match="^equivalence class enumeration exceeded guard 8388608 digits$"):
            bf.m_beta_bruteforce(golden.beta, "011" * 18)


class TestFast:
    def test_golden_example(self, golden):
        word, stats = bf.m_beta_fast(golden.beta, "1011", golden.bounds)
        assert word == "1100"
        assert max(stats.per_level_class_counts) <= 4
        assert stats.pisot_width_bound is not None

    def test_sqrt2_identity(self, sqrt2):
        # singleton classes force the identity output; transient non-target
        # prefixes may stay feasible mid-sweep, but the last level is exact
        word, stats = bf.m_beta_fast(sqrt2.beta, "110101")
        assert word == "110101"
        assert stats.per_level_class_counts[-1] == 1
        assert all(c >= 1 for c in stats.per_level_class_counts)

    def test_value_one_family(self, golden):
        # all length-6 words of value 1 canonicalize to the same maximum
        expect = bf.m_beta_bruteforce(golden.beta, "101011")
        assert expect == "110000"
        assert bf.m_beta_fast(golden.beta, "101011", golden.bounds)[0] == expect

    def test_oracle_equality_exhaustive_small(self, golden, sqrt2, tribonacci, cbrt2):
        cases = [
            (golden, GOLDEN_POLY, 10),
            (sqrt2, SQRT2_POLY, 9),
            (tribonacci, [-1, -1, -1, 1], 9),
            (cbrt2, [-2, 0, 0, 1], 8),
        ]
        for preset, poly, n in cases:
            oracle = canonical_oracle(poly, n)
            for w, expect in oracle.items():
                assert bf.m_beta_fast(preset.beta, w, preset.bounds)[0] == expect

    def test_rational_base_identity(self, rng):
        # 3/2 admits no collisions, so canonicalization is the identity
        spec = bf.RationalBeta(Fraction(3, 2))
        for _ in range(20):
            n = rng.randrange(1, 16)
            x = format(rng.getrandbits(n), f"0{n}b")
            assert bf.m_beta_fast(spec, x)[0] == x

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "sqrt2", "3/2"])
    def test_idempotent_value_preserving_dominant(self, name, rng):
        spec, bounds, _ = base(name)
        for _ in range(20):
            n = rng.randrange(1, 14)
            x = format(rng.getrandbits(n), f"0{n}b")
            m1, _ = bf.m_beta_fast(spec, x, bounds)
            assert m1 >= x
            assert bf.equiv(spec, x, m1)
            assert bf.m_beta_fast(spec, m1, bounds)[0] == m1

    def test_pisot_width_long_inputs(self, golden, rng):
        for length in (50, 120, 200):
            x = "".join(rng.choice("01") for _ in range(length))
            _, stats = bf.m_beta_fast(golden.beta, x, golden.bounds)
            assert max(stats.per_level_class_counts) <= 4

    def test_steps_grow_linearly(self, golden, rng):
        ratios = []
        for _ in range(12):
            x = "".join(rng.choice("01") for _ in range(200))
            s100 = bf.m_beta_fast(golden.beta, x[:100], golden.bounds)[1].total_steps
            s200 = bf.m_beta_fast(golden.beta, x, golden.bounds)[1].total_steps
            ratios.append(s200 / s100)
        avg = sum(ratios) / len(ratios)
        assert 1.8 <= avg <= 2.2

    def test_mislabeled_pisot_flag_detected(self, sqrt2):
        # sqrt2 has a conjugate outside the unit disk; forcing the flag makes
        # the declared width bound wrong and the sweep must notice
        wrong = bf.ConjugateBounds(sqrt2.bounds.pi_lower, sqrt2.bounds.bplus_upper, 0, True, "user")
        x = "10" * 10
        with pytest.raises(bf.PisotWidthError):
            bf.m_beta_fast(sqrt2.beta, x, wrong)

    def test_rational_base_with_pisot_bounds(self):
        # a rational base's width bound reads its value, not a bracket:
        # 1 / ((3/2 - 1) * pi_lower)
        spec = bf.RationalBeta(Fraction(3, 2))
        word, stats = bf.m_beta_fast(spec, "1011", bf.ConjugateBounds(Fraction(1, 8), Fraction(1), 0, True))
        assert (word, stats.per_level_class_counts, stats.pisot_width_bound) == ("1011", (1, 2, 2, 1), 16)
        with pytest.raises(bf.PisotWidthError, match="^3 classes alive at level 4, above the declared bound 2$"):
            bf.m_beta_fast(spec, "10110111", bf.ConjugateBounds(Fraction(1), Fraction(1), 0, True))

    def test_empty_word(self, golden):
        assert bf.m_beta_fast(golden.beta, "", golden.bounds) == ("", bf.FastRunStats((), 0, None))

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "sqrt2", "3/2"])
    def test_maximum_of_the_class_on_every_short_word(self, name):
        # every word of 1 to 10 digits lies in its own class, and the sweep
        # returns that class's lexicographic maximum
        spec, bounds, _ = base(name)
        for n in range(1, 11):
            for k in range(1 << n):
                x = format(k, f"0{n}b")
                members = bf.equiv_class(spec, x)
                assert x in members
                assert bf.m_beta_fast(spec, x, bounds)[0] == max(members)


class TestSweepCap:
    # random words on which a non-Pisot base keeps more than 2^16 classes
    # alive at one level; uncapped, each sweep ran past 20 s and gigabytes
    WORDS = {
        "3/2": "001011110010110110010000101001101001101001011011110101101101",
        "sqrt2": "001011110010110110010000101001101001101001011",
    }

    @pytest.mark.parametrize("name", sorted(WORDS))
    def test_non_pisot_sweep_stops_at_cap(self, name):
        spec = bf.get_preset(name).beta if name == "sqrt2" else bf.RationalBeta(Fraction(name))
        with pytest.raises(bf.SizeGuardError, match="sweep cap"):
            bf.m_beta_fast(spec, self.WORDS[name])

    def test_zero_constant_term_rejected(self):
        # x (x^2 + x - 3) has a root in (1, 2) but is reducible
        with pytest.raises(bf.MalformedContextError, match="root 0"):
            bf.beta_from_json({"minpoly": [0, -3, 1, 1], "isolating": ["5/4", "27/20"]})


class TestPrefixwise:
    def test_identity_base_is_consistent(self, sqrt2, rng):
        x = format(rng.getrandbits(12), "012b")
        results, consistent = bf.canonicalize_prefixwise(sqrt2.beta, x, [3, 6, 12])
        assert results == [x[:3], x[:6], x]
        assert consistent

    def test_zero_prefix_forced(self, golden):
        results, _ = bf.canonicalize_prefixwise(golden.beta, "000101", [3])
        assert results[0] == "000"

    def test_golden_inconsistency_reported(self, golden):
        results, consistent = bf.canonicalize_prefixwise(golden.beta, "1011", [2, 4])
        assert results == ["10", "1100"]
        assert consistent is False

    def test_checkpoint_validation(self, golden):
        with pytest.raises(bf.DomainError):
            bf.canonicalize_prefixwise(golden.beta, "1011", [4, 2])
