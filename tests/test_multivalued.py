import random
import time
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import betaforge as bf
from betaforge.algebraic import _window_walk
from conftest import random_rational
from oracles import (
    delta_oracle,
    dfs_window_exact,
    enumerate_oracle_field,
    enumerate_oracle_rational,
    greedy_oracle,
    nu_counts_oracle,
)
from test_integer_coords import base

B32 = bf.RationalBeta(Fraction(3, 2))
B2 = bf.RationalBeta(Fraction(2))
GOLDEN_POLY = [-1, -1, 1]
# minimal polynomial and isolating interval of each field base the oracles brute-force
FIELD_BASES = {"golden": (GOLDEN_POLY, ("3/2", "5/3")), "tribonacci": ([-1, -1, -1, 1], ("9/5", "15/8"))}


def degenerate(v):
    return bf.Interval(v, v)


class TestBaseLength:
    def test_three_halves(self):
        # ceil(2 * log_{3/2} 2) = 4
        assert bf.base_length(Fraction(3, 2), 2) == 4

    def test_exact_tie(self):
        # beta = 2: exactly n digits carry n bits
        assert bf.base_length(Fraction(2), 7) == 7

    def test_field(self, golden):
        g = golden.beta.element()
        # G^m >= 2^4 first at m = 6 (G^5 ~ 11.09, G^6 ~ 17.94)
        assert bf.base_length(g, 4) == 6

    def test_exact_power_ties_in_the_field(self, sqrt2):
        b = sqrt2.beta.element()
        # sqrt2^2 = 2 and sqrt2^6 = 8 exactly: the power itself is the answer
        assert bf.base_length(b, 1) == 2
        assert bf.base_length(b, 3) == 6
        assert bf.base_length(b, 0) == 0

    def test_base_at_or_below_one_is_a_domain_error(self, golden):
        # powers of such a base never reach 2^n; the least-power core refuses
        # the base itself, for every n, instead of looping
        g_inv = golden.beta.element().inverse()
        for b, n in ((Fraction(1), 3), (Fraction(1, 2), 3), (Fraction(1), 0), (g_inv, 2)):
            t0 = time.perf_counter()
            with pytest.raises(bf.DomainError, match="least power needs a base above 1"):
                bf.base_length(b, n)
            assert time.perf_counter() - t0 < 1
        with pytest.raises(bf.DomainError, match="^n must be nonnegative$"):
            bf.base_length(Fraction(3, 2), -1)

    def test_past_the_orbit_cap_or_the_budget(self, golden):
        # 2^16 needs golden^m for m = 24; 2^11400 needs more than ORBIT_CAP
        # powers, and a power of a 2,000-bit base passes the bit budget first
        assert bf.base_length(golden.beta.element(), 16) == 24
        with pytest.raises(bf.SizeGuardError, match="^least power exceeds the orbit cap ORBIT_CAP = 16384$"):
            bf.base_length(golden.beta.element(), 11400)
        with pytest.raises(bf.SizeGuardError, match="orbit cap"):
            bf.base_length(Fraction(100001, 100000), 1)
        with pytest.raises(bf.BudgetExceededError, match=r"^a\^502 would exceed the 1000000-bit budget$"):
            bf.base_length(Fraction(10**300 + 1, 10**300), 1)


class TestFBetaTo2:
    def test_pinned_degenerate_example(self):
        cs = bf.f_beta_to_2(degenerate(Fraction(3, 2)), "1000", 2)
        assert cs.words == ("01", "10", "11")
        assert greedy_oracle(Fraction(2), Fraction(3, 4), 2) in cs.words

    def test_zero_word(self):
        n = 3
        m = bf.base_length(Fraction(3, 2), n)
        cs = bf.f_beta_to_2(degenerate(Fraction(3, 2)), "0" * m, n)
        assert "0" * n in cs.words

    def test_wrong_length_typed(self):
        with pytest.raises(bf.WrongLengthError) as ei:
            bf.f_beta_to_2(degenerate(Fraction(3, 2)), "10", 2)
        assert ei.value.required == 4

    def test_precision_and_window_checked(self):
        with pytest.raises(bf.DomainError, match="^n must be >= 1$"):
            bf.f_beta_to_2(degenerate(Fraction(3, 2)), "10", 0)
        for window in (degenerate(Fraction(1)), bf.Interval(Fraction(3, 2), Fraction(2))):
            with pytest.raises(bf.DomainError, match=r"^base window must lie inside \(1, 2\)$"):
                bf.f_beta_to_2(window, "10", 2)

    def test_empty_words_rejected(self, golden):
        with pytest.raises(bf.DomainError, match="^binary prefix must be nonempty$"):
            bf.f_2_to_beta(golden.beta, "")
        with pytest.raises(bf.DomainError, match="^word must be nonempty$"):
            bf.g_beta_window(golden.beta, "")

    def test_cardinality_bound_degenerate(self, rng):
        # 1/(beta-1) + 3 = 5 at beta = 3/2
        for _ in range(40):
            n = rng.randrange(2, 9)
            m = bf.base_length(Fraction(3, 2), n)
            s = random_rational(rng, Fraction(0), Fraction(2))
            x = greedy_oracle(Fraction(3, 2), s, m)
            cs = bf.f_beta_to_2(degenerate(Fraction(3, 2)), x, n)
            assert len(cs) <= 5

    def test_contains_true_binary_prefix(self, rng):
        for _ in range(25):
            beta = Fraction(rng.randrange(110, 190), 100)
            n = rng.randrange(2, 8)
            m = bf.base_length(beta, n)
            s = random_rational(rng, Fraction(0), Fraction(1))
            x = greedy_oracle(beta, s, m)
            cs = bf.f_beta_to_2(degenerate(beta), x, n)
            assert greedy_oracle(Fraction(2), s, n) in cs.words

    def test_proper_window_contains_binary_prefix(self, rng):
        for _ in range(15):
            b1 = Fraction(rng.randrange(110, 180), 100)
            n = rng.randrange(2, 7)
            m = bf.base_length(b1, n)
            b2 = b1 + Fraction(1, rng.randrange(2, 5)) / b1 ** m
            beta = Fraction(rng.randrange(0, 101), 100) * (b2 - b1) + b1
            s = random_rational(rng, Fraction(0), Fraction(1))
            x = greedy_oracle(beta, s, m)
            cs = bf.f_beta_to_2(bf.Interval(b1, b2), x, n)
            assert greedy_oracle(Fraction(2), s, n) in cs.words

    def test_field_window_endpoints(self, golden, rng):
        # the upper endpoint is a field element other than beta itself
        b1 = golden.beta.element()
        window = bf.Interval(b1, b1 + Fraction(1, 100))
        for _ in range(12):
            n = rng.randrange(2, 7)
            m = bf.base_length(b1, n)
            beta = b1 + Fraction(rng.randrange(0, 11), 1000)
            s = random_rational(rng, Fraction(0), Fraction(1))
            cs = bf.f_beta_to_2(window, greedy_oracle(beta, s, m), n)
            assert greedy_oracle(Fraction(2), s, n) in cs.words

    def test_window_count_bound(self, rng):
        # 2/(b1-1) + m(m+1)(b2-b1) b1^m + 2, for windows no wider than b1^-m
        for _ in range(20):
            b1 = Fraction(rng.randrange(105, 190), 100)
            n = rng.randrange(2, 8)
            m = bf.base_length(b1, n)
            b2 = b1 + Fraction(rng.randrange(1, 100), 100) / b1 ** m
            x = format(rng.getrandbits(m), f"0{m}b")
            cs = bf.f_beta_to_2(bf.Interval(b1, b2), x, n)
            bound = 2 / (b1 - 1) + m * (m + 1) * (b2 - b1) * b1 ** m + 2
            assert len(cs) <= bound


class TestF2ToBeta:
    def test_contains_enumeration(self):
        cs = bf.f_2_to_beta(B32, "11")
        for w in bf.enumerate_expansions(B32, Fraction(3, 4), cs.length):
            assert w in cs.words

    def test_zero_word(self, golden):
        cs = bf.f_2_to_beta(golden.beta, "000")
        assert "0" * cs.length in cs.words

    def test_membership(self, golden):
        cs = bf.f_2_to_beta(golden.beta, "1010")
        assert cs.length == 6 and len(cs) == 12
        assert all(w in cs for w in cs.words)
        assert "000000" not in cs and "111111" not in cs and "0101" not in cs

    def test_golden_matches_bruteforce_scan(self, golden):
        cs = bf.f_2_to_beta(golden.beta, "1")
        # independent scan: all words w of the carried length with
        # value(w) inside [1/2 - 2/2, 1/2 + 2/2] widened form
        m = cs.length
        pad = Fraction(1, 2)
        lo, hi = Fraction(1, 2) - 2 * pad, Fraction(1, 2) + 2 * pad
        from oracles import root_bracket, zint_interval, zint_scaled_value, zint_mul_by_root

        blo, bhi = root_bracket(GOLDEN_POLY, Fraction(3, 2), Fraction(5, 3), 80)
        scale_coords = [0, 0]
        scale_coords[0] = 1
        for _ in range(m):
            scale_coords = zint_mul_by_root(scale_coords, GOLDEN_POLY)
        expected = []
        for k in range(1 << m):
            w = format(k, f"0{m}b")
            v = zint_scaled_value(GOLDEN_POLY, w)
            num = zint_interval(list(v), blo, bhi)
            den = zint_interval(scale_coords, blo, bhi)
            vlo, vhi = num[0] / den[1], num[1] / den[0]
            if vhi < lo or vlo > hi:
                continue
            if lo <= vlo and vhi <= hi:
                expected.append(w)
            else:
                raise AssertionError("bracket too coarse for the scan")
        assert list(cs.words) == sorted(expected)

    def test_superset_of_prefix_sets(self, rng, golden):
        for spec in (B32, golden.beta):
            for _ in range(10):
                s = random_rational(rng)
                n = rng.randrange(2, 6)
                x = greedy_oracle(Fraction(2), s, n)
                cs = bf.f_2_to_beta(spec, x)
                for w in bf.enumerate_expansions(spec, s, cs.length):
                    assert w in cs.words


class TestGBetaWindow:
    def test_pinned_golden_partition(self, golden):
        part = bf.g_beta_window(golden.beta, "1100")
        classes = [(round(bf.exact_float(c.value), 3), c.members) for c in part.classes]
        assert classes == [
            (0.764, ("0111", "1001")),
            (0.854, ("1010",)),
            (1.0, ("1011", "1100")),
            (1.146, ("1101",)),
            (1.236, ("1110",)),
        ]

    def test_zero_word_lowest_class(self, golden):
        part = bf.g_beta_window(golden.beta, "0000")
        assert part.classes[0].members == ("0000",)

    def test_class_values_are_member_values(self, golden, tribonacci, rng):
        for spec in (golden.beta, tribonacci.beta, B32, bf.RationalBeta(Fraction(7, 4))):
            for _ in range(6):
                n = rng.randrange(1, 8)
                x = format(rng.getrandbits(n), f"0{n}b")
                for cls in bf.g_beta_window(spec, x).classes:
                    assert all(bf.delta_finite(spec, w) == cls.value for w in cls.members)

    def test_contains_own_class(self, golden, rng):
        for _ in range(15):
            n = rng.randrange(2, 9)
            x = format(rng.getrandbits(n), f"0{n}b")
            part = bf.g_beta_window(golden.beta, x)
            iota = part.index_of(x)
            assert x in part.classes[iota - 1].members

    def test_index_of_an_absent_word(self, golden):
        part = bf.g_beta_window(golden.beta, "1010")
        assert part.index_of("1010") == 3
        for word in ("0000", "1111", "101"):
            with pytest.raises(bf.DomainError, match="is not in any class of this partition$"):
                part.index_of(word)


class TestF1ToAll:
    def test_contains_singleton_range(self, golden):
        candidates = bf.f_1_to_all(golden.beta, "1100")
        assert ("1011", "1100") in candidates

    def test_candidate_count(self, golden, rng):
        for _ in range(10):
            n = rng.randrange(2, 8)
            x = format(rng.getrandbits(n), f"0{n}b")
            part = bf.g_beta_window(golden.beta, x)
            iota = part.index_of(x)
            m = len(part.classes)
            assert len(bf.f_1_to_all(golden.beta, x)) == iota * (m - iota + 1)

    def test_zero_word_starts_at_first_class(self, golden):
        part = bf.g_beta_window(golden.beta, "000")
        assert part.index_of("000") == 1
        candidates = bf.f_1_to_all(golden.beta, "000")
        assert len(candidates) == len(part.classes)

    def test_true_prefix_set_appears(self, golden, rng):
        for spec in (B32, golden.beta):
            for _ in range(8):
                s = random_rational(rng)
                n = rng.randrange(2, 7)
                words = bf.enumerate_expansions(spec, s, n)
                for x in words:
                    assert tuple(words) in bf.f_1_to_all(spec, x)


class TestEnumerate:
    def test_pinned_golden(self, golden):
        assert bf.enumerate_expansions(golden.beta, Fraction(1), 4) == ["0111", "1001", "1010", "1011", "1100"]

    def test_zero(self):
        assert bf.enumerate_expansions(B32, Fraction(0), 5) == ["00000"]

    def test_dyadic_pair(self):
        assert bf.enumerate_expansions(B2, Fraction(3, 4), 3) == ["101", "110"]

    def test_against_bruteforce_rational(self, rng):
        for _ in range(20):
            beta = Fraction(rng.randrange(105, 199), 100)
            s = random_rational(rng, Fraction(0), 1 / (beta - 1))
            n = rng.randrange(1, 9)
            assert bf.enumerate_expansions(bf.RationalBeta(beta), s, n) == enumerate_oracle_rational(beta, s, n)

    def test_against_bruteforce_field(self, golden, rng):
        for _ in range(6):
            s = random_rational(rng)
            n = rng.randrange(1, 8)
            got = bf.enumerate_expansions(golden.beta, s, n)
            assert got == enumerate_oracle_field(GOLDEN_POLY, ("3/2", "5/3"), s, n)

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "sqrt2", "3/2"])
    def test_prefix_closed(self, name, rng):
        """Every expansion prefix extends by a digit, so the n-prefixes of
        the (n+1)-digit expansion prefixes of s are those of n digits; s runs
        over the domain, its ends and exact word values included."""
        spec = base(name)[0]
        top = bf.expansion_domain_max(spec)
        values = [Fraction(0), top, bf.delta_finite(spec, "1011"), bf.delta_finite(spec, "0110")]
        values += [top * random_rational(rng) for _ in range(11)]
        for s in values:
            n = rng.randrange(0, 9)
            longer = bf.enumerate_expansions(spec, s, n + 1)
            assert sorted({w[:n] for w in longer}) == bf.enumerate_expansions(spec, s, n)

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "3/2", "7/4", "2"])
    def test_against_bruteforce_with_domain_ends(self, name, rng):
        # s = 0 and s = 1/(beta-1) are the ends of the domain, where a prefix
        # value meets the window's edge exactly; n = 0 gives the empty word
        if name in FIELD_BASES:
            spec = bf.get_preset(name).beta
            poly, iso = FIELD_BASES[name]

            def oracle(s, n):
                return enumerate_oracle_field(poly, iso, getattr(s, "coeffs", s), n)

        else:
            beta = Fraction(name)
            spec = bf.RationalBeta(beta)

            def oracle(s, n):
                return enumerate_oracle_rational(beta, s, n)

        values = [Fraction(0), bf.expansion_domain_max(spec)] + [random_rational(rng) for _ in range(3)]
        for s in values:
            for n in range(7):
                assert bf.enumerate_expansions(spec, s, n) == oracle(s, n)
        assert bf.enumerate_expansions(spec, values[-1], 0) == [""]

    def test_extremes_are_greedy_and_lazy(self, golden, rng):
        for spec in (B32, golden.beta):
            for _ in range(10):
                s = random_rational(rng)
                n = rng.randrange(1, 10)
                words = bf.enumerate_expansions(spec, s, n)
                assert words[-1] == bf.greedy_expand(spec, s, n)
                assert words[0] == bf.lazy_expand(spec, s, n)

    def test_outside_domain(self):
        with pytest.raises(bf.DomainError):
            bf.enumerate_expansions(B32, Fraction(5, 2), 3)
        # the length is checked before the value
        with pytest.raises(bf.DomainError, match="n must be nonnegative"):
            bf.enumerate_expansions(B32, Fraction(5, 2), -1)

    def test_consecutive_classes(self, golden, rng):
        # the classes met by a prefix set form a contiguous range
        for spec in (bf.RationalBeta(Fraction(3, 2)), golden.beta):
            for _ in range(20):
                s = random_rational(rng)
                n = rng.randrange(2, 9)
                words = bf.enumerate_expansions(spec, s, n)
                x = words[len(words) // 2]
                part = bf.g_beta_window(spec, x)
                hit = [k for k, c in enumerate(part.classes) if any(w in words for w in c.members)]
                assert hit == list(range(hit[0], hit[-1] + 1))
                # and members of a hit class are wholly inside the set
                for k in hit:
                    assert all(w in words for w in part.classes[k].members)


def _by_exact_value(words, values):
    """(value, members) classes of the words, keyed by their exact values
    and sorted by certified comparison."""
    groups = {}
    for w, v in zip(words, values):
        groups.setdefault(v, []).append(w)
    ordered = sorted(groups.items(), key=cmp_to_key(lambda a, b: bf.exact_cmp(a[0], b[0])))
    return [(repr(v), tuple(sorted(ws))) for v, ws in ordered]


@pytest.mark.parametrize("name", ["golden", "tribonacci", "sqrt2", "cbrt2", "nonmonic", "3/2", "7/4"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_window_walk_matches_the_exact_walk(name, data):
    """The integer window walk lists the words of the exact-value walk, and
    grouping its leaves, or partitioning its words, gives the classes and
    class values of their exact values; windows reach both ends of the
    domain, and endpoints may equal a word's value exactly."""
    spec = base(name)[0]
    n = data.draw(st.integers(0, 9), label="n")
    reach = bf.delta_finite(spec, "1" * n)  # the largest value of n digits
    tail = bf.tail_bound(spec, n)
    ends = {
        "zero": Fraction(0),
        "tail": tail,
        "reach": reach,
        "below-reach": reach - tail,
        "top": bf.expansion_domain_max(spec),
    }

    def endpoint():
        kind = data.draw(st.sampled_from(sorted(ends) + ["word", "rational"]))
        if kind == "word":
            return bf.delta_finite(spec, data.draw(st.text("01", min_size=n, max_size=n)))
        if kind == "rational":
            return Fraction(data.draw(st.integers(-100, 4000)), 1000)
        return ends[kind]

    lo, hi = sorted((endpoint(), endpoint()), key=cmp_to_key(bf.exact_cmp))
    # every caller's window meets [0, reach], and so must these
    assume(bf.exact_sign(hi) >= 0 and bf.exact_cmp(lo, reach) <= 0)
    words, values = dfs_window_exact(spec, n, lo, hi)
    leaves, classes = _window_walk(spec, n, lo, hi, "window")
    leaves = list(leaves)
    assert [word for word, _ in leaves] == words
    expect = _by_exact_value(words, values)
    for got in (classes(leaves), bf.partition_words(spec, words).classes):
        assert [(repr(c.value), c.members) for c in got] == expect


class TestSetGuard:
    def test_guard_messages(self, golden, monkeypatch):
        # the guard counts listed digits, so every listing of 200,000 words
        # of up to 41 digits fits it
        assert bf.algebraic.SET_GUARD >= 200_000 * 41
        monkeypatch.setattr(bf.algebraic, "SET_GUARD", 6)
        with pytest.raises(bf.SizeGuardError, match="^expansion enumeration exceeded guard 6 digits$"):
            bf.enumerate_expansions(golden.beta, Fraction(1), 4)
        for call in (bf.g_beta_window, bf.f_1_to_all):
            with pytest.raises(bf.SizeGuardError, match="^window enumeration exceeded guard 6 digits$"):
                call(golden.beta, "1100")
        with pytest.raises(bf.SizeGuardError, match="^window enumeration exceeded guard 6 digits$"):
            bf.f_2_to_beta(golden.beta, "1010")
        with pytest.raises(bf.SizeGuardError, match="^equivalence class enumeration exceeded guard 6 digits$"):
            bf.equiv_class(golden.beta, "1000")
        with pytest.raises(bf.SizeGuardError, match="^candidate set of 4 words of 2 digits exceeds guard 6 digits$"):
            bf.f_beta_to_2(degenerate(Fraction(11, 10)), "0" * 15, 2)
        # at the guard itself nothing is raised: three words of two digits
        assert bf.enumerate_expansions(golden.beta, Fraction(1), 2) == ["01", "10", "11"]
        assert len(bf.g_beta_window(golden.beta, "11").classes) == 3
        assert bf.equiv_class(golden.beta, "100") == ["011", "100"]
        assert bf.f_beta_to_2(degenerate(Fraction(3, 2)), "1000", 2).words == ("01", "10", "11")


def test_window_walks_share_the_node_cap(golden, monkeypatch):
    # every window walk counts its visited prefixes against the cap of the
    # class search, and the error names the kind of walk
    monkeypatch.setattr(bf.algebraic, "EQUIV_NODE_CAP", 10)
    calls = [
        ("expansion", bf.enumerate_expansions, Fraction(1), 6),
        ("window", bf.g_beta_window, "110010"),
        ("window", bf.f_2_to_beta, "1010"),
        ("measure", bf.nu_measure, 12, bf.Interval(Fraction(1, 2), Fraction(1))),
    ]
    for kind, call, *args in calls:
        with pytest.raises(bf.SizeGuardError, match=f"^{kind} search visited more than 10 prefixes$"):
            call(golden.beta, *args)
    monkeypatch.setattr(bf.algebraic, "EQUIV_NODE_CAP", 1 << 21)
    for _, call, *args in calls:
        call(golden.beta, *args)


class TestNuMeasure:
    def test_total_mass(self, golden):
        top = bf.expansion_domain_max(golden.beta)
        assert bf.nu_measure(golden.beta, 12, bf.Interval(Fraction(0), top)) == 1
        assert bf.nu_measure(B32, 12, bf.Interval(Fraction(0), Fraction(2))) == 1

    def test_pinned_point_mass(self, golden):
        assert bf.nu_measure(golden.beta, 2, bf.Interval(Fraction(1), Fraction(1))) == Fraction(1, 4)

    def test_pinned_window_mass(self, golden):
        assert bf.nu_measure(golden.beta, 3, bf.Interval(Fraction(9, 10), Fraction(11, 10))) == Fraction(1, 8)

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "sqrt2", "3/2"])
    def test_additive_on_split(self, name, rng):
        spec = base(name)[0]
        for _ in range(6):
            m = rng.randrange(3, 10)
            a = random_rational(rng, Fraction(0), Fraction(1))
            b = a + random_rational(rng, Fraction(0), Fraction(1))
            mid = a + (b - a) / 2
            total = bf.nu_measure(spec, m, bf.Interval(a, b))
            left = bf.nu_measure(spec, m, bf.Interval(a, mid))
            right = bf.nu_measure(spec, m, bf.Interval(mid, b))
            # the midpoint may carry mass, counted by both halves
            point = bf.nu_measure(spec, m, bf.Interval(mid, mid))
            assert left + right - point == total

    def test_monotone_under_inclusion(self, golden, rng):
        for _ in range(6):
            m = rng.randrange(3, 10)
            a = random_rational(rng, Fraction(0), Fraction(1))
            w = random_rational(rng, Fraction(0), Fraction(1))
            inner = bf.Interval(a + w / 4, a + 3 * w / 4)
            outer = bf.Interval(a, a + w)
            assert bf.nu_measure(golden.beta, m, inner) <= bf.nu_measure(golden.beta, m, outer)

    def test_budget(self, golden):
        with pytest.raises(bf.BudgetExceededError):
            bf.nu_measure(golden.beta, 31, bf.Interval(Fraction(0), Fraction(1)))
        with pytest.raises(bf.DomainError, match="^m must be nonnegative$"):
            bf.nu_measure(golden.beta, -1, bf.Interval(Fraction(0), Fraction(1)))

    def test_node_cap_counts_visited_prefixes(self, golden, monkeypatch):
        # m = 12 on [1/2, 1] visits 183 prefixes of golden: one over the cap
        # is a SizeGuardError, at the cap the mass is unchanged
        interval = bf.Interval(Fraction(1, 2), Fraction(1))
        monkeypatch.setattr(bf.algebraic, "EQUIV_NODE_CAP", 182)
        with pytest.raises(bf.SizeGuardError, match="^measure search visited more than 182 prefixes$"):
            bf.nu_measure(golden.beta, 12, interval)
        monkeypatch.setattr(bf.algebraic, "EQUIV_NODE_CAP", 183)
        assert bf.nu_measure(golden.beta, 12, interval) == Fraction(1705, 4096)

    def test_matches_direct_count(self, rng):
        beta = Fraction(3, 2)
        m = 8
        a = Fraction(1, 3)
        b = Fraction(4, 3)
        direct = sum(1 for k in range(1 << m) if a <= delta_oracle(beta, format(k, f"0{m}b")) <= b)
        assert bf.nu_measure(B32, m, bf.Interval(a, b)) == Fraction(direct, 1 << m)

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "sqrt2"])
    def test_matches_bruteforce_count_over_all_words(self, name):
        # every word of m <= 12 digits compared with both endpoints by
        # certified signs on integer coordinates; endpoints include the ends
        # of the domain and exact word values
        spec = bf.get_preset(name).beta
        poly, iso = spec.ctx.minpoly, spec.ctx.isolating
        top = bf.expansion_domain_max(spec)
        rng = random.Random(name)
        for m in range(13):
            v = bf.delta_finite(spec, format(rng.getrandbits(m), f"0{m}b") if m else "")
            cuts = sorted((random_rational(rng, Fraction(0), Fraction(2)), v), key=cmp_to_key(bf.exact_cmp))
            intervals = [(Fraction(0), top), (v, v), tuple(cuts)]
            coords = [tuple(getattr(e, "coeffs", e) for e in ends) for ends in intervals]
            for (lo, hi), count in zip(intervals, nu_counts_oracle(poly, iso, m, coords)):
                assert bf.nu_measure(spec, m, bf.Interval(lo, hi)) == Fraction(count, 1 << m)
