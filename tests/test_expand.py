import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import betaforge as bf
from conftest import RATIONAL_BASES, outcome, random_rational
from oracles import delta_oracle, greedy_oracle, landing_oracle, lazy_oracle, least_power_loop, orbit_fractions
from test_integer_coords import base, rand_value

B32 = bf.RationalBeta(Fraction(3, 2))
B2 = bf.RationalBeta(Fraction(2))


class TestDelta:
    def test_binary_three_quarters(self):
        assert bf.delta_finite(B2, "11") == Fraction(3, 4)

    def test_golden_one(self, golden):
        # 1 = 1/G + 1/G^2, extended by a zero digit
        assert bf.delta_finite(golden.beta, "110") == 1

    def test_empty(self, golden):
        assert bf.delta_finite(B32, "") == 0
        assert bf.exact_sign(bf.delta_finite(golden.beta, "")) == 0

    def test_rejects_stream(self):
        spec = bf.beta_from_json({"bits": "1000", "lo": "3/2", "hi": "3/2"})
        with pytest.raises(bf.ExactnessRequiredError):
            bf.delta_finite(spec, "101")

    def test_tail_bound(self):
        assert bf.tail_bound(B32, 3) == Fraction(8, 27) * 2

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_concatenation_identity(self, data):
        beta = data.draw(st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(7, 4), Fraction(6, 5)]))
        x = data.draw(st.text(alphabet="01", max_size=12))
        y = data.draw(st.text(alphabet="01", max_size=12))
        spec = bf.RationalBeta(beta)
        lhs = bf.delta_finite(spec, x + y)
        rhs = bf.delta_finite(spec, x) + Fraction(1) / beta ** len(x) * bf.delta_finite(spec, y)
        assert lhs == rhs

    def test_concatenation_identity_thousand_pairs(self, golden, rng):
        g_inv = golden.beta.element().inverse()
        rational_specs = [bf.RationalBeta(Fraction(3, 2)), bf.RationalBeta(Fraction(2)), bf.RationalBeta(Fraction(6, 5))]
        for k in range(1000):
            x = "".join(rng.choice("01") for _ in range(rng.randrange(0, 12)))
            y = "".join(rng.choice("01") for _ in range(rng.randrange(0, 12)))
            if k % 4 == 3:
                lhs = bf.delta_finite(golden.beta, x + y)
                rhs = bf.delta_finite(golden.beta, x) + g_inv ** len(x) * bf.delta_finite(golden.beta, y)
                assert bf.exact_cmp(lhs, rhs) == 0
            else:
                spec = rational_specs[k % 4]
                beta = spec.value
                lhs = bf.delta_finite(spec, x + y)
                rhs = bf.delta_finite(spec, x) + Fraction(1) / beta ** len(x) * bf.delta_finite(spec, y)
                assert lhs == rhs


class TestGreedyPrefix:
    def test_binary(self):
        assert bf.greedy_prefix(B2, Fraction(3, 4), 2) == ("11", 0)

    def test_three_halves_one_digit(self):
        bits, residual = bf.greedy_prefix(B32, Fraction(3, 4), 1)
        assert bits == "1" and residual == Fraction(1, 8)

    def test_golden_value_one(self, golden):
        bits, residual = bf.greedy_prefix(golden.beta, Fraction(1), 2)
        assert bits == "11"
        assert bf.exact_sign(residual) == 0

    def test_residual_is_shifted_gap(self, rng):
        for _ in range(20):
            beta = Fraction(rng.randrange(101, 199), 100)
            s = random_rational(rng)
            spec = bf.RationalBeta(beta)
            bits, residual = bf.greedy_prefix(spec, s, 8)
            assert residual == beta ** 8 * (s - bf.delta_finite(spec, bits))
            assert 0 <= residual <= 1 / (beta - 1)


class TestGreedyLazy:
    def test_table_row_three_halves(self):
        expect = "10000010010010100000000010000001000010000001001001"
        assert bf.greedy_expand(B32, Fraction(3, 4), 50) == expect

    def test_table_row_six_fifths(self):
        expect = "01000000000000010000000000000000000100000000000000"
        assert bf.greedy_expand(bf.RationalBeta(Fraction(6, 5)), Fraction(3, 4), 50) == expect

    def test_zero_input(self, golden):
        assert bf.greedy_expand(B32, Fraction(0), 8) == "0" * 8
        assert bf.greedy_expand(golden.beta, Fraction(0), 8) == "0" * 8

    def test_outside_domain(self):
        with pytest.raises(bf.DomainError):
            bf.greedy_expand(B32, Fraction(21, 10), 4)
        with pytest.raises(bf.DomainError):
            bf.greedy_expand(B32, Fraction(-1, 10), 4)

    def test_matches_oracle(self, rng):
        for _ in range(30):
            beta = Fraction(rng.randrange(110, 199), 100)
            s = random_rational(rng, Fraction(0), 1 / (beta - 1))
            assert bf.greedy_expand(bf.RationalBeta(beta), s, 24) == greedy_oracle(beta, s, 24)
            assert bf.lazy_expand(bf.RationalBeta(beta), s, 24) == lazy_oracle(beta, s, 24)

    def test_lazy_dyadic(self):
        assert bf.lazy_expand(B2, Fraction(3, 4), 4) == "1011"

    def test_lazy_equals_greedy_off_dyadic(self):
        assert bf.lazy_expand(B2, Fraction(1, 3), 4) == "0101"
        assert bf.greedy_expand(B2, Fraction(1, 3), 4) == "0101"

    def test_lazy_maximal_point(self):
        assert bf.lazy_expand(B32, Fraction(2), 6) == "1" * 6

    def test_value_delta_check(self):
        # the lazy prefix "1011" continues with all ones: its window upper
        # endpoint hits 3/4 exactly
        assert delta_oracle(Fraction(2), "1011") + Fraction(1, 16) == Fraction(3, 4)

    def test_prefix_window_along_outputs(self, rng):
        for _ in range(15):
            beta = Fraction(rng.randrange(105, 199), 100)
            spec = bf.RationalBeta(beta)
            s = random_rational(rng, Fraction(0), 1 / (beta - 1))
            for word in (bf.greedy_expand(spec, s, 16), bf.lazy_expand(spec, s, 16)):
                for cut in range(len(word) + 1):
                    gap = s - bf.delta_finite(spec, word[:cut])
                    assert 0 <= gap <= bf.tail_bound(spec, cut)


class TestRandomExpand:
    def test_golden_alternation(self, golden):
        tosses = bf.BitStream.from_bits("101011")
        word, trace = bf.random_expand(golden.beta, Fraction(1), 6, tosses)
        assert word == "101011"
        assert tosses.consumed == 6
        assert all(t.in_switch for t in trace)
        assert bf.delta_finite(golden.beta, word) == 1  # residual 0 at the end

    def test_zero_never_consumes(self):
        tosses = bf.BitStream.from_bits("1111")
        word, trace = bf.random_expand(B32, Fraction(0), 6, tosses)
        assert word == "0" * 6
        assert tosses.consumed == 0
        assert not any(t.in_switch for t in trace)

    def test_small_value_empty_stream(self):
        word, _ = bf.random_expand(B32, Fraction(1, 10), 4, bf.BitStream.from_bits(""))
        assert word == "0000"

    def test_exhaustion_raises(self, golden):
        with pytest.raises(bf.StreamExhaustedError):
            bf.random_expand(golden.beta, Fraction(1), 6, bf.BitStream.from_bits("10"))

    def test_all_ones_is_greedy_all_zeros_is_lazy(self, rng, golden):
        specs = [bf.RationalBeta(Fraction(3, 2)), bf.RationalBeta(Fraction(7, 4)), golden.beta]
        for spec in specs:
            for _ in range(8):
                s = random_rational(rng)
                ones, _ = bf.random_expand(spec, s, 14, bf.BitStream.constant(1))
                zeros, _ = bf.random_expand(spec, s, 14, bf.BitStream.constant(0))
                assert ones == bf.greedy_expand(spec, s, 14)
                assert zeros == bf.lazy_expand(spec, s, 14)

    def test_trace_shape(self):
        word, trace = bf.random_expand(B32, Fraction(3, 4), 5, bf.BitStream.constant(1))
        assert [t.index for t in trace] == list(range(5))
        for t in trace:
            assert (t.toss_consumed is not None) == t.in_switch
            assert word[t.index] == str(t.emitted_bit)


def orbit_results(beta, s, n, tosses, band):
    """Every public call that steps the rational orbit, each result or the
    type and message of the error it raised."""
    spec = bf.RationalBeta(beta)
    calls = [
        lambda: bf.greedy_prefix(spec, s, n),
        lambda: bf.greedy_expand(spec, s, n),
        lambda: bf.lazy_expand(spec, s, n),
        lambda: bf.random_expand(spec, s, n, bf.BitStream.from_bits(tosses)),
        lambda: bf.adc_run(spec, bf.Quantizer(*band), s, n, bf.BitStream.from_bits(tosses)),
    ]
    return [outcome(call) for call in calls]


def on_fraction_orbit(beta, s, n, tosses, band):
    """`orbit_results` with the orbit stepping Fractions, as it did before it
    stepped integers."""
    with mock.patch.object(bf.expand, "_orbit", orbit_fractions), mock.patch.object(bf.tosses_adc, "_orbit", orbit_fractions):
        return orbit_results(beta, s, n, tosses, band)


def orbit_case(beta, s, n, tosses, band):
    got = orbit_results(beta, s, n, tosses, band)
    assert got == on_fraction_orbit(beta, s, n, tosses, band)
    return got


def start_values(beta, k):
    """Start values for the orbit differential: the ends of the domain and the
    switch-region cuts, and the same divided by beta^k, which the greedy and
    lazy orbits reach as exact ties at step k."""
    ends = [Fraction(0), 1 / (beta - 1), 1 / beta, 1 / (beta * (beta - 1))]
    return ends + [e / beta**k for e in ends]


class TestAgainstFractionOrbit:
    """The rational orbit on integers against `oracles.orbit_fractions`: words,
    residuals, traces, device records and errors, ties and clamps included."""

    @pytest.mark.parametrize("beta", RATIONAL_BASES, ids=str)
    def test_fixed_bases(self, beta, rng):
        region = (1 / beta, 1 / (beta * (beta - 1)))
        top = 1 / (beta - 1)
        for j in range(110):
            n = rng.randrange(0, 61)
            if j < 40:
                s = start_values(beta, rng.randrange(0, 6))[j % 8]
            else:
                s = random_rational(rng, Fraction(0), top * Fraction(11, 10))  # a tenth outside
            tosses = "".join(rng.choice("01") for _ in range(n))
            # a sound band inside the switch region, or one anywhere that forces clamps
            t = random_rational(rng, *region) if j % 2 else random_rational(rng, Fraction(0), top)
            eps = random_rational(rng, Fraction(0), (region[1] - region[0]) / 4)
            orbit_case(beta, s, n, tosses, (t, eps))

    @settings(max_examples=300, deadline=None)
    @given(q=st.integers(2, 64), data=st.data())
    def test_drawn_bases(self, q, data):
        beta = Fraction(data.draw(st.integers(q + 1, 2 * q - 1)), q)
        top = 1 / (beta - 1)
        n = data.draw(st.integers(0, 60))
        s = data.draw(st.sampled_from(start_values(beta, n // 3)) | st.fractions(0, top, max_denominator=1 << 24))
        t = data.draw(st.fractions(0, top, max_denominator=1 << 12))
        eps = data.draw(st.fractions(0, top / 4, max_denominator=1 << 12))
        tosses = data.draw(st.text(alphabet="01", min_size=n, max_size=n))
        orbit_case(beta, s, n, tosses, (t, eps))

    def test_clamps_are_exercised(self):
        # an unsound band far above the region clamps from the region's ends
        beta = Fraction(3, 2)
        record = orbit_case(beta, Fraction(1, 3), 40, "01" * 20, (Fraction(19, 10), Fraction(1, 20)))[4]
        assert record.fault


FLIP = str.maketrans("01", "10")


@pytest.mark.parametrize("name", ["3/2", "9/5", "golden", "tribonacci", "sqrt2"])
@settings(max_examples=40, deadline=None)
@given(t=st.fractions(0, 1, max_denominator=1 << 20), n=st.integers(0, 200))
@example(t=Fraction(0), n=200)
@example(t=Fraction(1), n=200)
@example(t=Fraction(1, 2), n=200)
def test_lazy_is_greedy_on_the_mirror_complemented(name, t, n):
    """With F = 1/(beta-1), r -> F - r maps the lazy orbit of s onto the
    greedy orbit of F - s digit for complemented digit: r <= 1/(beta(beta-1))
    exactly when F - r >= 1/beta, and beta*F - 1 = F."""
    spec = bf.RationalBeta(Fraction(name)) if "/" in name else bf.get_preset(name).beta
    top = bf.expansion_domain_max(spec)
    s = top * t
    assert bf.lazy_expand(spec, s, n) == bf.greedy_expand(spec, top - s, n).translate(FLIP)


@pytest.mark.parametrize("name, forbidden", [("golden", "11"), ("tribonacci", "111")])
def test_greedy_words_are_parry_admissible(name, forbidden):
    """Parry's condition: every shift of the greedy expansion of s in [0, 1)
    stays below the quasi-greedy expansion of 1, (10)^w on golden and
    (110)^w on tribonacci, so no greedy word holds "11", resp. "111"; start
    values are rationals and exact values of random words."""
    spec = bf.get_preset(name).beta
    rng = random.Random(name + "parry")
    checked = 0
    while checked < 200:
        s = random_rational(rng) if checked % 2 else bf.delta_finite(spec, format(rng.getrandbits(30), "030b"))
        if bf.exact_cmp(s, 1) >= 0:
            continue
        word = bf.greedy_expand(spec, s, 300)
        assert forbidden not in word, (s, word)
        checked += 1


class TestOrbitCap:
    """Every generator runs on the one orbit loop, so one cap bounds them all."""

    def _calls(self, spec, n):
        ones = bf.BitStream.constant(1)
        q = bf.Quantizer(Fraction(7, 10), Fraction(1, 100))
        return [
            lambda: bf.greedy_prefix(spec, Fraction(1, 2), n),
            lambda: bf.greedy_expand(spec, Fraction(1, 2), n),
            lambda: bf.lazy_expand(spec, Fraction(1, 2), n),
            lambda: bf.random_expand(spec, Fraction(1, 2), n, ones),
            lambda: bf.adc_run(spec, q, Fraction(1, 2), n, ones),
            lambda: bf.replay_tosses(spec, Fraction(1, 2), "0" * n),
        ]

    def test_above_the_cap_is_a_size_error_at_once(self, golden):
        cap = bf.expand.ORBIT_CAP
        for spec in (golden.beta, B32):
            for call in self._calls(spec, cap + 1):
                t0 = time.perf_counter()
                with pytest.raises(bf.SizeGuardError, match=f"^{cap + 1} digits exceed the orbit cap ORBIT_CAP = {cap}$"):
                    call()
                assert time.perf_counter() - t0 < 1

    def test_at_the_cap_the_orbit_runs(self, golden):
        cap = bf.expand.ORBIT_CAP
        word = bf.greedy_expand(golden.beta, Fraction(1, 2), cap)
        assert len(word) == cap and word.startswith(bf.greedy_expand(golden.beta, Fraction(1, 2), 40))


class TestLanding:
    def test_base_two_has_no_threshold(self):
        with pytest.raises(bf.DomainError, match="^landing threshold requires beta strictly below 2$"):
            bf.landing_threshold(bf.RationalBeta(Fraction(2)), Fraction(1, 2))

    def test_already_inside(self):
        info = bf.landing_threshold(B32, Fraction(0))
        assert info.least_landing == 0
        assert info.threshold < 0

    def test_fixed_point(self):
        info = bf.landing_threshold(B32, Fraction(2))
        assert info.least_landing is None
        assert math.isinf(info.threshold)

    def test_nineteen_tenths(self):
        info = bf.landing_threshold(B32, Fraction(19, 10))
        assert info.least_landing == 6
        assert 5.6 < info.threshold < 5.8

    def test_base_within_a_float_of_two(self):
        # ratio = 2 - beta = 10^-400 underflows a float
        beta = bf.RationalBeta(2 - Fraction(1, 10**400))
        info = bf.landing_threshold(beta, Fraction(0))
        assert info.least_landing == 0
        assert math.isclose(info.threshold, -400 * math.log(10) / math.log(2), rel_tol=1e-12)

    def test_landing_agrees_with_iteration(self, rng):
        for _ in range(25):
            beta = Fraction(rng.randrange(105, 195), 100)
            r = random_rational(rng, Fraction(0), 1 / (beta - 1))
            if r == 1 / (beta - 1):
                continue
            info = bf.landing_threshold(bf.RationalBeta(beta), r)
            # iterate the map independently
            x, n = r, 0
            while x >= 1:
                x = beta * x - 1
                n += 1
            assert info.least_landing == n
            assert n == max(0, math.floor(info.threshold) + 1)
            # all later iterates stay inside [0, 1)
            for _ in range(6):
                assert 0 <= x < 1
                x = beta * x if x < 1 / beta else beta * x - 1

    def test_escape_before_landing(self, rng):
        for _ in range(10):
            beta = Fraction(rng.randrange(110, 190), 100)
            r = random_rational(rng, Fraction(1), 1 / (beta - 1))
            if r == 1 / (beta - 1) or r < 1:
                continue
            info = bf.landing_threshold(bf.RationalBeta(beta), r)
            if info.least_landing and info.least_landing >= 1:
                # some iterate at or before the threshold still sits at or above 1
                assert r >= 1


@pytest.mark.parametrize(
    "name", ["golden", "tribonacci", "sqrt2", "cbrt2", "3/2", "7/4", "9/5", "101/100"]
)
def test_landing_matches_the_loop(name, rng):
    """The landing index from the least power past the ratio is the index of
    the stepping loop, on random starts and on the exact ties beta^k = ratio,
    r_k = (1 - (2 - beta) beta^-k) / (beta - 1), where iterate k sits at 1."""
    spec, _, b = base(name)
    beta = bf.beta_value(spec)
    top = bf.expansion_domain_max(spec)
    ties = [(1 - (2 - beta) / beta**k) / (beta - 1) for k in range(6)]
    starts = [top * Fraction(rng.randrange(0, 1000), 1000) for _ in range(12)] + [rand_value(rng, spec, b)]
    for r in ties + starts:
        info = bf.landing_threshold(spec, r)
        assert info.least_landing == landing_oracle(spec, r)
        ratio = (2 - beta) / (1 - (beta - 1) * r)
        assert info.threshold == math.log(float(ratio)) / math.log(float(beta))
    # at a tie, iterate k is exactly 1, so the landing comes one step later
    assert [bf.landing_threshold(spec, r).least_landing for r in ties] == list(range(1, 7))


def test_landing_past_the_orbit_cap():
    # r = 2 - 10^-k, below the fixed point 2 of 3/2, lands after about
    # 5.68 k steps: past ORBIT_CAP at k = 5000, within it at k = 2000
    with pytest.raises(bf.SizeGuardError, match="^least power exceeds the orbit cap ORBIT_CAP = 16384$"):
        bf.landing_threshold(B32, 2 - Fraction(1, 10**5000))
    assert bf.landing_threshold(B32, 2 - Fraction(1, 10**2000)).least_landing == landing_oracle(
        B32, 2 - Fraction(1, 10**2000)
    )


def counting_cmp():
    """A stand-in for `expand.exact_cmp` that counts its calls."""
    calls = []

    def cmp(a, b):
        calls.append(1)
        return bf.exact_cmp(a, b)

    return cmp, calls


class TestLeastPowerRefusal:
    """The search decides every case as the plain loop does, in a number of
    comparisons logarithmic in the answer or in the limit, the largest power
    the cap and the budget allow; each count includes the base check."""

    @staticmethod
    def check(b, target, cap, budget):
        cmp, calls = counting_cmp()
        with mock.patch.object(bf.expand, "exact_cmp", cmp):
            got = outcome(bf.expand._least_power, b, target)
        assert got == outcome(least_power_loop, b, target, cap, budget), (b, target)
        if isinstance(got, tuple):
            bits = b.numerator.bit_length() + b.denominator.bit_length() if isinstance(b, Fraction) else 0
            limit = min(cap, budget // bits) if bits else cap
            assert len(calls) <= limit.bit_length() + 2, (b, target, len(calls))
        else:
            assert len(calls) <= 2 * (got + 1).bit_length() + 2, (b, target, len(calls))

    def test_matches_the_loop_under_small_caps(self):
        """With the cap at 40 powers and the budget at 400 bits the loop is
        cheap, so every answer and error is checked against it, on targets
        at, just above and just below exact powers of the base and on powers
        of two."""
        rng = random.Random(61)
        cap, budget = 40, 400
        with (
            mock.patch.object(bf.expand, "ORBIT_CAP", cap),
            mock.patch.object(bf.expand, "BIT_BUDGET", budget),
            mock.patch.object(bf.numerics, "BIT_BUDGET", budget),
        ):
            for _ in range(3000):
                q = rng.choice([rng.randrange(2, 16), rng.randrange(2, 1 << 14)])
                b = Fraction(q + rng.choice([1, 2, rng.randrange(1, q)]), q)
                k = rng.randrange(0, 100)
                target = rng.choice([b**k, b**k + Fraction(1, 1 << 40), b**k - Fraction(1, 1 << 40), Fraction(1 << k)])
                target = rng.choice([target, int(target)]) if target.denominator == 1 else target
                self.check(b, target, cap, budget)

    def test_matches_the_loop_where_cap_and_budget_meet(self):
        """Budgets that stop the powers one before, at and one past the cap,
        so each of the two errors is raised where the loop raises it."""
        cap = 40
        with mock.patch.object(bf.expand, "ORBIT_CAP", cap):
            for b in (Fraction(17, 16), Fraction(1025, 1024), Fraction(3, 2)):
                bits = b.numerator.bit_length() + b.denominator.bit_length()
                for budget in ((cap - 1) * bits, cap * bits, (cap + 1) * bits):
                    with (
                        mock.patch.object(bf.expand, "BIT_BUDGET", budget),
                        mock.patch.object(bf.numerics, "BIT_BUDGET", budget),
                    ):
                        for k in range(cap - 2, cap + 3):
                            for target in (b**k - Fraction(1, 1 << 40), b**k, b**k + Fraction(1, 1 << 40)):
                                self.check(b, target, cap, budget)

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "sqrt2"])
    def test_field_bases_match_the_loop(self, name):
        """A field base under a cap of 64: targets in (0, 2], and exact
        powers b^k of the base and b^k -+ 2^-40, within and past the cap."""
        rng = random.Random(67)
        cap = 64
        b = bf.beta_value(base(name)[0])
        eps = Fraction(1, 1 << 40)
        targets = [Fraction(rng.randrange(1, 2001), 1000) for _ in range(20)] + [Fraction(2), eps]
        for k in list(range(8)) + [rng.randrange(8, 80) for _ in range(12)] + [cap, cap + 1]:
            targets += [b**k, b**k + eps, b**k - eps]
        with mock.patch.object(bf.expand, "ORBIT_CAP", cap):
            for target in targets:
                self.check(b, target, cap, bf.numerics.BIT_BUDGET)

    @pytest.mark.parametrize("b, target, error", [
        # N of the rational converter and of the stream schedule near 1
        (Fraction(100001, 100000), 2, r"^least power exceeds the orbit cap ORBIT_CAP = 16384$"),
        # 1994 bits: the budget ends the loop at m = 501, before the cap
        (Fraction(10**300 + 1, 10**300), 2, r"^a\^502 would exceed the 1000000-bit budget$"),
        # the landing of 2 - 10^-5000 on 3/2, about 28,400 steps away
        (Fraction(3, 2), Fraction(10**5000), r"^least power exceeds the orbit cap ORBIT_CAP = 16384$"),
    ])
    def test_refuses_before_the_first_product(self, b, target, error):
        """No product loop runs: a real near-1, budget or landing refusal
        takes at most bitlen(limit) + 2 comparisons."""
        cmp, calls = counting_cmp()
        with mock.patch.object(bf.expand, "exact_cmp", cmp), pytest.raises(bf.BetaForgeError, match=error):
            bf.expand._least_power(b, target)
        limit = min(bf.expand.ORBIT_CAP, bf.numerics.BIT_BUDGET // (b.numerator.bit_length() + b.denominator.bit_length()))
        assert len(calls) <= limit.bit_length() + 2


@pytest.mark.parametrize("name", ["3/2", "golden"])
def test_landing_within_a_float_of_the_fixed_point(name):
    """r = 1/(beta-1) - 10^-400 makes ratio = (2-beta)/((beta-1) 10^-400),
    past the float range: the threshold is still log(ratio)/log(beta), and
    the landing index is still exact."""
    spec, _, b = base(name)
    beta = bf.beta_value(spec)
    r = bf.expansion_domain_max(spec) - Fraction(1, 10**400)
    info = bf.landing_threshold(spec, r)
    log_ratio = math.log((2 - b) / (b - 1)) + 400 * math.log(10)
    assert math.isclose(info.threshold, log_ratio / math.log(b), rel_tol=1e-12)
    assert info.least_landing == landing_oracle(spec, r) == math.floor(info.threshold) + 1


class TestBitStream:
    def test_counts_and_replay(self):
        s1 = bf.BitStream.from_bits("1101")
        assert [s1.next_bit() for _ in range(4)] == [1, 1, 0, 1]
        assert s1.consumed == 4
        s2 = bf.BitStream.from_bits("1101")
        assert [s2.next_bit() for _ in range(4)] == [1, 1, 0, 1]

    def test_validation(self):
        with pytest.raises(bf.DomainError):
            bf.BitStream.from_bits("10a1")
        with pytest.raises(bf.DomainError, match="^toss stream produced non-bit value 2$"):
            bf.BitStream(lambda: iter([2])).next_bit()
        for in_switch, toss in ((True, None), (False, 1)):
            with pytest.raises(bf.DomainError, match="^toss_consumed must be present exactly when in_switch$"):
                bf.TraceStep(0, Fraction(0), 0, in_switch, toss)
