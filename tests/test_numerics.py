import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betaforge as bf
from betaforge.numerics import NumberFieldContext, NumberFieldElement, format_rational
from oracles import inverse_euclid


# golden, tribonacci, sqrt2, cbrt2, (1 + sqrt 3)/2 (not monic) and x^4 - x - 1
INVERSE_CONTEXTS = {
    "golden": bf.get_preset("golden").beta.ctx,
    "tribonacci": bf.get_preset("tribonacci").beta.ctx,
    "sqrt2": bf.get_preset("sqrt2").beta.ctx,
    "cbrt2": bf.get_preset("cbrt2").beta.ctx,
    "nonmonic": NumberFieldContext([-1, -2, 2], (Fraction(13, 10), Fraction(7, 5))),
    "quartic": NumberFieldContext([-1, -1, 0, 0, 1], (Fraction(6, 5), Fraction(5, 4))),
}


def make_golden_ctx():
    return NumberFieldContext([-1, -1, 1], (Fraction(3, 2), Fraction(5, 3)))


class TestNumberFieldSign:
    def test_zero_element(self):
        ctx = make_golden_ctx()
        assert NumberFieldElement.from_rational(ctx, 0).sign() == 0

    def test_minimal_polynomial_relation(self):
        # beta^2 - beta - 1 reduces to the zero element
        ctx = make_golden_ctx()
        g = NumberFieldElement.generator(ctx)
        assert (g * g - g - 1).sign() == 0

    def test_golden_above_three_halves(self):
        ctx = make_golden_ctx()
        g = NumberFieldElement.generator(ctx)
        assert (g - Fraction(3, 2)).sign() == 1

    def test_golden_below_five_thirds(self):
        ctx = make_golden_ctx()
        g = NumberFieldElement.generator(ctx)
        assert (g - Fraction(5, 3)).sign() == -1

    def test_sign_stable_across_calls(self):
        ctx = make_golden_ctx()
        g = NumberFieldElement.generator(ctx)
        v = g ** 5 - 11  # G^5 ~ 11.09
        assert [v.sign() for _ in range(3)] == [1, 1, 1]

    def test_trichotomy(self, rng):
        ctx = make_golden_ctx()
        g = NumberFieldElement.generator(ctx)
        for _ in range(50):
            a = rng.randrange(-9, 10) + rng.randrange(-9, 10) * g
            b = rng.randrange(-9, 10) + rng.randrange(-9, 10) * g
            assert (a < b) + (a == b) + (a > b) == 1

    def test_field_inverse(self):
        ctx = make_golden_ctx()
        g = NumberFieldElement.generator(ctx)
        assert g * g.inverse() == 1
        # 1/G = G - 1 in the golden field
        assert g.inverse() == g - 1

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(INVERSE_CONTEXTS)),
        coords=st.lists(st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6), min_size=4, max_size=4),
    )
    def test_inverse_matches_euclid(self, name, coords):
        ctx = INVERSE_CONTEXTS[name]
        x = NumberFieldElement(ctx, coords[: ctx.degree])
        if x.is_zero():
            return
        y = x.inverse()
        assert y == inverse_euclid(x)
        assert x * y == 1

    def test_zero_divisors_prove_reducible(self):
        # x^3 - 4x^2 + 2x + 3 = (x - 3)(x^2 - x - 1), isolating the golden root
        ctx = NumberFieldContext([3, 2, -4, 1], (Fraction(3, 2), Fraction(5, 3)))
        g = NumberFieldElement.generator(ctx)
        for x in (g * g - g - 1, g - 3):
            with pytest.raises(bf.MalformedContextError, match="reducible"):
                x.inverse()
            with pytest.raises(bf.MalformedContextError, match="reducible"):
                1 / x

    def test_shared_context_across_threads(self):
        import threading

        ctx = make_golden_ctx()
        g = NumberFieldElement.generator(ctx)
        values = [g ** k - Fraction(161, 100) ** k for k in range(1, 9)]
        results = [None] * 8

        def worker(slot):
            results[slot] = [v.sign() for v in values]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)
        # G^k grows past 1.61^k, so every sign is +1
        assert results[0] == [1] * 8

    def test_malformed_contexts(self):
        with pytest.raises(bf.MalformedContextError):
            NumberFieldContext([-1, -1, 1], (Fraction(17, 10), Fraction(18, 10)))  # no sign change
        with pytest.raises(bf.MalformedContextError):
            NumberFieldContext([5], (Fraction(3, 2), Fraction(5, 3)))  # constant poly
        with pytest.raises(bf.MalformedContextError):
            NumberFieldContext([1, 1, -1], (Fraction(3, 2), Fraction(5, 3)))  # negative leading
        with pytest.raises(bf.MalformedContextError, match=r"^isolating interval must lie within \(1, 2\)$"):
            NumberFieldContext([-1, -1, 1], (Fraction(3, 2), Fraction(2)))


class TestInApprox:
    def test_endpoint_membership(self):
        assert bf.in_approx(Fraction(1, 2), bf.Interval(Fraction(1, 2), Fraction(3, 4)), 10)

    def test_widened_in(self):
        # 0 >= 1/4 - 1/4
        assert bf.in_approx(Fraction(0), bf.Interval(Fraction(1, 4), Fraction(1, 2)), 2)

    def test_widened_out(self):
        # 0 < 1/4 - 1/8
        assert not bf.in_approx(Fraction(0), bf.Interval(Fraction(1, 4), Fraction(1, 2)), 3)

    def test_negative_exponent_rejected(self):
        with pytest.raises(bf.DomainError):
            bf.in_approx(Fraction(0), bf.Interval(Fraction(0), Fraction(1)), -1)

    @settings(max_examples=200, deadline=None)
    @given(
        s=st.fractions(min_value=-2, max_value=2),
        a=st.fractions(min_value=-1, max_value=1),
        w=st.fractions(min_value=0, max_value=1),
        n=st.integers(min_value=0, max_value=16),
        k=st.integers(min_value=0, max_value=8),
    )
    def test_monotone_in_precision(self, s, a, w, n, k):
        interval = bf.Interval(a, a + w)
        if bf.in_approx(s, interval, n + k):
            assert bf.in_approx(s, interval, n)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.fractions(min_value=-1, max_value=1),
        w=st.fractions(min_value=0, max_value=1),
        t=st.fractions(min_value=0, max_value=1),
        n=st.integers(min_value=0, max_value=16),
    )
    def test_true_membership_always_accepted(self, a, w, t, n):
        interval = bf.Interval(a, a + w)
        s = a + w * t
        assert bf.in_approx(s, interval, n)


def log2_cases():
    """Rationals above and below 1, exact powers of two, and numerators and
    denominators of up to 10^50."""
    return st.one_of(
        st.builds(Fraction, st.integers(1, 10**50), st.integers(1, 10**50)),
        st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000)),
        st.builds(lambda j: Fraction(2) ** j, st.integers(-200, 200)),
        st.builds(lambda j, r: Fraction(2) ** j * r, st.integers(-60, 60), st.sampled_from([1, 3, Fraction(1, 3), Fraction(10**50, 10**50 - 1)])),
    )


class TestExactLog2:
    def test_power_of_two(self):
        assert bf.exact_log2_bounds(Fraction(2), 5) == (5, 1)

    def test_three_halves_squared(self):
        assert bf.exact_log2_bounds(Fraction(3, 2), 2) == (2, 0)

    def test_three_halves_fourth(self):
        assert bf.exact_log2_bounds(Fraction(3, 2), 4) == (3, 0)

    def test_tie_resolution_exact(self):
        # (4/1)^3 = 2^6 exactly: ceiling must take 6, not 7
        assert bf.exact_log2_bounds(Fraction(4), 3)[0] == 6

    def test_field_argument(self):
        ctx = make_golden_ctx()
        g = NumberFieldElement.generator(ctx)
        ceil_k, floor1 = bf.exact_log2_bounds(g, 3)  # G^3 ~ 4.236
        assert (ceil_k, floor1) == (3, 0)

    def test_budget(self):
        with pytest.raises(bf.BudgetExceededError):
            bf.exact_log2_bounds(Fraction(3, 2), 10**9)

    def test_consistency_random(self, rng):
        for _ in range(40):
            a = Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
            if a == 0:
                continue
            k = rng.randrange(0, 6)
            ceil_k, floor1 = bf.exact_log2_bounds(a, k)
            p = a ** k
            assert Fraction(2) ** ceil_k >= p
            if p != Fraction(2) ** ceil_k:
                assert Fraction(2) ** (ceil_k - 1) < p
            assert Fraction(2) ** floor1 <= a < Fraction(2) ** (floor1 + 1)

    # the rational branches of floor_log2, ceil_log2 and exact_log2_bounds,
    # one integer core, against the definitions 2^f <= q < 2^(f+1) and
    # 2^(m-1) < q^k <= 2^m for m = ceil(k * log2(q))
    @settings(max_examples=400, deadline=None)
    @given(q=log2_cases(), k=st.integers(0, 12))
    def test_definitions(self, q, k):
        f, c = bf.floor_log2(q), bf.ceil_log2(q)
        assert Fraction(2) ** f <= q < Fraction(2) ** (f + 1)
        assert Fraction(2) ** (c - 1) < q <= Fraction(2) ** c
        m, f1 = bf.exact_log2_bounds(q, k)
        assert f1 == f
        assert Fraction(2) ** (m - 1) < q**k <= Fraction(2) ** m

    def test_exact_powers_of_two(self):
        for j in range(-130, 131):
            q = Fraction(2) ** j
            assert bf.floor_log2(q) == bf.ceil_log2(q) == j
            for k in (0, 1, 5):
                assert bf.exact_log2_bounds(q, k) == (j * k, j)
            # a relative nudge of 10^-50 up or down moves exactly one of the two
            for nudge, want in ((Fraction(1, 10**50), (j, j + 1)), (-Fraction(1, 10**50), (j - 1, j))):
                r = q * (1 + nudge)
                assert (bf.floor_log2(r), bf.ceil_log2(r)) == want

    def test_numerators_of_fifty_digits(self):
        big = 10**50
        assert bf.floor_log2(Fraction(big)) == 166 and bf.ceil_log2(Fraction(big)) == 167
        assert bf.floor_log2(Fraction(1, big)) == -167 and bf.ceil_log2(Fraction(1, big)) == -166
        assert bf.exact_log2_bounds(Fraction(big + 1, big), 10**6 // 400) == (1, 0)
        assert bf.exact_log2_bounds(Fraction(big - 1, big), 3) == (0, -1)

    def test_nonpositive_and_budget(self):
        for q in (Fraction(0), Fraction(-3, 2)):
            for call in (bf.floor_log2, bf.ceil_log2):
                with pytest.raises(bf.DomainError, match="requires a positive argument"):
                    call(q)
        # the guard reads the bits of the numerator and denominator: 2 + 2 for 3/2
        assert bf.exact_log2_bounds(Fraction(3, 2), 250_000)[0] == 146_241
        with pytest.raises(bf.BudgetExceededError, match=r"^a\^250001 would exceed the 1000000-bit budget$"):
            bf.exact_log2_bounds(Fraction(3, 2), 250_001)
        with pytest.raises(bf.DomainError, match="^k must be nonnegative$"):
            bf.exact_log2_bounds(Fraction(3, 2), -1)
        with pytest.raises(bf.DomainError, match="^a must be positive$"):
            bf.exact_log2_bounds(Fraction(0), 1)


class TestFloorsAndParsing:
    def test_exact_floor_field(self):
        ctx = make_golden_ctx()
        g = NumberFieldElement.generator(ctx)
        assert bf.exact_floor(g) == 1
        assert bf.exact_floor(g * g) == 2
        assert bf.exact_floor(-g) == -2
        assert bf.exact_floor(g * g - g - 1) == 0

    def test_parse_rational_forms(self):
        assert bf.parse_rational("3/4") == Fraction(3, 4)
        assert bf.parse_rational("0.75") == Fraction(3, 4)
        assert bf.parse_rational("2") == Fraction(2)
        with pytest.raises(bf.DomainError):
            bf.parse_rational("x")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str limit")
    def test_parse_rational_digit_runs_past_the_limit(self):
        limit = sys.get_int_max_str_digits()
        # 1e(limit + 700) is refused before its power of ten is built, 1e(limit) after
        for text in ("1" * (limit + 1), "1/" + "1" * (limit + 1), "0." + "1" * (limit + 1), f"1e{limit}",
                     f"1e{limit + 700}", "0" * (limit + 1), "1_" * limit + "1", "1e" + "1" * (limit + 1)):
            with pytest.raises(bf.SizeGuardError, match=f"^number too long to parse: more than {limit} digits$"):
                bf.parse_rational(text)
        # runs of `limit` digits still parse as before
        assert bf.parse_rational("1" * limit) == int("1" * limit)
        assert bf.parse_rational("1/" + "0" * (limit - 1) + "7") == Fraction(1, 7)
        assert bf.parse_rational("0." + "0" * (limit - 1) + "5") == Fraction(5, 10**limit)
        assert bf.parse_rational("1_" * (limit - 1) + "1") == int("1" * limit)  # underscores are no digits

    def test_interval_order_enforced(self):
        with pytest.raises(bf.DomainError):
            bf.Interval(Fraction(1), Fraction(0))

    def test_beta_from_json(self):
        spec = bf.beta_from_json({"minpoly": [-1, -1, 1], "isolating": ["3/2", "5/3"]})
        assert isinstance(spec, bf.AlgebraicBeta)
        spec2 = bf.beta_from_json({"bits": "1000", "lo": "3/2", "hi": "3/2"})
        assert isinstance(spec2, bf.StreamBeta)
        with pytest.raises(bf.DomainError):
            bf.beta_from_json({"bits": "102", "lo": "3/2", "hi": "3/2"})
        with pytest.raises(bf.DomainError, match="^unrecognized base object; expected minpoly/isolating or bits/lo/hi$"):
            bf.beta_from_json({"lo": "3/2", "hi": "3/2"})

    def test_stream_beta_has_no_exact_value(self):
        spec = bf.beta_from_json({"bits": "1000", "lo": "3/2", "hi": "3/2"})
        with pytest.raises(bf.ExactnessRequiredError):
            bf.beta_value(spec)
        with pytest.raises(bf.DomainError, match=r"^not a base specification: Fraction\(3, 2\)$"):
            bf.beta_value(Fraction(3, 2))

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str limit")
    def test_format_rational_too_long_to_print(self):
        limit = sys.get_int_max_str_digits()
        assert format_rational(Fraction(10 ** (limit - 1), 3)).endswith("/3")
        for q in (Fraction(10**limit), Fraction(1, 10**limit), Fraction(10**limit + 1, 7)):
            with pytest.raises(bf.SizeGuardError, match=f"more than {limit} digits"):
                format_rational(q)

    def test_rational_beta_domain(self):
        with pytest.raises(bf.DomainError):
            bf.RationalBeta(Fraction(5, 2))
        with pytest.raises(bf.DomainError):
            bf.RationalBeta(Fraction(1))


class TestFieldFloors:
    # exact_floor, floor_log2 and ceil_log2 on field elements against their
    # definitions, decided by exact comparison: exact powers of two (sqrt2^2,
    # sqrt2^6, cbrt2^6, cbrt2^-300, and rational elements), elements far
    # below 1, in (1/2, 1) and far above 1, and random coordinates
    @pytest.mark.parametrize("name", ["golden", "tribonacci", "sqrt2", "cbrt2"])
    def test_definitions(self, name, rng):
        b = bf.get_preset(name).beta.element()
        one = b - b + 1
        elements = [b, b * b, b**6, b**-1, (b - 1) ** 120, b**200, b**-200, b**-300, one * 2, one / 3]
        elements += [b**k * Fraction(2) ** j for k in (-7, 0, 5) for j in (-40, 0, 40)]
        # rational-valued powers of two, and elements in (1/2, 1), where
        # floor_log2 takes -ceil(log2(ceil(1/a))) = -1
        elements += [one * Fraction(2) ** j for j in (-200, -64, -2, -1, 1, 2, 63, 64, 200)]
        elements += [1 / b, (b + 1) / (b + 2), one * Fraction(3, 4)]
        elements += [one - Fraction(1, 2**70), one / 2 + Fraction(1, 2**70)]
        elements += [
            NumberFieldElement(b.ctx, [Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**6)) for _ in b.num])
            for _ in range(30)
        ]
        for e in elements:
            k = bf.exact_floor(e)
            assert bf.exact_cmp(e, k) >= 0 > bf.exact_cmp(e, k + 1)
            if bf.exact_sign(e) <= 0:
                continue
            f, c = bf.floor_log2(e), bf.ceil_log2(e)
            assert bf.exact_cmp(e, Fraction(2) ** f) >= 0 > bf.exact_cmp(e, Fraction(2) ** (f + 1))
            assert bf.exact_cmp(e, Fraction(2) ** (c - 1)) > 0 >= bf.exact_cmp(e, Fraction(2) ** c)


class TestContextEdges:
    @pytest.mark.parametrize("minpoly", [[-3, 2], [-9, 5], [-3, 2, 0, 0], [5], [0, 0]])
    def test_degree_below_two_is_refused(self, minpoly):
        # a rational base is a RationalBeta, written p/q
        with pytest.raises(bf.MalformedContextError, match=r"^minimal polynomial must have degree >= 2; give a rational base as p/q$"):
            NumberFieldContext(minpoly, (Fraction(5, 4), Fraction(7, 4)))

    def test_isolating_endpoint_on_a_root(self):
        # 2x^2 - x - 3 = (2x - 3)(x + 1) has its rational root 3/2 on an endpoint
        with pytest.raises(bf.MalformedContextError, match="^isolating endpoint is a root$"):
            NumberFieldContext([-3, -1, 2], (Fraction(3, 2), Fraction(7, 4)))

    def test_repr_and_enclosure_give_the_isolating_interval(self):
        ctx = make_golden_ctx()
        assert repr(ctx) == "NumberFieldContext(minpoly=[-1, -1, 1], isolating=(3/2, 5/3))"
        assert ctx.enclosure() == ctx.isolating == (Fraction(3, 2), Fraction(5, 3))

    def test_float_and_str_operands_are_type_errors(self):
        import operator

        g = NumberFieldElement.generator(make_golden_ctx())
        for other in (1.5, "1"):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(g, other)
                with pytest.raises(TypeError):
                    op(other, g)
            assert not g == other and not other == g and g != other

    def test_trailing_zero_coefficients_are_trimmed(self):
        ctx = NumberFieldContext([-1, -1, 1, 0, 0], (Fraction(3, 2), Fraction(5, 3)))
        assert (ctx.minpoly, ctx.degree) == ((-1, -1, 1), 2)
        assert NumberFieldElement.generator(ctx) ** 2 == NumberFieldElement.generator(ctx) + 1

    def test_order_comparisons_and_negative_powers(self):
        g = NumberFieldElement.generator(make_golden_ctx())
        assert g <= g and g >= g
        assert g <= 2 and not g >= 2 and g >= Fraction(8, 5) and not g <= Fraction(8, 5)
        assert g**-1 == g - 1
        assert g**-3 * g**3 == 1 and g**-3 == (g - 1) ** 3

    def test_interval_contains(self):
        g = NumberFieldElement.generator(make_golden_ctx())
        iv = bf.Interval(Fraction(1), g)
        assert iv.contains(Fraction(1)) and iv.contains(Fraction(8, 5)) and iv.contains(g)
        assert not iv.contains(Fraction(13, 8)) and not iv.contains(Fraction(1, 2))
        assert bf.Interval(g, g).contains(g) and not bf.Interval(g, g).contains(g - 1)
