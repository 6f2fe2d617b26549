import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betaforge as bf
from betaforge.cli import run_command
from betaforge.numerics import _ceil_log2_ratio
from conftest import RATIONAL_BASES, outcome, random_rational
from oracles import convert_rational_fractions, delta_oracle, dyadic_log2_upper_bisection, greedy_oracle

B32 = bf.RationalBeta(Fraction(3, 2))


class TestRationalParams:
    def test_three_halves(self):
        p = bf.params_rational(B32)
        assert p.N == 2
        assert p.sigma(0) == 0
        assert p.sigma(1) == 3
        assert p.sigma(2) == 4

    def test_nine_fifths(self):
        p = bf.params_rational(bf.RationalBeta(Fraction(9, 5)))
        assert p.N == 2
        assert p.sigma(1) == 5

    def test_seven_fourths(self):
        p = bf.params_rational(bf.RationalBeta(Fraction(7, 4)))
        assert p.N == 2
        assert p.sigma(1) == 5

    def test_strictly_increasing_near_one(self):
        # the raw schedule dips below zero close to 1; the clamp keeps it a
        # valid strictly increasing read schedule
        p = bf.params_rational(bf.RationalBeta(Fraction(101, 100)))
        vals = [p.sigma(i) for i in range(8)]
        assert vals[0] == 0
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_two(self):
        with pytest.raises(bf.DomainError):
            bf.params_rational(bf.RationalBeta(Fraction(2)))

    def test_takes_only_a_rational_base(self, golden):
        for beta in (Fraction(3, 2), golden.beta):
            with pytest.raises(bf.DomainError):
                bf.params_rational(beta)


class TestConvertRational:
    def test_single_chunk(self):
        res = bf.convert_rational(B32, "110", 1)
        assert res.bits == "10"
        assert res.residuals[1] == Fraction(3, 16)

    def test_two_chunks(self):
        res = bf.convert_rational(B32, "1100", 2)
        assert res.bits == "1000"
        assert res.residuals[2] == Fraction(27, 64)

    def test_zero_prefix(self):
        res = bf.convert_rational(B32, "0" * 10, 4)
        assert res.bits == "0" * 8
        assert res.residuals[-1] == 0

    def test_insufficient_bits(self):
        with pytest.raises(bf.InsufficientBitsError) as ei:
            bf.convert_rational(B32, "110", 2)
        assert ei.value.required == 4

    def test_prefix_checked_against_sigma_n_first(self):
        # sigma increases, so sigma(n) decides before the n + 1 schedule
        # values are built (30000 of them take seconds)
        t0 = time.perf_counter()
        with pytest.raises(bf.InsufficientBitsError) as ei:
            bf.convert_rational(B32, "0101", 30000)
        assert ei.value.required == 35099 == bf.params_rational(B32).sigma(30000)
        assert time.perf_counter() - t0 < 5

    def test_validity_and_residual_range(self, rng):
        for beta in (Fraction(3, 2), Fraction(9, 5), Fraction(7, 4)):
            spec = bf.RationalBeta(beta)
            p = bf.params_rational(spec)
            for _ in range(6):
                s = random_rational(rng)
                n = rng.randrange(1, 12)
                prefix = greedy_oracle(Fraction(2), s, p.sigma(n))
                res = bf.convert_rational(spec, prefix, n)
                assert len(res.bits) == p.N * n
                read = delta_oracle(Fraction(2), prefix[: p.sigma(n)])
                gap = read - delta_oracle(beta, res.bits)
                assert 0 <= gap <= Fraction(1) / beta ** (p.N * n) / (beta - 1)
                assert all(0 <= r <= 1 for r in res.residuals[1:])

    def test_prefix_stability(self, rng):
        spec = bf.RationalBeta(Fraction(7, 4))
        p = bf.params_rational(spec)
        s = Fraction(13, 29)
        prefix = greedy_oracle(Fraction(2), s, p.sigma(9))
        shorter = bf.convert_rational(spec, prefix, 5).bits
        longer = bf.convert_rational(spec, prefix, 9).bits
        assert longer.startswith(shorter)

    def test_chunk_semantics_match_expand(self, rng):
        spec = bf.RationalBeta(Fraction(9, 5))
        p = bf.params_rational(spec)
        s = Fraction(3, 7)
        n = 5
        prefix = greedy_oracle(Fraction(2), s, p.sigma(n))
        res = bf.convert_rational(spec, prefix, n)
        for i in range(n):
            injected = Fraction(9, 5) ** (p.N * i) / (1 << p.sigma(i)) * delta_oracle(
                Fraction(2), prefix[p.sigma(i) : p.sigma(i + 1)]
            )
            chunk, residual = bf.greedy_prefix(spec, res.residuals[i] + injected, p.N)
            assert chunk == res.bits[p.N * i : p.N * (i + 1)]
            assert residual == res.residuals[i + 1]


def assert_same_conversion(beta, prefix, n):
    """convert_rational and the Fraction converter agree on bits, residuals,
    params and schedule, or raise the same typed error with the same message."""
    spec = bf.RationalBeta(beta)
    got = outcome(bf.convert_rational, spec, prefix, n)
    want = outcome(convert_rational_fractions, spec, prefix, n)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    bits, residuals, sigmas = want
    assert isinstance(got, bf.RationalConversion)
    assert (got.bits, got.residuals, got.params) == (bits, residuals, bf.params_rational(spec))
    assert [got.params.sigma(i) for i in range(n + 1)] == sigmas


def rand_bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


class TestAgainstFractionConverter:
    """`oracles.convert_rational_fractions` is the converter as it ran on
    Fractions and fresh powers of beta."""

    @pytest.mark.parametrize("beta", RATIONAL_BASES, ids=str)
    def test_fixed_bases(self, beta, rng):
        p = bf.params_rational(bf.RationalBeta(beta))
        # 101/100 steps 70 digits per chunk, over denominators of up to 28,000 bits
        for _ in range(40 if p.N > 50 else 120):
            n = rng.randrange(0, 61)
            # one prefix in ten is too short by a few bits
            size = p.sigma(n) + (-rng.randrange(1, 4) if n and rng.random() < 0.1 else rng.randrange(0, 8))
            assert_same_conversion(beta, rand_bits(rng, size), n)

    @settings(max_examples=300, deadline=None)
    @given(q=st.integers(2, 64), data=st.data())
    def test_drawn_bases(self, q, data):
        beta = Fraction(data.draw(st.integers(q + 1, 2 * q - 1)), q)
        n = data.draw(st.integers(0, 60))
        size = bf.params_rational(bf.RationalBeta(beta)).sigma(n)
        prefix = data.draw(st.text(alphabet="01", min_size=size, max_size=size + 4))
        assert_same_conversion(beta, prefix, n)

    @pytest.mark.parametrize("beta", [Fraction(3, 2), Fraction(9, 5), Fraction(11, 10)], ids=str)
    def test_eight_hundred_chunks(self, beta, rng):
        size = bf.params_rational(bf.RationalBeta(beta)).sigma(800)
        assert_same_conversion(beta, rand_bits(rng, size), 800)


@settings(max_examples=300, deadline=None)
@given(num=st.integers(1, 1 << 200), den=st.integers(1, 1 << 200), shift=st.integers(-8, 8))
def test_ceil_log2_ratio(num, den, shift):
    # the least m with 2^m * den >= num, against its definition; exact
    # powers of two included: num = den * 2^shift
    for a, b in ((num, den), (den << shift, den) if shift >= 0 else (den, den << -shift)):
        m = _ceil_log2_ratio(a, b)
        assert Fraction(2) ** (m - 1) * b < a <= Fraction(2) ** m * b


class TestErrorParity:
    @pytest.mark.parametrize(
        "beta, prefix, n",
        [
            (Fraction(101, 100), "0101", 2000),  # beta^(N*n) over the bit budget
            (Fraction(3, 2), "0101", 30000),  # short prefix
            (Fraction(3, 2), "01a1", 1),  # not binary
            (Fraction(3, 2), "01a1", -1),  # not binary and n < 0: the bits first
            (Fraction(3, 2), "0101", -1),
            (Fraction(2), "0101", 1),  # outside (1, 2)
        ],
    )
    def test_typed_errors_match_the_fraction_converter(self, beta, prefix, n):
        got = outcome(bf.convert_rational, bf.RationalBeta(beta), prefix, n)
        assert isinstance(got, tuple) and issubclass(got[0], bf.BetaForgeError)
        assert got == outcome(convert_rational_fractions, bf.RationalBeta(beta), prefix, n)

    def test_budget_error_of_the_schedule(self):
        # sigma(i) of 101/100 (N = 70) passes the budget up to i = 1020
        p = bf.params_rational(bf.RationalBeta(Fraction(101, 100)))
        assert p.sigma(1020) == 1020
        with pytest.raises(bf.BudgetExceededError, match=r"^a\^71470 would exceed the 1000000-bit budget$"):
            p.sigma(1021)

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["convert", "--beta", "9/5", "--binary", "1011001110001111", "--chunks", "3", "--json"],
             '{"beta":"9/5","bits":"100101","params":{"N":2,"sigma":[0,5,7,9]},'
             '"steps":["0","171/400","37369/80000","5701879/8000000"]}'),
            (["convert", "--beta", "11/10", "--binary", "1011001110001111", "--chunks", "2", "--json"],
             '{"beta":"11/10","bits":"0000000100000000","params":{"N":8,"sigma":[0,1,2]},'
             '"steps":["0","14358881/200000000","3077953663572161/20000000000000000"]}'),
            (["convert", "--beta", "9/5", "--binary", "1011001110001111", "--chunks", "3"], "100101"),
            (["bounds", "--beta", "3/2", "--n", "40"],
             'rational_params={"N":2,"sigma":[0,3,4,5,6,7,9,10,11,12,13,14,16,17,18,19,20,21,23,24,25,26,27,28,'
             '30,31,32,33,34,35,37,38,39,40,41,42,44,45,46,47,48]}\nstream_params={"C_lower":"1/6","L":8,"N":28}'),
        ],
    )
    def test_pinned_cli_output(self, argv, out):
        assert run_command(argv) == (0, out, "")


class TestStreamParams:
    def test_three_halves_constants(self):
        ps = bf.params_stream(bf.stream_from_exact(B32))
        assert ps.C_lower == Fraction(1, 6)
        assert ps.floor_log2_C == -3
        assert ps.N == 28
        assert ps.L == 8

    def test_three_halves_schedule_confirmed_independently(self):
        # conservative floor 21/20; chunk size is the least m with
        # (21/20)^m >= 2 * (2 - 21/20) / (2 - 3/2) = 19/5
        floor = Fraction(21, 20)
        target = Fraction(19, 5)
        assert floor ** 28 >= target > floor ** 27
        # read-ahead: least L with 2^(L-1) >= 1/((9/10) * C * (beta-1) * (1-log2 beta)^2),
        # certified by rational brackets 116/200 <= log2(3/2) <= 117/200
        assert Fraction(3, 2) ** 200 >= Fraction(2) ** 116
        assert Fraction(3, 2) ** 200 <= Fraction(2) ** 117
        c = Fraction(1, 6)
        arg_lb = Fraction(9, 10) * c * Fraction(1, 2) * (1 - Fraction(117, 200)) ** 2
        arg_ub = Fraction(9, 10) * c * Fraction(1, 2) * (1 - Fraction(116, 200)) ** 2
        assert arg_lb * 2 ** 7 >= 1  # L = 8 suffices
        assert arg_ub * 2 ** 6 < 1  # L = 7 does not

    def test_golden_floor(self, golden):
        gs = bf.stream_from_exact(golden.beta)
        ps = bf.params_stream(gs)
        assert ps.N >= 27 and ps.L >= 9
        assert 0 < ps.C_lower < Fraction(1, 6)

    def test_log2_upper_matches_bisection(self, rng, golden, tribonacci, monkeypatch):
        # the upper brackets params_stream reads, at the real precision
        for preset in (golden, tribonacci):
            hi = bf.stream_from_exact(preset.beta).hi
            assert bf.convert._dyadic_log2_upper(hi) == dyadic_log2_upper_bisection(hi)
        # random rationals on a coarser grid, which the helper reads at call time
        monkeypatch.setattr(bf.convert, "LOG2_PRECISION_BITS", 10)
        checked = 0
        while checked < 100:
            a = random_rational(rng, Fraction(1), Fraction(2))
            if 1 < a < 2:
                assert bf.convert._dyadic_log2_upper(a) == dyadic_log2_upper_bisection(a, 10)
                checked += 1

    def test_brackets_must_leave_room(self):
        with pytest.raises(bf.DomainError):
            bf.StreamBeta(lambda: iter([1]), Fraction(3), Fraction(3))


class TestConvertStream:
    def test_constant_stream_three_halves(self):
        stream = bf.stream_from_exact(B32)
        prefix = greedy_oracle(Fraction(2), Fraction(3, 4), 150)
        res = bf.convert_stream(stream, prefix, 3)
        assert all(d.correction == 0 for d in res.diagnostics)
        assert all(d.ratio == 1 for d in res.diagnostics)
        assert all(a == Fraction(3, 2) for a in res.approximants)
        gap = Fraction(3, 4) - delta_oracle(Fraction(3, 2), res.bits)
        assert 0 <= gap <= Fraction(1) / Fraction(3, 2) ** len(res.bits) / Fraction(1, 2)

    def test_matches_rational_converter_semantics(self, golden, tribonacci):
        # every chunk is the greedy chunk, domain check included, of the
        # carried sum under its approximant: a constant one on 3/2, refined
        # ones on golden and tribonacci; the next residual is the shifted
        # one times the approximant ratio
        prefix = greedy_oracle(Fraction(2), Fraction(2, 7), 600)
        for spec in (B32, golden.beta, tribonacci.beta):
            res = bf.convert_stream(bf.stream_from_exact(spec), prefix, 4 if spec is B32 else 3)
            n_chunk = res.params.N
            for d, after in zip(res.diagnostics, res.diagnostics[1:] + (None,)):
                b = bf.RationalBeta(res.approximants[d.index + 1])
                chunk, shifted = bf.greedy_prefix(b, d.residual + d.injected + d.correction, n_chunk)
                assert chunk == res.bits[n_chunk * d.index : n_chunk * (d.index + 1)]
                assert after is None or after.residual == d.ratio * shifted

    def test_zero_prefix(self):
        stream = bf.stream_from_exact(B32)
        res = bf.convert_stream(stream, "0" * 200, 2)
        assert res.bits == "0" * (2 * res.params.N)

    def test_golden_stream_smoke(self, golden):
        gs = bf.stream_from_exact(golden.beta)
        ps = bf.params_stream(gs)
        s = Fraction(2, 5)
        prefix = greedy_oracle(Fraction(2), s, 200)
        res = bf.convert_stream(gs, prefix, 2)
        err = s - bf.delta_finite(golden.beta, res.bits)
        bound = bf.tail_bound(golden.beta, 2 * ps.N)
        assert bf.exact_cmp(err, bound) <= 0 and bf.exact_cmp(err, -bound) >= 0

    def test_insufficient_beta_bits(self):
        few = bf.beta_from_json({"bits": "10", "lo": "3/2", "hi": "3/2"})
        with pytest.raises(bf.InsufficientBitsError) as ei:
            bf.convert_stream(few, "0" * 200, 1)
        assert ei.value.kind == "beta"
        ps = bf.params_stream(few)
        assert ei.value.required == ps.lam(2)

    def test_insufficient_binary_bits(self):
        stream = bf.stream_from_exact(B32)
        with pytest.raises(bf.InsufficientBitsError) as ei:
            bf.convert_stream(stream, "101", 2)
        assert ei.value.kind == "binary"

    def test_insufficient_binary_bits_names_sigma_n(self):
        prefix = greedy_oracle(Fraction(2), Fraction(5, 11), 600)
        for n in (1, 2, 7, 30):
            need = bf.convert_stream(bf.stream_from_exact(B32), prefix, n).sigmas[n]
            with pytest.raises(bf.InsufficientBitsError) as ei:
                bf.convert_stream(bf.stream_from_exact(B32), prefix[: need - 1], n)
            assert (ei.value.kind, ei.value.required) == ("binary", need)

    def test_prefix_stability(self):
        stream1 = bf.stream_from_exact(B32)
        stream2 = bf.stream_from_exact(B32)
        prefix = greedy_oracle(Fraction(2), Fraction(5, 11), 200)
        a = bf.convert_stream(stream1, prefix, 2).bits
        b = bf.convert_stream(stream2, prefix, 3).bits
        assert b.startswith(a)

    def test_inconsistent_brackets_detected(self):
        # stream claims beta >= 1.6 but its bits say beta = 1.5
        bad = bf.beta_from_json({"bits": "1" + "0" * 400, "lo": "8/5", "hi": "17/10"})
        with pytest.raises(bf.InvariantViolation):
            bf.convert_stream(bad, "0" * 400, 2)

    def test_bits_past_the_upper_bracket(self):
        bad = bf.beta_from_json({"bits": "1" * 400, "lo": "3/2", "hi": "8/5"})
        with pytest.raises(bf.InvariantViolation, match="^approximants not nondecreasing within brackets: "):
            bf.convert_stream(bad, "0" * 400, 2)

    def test_first_approximant_below_the_floor(self):
        # 1 + 2^-7 lies below the floor 1 + (lo - 1)/10 = 21/20, and so
        # more than 2^-L below lo: the lower bracket check refuses it
        bad = bf.beta_from_json({"bits": "0000001" + "0" * 400, "lo": "3/2", "hi": "8/5"})
        assert 1 + Fraction(1, 1 << 7) < 1 + (Fraction(3, 2) - 1) / 10
        with pytest.raises(bf.InvariantViolation, match="stream bits inconsistent with brackets$"):
            bf.convert_stream(bad, "0" * 400, 2)

    @pytest.mark.parametrize("step", [0, 1])
    def test_chunk_cut_is_the_next_approximant(self, step):
        # beta - 1 reads as 3/5 = 0.(1001) up to bit lam(step) and as ones
        # after it, so 8/5 lies between the approximants a_step and
        # a_(step+1), and the first chunk's value 5/8 between their cuts: the
        # greedy chunk against 1/a_1 starts with 1 - step, one against the
        # cut of a_0 (step 0) or a_2 (step 1) with step
        lo, hi = "3/2", "13/8"
        params = bf.params_stream(bf.beta_from_json({"bits": "", "lo": lo, "hi": hi}))
        jump = params.lam(step)
        bits = ("1001" * jump)[:jump] + "1" * (params.lam(3) - jump)
        res = bf.convert_stream(bf.beta_from_json({"bits": bits, "lo": lo, "hi": hi}), "101" + "0" * 300, 2)
        a = res.approximants
        assert a[step] < Fraction(8, 5) <= a[step + 1]
        assert res.diagnostics[0].injected == Fraction(5, 8)
        chunk = res.bits[: params.N]
        assert chunk == bf.greedy_expand(bf.RationalBeta(a[1]), Fraction(5, 8), params.N)
        assert chunk[0] == str(1 - step)


def test_algebraic_brackets_ignore_process_history(golden, tribonacci):
    """Stream brackets, schedules, bits and the sweep's width bound are the
    same before and after the shared enclosure is refined, and equal to the
    values of a context that never ran anything."""
    prefix = greedy_oracle(Fraction(2), Fraction(5, 7), 600)

    def observe(specs):
        out = []
        for spec in specs:
            stream = bf.stream_from_exact(spec)
            res = bf.convert_stream(stream, prefix, 2)
            out.append((stream.lo, stream.hi, res.params, res.bits))
        out.append(bf.m_beta_fast(specs[0], "1011", golden.bounds)[1])
        return out

    presets = [golden.beta, tribonacci.beta]
    before = observe(presets)
    for spec in presets:
        float(spec.element())
        spec.ctx.refine(Fraction(1, 1 << 256))
    after = observe(presets)
    unused = observe([bf.AlgebraicBeta(bf.NumberFieldContext(s.ctx.minpoly, s.ctx.isolating)) for s in presets])
    assert before == after == unused
    assert before[0][2].C_lower == Fraction(10079425698833, 97853120206746)
    assert before[1][2].C_lower == Fraction(113091892082969, 3543573298162026)
    assert before[2].pisot_width_bound == Fraction(629145600, 147756673)
