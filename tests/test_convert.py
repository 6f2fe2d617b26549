import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betaforge as bf
from betaforge.cli import run_command
from betaforge.numerics import _ceil_log2_ratio
from conftest import RATIONAL_BASES, outcome, random_rational
from oracles import (
    convert_rational_fractions,
    convert_stream_fractions,
    delta_oracle,
    dyadic_log2_upper_bisection,
    greedy_oracle,
    stream_digits_fractions,
)

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
        with pytest.raises(bf.DomainError, match=r"^stream view needs beta strictly inside \(1, 2\)$"):
            bf.stream_from_exact(bf.RationalBeta(Fraction(2)))

    def test_schedule_index_nonnegative(self):
        with pytest.raises(bf.DomainError, match="^schedule index must be nonnegative$"):
            bf.params_rational(bf.RationalBeta(Fraction(3, 2))).sigma(-1)

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

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 50, 200])
    @pytest.mark.parametrize("beta", [Fraction(3, 2), Fraction(9, 5), Fraction(7, 4), Fraction(5, 3), Fraction(101, 100)], ids=str)
    def test_named_bases(self, beta, n, rng):
        size = bf.params_rational(bf.RationalBeta(beta)).sigma(n)
        for prefix in (rand_bits(rng, size), "1" * size, "0" * size):
            assert_same_conversion(beta, prefix, n)


def c03_prefixes():
    """The binary prefixes of acceptance criterion 3: greedy binary digits
    of 3/4 (200 of them) and of 20 seeded random values (600 each)."""
    rng = random.Random(3)
    two = bf.RationalBeta(Fraction(2))
    out = [bf.greedy_expand(two, Fraction(3, 4), 200)]
    for _ in range(20):
        den = rng.randrange(1, 1 << 20)
        out.append(bf.greedy_expand(two, Fraction(rng.randrange(0, den + 1), den), 600))
    return out


def test_cli_convert_matches_the_fraction_converter(monkeypatch):
    """`convert` prints the same bytes, plain and --json, with the package's
    converter and with the Fraction converter behind it, on the c03 prefixes."""

    used = []

    def fraction_converter(beta, prefix, n):
        used.append(n)
        bits, residuals, _ = convert_rational_fractions(beta, prefix, n)
        return bf.RationalConversion(bits, residuals, bf.params_rational(beta))

    calls = [
        ["convert", "--beta", beta, "--binary", prefix, "--chunks", chunks] + json
        for beta in ("3/2", "9/5", "7/4", "5/3")
        for prefix in c03_prefixes()
        for chunks in ("3", "4", "40")
        for json in ([], ["--json"])
    ]
    got = [run_command(argv) for argv in calls]
    # the handler looks the converter up in `betaforge.convert` at call time
    monkeypatch.setattr(bf.convert, "convert_rational", fraction_converter)
    want = [run_command(argv) for argv in calls]
    assert len(used) == len(calls)
    assert got == want
    assert all(status == 0 for status, _, _ in got)


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

    def test_long_upper_bracket_is_rounded_before_the_power(self, monkeypatch):
        # hi with 200-digit terms; uncapped, its 2^16-th power took minutes
        hi = "1" + "7" * 200 + "/1" + "0" * 200
        base = '{"bits": "1011", "lo": "3/2", "hi": "%s"}' % hi
        t0 = time.perf_counter()
        status, out, err = run_command(["bounds", "--beta", base])
        assert time.perf_counter() - t0 < 5
        assert (status, err) == (0, "") and out.startswith('stream_params={"C_lower":"2222')
        # still an upper bound, within one grid step of the exact one
        monkeypatch.setattr(bf.convert, "LOG2_PRECISION_BITS", 10)
        exact = dyadic_log2_upper_bisection(Fraction(hi), 10)
        assert exact <= bf.convert._dyadic_log2_upper(Fraction(hi)) <= exact + Fraction(1, 1 << 10)

    def test_brackets_must_leave_room(self):
        with pytest.raises(bf.DomainError):
            bf.StreamBeta(lambda: iter([1]), Fraction(3), Fraction(3))


class TestConvertStream:
    def test_negative_chunk_count(self):
        stream = bf.stream_from_exact(bf.RationalBeta(Fraction(3, 2)))
        with pytest.raises(bf.DomainError, match="^chunk count must be nonnegative$"):
            bf.convert_stream(stream, "0101", -1)

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

    def test_stream_digits_must_be_0_or_1(self):
        def stream(digits):
            return bf.StreamBeta(lambda: iter(digits), Fraction(3, 2), Fraction(3, 2))

        with pytest.raises(bf.DomainError, match="^stream digit 0 is '1', not 0 or 1$"):
            bf.convert_stream(stream("1" + "0" * 200), "0101", 1)
        with pytest.raises(bf.DomainError, match="^stream digit 3 is 2, not 0 or 1$"):
            bf.convert_stream(stream([1, 0, 0, 2] + [0] * 200), "0101", 1)
        ints = bf.convert_stream(stream([1] + [0] * 200), "0101" * 20, 2)
        assert bf.convert_stream(stream([True] + [False] * 200), "0101" * 20, 2) == ints

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

    @pytest.mark.parametrize("bits, lo, hi", [
        ("1" + "0" * 400, "8/5", "17/10"),
        ("1" * 400, "3/2", "8/5"),
        ("0000001" + "0" * 400, "3/2", "8/5"),
        ("1" + "0" * 40 + "1" * 360, "3/2", "3/2"),
        ("0" * 401, "3/2", "8/5"),
    ])
    def test_approximant_refusals_match_the_fraction_converter(self, bits, lo, hi):
        # the checks cross-multiply integers; the messages print the same Fractions
        bad = bf.beta_from_json({"bits": bits, "lo": lo, "hi": hi})
        got = outcome(bf.convert_stream, bad, "0" * 400, 2)
        assert got[0] is bf.InvariantViolation
        assert got == outcome(convert_stream_fractions, bad, "0" * 400, 2)

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


def assert_same_stream_conversion(beta, prefix, n):
    """convert_stream and the Fraction converter agree on every field, each
    StepDiagnostics field included, or raise the same typed error with the
    same message."""
    got = outcome(bf.convert_stream, beta, prefix, n)
    want = outcome(convert_stream_fractions, beta, prefix, n)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, bf.StreamConversion)
    for field in ("bits", "params", "approximants", "sigmas"):
        assert getattr(got, field) == getattr(want, field), field
    assert len(got.diagnostics) == len(want.diagnostics) == max(n, 0)
    for d, e in zip(got.diagnostics, want.diagnostics):
        for field in dataclasses.fields(bf.StepDiagnostics):
            assert getattr(d, field.name) == getattr(e, field.name), (d.index, field.name)
            assert type(getattr(d, field.name)) is type(getattr(e, field.name))


@pytest.fixture
def shared_params(monkeypatch):
    """One `params_stream` per pair of brackets, on which alone it depends,
    for both converters: the presets' schedules take a 2^16-th power each."""
    real, cache = bf.convert.params_stream, {}

    def params_stream(beta):
        key = beta.lo, beta.hi
        if key not in cache:
            cache[key] = real(beta)
        return cache[key]

    monkeypatch.setattr(bf.convert, "params_stream", params_stream)
    monkeypatch.setattr(bf, "params_stream", params_stream)


class TestAgainstFractionStreamConverter:
    """`oracles.convert_stream_fractions` is the stream converter as it ran
    on Fractions, re-reading the emitted word against each approximant."""

    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(2, (1 << 12) - 2), data=st.data())
    def test_drawn_rational_bases(self, q, data):
        p = data.draw(st.integers(q + 1, min(2 * q - 1, (1 << 12) - 1)))
        n = data.draw(st.integers(0, 8))
        prefix = data.draw(st.text(alphabet="01", min_size=0, max_size=500))
        assert_same_stream_conversion(bf.stream_from_exact(bf.RationalBeta(Fraction(p, q))), prefix, n)

    @pytest.mark.parametrize("beta", ["3/2", "9/5", "7/4"])
    def test_named_rational_bases(self, beta, rng):
        stream = bf.stream_from_exact(bf.RationalBeta(Fraction(beta)))
        for n in range(11):
            assert_same_stream_conversion(stream, rand_bits(rng, 800), n)

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "sqrt2", "cbrt2"])
    def test_presets(self, name, rng, shared_params):
        stream = bf.stream_from_exact(bf.get_preset(name).beta)
        prefix = rand_bits(rng, 800)
        for n in range(11):
            assert_same_stream_conversion(stream, prefix, n)

    @pytest.mark.parametrize("bits, lo, hi", [
        ("1" + "0" * 400, "3/2", "3/2"),  # finite: 3/2 exactly
        ("11" + "0" * 400, "3/2", "15/8"),
        ("1001" * 100, "3/2", "13/8"),
        ("1" + "0" * 400, "8/5", "17/10"),  # bits below the lower bracket
        ("1" * 400, "3/2", "8/5"),  # bits past the upper bracket
        ("0000001" + "0" * 400, "3/2", "8/5"),  # first approximant below the floor
        ("10", "3/2", "3/2"),  # too short
        ("1001" * 10, "3/2", "13/8"),
    ])
    def test_json_stream_bases(self, bits, lo, hi, rng):
        beta = bf.beta_from_json({"bits": bits, "lo": lo, "hi": hi})
        for n in range(6):
            for prefix in (rand_bits(rng, 600), "1" * 600, "0" * 600, "01"):
                assert_same_stream_conversion(beta, prefix, n)

    def test_cli_matches_on_the_c03_prefixes(self, monkeypatch, shared_params):
        """`convert-stream` prints the same bytes, plain and --json, with the
        package's converter and with the Fraction converter behind it."""
        calls = [
            ["convert-stream", "--beta", beta, "--binary", prefix, "--chunks", chunks] + json_flag
            for beta in ("3/2", "9/5", "7/4", "golden")
            for prefix in c03_prefixes()[:6]
            for chunks in ("1", "4")
            for json_flag in ([], ["--json"])
        ]
        got = [run_command(argv) for argv in calls]
        used = []

        def fraction_converter(beta, prefix, n):
            used.append(n)
            return convert_stream_fractions(beta, prefix, n)

        monkeypatch.setattr(bf.convert, "convert_stream", fraction_converter)
        assert got == [run_command(argv) for argv in calls]
        assert len(used) == len(calls)
        assert all(status == 0 for status, _, _ in got)

    def test_rational_digits_match_the_fraction_generator(self):
        rng = random.Random(200)
        for _ in range(200):
            b = 1 + random_rational(rng, Fraction(0), Fraction(1), den_bits=rng.choice([4, 12, 40]))
            if not 1 < b < 2:
                continue
            got = itertools.islice(bf.stream_from_exact(bf.RationalBeta(b)).bit_factory(), 2000)
            assert list(got) == list(itertools.islice(stream_digits_fractions(b), 2000))

    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(3, 1 << 40), e=st.integers(1, 40), bits=st.text(alphabet="01", max_size=80))
    def test_word_numerator(self, p, e, bits):
        p |= 1
        if p <= 1 << e:
            p += 1 << e
        h = bf.convert._word_numerator(p, e, bits)
        assert Fraction(h, p ** len(bits)) == bf.expand._word_value(Fraction(p, 1 << e), bits)


class TestStreamDigitsUnderTheBudget:
    """The budget refuses a_(n+1)^(N*n) while the base digits are drawn."""

    def counted(self, digits, lo="3/2", hi="3/2"):
        drawn = []

        def factory():
            for d in digits():
                drawn.append(d)
                yield d

        return bf.StreamBeta(factory, Fraction(lo), Fraction(hi)), drawn

    def test_refused_at_the_first_one_past_the_budget(self):
        # 3/2 (N = 28): a 1 at digit t charges 28*n*(2t + 2) bits
        beta, drawn = self.counted(lambda: itertools.chain([1], itertools.repeat(0)))
        with pytest.raises(bf.BudgetExceededError, match=r"^a\^560000 would exceed the 1000000-bit budget$"):
            bf.convert_stream(beta, "0101", 20000)
        assert len(drawn) == 1
        # at n = 8928 a lone leading 1 passes (28 * 8928 * 4 <= 10^6), a second 1 at digit 2 does not
        beta, drawn = self.counted(lambda: itertools.chain([1, 1], itertools.repeat(0)))
        with pytest.raises(bf.BudgetExceededError, match=r"^a\^249984 would exceed the 1000000-bit budget$"):
            bf.convert_stream(beta, "0101", 8928)
        assert len(drawn) == 2

    def test_same_message_as_after_the_whole_draw(self):
        # golden at 26 chunks fails the budget only on the digits past the
        # first 1s, so the refusal comes where the old full draw put it
        golden = bf.stream_from_exact(bf.get_preset("golden").beta)
        for n in (26, 27, 40):
            assert outcome(bf.convert_stream, golden, "0101", n) == outcome(convert_stream_fractions, golden, "0101", n)

    @pytest.mark.parametrize("digits, old", [
        ("10", bf.InsufficientBitsError),  # short
        ("12" + "0" * 10, bf.InsufficientBitsError),  # short and invalid
        ("21" + "0" * 10, bf.InsufficientBitsError),
    ])
    def test_short_or_invalid_streams_with_huge_counts(self, digits, old):
        """Streams that the full draw refused as short or invalid now meet the
        budget first, at a 1 that no a_(n+1) could carry."""
        beta = bf.StreamBeta(lambda: iter(int(c) for c in digits), Fraction(3, 2), Fraction(3, 2))
        assert outcome(convert_stream_fractions, beta, "0101", 20000)[0] is old
        with pytest.raises(bf.BudgetExceededError, match=r"^a\^560000 would exceed the 1000000-bit budget$"):
            bf.convert_stream(beta, "0101", 20000)

    def test_invalid_digit_is_still_named_below_the_budget(self):
        beta = bf.StreamBeta(lambda: itertools.chain([1, 0, 2], itertools.repeat(0)), Fraction(3, 2), Fraction(3, 2))
        with pytest.raises(bf.DomainError, match="^stream digit 2 is 2, not 0 or 1$"):
            bf.convert_stream(beta, "0101", 3)


def patch_params(monkeypatch, name, **change):
    """Make bf.convert.<name> return its schedule with each field in
    `change` replaced by that function of its unpatched value."""
    real = getattr(bf.convert, name)

    def patched(beta):
        p = real(beta)
        return dataclasses.replace(p, **{k: f(getattr(p, k)) for k, f in change.items()})

    monkeypatch.setattr(bf.convert, name, patched)


def patch_rational_chunks(monkeypatch, change):
    """Make every converter chunk return change(chunk, x, den) in place of
    the integer orbit core's (chunk, x, den)."""
    real = bf.convert._rational_orbit
    monkeypatch.setattr(bf.convert, "_rational_orbit", lambda *args: change(*real(*args)))


class TestInvariantViolations:
    """Every certificate check of the two converters, each reached by
    breaking one schedule parameter or one step."""

    def test_rational_carried_sum(self, monkeypatch):
        # sigma(i) = i reads too few bits, so the injections outgrow the cap
        patch_params(monkeypatch, "params_rational", sigma_offset=lambda _: -100)
        with pytest.raises(bf.InvariantViolation, match=(
            r"^step 5: carried sum 103575/65536 outside \[0, 3/2\]; "
            r"residual=22263/32768 injected=59049/65536 beta=3/2$"
        )):
            bf.convert_rational(B32, "1" * 40, 30)

    def test_rational_residual(self, monkeypatch):
        patch_rational_chunks(monkeypatch, lambda chunk, x, den: (chunk, x + 2 * den, den))
        with pytest.raises(bf.InvariantViolation, match=r"^step 0: residual 79/32 left \[0, 1\]$"):
            bf.convert_rational(B32, "1" * 40, 3)

    @pytest.mark.parametrize("x, residual", [(0, Fraction(0)), (32, Fraction(1)), (33, None), (-1, None)])
    def test_rational_residual_ends(self, x, residual, monkeypatch):
        # one chunk of 3/2 leaves its residual over 2^sigma(1) * q^N = 32
        patch_rational_chunks(monkeypatch, lambda chunk, _, den: (chunk, x, den))
        if residual is None:
            with pytest.raises(bf.InvariantViolation, match=rf"^step 0: residual {x}/32 left \[0, 1\]$"):
                bf.convert_rational(B32, "110", 1)
        else:
            assert bf.convert_rational(B32, "110", 1).residuals[1] == residual

    @pytest.mark.parametrize("x", [10, 11])
    def test_rational_carried_sum_at_the_cap(self, x, monkeypatch):
        # with sigma(i) = i, 5/3 (cap 5/4) injects 25/36 at step 1 from the
        # bit "1"; a step-0 residual of 10/18 puts the carried sum exactly on
        # the cap, and 11/18 one residual unit above it
        patch_params(monkeypatch, "params_rational", sigma_offset=lambda _: -100)
        first = iter([x])
        patch_rational_chunks(monkeypatch, lambda chunk, got, den: (chunk, next(first, got), den))
        beta = bf.RationalBeta(Fraction(5, 3))
        if x == 10:
            assert bf.convert_rational(beta, "11", 2).residuals[1:] == (Fraction(5, 9), Fraction(29, 36))
        else:
            with pytest.raises(bf.InvariantViolation, match=(
                r"^step 1: carried sum 47/36 outside \[0, 5/4\]; residual=11/18 injected=25/36 beta=5/3$"
            )):
                bf.convert_rational(beta, "11", 2)

    def test_stream_schedule_monotonicity(self, monkeypatch, golden):
        patch_params(monkeypatch, "params_stream", floor_log2_C=lambda c: c + 1000)
        with pytest.raises(bf.InvariantViolation, match=r"^binary read schedule not strictly increasing: \[0, -977, -958\]$"):
            bf.convert_stream(bf.stream_from_exact(golden.beta), "1" * 600, 2)

    @pytest.mark.parametrize("check, step, breaks", [
        # sigma(i) one bit short for i >= 1
        ("injected increment outside its cap", 1,
         lambda mp: patch_params(mp, "params_stream", floor_log2_C=lambda c: c + 1)),
        # every word value, the reread of the emitted word included, 1 too low
        (r"correction outside \[0, C\]", 0,
         lambda mp: mp.setattr(bf.convert, "_word_numerator", lambda p, e, bits, real=bf.convert._word_numerator:
                               real(p, e, bits) - p ** len(bits))),
        (r"carried residual outside \[0, 1 \+ C\]", 1,
         lambda mp: patch_rational_chunks(mp, lambda chunk, x, den: (chunk, x + 2 * den, den))),
        # too few base digits read up front
        ("approximant not tightening fast enough", 1,
         lambda mp: patch_params(mp, "params_stream", L=lambda _: 1)),
        # no room for any refinement of the approximant
        (r"approximant ratio outside \[1, 1 \+ C\]", 0,
         lambda mp: patch_params(mp, "params_stream", C_lower=lambda _: Fraction(0))),
        ("emitted word drifted from the binary prefix", 0,
         lambda mp: patch_rational_chunks(mp, lambda chunk, x, den: ("0" * len(chunk), x, den))),
    ], ids=["injected", "correction", "residual", "rate", "ratio", "drift"])
    def test_stream_step_checks(self, check, step, breaks, monkeypatch, golden):
        breaks(monkeypatch)
        # the state dump of `fail` follows the check's name
        with pytest.raises(bf.InvariantViolation, match=(
            rf"^{check}; step {step}: residual~\S+ injected~\S+ correction~\S+ "
            r"approximants=\[[0-9., ]+\] sigmas=\[0, \d+, \d+\]$"
        )):
            bf.convert_stream(bf.stream_from_exact(golden.beta), "1" * 600, 2)


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
