from fractions import Fraction

import pytest

import betaforge as bf
from conftest import random_rational
from oracles import adc_oracle, branch_indices_scan

B32 = bf.RationalBeta(Fraction(3, 2))
B2 = bf.RationalBeta(Fraction(2))
B74 = bf.RationalBeta(Fraction(7, 4))


def golden_exact_band(golden):
    # [t - eps, t + eps] equals the switch region [1/G, 1] exactly
    g = golden.beta.element()
    inv = g.inverse()
    t = (inv + 1) / 2
    eps = (1 - inv) / 2
    return bf.Quantizer(t, eps)


class TestValidateQuantizer:
    def test_golden_exact_band(self, golden):
        q = golden_exact_band(golden)
        assert bf.validate_quantizer(golden.beta, q).valid

    def test_binary_band_invalid(self):
        check = bf.validate_quantizer(B2, bf.Quantizer(Fraction(1, 2), Fraction(1, 100)))
        assert not check.valid
        assert check.reason

    def test_three_halves_band(self):
        assert bf.validate_quantizer(B32, bf.Quantizer(Fraction(1), Fraction(1, 4))).valid

    def test_negative_band_rejected(self):
        with pytest.raises(bf.DomainError, match="^quantizer uncertainty must be nonnegative$"):
            bf.Quantizer(Fraction(1), Fraction(-1, 4))

    def test_reason_pinpoints_endpoint(self):
        low = bf.validate_quantizer(B32, bf.Quantizer(Fraction(2, 3), Fraction(1, 10)))
        assert not low.valid and "lower" in low.reason
        high = bf.validate_quantizer(B32, bf.Quantizer(Fraction(13, 10), Fraction(1, 10)))
        assert not high.valid and "upper" in high.reason


class TestAdcRun:
    def test_valid_run_stays_accurate(self):
        q = bf.Quantizer(Fraction(1), Fraction(1, 4))
        rec = bf.adc_run(B32, q, Fraction(3, 4), 20, bf.BitStream.constant(1))
        assert not rec.fault
        gap = Fraction(3, 4) - bf.delta_finite(B32, rec.bits)
        assert abs(gap) <= bf.tail_bound(B32, 20)

    def test_zero_input(self, golden):
        q = golden_exact_band(golden)
        rec = bf.adc_run(golden.beta, q, Fraction(0), 10, bf.BitStream.constant(1))
        assert rec.bits == "0" * 10
        assert rec.switch_indices == ()
        assert rec.consumed_tosses == ""

    def test_constructed_binary_failure(self):
        # an out-of-band toss at the first step pushes the residual to 11/10
        q = bf.Quantizer(Fraction(1, 2), Fraction(1, 10))
        rec = bf.adc_run(B2, q, Fraction(11, 20), 20, bf.BitStream.constant(0))
        assert rec.fault
        assert 0 in rec.fault_indices
        gap = abs(Fraction(11, 20) - bf.delta_finite(B2, rec.bits))
        assert gap > bf.tail_bound(B2, 20)

    def test_switch_indices_match_trajectory(self, golden):
        q = golden_exact_band(golden)
        rec = bf.adc_run(golden.beta, q, Fraction(1), 6, bf.BitStream.from_bits("101011"))
        assert rec.bits == "101011"
        assert rec.switch_indices == (0, 1, 2, 3, 4, 5)
        assert rec.consumed_tosses == "101011"

    def test_adversarial_suites_stay_valid(self, rng, golden):
        streams = [bf.BitStream.constant(0), bf.BitStream.constant(1), bf.BitStream.alternating()]
        cases = [(B32, bf.Quantizer(Fraction(1), Fraction(1, 4))), (golden.beta, golden_exact_band(golden))]
        for spec, q in cases:
            for mk in range(len(streams)):
                s = random_rational(rng)
                n = 14
                for stream in (
                    bf.BitStream.constant(0),
                    bf.BitStream.constant(1),
                    bf.BitStream.alternating(),
                    bf.BitStream.from_bits(format(rng.getrandbits(n), f"0{n}b")),
                ):
                    rec = bf.adc_run(spec, q, s, n, stream)
                    assert not rec.fault
                    gap = s - bf.delta_finite(spec, rec.bits)
                    tail = bf.tail_bound(spec, n)
                    assert bf.exact_cmp(gap, tail) <= 0 and bf.exact_sign(gap) >= 0


class TestExtractTosses:
    def test_golden_full_branching(self, golden):
        words = bf.enumerate_expansions(golden.beta, Fraction(1), 6)
        assert bf.extract_tosses(golden.beta, words, "101011") == "101011"

    def test_no_branches(self):
        assert bf.extract_tosses(B32, ["0000"], "0000") == ""

    def test_membership_required(self, golden):
        words = bf.enumerate_expansions(golden.beta, Fraction(1), 4)
        with pytest.raises(bf.DomainError, match="^word is not a member of the given prefix set$"):
            bf.extract_tosses(golden.beta, words, "0000")

    def test_injective_on_prefix_set(self, golden):
        words = bf.enumerate_expansions(golden.beta, Fraction(1), 6)
        tosses = [bf.extract_tosses(golden.beta, words, x) for x in words]
        assert len(set(tosses)) == len(words)

    def test_round_trip_with_random_expand(self, rng, golden):
        for spec in (B32, golden.beta):
            for _ in range(25):
                s = random_rational(rng)
                n = rng.randrange(2, 13)
                bits = format(rng.getrandbits(n), f"0{n}b")
                word, trace = bf.random_expand(spec, s, n, bf.BitStream.from_bits(bits))
                words = bf.enumerate_expansions(spec, s, n)
                consumed = "".join(str(t.toss_consumed) for t in trace if t.in_switch)
                assert bf.extract_tosses(spec, words, word) == consumed
                assert bf.replay_tosses(spec, s, word) == consumed
                # branch positions equal the switch visits of the trajectory
                assert bf.branch_indices(words, word) == tuple(t.index for t in trace if t.in_switch)

    def test_round_trip_with_adc(self, rng, golden):
        q_cases = [(B32, bf.Quantizer(Fraction(1), Fraction(1, 3))), (golden.beta, golden_exact_band(golden))]
        for spec, q in q_cases:
            for _ in range(15):
                s = random_rational(rng)
                n = rng.randrange(2, 13)
                bits = format(rng.getrandbits(n), f"0{n}b")
                rec = bf.adc_run(spec, q, s, n, bf.BitStream.from_bits(bits))
                words = bf.enumerate_expansions(spec, s, n)
                assert bf.extract_tosses(spec, words, rec.bits) == rec.consumed_tosses
                assert bf.branch_indices(words, rec.bits) == rec.switch_indices

    def test_switch_count_recursion(self, rng, golden):
        # visits can only accumulate one at a time as the horizon grows
        s = random_rational(rng)
        q = golden_exact_band(golden)
        prev = 0
        for n in range(1, 14):
            rec = bf.adc_run(golden.beta, q, s, n, bf.BitStream.alternating())
            h = len(rec.switch_indices)
            assert h - prev in (0, 1)
            assert h <= n
            prev = h


class TestBranchIndicesAgainstScan:
    """The bisection over the sorted members against `branch_indices_scan`,
    the comparison of x with every member."""

    @staticmethod
    def outcome(f, *args):
        try:
            return f(*args)
        except bf.DomainError as e:
            return ("DomainError", str(e))

    def assert_matches_scan(self, spec, words, x):
        expected = self.outcome(branch_indices_scan, words, x)
        assert self.outcome(bf.branch_indices, words, x) == expected
        tosses = expected if "DomainError" in expected else "".join(x[i] for i in expected)
        assert self.outcome(bf.extract_tosses, spec, words, x) == tosses

    def test_random_sets(self, rng):
        # shuffled, duplicated, mixed-length members; x a member or absent
        def word(k):
            return "".join(rng.choice("01") for _ in range(k))

        absent = 0
        for _ in range(400):
            words = [word(rng.randrange(0, 10)) for _ in range(rng.randrange(1, 12))]
            words += rng.sample(words, rng.randrange(0, len(words) + 1))
            rng.shuffle(words)
            x = rng.choice(words) if rng.random() < 0.6 else word(rng.randrange(0, 9))
            absent += x not in words
            self.assert_matches_scan(B32, words, x)
        assert absent >= 50

    def test_every_member_of_real_prefix_sets(self, rng, golden, tribonacci):
        for spec in (golden.beta, tribonacci.beta, B32, B74):
            for n in range(1, 15):
                for s in (Fraction(1), random_rational(rng), random_rational(rng)):
                    words = bf.enumerate_expansions(spec, s, n)
                    shuffled = rng.sample(words, len(words))
                    for x in words:
                        self.assert_matches_scan(spec, words, x)
                        self.assert_matches_scan(spec, shuffled, x)

    def test_member_that_is_a_prefix_of_x(self):
        # "01" shares x's first two digits and then ends: no branch there
        assert bf.branch_indices(["0111", "01"], "0111") == ()
        assert bf.extract_tosses(B32, ["0111", "01"], "0111") == ""
        assert bf.branch_indices(["0111", "01", "00"], "0111") == (1,)


class TestAdcFaults:
    def test_every_field_matches_post_step_clamp(self, rng):
        faulting = 0
        for beta in (Fraction(3, 2), Fraction(7, 4), Fraction(2)):
            spec = bf.RationalBeta(beta)
            lo, hi, top = 1 / beta, 1 / (beta * (beta - 1)), 1 / (beta - 1)
            for k in range(80):
                # odd k: a sound band inside the switch region; even k: any band
                span = (lo, hi) if k % 2 else (Fraction(0), top)
                a, b = sorted(random_rational(rng, *span) for _ in range(2))
                q = bf.Quantizer((a + b) / 2, (b - a) / 2)
                s = random_rational(rng, Fraction(0), top)
                n = rng.randrange(1, 40)
                tosses = format(rng.getrandbits(n), f"0{n}b")
                rec = bf.adc_run(spec, q, s, n, bf.BitStream.from_bits(tosses))
                fields = (rec.bits, rec.switch_indices, rec.consumed_tosses, rec.residual, rec.fault, rec.fault_indices)
                assert fields == adc_oracle(beta, q.t, q.eps, s, n, tosses)
                assert isinstance(rec.residual, Fraction)
                if k % 2:
                    assert not rec.fault
                faulting += rec.fault
        assert faulting >= 20

    def test_clamped_residual_and_bits_after_fault(self):
        # 11/20 at base 2 with a zero toss faults at once; the residual is
        # clamped to 1 = 1/(beta-1) and the device keeps emitting ones
        q = bf.Quantizer(Fraction(1, 2), Fraction(1, 10))
        rec = bf.adc_run(B2, q, Fraction(11, 20), 6, bf.BitStream.constant(0))
        assert (rec.bits, rec.fault_indices, rec.residual) == ("011111", (0,), Fraction(1))
        # a one emitted below the switch region clamps to 0
        q = bf.Quantizer(Fraction(1, 4), Fraction(1, 4))
        rec = bf.adc_run(B32, q, Fraction(1, 3), 3, bf.BitStream.constant(1))
        assert (rec.bits, rec.fault_indices, rec.residual) == ("111", (0, 1, 2), Fraction(0))

    def test_field_base_faults_land_on_interval_ends(self, golden):
        b = golden.beta.element()
        q = bf.Quantizer(Fraction(1, 4), Fraction(1, 4))
        rec = bf.adc_run(golden.beta, q, Fraction(1, 3), 2, bf.BitStream.constant(1))
        assert rec.fault_indices == (0, 1) and rec.residual.is_zero()
        q = bf.Quantizer(Fraction(3, 2), Fraction(1, 10))
        rec = bf.adc_run(golden.beta, q, Fraction(3, 2), 1, bf.BitStream.constant(0))
        assert rec.fault_indices == (0,) and rec.residual == (b - 1).inverse()


class TestReplayTosses:
    def test_equals_extraction_on_every_member(self, rng, golden):
        for spec in (B32, golden.beta):
            for _ in range(10):
                s = random_rational(rng)
                words = bf.enumerate_expansions(spec, s, rng.randrange(1, 11))
                for x in words:
                    assert bf.replay_tosses(spec, s, x) == bf.extract_tosses(spec, words, x)

    def test_membership_and_bits_required(self, golden):
        with pytest.raises(bf.DomainError, match="not a member of the given prefix set"):
            bf.replay_tosses(golden.beta, Fraction(1), "0000")
        with pytest.raises(bf.DomainError, match="bitstring"):
            bf.replay_tosses(golden.beta, Fraction(1), "10a1")
        assert bf.replay_tosses(golden.beta, Fraction(1), "") == ""

    def test_long_words(self, rng, golden):
        # far beyond any enumerable prefix set: the replay is one pass
        n = 1000
        for spec in (B32, golden.beta):
            toss_bits = format(rng.getrandbits(n), f"0{n}b")
            stream = bf.BitStream.from_bits(toss_bits)
            word, _ = bf.random_expand(spec, Fraction(1, 3), n, stream)
            assert bf.replay_tosses(spec, Fraction(1, 3), word) == toss_bits[: stream.consumed]


class TestPipeline:
    def test_idempotent_on_canonical(self, golden):
        q = golden_exact_band(golden)
        res = bf.denoise_pipeline(golden.beta, q, Fraction(3, 4), 12, bf.BitStream.constant(1), golden.bounds)
        again, _ = bf.m_beta_fast(golden.beta, res.canonical, golden.bounds)
        assert again == res.canonical

    def test_adversarial_zero_tosses(self, golden):
        q = golden_exact_band(golden)
        res = bf.denoise_pipeline(golden.beta, q, Fraction(3, 4), 30, bf.BitStream.constant(0), golden.bounds)
        assert res.canonical >= res.raw
        assert bf.equiv(golden.beta, res.raw, res.canonical)
        gap = Fraction(3, 4) - bf.delta_finite(golden.beta, res.canonical)
        tail = bf.tail_bound(golden.beta, 30)
        assert bf.exact_sign(gap) >= 0 and bf.exact_cmp(gap, tail) <= 0

    def test_same_value_across_streams(self, golden, rng):
        q = golden_exact_band(golden)
        s = Fraction(5, 8)
        n = 16
        raws = []
        for stream in (bf.BitStream.constant(0), bf.BitStream.constant(1), bf.BitStream.alternating()):
            res = bf.denoise_pipeline(golden.beta, q, s, n, stream, golden.bounds)
            raws.append(res.raw)
            gap = s - bf.delta_finite(golden.beta, res.raw)
            assert bf.exact_sign(gap) >= 0 and bf.exact_cmp(gap, bf.tail_bound(golden.beta, n)) <= 0
        assert len(set(raws)) > 1  # different streams really exercise different paths

    def test_requires_sound_quantizer(self, golden):
        with pytest.raises(bf.DomainError):
            bf.denoise_pipeline(B2, bf.Quantizer(Fraction(1, 2), Fraction(1, 10)), Fraction(1, 2), 8, bf.BitStream.constant(0))
