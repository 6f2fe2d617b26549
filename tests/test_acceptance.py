"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Tolerances are exact unless a runtime budget is part
of the criterion.
"""

import random
import time
from fractions import Fraction

import betaforge as bf
from betaforge.cli import run_command
from oracles import (
    canonical_oracle,
    delta_oracle,
    greedy_oracle,
    group_by_value,
    root_bracket,
    zint_interval,
    zint_mul_by_root,
)

GOLDEN_POLY = [-1, -1, 1]
SQRT2_POLY = [-2, 0, 1]

TABLE1 = [
    ("2", "11000000000000000000000000000000000000000000000000"),
    ("101/100", "00000000000000000000000000001000000000000000000000"),
    ("6/5", "01000000000000010000000000000000000100000000000000"),
    ("3/2", "10000010010010100000000010000001000010000001001001"),
    ("9/5", "10100010101000000110101000011000011010011000010000"),
    ("199/100", "10111110001001001001010001100011010000100000111010"),
]


def _random_rational(rng, lo=Fraction(0), hi=Fraction(1)):
    den = rng.randrange(1, 1 << 20)
    return lo + (hi - lo) * Fraction(rng.randrange(0, den + 1), den)


def test_c01_table_reproduction():
    t0 = time.perf_counter()
    for beta, expect in TABLE1:
        status, out, err = run_command(["expand", "--mode", "greedy", "--beta", beta, "--s", "3/4", "--n", "50"])
        assert status == 0 and err == ""
        assert out == expect, f"row {beta} mismatch"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: six greedy rows byte-identical in {elapsed:.3f}s")


def test_c02_rational_converter_validity():
    rng = random.Random(2)
    t0 = time.perf_counter()
    n = 50
    runs = 0
    for beta in (Fraction(3, 2), Fraction(9, 5), Fraction(7, 4)):
        spec = bf.RationalBeta(beta)
        params = bf.params_rational(spec)
        carry_cap = (beta / 2) / (beta - 1)
        sigma = [params.sigma(i) for i in range(n + 1)]
        for _ in range(100):
            s = _random_rational(rng)
            prefix = bf.greedy_expand(bf.RationalBeta(Fraction(2)), s, sigma[n])
            res = bf.convert_rational(spec, prefix, n)
            # recheck every step sum independently of the converter's guard
            for i in range(n):
                injected = beta ** (params.N * i) / Fraction(1 << sigma[i]) * delta_oracle(
                    Fraction(2), prefix[sigma[i] : sigma[i + 1]]
                )
                assert 0 <= res.residuals[i] + injected <= carry_cap
            gap = delta_oracle(Fraction(2), prefix[: sigma[n]]) - delta_oracle(beta, res.bits)
            assert 0 <= gap <= Fraction(1) / beta ** (params.N * n) / (beta - 1)
            runs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: {runs} conversions, 50 chunks each, exact bounds, {elapsed:.1f}s")


def test_c03_stream_converter_validity(golden):
    # constant stream at 3/2: no correction, unit rescaling
    stream = bf.stream_from_exact(bf.RationalBeta(Fraction(3, 2)))
    prefix = bf.greedy_expand(bf.RationalBeta(Fraction(2)), Fraction(3, 4), 200)
    res = bf.convert_stream(stream, prefix, 3)
    assert all(d.correction == 0 for d in res.diagnostics)
    assert all(d.ratio == 1 for d in res.diagnostics)
    gap = Fraction(3, 4) - delta_oracle(Fraction(3, 2), res.bits)
    assert 0 <= gap <= Fraction(1) / Fraction(3, 2) ** len(res.bits) * 2

    # golden base fed by its own exact digit generator
    rng = random.Random(3)
    gs = bf.stream_from_exact(golden.beta)
    ps = bf.params_stream(gs)
    c_low = ps.C_lower
    bound = bf.tail_bound(golden.beta, 4 * ps.N)
    for k in range(20):
        s = _random_rational(rng)
        prefix = bf.greedy_expand(bf.RationalBeta(Fraction(2)), s, 600)
        res = bf.convert_stream(bf.stream_from_exact(golden.beta), prefix, 4)
        for d in res.diagnostics:
            assert 0 <= d.correction <= c_low
            if d.index >= 1:
                assert 0 <= d.injected <= c_low
                assert 0 <= d.residual <= 1 + c_low
            assert 0 <= d.residual + d.injected + d.correction <= 1 + 3 * c_low
        err = s - bf.delta_finite(golden.beta, res.bits)
        assert bf.exact_cmp(err, bound) <= 0 and bf.exact_cmp(err, -bound) >= 0
    print(f"\nPASS criterion 3: constant stream exact; 20 golden-stream runs within G^-{4 * ps.N}/(G-1)")


def test_c04_canonicalizer_oracle_equivalence(golden, sqrt2):
    t0 = time.perf_counter()
    oracle = canonical_oracle(GOLDEN_POLY, 14)
    for k in range(1 << 14):
        w = format(k, "014b")
        got, _ = bf.m_beta_fast(golden.beta, w, golden.bounds)
        assert got == oracle[w], f"golden mismatch at {w}"
    for n in range(1, 13):
        for k in range(1 << n):
            w = format(k, f"0{n}b")
            got, _ = bf.m_beta_fast(sqrt2.beta, w, sqrt2.bounds)
            assert got == w, f"sqrt2 must act as identity on {w}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 4: exhaustive oracle equality (2^14 golden, sqrt2 <= 12) in {elapsed:.1f}s")


def test_c05_pisot_width_and_linearity(golden):
    rng = random.Random(5)
    ratios_50 = []
    ratios_100 = []
    for _ in range(50):
        word = "".join(rng.choice("01") for _ in range(200))
        steps = {}
        for length in (50, 100, 200):
            _, stats = bf.m_beta_fast(golden.beta, word[:length], golden.bounds)
            assert max(stats.per_level_class_counts) <= 4
            steps[length] = stats.total_steps
        ratios_50.append(steps[100] / steps[50])
        ratios_100.append(steps[200] / steps[100])
    avg50 = sum(ratios_50) / len(ratios_50)
    avg100 = sum(ratios_100) / len(ratios_100)
    assert 1.8 <= avg50 <= 2.2
    assert 1.8 <= avg100 <= 2.2
    print(f"\nPASS criterion 5: class counts <= 4; step ratios {avg50:.3f} (m=50), {avg100:.3f} (m=100)")


def _min_gap_lower_bound(minpoly, iso, n, bits=150):
    lo, hi = root_bracket(minpoly, Fraction(iso[0]), Fraction(iso[1]), bits)
    d = len(minpoly) - 1
    scale = [0] * d
    scale[0] = 1
    for _ in range(n):
        scale = zint_mul_by_root(scale, minpoly)
    _, scale_hi = zint_interval(scale, lo, hi)
    intervals = sorted(zint_interval(list(c), lo, hi) for c in group_by_value(minpoly, n))
    best = None
    for (_, ahi), (blo, _) in zip(intervals, intervals[1:]):
        gap = blo - ahi
        assert gap > 0, "bracket too coarse"
        best = gap if best is None else min(best, gap)
    return best / scale_hi


def test_c06_separation_soundness(golden, sqrt2):
    for preset, poly, iso in [(golden, GOLDEN_POLY, ("3/2", "5/3")), (sqrt2, SQRT2_POLY, ("7/5", "3/2"))]:
        for n in range(1, 13):
            bound = bf.separation_bound(preset.bounds, n)
            true_gap_lb = _min_gap_lower_bound(poly, iso, n)
            assert bound <= true_gap_lb, f"{preset.name} n={n}"
    print("\nPASS criterion 6: separation bound below the exhaustive minimum gap, n <= 12, golden and sqrt2")


def test_c07_cardinality_bounds():
    rng = random.Random(7)
    beta = Fraction(3, 2)
    for _ in range(100):
        n = rng.randrange(2, 10)
        m = bf.base_length(beta, n)
        s = _random_rational(rng, Fraction(0), Fraction(2))
        x = greedy_oracle(beta, s, m)
        cs = bf.f_beta_to_2(bf.Interval(beta, beta), x, n)
        assert len(cs) <= 5  # 1/(beta-1) + 3 at beta = 3/2
    worst_slack = None
    for _ in range(20):
        b1 = Fraction(rng.randrange(105, 190), 100)
        n = rng.randrange(2, 8)
        m = bf.base_length(b1, n)
        b2 = b1 + Fraction(rng.randrange(1, 100), 100) / b1 ** m
        x = format(rng.getrandbits(m), f"0{m}b")
        cs = bf.f_beta_to_2(bf.Interval(b1, b2), x, n)
        bound = 2 / (b1 - 1) + m * (m + 1) * (b2 - b1) * b1 ** m + 2
        assert len(cs) <= bound
        slack = float(bound) - len(cs)
        worst_slack = slack if worst_slack is None else min(worst_slack, slack)
    print(f"\nPASS criterion 7: degenerate cardinality <= 5; window bound met, min slack {worst_slack:.2f}")


def test_c08_enumeration_ground_truth(golden):
    assert bf.enumerate_expansions(golden.beta, Fraction(1), 4) == ["0111", "1001", "1010", "1011", "1100"]
    rng = random.Random(8)
    for spec in (golden.beta, bf.RationalBeta(Fraction(3, 2))):
        for _ in range(100):
            s = _random_rational(rng)
            n = rng.randrange(2, 13)
            words = bf.enumerate_expansions(spec, s, n)
            assert words[-1] == bf.greedy_expand(spec, s, n)
            assert words[0] == bf.lazy_expand(spec, s, n)
            x = words[rng.randrange(len(words))]
            assert bf.replay_tosses(spec, s, x) == bf.extract_tosses(spec, words, x)
            part = bf.g_beta_window(spec, x)
            hit = [k for k, c in enumerate(part.classes) if any(w in words for w in c.members)]
            assert hit == list(range(hit[0], hit[-1] + 1))
            for k in hit:
                assert all(w in words for w in part.classes[k].members)
    print("\nPASS criterion 8: pinned golden prefix set; lex extremes; 200 contiguous-class checks")


def test_c09_toss_round_trip_and_injectivity(golden):
    rng = random.Random(9)
    checked_sets = 0
    for spec in (golden.beta, bf.RationalBeta(Fraction(3, 2))):
        for _ in range(100):
            s = _random_rational(rng)
            n = rng.randrange(2, 15)
            toss_bits = format(rng.getrandbits(n), f"0{n}b")
            word, trace = bf.random_expand(spec, s, n, bf.BitStream.from_bits(toss_bits))
            words = bf.enumerate_expansions(spec, s, n)
            consumed = "".join(str(t.toss_consumed) for t in trace if t.in_switch)
            assert bf.extract_tosses(spec, words, word) == consumed
            extracted = {bf.extract_tosses(spec, words, y) for y in words}
            assert len(extracted) == len(words)
            checked_sets += 1
    print(f"\nPASS criterion 9: {checked_sets} round trips, extraction injective on every prefix set")


def test_c10_adc_robustness_and_failure(golden):
    rng = random.Random(10)
    g_inv = golden.beta.element().inverse()
    cases = [
        (golden.beta, bf.Quantizer((g_inv + 1) / 2, (1 - g_inv) / 2)),
        (bf.RationalBeta(Fraction(3, 2)), bf.Quantizer(Fraction(1), Fraction(1, 3))),
    ]
    for spec, q in cases:
        assert bf.validate_quantizer(spec, q).valid
        n = 16
        s = _random_rational(rng)
        streams = [bf.BitStream.constant(0), bf.BitStream.constant(1), bf.BitStream.alternating()]
        streams += [bf.BitStream.from_bits(format(rng.getrandbits(n), f"0{n}b")) for _ in range(64)]
        for stream in streams:
            rec = bf.adc_run(spec, q, s, n, stream)
            assert not rec.fault
            gap = s - bf.delta_finite(spec, rec.bits)
            assert bf.exact_sign(gap) >= 0 and bf.exact_cmp(gap, bf.tail_bound(spec, n)) <= 0
    # constructed failure at beta = 2 with an out-of-band toss
    b2 = bf.RationalBeta(Fraction(2))
    q_bad = bf.Quantizer(Fraction(1, 2), Fraction(1, 10))
    assert not bf.validate_quantizer(b2, q_bad).valid
    rec = bf.adc_run(b2, q_bad, Fraction(11, 20), 20, bf.BitStream.constant(0))
    assert rec.fault
    assert abs(Fraction(11, 20) - bf.delta_finite(b2, rec.bits)) > bf.tail_bound(b2, 20)
    print("\nPASS criterion 10: 67-stream adversarial suites inside the tail bound; binary failure case faults")


def test_c11_measure_sanity(golden):
    top_g = bf.expansion_domain_max(golden.beta)
    for m in (1, 5, 12, 20):
        assert bf.nu_measure(golden.beta, m, bf.Interval(Fraction(0), top_g)) == 1
        assert bf.nu_measure(bf.RationalBeta(Fraction(3, 2)), m, bf.Interval(Fraction(0), Fraction(2))) == 1
    assert bf.nu_measure(golden.beta, 2, bf.Interval(Fraction(1), Fraction(1))) == Fraction(1, 4)
    assert bf.nu_measure(golden.beta, 3, bf.Interval(Fraction(9, 10), Fraction(11, 10))) == Fraction(1, 8)
    print("\nPASS criterion 11: unit total mass up to m = 20; pinned golden point and window masses")
