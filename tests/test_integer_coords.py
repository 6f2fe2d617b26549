"""The integer-coordinate orbit and level sweep against the element-based
oracles in `oracles`: every output field must match exactly, on monic and
non-monic field bases and on rational bases."""

import random
import tracemalloc
from fractions import Fraction

import pytest

import betaforge as bf
from betaforge.numerics import NumberFieldContext, NumberFieldElement, _zcoords, _zdiv_beta, _zelement, _zmul_beta
from oracles import (
    adc_run_elements,
    greedy_prefix_elements,
    lazy_expand_elements,
    random_expand_elements,
    replay_tosses_elements,
    root_bracket,
    sweep_elements,
)

# (1 + sqrt 3) / 2: a field base whose minimal polynomial is not monic
NONMONIC = {"minpoly": [-1, -2, 2], "isolating": ["13/10", "7/5"]}
BASES = ["golden", "tribonacci", "sqrt2", "cbrt2", "3/2", "7/4", "nonmonic"]
PISOT = ("golden", "tribonacci")


def base(name):
    """(spec, bounds or None, float value) of a test base."""
    if name in ("golden", "tribonacci", "sqrt2", "cbrt2"):
        preset = bf.get_preset(name)
        spec, bounds = preset.beta, preset.bounds
    elif name == "nonmonic":
        spec, bounds = bf.beta_from_json(NONMONIC), None
    else:
        spec, bounds = bf.RationalBeta(Fraction(name)), None
    return spec, bounds, float(bf.beta_value(spec))


def rand_bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def rand_value(rng, spec, b):
    """A start value in [0, 1/(beta-1)]: a rational, or the exact value of a
    random word (a field element on field bases)."""
    if rng.random() < 0.3:
        return bf.delta_finite(spec, rand_bits(rng, rng.randrange(1, 12)))
    den = rng.randrange(1, 1 << 16)
    return Fraction(rng.randrange(0, int(den / (b - 1)) + 1), den)


def rand_band(rng, b, sound):
    """(t, eps): inside the switch region when `sound`, anywhere otherwise."""
    lo, hi = 1 / b, 1 / (b * (b - 1))
    if sound:
        t = Fraction(lo + (0.3 + 0.4 * rng.random()) * (hi - lo)).limit_denominator(1 << 20)
        eps = Fraction(0.25 * rng.random() * (hi - lo)).limit_denominator(1 << 20)
    else:
        t = Fraction(rng.random() / (b - 1)).limit_denominator(1 << 20)
        eps = Fraction(0.6 * rng.random()).limit_denominator(1 << 20)
    return t, eps


def same(a, b):
    """Equal exact values of equal type: the byte-identity of results."""
    return type(a) is type(b) and a == b


@pytest.fixture(params=BASES)
def case(request):
    name = request.param
    return (name, random.Random(BASES.index(name) + 101)) + base(name)


def test_greedy_prefix(case):
    _, rng, spec, _, b = case
    for _ in range(12):
        s, n = rand_value(rng, spec, b), rng.randrange(0, 40)
        word, residual = bf.greedy_prefix(spec, s, n)
        expect_word, expect_residual = greedy_prefix_elements(spec, s, n)
        assert word == expect_word
        assert same(residual, expect_residual)


def test_lazy_expand(case):
    _, rng, spec, _, b = case
    for _ in range(12):
        s, n = rand_value(rng, spec, b), rng.randrange(0, 40)
        assert bf.lazy_expand(spec, s, n) == lazy_expand_elements(spec, s, n)


def test_random_expand_full_trace(case):
    _, rng, spec, _, b = case
    for _ in range(12):
        s, n = rand_value(rng, spec, b), rng.randrange(0, 40)
        tosses = rand_bits(rng, n)
        word, trace = bf.random_expand(spec, s, n, bf.BitStream.from_bits(tosses))
        expect_word, expect_steps = random_expand_elements(spec, s, n, tosses)
        assert word == expect_word
        assert len(trace) == len(expect_steps)
        for step, (i, r, bit, in_switch, toss) in zip(trace, expect_steps):
            assert (step.index, step.emitted_bit, step.in_switch, step.toss_consumed) == (i, bit, in_switch, toss)
            assert same(step.residual_before, r)


@pytest.mark.parametrize("sound", [True, False])
def test_adc_run_every_field(case, sound):
    name, rng, spec, _, b = case
    faults = 0
    for _ in range(12):
        t, eps = rand_band(rng, b, sound)
        s, n = rand_value(rng, spec, b), rng.randrange(0, 40)
        tosses = rand_bits(rng, n)
        rec = bf.adc_run(spec, bf.Quantizer(t, eps), s, n, bf.BitStream.from_bits(tosses))
        bits, switch, consumed, residual, fault, fault_idx = adc_run_elements(spec, t, eps, s, n, tosses)
        assert (rec.bits, rec.switch_indices, rec.consumed_tosses) == (bits, switch, consumed)
        assert rec.consumed_tosses == "".join(rec.bits[i] for i in rec.switch_indices)
        assert (rec.fault, rec.fault_indices) == (fault, fault_idx)
        assert same(rec.residual, residual)
        faults += rec.fault
    if sound:
        assert faults == 0
    else:
        assert faults > 0, f"no unsound band faulted on {name}"


def test_replay_tosses(case):
    _, rng, spec, _, b = case
    rejected = 0
    for _ in range(16):
        s, n = rand_value(rng, spec, b), rng.randrange(1, 40)
        x, _ = bf.random_expand(spec, s, n, bf.BitStream.from_bits(rand_bits(rng, n)))
        if rng.random() < 0.5:
            i = rng.randrange(n)
            x = x[:i] + ("1" if x[i] == "0" else "0") + x[i + 1:]
        expect = replay_tosses_elements(spec, s, x)
        if expect is None:
            rejected += 1
            with pytest.raises(bf.DomainError):
                bf.replay_tosses(spec, s, x)
        else:
            assert bf.replay_tosses(spec, s, x) == expect
    assert rejected > 0


def test_sweep_word_counts_steps_width(case):
    name, rng, spec, bounds, b = case
    longest = 80 if name in PISOT else 16
    words = [rand_bits(rng, rng.randrange(1, longest)) for _ in range(10)]
    for _ in range(4):  # device outputs, as the denoising pipeline sees them
        t, eps = rand_band(rng, b, True)
        n = rng.randrange(1, longest)
        words.append(bf.adc_run(spec, bf.Quantizer(t, eps), rand_value(rng, spec, b), n,
                                bf.BitStream.from_bits(rand_bits(rng, n))).bits)
    for x in words:
        width = None
        if bounds is not None and bounds.pisot:
            lo, _ = root_bracket(spec.ctx.minpoly, *spec.ctx.isolating, 24)
            width = 1 / ((lo - 1) * bounds.pi_lower)
        word, stats = bf.m_beta_fast(spec, x, bounds)
        assert (word, stats.per_level_class_counts, stats.total_steps) == sweep_elements(spec, x)
        assert stats.pisot_width_bound == width


@pytest.mark.parametrize("name", PISOT)
def test_sweep_makes_the_element_sweeps_signs(name, monkeypatch):
    """One certified sign per candidate on every level but the last, which
    tests for exact zero: fewer than the element sweep's up to two."""
    spec, bounds, _ = base(name)
    x = rand_bits(random.Random(7), 300)
    calls = []
    sign = NumberFieldContext.sign_of_coeffs
    monkeypatch.setattr(NumberFieldContext, "sign_of_coeffs", lambda ctx, c: calls.append(1) or sign(ctx, c))
    for n in (2, 3, 40, 300):
        del calls[:]
        _, stats = bf.m_beta_fast(spec, x[:n], bounds)
        swept = len(calls)
        assert swept == 2 * (1 + sum(stats.per_level_class_counts[: n - 2]))
    del calls[:]
    sweep_elements(spec, x)
    assert len(calls) > swept


def test_sweep_state_stays_small(tribonacci):
    x = rand_bits(random.Random(3), 4096)
    bf.m_beta_fast(tribonacci.beta, x[:64], tribonacci.bounds)
    tracemalloc.start()
    try:
        bf.m_beta_fast(tribonacci.beta, x, tribonacci.bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


@pytest.mark.parametrize("name", ["golden", "tribonacci", "cbrt2", "nonmonic", "3/2"])
def test_beta_multiplication_and_exact_division(name):
    spec, _, _ = base(name)
    b = bf.beta_value(spec)
    if isinstance(b, Fraction):
        poly = (-b.numerator, b.denominator)
    else:
        poly = b.ctx.minpoly
    a, degree = poly[-1], len(poly) - 1
    rng = random.Random(degree)
    for _ in range(20):
        v = [rng.randrange(-10**6, 10**6) for _ in range(degree)]
        w = _zmul_beta(poly, v)
        assert _zdiv_beta(poly, w) == [a * x for x in v]
        if not isinstance(b, Fraction):
            assert _zelement(b.ctx, a, w) == b * _zelement(b.ctx, 1, v)


def test_coordinates_share_one_denominator(golden):
    g = golden.beta.element()
    xs = (Fraction(3, 4), g / 6, 1 / g, 2)
    den, vs = _zcoords(2, xs)
    assert den == 12
    assert all(_zelement(golden.beta.ctx, den, v) == x for v, x in zip(vs, xs))


def test_integer_signs_match_rational_signs(tribonacci):
    ctx = tribonacci.beta.ctx
    rng = random.Random(5)
    for _ in range(50):
        den = rng.randrange(1, 1000)
        v = [rng.randrange(-10**9, 10**9) for _ in range(3)]
        assert ctx.sign_of_coeffs(v) == NumberFieldElement(ctx, [Fraction(x, den) for x in v]).sign()
    assert ctx.sign_of_coeffs([0, 0, 0]) == 0
    assert ctx.sign_of_coeffs([-5, 0, 0]) == -1
