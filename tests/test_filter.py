"""The integer interval filter in front of certified signs: its bounds against
high-precision oracle brackets, and the shift-map orbit that uses it against
the element-based oracles at its edges (exact ties, a band equal to the
switch region, fault clamps, non-monic cut scaling, coordinates that
outgrow the filter), with the number of certified signs it still takes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betaforge as bf
from betaforge.numerics import FILTER_BITS, NumberFieldContext
from oracles import (
    adc_run_elements,
    greedy_prefix_elements,
    lazy_expand_elements,
    random_expand_elements,
    replay_tosses_elements,
    root_bracket,
    zint_interval,
)
from test_integer_coords import base, rand_band, rand_bits, rand_value, same

FIELDS = ["golden", "tribonacci", "cbrt2", "nonmonic"]


def oracle_sign(ctx, coords):
    """Sign of sum(coords[j] * root^j), certified by interval Horner over
    bisection brackets of growing precision."""
    if not any(coords):
        return 0
    bits = 128
    while True:
        lo, hi = zint_interval(coords, *root_bracket(ctx.minpoly, *ctx.isolating, bits))
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        bits *= 2


def count_signs(monkeypatch):
    """The coefficient vectors of every certified sign taken from now on."""
    seen = []
    sign = NumberFieldContext.sign_of_coeffs
    monkeypatch.setattr(NumberFieldContext, "sign_of_coeffs", lambda ctx, c: seen.append(list(c)) or sign(ctx, c))
    return seen


@pytest.mark.parametrize("name", FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_filter_bounds_contain_the_value(name, data):
    ctx = base(name)[0].ctx
    v = data.draw(st.lists(st.integers(-(1 << 200), 1 << 200), min_size=ctx.degree, max_size=ctx.degree))
    lo, hi = ctx.filter_bounds(v)
    scaled = [x << FILTER_BITS for x in v]
    assert oracle_sign(ctx, [scaled[0] - lo] + scaled[1:]) >= 0
    assert oracle_sign(ctx, [scaled[0] - hi] + scaled[1:]) <= 0
    # finer precision nests the bounds, and narrows them unless v is rational
    levels = [(32, ctx.filter_bounds(v, 32)), (FILTER_BITS, (lo, hi)), (128, ctx.filter_bounds(v, 128))]
    for (bits, (clo, chi)), (fine_bits, (flo, fhi)) in zip(levels, levels[1:]):
        up = fine_bits - bits
        assert clo << up <= flo and fhi <= chi << up
        if any(v[1:]):
            assert fhi - flo < (chi - clo) << up
        else:
            assert flo == fhi == v[0] << fine_bits


def test_filter_bounds_of_the_powers(golden):
    ctx = golden.beta.ctx
    lo, hi = ctx.filter_bounds([0, 1])
    assert 0 < hi - lo <= 2
    blo, bhi = root_bracket(ctx.minpoly, *ctx.isolating, 128)
    assert Fraction(lo, 1 << 64) < blo < bhi < Fraction(hi, 1 << 64)
    assert ctx.filter_bounds([7, 0]) == (7 << 64, 7 << 64)


def check_run(spec, s, n, t, eps, tosses):
    """Every orbit caller from s, each against its element oracle."""
    word, residual = bf.greedy_prefix(spec, s, n)
    expect_word, expect_residual = greedy_prefix_elements(spec, s, n)
    assert word == expect_word and same(residual, expect_residual)
    assert bf.lazy_expand(spec, s, n) == lazy_expand_elements(spec, s, n)
    word, trace = bf.random_expand(spec, s, n, bf.BitStream.from_bits(tosses))
    expect_word, expect_steps = random_expand_elements(spec, s, n, tosses)
    assert word == expect_word
    for step, (i, r, bit, in_switch, toss) in zip(trace, expect_steps, strict=True):
        assert (step.index, step.emitted_bit, step.in_switch, step.toss_consumed) == (i, bit, in_switch, toss)
        assert same(step.residual_before, r)
    assert bf.replay_tosses(spec, s, word) == replay_tosses_elements(spec, s, word)
    rec = bf.adc_run(spec, bf.Quantizer(t, eps), s, n, bf.BitStream.from_bits(tosses))
    bits, switch, consumed, r, fault, fault_idx = adc_run_elements(spec, t, eps, s, n, tosses)
    assert (rec.bits, rec.switch_indices, rec.consumed_tosses, rec.fault, rec.fault_indices) == (
        bits, switch, consumed, fault, fault_idx)
    assert same(rec.residual, r)
    return rec


@pytest.mark.parametrize("name", FIELDS + ["sqrt2"])
def test_orbit_on_the_cuts(name):
    """Start values on a cut, and a band equal to the switch region whose
    ends are cuts too: every comparison of the first step is an exact tie."""
    spec = base(name)[0]
    b = bf.beta_value(spec)
    lo, hi = bf.switch_region(spec)
    rng = random.Random(name)
    for s in (lo, hi, 1 / (b - 1), b - b, 1 / b**2):
        for t, eps in (((lo + hi) / 2, (hi - lo) / 2), (lo, b - b), (hi, b - b)):
            check_run(spec, s, 60, t, eps, rand_bits(rng, 60))


@pytest.mark.parametrize("name", FIELDS + ["sqrt2"])
def test_orbit_with_fault_clamps(name):
    spec, _, fb = base(name)
    rng = random.Random(name)
    faults = 0
    for _ in range(6):
        t, eps = rand_band(rng, fb, False)
        rec = check_run(spec, rand_value(rng, spec, fb), 120, t, eps, rand_bits(rng, 120))
        faults += rec.fault
    assert faults > 0


@pytest.mark.parametrize("name", ["sqrt2", "cbrt2"])
def test_orbit_past_the_filter_precision(name, monkeypatch):
    """On a non-Pisot base the coordinates outgrow FILTER_BITS within a few
    hundred steps; the residual's filter bounds then overlap the cut's on
    most steps, so most signs are certified, and the orbit still agrees."""
    spec, _, fb = base(name)
    rng = random.Random(name)
    s = Fraction(3, 7)
    t, eps = rand_band(rng, fb, True)
    rec = check_run(spec, s, 400, t, eps, rand_bits(rng, 400))
    assert max(abs(x) for x in rec.residual.num).bit_length() > rec.residual.den.bit_length() + FILTER_BITS
    seen = count_signs(monkeypatch)
    bf.greedy_prefix(spec, s, 400)
    assert 100 < len(seen) < 400


def test_nonmonic_cut_scaling(monkeypatch):
    """The cuts' bounds follow the denominator by a factor 2 per step; the
    filter still decides every comparison of a long orbit."""
    spec, _, fb = base("nonmonic")
    rng = random.Random(3)
    t, eps = rand_band(rng, fb, True)
    check_run(spec, Fraction(5, 9), 300, t, eps, rand_bits(rng, 300))
    seen = count_signs(monkeypatch)
    bf.adc_run(spec, bf.Quantizer(t, eps), Fraction(5, 9), 300, bf.BitStream.from_bits(rand_bits(rng, 300)))
    assert len(seen) == 1  # the domain check


def test_filter_leaves_only_ties_to_exact_signs(golden, monkeypatch):
    spec = golden.beta
    rng = random.Random(11)
    t, eps = rand_band(rng, 1.618, True)
    tosses = bf.BitStream.from_bits(rand_bits(rng, 4096))
    seen = count_signs(monkeypatch)
    bf.adc_run(spec, bf.Quantizer(t, eps), Fraction(37, 61), 4096, tosses)
    assert len(seen) <= 16
    del seen[:]
    inv = 1 / spec.element()
    assert bf.greedy_prefix(spec, inv, 3) == greedy_prefix_elements(spec, inv, 3)
    assert [0, 0] in seen  # r - 1/beta at the first step: the tie itself


@pytest.mark.parametrize("name", ["golden", "tribonacci"])
def test_orbit_ignores_process_history(name, monkeypatch):
    """Outputs and the number of certified signs are the same on a context
    that never ran anything and after the shared enclosure was refined."""
    preset = bf.get_preset(name)
    fb = base(name)[2]
    seen = count_signs(monkeypatch)

    def observe(spec):
        rng = random.Random(17)
        b = bf.beta_value(spec)
        out = []
        for s in (Fraction(2, 5), 1 / b, bf.switch_region(spec)[1]):
            t, eps = rand_band(rng, fb, True)
            del seen[:]
            rec = bf.adc_run(spec, bf.Quantizer(t, eps), s, 500, bf.BitStream.from_bits(rand_bits(rng, 500)))
            out.append((rec.bits, rec.switch_indices, rec.residual.num, rec.residual.den, len(seen)))
            del seen[:]
            word, r = bf.greedy_prefix(spec, s, 500)
            out.append((word, r.num, r.den, len(seen)))
        return out

    fresh = observe(bf.AlgebraicBeta(NumberFieldContext(preset.beta.ctx.minpoly, preset.beta.ctx.isolating)))
    float(preset.beta.element())
    preset.beta.ctx.refine(Fraction(1, 1 << 256))
    assert observe(preset.beta) == fresh
