"""NumberFieldElement on integer coordinates over one denominator against
`oracles.FractionElement`, the Fraction-coefficient arithmetic it replaced:
results, coefficients, reprs, signs, enclosures, equality and hashing must
all agree, on monic and non-monic bases.  Also the bound that ends sign
certification on a reducible minimal polynomial."""

import json
import random
import time
from fractions import Fraction

import pytest

import betaforge as bf
from betaforge.cli import run_command
from betaforge.numerics import NumberFieldContext, NumberFieldElement, _zelement
from oracles import FractionElement

# sqrt(3/2): a field base whose minimal polynomial is not monic
NONMONIC = {"minpoly": [-3, 0, 2], "isolating": ["6/5", "5/4"]}
BASES = ["golden", "tribonacci", "sqrt2", "cbrt2", "nonmonic"]
REDUCIBLE = {"minpoly": [3, 2, -4, 1], "isolating": ["3/2", "5/3"]}  # (x - 3)(x^2 - x - 1)


def context(name):
    """A never-used context of the named base."""
    spec = bf.beta_from_json(NONMONIC) if name == "nonmonic" else bf.get_preset(name).beta
    return NumberFieldContext(spec.ctx.minpoly, spec.ctx.isolating)


def random_coeffs(rng, d):
    def coeff():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randrange(-10**rng.randrange(1, 12), 10**6), rng.choice([1, 1, 2, 3, 4, 6, 9, 10, 12, 35, 1024]))

    return [coeff() for _ in range(d)]


def same(element, oracle):
    assert element.coeffs == oracle.coeffs
    assert repr(element) == repr(oracle)
    assert element.den > 0 and all(type(x) is int for x in element.num)


@pytest.mark.parametrize("name", BASES)
def test_arithmetic_matches_fraction_oracle(name):
    ctx = context(name)
    d = ctx.degree
    rng = random.Random(name)
    for _ in range(150):
        ca, cb = random_coeffs(rng, d), random_coeffs(rng, d)
        a, b = NumberFieldElement(ctx, ca), NumberFieldElement(ctx, cb)
        oa, ob = FractionElement(ctx, ca), FractionElement(ctx, cb)
        q = rng.choice([rng.randrange(-9, 10), Fraction(rng.randrange(-99, 100), rng.randrange(1, 50))])
        same(a, oa)
        for got, want in (
            (a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob), (-a, -oa),
            (a + q, oa + q), (q - a, q - oa), (a * q, oa * q), (q * a, q * oa),
            (a * a - b, oa * oa - ob), ((a - b) * (a + b), (oa - ob) * (oa + ob)),
        ):
            same(got, want)
            assert got.sign() == want.sign()
        if any(ca):
            same(a.inverse(), oa.inverse())
            same(q / a if q else b / a, q * oa.inverse() if q else ob * oa.inverse())
        assert (a == b) == (oa == ob) and (a == a + 0) and (a - a).is_zero()


@pytest.mark.parametrize("name", BASES)
def test_equal_elements_are_equal_and_hash_alike(name):
    ctx = context(name)
    d = ctx.degree
    rng = random.Random(name + "hash")
    for _ in range(100):
        den = rng.randrange(1, 60)
        v = [rng.randrange(-500, 500) for _ in range(d)]
        k = rng.randrange(2, 30)
        forms = [
            _zelement(ctx, den, v),
            _zelement(ctx, den * k, [x * k for x in v]),  # unreduced coordinates
            NumberFieldElement(ctx, [Fraction(x, den) for x in v]),
            NumberFieldElement(ctx, [Fraction(x, den) for x in v]) * k / k,
            (NumberFieldElement(ctx, [Fraction(x, den) for x in v]) + Fraction(1, 7)) - Fraction(1, 7),
        ]
        assert len({f for f in forms}) == 1
        assert all(f == forms[0] and hash(f) == hash(forms[0]) for f in forms)
        assert all(f.coeffs == forms[0].coeffs for f in forms)
        assert forms[0] != forms[0] + Fraction(1, 1000)
    assert NumberFieldElement.from_rational(ctx, Fraction(6, 4)) == Fraction(3, 2)
    zero = _zelement(ctx, 12, [0] * d)
    assert (zero.num, zero.den) == ((0,) * d, 1) and zero == 0 and hash(zero) == hash(NumberFieldElement(ctx, [0] * d))


@pytest.mark.parametrize("name", BASES)
def test_enclosure_matches_fraction_oracle(name):
    rng = random.Random(name + "enclosure")
    for _ in range(10):
        ctx_a, ctx_b = context(name), context(name)
        coeffs = random_coeffs(rng, ctx_a.degree)
        a, oa = NumberFieldElement(ctx_a, coeffs), FractionElement(ctx_b, coeffs)
        for bits in (1, 8, 30, 90, 12):
            width = Fraction(1, 1 << bits)
            got = a.enclosure(width)
            assert got == oa.enclosure(width)
            assert got[1] - got[0] <= width
        assert got[0] - width <= Fraction(float(a)) <= got[1] + width


def test_enclosure_width_must_be_positive():
    """A width of 0 or below is a DomainError at once, except width 0 on a
    rational element, whose enclosure is its exact value."""
    ctx = context("golden")
    g = NumberFieldElement.generator(ctx)
    q = NumberFieldElement.from_rational(ctx, Fraction(7, 3))
    t0 = time.perf_counter()
    for element, width in ((g, 0), (g, Fraction(0)), (g, -1), (g, Fraction(-1, 3)), (q, -1), (q, Fraction(-1, 3))):
        with pytest.raises(bf.DomainError, match="width"):
            element.enclosure(width)
    assert time.perf_counter() - t0 < 1
    assert q.enclosure(0) == q.enclosure(Fraction(0)) == (Fraction(7, 3), Fraction(7, 3))
    assert g.enclosure(Fraction(1, 4)) == NumberFieldElement.generator(context("golden")).enclosure(Fraction(1, 4))


ENCLOSURE_WIDTHS = (Fraction(1, 4), Fraction(1, 1 << 30), Fraction(1, 1 << 90))


@pytest.mark.parametrize("name", BASES)
def test_answers_do_not_depend_on_earlier_work(name):
    """Enclosures, floats, floors, binary logarithms and signs on a fresh
    context equal the same calls after a fine root bracket, a 4,096-digit
    adc run and a 2^-400 enclosure on that context."""
    ctx = context(name)
    rng = random.Random(name + "history")
    g = NumberFieldElement.generator(ctx)
    elements = [g, g - 1, 1 / g, NumberFieldElement.from_rational(ctx, Fraction(7, 3))]
    elements += [e for e in (NumberFieldElement(ctx, random_coeffs(rng, ctx.degree)) for _ in range(8)) if not e.is_zero()]

    def answers():
        return [
            (
                [e.enclosure(w) for w in ENCLOSURE_WIDTHS],
                float(e),
                bf.exact_floor(e),
                bf.floor_log2(e if e.sign() > 0 else -e),
                e.sign(),
            )
            for e in elements
        ]

    before = answers()
    spec = bf.AlgebraicBeta(ctx)
    ctx.refine(Fraction(1, 1 << 256))
    s_lo, s_hi = bf.switch_region(spec)
    tosses = bf.BitStream.from_bits("".join(rng.choice("01") for _ in range(4096)))
    bf.adc_run(spec, bf.Quantizer((s_lo + s_hi) / 2, (s_hi - s_lo) / 4), Fraction(2, 5), 4096, tosses)
    (g - 1).enclosure(Fraction(1, 1 << 400))
    assert answers() == before


def test_signs_of_tiny_elements():
    """F(k+1) - F(k)*golden = (-1/golden)^k: certified signs of values far
    below 2^-64, which the reducibility bound must leave alone."""
    ctx = context("golden")
    fib = [0, 1]
    for _ in range(300):
        fib.append(fib[-1] + fib[-2])
    for k in (10, 50, 100, 200, 299):
        e = NumberFieldElement(ctx, [fib[k + 1], -fib[k]])
        assert e.sign() == (1 if k % 2 == 0 else -1) == FractionElement(ctx, e.coeffs).sign()


def test_reducible_minimal_polynomial_is_detected_promptly():
    beta = bf.beta_from_json(REDUCIBLE)
    t0 = time.perf_counter()
    with pytest.raises(bf.MalformedContextError, match="reducible"):
        bf.equiv(beta, "011", "100")
    assert time.perf_counter() - t0 < 1
    # golden's own collision on the irreducible factor is still an equality
    assert bf.equiv(bf.get_preset("golden").beta, "011", "100")


def test_reducible_minimal_polynomial_cli_probe():
    t0 = time.perf_counter()
    status, out, err = run_command(["canonicalize", "--beta", json.dumps(REDUCIBLE), "--bits", "011"])
    assert time.perf_counter() - t0 < 1
    assert (status, out) == (1, "")
    assert err.startswith("error: ") and "reducible" in err
