import random
from fractions import Fraction

import pytest

import betaforge as bf


# rational bases of the differential tests against the Fraction orbit and
# converter: chunk sizes from 2 to 70, and clamped read schedules near 1
RATIONAL_BASES = [Fraction(3, 2), Fraction(9, 5), Fraction(7, 4), Fraction(11, 10), Fraction(101, 100), Fraction(19, 10), Fraction(199, 100)]


@pytest.fixture(scope="session")
def golden():
    return bf.get_preset("golden")


@pytest.fixture(scope="session")
def sqrt2():
    return bf.get_preset("sqrt2")


@pytest.fixture(scope="session")
def cbrt2():
    return bf.get_preset("cbrt2")


@pytest.fixture(scope="session")
def tribonacci():
    return bf.get_preset("tribonacci")


@pytest.fixture
def rng():
    return random.Random(0xBE7A)


def random_rational(rng, lo=Fraction(0), hi=Fraction(1), den_bits=20):
    den = rng.randrange(1, 1 << den_bits)
    num = rng.randrange(0, den + 1)
    return lo + (hi - lo) * Fraction(num, den)


def outcome(fn, *args):
    """fn's result, or the type and message of the BetaForgeError it raised."""
    try:
        return fn(*args)
    except bf.BetaForgeError as e:
        return type(e), str(e)
