import math
import random
from fractions import Fraction

from ffrigidity.exact import SqrtRational, count_cutoff


def test_zero_and_sign():
    z = SqrtRational.zero()
    assert z.is_zero()
    assert z.sign() == 0
    assert float(z) == 0.0
    assert SqrtRational(Fraction(2), 3).sign() == 1
    assert SqrtRational(Fraction(-2), 3).sign() == -1


def test_float_value():
    x = SqrtRational(Fraction(1, 2), 8)
    assert math.isclose(float(x), math.sqrt(8) / 2)


def test_comparisons_against_floats():
    rng = random.Random(11)
    for _ in range(300):
        a = SqrtRational(Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)),
                         rng.randrange(1, 30))
        b = SqrtRational(Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)),
                         rng.randrange(1, 30))
        fa, fb = float(a), float(b)
        if abs(fa - fb) > 1e-9:
            assert (a < b) == (fa < fb)
            assert (a > b) == (fa > fb)
        assert (a <= b) or (a >= b)


def test_equal_values_across_radicands():
    # 2*sqrt(9) == 6*sqrt(1) == 3*sqrt(4)
    forms = [SqrtRational(Fraction(2), 9), SqrtRational(Fraction(6), 1),
             SqrtRational(Fraction(3), 4)]
    for x in forms:
        for y in forms:
            assert not x < y and not y < x
            assert x == y


def test_int_and_fraction_comparisons():
    x = SqrtRational(Fraction(1), 2)  # sqrt 2
    assert x > 1
    assert x < 2
    assert x < Fraction(3, 2)
    assert x > Fraction(7, 5)
    assert SqrtRational(Fraction(3), 1) == 3


def test_multiplication():
    a = SqrtRational(Fraction(2, 3), 5)
    b = SqrtRational(Fraction(3, 4), 5)
    prod = a * b
    # sqrt(5)*sqrt(5) = 5 exactly
    assert prod == Fraction(5, 2)
    c = SqrtRational(Fraction(1), 2) * SqrtRational(Fraction(1), 3)
    assert math.isclose(float(c), math.sqrt(6))


def test_ceil_floor_against_float():
    rng = random.Random(12)
    for _ in range(400):
        x = SqrtRational(Fraction(rng.randrange(0, 50), rng.randrange(1, 9)),
                         rng.randrange(0, 60))
        v = float(x)
        assert x.ceil() == math.ceil(round(v, 9))
        assert x.floor() == math.floor(round(v, 9))


def test_ceil_exact_boundaries():
    assert SqrtRational(Fraction(2), 4).ceil() == 4   # exactly 4
    assert SqrtRational(Fraction(2), 4).floor() == 4
    assert SqrtRational(Fraction(1), 2).ceil() == 2
    assert SqrtRational(Fraction(1), 2).floor() == 1
    assert SqrtRational.zero().ceil() == 0
    assert SqrtRational(Fraction(-1), 2).floor() == -2
    assert SqrtRational(Fraction(-1), 2).ceil() == -1


def test_negative_ordering():
    a = SqrtRational(Fraction(-1), 2)
    b = SqrtRational(Fraction(-1), 3)
    assert b < a < SqrtRational.zero()


def test_hash_consistent_with_eq():
    assert hash(SqrtRational(Fraction(2), 9)) == hash(SqrtRational(Fraction(6), 1))
    s = {SqrtRational(Fraction(2), 9), SqrtRational(Fraction(6), 1)}
    assert len(s) == 1


def test_zero_coef_or_radicand_is_zero():
    assert SqrtRational(Fraction(0), 17).is_zero()
    assert SqrtRational(Fraction(5), 0).is_zero()


def test_count_cutoff_decides_integer_comparisons():
    rng = random.Random(9)
    thresholds = [0, 3, Fraction(7, 2), Fraction(-5, 3),
                  SqrtRational(Fraction(2), 4), SqrtRational.zero()]
    thresholds += [SqrtRational(Fraction(rng.randrange(-40, 40),
                                         rng.randrange(1, 9)),
                                rng.randrange(1, 400)) for _ in range(60)]
    for t in thresholds:
        cutoff = count_cutoff(t)
        for c in range(-30, 60):
            assert (c >= t) == (c >= cutoff)
