import hashlib
import itertools
import random
from math import comb

import pytest

from ffrigidity.dichotomy import (BasisTooLarge, Polynomial, dichotomy,
                                  enumerate_monomials, monomial_values)
from ffrigidity.field import PrimeField, rref
from ffrigidity.geometry import all_projective_directions


def test_monomial_counts():
    assert len(enumerate_monomials(3, 2)) == 6
    for nvars in range(1, 6):
        for D in range(9):
            assert len(enumerate_monomials(nvars, D)) == comb(
                nvars + D - 1, nvars - 1)
            # hockey-stick: the homogeneous layers up to D sum to the
            # count of all monomials of degree <= D
            assert sum(len(enumerate_monomials(nvars, i))
                       for i in range(D + 1)) == comb(nvars + D, nvars)


def test_monomial_order_graded_then_reverse_lex():
    assert enumerate_monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert enumerate_monomials(3, 2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                                         (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_basis_cap():
    with pytest.raises(BasisTooLarge):
        enumerate_monomials(12, 12)
    assert len(enumerate_monomials(3, 2, cap=6)) == 6
    with pytest.raises(BasisTooLarge):
        enumerate_monomials(3, 2, cap=5)


def test_polynomial_evaluate():
    # x1^2 + 4 x2 over F_5
    p = Polynomial(nvars=2, terms=(((0, 1), 4), ((2, 0), 1)))
    assert p.evaluate((1, 1), 5) == 0
    assert p.evaluate((2, 4), 5) == 0
    assert p.evaluate((1, 2), 5) == 4
    zero = Polynomial(nvars=2, terms=())
    assert zero.is_zero() and zero.evaluate((1, 2), 5) == 0


def test_evaluation_matrix_single_direction_linear():
    mat = monomial_values([(2, 3, 4)], enumerate_monomials(3, 1), 7)
    assert mat.tolist() == [[2, 3, 4]]


def test_evaluation_matrix_rescaling_keeps_kernel():
    # rescaling a direction scales its row, so the row space, and with it
    # the kernel, is unchanged: the two reduced forms are equal
    q = 7
    exponents = enumerate_monomials(3, 2)
    dirs = [(1, 2, 3), (1, 0, 5), (0, 1, 6)]
    scaled = [tuple(3 * c % q for c in n) for n in dirs]
    assert rref(monomial_values(dirs, exponents, q), PrimeField(q)) == rref(
        monomial_values(scaled, exponents, q), PrimeField(q))


def test_dichotomy_single_direction():
    res = dichotomy([(1, 0, 0)], 1, 5)
    assert res.branch == "algebraic"
    assert res.poly.evaluate((1, 0, 0), 5) == 0
    assert all(sum(e) == 1 for e, _ in res.poly.terms)


def test_dichotomy_two_points_of_projective_line_large():
    # over P^1 a nonzero linear binary form vanishes at one point only
    res = dichotomy([(1, 0), (0, 1)], 1, 7)
    assert res.branch == "large"
    assert res.n_directions >= res.basis_size == 2


def test_dichotomy_small_sets_always_algebraic():
    rng = random.Random(71)
    q = 7
    alldirs = list(map(tuple, all_projective_directions(q, 3).tolist()))
    for _ in range(200):
        D = rng.randrange(1, 4)
        dim = comb(3 + D - 1, 3 - 1)
        n = rng.randrange(1, dim)
        dirs = rng.sample(alldirs, n)
        res = dichotomy(dirs, D, q)
        assert res.branch == "algebraic"
        for v in dirs:
            assert res.poly.evaluate(v, q) == 0


def _pinned_draws():
    rng = random.Random(30)
    for _ in range(300):
        q = rng.choice((3, 5, 7, 11, 13, 61))
        nvars = rng.randrange(2, 5)
        D = rng.randrange(1, 4)
        dim = comb(nvars + D - 1, nvars - 1)
        n = rng.randrange(1, 2 * dim + 1)
        yield [tuple(rng.randrange(q) for _ in range(nvars))
               for _ in range(n)], D, q
    # criterion 4's shapes: fewer directions of P^2 than the basis size,
    # and the whole plane
    for q in (3, 5, 7, 11, 13):
        plane = [v for v in itertools.product(range(q), repeat=3) if any(v)]
        for D in (1, 2, 3):
            yield rng.sample(plane, rng.randrange(1, comb(D + 2, 2))), D, q
            yield plane, D, q


def test_dichotomy_results_pinned():
    # every result over fixed draws, 164 algebraic and 166 large, pinned
    # by one digest: any change in the form read off rref, its scaling,
    # its term order or the int type of its coefficients fails here
    h = hashlib.sha256()
    branches = []
    for dirs, D, q in _pinned_draws():
        r = dichotomy(dirs, D, q)
        branches.append(r.branch)
        h.update(repr((r.branch, r.poly and r.poly.terms, r.n_directions,
                       r.basis_size, r.degree)).encode())
    assert branches.count("algebraic") == 164
    assert branches.count("large") == 166
    assert h.hexdigest() == (
        "df4e3bc216cfe8f0638390113d09012ba7a1f6083ddffd8ceebd8ee82d7aefcd")


def test_dichotomy_full_projective_space_large_quadratic():
    # all of P^2(F_5): no nonzero quadratic form vanishes everywhere
    q = 5
    dirs = list(map(tuple, all_projective_directions(q, 3).tolist()))
    for D in (1, 2):
        res = dichotomy(dirs, D, q)
        assert res.branch == "large"


def test_evaluation_matrix_and_evaluate_many_match_pointwise():
    rng = random.Random(13)
    for q in (3, 5, 61, 65521):
        for nvars, degree in ((1, 3), (2, 5), (3, 4), (4, 2)):
            # every layer up to `degree`, so the power table serves
            # columns of mixed degree, the constant one included
            exponents = [e for i in range(degree + 1)
                         for e in enumerate_monomials(nvars, i)]
            pts = [tuple(rng.randrange(-2 * q, 2 * q) for _ in range(nvars))
                   for _ in range(8)] + [(10 ** 30 + 1,) * nvars]
            mat = monomial_values(pts, exponents, q).tolist()
            for p, row in zip(pts, mat):
                for exps, v in zip(exponents, row):
                    one = Polynomial(nvars, ((exps, 1),))
                    assert v == one.evaluate(p, q)
            poly = Polynomial(nvars, tuple(
                (e, rng.randrange(1, q)) for e in exponents
                if rng.random() < 0.5))
            assert poly.evaluate_many(pts, q).tolist() == [
                poly.evaluate(p, q) for p in pts]
            assert monomial_values([], exponents, q).shape == (
                0, len(exponents))
            assert Polynomial(nvars, ()).evaluate_many(pts, q).tolist() == [
                0] * len(pts)
