import itertools
import random
from math import comb

import pytest

from ffrigidity.dichotomy import (BasisTooLarge, EmptyChart, Polynomial,
                                  affine_dichotomy, dichotomy,
                                  enumerate_monomials, evaluation_matrix,
                                  homogenize, linear_form_power,
                                  monomial_basis,
                                  polynomial_from_vector, veronese_dependence)
from ffrigidity.geometry import all_projective_directions, canonical_hyperplane


def test_monomial_counts():
    assert len(enumerate_monomials(3, 2, homogeneous=True)) == 6
    assert len(enumerate_monomials(2, 3, homogeneous=False)) == 10
    for nvars in range(1, 6):
        for D in range(9):
            inh = len(enumerate_monomials(nvars, D, homogeneous=False))
            # hockey-stick: sum of homogeneous layers collapses
            assert inh == comb(nvars + D, nvars)
            assert inh == sum(
                len(enumerate_monomials(nvars, i, homogeneous=True))
                for i in range(D + 1))


def test_monomial_order_graded_then_reverse_lex():
    mons = enumerate_monomials(2, 2, homogeneous=False)
    assert mons == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    homo = enumerate_monomials(3, 2, homogeneous=True)
    assert homo[0] == (2, 0, 0)
    assert homo[-1] == (0, 0, 2)


def test_basis_cap():
    with pytest.raises(BasisTooLarge):
        enumerate_monomials(12, 12, homogeneous=False)


def test_polynomial_evaluate_and_degree():
    # x1^2 + 4 x2 over F_5
    p = Polynomial(nvars=2, terms=(((0, 1), 4), ((2, 0), 1)))
    assert p.degree() == 2
    assert p.evaluate((1, 1), 5) == 0
    assert p.evaluate((2, 4), 5) == 0
    assert p.evaluate((1, 2), 5) == 4
    zero = Polynomial(nvars=2, terms=())
    assert zero.is_zero() and zero.degree() == -1


def test_evaluation_matrix_single_direction_linear():
    basis = monomial_basis(3, 1, homogeneous=True)
    mat = evaluation_matrix([(2, 3, 4)], basis, 7)
    assert mat == [[2, 3, 4]]


def test_evaluation_matrix_rescaling_keeps_kernel():
    q = 7
    basis = monomial_basis(3, 2, homogeneous=True)
    dirs = [(1, 2, 3), (1, 0, 5), (0, 1, 6)]
    scaled = [tuple(3 * c % q for c in n) for n in dirs]
    from ffrigidity.field import PrimeField, kernel_basis
    k1 = kernel_basis(evaluation_matrix(dirs, basis, q), PrimeField(q))
    k2 = kernel_basis(evaluation_matrix(scaled, basis, q), PrimeField(q))
    assert k1 == k2


def test_dichotomy_single_direction():
    res = dichotomy([(1, 0, 0)], 1, 5)
    assert res.branch == "algebraic"
    assert res.poly.evaluate((1, 0, 0), 5) == 0
    assert res.poly.degree() == 1


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


def test_dichotomy_full_projective_space_large_quadratic():
    # all of P^2(F_5): no nonzero quadratic form vanishes everywhere
    q = 5
    dirs = list(map(tuple, all_projective_directions(q, 3).tolist()))
    for D in (1, 2):
        res = dichotomy(dirs, D, q)
        assert res.branch == "large"


def test_affine_dichotomy_single_direction():
    res = affine_dichotomy([(1, 2, 3)], chart=1, D=1, q=7)
    assert res.branch == "algebraic"
    assert res.homogenized.evaluate((1, 2, 3), 7) == 0
    assert res.homogenized.degree() <= 1


def test_affine_dichotomy_chart_miss():
    with pytest.raises(EmptyChart):
        affine_dichotomy([(0, 1, 2)], chart=1, D=1, q=5)


@pytest.mark.parametrize("chart", [0, 4])
def test_affine_dichotomy_chart_out_of_range(chart):
    dirs = list(map(tuple, all_projective_directions(5, 3).tolist()))
    with pytest.raises(ValueError, match="out of range"):
        affine_dichotomy(dirs, chart=chart, D=1, q=5)


def test_affine_dichotomy_homogenized_vanishes_on_chart_dirs():
    rng = random.Random(72)
    q = 7
    alldirs = [v for v in map(tuple, all_projective_directions(q, 3).tolist())
               if v[0] != 0]
    for _ in range(100):
        D = rng.randrange(1, 4)
        dim = comb(3 - 1 + D, 3 - 1)
        n = rng.randrange(1, dim)
        dirs = rng.sample(alldirs, n)
        res = affine_dichotomy(dirs, chart=1, D=D, q=q)
        assert res.branch == "algebraic"
        assert res.homogenized.degree() <= D
        for v in dirs:
            assert res.homogenized.evaluate(v, q) == 0


def test_affine_dichotomy_large_when_saturated():
    # every direction of the chart u1 != 0 kills all degree-1 kernels
    q = 5
    dirs = [v for v in map(tuple, all_projective_directions(q, 3).tolist())
               if v[0] != 0]
    res = affine_dichotomy(dirs, chart=1, D=1, q=q)
    assert res.branch == "large"
    assert res.n_chart_points >= res.basis_size


def test_homogenize_roundtrip_on_chart():
    # substituting u_chart = 1 into the homogenization recovers the input
    q = 7
    p = Polynomial(nvars=2, terms=(((0, 0), 3), ((1, 0), 2), ((0, 2), 1)))
    hom = homogenize(p, chart=1, nvars_out=3)
    assert hom.degree() == p.degree()
    for a in range(q):
        for b in range(q):
            assert hom.evaluate((1, a, b), q) == p.evaluate((a, b), q)


# oracle: evaluate (<n,x> - b)^D pointwise and compare against the
# polynomial assembled from the multinomial coefficient vector
def test_linear_form_power_matches_pointwise_oracle():
    rng = random.Random(73)
    q = 5
    for _ in range(20):
        D = rng.randrange(1, 4)
        h = canonical_hyperplane(
            tuple(rng.randrange(q) for _ in range(3)) if rng.random() < .9
            else (1, 0, 0), rng.randrange(q), q)
        if not any(h.normal):
            continue
        basis = monomial_basis(3, D, homogeneous=False)
        vec = linear_form_power(h, D, q, basis)
        poly = polynomial_from_vector(basis, vec, q)
        for x in itertools.product(range(q), repeat=3):
            lin = (sum(a * b for a, b in zip(h.normal, x)) - h.offset) % q
            assert poly.evaluate(x, q) == pow(lin, D, q)


def test_veronese_duplicate_hyperplane():
    q = 5
    h = canonical_hyperplane((1, 2, 3), 4, q)
    other = canonical_hyperplane((1, 0, 0), 0, q)
    # pad the list over the dimension bound with distinct hyperplanes
    hps = [h, h]
    for b in range(q):
        for n in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)):
            cand = canonical_hyperplane(n, b, q)
            if cand not in hps:
                hps.append(cand)
    res = veronese_dependence(hps[:comb(3 + 1, 3) + 1], 1, q)
    assert res.branch == "dependent"
    assert res.coefficients[0] == 1
    assert res.coefficients[1] == q - 1
    assert all(c == 0 for c in res.coefficients[2:])


def test_veronese_too_few():
    q = 5
    hps = [canonical_hyperplane((1, 0, 0), b, q) for b in range(3)]
    res = veronese_dependence(hps, 1, q)
    assert res.branch == "too-few"
    assert res.basis_size == comb(3 + 1, 3)


def test_veronese_forced_dependence_random():
    rng = random.Random(74)
    q = 7
    for D in (1, 2):
        dim = comb(3 + D, 3)
        for _ in range(10):
            hps = set()
            while len(hps) < dim + 1:
                n = tuple(rng.randrange(q) for _ in range(3))
                if any(n):
                    hps.add(canonical_hyperplane(n, rng.randrange(q), q))
            res = veronese_dependence(sorted(hps), D, q)
            assert res.branch == "dependent"
            assert any(res.coefficients)


def test_evaluation_matrix_and_evaluate_many_match_pointwise():
    rng = random.Random(13)
    for q in (3, 5, 61, 65521):
        for nvars, degree, homogeneous in ((1, 3, False), (2, 5, True),
                                           (3, 4, False), (4, 2, True)):
            basis = monomial_basis(nvars, degree, homogeneous)
            pts = [tuple(rng.randrange(-2 * q, 2 * q) for _ in range(nvars))
                   for _ in range(8)] + [(10 ** 30 + 1,) * nvars]
            mat = evaluation_matrix(pts, basis, q)
            for p, row in zip(pts, mat):
                for exps, v in zip(basis.exponents, row):
                    one = Polynomial(nvars, ((exps, 1),))
                    assert v == one.evaluate(p, q)
            poly = Polynomial(nvars, tuple(
                (e, rng.randrange(1, q)) for e in basis.exponents
                if rng.random() < 0.5))
            assert poly.evaluate_many(pts, q).tolist() == [
                poly.evaluate(p, q) for p in pts]
            assert evaluation_matrix([], basis, q) == []
            assert Polynomial(nvars, ()).evaluate_many(pts, q).tolist() == [
                0] * len(pts)
