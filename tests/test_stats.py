import random
from fractions import Fraction

import numpy as np
import pytest

from ffrigidity.exact import SqrtRational
from ffrigidity.geometry import Sphere, hyperplane_points, make_space, canonical_hyperplane
from ffrigidity.stats import (EmptyConfig, energies, incidence_count,
                              make_config, membership_matrix,
                              near_extremality_K, near_extremality_from_counts)


def random_config(rng, q=7, d=3, n_points=20, n_spheres=12):
    sp = make_space(q, d)
    pts = set()
    while len(pts) < n_points:
        pts.add(tuple(rng.randrange(q) for _ in range(d)))
    sph = set()
    while len(sph) < n_spheres:
        sph.add(Sphere(tuple(rng.randrange(q) for _ in range(d)),
                       rng.randrange(q)))
    return make_config(sp, sorted(pts), sorted(sph))


# oracle: loop over spheres first, points second, counting memberships
def incidence_oracle(config):
    q = config.q
    total = 0
    for s in config.spheres:
        for p in config.points:
            if sum((a - b) ** 2 for a, b in zip(p, s.center)) % q == s.r % q:
                total += 1
    return total


# oracle: direct triple loop over (p, S, S') with S != S'
def off_diagonal_oracle(config):
    q = config.q
    def on(p, s):
        return sum((a - b) ** 2 for a, b in zip(p, s.center)) % q == s.r % q
    total = 0
    for i, s1 in enumerate(config.spheres):
        for j, s2 in enumerate(config.spheres):
            if i == j:
                continue
            total += sum(1 for p in config.points if on(p, s1) and on(p, s2))
    return total


def test_make_config_dedups_and_canonicalizes():
    sp = make_space(5, 3)
    cfg = make_config(sp, [(1, 2, 3), (6, 7, 8), (0, 0, 0)],
                      [Sphere((1, 1, 1), 7), Sphere((6, 6, 6), 2)])
    assert len(cfg.points) == 2  # (6,7,8) reduces to (1,2,3)
    assert len(cfg.spheres) == 1
    assert cfg.points[0] == (1, 2, 3)  # first occurrence kept
    assert cfg.point_array.tolist() == [[1, 2, 3], [0, 0, 0]]
    with pytest.raises(ValueError, match="does not have dimension 3"):
        make_config(sp, [(1, 2, 3), (1, 2)], [])
    # a plain (center, r) pair reads as a Sphere; the error names the
    # first bad center, reduced
    cfg = make_config(sp, [], [((6, 1, 1), 7), Sphere((1, 1, 1), 2)])
    assert cfg.spheres == (Sphere((1, 1, 1), 2),)
    with pytest.raises(ValueError,
                       match=r"sphere center \(1, 2\) does not have dim"):
        make_config(sp, [], [((1, 1, 1), 0), Sphere((6, 7), 1), ((0, 0), 2)])


def test_config_equality_ignores_point_array():
    # configs are compared with == and != (the benchmark's traced pass
    # does), so the array must stay out of equality and hashing
    sp = make_space(7, 3)
    pts = [(1, 2, 3), (8, 9, 10), (4, 0, 6)]
    a = make_config(sp, pts, [Sphere((1, 1, 1), 2)])
    b = make_config(sp, pts, [Sphere((1, 1, 1), 2)])
    assert a.point_array is not b.point_array
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != make_config(sp, pts[:2], [Sphere((1, 1, 1), 2)])
    assert a.point_array.dtype == np.int64
    assert a.point_array.tolist() == [list(p) for p in a.points]
    with pytest.raises(ValueError):
        a.point_array[0, 0] = 5
    for d in (3, 4):
        empty = make_config(make_space(5, d), [], [])
        assert empty.point_array.shape == (0, d)
        assert empty.point_array.dtype == np.int64


def test_empty_sides_allowed_but_k_guarded():
    # empty configs are representable (analyze reports all zeros);
    # only the near-extremality parameter refuses them
    sp = make_space(5, 3)
    cfg = make_config(sp, [], [Sphere((0, 0, 0), 1)])
    assert incidence_count(cfg) == 0
    assert energies(cfg).K.is_zero()
    with pytest.raises(EmptyConfig):
        near_extremality_K(cfg)
    with pytest.raises(EmptyConfig):
        near_extremality_K(make_config(sp, [(0, 0, 0)], []))


def test_single_incidence():
    sp = make_space(5, 3)
    cfg = make_config(sp, [(1, 0, 0)], [Sphere((0, 0, 0), 1)])
    assert incidence_count(cfg) == 1
    st = energies(cfg)
    assert st.energy == 1 and st.dual_energy == 1 and st.off_diagonal == 0


def test_point_on_two_spheres():
    sp = make_space(5, 3)
    cfg = make_config(sp, [(1, 0, 0)],
                      [Sphere((0, 0, 0), 1), Sphere((2, 0, 0), 1)])
    st = energies(cfg)
    assert st.incidences == 2
    assert st.energy == 4
    assert st.off_diagonal == 2
    assert st.energy == st.incidences + st.off_diagonal


def test_incidences_match_oracle():
    rng = random.Random(31)
    for _ in range(15):
        cfg = random_config(rng)
        assert incidence_count(cfg) == incidence_oracle(cfg)


def test_degree_sums_equal_incidences():
    rng = random.Random(32)
    for _ in range(10):
        cfg = random_config(rng)
        st = energies(cfg)
        mat = membership_matrix(cfg)
        assert sum(mat.sum(axis=1).tolist()) == st.incidences
        assert sum(mat.sum(axis=0).tolist()) == st.incidences


def test_energy_identity_and_off_diagonal_oracle():
    rng = random.Random(33)
    for _ in range(12):
        cfg = random_config(rng, n_points=15, n_spheres=8)
        st = energies(cfg)
        mat = membership_matrix(cfg)
        assert st.energy == sum(d * d for d in mat.sum(axis=1).tolist())
        assert st.dual_energy == sum(d * d for d in mat.sum(axis=0).tolist())
        assert st.off_diagonal == off_diagonal_oracle(cfg)
        assert st.energy == st.incidences + st.off_diagonal
        assert st.incidences ** 2 <= len(cfg.points) * st.energy


def test_membership_matrix_shape_and_content():
    rng = random.Random(34)
    cfg = random_config(rng, n_points=10, n_spheres=6)
    m = membership_matrix(cfg)
    assert m.shape == (10, 6)
    q = cfg.q
    for i, p in enumerate(cfg.points):
        for j, s in enumerate(cfg.spheres):
            member = sum((a - b) ** 2
                         for a, b in zip(p, s.center)) % q == s.r % q
            assert bool(m[i, j]) == member


def test_k_zero_at_exact_random_count():
    # 5 points, 1 sphere over F_5 with exactly |P||S|/q = 1 incidence
    sp = make_space(5, 3)
    pts = [(1, 0, 0), (0, 1, 1), (3, 3, 3), (2, 1, 0), (4, 4, 1)]
    cfg = make_config(sp, pts, [Sphere((0, 0, 0), 1)])
    assert incidence_count(cfg) == 1
    assert near_extremality_K(cfg).is_zero()


def test_k_from_counts_formula():
    # I = 30, np = 25, ns = 5, q = 5, d = 3: surplus 5, K = 5/(5*isqrt(125))
    k = near_extremality_from_counts(30, 25, 5, 5, 3)
    assert isinstance(k, SqrtRational)
    expected = Fraction(30 - 25) / 5 ** ((3 - 1) // 2)
    # d odd: K = surplus / (q * sqrt(np ns)) = 5 / (5 sqrt(125))
    assert float(k) == pytest.approx(5 / (5 * 125 ** 0.5))
    assert k > 0


def test_k_doubles_with_surplus():
    k1 = near_extremality_from_counts(30, 25, 5, 5, 3)
    k2 = near_extremality_from_counts(35, 25, 5, 5, 3)
    # surplus 5 -> 10 doubles K
    assert float(k2) == pytest.approx(2 * float(k1))


def test_k_negative_surplus_clamps():
    assert near_extremality_from_counts(0, 25, 5, 5, 3).is_zero()
    assert near_extremality_from_counts(5, 25, 5, 5, 3).is_zero()


def test_planted_hyperplane_k_positive():
    # all q^2 points of x3 = 0 against one sphere through many of them
    q = 5
    sp = make_space(q, 3)
    h = canonical_hyperplane((0, 0, 1), 0, q)
    pts = hyperplane_points(h, sp)
    s = Sphere((0, 0, 1), 1)  # ||x - c|| = 1 meets the plane in a conic
    cfg = make_config(sp, pts, [s])
    i = incidence_count(cfg)
    k = near_extremality_K(cfg)
    expected_surplus = Fraction(i) - Fraction(len(pts), q)
    if expected_surplus > 0:
        assert not k.is_zero()


def test_equality_case_uniform_degrees():
    # every point on exactly one sphere: energy = I^2/|P| exactly
    sp = make_space(5, 3)
    s = Sphere((0, 0, 0), 1)
    pts = [p for p in hyperplane_points(
        canonical_hyperplane((0, 0, 1), 0, 5), sp)
        if sum(c * c for c in p) % 5 == 1]
    cfg = make_config(sp, pts, [s])
    st = energies(cfg)
    assert st.energy == st.incidences ** 2 / len(cfg.points)
