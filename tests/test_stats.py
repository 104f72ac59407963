import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ffrigidity.geometry import (Sphere, canonical_hyperplane, hyperplane_points,
                                 make_space, quad_norm)
from ffrigidity.stats import (Config, ceil_sqrt, energies, make_config,
                              membership_matrix, near_extremality_from_counts)


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


def test_config_sphere_array_is_the_spheres_as_frozen_rows():
    # the one field beside the point arrays that the array kernels read:
    # the spheres as int64 rows (center, r), out of equality and hashing
    fields = {f.name: f for f in dataclasses.fields(Config)}
    assert list(fields) == ["space", "points", "spheres", "point_array",
                            "point_lift", "sphere_array"]
    for name in ("point_array", "point_lift", "sphere_array"):
        assert not fields[name].compare and not fields[name].hash
    sp = make_space(7, 3)
    spheres = [Sphere((1, 8, 3), 9), ((1, 1, 1), 2), Sphere((1, 1, 8), 2)]
    a = make_config(sp, [(1, 2, 3)], spheres)
    b = make_config(sp, [(1, 2, 3)], spheres)
    assert a.sphere_array is not b.sphere_array
    assert a == b and hash(a) == hash(b)
    assert a.sphere_array.dtype == np.int64
    assert a.sphere_array.tolist() == [[*s.center, s.r] for s in a.spheres]
    assert a.sphere_array.tolist() == [[1, 1, 3, 2], [1, 1, 1, 2]]
    with pytest.raises(ValueError):
        a.sphere_array[0, 0] = 5
    for d in (3, 4):
        empty = make_config(make_space(5, d), [(0,) * d], [])
        assert empty.sphere_array.shape == (0, d + 1)
        assert empty.sphere_array.dtype == np.int64


def test_config_point_lift_is_the_frozen_lift_of_the_points():
    # the rows [x mod q | ||x|| mod q | 1] the incidence kernels read, in
    # deduplicated input order, from unreduced and negative coordinates
    # up to 2**40 * q away from their residues; point_array is a view of
    # its first d columns, so a config holds its coordinates once
    rng = random.Random(37)
    for q, d in ((5, 3), (61, 3), (13, 4)):
        raw = [tuple(rng.choice((0, q - 1, rng.randrange(q)))
                     + q * rng.choice((-1 << 40, -1, 0, 1, 1 << 40))
                     for _ in range(d)) for _ in range(40)]
        raw += [tuple(-c for c in x) for x in raw[:8]] + raw[:8]
        first = {}
        for x in raw:
            first.setdefault(tuple(c % q for c in x), x)
        cfg = make_config(make_space(q, d), raw, [])
        assert cfg.point_lift.dtype == np.int64
        assert cfg.point_lift.tolist() == [[*p, quad_norm(x, q), 1]
                                           for p, x in first.items()]
        assert np.shares_memory(cfg.point_array, cfg.point_lift)
        assert cfg.point_array.tolist() == cfg.point_lift[:, :d].tolist()
        with pytest.raises(ValueError):
            cfg.point_lift[0, d] = 0
        empty = make_config(make_space(q, d), [], [Sphere((0,) * d, 1)])
        assert empty.point_lift.shape == (0, d + 2)
        assert empty.point_lift.dtype == np.int64


def test_empty_sides_allowed_but_k_guarded():
    # empty configs are representable (analyze reports all zeros), and
    # K is 0 on either empty side
    sp = make_space(5, 3)
    cfg = make_config(sp, [], [Sphere((0, 0, 0), 1)])
    st = energies(cfg)
    assert st.incidences == 0
    assert st.K2 == 0 and st.K == 0.0
    st = energies(make_config(sp, [(0, 0, 0)], []))
    assert st.incidences == 0
    assert st.K2 == 0 and st.K == 0.0
    # the count form is the one empty-side rule of extract and energies
    assert near_extremality_from_counts(0, 0, 5, 5, 3) == (0, 0.0)
    assert near_extremality_from_counts(0, 25, 0, 5, 3) == (0, 0.0)


def test_single_incidence():
    sp = make_space(5, 3)
    cfg = make_config(sp, [(1, 0, 0)], [Sphere((0, 0, 0), 1)])
    st = energies(cfg)
    assert st.incidences == 1
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
        assert np.count_nonzero(membership_matrix(cfg)) == \
            incidence_oracle(cfg)
        assert energies(cfg).incidences == incidence_oracle(cfg)


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
    st = energies(cfg)
    assert st.incidences == 1
    assert st.K2 == 0


def test_k_from_counts_formula():
    # I = 30, np = 25, ns = 5, q = 5, d = 3: surplus 5, K = 5/(5*isqrt(125))
    k2, k = near_extremality_from_counts(30, 25, 5, 5, 3)
    # d odd: K = surplus / (q * sqrt(np ns)) = 5 / (5 sqrt(125))
    assert isinstance(k2, Fraction) and k2 == Fraction(1, 125)
    assert k == pytest.approx(5 / (5 * 125 ** 0.5))
    assert k > 0


def test_k_doubles_with_surplus():
    sq1, k1 = near_extremality_from_counts(30, 25, 5, 5, 3)
    sq2, k2 = near_extremality_from_counts(35, 25, 5, 5, 3)
    # surplus 5 -> 10 doubles K and quadruples K**2
    assert k2 == pytest.approx(2 * k1)
    assert sq2 == 4 * sq1


def test_k_negative_surplus_clamps():
    assert near_extremality_from_counts(0, 25, 5, 5, 3) == (0, 0.0)
    assert near_extremality_from_counts(5, 25, 5, 5, 3) == (0, 0.0)


def test_planted_hyperplane_k_positive():
    # all q^2 points of x3 = 0 against one sphere through many of them
    q = 5
    sp = make_space(q, 3)
    h = canonical_hyperplane((0, 0, 1), 0, q)
    pts = hyperplane_points(h, sp)
    s = Sphere((0, 0, 1), 1)  # ||x - c|| = 1 meets the plane in a conic
    cfg = make_config(sp, pts, [s])
    st = energies(cfg)
    i, k2 = st.incidences, st.K2
    expected_surplus = Fraction(i) - Fraction(len(pts), q)
    if expected_surplus > 0:
        assert k2 > 0


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


def test_ceil_sqrt_exact_boundaries():
    assert ceil_sqrt(Fraction(0)) == 0
    assert ceil_sqrt(Fraction(-3, 2)) == 0
    eps = Fraction(1, 10 ** 30)
    for t in (1, 2, 3, 4, 12, 10 ** 6 + 3):
        t2 = Fraction(t * t)
        assert ceil_sqrt(t2) == t
        assert ceil_sqrt(t2 - eps) == t
        assert ceil_sqrt(t2 + eps) == t + 1
    for t in (Fraction(1, 2), Fraction(7, 3), Fraction(22, 7),
              Fraction(10 ** 9 + 7, 10 ** 4)):
        up = math.ceil(t)
        assert ceil_sqrt(t * t) == up
        assert ceil_sqrt(t * t - eps) == up
        assert ceil_sqrt(t * t + eps) == up
    # a numerator near 10**40, past exact float64 integers
    big = 10 ** 40
    assert ceil_sqrt(Fraction(big)) == 10 ** 20
    assert ceil_sqrt(Fraction(big - 1)) == 10 ** 20
    assert ceil_sqrt(Fraction(big + 1)) == 10 ** 20 + 1
    assert ceil_sqrt(Fraction(big + 1, 4)) == 5 * 10 ** 19 + 1
    assert ceil_sqrt(Fraction(big, 9)) == 10 ** 20 // 3 + 1


def test_ceil_sqrt_against_float():
    rng = random.Random(12)
    for _ in range(400):
        x = Fraction(rng.randrange(0, 3000), rng.randrange(1, 81))
        assert ceil_sqrt(x) == math.ceil(round(math.sqrt(x), 9))


def test_ceil_sqrt_decides_integer_comparisons():
    """A count c >= 0 meets sqrt(x) exactly when c * c >= x, which is
    exactly when c >= ceil_sqrt(x)."""
    rng = random.Random(9)
    squares = [Fraction(0), Fraction(9), Fraction(49, 4), Fraction(-5, 3)]
    squares += [Fraction(rng.randrange(-40, 1600), rng.randrange(1, 9))
                for _ in range(60)]
    for x in squares:
        cutoff = ceil_sqrt(x)
        for c in range(0, 60):
            assert (c * c >= x) == (c >= cutoff)
