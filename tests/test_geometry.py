import itertools
import random

import numpy as np
import pytest

from ffrigidity.field import PrimeField
from ffrigidity.geometry import (IDENTICAL, PARALLEL_DISJOINT, Flat,
                                 Hyperplane, IsotropicNormal, SpaceTooLarge,
                                 Sphere, affine_chart,
                                 all_projective_directions,
                                 canonical_direction, canonical_hyperplane,
                                 flat_contained_in, flat_from_pair,
                                 flat_points, hyperplane_contains,
                                 hyperplane_incidence, hyperplane_points,
                                 make_space, point_grid, quad_norm,
                                 radical_hyperplane, reflect_point,
                                 sphere_contains, sphere_incidence,
                                 sphere_points)


# oracle: enumerate the whole space with itertools and test membership
# pointwise; no numpy, no shared code paths with the implementation
def sphere_points_oracle(s, q, d):
    out = []
    for x in itertools.product(range(q), repeat=d):
        if sum((a - b) ** 2 for a, b in zip(x, s.center)) % q == s.r % q:
            out.append(x)
    return out


def hyperplane_points_oracle(h, q, d):
    out = []
    for x in itertools.product(range(q), repeat=d):
        if sum(a * b for a, b in zip(h.normal, x)) % q == h.offset % q:
            out.append(x)
    return out


def test_make_space_validates_dimension():
    with pytest.raises(ValueError):
        make_space(7, 2)
    sp = make_space(7, 3)
    assert sp.q == 7 and sp.size == 343


def test_quad_norm_examples():
    assert quad_norm((1, 2, 3), 5) == 4
    assert quad_norm((0, 0, 0), 5) == 0
    # isotropic vector over F_5: 1 + 4 = 5 = 0
    assert quad_norm((1, 2, 0), 5) == 0


def test_sphere_points_match_oracle():
    rng = random.Random(21)
    for q in (3, 5, 7):
        sp = make_space(q, 3)
        for _ in range(10):
            s = Sphere(tuple(rng.randrange(q) for _ in range(3)),
                       rng.randrange(q))
            assert sphere_points(s, sp) == sphere_points_oracle(s, q, 3)


def test_hyperplane_points_match_oracle():
    rng = random.Random(22)
    for q in (3, 5, 7):
        sp = make_space(q, 3)
        for _ in range(10):
            normal = tuple(rng.randrange(q) for _ in range(3))
            if not any(normal):
                continue
            h = canonical_hyperplane(normal, rng.randrange(q), q)
            pts = hyperplane_points(h, sp)
            assert pts == hyperplane_points_oracle(h, q, 3)
            assert len(pts) == q ** 2


def test_point_grid_lexicographic_and_frozen():
    grid = point_grid(3, 3)
    assert grid.shape == (27, 3)
    assert list(grid[0]) == [0, 0, 0]
    assert list(grid[1]) == [0, 0, 1]
    assert list(grid[-1]) == [2, 2, 2]
    with pytest.raises(ValueError):
        grid[0, 0] = 1


def test_masks_agree_with_membership():
    rng = random.Random(11)
    for q, d in ((5, 3), (7, 3), (5, 4)):
        grid = point_grid(q, d)
        spheres = [Sphere(tuple(rng.randrange(q) for _ in range(d)),
                          rng.randrange(q)) for _ in range(6)]
        hyperplanes = [canonical_hyperplane(v, rng.randrange(q), q)
                       for v in (tuple(rng.randrange(q) for _ in range(d))
                                 for _ in range(6)) if any(v)]
        ms = sphere_incidence(grid, spheres, q)
        mh = hyperplane_incidence(grid, hyperplanes, q)
        assert ms.shape == (len(grid), len(spheres))
        assert mh.shape == (len(grid), len(hyperplanes))
        for i, row in enumerate(grid):
            x = tuple(int(c) for c in row)
            for j, s in enumerate(spheres):
                assert ms[i, j] == sphere_contains(s, x, q)
            for j, h in enumerate(hyperplanes):
                assert mh[i, j] == hyperplane_contains(h, x, q)
        pts = [tuple(int(c) for c in row) for row in grid[::7]]
        assert (sphere_incidence(pts, spheres, q) == ms[::7]).all()
        assert (hyperplane_incidence(pts, hyperplanes, q) == mh[::7]).all()
        assert sphere_incidence([], spheres, q).shape == (0, len(spheres))
        assert hyperplane_incidence([], hyperplanes, q).shape == (
            0, len(hyperplanes))
        assert sphere_incidence(pts, [], q).shape == (len(pts), 0)
        assert hyperplane_incidence(pts, [], q).shape == (len(pts), 0)


def test_canonical_direction_scaling_invariance():
    q = 7
    for v in ((2, 4, 6), (3, 6, 2), (0, 0, 5)):
        base = canonical_direction(v, q)
        assert next(c for c in base if c) == 1
        for s in range(1, q):
            scaled = tuple(s * c % q for c in v)
            assert canonical_direction(scaled, q) == base


def test_canonical_hyperplane_same_solution_set():
    q = 5
    sp = make_space(q, 3)
    h1 = canonical_hyperplane((2, 4, 0), 3, q)
    h2 = canonical_hyperplane((1, 2, 0), 4, q)  # same scaled by inv(2)=3
    assert h1 == h2
    assert hyperplane_points(h1, sp) == hyperplane_points_oracle(h1, q, 3)


def test_canonical_hyperplane_rejects_zero_normal():
    with pytest.raises(ValueError):
        canonical_hyperplane((0, 0, 0), 1, 5)


def test_radical_hyperplane_known_example():
    # centers (1,0,0) and (0,0,0) over F_5, equal radii: 2x1 = 1, x1 = 3
    q = 5
    s1 = Sphere((1, 0, 0), 2)
    s2 = Sphere((0, 0, 0), 2)
    h = radical_hyperplane(s2, s1, q)
    assert h == Hyperplane((1, 0, 0), 3)


def test_radical_hyperplane_concentric_is_none():
    assert radical_hyperplane(Sphere((1, 1, 1), 0), Sphere((1, 1, 1), 3), 5) is None


def test_radical_contains_all_intersection_points():
    rng = random.Random(23)
    for q in (3, 5, 7):
        sp = make_space(q, 3)
        for _ in range(25):
            s1 = Sphere(tuple(rng.randrange(q) for _ in range(3)),
                        rng.randrange(q))
            s2 = Sphere(tuple(rng.randrange(q) for _ in range(3)),
                        rng.randrange(q))
            if s1.center == s2.center:
                continue
            h = radical_hyperplane(s1, s2, q)
            common = set(sphere_points(s1, sp)) & set(sphere_points(s2, sp))
            for x in common:
                assert hyperplane_contains(h, x, q)


def test_flat_from_pair_generic_identical_parallel():
    q = 5
    f = PrimeField(q)
    sp = make_space(q, 3)
    h1 = canonical_hyperplane((1, 0, 0), 1, q)
    h2 = canonical_hyperplane((0, 1, 0), 2, q)
    flat = flat_from_pair(h1, h2, f)
    assert isinstance(flat, Flat)
    pts = flat_points(flat, sp)
    assert len(pts) == q  # codimension 2 in d = 3
    for x in pts:
        assert hyperplane_contains(h1, x, q)
        assert hyperplane_contains(h2, x, q)

    assert flat_from_pair(h1, h1, f) is IDENTICAL
    h3 = canonical_hyperplane((1, 0, 0), 2, q)
    assert flat_from_pair(h1, h3, f) is PARALLEL_DISJOINT


def test_flat_containment():
    q = 5
    f = PrimeField(q)
    h1 = canonical_hyperplane((1, 0, 0), 1, q)
    h2 = canonical_hyperplane((0, 1, 0), 2, q)
    flat = flat_from_pair(h1, h2, f)
    assert flat_contained_in(flat, h1, f)
    assert flat_contained_in(flat, h2, f)
    # x1 + x2 = 3 contains the flat as well (sum of the two equations)
    h4 = canonical_hyperplane((1, 1, 0), 3, q)
    assert flat_contained_in(flat, h4, f)
    h5 = canonical_hyperplane((0, 0, 1), 0, q)
    assert not flat_contained_in(flat, h5, f)


def test_flats_canonical_for_equal_solution_sets():
    # two presentations of the same flat reduce to the same rref rows
    q = 7
    f = PrimeField(q)
    h1 = canonical_hyperplane((1, 0, 3), 2, q)
    h2 = canonical_hyperplane((0, 1, 5), 1, q)
    flat_a = flat_from_pair(h1, h2, f)
    h3 = canonical_hyperplane((1, 1, 1), 3, q)  # h1 + h2
    flat_b = flat_from_pair(h1, h3, f)
    flat_c = flat_from_pair(h2, h3, f)
    assert flat_a == flat_b == flat_c


def test_reflect_point_involution_and_fixed_plane():
    q = 7
    f = PrimeField(q)
    h = canonical_hyperplane((1, 1, 1), 4, q)
    assert quad_norm(h.normal, q) != 0
    sp = make_space(q, 3)
    rng = random.Random(24)
    for _ in range(20):
        x = tuple(rng.randrange(q) for _ in range(3))
        y = reflect_point(x, h, f)
        assert reflect_point(y, h, f) == x
        if hyperplane_contains(h, x, q):
            assert y == x
    # reflection preserves form distance to any fixed plane point
    a = hyperplane_points(h, sp)[0]
    for _ in range(20):
        x = tuple(rng.randrange(q) for _ in range(3))
        y = reflect_point(x, h, f)
        dx = quad_norm(tuple((c - b) % q for c, b in zip(x, a)), q)
        dy = quad_norm(tuple((c - b) % q for c, b in zip(y, a)), q)
        assert dx == dy


def test_reflect_point_isotropic_normal_rejected():
    q = 5
    f = PrimeField(q)
    h = Hyperplane((1, 2, 0), 0)  # norm 1 + 4 = 0 mod 5
    with pytest.raises(IsotropicNormal):
        reflect_point((1, 1, 1), h, f)


def test_affine_chart():
    q = 7
    v = (3, 1, 2)
    assert affine_chart(v, 1, q) is not None
    # chart j scales so coordinate j becomes 1, then drops it
    chart = affine_chart(v, 1, q)
    inv3 = pow(3, q - 2, q)
    assert chart == (1 * inv3 % q, 2 * inv3 % q)
    assert affine_chart((0, 1, 2), 1, q) is None  # zero in slot 1


def test_all_projective_directions_count_and_canonical():
    for q, d in ((3, 3), (5, 3), (3, 4)):
        dirs = all_projective_directions(q, d)
        assert len(dirs) == (q ** d - 1) // (q - 1)
        assert len(set(dirs)) == len(dirs)
        assert dirs == sorted(dirs)
        for v in dirs:
            assert next(c for c in v if c) == 1


def test_space_too_large_guard():
    sp = make_space(257, 3)  # 257**3 > 2**24
    with pytest.raises(SpaceTooLarge):
        point_grid(sp.q, sp.d)
