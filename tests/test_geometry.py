import itertools
import random
import tracemalloc

import numpy as np
import pytest

from ffrigidity import geometry
from ffrigidity.field import PrimeField
from ffrigidity.geometry import (IDENTICAL, PARALLEL_DISJOINT, Flat,
                                 Hyperplane, SpaceTooLarge, Sphere,
                                 all_projective_directions,
                                 canonical_hyperplane,
                                 flat_contained_in, flat_from_pair,
                                 flat_points, hyperplane_contains,
                                 hyperplane_incidence, hyperplane_points,
                                 incidence_gram, make_space, point_grid,
                                 quad_norm, radical_hyperplane,
                                 sphere_contains, sphere_incidence)


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
    # a sphere's points as the generators take them: the grid rows that
    # sphere_incidence marks, still in lexicographic order
    rng = random.Random(21)
    for q in (3, 5, 7):
        grid = point_grid(q, 3)
        for _ in range(10):
            s = Sphere(tuple(rng.randrange(q) for _ in range(3)),
                       rng.randrange(q))
            rows = grid[sphere_incidence(grid, [s], q)[:, 0]]
            assert list(map(tuple, rows.tolist())) == sphere_points_oracle(s, q, 3)


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
        for inc in (ms, mh, ms[:0], mh[:, :0]):
            dense = inc.astype(np.int64)
            assert (incidence_gram(inc) == dense.T @ dense).all()


def _row_sum_gram(inc):
    """The earlier loop: row a of the Gram sums the rows incident to
    column a, in integer arithmetic throughout."""
    m = inc.shape[1]
    gram = np.empty((m, m), dtype=np.int64)
    for a in range(m):
        gram[a] = inc[inc[:, a]].sum(axis=0)
    return gram


def test_incidence_gram_matches_row_sum_loop():
    rng = np.random.default_rng(17)
    shapes = [(0, 6), (9, 0), (0, 0), (1, 8), (1, 1), (70000, 3)]
    shapes += [tuple(rng.integers(1, 400, size=2).tolist()) for _ in range(25)]
    # column strips of 8 and of 62 columns, and one product for thin strips
    shapes += [(245, 251), (60, 140), (2000, 120)]
    for rows, cols in shapes:
        inc = rng.random((rows, cols)) < rng.random()
        gram = incidence_gram(inc)
        assert gram.dtype == np.int64 and gram.shape == (cols, cols)
        assert (gram == _row_sum_gram(inc)).all()
    # column counts past float16 and bfloat16 range stay exact
    tall = np.ones((70000, 2), dtype=bool)
    tall[::3, 1] = False
    assert incidence_gram(tall).tolist() == [[70000, 46666], [46666, 46666]]


def test_incidence_gram_refuses_rows_beyond_float32_exactness():
    # a zero-stride view: 2**24 rows without allocating them
    inc = np.lib.stride_tricks.as_strided(np.ones(1, dtype=bool),
                                          shape=(1 << 24, 2), strides=(0, 0))
    with pytest.raises(AssertionError):
        incidence_gram(inc)


def _edge_value(rng, q):
    """0, q - 1 or a random residue, shifted by a multiple of q: the
    field's edge values and unreduced representatives of them, some far
    beyond the range where float64 sums of their products are exact."""
    shift = rng.choice((-1 << 40, -1, 0, 0, 1, 1 << 40))
    return rng.choice((0, q - 1, rng.randrange(q))) + q * shift


def _edge_families(rng, q, d, n, m):
    """n points, m spheres and m hyperplanes with unreduced coordinates,
    and the spheres and hyperplanes reduced, for the scalar oracles."""
    def vec():
        return tuple(_edge_value(rng, q) for _ in range(d))
    pts = np.asarray([vec() for _ in range(n)], dtype=np.int64).reshape(n, d)
    spheres = [Sphere(vec(), _edge_value(rng, q)) for _ in range(m)]
    hyperplanes = [Hyperplane(vec(), _edge_value(rng, q)) for _ in range(m)]
    reduced_s = [Sphere(tuple(c % q for c in s.center), s.r % q)
                 for s in spheres]
    reduced_h = [Hyperplane(tuple(c % q for c in h.normal), h.offset % q)
                 for h in hyperplanes]
    return pts, spheres, hyperplanes, reduced_s, reduced_h


def _oracle(contains, family, pts, q):
    points = [tuple(row) for row in pts.tolist()]
    return np.asarray([[contains(f, x, q) for f in family] for x in points],
                      dtype=bool).reshape(len(points), len(family))


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("q", [3, 61, 65521])
def test_incidence_kernels_match_scalar_oracles_at_block_edges(q, d):
    rng = random.Random(q * 10 + d)
    m = 1025
    step = geometry._BLOCK_CELLS // m
    pts, spheres, hyperplanes, reduced_s, reduced_h = _edge_families(
        rng, q, d, step + 1, m)
    ms = _oracle(sphere_contains, reduced_s, pts, q)
    mh = _oracle(hyperplane_contains, reduced_h, pts, q)
    assert ms.any() and mh.any() and not ms.all() and not mh.all()
    # no points, one point, exactly one row block, one block and one row
    for n in (0, 1, step, step + 1):
        assert (sphere_incidence(pts[:n], spheres, q) == ms[:n]).all()
        assert (hyperplane_incidence(pts[:n], hyperplanes, q)
                == mh[:n]).all()
    points = [tuple(row) for row in pts[:3].tolist()]
    assert (sphere_incidence(points, spheres, q) == ms[:3]).all()
    assert (hyperplane_incidence(points, hyperplanes, q) == mh[:3]).all()
    rows = np.asarray([(*h.normal, h.offset) for h in hyperplanes])
    assert (hyperplane_incidence(pts, rows, q) == mh).all()


@pytest.mark.parametrize("q, d", [(61, 3), (65521, 4)])
def test_incidence_kernels_with_more_columns_than_a_block(q, d):
    # more than 2**15 columns: every row block is a single row
    rng = random.Random(q + d)
    m = geometry._BLOCK_CELLS + 1
    pts, spheres, hyperplanes, reduced_s, reduced_h = _edge_families(
        rng, q, d, 2, m)
    ms = _oracle(sphere_contains, reduced_s, pts, q)
    mh = _oracle(hyperplane_contains, reduced_h, pts, q)
    assert ms.any() and mh.any() and not ms.all() and not mh.all()
    assert (sphere_incidence(pts, spheres, q) == ms).all()
    assert (hyperplane_incidence(pts, hyperplanes, q) == mh).all()


def test_incidence_kernels_refuse_modulus_beyond_float64_exactness():
    q = 1 << 25  # 4 * d * q * q reaches 2**50 already at d = 1
    pts = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(AssertionError):
        sphere_incidence(pts, [Sphere((0, 0, 0), 0)], q)
    with pytest.raises(AssertionError):
        hyperplane_incidence(pts, [Hyperplane((1, 0, 0), 0)], q)


def test_sphere_incidence_memory_is_bounded():
    # the |P| x |S| bool output is 0.23 MB; whole-matrix int64
    # temporaries would take 1.9 MB each
    rng = np.random.default_rng(19)
    q = 61
    pts = rng.integers(0, q, size=(2000, 3))
    spheres = [Sphere(tuple(c), r) for c, r in zip(
        rng.integers(0, q, size=(120, 3)).tolist(),
        rng.integers(0, q, size=120).tolist())]
    tracemalloc.start()
    try:
        inc = sphere_incidence(pts, spheres, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inc.shape == (2000, 120) and inc.any()
    assert peak < 1 << 20


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
        for _ in range(25):
            s1 = Sphere(tuple(rng.randrange(q) for _ in range(3)),
                        rng.randrange(q))
            s2 = Sphere(tuple(rng.randrange(q) for _ in range(3)),
                        rng.randrange(q))
            if s1.center == s2.center:
                continue
            h = radical_hyperplane(s1, s2, q)
            common = (set(sphere_points_oracle(s1, q, 3))
                      & set(sphere_points_oracle(s2, q, 3)))
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


def test_all_projective_directions_count_and_canonical():
    for q, d in ((3, 3), (5, 3), (3, 4)):
        table = all_projective_directions(q, d)
        assert table.shape == (len(table), d) and table.dtype == np.int64
        assert not table.flags.writeable
        dirs = list(map(tuple, table.tolist()))
        assert len(dirs) == (q ** d - 1) // (q - 1)
        assert len(set(dirs)) == len(dirs)
        assert dirs == sorted(dirs)
        for v in dirs:
            assert next(c for c in v if c) == 1
            assert all(0 <= c < q for c in v)


def test_space_too_large_guard():
    sp = make_space(257, 3)  # 257**3 > 2**24
    with pytest.raises(SpaceTooLarge):
        point_grid(sp.q, sp.d)
