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
                                 incidence_counts, incidence_gram,
                                 lift, make_space, point_grid,
                                 quad_norm, radical_hyperplane,
                                 sphere_contains, sphere_incidence)


def _rows(family, d):
    """Sphere or Hyperplane tuples as the int64 (m, d+1) rows (center, r)
    or (normal, offset) the array kernels take."""
    return np.array([(*a, b) for a, b in family],
                    dtype=np.int64).reshape(len(family), d + 1)


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
            on = sphere_incidence(lift(grid, q), _rows([s], 3), q)[:, 0]
            rows = grid[on]
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
        ms = sphere_incidence(lift(grid, q), _rows(spheres, d), q)
        mh = hyperplane_incidence(lift(grid, q), _rows(hyperplanes, d), q)
        assert ms.shape == (len(grid), len(spheres))
        assert mh.shape == (len(grid), len(hyperplanes))
        for i, row in enumerate(grid):
            x = tuple(int(c) for c in row)
            for j, s in enumerate(spheres):
                assert ms[i, j] == sphere_contains(s, x, q)
            for j, h in enumerate(hyperplanes):
                assert mh[i, j] == hyperplane_contains(h, x, q)
        pts, none = grid[::7], _rows([], d)
        assert (sphere_incidence(lift(pts, q), _rows(spheres, d), q)
                == ms[::7]).all()
        assert (hyperplane_incidence(lift(pts, q), _rows(hyperplanes, d), q)
                == mh[::7]).all()
        assert sphere_incidence(lift(pts[:0], q), _rows(spheres, d),
                                q).shape == (0, len(spheres))
        assert hyperplane_incidence(lift(pts[:0], q), _rows(hyperplanes, d),
                                    q).shape == (0, len(hyperplanes))
        assert sphere_incidence(lift(pts, q), none,
                                q).shape == (len(pts), 0)
        assert hyperplane_incidence(lift(pts, q), none,
                                    q).shape == (len(pts), 0)
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
    # larger wide, square and tall shapes; 2000 x 120 is the membership
    # matrix of a planted-q61 config
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
    """n points and the int64 rows of m spheres and m hyperplanes with
    unreduced coordinates, and the spheres and hyperplanes reduced, as
    tuples for the scalar oracles."""
    def vec():
        return tuple(_edge_value(rng, q) for _ in range(d))
    pts = np.asarray([vec() for _ in range(n)], dtype=np.int64).reshape(n, d)
    spheres = [Sphere(vec(), _edge_value(rng, q)) for _ in range(m)]
    hyperplanes = [Hyperplane(vec(), _edge_value(rng, q)) for _ in range(m)]
    reduced_s = [Sphere(tuple(c % q for c in s.center), s.r % q)
                 for s in spheres]
    reduced_h = [Hyperplane(tuple(c % q for c in h.normal), h.offset % q)
                 for h in hyperplanes]
    return (pts, _rows(spheres, d), _rows(hyperplanes, d), reduced_s,
            reduced_h)


def _check_counts(counts, inc):
    """The counting kernel's (row counts, column counts) are the boolean
    matrix's, as `incidence_counts` takes them, in int64."""
    rows, cols = counts
    assert rows.dtype == cols.dtype == np.int64
    assert rows.tolist() == incidence_counts(inc, 1).tolist()
    assert cols.tolist() == incidence_counts(inc, 0).tolist()


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
    # no points, one point, exactly one row block, one block and one row;
    # the counting kernel gives the boolean kernel's row and column counts
    for n in (0, 1, step, step + 1):
        assert (sphere_incidence(lift(pts[:n], q), spheres, q)
                == ms[:n]).all()
        assert (hyperplane_incidence(lift(pts[:n], q), hyperplanes, q)
                == mh[:n]).all()
        _check_counts(hyperplane_incidence(lift(pts[:n], q), hyperplanes, q,
                                           count=True), mh[:n])


@pytest.mark.parametrize("q, d", [(61, 3), (65521, 4)])
def test_incidence_kernels_with_more_columns_than_a_block(q, d,
                                                          monkeypatch):
    # more than `_BLOCK_CELLS` columns and no row floor: every row block
    # is a single row
    monkeypatch.setattr(geometry, "_MIN_BLOCK_ROWS", 1)
    rng = random.Random(q + d)
    m = geometry._BLOCK_CELLS + 1
    pts, spheres, hyperplanes, reduced_s, reduced_h = _edge_families(
        rng, q, d, 2, m)
    ms = _oracle(sphere_contains, reduced_s, pts, q)
    mh = _oracle(hyperplane_contains, reduced_h, pts, q)
    assert ms.any() and mh.any() and not ms.all() and not mh.all()
    assert (sphere_incidence(lift(pts, q), spheres, q) == ms).all()
    assert (hyperplane_incidence(lift(pts, q), hyperplanes, q) == mh).all()
    _check_counts(hyperplane_incidence(lift(pts, q), hyperplanes, q,
                                       count=True), mh)


@pytest.mark.parametrize("q", [31, 65521])
def test_counting_kernel_complement_rule(q):
    # regularize's two rules: column counts over the kept points are the
    # whole column counts less those over the dropped ones, and row counts
    # over some columns are the whole row counts less those over the
    # rest; with no point, some points and every point dropped
    rng = random.Random(q)
    d = 3
    pts = np.array([[rng.randrange(3) for _ in range(d)]
                    for _ in range(300)], dtype=np.int64)
    # hyperplanes through chosen points, so that most hold several
    hyperplanes = []
    for _ in range(70):
        normal = [1] + [rng.randrange(q) for _ in range(d - 1)]
        x = pts[rng.randrange(len(pts))].tolist()
        hyperplanes.append(canonical_hyperplane(
            normal, sum(a * b for a, b in zip(normal, x)), q))
    rows = _rows(hyperplanes, d)
    lifted = lift(pts, q)
    inc = hyperplane_incidence(lifted, rows, q)
    degrees, richness = hyperplane_incidence(lifted, rows, q, count=True)
    assert inc.any(axis=0).all() and (inc.sum(axis=1) > 1).any()
    n = len(pts)
    for dropped in (np.zeros(n, dtype=bool), np.arange(n) % 3 == 1,
                    np.ones(n, dtype=bool)):
        kept = ~dropped
        want = incidence_counts(inc, 0, kept)
        part = hyperplane_incidence(lifted[dropped], rows, q, count=True)[1]
        assert (richness - part).tolist() == want.tolist()
        assert hyperplane_incidence(lifted[kept], rows, q,
                                    count=True)[1].tolist() == want.tolist()
    other = np.arange(len(rows)) % 4 == 0
    part = hyperplane_incidence(lifted, rows[other], q, count=True)[0]
    assert (degrees - part).tolist() == incidence_counts(
        inc, 1, ~other).tolist()


def test_counting_kernel_refuses_counts_beyond_float32_exactness():
    # read-only broadcast views: the asserts fire before any cell is made
    lifted = np.broadcast_to(np.ones(5, dtype=np.int64), (1 << 24, 5))
    cols = np.broadcast_to(np.ones((5, 1), dtype=np.int64), (5, 1 << 24))
    for rows, family in ((lifted, cols[:, :1]), (lifted[:1], cols)):
        with pytest.raises(AssertionError, match="too many cells"):
            geometry._vanishing(rows, family, 61, count=True)


def test_incidence_kernels_refuse_modulus_beyond_float64_exactness():
    q = 1 << 25  # (d + 2) * (q - 1)**2 passes 2**50 already at d = 1
    pts = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(AssertionError):
        sphere_incidence(lift(pts, q), _rows([Sphere((0, 0, 0), 0)], 3), q)
    with pytest.raises(AssertionError):
        hyperplane_incidence(lift(pts, q),
                             _rows([Hyperplane((1, 0, 0), 0)], 3), q)


@pytest.mark.parametrize("block", [None, 1, 7 * 120 + 5])
def test_incidence_counts_match_sum(block, monkeypatch):
    # default blocks of 136 rows at 120 columns: shapes at the block edge,
    # past it, ragged, in blocks of the 8-row floor past 2**11 columns,
    # wider than a block, and with no rows or columns; masks over the rows
    # and over the columns; a patched block size comes without the row
    # floor
    if block is not None:
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", block)
        monkeypatch.setattr(geometry, "_MIN_BLOCK_ROWS", 1)
    rng = np.random.default_rng(23)
    shapes = [(0, 0), (0, 7), (9, 0), (1, 1), (13, 3), (40, 7), (136, 120),
              (137, 120), (273, 120), (274, 120), (547, 120), (19, 4097),
              (2, (1 << 15) + 1)]
    for n, m in shapes:
        inc = rng.random((n, m)) < rng.random()
        kept, cols = rng.random(n) < 0.5, rng.random(m) < 0.5
        for got, want in ((incidence_counts(inc, 1), inc.sum(axis=1)),
                          (incidence_counts(inc, 0), inc.sum(axis=0)),
                          (incidence_counts(inc, 0, kept),
                           inc[kept].sum(axis=0)),
                          (incidence_counts(inc, 1, cols),
                           inc[:, cols].sum(axis=1))):
            assert got.dtype == np.int64 and got.shape == want.shape
            assert got.tolist() == want.tolist()
    full = np.ones((40000, 3), dtype=bool)
    assert incidence_counts(full, 0).tolist() == [40000] * 3
    # shapes past float32 exactness, with no cells allocated
    for shape in ((1 << 24, 0), (0, 1 << 24)):
        with pytest.raises(AssertionError):
            incidence_counts(np.zeros(shape, dtype=bool), 0)


@pytest.mark.parametrize("block", [None, 1, 7 * 40 + 3])
@pytest.mark.parametrize("q", [61, 65521])
def test_vanishing_matches_scalar_oracle(q, block, monkeypatch):
    # q = 61 sums in float32 and q = 65521 in float64; shapes with no
    # rows, no columns, a ragged last block, blocks of the row floor with
    # a ragged last one, and more columns than a block; a patched block
    # size comes without the row floor, so that every block of the last
    # two shapes is one row
    if block is not None:
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", block)
        monkeypatch.setattr(geometry, "_MIN_BLOCK_ROWS", 1)
    rng = random.Random(q)
    cells, floor = geometry._BLOCK_CELLS, geometry._MIN_BLOCK_ROWS
    residue = lambda: rng.choice((0, q - 1, rng.randrange(q)))
    for n, m in ((0, 5), (6, 0), (0, 0), (2 * max(1, cells // 40) + 3, 40),
                 (2 * floor + 3, cells // 4 + 1), (3, cells + 1)):
        rows = [[residue() for _ in range(4)] + [1] for _ in range(n)]
        cols = []
        for _ in range(m):
            col = [residue() for _ in range(4)]
            # through a chosen row, or off it
            x = rng.choice(rows) if rows and rng.random() < 0.7 else [0] * 5
            cols.append(col + [-sum(a * b for a, b in zip(x, col)) % q])
        want = [[sum(a * b for a, b in zip(x, c)) % q == 0 for c in cols]
                for x in rows]
        rows = np.array(rows, dtype=np.int64).reshape(n, 5)
        cols = np.array(cols, dtype=np.int64).reshape(m, 5).T
        got = geometry._vanishing(rows, cols, q)
        assert got.dtype == bool and got.shape == (n, m)
        assert got.tolist() == want
        _check_counts(geometry._vanishing(rows, cols, q, count=True), got)
        if n * m >= 40:
            assert got.any() and not got.all()


def test_sphere_incidence_memory_is_bounded():
    # the |P| x |S| bool output is 0.23 MB, the float32 lifted points
    # 0.04 MB and the two block buffers 64 KiB each; whole-matrix int64
    # temporaries would take 1.9 MB each
    rng = np.random.default_rng(19)
    q = 61
    pts = rng.integers(0, q, size=(2000, 3))
    spheres = np.column_stack([rng.integers(0, q, size=(120, 3)),
                               rng.integers(0, q, size=120)])
    lifted = lift(pts, q)
    tracemalloc.start()
    try:
        inc = sphere_incidence(lifted, spheres, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inc.shape == (2000, 120) and inc.any()
    assert peak < 0.45 * (1 << 20)


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
