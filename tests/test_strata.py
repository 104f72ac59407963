import collections
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffrigidity import field, geometry, strata
from ffrigidity.geometry import (Hyperplane, Sphere, hyperplane_contains,
                                 hyperplane_incidence, incidence_gram, lift,
                                 make_space, quad_norm, radical_hyperplane,
                                 radical_hyperplanes)
from ffrigidity.stats import energies, make_config, membership_matrix
from ffrigidity.strata import (dyadic_class, persistent_pairs, regularize,
                               rich_subfamily, stratify)
from ffrigidity.multiset import HyperplaneMultiset, build_multiset


def hyperplanes(rows):
    """The Hyperplane tuples of an array of rows (normal, offset)."""
    return [Hyperplane(tuple(r[:-1]), r[-1]) for r in rows.tolist()]


def sphere_rows(spheres, d):
    """Sphere tuples as the int64 (n, d+1) rows (center, r) of
    `Config.sphere_array`."""
    return np.array([(*s.center, s.r) for s in spheres],
                    dtype=np.int64).reshape(len(spheres), d + 1)


C = Fraction(1, 4)


def cutoff_K(t, q, d):
    """The exact K**2 whose persistence cutoff before the floor of one
    point, at c = C = 1/4, is t: K = 4 t / q**((d-1)/2)."""
    return Fraction(16 * t * t, q ** (d - 1))


def regularize_pp(cfg, pp, ms=None):
    """`regularize` on a `persistent_pairs` result, as the extract calls
    it: the lifted points, the bisector rows and counts, the multiset."""
    return regularize(cfg.point_lift, pp.bisectors, pp.richness, pp.degrees,
                      build_multiset(pp) if ms is None else ms, cfg.q)


def random_config(rng, q=7, d=3, n_points=25, n_spheres=10):
    sp = make_space(q, d)
    pts = set()
    while len(pts) < n_points:
        pts.add(tuple(rng.randrange(q) for _ in range(d)))
    sph = set()
    while len(sph) < n_spheres:
        sph.add(Sphere(tuple(rng.randrange(q) for _ in range(d)),
                       rng.randrange(q)))
    return make_config(sp, sorted(pts), sorted(sph))


# oracle: shared point count of a sphere pair by direct loop
def overlap_oracle(config, i, j):
    q = config.q
    def on(p, s):
        return sum((a - b) ** 2 for a, b in zip(p, s.center)) % q == s.r % q
    return sum(1 for p in config.points
               if on(p, config.spheres[i]) and on(p, config.spheres[j]))


def test_dyadic_class_values():
    assert dyadic_class(1) == 0
    assert dyadic_class(2) == 1
    assert dyadic_class(3) == 1
    assert dyadic_class(8) == 3
    assert dyadic_class(15) == 3
    assert dyadic_class(16) == 4
    with pytest.raises(ValueError):
        dyadic_class(0)


def test_stratify_disjoint_spheres_all_zero():
    sp = make_space(5, 3)
    # ||x|| = 1 and ||x - (0,0,1)|| = 3 chosen to share no config point
    cfg = make_config(sp, [(1, 0, 0), (0, 1, 0)],
                      [Sphere((0, 0, 0), 1), Sphere((0, 0, 0), 2)])
    layers = stratify(energies(cfg).gram)
    assert layers.layers == {}
    assert layers.zero_pairs == 2
    layers = stratify(energies(make_config(sp, [(1, 0, 0)], [])).gram)
    assert layers.layers == {} and layers.zero_pairs == 0


def test_stratify_single_shared_point_layer_zero():
    sp = make_space(5, 3)
    # both spheres pass through (1,0,0) and no other config point
    cfg = make_config(sp, [(1, 0, 0)],
                      [Sphere((0, 0, 0), 1), Sphere((2, 0, 0), 1)])
    layers = stratify(energies(cfg).gram)
    assert layers.layers == {0: 2}  # both ordered pairs


def test_stratify_reconciles_with_off_diagonal():
    rng = random.Random(41)
    for _ in range(10):
        cfg = random_config(rng)
        st = energies(cfg)
        layers = stratify(st.gram)
        # a pair of layer j shares between 2**j and 2**(j+1) - 1 points
        assert sum(n << j for j, n in layers.layers.items()) \
            <= st.off_diagonal \
            <= sum((n << j + 1) - n for j, n in layers.layers.items())
        ns = len(cfg.spheres)
        assert sum(layers.layers.values()) + layers.zero_pairs \
            == ns * (ns - 1)


def test_stratify_matches_overlap_oracle():
    rng = random.Random(42)
    cfg = random_config(rng, n_points=20, n_spheres=6)
    layers = stratify(energies(cfg).gram)
    shared = [overlap_oracle(cfg, i, k) for i, k in
              itertools.permutations(range(len(cfg.spheres)), 2)]
    counts = collections.Counter(dyadic_class(v) for v in shared if v)
    assert layers.layers == dict(sorted(counts.items()))
    assert layers.zero_pairs == shared.count(0)


def test_stratify_matches_scalar_partition():
    rng = random.Random(41)
    for _ in range(6):
        cfg = random_config(rng, n_points=30, n_spheres=rng.randrange(0, 12))
        gram = incidence_gram(membership_matrix(cfg))
        layers, zero = {}, 0
        for i, j in itertools.permutations(range(len(cfg.spheres)), 2):
            v = int(gram[i, j])
            if v == 0:
                zero += 1
            else:
                layers.setdefault(dyadic_class(v), []).append((i, j))
        got = stratify(energies(cfg).gram)
        assert list(got.layers) == sorted(layers)
        assert got.layers == {j: len(p) for j, p in layers.items()}
        assert got.zero_pairs == zero


def _sphere_family(rng, q, d, n):
    """n spheres, and the hyperplane H their mirror pairs share.

    Mirror pairs anchor +- t * normal(H) with one radius all have H as
    bisector; two groups of concentric spheres have none; the rest are
    random, with coordinates anywhere in [0, q).
    """
    normal = (1,) + tuple(rng.randrange(q) for _ in range(d - 1))
    anchor = tuple(rng.randrange(q) for _ in range(d))
    h = Hyperplane(normal, sum(a * c for a, c in zip(anchor, normal)) % q)
    spheres = []
    for t in range(1, 7):
        r = rng.randrange(q)
        for sign in (1, -1):
            spheres.append(Sphere(tuple((a + sign * t * c) % q
                                        for a, c in zip(anchor, normal)), r))
    for _ in range(2):
        center = tuple(rng.randrange(q) for _ in range(d))
        spheres += [Sphere(center, rng.randrange(q)) for _ in range(4)]
    while len(spheres) < 40:
        spheres.append(Sphere(tuple(rng.randrange(q) for _ in range(d)),
                              rng.randrange(q)))
    rng.shuffle(spheres)
    return spheres[:n], h


def _points_near(rng, h, q, d, n):
    """n random points, half of them on h (canonical, so its lead is 1)."""
    pts = []
    for k in range(n):
        x = [rng.randrange(q) for _ in range(d)]
        if k % 2:
            x[0] = (h.offset - sum(a * c for a, c in
                                   zip(x[1:], h.normal[1:]))) % q
        pts.append(tuple(x))
    return pts


def _check_bisectors(spheres, q, d):
    """radical_hyperplanes against the scalar radical_hyperplane, pair by
    pair; returns its rows as Hyperplane tuples and its pair index."""
    rows, index = radical_hyperplanes(sphere_rows(spheres, d), q)
    assert rows.shape[1] == d + 1
    rows = hyperplanes(rows)
    assert rows == sorted(set(rows))
    pairs = itertools.combinations(range(len(spheres)), 2)
    assert index.tolist() == [-1 if radical_hyperplane(
        spheres[a], spheres[b], q) is None else rows.index(
        radical_hyperplane(spheres[a], spheres[b], q)) for a, b in pairs]
    assert set(index.tolist()) - {-1} == set(range(len(rows)))
    return rows, index


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("q", [3, 5, 61, 65521])
def test_radical_hyperplanes_match_scalar_oracle(q, d):
    rng = random.Random(q * 10 + d)
    for n in (0, 1, 2, 40):
        spheres, h = _sphere_family(rng, q, d, n)
        rows, index = _check_bisectors(spheres, q, d)
        if n == 40:
            assert (index == -1).sum() >= 2 * 6
            assert (index == rows.index(h)).sum() >= 6


# the q = 65521 cases are named by d alone
@pytest.mark.parametrize("q, d", [(65521, 3), (65521, 4), (251, 3), (251, 4)],
                         ids=["3", "4", "251-3", "251-4"])
def test_radical_hyperplanes_exact_at_the_residue_edge(q, d, monkeypatch):
    """Centres and radii drawn from 0, 1, (q -+ 1) / 2, q - 2 and q - 1
    drive the pair sums to 2q - 1 and the products with the lead's
    inverse to (q - 1)**2, the largest values the kernel meets below
    q**2: in uint16 at q = 251 (q**2 <= 2**16), in uint32 at q = 65521
    (q**2 <= 2**32); the pair rows have the rule's dtype."""
    values = (0, 1, (q - 1) // 2, (q + 1) // 2, q - 2, q - 1)
    rng = random.Random(d)
    spheres = [Sphere((0,) * d, q - 1), Sphere(((q - 1) // 2,) * d, 0)]
    spheres += [Sphere(tuple(rng.choice(values) for _ in range(d)),
                       rng.choice(values)) for _ in range(30)]

    def largest_product(s, t):
        diff = [2 * (b - a) % q for a, b in zip(s.center, t.center)]
        diff.append((s.r - t.r + quad_norm(t.center, q)
                     - quad_norm(s.center, q)) % q)
        lead = next((x for x in diff[:d] if x), 0)
        return max(x * pow(lead, q - 2, q) for x in diff) if lead else 0

    assert max(largest_product(s, t) for s, t in
               itertools.combinations(spheres, 2)) == (q - 1) ** 2
    dtypes = set()
    monkeypatch.setattr(geometry, "scale_to_lead", lambda r, q: (
        dtypes.add(r.dtype), field.scale_to_lead(r, q)))
    _check_bisectors(spheres, q, d)
    assert dtypes == {np.dtype({251: np.uint16, 65521: np.uint32}[q])}


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("q", [3, 5, 61, 65521])
def test_bisector_consumers_match_scalar_recount(q, d):
    rng = random.Random(q * 100 + d)
    for n in (0, 1, 2, 40):
        spheres, h = _sphere_family(rng, q, d, n)
        cfg = make_config(make_space(q, d), _points_near(rng, h, q, d, 30),
                          spheres)
        ns = len(cfg.spheres)
        bisector = {(a, b): radical_hyperplane(cfg.spheres[a],
                                               cfg.spheres[b], q)
                    for a, b in itertools.permutations(range(ns), 2)}
        distinct = sorted(set(bisector.values()) - {None})
        rich = {g: sum(hyperplane_contains(g, p, q) for p in cfg.points)
                for g in distinct}
        for threshold in (0, 2, 9):
            # a persistent pair's bisector holds at least one point
            floor = max(1, threshold)
            persistent = sorted(pair for pair, g in bisector.items()
                                if g is not None and rich[g] >= floor)
            pp = persistent_pairs(cfg, cutoff_K(threshold, q, d), C)
            assert pp.pairs.tolist() == [list(p) for p in persistent]
            assert pp.pair_bisector.tolist() == [
                -1 if g is None or rich[g] < floor else distinct.index(g)
                for g in map(bisector.get,
                             itertools.combinations(range(ns), 2))]
            provenance = {}
            for pair in persistent:
                provenance.setdefault(bisector[pair], []).append(pair)
            kept = sorted(provenance)
            ms = build_multiset(pp)
            assert hyperplanes(ms.support) == kept
            assert ms.counts.tolist() == [len(provenance[g]) for g in kept]
            assert ms.columns.tolist() == [distinct.index(g) for g in kept]
        assert pp.bisectors.dtype == np.int64
        assert pp.bisectors.shape == (len(distinct), d + 1)
        assert ms.support.shape == (len(kept), d + 1)
        assert hyperplanes(pp.bisectors) == distinct
        # the two count arrays that stand for the bisector incidence: the
        # points on each bisector, and each point's bisectors
        assert pp.richness.dtype == pp.degrees.dtype == np.int64
        assert pp.richness.tolist() == [rich[g] for g in distinct]
        assert pp.degrees.tolist() == [
            sum(hyperplane_contains(g, p, q) for g in distinct)
            for p in cfg.points]


def _argsort_pairs(index, richness, cutoff, ns):
    """Persistent ordered pairs by the earlier route: both orders of
    each pair i < j whose bisector holds at least cutoff points, sorted
    by one argsort of the keys first * ns + second, with the bisector
    index of each."""
    i, j = np.triu_indices(ns, 1)
    keep = (index >= 0) & (richness[index] >= cutoff)
    first = np.concatenate([i[keep], j[keep]])
    second = np.concatenate([j[keep], i[keep]])
    order = np.argsort(first * ns + second)
    return (np.stack([first[order], second[order]], axis=1),
            np.concatenate([index[keep], index[keep]])[order])


@pytest.mark.parametrize("q, n", [(5, 40), (61, 40), (61, 120)])
def test_persistent_pairs_match_argsort_reference(q, n):
    # _sphere_family holds two concentric groups; the last cutoff is
    # above every richness, so it cuts every pair
    rng = random.Random(q * n)
    spheres, h = _sphere_family(rng, q, 3, 40)
    while len(spheres) < n:
        spheres.append(Sphere(tuple(rng.randrange(q) for _ in range(3)),
                              rng.randrange(q)))
    cfg = make_config(make_space(q, 3), _points_near(rng, h, q, 3, 200),
                      spheres)
    ns = len(cfg.spheres)
    rows, index = radical_hyperplanes(cfg.sphere_array, q)
    assert (index < 0).any()
    richness = hyperplane_incidence(cfg.point_lift, rows, q).sum(axis=0)
    top = int(richness.max())
    for cutoff in (0, 1, top // 2, top, top + 1):
        pp = persistent_pairs(cfg, cutoff_K(cutoff, q, 3), C)
        # the floor: a persistent pair's bisector holds a point
        pairs, pairs_bisector = _argsort_pairs(index, richness,
                                               max(1, cutoff), ns)
        assert pp.pairs.shape == pairs.shape and not pp.pairs.flags.writeable
        assert pp.pairs.dtype == np.int64
        assert pp.pairs.tolist() == pairs.tolist()
        # the bench's persistent-pair count reads len(pp.pairs)
        assert len(pp.pairs) == 2 * (pp.pair_bisector >= 0).sum()
        assert pp.pair_bisector.dtype == np.int64
        assert pp.pair_bisector.shape == index.shape
        # each ordered pair of the reference finds its bisector at its
        # unordered pair, and the pairs it omits hold -1
        at = np.full((ns, ns), -1)
        at[np.triu_indices(ns, 1)] = np.arange(len(index))
        unordered = at[pairs.min(axis=1), pairs.max(axis=1)]
        assert pp.pair_bisector[unordered].tolist() == pairs_bisector.tolist()
        assert (np.delete(pp.pair_bisector, unordered) == -1).all()
    assert pp.pairs.shape == (0, 2) and (pp.pair_bisector == -1).all()


def test_persistent_pairs_cutoff_is_exact():
    """A K**2 whose cutoff c K q**((d-1)/2) is exactly t keeps the pairs
    of bisector richness >= max(1, t), and one larger by 10**-30 those
    of richness > t.  A c_const <= 0 is refused."""
    rng = random.Random(45)
    q, d = 5, 3
    spheres, h = _sphere_family(rng, q, d, 12)
    cfg = make_config(make_space(q, d), _points_near(rng, h, q, d, 60),
                      spheres)
    rich = {}
    for a, b in itertools.permutations(range(len(cfg.spheres)), 2):
        g = radical_hyperplane(cfg.spheres[a], cfg.spheres[b], q)
        if g is not None:
            rich[a, b] = sum(hyperplane_contains(g, p, q) for p in cfg.points)
    assert 0 < sum(r >= 9 for r in rich.values()) < len(rich)

    def kept(K2, c_const=C):
        pp = persistent_pairs(cfg, K2, c_const)
        return set(map(tuple, pp.pairs.tolist()))

    for t in (0, 1, 9, 26):
        assert kept(cutoff_K(t, q, d)) == {p for p, r in rich.items()
                                           if r >= max(1, t)}
        assert kept(cutoff_K(t, q, d) + Fraction(1, 10 ** 30)) == {
            p for p, r in rich.items() if r > t}
    for c in (0, Fraction(-1, 4)):
        with pytest.raises(AssertionError):
            kept(cutoff_K(26, q, d), c)


def test_persistent_pairs_k_zero_keeps_all():
    rng = random.Random(46)
    cfg = random_config(rng, n_spheres=6)
    bisector = {(i, j): radical_hyperplane(cfg.spheres[i], cfg.spheres[j],
                                           cfg.q)
                for i, j in itertools.permutations(range(6), 2)}
    # at K = 0 a pair persists when its bisector holds a point
    live = {pair for pair, g in bisector.items() if g is not None and any(
        hyperplane_contains(g, p, cfg.q) for p in cfg.points)}
    assert live
    pp = persistent_pairs(cfg, Fraction(0), C)
    assert set(map(tuple, pp.pairs.tolist())) == live
    # with no points no bisector holds one, so no pair persists
    cfg = make_config(cfg.space, [], cfg.spheres)
    pp = persistent_pairs(cfg, Fraction(0), C)
    assert pp.pairs.shape == (0, 2) and (pp.pair_bisector == -1).all()
    # concentric spheres have no bisector, so none of their pairs persist
    cfg = make_config(make_space(5, 3), [(1, 0, 0), (0, 1, 0)],
                      [Sphere((0, 0, 0), r) for r in range(4)])
    for s1, s2 in itertools.permutations(cfg.spheres, 2):
        assert radical_hyperplane(s1, s2, cfg.q) is None
    pp = persistent_pairs(cfg, Fraction(0), C)
    assert pp.pairs.shape == (0, 2) and (pp.pair_bisector == -1).all()


def test_persistent_pairs_huge_threshold_empty():
    rng = random.Random(47)
    cfg = random_config(rng, n_spheres=6)
    pp = persistent_pairs(cfg, cutoff_K(cfg.q ** 2 + 1, cfg.q, cfg.d), C)
    assert pp.pairs.shape == (0, 2)


def test_persistent_pairs_symmetric_and_profile():
    rng = random.Random(48)
    cfg = random_config(rng, n_spheres=8)
    pp = persistent_pairs(cfg, cutoff_K(1, cfg.q, cfg.d), C)
    pairs = set(map(tuple, pp.pairs.tolist()))
    for (i, j) in pairs:
        assert (j, i) in pairs


def test_regularize_postconditions():
    rng = random.Random(50)
    hits = 0
    for _ in range(12):
        cfg = random_config(rng, n_points=30, n_spheres=10)
        pp = persistent_pairs(cfg, cutoff_K(1, cfg.q, cfg.d), C)
        if not len(pp.pairs):
            continue
        ms = build_multiset(pp)
        support = hyperplanes(ms.support)
        reg = regularize_pp(cfg, pp, ms)
        hits += 1
        lam1 = reg.richness_scale
        kept = [cfg.points[i] for i in reg.point_idx.tolist()]
        # recount degrees of kept points against the input support: one
        # dyadic class [M1, 2 * M1)
        assert len({dyadic_class(sum(hyperplane_contains(h, p, cfg.q)
                                     for h in support))
                    for p in kept}) == 1
        for h in hyperplanes(reg.multiset.support):
            assert h in support
            r = sum(hyperplane_contains(h, p, cfg.q) for p in kept)
            assert lam1 <= r < 2 * lam1
    assert hits >= 5


def test_regularize_uniform_input_unchanged(monkeypatch):
    # all points on one hyperplane, multiset = that one hyperplane
    sp = make_space(5, 3)
    s1, s2 = Sphere((1, 0, 0), 2), Sphere((4, 0, 0), 2)
    q = 5
    h = radical_hyperplane(s1, s2, q)
    from ffrigidity.geometry import hyperplane_points
    pts = hyperplane_points(h, sp)
    cfg = make_config(sp, pts, [s1, s2])
    pp = persistent_pairs(cfg, cutoff_K(1, q, 3), C)
    ms = build_multiset(pp)
    # every point is kept and the support is every bisector with a point,
    # so regularize reads the persistence counts and counts nothing more
    monkeypatch.setattr(strata, "hyperplane_incidence", None)
    reg = regularize_pp(cfg, pp, ms)
    assert reg.point_idx.tolist() == list(range(len(cfg.points)))
    assert hyperplanes(reg.multiset.support) == [h]
    assert reg.multiset.counts.tolist() == ms.counts.tolist() == [2]


def test_regularize_degenerate_raises():
    sp = make_space(5, 3)
    s1, s2 = Sphere((1, 0, 0), 2), Sphere((4, 0, 0), 2)
    cfg = make_config(sp, [(1, 1, 1)], [s1, s2])
    h = radical_hyperplane(s1, s2, 5)
    assert not hyperplane_contains(h, (1, 1, 1), 5)
    # a support hyperplane with no point, and an empty support, are
    # refused; persistence passes neither on, as h holds no point
    lone = HyperplaneMultiset(support=np.array([[*h.normal, h.offset]]),
                              counts=np.array([2]), columns=np.arange(1))
    pp = persistent_pairs(cfg, Fraction(0), C)
    ms = build_multiset(pp)
    assert not len(ms.support)
    degrees, richness = hyperplane_incidence(cfg.point_lift, lone.support, 5,
                                             count=True)
    with pytest.raises(AssertionError, match="some point"):
        regularize(cfg.point_lift, lone.support, richness, degrees, lone, 5)
    with pytest.raises(AssertionError, match="some point"):
        regularize_pp(cfg, pp, ms)


def test_regularize_refuses_support_columns_off_the_incidence():
    # every point of F_5^3, so each of the three bisectors holds points
    sp = make_space(5, 3)
    pts = [tuple(x) for x in geometry.point_grid(5, 3).tolist()]
    cfg = make_config(sp, pts, [Sphere((1, 0, 0), 2), Sphere((4, 0, 0), 2),
                                Sphere((0, 2, 0), 1)])
    pp = persistent_pairs(cfg, Fraction(0), C)
    ms = build_multiset(pp)
    cols, n_cols = ms.columns, len(pp.bisectors)
    assert len(cols) == n_cols == 3
    regularize_pp(cfg, pp, ms)
    # out of order, repeated, past the last row, before the first
    for bad in (cols[::-1], cols[[0, 0, 1]], cols + 1, cols - 1):
        with pytest.raises(AssertionError, match="support rows"):
            regularize_pp(cfg, pp,
                          HyperplaneMultiset(ms.support, ms.counts, bad))


def _heaviest_bucket_oracle(items, value):
    """The parent loop: bucket by dyadic class of a positive value, keep
    the bucket of largest summed value, ties to the larger class."""
    buckets = {}
    for item in items:
        if value(item) > 0:
            buckets.setdefault(dyadic_class(value(item)), []).append(item)
    if not buckets:
        return None, []
    best = max(buckets, key=lambda j: (sum(map(value, buckets[j])), j))
    return best, buckets[best]


def test_regularize_matches_scalar_buckets(monkeypatch):
    # degrees 2, 1, 1 tie the classes 1 and 0 at summed degree 2
    ms = HyperplaneMultiset(support=np.array([[0, 1, 0, 0], [1, 0, 0, 0]]),
                            counts=np.ones(2, dtype=np.int64),
                            columns=np.arange(2))
    pts = np.array([(0, 1, 1), (0, 0, 1), (1, 0, 1)])
    inc = hyperplane_incidence(lift(pts, 5), ms.support, 5)
    degrees, richness = hyperplane_incidence(lift(pts, 5), ms.support, 5,
                                             count=True)
    reg = regularize(lift(pts, 5), ms.support, richness, degrees, ms, 5)
    assert reg.point_idx.tolist() == [1]
    assert inc[reg.point_idx].sum(axis=1).tolist() == [2]
    # every counting call regularize makes, by the points it counts over
    calls = []

    def recording(lifted, rows, q, count):
        calls.append(len(lifted))
        return hyperplane_incidence(lifted, rows, q, count)

    monkeypatch.setattr(strata, "hyperplane_incidence", recording)
    rng = random.Random(51)
    branches = collections.Counter()
    for threshold in (0, 6):
        for _ in range(40):
            cfg = random_config(rng, q=5, n_points=25, n_spheres=8)
            pp = persistent_pairs(cfg, cutoff_K(threshold, 5, 3), C)
            ms = build_multiset(pp)
            if not len(ms.support):
                continue
            q = cfg.q
            inc = hyperplane_incidence(cfg.point_lift, ms.support, q)
            assert pp.richness[ms.columns].tolist() == inc.sum(axis=0).tolist()
            # at cutoff 1 every bisector that holds a point is in the
            # support, so the degrees over all bisectors are the support's
            if threshold == 0:
                assert pp.degrees.tolist() == inc.sum(axis=1).tolist()
            members = dict(zip(hyperplanes(ms.support), ms.counts.tolist()))
            jp, points = _heaviest_bucket_oracle(cfg.points, lambda p: sum(
                hyperplane_contains(h, p, q) for h in members))
            jh, support = _heaviest_bucket_oracle(members, lambda h: sum(
                hyperplane_contains(h, p, q) for p in points))
            # every support hyperplane holds a point, so both classes exist
            assert jp is not None and jh is not None
            calls.clear()
            reg = regularize_pp(cfg, pp, ms)
            assert [cfg.points[i] for i in reg.point_idx.tolist()] == points
            assert {dyadic_class(v) for v in
                    inc[reg.point_idx].sum(axis=1).tolist()} == {jp}
            assert hyperplanes(reg.multiset.support) == support
            assert reg.multiset.counts.tolist() == [members[h]
                                                    for h in support]
            assert reg.richness_scale == 1 << jh
            # at most one count per pass: the other bisectors that hold a
            # point over every point, then the kept or the dropped points
            kinds = ["outside" if n == len(cfg.points) else
                     "kept" if n == len(points) else "dropped" for n in calls]
            assert kinds in ([], ["outside"], ["kept"], ["dropped"],
                             ["outside", "kept"], ["outside", "dropped"])
            branches.update(kinds or ["none"])
    assert min(branches[k] for k in ("outside", "kept", "dropped")) >= 2, \
        branches


def _rich_subfamily_oracle(degs):
    """The largest threshold t in 1, 2, 4, ... up to the largest degree
    whose spheres of degree >= t keep at least half of the total, and
    those spheres, by a scan of the thresholds with a list sum at each."""
    total = sum(degs)
    if total == 0:
        return 1, ()
    t = best = 1
    while t <= max(degs):
        if 2 * sum(v for v in degs if v >= t) >= total:
            best = t
        t *= 2
    return best, tuple(i for i, v in enumerate(degs) if v >= best)


@given(st.lists(st.one_of(st.just(0), st.integers(0, 5000)), max_size=29))
def test_rich_subfamily_matches_threshold_scan(degs):
    threshold, spheres = rich_subfamily(np.array(degs, dtype=np.int64))
    # Python ints, as the certificate's JSON is written from them
    assert type(threshold) is int
    assert (threshold, spheres) == _rich_subfamily_oracle(degs)
