import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from ffrigidity.exact import SqrtRational
from ffrigidity.geometry import (Hyperplane, Sphere, hyperplane_contains,
                                 hyperplane_incidence, incidence_gram,
                                 make_space, quad_norm, radical_hyperplane,
                                 radical_hyperplanes)
from ffrigidity.stats import energies, make_config, membership_matrix
from ffrigidity.strata import (RegularizationDegenerate, dyadic_class,
                               low_layer_mass, persistent_pairs, regularize,
                               richness_threshold, stratify)
from ffrigidity.multiset import HyperplaneMultiset, build_multiset


def hyperplanes(rows):
    """The Hyperplane tuples of an array of rows (normal, offset)."""
    return [Hyperplane(tuple(r[:-1]), r[-1]) for r in rows.tolist()]


def cutoff_K(t, q, d):
    """The K whose persistence cutoff, at the default c = 1/4, is t."""
    return SqrtRational(Fraction(4 * t, q ** (d - 1)), q ** (d - 1))


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
    layers = stratify(cfg)
    assert layers.layers == {}
    assert layers.zero_pairs == 2


def test_stratify_single_shared_point_layer_zero():
    sp = make_space(5, 3)
    # both spheres pass through (1,0,0) and no other config point
    cfg = make_config(sp, [(1, 0, 0)],
                      [Sphere((0, 0, 0), 1), Sphere((2, 0, 0), 1)])
    layers = stratify(cfg)
    assert set(layers.layers) == {0}
    assert len(layers.layers[0]) == 2  # both ordered pairs


def test_stratify_reconciles_with_off_diagonal():
    rng = random.Random(41)
    for _ in range(10):
        cfg = random_config(rng)
        layers = stratify(cfg)
        st = energies(cfg)
        gram = incidence_gram(membership_matrix(cfg))
        mass = sum(int(gram[i, j]) for pairs in layers.layers.values()
                   for (i, j) in pairs)
        assert mass == st.off_diagonal
        ns = len(cfg.spheres)
        assert sum(map(len, layers.layers.values())) + layers.zero_pairs \
            == ns * (ns - 1)


def test_stratify_matches_overlap_oracle():
    rng = random.Random(42)
    cfg = random_config(rng, n_points=20, n_spheres=6)
    layers = stratify(cfg)
    for j, pairs in layers.layers.items():
        for (i, k) in pairs:
            v = overlap_oracle(cfg, i, k)
            assert dyadic_class(v) == j


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
        got = stratify(cfg)
        assert list(got.layers) == sorted(layers)
        assert got.layers == {j: tuple(sorted(p)) for j, p in layers.items()}
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
    rows, index = radical_hyperplanes(spheres, q, d)
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


@pytest.mark.parametrize("d", [3, 4])
def test_radical_hyperplanes_exact_at_the_residue_edge(d):
    """At q = 65521, centres and radii drawn from 0, 1, (q -+ 1) / 2,
    q - 2 and q - 1 drive the uint32 pair sums to 2q - 1 and the
    products with the lead's inverse to (q - 1)**2, the largest values
    the kernel meets below q**2 <= 2**32."""
    q = 65521
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
    _check_bisectors(spheres, q, d)


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
            persistent = sorted(pair for pair, g in bisector.items()
                                if g is not None and rich[g] >= threshold)
            pp = persistent_pairs(cfg, K=cutoff_K(threshold, q, d))
            assert pp.pairs.tolist() == [list(p) for p in persistent]
            assert hyperplanes(pp.bisectors[pp.pairs_bisector]) == [
                bisector[p] for p in persistent]
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
        assert pp.incidence.tolist() == [
            [hyperplane_contains(g, p, q) for g in distinct]
            for p in cfg.points]
        assert pp.incidence.sum(axis=0).tolist() == [rich[g] for g in distinct]


def test_low_layer_mass_bound_over_j_range():
    rng = random.Random(44)
    for _ in range(5):
        cfg = random_config(rng, n_points=20, n_spheres=8)
        prev = -1
        for j0 in range(6):
            rep = low_layer_mass(cfg, j0)
            assert rep.mass <= rep.bound
            assert rep.bound == (1 << j0) * len(cfg.spheres) ** 2
            assert rep.mass >= prev  # cutoff grows, mass cannot shrink
            prev = rep.mass


def test_low_layer_mass_j0_zero_empty():
    rng = random.Random(45)
    cfg = random_config(rng)
    rep = low_layer_mass(cfg, 0)
    assert rep.mass == 0 and rep.pairs_counted == 0


def test_low_layer_all_concentric_zero():
    sp = make_space(5, 3)
    cfg = make_config(sp, [(1, 0, 0), (0, 1, 0)],
                      [Sphere((0, 0, 0), r) for r in range(4)])
    rep = low_layer_mass(cfg, 5)
    assert rep.mass == 0
    for s1, s2 in itertools.permutations(cfg.spheres, 2):
        assert radical_hyperplane(s1, s2, cfg.q) is None
    assert persistent_pairs(cfg, K=SqrtRational.zero()).pairs.shape == (0, 2)


def test_richness_threshold_formula():
    k = SqrtRational(Fraction(1, 10), 100)  # value 1
    lam = richness_threshold(k, 5, 3, Fraction(1, 4))
    # c K q^{(d-1)/2} = (1/4) * 1 * 5
    assert float(lam) == pytest.approx(1.25)
    for t in (0, 1, 9, 26):
        assert richness_threshold(cutoff_K(t, 5, 3), 5, 3) == t


def test_persistent_pairs_k_zero_keeps_all():
    rng = random.Random(46)
    cfg = random_config(rng, n_spheres=6)
    live = {(i, j) for i, j in itertools.permutations(range(6), 2)
            if radical_hyperplane(cfg.spheres[i], cfg.spheres[j],
                                  cfg.q) is not None}
    pp = persistent_pairs(cfg, K=SqrtRational.zero())
    assert set(map(tuple, pp.pairs.tolist())) == live


def test_persistent_pairs_huge_threshold_empty():
    rng = random.Random(47)
    cfg = random_config(rng, n_spheres=6)
    pp = persistent_pairs(cfg, K=cutoff_K(cfg.q ** 2 + 1, cfg.q, cfg.d))
    assert pp.pairs.shape == (0, 2)


def test_persistent_pairs_symmetric_and_profile():
    rng = random.Random(48)
    cfg = random_config(rng, n_spheres=8)
    pp = persistent_pairs(cfg, K=cutoff_K(1, cfg.q, cfg.d))
    pairs = set(map(tuple, pp.pairs.tolist()))
    for (i, j) in pairs:
        assert (j, i) in pairs


def test_regularize_postconditions():
    rng = random.Random(50)
    hits = 0
    for _ in range(12):
        cfg = random_config(rng, n_points=30, n_spheres=10)
        pp = persistent_pairs(cfg, K=cutoff_K(1, cfg.q, cfg.d))
        if not len(pp.pairs):
            continue
        ms = build_multiset(pp)
        support = hyperplanes(ms.support)
        try:
            reg = regularize(
                hyperplane_incidence(cfg.points, ms.support, cfg.q), ms)
        except RegularizationDegenerate:
            continue
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


def test_regularize_uniform_input_unchanged():
    # all points on one hyperplane, multiset = that one hyperplane
    sp = make_space(5, 3)
    s1, s2 = Sphere((1, 0, 0), 2), Sphere((4, 0, 0), 2)
    q = 5
    h = radical_hyperplane(s1, s2, q)
    from ffrigidity.geometry import hyperplane_points
    pts = hyperplane_points(h, sp)
    cfg = make_config(sp, pts, [s1, s2])
    pp = persistent_pairs(cfg, K=cutoff_K(1, q, 3))
    ms = build_multiset(pp)
    reg = regularize(hyperplane_incidence(cfg.points, ms.support, q), ms)
    assert reg.point_idx.tolist() == list(range(len(cfg.points)))
    assert hyperplanes(reg.multiset.support) == [h]
    assert reg.multiset.counts.tolist() == ms.counts.tolist() == [2]


def test_regularize_degenerate_raises():
    sp = make_space(5, 3)
    s1, s2 = Sphere((1, 0, 0), 2), Sphere((4, 0, 0), 2)
    cfg = make_config(sp, [(1, 1, 1)], [s1, s2])
    h = radical_hyperplane(s1, s2, 5)
    assert not hyperplane_contains(h, (1, 1, 1), 5)
    pp = persistent_pairs(cfg, K=SqrtRational.zero())
    ms = build_multiset(pp)
    with pytest.raises(RegularizationDegenerate):
        regularize(hyperplane_incidence(cfg.points, ms.support, 5), ms)


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


def test_regularize_matches_scalar_buckets():
    # degrees 2, 1, 1 tie the classes 1 and 0 at summed degree 2
    ms = HyperplaneMultiset(support=np.array([[0, 1, 0, 0], [1, 0, 0, 0]]),
                            counts=np.ones(2, dtype=np.int64),
                            columns=np.arange(2))
    pts = [(0, 1, 1), (0, 0, 1), (1, 0, 1)]
    inc = hyperplane_incidence(pts, ms.support, 5)
    reg = regularize(inc, ms)
    assert reg.point_idx.tolist() == [1]
    assert inc[reg.point_idx].sum(axis=1).tolist() == [2]
    rng = random.Random(51)
    for _ in range(40):
        cfg = random_config(rng, q=5, n_points=25, n_spheres=8)
        pp = persistent_pairs(cfg, K=SqrtRational.zero())
        ms = build_multiset(pp)
        if not len(ms.support):
            continue
        q = cfg.q
        inc = hyperplane_incidence(cfg.point_array, ms.support, q)
        members = dict(zip(hyperplanes(ms.support), ms.counts.tolist()))
        jp, points = _heaviest_bucket_oracle(cfg.points, lambda p: sum(
            hyperplane_contains(h, p, q) for h in members))
        jh, support = _heaviest_bucket_oracle(members, lambda h: sum(
            hyperplane_contains(h, p, q) for p in points))
        if jp is None or jh is None:
            with pytest.raises(RegularizationDegenerate):
                regularize(inc, ms)
            continue
        reg = regularize(inc, ms)
        assert [cfg.points[i] for i in reg.point_idx.tolist()] == points
        assert {dyadic_class(v) for v in
                inc[reg.point_idx].sum(axis=1).tolist()} == {jp}
        assert hyperplanes(reg.multiset.support) == support
        assert reg.multiset.counts.tolist() == [members[h] for h in support]
        assert reg.richness_scale == 1 << jh
