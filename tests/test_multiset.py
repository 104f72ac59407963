import random
from fractions import Fraction

import pytest

from ffrigidity.geometry import (Hyperplane, Sphere, canonical_hyperplane,
                                 hyperplane_incidence, make_space,
                                 radical_hyperplane)
from ffrigidity.multiset import (EmptyClass, EmptyMultiset, HyperplaneMultiset,
                                 ParallelClass, build_multiset, mass_retention,
                                 parallel_classes, popular_offset)
from ffrigidity.stats import make_config
from ffrigidity.strata import persistent_pairs


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


def manual_multiset(counts_by_hyperplane):
    counts = dict(counts_by_hyperplane)
    return HyperplaneMultiset(
        support=tuple(sorted(counts)),
        counts=counts,
    )


def test_build_multiset_conservation():
    rng = random.Random(62)
    cfg = random_config(rng)
    pp = persistent_pairs(cfg, threshold=0)
    ms = build_multiset(pp, cfg, richness_min=0)
    # every non-degenerate ordered pair lands on exactly one hyperplane
    assert ms.mass == len(pp.pairs)
    assert ms.geo_size <= len(pp.pairs)
    assert sum(ms.counts.values()) == ms.mass
    counts = {}
    for i, j in pp.pairs.tolist():
        h = radical_hyperplane(cfg.spheres[i], cfg.spheres[j], cfg.q)
        counts[h] = counts.get(h, 0) + 1
    assert ms.counts == counts


def test_build_multiset_all_concentric_empty():
    sp = make_space(5, 3)
    cfg = make_config(sp, [(1, 0, 0)], [Sphere((0, 0, 0), r) for r in range(3)])
    pp = persistent_pairs(cfg, threshold=0)
    assert pp.pairs.shape == (0, 2)
    ms = build_multiset(pp, cfg, richness_min=0)
    assert ms.support == () and ms.mass == 0
    # retention is the operation that refuses an empty multiset
    with pytest.raises(EmptyMultiset):
        mass_retention(ms)


def test_build_multiset_richness_filter():
    rng = random.Random(63)
    cfg = random_config(rng)
    pp = persistent_pairs(cfg, threshold=0)
    ms_all = build_multiset(pp, cfg, richness_min=0)
    ms_cut = build_multiset(pp, cfg, richness_min=3)
    for h in ms_cut.support:
        assert hyperplane_incidence(cfg.points, [h], cfg.q).sum() >= 3
    assert set(ms_cut.support) <= set(ms_all.support)


def test_reflected_pair_single_support():
    # mirror spheres across x1 = 0 share that bisector
    q = 5
    sp = make_space(q, 3)
    pairs = [(Sphere((1, 0, 0), r), Sphere((4, 0, 0), r)) for r in range(3)]
    spheres = [s for pair in pairs for s in pair]
    pts = [(0, a, b) for a in range(q) for b in range(q)]
    cfg = make_config(sp, pts, spheres)
    pp = persistent_pairs(cfg, threshold=1)
    ms = build_multiset(pp, cfg, richness_min=1)
    h_star = canonical_hyperplane((1, 0, 0), 0, q)
    assert h_star in ms.support
    # each mirror pair contributes its two ordered versions
    assert ms.counts[h_star] >= 6


def test_popular_offset_spec_examples():
    q = 5
    cls = ParallelClass(direction=(1, 0, 0),
                        offsets={0: 3, 1: 1, 4: 1})
    b0, m0 = popular_offset(cls, q)
    assert (b0, m0) == (0, 3)
    assert Fraction(m0) >= Fraction(cls.mass, q)

    single = ParallelClass(direction=(1, 0, 0), offsets={2: 7})
    assert popular_offset(single, q) == (2, 7)

    uniform = ParallelClass(direction=(1, 0, 0),
                            offsets={b: 1 for b in range(q)})
    b0, m0 = popular_offset(uniform, q)
    assert (b0, m0) == (0, 1)
    assert Fraction(m0) == Fraction(uniform.mass, q)


def test_popular_offset_empty_class():
    with pytest.raises(EmptyClass):
        popular_offset(ParallelClass(direction=(1, 0, 0), offsets={}), 5)


def test_parallel_classes_grouping():
    q = 5
    ms = manual_multiset({
        canonical_hyperplane((1, 0, 0), 0, q): 1,
        canonical_hyperplane((1, 0, 0), 1, q): 1,
        canonical_hyperplane((0, 1, 0), 0, q): 1,
    })
    classes = parallel_classes(ms)
    assert len(classes) == 2
    assert sorted(len(c.offsets) for c in classes) == [1, 2]
    assert [c.direction for c in classes] == [(0, 1, 0), (1, 0, 0)]


def test_parallel_classes_pair_count_oracle():
    rng = random.Random(64)
    cfg = random_config(rng)
    pp = persistent_pairs(cfg, threshold=0)
    ms = build_multiset(pp, cfg, richness_min=0)
    classes = parallel_classes(ms)
    n = ms.geo_size
    sizes = [len(c.offsets) for c in classes]
    cross = n * n - sum(s * s for s in sizes)
    direct = sum(1 for h1 in ms.support for h2 in ms.support
                 if h1.normal != h2.normal)
    assert cross == direct


def test_mass_retention_spec_example():
    q = 5
    hs = [canonical_hyperplane((1, 0, 0), b, q) for b in range(4)]
    ms = manual_multiset(dict(zip(hs, (8, 1, 1, 2))))
    rep = mass_retention(ms)
    assert rep.threshold == Fraction(12, 8)
    kept_counts = sorted(rep.retained.counts.values())
    assert kept_counts == [2, 8]
    assert rep.retained_mass == 10
    assert rep.retained_mass * 2 >= 12


def test_mass_retention_uniform_keeps_all():
    q = 5
    hs = [canonical_hyperplane((1, 0, 0), b, q) for b in range(5)]
    ms = manual_multiset(dict.fromkeys(hs, 3))
    rep = mass_retention(ms)
    assert rep.retained.support == ms.support


def test_mass_retention_single_hyperplane():
    q = 5
    h = canonical_hyperplane((1, 2, 3), 1, q)
    ms = manual_multiset({h: 9})
    rep = mass_retention(ms)
    assert rep.retained.support == (h,)
    assert rep.retained_mass == 9


def test_mass_retention_support_bound():
    rng = random.Random(65)
    for _ in range(8):
        cfg = random_config(rng)
        pp = persistent_pairs(cfg, threshold=0)
        ms = build_multiset(pp, cfg, richness_min=0)
        rep = mass_retention(ms)
        assert 2 * rep.retained_mass >= ms.mass
        assert ms.geo_size * ms.max_multiplicity >= ms.mass


def test_restrict_preserves_counts():
    rng = random.Random(66)
    cfg = random_config(rng)
    pp = persistent_pairs(cfg, threshold=0)
    ms = build_multiset(pp, cfg, richness_min=0)
    keep = list(ms.support)[::2]
    sub = ms.restrict(keep)
    assert sub.support == tuple(sorted(keep))
    for h in sub.support:
        assert sub.counts[h] == ms.counts[h]
