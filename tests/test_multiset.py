import random
from fractions import Fraction

import numpy as np
import pytest

from ffrigidity.geometry import (Hyperplane, Sphere, canonical_hyperplane,
                                 make_space, radical_hyperplane)
from ffrigidity.multiset import (HyperplaneMultiset, build_multiset,
                                 mass_retention, popular_hyperplane)
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
    """Rows in Hyperplane tuple order, each its own incidence column."""
    hs = sorted(counts_by_hyperplane)
    return HyperplaneMultiset(
        support=np.array([(*h.normal, h.offset) for h in hs], dtype=np.int64),
        counts=np.array([counts_by_hyperplane[h] for h in hs],
                        dtype=np.int64),
        columns=np.arange(len(hs)),
    )


def as_dict(ms):
    """{Hyperplane: multiplicity}, in support order."""
    return {Hyperplane(tuple(r[:-1]), r[-1]): c
            for r, c in zip(ms.support.tolist(), ms.counts.tolist())}


def test_build_multiset_conservation():
    rng = random.Random(62)
    cfg = random_config(rng)
    pp = persistent_pairs(cfg, Fraction(0), Fraction(1, 4))
    ms = build_multiset(pp)
    # every persistent ordered pair lands on exactly one hyperplane
    assert ms.mass == len(pp.pairs)
    assert len(ms.support) <= len(pp.pairs)
    assert sum(ms.counts.tolist()) == ms.mass
    counts = {}
    for i, j in pp.pairs.tolist():
        h = radical_hyperplane(cfg.spheres[i], cfg.spheres[j], cfg.q)
        counts[h] = counts.get(h, 0) + 1
    assert as_dict(ms) == counts
    assert list(as_dict(ms)) == sorted(counts)
    assert (pp.bisectors[ms.columns] == ms.support).all()


def test_build_multiset_all_concentric_empty():
    sp = make_space(5, 3)
    cfg = make_config(sp, [(1, 0, 0)], [Sphere((0, 0, 0), r) for r in range(3)])
    pp = persistent_pairs(cfg, Fraction(0), Fraction(1, 4))
    assert pp.pairs.shape == (0, 2)
    ms = build_multiset(pp)
    assert ms.support.shape == (0, 4) and ms.mass == 0
    # retention is the operation that refuses an empty multiset
    with pytest.raises(AssertionError):
        mass_retention(ms)


def test_reflected_pair_single_support():
    # mirror spheres across x1 = 0 share that bisector
    q = 5
    sp = make_space(q, 3)
    pairs = [(Sphere((1, 0, 0), r), Sphere((4, 0, 0), r)) for r in range(3)]
    spheres = [s for pair in pairs for s in pair]
    pts = [(0, a, b) for a in range(q) for b in range(q)]
    cfg = make_config(sp, pts, spheres)
    # the cutoff K * q / 4 is 1
    pp = persistent_pairs(cfg, Fraction(16, q * q), Fraction(1, 4))
    ms = build_multiset(pp)
    h_star = canonical_hyperplane((1, 0, 0), 0, q)
    # each mirror pair contributes its two ordered versions
    assert as_dict(ms)[h_star] >= 6


def _popular(counts_by_hyperplane, q):
    ms = manual_multiset(counts_by_hyperplane)
    k = popular_hyperplane(ms, q)
    return list(as_dict(ms).items())[k]


def test_popular_hyperplane_spec_examples():
    q = 5
    offsets = {0: 3, 1: 1, 4: 1}
    h, m0 = _popular({Hyperplane((1, 0, 0), b): m
                      for b, m in offsets.items()}, q)
    assert (h, m0) == (Hyperplane((1, 0, 0), 0), 3)
    assert Fraction(m0) >= Fraction(sum(offsets.values()), q)

    assert _popular({Hyperplane((1, 0, 0), 2): 7}, q) == (
        Hyperplane((1, 0, 0), 2), 7)

    # a uniform class: the least offset, at exactly a 1/q share
    uniform = {Hyperplane((1, 0, 0), b): 1 for b in range(q)}
    h, m0 = _popular(uniform, q)
    assert (h, m0) == (Hyperplane((1, 0, 0), 0), 1)
    assert Fraction(m0) == Fraction(sum(uniform.values()), q)

    # classes of equal mass: the least direction, then the least offset
    assert _popular({Hyperplane((1, 0, 0), 0): 2, Hyperplane((0, 1, 0), 3): 1,
                     Hyperplane((0, 1, 0), 1): 1}, q) == (
        Hyperplane((0, 1, 0), 1), 1)
    # the heaviest class wins over the largest single multiplicity
    assert _popular({Hyperplane((1, 0, 0), 0): 3, Hyperplane((0, 1, 4), 2): 2,
                     Hyperplane((0, 1, 4), 4): 2}, q) == (
        Hyperplane((0, 1, 4), 2), 2)


def test_parallel_classes_grouping():
    q = 5
    hs = [canonical_hyperplane((1, 0, 0), 0, q),
          canonical_hyperplane((1, 0, 0), 1, q),
          canonical_hyperplane((0, 1, 0), 0, q)]
    # one member each: the class of normal (1, 0, 0) holds two of them
    assert _popular(dict.fromkeys(hs, 1), q) == (hs[0], 1)
    assert _popular({hs[0]: 1, hs[1]: 1, hs[2]: 3}, q) == (hs[2], 3)


def test_mass_retention_spec_example():
    q = 5
    hs = [canonical_hyperplane((1, 0, 0), b, q) for b in range(4)]
    ms = manual_multiset(dict(zip(hs, (8, 1, 1, 2))))
    rep = mass_retention(ms)
    threshold = Fraction(ms.mass, 2 * len(ms.support))
    assert threshold == Fraction(12, 8)
    assert as_dict(rep.retained) == {h: m for h, m in as_dict(ms).items()
                                     if m >= threshold}
    assert sorted(rep.retained.counts.tolist()) == [2, 8]
    assert rep.retained.mass == 10
    assert rep.retained.mass * 2 >= 12


def test_mass_retention_uniform_keeps_all():
    q = 5
    hs = [canonical_hyperplane((1, 0, 0), b, q) for b in range(5)]
    ms = manual_multiset(dict.fromkeys(hs, 3))
    rep = mass_retention(ms)
    assert as_dict(rep.retained) == as_dict(ms)


def test_mass_retention_single_hyperplane():
    q = 5
    h = canonical_hyperplane((1, 2, 3), 1, q)
    ms = manual_multiset({h: 9})
    rep = mass_retention(ms)
    assert as_dict(rep.retained) == {h: 9}
    assert rep.retained.mass == 9


def test_mass_retention_support_bound():
    rng = random.Random(65)
    for _ in range(8):
        cfg = random_config(rng)
        pp = persistent_pairs(cfg, Fraction(0), Fraction(1, 4))
        ms = build_multiset(pp)
        rep = mass_retention(ms)
        geo = len(ms.support)
        assert 2 * rep.retained.mass >= ms.mass
        assert geo * ms.max_multiplicity >= ms.mass
        assert as_dict(rep.retained) == {h: m for h, m in as_dict(ms).items()
                                         if 2 * geo * m >= ms.mass}


def test_restrict_preserves_counts():
    rng = random.Random(66)
    cfg = random_config(rng)
    pp = persistent_pairs(cfg, Fraction(0), Fraction(1, 4))
    ms = build_multiset(pp)
    members = list(as_dict(ms).items())
    every_other = np.arange(0, len(members), 2)
    mask = np.zeros(len(members), dtype=bool)
    mask[every_other] = True
    for keep in (every_other, mask):
        sub = ms.restrict(keep)
        assert list(as_dict(sub).items()) == members[::2]
        assert sub.columns.tolist() == ms.columns.tolist()[::2]
