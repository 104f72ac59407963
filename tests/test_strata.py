import random
from fractions import Fraction

import pytest

from ffrigidity.exact import SqrtRational
from ffrigidity.geometry import Sphere, hyperplane_contains, make_space, radical_hyperplane
from ffrigidity.stats import energies, make_config
from ffrigidity.strata import (EmptyOverlaps, RegularizationDegenerate,
                               dyadic_class, heavy_layer_select,
                               low_layer_mass, pair_richness,
                               persistent_pairs, persistent_partner_profile,
                               regularize, richness_threshold,
                               sphere_overlap_matrix, stratify)
from ffrigidity.multiset import build_multiset


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
        gram = sphere_overlap_matrix(cfg)
        mass = sum(int(gram[i, j]) for pairs in layers.layers.values()
                   for (i, j) in pairs)
        assert mass == st.off_diagonal
        ns = len(cfg.spheres)
        assert layers.pair_count == ns * (ns - 1)


def test_stratify_matches_overlap_oracle():
    rng = random.Random(42)
    cfg = random_config(rng, n_points=20, n_spheres=6)
    layers = stratify(cfg)
    for j, pairs in layers.layers.items():
        for (i, k) in pairs:
            v = overlap_oracle(cfg, i, k)
            assert dyadic_class(v) == j


def test_pair_richness_counts_points_on_bisector():
    rng = random.Random(43)
    cfg = random_config(rng, n_points=18, n_spheres=6)
    richness, degenerate = pair_richness(cfg)
    q = cfg.q
    for (i, j), r in richness.items():
        h = radical_hyperplane(cfg.spheres[i], cfg.spheres[j], q)
        direct = sum(1 for p in cfg.points if hyperplane_contains(h, p, q))
        assert direct == r
    for (i, j) in degenerate:
        assert cfg.spheres[i].center == cfg.spheres[j].center


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
    richness, degenerate = pair_richness(cfg)
    assert not richness
    assert len(degenerate) == 4 * 3


def test_richness_threshold_formula():
    k = SqrtRational(Fraction(1, 10), 100)  # value 1
    lam = richness_threshold(k, 5, 3, Fraction(1, 4))
    # c K q^{(d-1)/2} = (1/4) * 1 * 5
    assert float(lam) == pytest.approx(1.25)


def test_persistent_pairs_k_zero_keeps_all():
    rng = random.Random(46)
    cfg = random_config(rng, n_spheres=6)
    richness, degenerate = pair_richness(cfg)
    pp = persistent_pairs(cfg, K=SqrtRational.zero())
    assert set(pp.pairs) == set(richness)


def test_persistent_pairs_huge_threshold_empty():
    rng = random.Random(47)
    cfg = random_config(rng, n_spheres=6)
    pp = persistent_pairs(cfg, threshold=cfg.q ** 2 + 1)
    assert pp.pairs == ()


def test_persistent_pairs_symmetric_and_profile():
    rng = random.Random(48)
    cfg = random_config(rng, n_spheres=8)
    pp = persistent_pairs(cfg, threshold=1)
    pairs = set(pp.pairs)
    for (i, j) in pairs:
        assert (j, i) in pairs
    prof = persistent_partner_profile(pp, cfg, threshold=1)
    for i, c in prof.partner_counts.items():
        assert c == sum(1 for (a, _) in pairs if a == i)
    assert prof.s0 == tuple(i for i, c in sorted(prof.partner_counts.items())
                            if c >= 1)
    empty = persistent_partner_profile(
        persistent_pairs(cfg, threshold=cfg.q ** 2 + 1), cfg, threshold=1)
    assert empty.s0 == ()


def test_heavy_layer_spec_example():
    hl = heavy_layer_select([1, 1, 1, 1, 8])
    assert hl.layer == 3
    assert hl.mu == 8
    assert hl.score == 8
    assert hl.layer_mass == 8
    assert hl.keys == (4,)


def test_heavy_layer_uniform_values():
    hl = heavy_layer_select({"a": 5, "b": 5, "c": 5})
    assert hl.layer == 2
    assert set(hl.keys) == {"a", "b", "c"}
    assert hl.score == 12


def test_heavy_layer_tie_goes_to_larger_class():
    # scores: j=0 -> 4, j=2 -> 4; tie resolved upward
    hl = heavy_layer_select([1, 1, 1, 1, 4])
    assert hl.layer == 2


def test_heavy_layer_score_pigeonhole_random():
    rng = random.Random(49)
    for _ in range(200):
        vals = [rng.randrange(0, 40) for _ in range(rng.randrange(1, 25))]
        if not any(vals):
            continue
        hl = heavy_layer_select(vals)
        total_score = sum((1 << dyadic_class(v)) for v in vals if v > 0)
        # the score is within a factor 2 of the mass it stands for
        assert hl.layer_mass >= hl.score > hl.layer_mass / 2
        assert hl.score * hl.nonempty_layers >= total_score


def test_heavy_layer_empty_rejected():
    with pytest.raises(EmptyOverlaps):
        heavy_layer_select([0, 0])
    with pytest.raises(EmptyOverlaps):
        heavy_layer_select([])


def test_regularize_postconditions():
    rng = random.Random(50)
    hits = 0
    for _ in range(12):
        cfg = random_config(rng, n_points=30, n_spheres=10)
        pp = persistent_pairs(cfg, threshold=1)
        if not pp.pairs:
            continue
        ms = build_multiset(pp.pairs, cfg, richness_min=1)
        try:
            reg = regularize(cfg.points, ms, cfg.q, cfg.d)
        except RegularizationDegenerate:
            continue
        hits += 1
        m1, lam1 = reg.degree_scale, reg.richness_scale
        # recount degrees of kept points against the input support
        for p in reg.points:
            deg = sum(hyperplane_contains(h, p, cfg.q) for h in ms.support)
            assert m1 <= deg < 2 * m1
        from ffrigidity.multiset import richness_counts
        for r in richness_counts(reg.points, list(reg.multiset.support),
                                 cfg.q, cfg.d):
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
    pp = persistent_pairs(cfg, threshold=1)
    ms = build_multiset(pp.pairs, cfg, richness_min=1)
    reg = regularize(cfg.points, ms, q, 3)
    assert set(reg.points) == set(cfg.points)
    assert reg.multiset.support == ms.support


def test_regularize_degenerate_raises():
    sp = make_space(5, 3)
    s1, s2 = Sphere((1, 0, 0), 2), Sphere((4, 0, 0), 2)
    cfg = make_config(sp, [(1, 1, 1)], [s1, s2])
    h = radical_hyperplane(s1, s2, 5)
    assert not hyperplane_contains(h, (1, 1, 1), 5)
    pp = persistent_pairs(cfg, threshold=0)
    ms = build_multiset(pp.pairs, cfg, richness_min=0)
    with pytest.raises(RegularizationDegenerate):
        regularize(cfg.points, ms, 5, 3)
