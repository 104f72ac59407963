import gc
import itertools
import sys
import tracemalloc
from fractions import Fraction

import pytest

from ffrigidity.exact import SqrtRational
from ffrigidity.generators import (MAX_D, PRNG_NAME, BadGeneratorSpec,
                                   GeneratorSpec, ZeroPin,
                                   dot_product_system, generate, pin_cap,
                                   pinned_distance_set, pinned_sphere_system)
from ffrigidity.geometry import (hyperplane_contains, make_space,
                                 quad_norm, radical_hyperplane)
from ffrigidity.multiset import build_multiset
from ffrigidity.stats import incidence_count, near_extremality_K
from ffrigidity.strata import persistent_pairs


def spec(kind, q=7, d=3, np_=20, ns=10, seed=5, noise=0.0):
    return GeneratorSpec(kind=kind, q=q, d=d, n_points=np_, n_spheres=ns,
                         seed=seed, noise=noise)


def test_prng_name_is_pinned():
    assert PRNG_NAME == "python-random-mt19937"


def test_generate_is_deterministic():
    for kind in ("uniform-random", "hyperplane-planted", "quadric-planted",
                 "reflected-pairs"):
        a = generate(spec(kind, np_=15, ns=8))
        b = generate(spec(kind, np_=15, ns=8))
        assert a.config.points == b.config.points
        assert a.config.spheres == b.config.spheres
        assert a.planted == b.planted
        assert a.quadric_r == b.quadric_r


def test_generate_keeps_no_point_grid():
    """A quadric-planted generate enumerates all q**d points; the grid
    (61**3 x 3 int64, 5.4 MB) is released with the call."""
    tracemalloc.start()
    try:
        generate(spec("quadric-planted", q=61, np_=200, ns=20))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_generate_seed_changes_output():
    a = generate(spec("uniform-random", seed=1))
    b = generate(spec("uniform-random", seed=2))
    assert a.config.points != b.config.points


def test_generate_counts_and_ranges():
    g = generate(spec("uniform-random", np_=25, ns=12))
    assert len(g.config.points) == 25
    assert len(g.config.spheres) == 12
    for p in g.config.points:
        assert all(0 <= c < 7 for c in p)
    for s in g.config.spheres:
        assert all(0 <= c < 7 for c in s.center) and 0 <= s.r < 7


def test_generate_rejects_bad_specs():
    with pytest.raises(BadGeneratorSpec, match="kind"):
        generate(spec("mystery"))
    with pytest.raises(BadGeneratorSpec, match="n_points"):
        generate(spec("uniform-random", q=3, np_=28))  # 3^3 = 27
    with pytest.raises(BadGeneratorSpec, match="n_spheres"):
        generate(spec("uniform-random", q=3, np_=5, ns=82))  # 3^4 = 81
    with pytest.raises(BadGeneratorSpec, match="noise"):
        generate(spec("uniform-random", noise=1.5))
    with pytest.raises(BadGeneratorSpec, match="even"):
        generate(spec("reflected-pairs", ns=7))
    with pytest.raises(BadGeneratorSpec, match="pairs"):
        generate(spec("reflected-pairs", q=3, np_=5, ns=8))  # 3 pairs max
    # MAX_D is the reach of uniform-random at q = 3, the widest kind
    assert 3 ** (MAX_D + 1) <= sys.maxsize < 3 ** (MAX_D + 2)
    generate(spec("uniform-random", q=3, d=MAX_D, np_=5, ns=2))
    with pytest.raises(BadGeneratorSpec, match="^d: "):
        generate(spec("uniform-random", q=3, d=MAX_D + 1, np_=5, ns=2))


def test_hyperplane_planted_noise_split():
    g0 = generate(spec("hyperplane-planted", np_=20, noise=0.0))
    assert all(hyperplane_contains(g0.planted, p, 7)
               for p in g0.config.points)
    g5 = generate(spec("hyperplane-planted", np_=20, noise=0.5))
    on = sum(1 for p in g5.config.points
             if hyperplane_contains(g5.planted, p, 7))
    assert on == 10 and len(g5.config.points) == 20


def test_quadric_planted_points_on_sphere():
    g = generate(spec("quadric-planted", np_=15, noise=0.0))
    assert g.planted is None and g.quadric_r is not None
    for p in g.config.points:
        assert quad_norm(p, 7) == g.quadric_r
    with pytest.raises(BadGeneratorSpec, match="n_points"):
        generate(spec("quadric-planted", q=3, np_=20, ns=4))


def test_reflected_pairs_mirror_bisectors_hit_planted():
    g = generate(spec("reflected-pairs", np_=18, ns=12))
    cfg = g.config
    assert len(cfg.spheres) == 12
    for i in range(0, 12, 2):
        up, down = cfg.spheres[i], cfg.spheres[i + 1]
        assert up.r == down.r
        assert radical_hyperplane(up, down, 7) == g.planted
    # at noise 0 every mirror pair must be persistent and the planted
    # plane carries at least one count per mirror pair
    pp = persistent_pairs(cfg)
    ms = build_multiset(pp)
    planted = ms.support.tolist().index([*g.planted.normal, g.planted.offset])
    assert ms.counts[planted] >= 12


def test_reflected_pairs_centers_share_normal_line():
    g = generate(spec("reflected-pairs", np_=10, ns=8, seed=11))
    q = 7
    n = g.planted.normal
    centers = [s.center for s in g.config.spheres]
    base = centers[0]
    for c in centers[1:]:
        delta = tuple((a - b) % q for a, b in zip(c, base))
        # delta must be a scalar multiple of the normal
        ks = [(d_ * pow(n_, q - 2, q)) % q
              for d_, n_ in zip(delta, n) if n_ % q]
        assert len(set(ks)) == 1
        k = ks[0]
        assert all((k * n_) % q == d_ for d_, n_ in zip(delta, n))


def test_pinned_distance_set_matches_norms():
    q = 7
    pts = [(1, 2, 3), (0, 0, 0), (4, 4, 4)]
    pin = (1, 1, 1)
    dset = pinned_distance_set(pin, pts, q)
    assert dset == sorted({quad_norm(tuple((a - b) % q
                                           for a, b in zip(x, pin)), q)
                           for x in pts})


def test_pinned_system_exact_incidences_and_surplus():
    sp = make_space(7, 3)
    pts = [(i, (2 * i) % 7, (3 * i + 1) % 7) for i in range(6)]
    pins = [(0, 0, 0), (1, 0, 0), (2, 3, 4)]
    sys = pinned_sphere_system(pins, pts, sp)
    assert incidence_count(sys.config) == 3 * 6
    closed = Fraction(6, 7) * sum(7 - len(v) for v in sys.per_pin.values())
    assert sys.surplus == closed
    assert sys.K == near_extremality_K(sys.config)


def test_pinned_system_concentrated_distances_boost_K():
    sp = make_space(7, 3)
    # all points at form-distance 1 from the pin: one sphere, surplus 6/7 each
    pin = (0, 0, 0)
    pts = [p for p in itertools.product(range(7), repeat=3)
           if quad_norm(p, 7) == 1][:8]
    sys = pinned_sphere_system([pin], pts, sp)
    assert sys.per_pin[pin] == (1,)
    assert sys.surplus == Fraction(len(pts) * 6, 7)
    assert float(sys.K) > 0


def test_pin_cap_values():
    assert pin_cap(7, 3, SqrtRational(Fraction(5), 1)) == 5
    assert pin_cap(7, 5, SqrtRational(Fraction(1), 1)) == 7  # sqrt(q^2)
    assert pin_cap(7, 3, 2, c=Fraction(1, 2)) == 1
    assert pin_cap(7, 3, SqrtRational.zero()) == 0


def test_dot_system_counts_merged_labels():
    sp = make_space(5, 3)
    qpts = [(1, 0, 0), (2, 0, 0), (3, 0, 0)]
    # parallel pins name the same geometric planes after canonicalization
    sys = dot_product_system([(1, 0, 0), (2, 0, 0)], qpts, sp)
    assert sys.incidences == 2 * 3
    assert sys.merged == 3
    assert len(sys.hyperplanes) == 3
    assert all(m == 2 for m in sys.multiplicity.values())


def test_dot_system_rejects_zero_pin():
    sp = make_space(5, 3)
    with pytest.raises(ZeroPin):
        dot_product_system([(0, 0, 0)], [(1, 1, 1)], sp)


def test_dot_system_surplus_positive_for_small_value_sets():
    sp = make_space(7, 3)
    qpts = [(t, t, 0) for t in range(7)]  # <(1,6,0), x> = 0 for all
    sys = dot_product_system([(1, 6, 0)], qpts, sp)
    assert len(sys.hyperplanes) == 1
    assert sys.surplus == Fraction(7) - Fraction(7, 7)
    assert float(sys.K) > 0

