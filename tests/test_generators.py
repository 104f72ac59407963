import gc
import sys
import tracemalloc
from fractions import Fraction

import pytest

from ffrigidity import generators
from ffrigidity.generators import (MAX_D, PRNG_NAME, BadGeneratorSpec,
                                   GeneratorSpec, generate)
from ffrigidity.geometry import (all_projective_directions,
                                 hyperplane_contains, quad_norm,
                                 radical_hyperplane)
from ffrigidity.multiset import build_multiset
from ffrigidity.stats import energies
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


def test_non_isotropic_direction_table_is_cached_and_read_only():
    dirs = generators._non_isotropic_directions(13, 3)
    assert dirs is generators._non_isotropic_directions(13, 3)
    assert not dirs.flags.writeable
    assert dirs.tolist() == [row for row in all_projective_directions(
        13, 3).tolist() if quad_norm(row, 13)]


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
    pp = persistent_pairs(cfg, energies(cfg).K2, Fraction(1, 4))
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
