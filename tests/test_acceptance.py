"""Acceptance harness: desk-scale criteria, one test each.  They keep
the numbers 1-12 of the original list; 5 (homogenization) and 11
(Veronese dependence) left with the code they checked.

Every test prints a single pass line with its measured quantities; a
failed assertion is the fail line.  The grid is q in {3, 5, 7, 11, 13}
at d = 3 with spot checks at d = 4, q in {3, 5}.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from ffrigidity.dichotomy import dichotomy
from ffrigidity.field import PrimeField
from ffrigidity.generators import (GeneratorSpec, dot_product_system,
                                   generate, pinned_sphere_system)
from ffrigidity.geometry import (Hyperplane, Sphere, flat_from_pair,
                                 hyperplane_contains, make_space, point_grid,
                                 quad_norm, radical_hyperplane,
                                 sphere_incidence)
from ffrigidity.multiset import (build_multiset, mass_retention,
                                 popular_hyperplane)
from ffrigidity.pipeline import extract_certificate, flat_profile
from ffrigidity.stats import energies, incidence_count, make_config
from ffrigidity.strata import low_layer_mass, persistent_pairs
from ffrigidity.verify import verify_certificate

GRID_Q = (3, 5, 7, 11, 13)
SPOT_Q = (3, 5)
KINDS = ("uniform-random", "hyperplane-planted", "quadric-planted",
         "reflected-pairs")


def grid_specs():
    specs = []
    for q in GRID_Q:
        for kind in KINDS:
            ns = 4 if (kind == "reflected-pairs" and q == 3) else 8
            for seed in (1, 2, 3):
                specs.append(GeneratorSpec(kind, q, 3, 2 * q, ns, seed))
    for q in SPOT_Q:
        for kind in KINDS:
            ns = 4 if (kind == "reflected-pairs" and q == 3) else 6
            specs.append(GeneratorSpec(kind, q, 4, 2 * q, ns, 4))
    return specs


@pytest.fixture(scope="module")
def grid_configs():
    return [generate(s) for s in grid_specs()]


def report(n, text):
    print(f"criterion {n:02d}: PASS - {text}")


def test_criterion_01_radical_containment():
    rng = random.Random(101)
    checked_pairs = 0
    checked_points = 0
    start = time.perf_counter()
    cells = [(q, 3, 2400) for q in GRID_Q] + [(q, 4, 500) for q in SPOT_Q]
    for q, d, n_pairs in cells:
        spheres = []
        seen = set()
        while len(spheres) < 60:
            s = Sphere(tuple(rng.randrange(q) for _ in range(d)),
                       rng.randrange(q))
            if s not in seen:
                seen.add(s)
                spheres.append(s)
        grid = point_grid(q, d)
        inc = sphere_incidence(grid, spheres, q)
        cache = {s: frozenset(map(tuple, grid[inc[:, k]].tolist()))
                 for k, s in enumerate(spheres)}
        done = 0
        while done < n_pairs:
            s1, s2 = rng.sample(spheres, 2)
            if s1.center == s2.center:
                continue
            done += 1
            h = radical_hyperplane(s1, s2, q)
            common = cache[s1] & cache[s2]
            for p in common:
                assert hyperplane_contains(h, p, q)
            checked_points += len(common)
        checked_pairs += done
    elapsed = time.perf_counter() - start
    assert checked_pairs >= 10 ** 4
    assert elapsed < 60.0
    report(1, f"{checked_pairs} pairs, {checked_points} intersection "
              f"points on the radical, {elapsed:.1f}s")


def test_criterion_02_energy_identity(grid_configs):
    checked = 0
    for g in grid_configs:
        cfg = g.config
        st = energies(cfg)
        # independent off-diagonal count straight from the definition
        off = 0
        for i, s1 in enumerate(cfg.spheres):
            on1 = [p for p in cfg.points
                   if quad_norm(tuple((a - b) % cfg.q
                                      for a, b in zip(p, s1.center)),
                                cfg.q) == s1.r]
            for j, s2 in enumerate(cfg.spheres):
                if i != j:
                    off += sum(
                        1 for p in on1
                        if quad_norm(tuple((a - b) % cfg.q
                                           for a, b in zip(p, s2.center)),
                                     cfg.q) == s2.r)
        assert st.energy == st.incidences + off
        assert st.off_diagonal == off
        assert st.incidences ** 2 <= len(cfg.points) * st.energy
        checked += 1
    report(2, f"exact energy identity and Cauchy-Schwarz on {checked} "
              "generated configs")


def test_criterion_03_low_layer_bound(grid_configs):
    configs = [g.config for g in grid_configs]
    rng = random.Random(103)
    while len(configs) < 108:
        q = rng.choice(GRID_Q)
        spec = GeneratorSpec("uniform-random", q, 3, rng.randrange(5, 2 * q),
                             rng.randrange(4, 10), rng.randrange(10 ** 6))
        configs.append(generate(spec).config)
    checked = 0
    for cfg in configs:
        ns = len(cfg.spheres)
        for j0 in range(9):
            rep = low_layer_mass(cfg, j0)
            assert rep.mass <= (1 << j0) * ns ** 2
            assert rep.bound == (1 << j0) * ns ** 2
        checked += 1
    report(3, f"low-layer mass bound for j0 in 0..8 on {checked} configs")


def test_criterion_04_dichotomy_branches():
    rng = random.Random(104)
    algebraic = 0
    for _ in range(1000):
        q = rng.choice(GRID_Q)
        D = rng.choice((1, 2, 3))
        dim = comb(3 + D - 1, 2)
        n = rng.randrange(1, dim)
        dirs = set()
        while len(dirs) < n:
            v = tuple(rng.randrange(q) for _ in range(3))
            if any(v):
                dirs.add(v)
        res = dichotomy(dirs, D, q)
        assert res.branch == "algebraic"
        assert res.poly is not None and res.poly.terms
        for v in dirs:
            assert res.poly.evaluate(v, q) == 0
        algebraic += 1
    large = 0
    for q in GRID_Q:
        for D in (1, 2):
            dim = comb(3 + D - 1, 2)
            # all projective directions: no nonzero form of degree <= 2
            # vanishes on the whole plane for q > 2
            dirs = [v for v in itertools.product(range(q), repeat=3)
                    if any(v)]
            res = dichotomy(dirs, D, q)
            assert res.branch == "large"
            assert res.n_directions >= dim
            large += 1
    report(4, f"{algebraic} algebraic witnesses re-verified, "
              f"{large} constructed large branches")


def _grid_multisets(grid_configs):
    out = []
    for g in grid_configs:
        pp = persistent_pairs(g.config)
        ms = build_multiset(pp)
        if len(ms.support):
            out.append((g.config, ms))
    return out


def _hyperplanes(rows):
    return [Hyperplane(tuple(r[:-1]), r[-1]) for r in rows.tolist()]


def test_criterion_06_pigeonhole_bounds(grid_configs):
    families = _grid_multisets(grid_configs)
    assert families
    classes_checked = 0
    for cfg, ms in families:
        # the scalar oracle: offsets and multiplicities by normal
        classes = {}
        for h, m in zip(_hyperplanes(ms.support), ms.counts.tolist()):
            classes.setdefault(h.normal, {})[h.offset] = m
        for offsets in classes.values():
            assert max(offsets.values()) * cfg.q >= sum(offsets.values())
            classes_checked += 1
        mass = {n: sum(offsets.values()) for n, offsets in classes.items()}
        direction = min(n for n, m in mass.items() if m == max(mass.values()))
        offsets = classes[direction]
        offset = min(b for b, m in offsets.items()
                     if m == max(offsets.values()))
        k = popular_hyperplane(ms, cfg.q)
        assert _hyperplanes(ms.support[k:k + 1]) == [
            Hyperplane(direction, offset)]
        kept = mass_retention(ms)
        assert 2 * kept.retained.mass >= ms.mass
        assert len(ms.support) * ms.max_multiplicity >= ms.mass
    report(6, f"popular-hyperplane and retention pigeonholes on "
              f"{len(families)} grid multisets, {classes_checked} "
              "parallel classes")


def test_criterion_07_fiber_bound(grid_configs):
    families = _grid_multisets(grid_configs)
    assert families
    checked = 0
    for cfg, ms in families:
        field = PrimeField(cfg.q)
        prof = flat_profile(ms.support, field)
        B = prof.max_multiplicity
        support = _hyperplanes(ms.support)
        for h in support:
            partners = [h2 for h2 in support
                        if h2 != h and h2.normal != h.normal]
            fibers = {flat_from_pair(h, h2, field) for h2 in partners}
            assert len(partners) <= len(fibers) * max(B - 1, 0)
            checked += 1
    report(7, f"fiber bound with B = observed max multiplicity on "
              f"{checked} hyperplanes across {len(families)} families")


def test_criterion_08_planted_recovery():
    slow = 0.0
    for q in (5, 7, 11):
        for seed in range(50):
            spec = GeneratorSpec("reflected-pairs", q, 3, 2 * q, 8,
                                 seed=seed, noise=0.0)
            g = generate(spec)
            start = time.perf_counter()
            cert = extract_certificate(g.config)
            elapsed = time.perf_counter() - start
            slow = max(slow, elapsed)
            assert elapsed < 5.0
            assert cert.hyperplane == g.planted
            assert cert.points_idx == tuple(range(len(g.config.points)))
    hits = 0
    total = 0
    for q in (5, 7, 11):
        for seed in range(50):
            spec = GeneratorSpec("reflected-pairs", q, 3, 2 * q, 8,
                                 seed=seed, noise=0.1)
            g = generate(spec)
            cert = extract_certificate(g.config)
            total += 1
            if cert.hyperplane == g.planted:
                hits += 1
    assert hits >= 0.9 * total
    report(8, f"noise 0: 150/150 recoveries (worst case {slow:.2f}s); "
              f"noise 0.1: {hits}/{total}")


def test_criterion_09_mutation_suite():
    spec = GeneratorSpec("reflected-pairs", 7, 3, 14, 8, seed=2, noise=0.0)
    g = generate(spec)
    cfg = g.config
    base = extract_certificate(cfg).to_dict()
    assert verify_certificate(cfg, base) == []
    assert base["points"] == list(range(len(cfg.points)))
    q = cfg.q
    rejected = 0

    def mutated(**patch):
        doc = {k: (v.copy() if isinstance(v, (dict, list)) else v)
               for k, v in base.items()}
        doc.update(patch)
        return doc

    # every single point-index tampering
    for pos in range(len(base["points"])):
        for delta in (1, -1, len(cfg.points)):
            pts = list(base["points"])
            pts[pos] += delta
            assert verify_certificate(cfg, mutated(points=pts))
            rejected += 1

    def misses(hp):
        h = Hyperplane(tuple(hp["normal"]), hp["offset"])
        return sum(not hyperplane_contains(h, p, q) for p in cfg.points)

    # hyperplane offset, every nonzero shift
    for delta in range(1, q):
        hp = dict(base["hyperplane"])
        hp["offset"] = (hp["offset"] + delta) % q
        assert f"hyperplane misses {misses(hp)} structured point(s)" in \
            verify_certificate(cfg, mutated(hyperplane=hp))
        rejected += 1
    # hyperplane normal entries
    for pos in range(3):
        for delta in range(1, q):
            hp = dict(base["hyperplane"])
            normal = list(hp["normal"])
            normal[pos] = (normal[pos] + delta) % q
            hp["normal"] = normal
            if hp["normal"] == base["hyperplane"]["normal"]:
                continue
            assert misses(hp) > 0
            assert f"hyperplane misses {misses(hp)} structured point(s)" \
                in verify_certificate(cfg, mutated(hyperplane=hp))
            rejected += 1
    report(9, f"{rejected} single-field mutations, 0 false accepts")


def test_criterion_10_pinned_and_dot_exactness():
    rng = random.Random(110)
    systems = 0
    for q in GRID_Q:
        sp = make_space(q, 3)
        for trial in range(6):
            pts = list({tuple(rng.randrange(q) for _ in range(3))
                        for _ in range(rng.randrange(3, 2 * q))})
            pins = list({tuple(rng.randrange(q) for _ in range(3))
                         for _ in range(rng.randrange(1, 4))})
            sys_ = pinned_sphere_system(pins, pts, sp)
            cfg = sys_.config
            total = incidence_count(cfg)
            assert total == len(sys_.pins) * len(cfg.points)
            baseline = Fraction(len(cfg.points) * len(cfg.spheres), q)
            assert sys_.surplus == Fraction(total) - baseline
            closed = Fraction(len(cfg.points), q) * sum(
                q - len(v) for v in sys_.per_pin.values())
            assert sys_.surplus == closed
            systems += 1
            pins = [p for p in pins if any(c % q for c in p)]
            if not pins:
                continue
            dot = dot_product_system(pins, pts, sp)
            assert dot.incidences == len(dot.pins) * len(pts)
            n_labels = sum(dot.multiplicity.values())
            assert dot.surplus == (Fraction(dot.incidences)
                                   - Fraction(len(pts) * n_labels, q))
            systems += 1
    report(10, f"incidence and surplus identities exact on {systems} "
               "pinned/dot systems")


def test_criterion_12_empirical_k_guard():
    rng = random.Random(112)
    max_k = 0.0
    configs = 0
    for _ in range(1000):
        q = rng.choice(GRID_Q)
        spec = GeneratorSpec("uniform-random", q, 3,
                             rng.randrange(5, 3 * q),
                             rng.randrange(4, 12),
                             rng.randrange(10 ** 6))
        g = generate(spec)
        k = float(energies(g.config).K)
        max_k = max(max_k, k)
        configs += 1
    assert max_k < 3.0
    report(12, f"max K = {max_k:.4f} over {configs} uniform configs "
               "(guard constant 3)")
