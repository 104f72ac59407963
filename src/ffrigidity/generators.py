"""Seeded configuration generators and the application constructions.

All generators draw from Python's Mersenne Twister seeded explicitly,
so a (kind, q, d, sizes, seed, noise) tuple always reproduces the same
configuration byte for byte.

The reflected-pairs kind is the planted model for certificate
recovery: points sit on a hyperplane H* with a non-isotropic normal,
and spheres come in mirror pairs whose centers all lie on one common
normal line through H*.  Every mirror pair then has bisector exactly
H*, while every cross pair has a bisector parallel to H* and disjoint
from it, so nothing competes with the planted hyperplane.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import SqrtRational
from .geometry import (AmbientSpace, Hyperplane, Sphere, all_projective_directions,
                       canonical_hyperplane, hyperplane_incidence, make_space,
                       point_grid, quad_norm, sphere_points)
from .stats import (Config, incidence_count, make_config,
                    near_extremality_from_counts)

PRNG_NAME = "python-random-mt19937"

KINDS = ("uniform-random", "hyperplane-planted", "quadric-planted",
         "reflected-pairs")


class BadGeneratorSpec(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    q: int
    d: int
    n_points: int
    n_spheres: int
    seed: int
    noise: float = 0.0


@dataclass(frozen=True)
class GeneratedConfig:
    config: Config
    spec: GeneratorSpec
    planted: Hyperplane | None = None
    quadric_r: int | None = None


def _decode(index: int, q: int, d: int) -> tuple:
    out = []
    for _ in range(d):
        out.append(index % q)
        index //= q
    return tuple(reversed(out))


def _validate(spec: GeneratorSpec, space: AmbientSpace):
    if spec.kind not in KINDS:
        raise BadGeneratorSpec(f"kind: unknown generator kind {spec.kind!r}")
    if spec.n_points < 1:
        raise BadGeneratorSpec("n_points: need at least one point")
    if spec.n_spheres < 1:
        raise BadGeneratorSpec("n_spheres: need at least one sphere")
    if not 0.0 <= spec.noise <= 1.0:
        raise BadGeneratorSpec("noise: must lie in [0, 1]")
    if spec.n_points > space.size:
        raise BadGeneratorSpec("n_points: exceeds the ambient space")
    if spec.n_spheres > space.size * space.q:
        raise BadGeneratorSpec("n_spheres: exceeds the sphere family space")


def _split_noise(n_points: int, noise: float) -> tuple:
    off = int(n_points * noise + 0.5)
    return n_points - off, off


def _points_on_hyperplane(h: Hyperplane, q: int, d: int, count: int,
                          rng: random.Random):
    """Sample distinct points of the hyperplane via its free coordinates."""
    piv = next(i for i, c in enumerate(h.normal) if c != 0)
    free_positions = [i for i in range(d) if i != piv]
    total = q ** (d - 1)
    if count > total:
        raise BadGeneratorSpec("n_points: more on-structure points than the "
                               "hyperplane holds")
    picks = rng.sample(range(total), count)
    inv = pow(h.normal[piv], q - 2, q)
    out = []
    for code in picks:
        frees = _decode(code, q, d - 1)
        x = [0] * d
        for pos, val in zip(free_positions, frees):
            x[pos] = val
        rest = sum(h.normal[i] * x[i] for i in free_positions) % q
        x[piv] = (h.offset - rest) * inv % q
        out.append(tuple(x))
    return out


def _points_off_hyperplane(h: Hyperplane, q: int, d: int, count: int,
                           rng: random.Random):
    """Sample distinct points with <n, x> != offset, by shifting on-plane
    solutions along the pivot coordinate by a nonzero amount."""
    piv = next(i for i, c in enumerate(h.normal) if c != 0)
    free_positions = [i for i in range(d) if i != piv]
    total = (q - 1) * q ** (d - 1)
    if count > total:
        raise BadGeneratorSpec("n_points: more off-structure points than the "
                               "complement holds")
    picks = rng.sample(range(total), count)
    inv = pow(h.normal[piv], q - 2, q)
    out = []
    for code in picks:
        delta = 1 + code % (q - 1)
        frees = _decode(code // (q - 1), q, d - 1)
        x = [0] * d
        for pos, val in zip(free_positions, frees):
            x[pos] = val
        rest = sum(h.normal[i] * x[i] for i in free_positions) % q
        x[piv] = ((h.offset - rest) * inv + delta) % q
        out.append(tuple(x))
    return out


def _random_hyperplane(q: int, d: int, rng: random.Random,
                       non_isotropic: bool) -> Hyperplane:
    dirs = all_projective_directions(q, d)
    if non_isotropic:
        dirs = [v for v in dirs if quad_norm(v, q) != 0]
    normal = rng.choice(dirs)
    return canonical_hyperplane(normal, rng.randrange(q), q)


def generate(spec: GeneratorSpec) -> GeneratedConfig:
    """Build the configuration a spec describes, deterministically."""
    space = make_space(spec.q, spec.d)
    _validate(spec, space)
    q, d = spec.q, spec.d
    rng = random.Random(spec.seed)

    if spec.kind == "uniform-random":
        pts = [_decode(i, q, d) for i in rng.sample(range(q ** d), spec.n_points)]
        sph = [Sphere(_decode(i // q, q, d), i % q)
               for i in rng.sample(range(q ** (d + 1)), spec.n_spheres)]
        return GeneratedConfig(make_config(space, pts, sph), spec)

    if spec.kind == "hyperplane-planted":
        h = _random_hyperplane(q, d, rng, non_isotropic=False)
        n_on, n_off = _split_noise(spec.n_points, spec.noise)
        pts = _points_on_hyperplane(h, q, d, n_on, rng)
        pts += _points_off_hyperplane(h, q, d, n_off, rng)
        sph = [Sphere(_decode(i // q, q, d), i % q)
               for i in rng.sample(range(q ** (d + 1)), spec.n_spheres)]
        return GeneratedConfig(make_config(space, pts, sph), spec, planted=h)

    if spec.kind == "quadric-planted":
        r0 = rng.randrange(1, q)
        quadric = sphere_points(Sphere((0,) * d, r0), space)
        n_on, n_off = _split_noise(spec.n_points, spec.noise)
        if n_on > len(quadric):
            raise BadGeneratorSpec("n_points: more on-structure points than "
                                   "the quadric holds")
        pts = [quadric[i] for i in rng.sample(range(len(quadric)), n_on)]
        off_pool = q ** d - len(quadric)
        if n_off > off_pool:
            raise BadGeneratorSpec("n_points: more off-structure points than "
                                   "the complement holds")
        grid = point_grid(q, d)
        on_set = set(quadric)
        complement = [tuple(int(c) for c in row) for row in grid
                      if tuple(int(c) for c in row) not in on_set]
        pts += [complement[i] for i in rng.sample(range(len(complement)), n_off)]
        sph = [Sphere(_decode(i // q, q, d), i % q)
               for i in rng.sample(range(q ** (d + 1)), spec.n_spheres)]
        return GeneratedConfig(make_config(space, pts, sph), spec, quadric_r=r0)

    # reflected-pairs
    if spec.n_spheres % 2:
        raise BadGeneratorSpec("n_spheres: reflected-pairs needs an even count")
    n_pairs = spec.n_spheres // 2
    max_pairs = (q - 1) // 2 * q
    if n_pairs > max_pairs:
        raise BadGeneratorSpec("n_spheres: too many mirror pairs for this q")
    h = _random_hyperplane(q, d, rng, non_isotropic=True)
    n_on, n_off = _split_noise(spec.n_points, spec.noise)
    pts = _points_on_hyperplane(h, q, d, n_on, rng)
    pts += _points_off_hyperplane(h, q, d, n_off, rng)
    anchor = _points_on_hyperplane(h, q, d, 1, rng)[0]
    sph = []
    for code in rng.sample(range(max_pairs), n_pairs):
        t = 1 + code % ((q - 1) // 2)
        r = code // ((q - 1) // 2)
        up = tuple((a + t * n) % q for a, n in zip(anchor, h.normal))
        down = tuple((a - t * n) % q for a, n in zip(anchor, h.normal))
        sph.append(Sphere(up, r))
        sph.append(Sphere(down, r))
    return GeneratedConfig(make_config(space, pts, sph), spec, planted=h)


def _distinct_residues(vectors, q: int) -> list:
    """Vectors reduced mod q, first occurrences only, in input order."""
    return list(dict.fromkeys(tuple(c % q for c in v) for v in vectors))


def pinned_distance_set(pin, points, q: int):
    """Form values ||x - pin|| over the point set."""
    return sorted({quad_norm(tuple((a - b) % q for a, b in zip(x, pin)), q)
                   for x in points})


@dataclass(frozen=True)
class PinnedSystem:
    pins: tuple
    config: Config
    per_pin: dict
    surplus: Fraction
    K: SqrtRational


def pinned_sphere_system(pins, points, space: AmbientSpace) -> PinnedSystem:
    """Spheres about each pin through every occupied form value.

    Each pin contributes spheres S(pin, t) for t in its distance set, so
    each point of P lies on exactly one sphere per pin and the incidence
    count is exactly (number of pins) * |P|.  The surplus over the
    random baseline then has the closed form (|P|/q) * sum over pins of
    (q - |distance set|), which is asserted.
    """
    q, d = space.q, space.d
    pts = _distinct_residues(points, q)
    pin_list = _distinct_residues(pins, q)
    if not pin_list or not pts:
        raise ValueError("need at least one pin and one point")
    spheres = []
    per_pin = {}
    for pin in pin_list:
        dset = pinned_distance_set(pin, pts, q)
        per_pin[pin] = tuple(dset)
        spheres.extend(Sphere(pin, t) for t in dset)
    config = make_config(space, pts, spheres)
    assert len(config.spheres) == sum(len(v) for v in per_pin.values())
    total = incidence_count(config)
    assert total == len(pin_list) * len(pts)
    n_s = len(config.spheres)
    surplus = Fraction(total) - Fraction(len(pts) * n_s, q)
    closed = Fraction(len(pts), q) * sum(q - len(v) for v in per_pin.values())
    assert surplus == closed
    K = near_extremality_from_counts(total, len(pts), n_s, q, d)
    return PinnedSystem(pins=tuple(pin_list), config=config,
                        per_pin=per_pin, surplus=surplus, K=K)


def pin_cap(q: int, d: int, K, c: Fraction = Fraction(1)) -> int:
    """Suggested pin budget floor(c * K * q**((d-3)/2))."""
    scale = SqrtRational(Fraction(c), q ** (d - 3))
    if isinstance(K, SqrtRational):
        return (K * scale).floor()
    return (SqrtRational(Fraction(K)) * scale).floor()


class ZeroPin(ValueError):
    pass


@dataclass(frozen=True)
class DotProductSystem:
    pins: tuple
    hyperplanes: tuple
    multiplicity: dict
    incidences: int
    surplus: Fraction
    K: SqrtRational
    merged: int


def dot_product_system(pins, qpoints, space: AmbientSpace) -> DotProductSystem:
    """Pin-normal hyperplanes through every occupied dot-product value.

    Every x in Q satisfies <pin, x> = t for exactly one t per pin, so
    the incidence count is (number of pins) * |Q| by construction.
    Distinct (pin, value) labels can name the same geometric hyperplane
    when pins are parallel; the merge count is reported and the labels
    all keep multiplicity one within their own pin.
    """
    q, d = space.q, space.d
    pts = _distinct_residues(qpoints, q)
    pin_list = _distinct_residues(pins, q)
    if not pin_list or not pts:
        raise ValueError("need at least one pin and one point")
    labels = []
    for pin in pin_list:
        if all(c == 0 for c in pin):
            raise ZeroPin("the zero vector does not define hyperplanes")
        values = sorted({sum(a * b for a, b in zip(pin, x)) % q for x in pts})
        labels.extend(canonical_hyperplane(pin, t, q) for t in values)
    mult: dict = {}
    for h in labels:
        mult[h] = mult.get(h, 0) + 1
    support = tuple(sorted(mult))
    incidences = int(hyperplane_incidence(pts, labels, q).sum())
    per_pin_incidences = len(pin_list) * len(pts)
    assert incidences == per_pin_incidences
    n_h = len(labels)
    surplus = Fraction(per_pin_incidences) - Fraction(len(pts) * n_h, q)
    K = near_extremality_from_counts(per_pin_incidences, len(pts), n_h, q, d)
    return DotProductSystem(
        pins=tuple(pin_list),
        hyperplanes=support,
        multiplicity=mult,
        incidences=per_pin_incidences,
        surplus=surplus,
        K=K,
        merged=len(labels) - len(support),
    )

