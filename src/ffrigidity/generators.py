"""Seeded configuration generators.

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

import math
import random
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (AmbientSpace, Hyperplane, SpaceTooLarge, Sphere,
                       all_projective_directions, canonical_hyperplane,
                       lift, make_space, point_grid)
from .stats import Config, make_config

PRNG_NAME = "python-random-mt19937"

KINDS = ("uniform-random", "hyperplane-planted", "quadric-planted",
         "reflected-pairs")

# The largest d any kind reaches.  Every kind but reflected-pairs samples
# q^(d+1) sphere codes below 2**63, and the two planted-hyperplane kinds
# draw their normal from a direction table of d * (q^d - 1)/(q - 1) <=
# 2**24 entries (at q = 3 up to d = 13); with q >= 3 neither holds past
# MAX_D, so a larger d is rejected before any power of q is formed.
MAX_D = int(math.log(sys.maxsize, 3)) - 1


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


def _digits(codes, q: int, width: int) -> np.ndarray:
    """Big-endian base-q digits of codes in range(q**width), as an int64
    (len, width) array: the array form of repeated divmod.  A range that
    `rng.sample` can draw from has a length below 2**63, so its codes
    and q**(width - 1) fit int64."""
    powers = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.asarray(codes, dtype=np.int64).reshape(-1, 1) // powers % q


def _validate(spec: GeneratorSpec, space: AmbientSpace):
    if spec.kind not in KINDS:
        raise BadGeneratorSpec(f"kind: unknown generator kind {spec.kind!r}")
    if spec.d > MAX_D:
        raise BadGeneratorSpec(f"d: {spec.d} exceeds {MAX_D}, past the reach "
                               "of every generator kind")
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
    if spec.kind != "reflected-pairs":
        if space.size * space.q > sys.maxsize:
            raise BadGeneratorSpec(f"q: q^{space.d + 1} = "
                                   f"{space.size * space.q} sphere codes "
                                   "exceed the sampling range")
    elif spec.n_spheres % 2:
        raise BadGeneratorSpec("n_spheres: reflected-pairs needs an even count")
    elif spec.n_spheres // 2 > (space.q - 1) // 2 * space.q:
        raise BadGeneratorSpec("n_spheres: too many mirror pairs for this q")


def _split_noise(n_points: int, noise: float) -> tuple:
    off = int(n_points * noise + 0.5)
    return n_points - off, off


def _plane_points(h: Hyperplane, q: int, d: int, codes, delta=0):
    """Points whose free coordinates are the base-q digits of `codes`
    and whose pivot coordinate solves <n, x> = offset, then moves by
    `delta`: on the hyperplane where delta is 0, off it where delta is
    nonzero.  An int64 (len(codes), d) array."""
    piv = next(i for i, c in enumerate(h.normal) if c != 0)
    x = np.zeros((len(codes), d), dtype=np.int64)
    x[:, [i for i in range(d) if i != piv]] = _digits(codes, q, d - 1)
    rest = x @ np.array(h.normal, dtype=np.int64) % q
    x[:, piv] = ((h.offset - rest) * pow(h.normal[piv], q - 2, q) + delta) % q
    return x


@lru_cache(maxsize=32)
def _non_isotropic_directions(q: int, d: int) -> np.ndarray:
    """The rows of `all_projective_directions(q, d)` of nonzero norm, in
    its order, as a read-only array cached like that table."""
    dirs = all_projective_directions(q, d)
    dirs = dirs[lift(dirs, q)[:, d] != 0]
    dirs.setflags(write=False)
    return dirs


def _random_hyperplane(q: int, d: int, rng: random.Random,
                       non_isotropic: bool) -> Hyperplane:
    dirs = (_non_isotropic_directions(q, d) if non_isotropic
            else all_projective_directions(q, d))
    normal = dirs[rng.choice(range(len(dirs)))].tolist()
    return canonical_hyperplane(normal, rng.randrange(q), q)


def generate(spec: GeneratorSpec) -> GeneratedConfig:
    """Build the configuration a spec describes, deterministically.

    An enumeration past `geometry.ENUMERATION_CAP` (the direction table
    or the point grid) raises BadGeneratorSpec naming q.
    """
    space = make_space(spec.q, spec.d)
    _validate(spec, space)
    try:
        return _generate(spec, space)
    except SpaceTooLarge as exc:
        raise BadGeneratorSpec(f"q: {exc}") from None


def _generate(spec: GeneratorSpec, space: AmbientSpace) -> GeneratedConfig:
    q, d, kind = spec.q, spec.d, spec.kind
    rng = random.Random(spec.seed)
    n_on, n_off = _split_noise(spec.n_points, spec.noise)
    planted = quadric_r = None
    if kind == "uniform-random":
        pts = _digits(rng.sample(range(q ** d), spec.n_points), q, d)
    elif kind == "quadric-planted":
        quadric_r = rng.randrange(1, q)
        grid = point_grid(q, d)
        on = lift(grid, q)[:, d] == quadric_r
        quadric, complement = grid[on], grid[~on]
        if n_on > len(quadric):
            raise BadGeneratorSpec("n_points: more on-structure points than "
                                   "the quadric holds")
        on_pts = quadric[rng.sample(range(len(quadric)), n_on)]
        if n_off > len(complement):
            raise BadGeneratorSpec("n_points: more off-structure points than "
                                   "the complement holds")
        pts = np.concatenate(
            [on_pts, complement[rng.sample(range(len(complement)), n_off)]])
    else:
        planted = _random_hyperplane(q, d, rng,
                                     non_isotropic=kind == "reflected-pairs")
        total = q ** (d - 1)
        if n_on > total:
            raise BadGeneratorSpec("n_points: more on-structure points than "
                                   "the hyperplane holds")
        on = np.array(rng.sample(range(total), n_on), dtype=np.int64)
        if n_off > (q - 1) * total:
            raise BadGeneratorSpec("n_points: more off-structure points than "
                                   "the complement holds")
        # an off-plane code in range((q - 1) * total) carries the free
        # coordinates and a nonzero shift 1 + code % (q - 1)
        off = np.array(rng.sample(range((q - 1) * total), n_off),
                       dtype=np.int64)
        pts = _plane_points(
            planted, q, d, np.concatenate([on, off // (q - 1)]),
            np.concatenate([np.zeros_like(on), 1 + off % (q - 1)]))

    if kind == "reflected-pairs":
        half = (q - 1) // 2
        anchor = _plane_points(planted, q, d,
                               rng.sample(range(q ** (d - 1)), 1))[0]
        codes = np.array(rng.sample(range(half * q), spec.n_spheres // 2),
                         dtype=np.int64)
        # pair k: radius codes[k] // half, centers anchor +/- t_k * normal
        # with t_k = 1 + codes[k] % half, the upper center first
        shift = np.outer(1 + codes % half, planted.normal)
        centers = np.stack([anchor + shift, anchor - shift], axis=1) % q
        rows = np.column_stack([centers.reshape(-1, d),
                                np.repeat(codes // half, 2)])
    else:
        rows = _digits(rng.sample(range(q ** (d + 1)), spec.n_spheres),
                       q, d + 1)
    # a sphere row is its center, then its form value r
    sph = [Sphere(tuple(row[:d]), row[d]) for row in rows.tolist()]
    return GeneratedConfig(make_config(space, pts.tolist(), sph), spec,
                           planted=planted, quadric_r=quadric_r)
