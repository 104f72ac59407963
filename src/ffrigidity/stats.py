"""Incidence counts, energies and the near-extremality parameter.

A configuration is a deduplicated point set together with a family of
distinct spheres in a common ambient space.  The near-extremality
parameter K measures how far the incidence count exceeds the random
baseline |P||S|/q, in units of q**((d-1)/2) * sqrt(|P||S|), and is kept
exact so that downstream thresholds never suffer float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from operator import mod

import numpy as np

from .exact import SqrtRational
from .geometry import AmbientSpace, Sphere, incidence_gram, sphere_incidence


class EmptyConfig(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    """`point_array` is `points` as a read-only int64 (|P|, d) array for
    the counting kernels; derived from `points`, it is not compared."""
    space: AmbientSpace
    points: tuple
    spheres: tuple
    point_array: np.ndarray = field(compare=False, hash=False, repr=False)

    @property
    def q(self) -> int:
        return self.space.field.q

    @property
    def d(self) -> int:
        return self.space.d


def make_config(space: AmbientSpace, points, spheres) -> Config:
    """Validate, canonicalize and deduplicate a configuration.

    Order of first occurrence is preserved so that a config built from
    the same input is always identical.
    """
    q, d = space.q, space.d
    points = list(points)
    if set(map(len, points)) - {d}:
        bad = tuple([c % q for c in next(p for p in points if len(p) != d)])
        raise ValueError(f"point {bad!r} does not have dimension {d}")
    coords = map(mod, chain.from_iterable(points), repeat(q))
    pts = tuple(dict.fromkeys(zip(*[coords] * d)))
    arr = np.fromiter(chain.from_iterable(pts), dtype=np.int64,
                      count=len(pts) * d).reshape(len(pts), d)
    arr.setflags(write=False)
    # a Sphere is a (center, r) tuple, so any such pair reads the same way
    sph = tuple(dict.fromkeys(Sphere(tuple(c % q for c in s[0]), s[1] % q)
                              for s in spheres))
    bad = next((s.center for s in sph if len(s.center) != d), None)
    if bad is not None:
        raise ValueError(f"sphere center {bad!r} does not have dimension {d}")
    return Config(space=space, points=pts, spheres=sph, point_array=arr)


def membership_matrix(config: Config) -> np.ndarray:
    """Boolean |P| x |S| matrix of point-on-sphere incidences."""
    return sphere_incidence(config.point_array, config.spheres, config.q)


@dataclass(frozen=True)
class IncidenceStats:
    incidences: int
    energy: int
    dual_energy: int
    off_diagonal: int
    K: SqrtRational


def near_extremality_from_counts(incidences: int, n_points: int,
                                 n_spheres: int, q: int, d: int) -> SqrtRational:
    """K = (I - |P||S|/q) / (q**((d-1)/2) sqrt(|P||S|)), clamped at 0.

    The whole denominator is folded into a single radicand, so the same
    exact formula covers odd and even d.
    """
    if n_points < 1 or n_spheres < 1:
        raise EmptyConfig("near-extremality needs at least one point and one sphere")
    surplus = Fraction(incidences) - Fraction(n_points * n_spheres, q)
    if surplus <= 0:
        return SqrtRational.zero()
    radicand = q ** (d - 1) * n_points * n_spheres
    return SqrtRational(surplus / radicand, radicand)


def near_extremality_K(config: Config) -> SqrtRational:
    if not config.points or not config.spheres:
        raise EmptyConfig("configuration has an empty side")
    stats = energies(config)
    return stats.K


def incidence_count(config: Config) -> int:
    return int(membership_matrix(config).sum())


def energies(config: Config, membership=None) -> IncidenceStats:
    """All first and second moment statistics of the incidence relation.

    The off-diagonal energy is computed from the sphere-pair Gram matrix
    rather than from point degrees, so the exact identity
    energy = incidences + off_diagonal, which is asserted, is a real
    cross-check.  A caller that needs `membership_matrix(config)`
    itself may pass it in.
    """
    mat = membership_matrix(config) if membership is None else membership
    point_deg = mat.sum(axis=1).astype(np.int64)
    sphere_deg = mat.sum(axis=0).astype(np.int64)
    incidences = int(point_deg.sum())
    energy = int((point_deg * point_deg).sum())
    dual_energy = int((sphere_deg * sphere_deg).sum())
    gram = incidence_gram(mat)
    off_diagonal = int(gram.sum() - np.trace(gram))
    assert energy == incidences + off_diagonal, "energy identity violated"
    if config.points and config.spheres:
        K = near_extremality_from_counts(incidences, len(config.points),
                                         len(config.spheres), config.q, config.d)
    else:
        K = SqrtRational.zero()
    return IncidenceStats(
        incidences=incidences,
        energy=energy,
        dual_energy=dual_energy,
        off_diagonal=off_diagonal,
        K=K,
    )
