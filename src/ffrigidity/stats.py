"""Incidence counts, energies and the near-extremality parameter.

A configuration is a deduplicated point set together with a family of
distinct spheres in a common ambient space.  The near-extremality
parameter K measures how far the incidence count exceeds the random
baseline |P||S|/q, in units of q**((d-1)/2) * sqrt(|P||S|), and is kept
exact so that downstream thresholds never suffer float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import SqrtRational
from .geometry import AmbientSpace, Sphere, sphere_incidence


class EmptyConfig(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    space: AmbientSpace
    points: tuple
    spheres: tuple

    @property
    def q(self) -> int:
        return self.space.q

    @property
    def d(self) -> int:
        return self.space.d


def make_config(space: AmbientSpace, points, spheres) -> Config:
    """Validate, canonicalize and deduplicate a configuration.

    Order of first occurrence is preserved so that a config built from
    the same input is always identical.
    """
    q, d = space.q, space.d
    seen = set()
    pts = []
    for p in points:
        if len(p) != d:
            raise ValueError(f"point {p!r} does not have dimension {d}")
        t = tuple(c % q for c in p)
        if t not in seen:
            seen.add(t)
            pts.append(t)
    seen = set()
    sph = []
    for s in spheres:
        center = tuple(c % q for c in s.center) if isinstance(s, Sphere) else tuple(c % q for c in s[0])
        r = (s.r if isinstance(s, Sphere) else s[1]) % q
        if len(center) != d:
            raise ValueError(f"sphere center {center!r} does not have dimension {d}")
        t = Sphere(center, r)
        if t not in seen:
            seen.add(t)
            sph.append(t)
    return Config(space=space, points=tuple(pts), spheres=tuple(sph))


def membership_matrix(config: Config) -> np.ndarray:
    """Boolean |P| x |S| matrix of point-on-sphere incidences."""
    return sphere_incidence(config.points, config.spheres, config.q)


@dataclass(frozen=True)
class IncidenceStats:
    incidences: int
    point_degrees: tuple
    sphere_degrees: tuple
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


def energies(config: Config) -> IncidenceStats:
    """All first and second moment statistics of the incidence relation.

    The off-diagonal energy is computed from the sphere-pair Gram matrix
    rather than from point degrees, so the exact identity
    energy = incidences + off_diagonal is a real cross-check.
    """
    mat = membership_matrix(config)
    point_deg = mat.sum(axis=1).astype(np.int64)
    sphere_deg = mat.sum(axis=0).astype(np.int64)
    incidences = int(point_deg.sum())
    energy = int((point_deg * point_deg).sum())
    dual_energy = int((sphere_deg * sphere_deg).sum())
    gram = mat.T.astype(np.int64) @ mat.astype(np.int64)
    off_diagonal = int(gram.sum() - np.trace(gram))
    if config.points and config.spheres:
        K = near_extremality_from_counts(incidences, len(config.points),
                                         len(config.spheres), config.q, config.d)
    else:
        K = SqrtRational.zero()
    return IncidenceStats(
        incidences=incidences,
        point_degrees=tuple(int(x) for x in point_deg),
        sphere_degrees=tuple(int(x) for x in sphere_deg),
        energy=energy,
        dual_energy=dual_energy,
        off_diagonal=off_diagonal,
        K=K,
    )


def surplus(config: Config) -> Fraction:
    """I - |P||S|/q as an exact rational (may be negative)."""
    return Fraction(incidence_count(config)) - Fraction(
        len(config.points) * len(config.spheres), config.q)


@dataclass(frozen=True)
class EnergyBoundReport:
    vacuous: bool
    point_side_holds: bool
    dual_side_holds: bool
    incidences: int
    energy: int
    dual_energy: int
    n_points: int
    n_spheres: int


def energy_lower_bound_check(config: Config) -> EnergyBoundReport:
    """Cauchy-Schwarz floor on both energies: I^2 <= |P| * energy and
    I^2 <= |S| * dual_energy.  Reported as vacuous when K < 1."""
    stats = energies(config)
    vacuous = stats.K < 1
    isq = stats.incidences * stats.incidences
    return EnergyBoundReport(
        vacuous=vacuous,
        point_side_holds=isq <= len(config.points) * stats.energy,
        dual_side_holds=isq <= len(config.spheres) * stats.dual_energy,
        incidences=stats.incidences,
        energy=stats.energy,
        dual_energy=stats.dual_energy,
        n_points=len(config.points),
        n_spheres=len(config.spheres),
    )
