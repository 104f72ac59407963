"""Incidence counts, energies and the near-extremality parameter.

A configuration is a deduplicated point set together with a family of
distinct spheres in a common ambient space.  The near-extremality
parameter K measures how far the incidence count exceeds the random
baseline |P||S|/q, in units of q**((d-1)/2) * sqrt(|P||S|).  It is
kept as the exact square K**2, a Fraction, so that downstream thresholds
never suffer float rounding; `ceil_sqrt` takes their integer ceilings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from math import isqrt
from operator import mod

import numpy as np

from .geometry import (AmbientSpace, Sphere, incidence_counts, incidence_gram,
                       lift, sphere_incidence)


@dataclass(frozen=True)
class Config:
    """`point_lift`, the (|P|, d+2) `geometry.lift` of the points, its first
    d columns `point_array` and `sphere_array`, the (|S|, d+1) sphere rows
    (center, r), are read-only int64, derived from the tuples, not compared."""
    space: AmbientSpace
    points: tuple
    spheres: tuple
    point_array: np.ndarray = field(compare=False, hash=False, repr=False)
    point_lift: np.ndarray = field(compare=False, hash=False, repr=False)
    sphere_array: np.ndarray = field(compare=False, hash=False, repr=False)

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
    lifted = lift(np.fromiter(chain.from_iterable(pts), dtype=np.int64,
                              count=len(pts) * d).reshape(len(pts), d), q)
    lifted.setflags(write=False)
    # a Sphere is a (center, r) tuple, so any such pair reads the same way
    sph = tuple(dict.fromkeys(Sphere(tuple(c % q for c in s[0]), s[1] % q)
                              for s in spheres))
    bad = next((s.center for s in sph if len(s.center) != d), None)
    if bad is not None:
        raise ValueError(f"sphere center {bad!r} does not have dimension {d}")
    rows = np.array([(*s.center, s.r) for s in sph],
                    dtype=np.int64).reshape(len(sph), d + 1)
    rows.setflags(write=False)
    return Config(space=space, points=pts, spheres=sph, point_lift=lifted,
                  point_array=lifted[:, :d], sphere_array=rows)


def membership_matrix(config: Config) -> np.ndarray:
    """Boolean |P| x |S| matrix of point-on-sphere incidences."""
    return sphere_incidence(config.point_lift, config.sphere_array, config.q)


@dataclass(frozen=True)
class IncidenceStats:
    """`K2` is the exact square of the near-extremality K and `K` its
    float value, the one reports print.  `gram` is the |S| x |S| int64
    sphere-pair overlap matrix the energies are read from; derived from
    the config, it is not compared."""
    incidences: int
    energy: int
    dual_energy: int
    off_diagonal: int
    K2: Fraction
    K: float
    gram: np.ndarray = field(compare=False, hash=False, repr=False)


def ceil_sqrt(x: Fraction) -> int:
    """The least integer n >= 0 with n * n >= x, exactly; 0 for x <= 0."""
    if x <= 0:
        return 0
    # n * n >= p / s exactly when n * n * s >= p, and isqrt(p // s) is at
    # most one short of the least such n
    p, s = x.numerator, x.denominator
    n = isqrt(p // s)
    return n if n * n * s >= p else n + 1


def near_extremality_from_counts(incidences: int, n_points: int,
                                 n_spheres: int, q: int,
                                 d: int) -> tuple[Fraction, float]:
    """(K**2, K) for K = (I - |P||S|/q) / (q**((d-1)/2) sqrt(|P||S|)),
    clamped at 0, and (0, 0.0) when either side is empty.

    The whole denominator is folded into a single radicand, so the same
    exact formula covers odd and even d.  The float K is
    float(surplus / radicand) * float(radicand) ** 0.5, the value the
    reports print; taken from K**2 instead, its last bit can differ.
    """
    surplus = Fraction(incidences) - Fraction(n_points * n_spheres, q)
    if surplus <= 0 or not n_points or not n_spheres:
        return Fraction(0), 0.0
    radicand = q ** (d - 1) * n_points * n_spheres
    return (surplus * surplus / radicand,
            float(surplus / radicand) * float(radicand) ** 0.5)


def energies(config: Config) -> IncidenceStats:
    """All first and second moment statistics of the incidence relation.

    The off-diagonal energy is computed from the sphere-pair Gram matrix
    rather than from point degrees, so the exact identity
    energy = incidences + off_diagonal, which is asserted, is a real
    cross-check.  The Gram and the point degrees (its row counts, by
    `incidence_counts`) read the boolean membership matrix, and the
    sphere degrees are the Gram's diagonal.  The Gram is kept for
    `strata.stratify`.
    """
    inc = membership_matrix(config)
    gram = incidence_gram(inc)
    point_deg = incidence_counts(inc, 1)
    sphere_deg = np.diagonal(gram)
    incidences = int(point_deg.sum())
    energy = int((point_deg * point_deg).sum())
    dual_energy = int((sphere_deg * sphere_deg).sum())
    off_diagonal = int(gram.sum() - np.trace(gram))
    assert energy == incidences + off_diagonal, "energy identity violated"
    K2, K = near_extremality_from_counts(
        incidences, len(config.points), len(config.spheres), config.q,
        config.d)
    return IncidenceStats(
        incidences=incidences,
        energy=energy,
        dual_energy=dual_energy,
        off_diagonal=off_diagonal,
        K2=K2,
        K=K,
        gram=gram,
    )
