"""Dyadic stratification, persistent pairs and degree regularization.

Sphere pairs are stratified by their shared point count, which
reconciles exactly with the off-diagonal energy; persistence instead
reads the point richness of each pair's radical hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import isqrt

import numpy as np

from .geometry import (hyperplane_incidence, incidence_counts, pair_indices,
                       radical_hyperplane, radical_hyperplanes)
from .multiset import HyperplaneMultiset
from .stats import Config, ceil_sqrt, near_extremality_K


class RegularizationDegenerate(ValueError):
    pass


def dyadic_class(v: int) -> int:
    """The j with 2**j <= v < 2**(j+1); requires v >= 1."""
    if v < 1:
        raise ValueError("dyadic class needs a positive value")
    return v.bit_length() - 1


@dataclass(frozen=True)
class DyadicLayers:
    layers: dict
    zero_pairs: int


def _dyadic_classes(values: np.ndarray) -> np.ndarray:
    """`dyadic_class` of every entry of a non-negative integer array (-1
    for a zero), read off float64 exponents, which are exact below
    2**53."""
    assert not len(values) or values.max() < 1 << 53
    return np.frexp(values)[1] - 1


def stratify(gram: np.ndarray) -> DyadicLayers:
    """Partition ordered distinct sphere pairs by shared point count,
    read off the sphere-pair Gram `energies(config).gram`.

    Pairs sharing no point are tallied separately; the layered pairs
    sum back to the off-diagonal energy exactly.  Each layer lists its
    pairs in (i, j) order.
    """
    i, j = np.nonzero(~np.eye(len(gram), dtype=bool))
    shared = gram[i, j]
    positive = shared > 0
    pairs = list(zip(i[positive].tolist(), j[positive].tolist()))
    classes = _dyadic_classes(shared[positive])
    layers = {c: tuple(pairs[k] for k in np.flatnonzero(classes == c).tolist())
              for c in sorted(set(classes.tolist()))}
    return DyadicLayers(layers=layers,
                        zero_pairs=len(positive) - len(pairs))


def _bisectors(config: Config):
    """The distinct radical hyperplanes of the sphere pairs as (B, d+1)
    int64 rows (normal, offset) in Hyperplane tuple order, their |P| x |B|
    point incidence, and the bisector index of every pair i < j
    (`pair_indices` order; -1 when concentric).  As a guard, the first
    pair is recomputed by the scalar `radical_hyperplane`."""
    spheres, q = config.spheres, config.q
    rows, index = radical_hyperplanes(spheres, q, config.d)
    if len(index):
        h = radical_hyperplane(spheres[0], spheres[1], q)
        assert index[0] < 0 if h is None else (
            index[0] >= 0 and rows[index[0]].tolist() == [*h.normal, h.offset])
    return rows, hyperplane_incidence(config.point_array, rows, q), index


@dataclass(frozen=True, eq=False)
class PersistentPairs:
    """The bisector of every persistent pair, with the bisector arrays
    later stages read instead of recomputing them.

    `pair_bisector[k]` is the bisector index of the k-th sphere pair
    i < j in `pair_indices` order, or -1 when that pair does not
    persist; each persistent pair stands for both of its orders.
    `bisectors` holds the distinct radical hyperplanes of the sphere
    pairs as (B, d+1) int64 rows (normal, offset) in Hyperplane tuple
    order, and `incidence` is the boolean |P| x B matrix of the points
    on them.
    """
    pair_bisector: np.ndarray
    bisectors: np.ndarray = dataclass_field(repr=False)
    incidence: np.ndarray = dataclass_field(repr=False)

    @property
    def pairs(self) -> np.ndarray:
        """The persistent ordered pairs (i, j), both orders of each,
        sorted, as a read-only (n, 2) int64 array built on each read."""
        live = self.pair_bisector >= 0
        ns = (1 + isqrt(1 + 8 * len(live))) // 2
        i, j = pair_indices(ns)
        kept = np.zeros((ns, ns), dtype=bool)
        kept[i[live], j[live]] = True
        pairs = np.argwhere(kept | kept.T)
        pairs.setflags(write=False)
        return pairs


def persistent_pairs(config: Config, K2: Fraction | None = None,
                     c_const=Fraction(1, 4)) -> PersistentPairs:
    """Non-degenerate sphere pairs whose bisector is threshold-rich.

    A pair persists when its bisector carries at least c_const * K *
    q**((d-1)/2) points, with K**2 the exact `near_extremality_K` of
    config unless K2 is supplied.  For c_const > 0 the integer cutoff
    is the ceiling of the square root of c_const**2 * K**2 * q**(d-1),
    and otherwise 0.  With K = 0 the cutoff vanishes and every
    non-degenerate pair persists.
    """
    if K2 is None:
        K2 = near_extremality_K(config)
    c = Fraction(c_const)
    cutoff = (ceil_sqrt(c * c * K2 * config.q ** (config.d - 1))
              if c > 0 else 0)
    bisectors, incidence, index = _bisectors(config)
    # a concentric pair keeps its index -1; it reads the appended entry,
    # so the take stays in range when no pair has a bisector
    richness = np.append(incidence_counts(incidence, 0), -1)
    return PersistentPairs(
        pair_bisector=np.where(richness.take(index) >= cutoff, index, -1),
        bisectors=bisectors, incidence=incidence)


def _heaviest_class(values: np.ndarray):
    """The dyadic class whose positive entries have the largest sum, ties
    to the larger class, and the mask of its entries; (None, None) when
    no entry is positive.  The float64 sums are exact below 2**53."""
    classes = _dyadic_classes(values)
    mass = np.bincount(classes + 1, weights=values)[1:]
    if not mass.any():
        return None, None
    best = len(mass) - 1 - int(np.argmax(mass[::-1]))
    return best, classes == best


@dataclass(frozen=True, eq=False)
class RegularizedConfig:
    """`point_idx`: the positions of the kept input points, increasing."""
    point_idx: np.ndarray
    multiset: HyperplaneMultiset
    richness_scale: int


def regularize(inc: np.ndarray, ms: HyperplaneMultiset) -> RegularizedConfig:
    """One point-degree pass, then one hyperplane-richness pass.

    `inc` is the boolean incidence matrix of the input points on the
    geometric support of the input multiset, one column per support
    hyperplane in support order.  Point degrees are its row sums; the
    dyadic degree bucket with the largest summed degree is kept (ties to
    the larger class), fixing the degree scale M1.  Hyperplane richness
    is then recounted against the surviving points, from the kept rows
    of the same matrix, and bucketed the same way, fixing the richness
    scale L1.
    Retained points have degree in [M1, 2*M1) with respect to the input
    support, and retained hyperplanes hold between L1 and 2*L1 - 1 of
    the retained points.
    """
    assert inc.shape[1] == len(ms.support), "one column per support hyperplane"
    if not inc.size:
        raise RegularizationDegenerate("empty points or empty support")
    jp, kept = _heaviest_class(incidence_counts(inc, 1))
    if jp is None:
        raise RegularizationDegenerate("no point lies on any support hyperplane")
    jh, heavy = _heaviest_class(incidence_counts(inc, 0, kept))
    if jh is None:
        raise RegularizationDegenerate("no support hyperplane is rich in the kept points")
    return RegularizedConfig(
        point_idx=np.flatnonzero(kept),
        multiset=ms.restrict(heavy),
        richness_scale=1 << jh,
    )
