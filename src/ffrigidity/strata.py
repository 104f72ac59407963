"""Dyadic stratification, persistent pairs and degree regularization.

Two different dyadic decompositions coexist here.  Sphere pairs are
stratified by their shared point count (which reconciles exactly with
the off-diagonal energy), while the low-layer mass bound stratifies
pairs by the point richness of their radical hyperplane, the quantity
the bound is actually about.  Mixing the two makes the bound false, so
both partitions are kept explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .exact import SqrtRational, count_cutoff
from .geometry import (hyperplane_incidence, incidence_gram, pair_indices,
                       radical_hyperplane, radical_hyperplanes)
from .multiset import HyperplaneMultiset
from .stats import Config, membership_matrix, near_extremality_K


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


def stratify(config: Config) -> DyadicLayers:
    """Partition ordered distinct sphere pairs by shared point count.

    Pairs sharing no point are tallied separately; the layered pairs
    sum back to the off-diagonal energy exactly.  Each layer lists its
    pairs in (i, j) order.
    """
    gram = incidence_gram(membership_matrix(config))
    i, j = np.nonzero(~np.eye(len(config.spheres), dtype=bool))
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


def _pair_richness(richness: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Bisector richness of every pair i < j, -1 for concentric pairs."""
    out = np.full(len(index), -1, dtype=np.int64)
    live = index >= 0
    out[live] = richness[index[live]]
    return out


def _both_orders(i: np.ndarray, j: np.ndarray, ns: int):
    """Sort the ordered pairs (i, j) and (j, i) of unordered pairs i < j.

    Returns the sorting permutation of the pairs listed (i, j) first,
    then (j, i), and the sorted pairs as two index arrays.
    """
    first = np.concatenate([i, j])
    second = np.concatenate([j, i])
    order = np.argsort(first * ns + second)
    return order, first[order], second[order]


@dataclass(frozen=True)
class LowLayerReport:
    mass: int
    bound: int
    j0: int
    pairs_counted: int


def low_layer_mass(config: Config, j0: int) -> LowLayerReport:
    """Total bisector richness over pairs in richness layers below j0.

    A pair sits in layer j when its radical hyperplane holds between
    2**j and 2**(j+1) - 1 points of P, so each of the at most |S|^2
    ordered pairs below layer j0 contributes less than 2**j0, giving
    mass <= 2**j0 * |S|^2 unconditionally.  The inequality is still
    asserted after direct computation.
    """
    if j0 < 0:
        raise ValueError("j0 must be non-negative")
    _, incidence, index = _bisectors(config)
    rich = _pair_richness(incidence.sum(axis=0), index)
    cutoff = 1 << j0
    low = rich[(rich >= 1) & (rich < cutoff)]
    mass = 2 * int(low.sum())
    bound = cutoff * len(config.spheres) ** 2
    assert mass <= bound
    return LowLayerReport(mass=mass, bound=bound, j0=j0,
                          pairs_counted=2 * len(low))


@dataclass(frozen=True, eq=False)
class PersistentPairs:
    """Persistent ordered pairs, sorted, with the bisector arrays later
    stages read instead of recomputing them.

    `pairs` holds the pairs (i, j) as a read-only (n, 2) int64 array and
    `pairs_bisector[k]` the bisector index of `pairs[k]`.  `bisectors`
    holds the distinct radical hyperplanes of the sphere pairs as
    (B, d+1) int64 rows (normal, offset) in Hyperplane tuple order, and
    `incidence` is the boolean |P| x B matrix of the points on them.
    """
    pairs: np.ndarray
    bisectors: np.ndarray = dataclass_field(repr=False)
    incidence: np.ndarray = dataclass_field(repr=False)
    pairs_bisector: np.ndarray = dataclass_field(repr=False)


def richness_threshold(K: SqrtRational, q: int, d: int,
                       c_const=Fraction(1, 4)) -> SqrtRational:
    """The persistence cutoff c * K * q**((d-1)/2), kept exact."""
    return K * SqrtRational(Fraction(c_const), q ** (d - 1))


def persistent_pairs(config: Config, K: SqrtRational | None = None,
                     c_const=Fraction(1, 4)) -> PersistentPairs:
    """Ordered non-degenerate pairs whose bisector is threshold-rich.

    The cutoff is c_const * K * q**((d-1)/2), with the near-extremality
    K of config unless K is supplied.  With K = 0 the cutoff vanishes
    and every non-degenerate pair persists.
    """
    if K is None:
        K = near_extremality_K(config)
    lam = richness_threshold(K, config.q, config.d, c_const)
    bisectors, incidence, index = _bisectors(config)
    richness = incidence.sum(axis=0)
    keep = _pair_richness(richness, index) >= max(count_cutoff(lam), 0)
    ns = len(config.spheres)
    i, j = pair_indices(ns)
    order, first, second = _both_orders(i[keep], j[keep], ns)
    pairs = np.stack([first, second], axis=1)
    pairs.setflags(write=False)
    return PersistentPairs(pairs=pairs, bisectors=bisectors,
                           incidence=incidence,
                           pairs_bisector=np.concatenate(
                               [index[keep], index[keep]])[order])


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
    jp, kept = _heaviest_class(inc.sum(axis=1))
    if jp is None:
        raise RegularizationDegenerate("no point lies on any support hyperplane")
    jh, heavy = _heaviest_class(inc[kept].sum(axis=0))
    if jh is None:
        raise RegularizationDegenerate("no support hyperplane is rich in the kept points")
    return RegularizedConfig(
        point_idx=np.flatnonzero(kept),
        multiset=ms.restrict(heavy),
        richness_scale=1 << jh,
    )
