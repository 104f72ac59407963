"""Dyadic stratification, persistent pairs and degree regularization.

Sphere pairs are counted per dyadic layer of their shared point count;
persistence instead reads the point richness of each pair's radical
hyperplane, which must hold at least one point, so every later stage
sees only bisectors that carry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import isqrt

import numpy as np

from .geometry import (hyperplane_incidence, pair_indices, radical_hyperplane,
                       radical_hyperplanes)
from .multiset import HyperplaneMultiset
from .stats import Config, ceil_sqrt


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
    """Count ordered distinct sphere pairs by the dyadic class of their
    shared point count, read off the sphere-pair Gram
    `energies(config).gram`.

    `layers` maps each occupied class j, increasing, to the number of
    pairs sharing between 2**j and 2**(j+1) - 1 points; pairs sharing
    no point are tallied in `zero_pairs`.
    """
    shared = gram[~np.eye(len(gram), dtype=bool)]
    # class -1 is a zero count, at index 0
    counts = np.bincount(_dyadic_classes(shared) + 1, minlength=1).tolist()
    return DyadicLayers(
        layers={j: n for j, n in enumerate(counts[1:]) if n},
        zero_pairs=counts[0])


@dataclass(frozen=True, eq=False)
class PersistentPairs:
    """The bisector of every persistent pair, with the bisector arrays
    later stages read instead of recomputing them.

    `pair_bisector[k]` is the bisector index of the k-th sphere pair
    i < j in `pair_indices` order, or -1 when that pair does not
    persist; each persistent pair stands for both of its orders.
    `bisectors` holds the distinct radical hyperplanes of the sphere
    pairs as (B, d+1) int64 rows (normal, offset) in Hyperplane tuple
    order, `richness` the number of points of P on each and `degrees`
    each point's number of bisectors, both int64 counts; no |P| x B
    incidence is kept.
    """
    pair_bisector: np.ndarray
    bisectors: np.ndarray = dataclass_field(repr=False)
    richness: np.ndarray = dataclass_field(repr=False)
    degrees: np.ndarray = dataclass_field(repr=False)

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


def persistent_pairs(config: Config, K2: Fraction,
                     c_const: Fraction) -> PersistentPairs:
    """Non-degenerate sphere pairs whose bisector is threshold-rich.

    A pair persists when its bisector carries at least one point and at
    least c_const * K * q**((d-1)/2) points, with K**2 the exact K2 and
    c_const > 0: the integer cutoff is the larger of 1 and the ceiling
    of the square root of c_const**2 * K**2 * q**(d-1).  With K = 0 it
    is 1, formed with no power of q (an empty config may have any d).
    """
    c = Fraction(c_const)
    assert c > 0, "c_const must be positive"
    q, spheres = config.q, config.spheres
    cutoff = max(1, ceil_sqrt(K2 and c * c * K2 * q ** (config.d - 1)))
    rows, index = radical_hyperplanes(config.sphere_array, q)
    if len(index):
        h = radical_hyperplane(spheres[0], spheres[1], q)
        assert index[0] < 0 if h is None else (
            index[0] >= 0 and rows[index[0]].tolist() == [*h.normal, h.offset])
    degrees, richness = hyperplane_incidence(config.point_lift, rows, q,
                                             count=True)
    # a concentric pair keeps its index -1; it reads the appended entry,
    # so the take stays in range when no pair has a bisector
    live = np.append(richness, -1).take(index) >= cutoff
    return PersistentPairs(np.where(live, index, -1), rows, richness, degrees)


def _heaviest_class(values: np.ndarray):
    """The dyadic class whose positive entries have the largest sum, ties
    to the larger class, and the mask of its entries; some entry must be
    positive.  The float64 sums are exact below 2**53."""
    classes = _dyadic_classes(values)
    mass = np.bincount(classes + 1, weights=values)[1:]
    best = len(mass) - 1 - int(np.argmax(mass[::-1]))
    return best, classes == best


def rich_subfamily(degrees: np.ndarray):
    """The rich sphere subfamily of the certificate, from the sphere
    degrees into P': the largest dyadic threshold 2**j whose spheres of
    degree at least 2**j keep at least half of the total degree, and
    those spheres' positions; (1, ()) when the total is 0.  The float64
    sums are exact below 2**53."""
    classes = _dyadic_classes(degrees)
    # kept[j] is the degree mass of the classes >= j
    kept = np.cumsum(np.bincount(classes + 1, weights=degrees)[:0:-1])[::-1]
    if not len(kept) or not kept[0]:
        return 1, ()
    # kept falls as j grows, so the j that keep half are 0, 1, ..., j
    j = int(np.count_nonzero(2 * kept >= kept[0])) - 1
    return 1 << j, tuple(np.flatnonzero(classes >= j).tolist())


@dataclass(frozen=True, eq=False)
class RegularizedConfig:
    """`point_idx`: the positions of the kept input points, increasing."""
    point_idx: np.ndarray
    multiset: HyperplaneMultiset
    richness_scale: int


def regularize(lifted: np.ndarray, bisectors: np.ndarray,
               richness: np.ndarray, degrees: np.ndarray,
               ms: HyperplaneMultiset, q: int) -> RegularizedConfig:
    """One point-degree pass, then one hyperplane-richness pass.

    `lifted` are the input points lifted by `geometry.lift`; `bisectors`,
    `richness` and `degrees` are those of `PersistentPairs`, and the
    support is the rows `ms.columns` of `bisectors`, increasing.  Point
    degrees over the support are `degrees` less a count over the other
    bisectors that hold a point (none when every such bisector persists);
    the dyadic degree bucket with the largest summed degree is kept (ties
    to the larger class), fixing the degree scale M1.  The support's
    richness over the kept points is its `richness` less a count over
    the dropped points, or a count over the kept points where they are
    fewer, bucketed the same way, fixing the richness scale L1.  Each
    count is one counting call of the hyperplane kernel, and a
    subtracted count must not go negative.
    Retained points have degree in [M1, 2*M1) with respect to the input
    support, and retained hyperplanes hold between L1 and 2*L1 - 1 of
    the retained points.  Some point must lie on a support hyperplane,
    as `persistent_pairs` ensures by keeping only bisectors that hold a
    point: then every kept point lies on one, so both passes keep a
    non-empty class.
    """
    columns = ms.columns
    inside = not len(columns) or (
        0 <= columns[0] and columns[-1] < len(bisectors))
    assert len(columns) == len(ms.support) and inside and (
        columns[1:] > columns[:-1]).all(), \
        "support rows must be increasing and inside the bisectors"
    outside = richness > 0
    outside[columns] = False
    if outside.any():
        degrees = degrees - hyperplane_incidence(
            lifted, bisectors[outside], q, count=True)[0]
        assert degrees.min() >= 0, "a subtracted count went negative"
    assert degrees.any(), "some point must lie on a support hyperplane"
    _, kept = _heaviest_class(degrees)
    # a point on no support row is never kept, and counts on none
    dropped = (degrees > 0) & ~kept
    rich = richness.take(columns)
    if np.count_nonzero(kept) <= np.count_nonzero(dropped):
        rich = hyperplane_incidence(lifted[kept], ms.support, q, count=True)[1]
    elif dropped.any():
        rich -= hyperplane_incidence(lifted[dropped], ms.support, q,
                                     count=True)[1]
        assert rich.min() >= 0, "a subtracted count went negative"
    jh, heavy = _heaviest_class(rich)
    return RegularizedConfig(
        point_idx=np.flatnonzero(kept),
        multiset=ms.restrict(heavy),
        richness_scale=1 << jh,
    )
