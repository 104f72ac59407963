"""Dyadic stratification, persistent pairs and degree regularization.

Two different dyadic decompositions coexist here.  Sphere pairs are
stratified by their shared point count (which reconciles exactly with
the off-diagonal energy), while the low-layer mass bound stratifies
pairs by the point richness of their radical hyperplane, the quantity
the bound is actually about.  Mixing the two makes the bound false, so
both partitions are kept explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import SqrtRational
from .geometry import hyperplane_incidence, radical_hyperplane
from .multiset import HyperplaneMultiset, richness_counts
from .stats import Config, membership_matrix, near_extremality_K


class EmptyOverlaps(ValueError):
    pass


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

    @property
    def pair_count(self) -> int:
        return sum(len(p) for p in self.layers.values()) + self.zero_pairs


def sphere_overlap_matrix(config: Config) -> np.ndarray:
    mat = membership_matrix(config).astype(np.int64)
    return mat.T @ mat


def stratify(config: Config) -> DyadicLayers:
    """Partition ordered distinct sphere pairs by shared point count.

    Pairs sharing no point are tallied separately; the layered pairs
    sum back to the off-diagonal energy exactly.
    """
    gram = sphere_overlap_matrix(config)
    ns = len(config.spheres)
    layers: dict = {}
    zero = 0
    for i in range(ns):
        for j in range(ns):
            if i == j:
                continue
            v = int(gram[i, j])
            if v == 0:
                zero += 1
            else:
                layers.setdefault(dyadic_class(v), []).append((i, j))
    return DyadicLayers(
        layers={j: tuple(p) for j, p in sorted(layers.items())},
        zero_pairs=zero,
    )


def pair_richness(config: Config):
    """Radical-hyperplane point richness of every ordered distinct pair.

    Returns (richness, degenerate) where richness maps each pair with a
    radical hyperplane to |P on H| and degenerate lists the concentric
    pairs, which have none.
    """
    q, d = config.q, config.d
    spheres = config.spheres
    ns = len(spheres)
    hyperplanes = {}
    for i in range(ns):
        for j in range(i + 1, ns):
            hyperplanes[(i, j)] = radical_hyperplane(spheres[i], spheres[j], q)
    uniq = sorted({h for h in hyperplanes.values() if h is not None})
    rich = dict(zip(uniq, richness_counts(config.points, uniq, q, d)))
    richness = {}
    degenerate = []
    for (i, j), h in hyperplanes.items():
        if h is None:
            degenerate.append((i, j))
            degenerate.append((j, i))
        else:
            richness[(i, j)] = rich[h]
            richness[(j, i)] = rich[h]
    return richness, tuple(sorted(degenerate))


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
    richness, _ = pair_richness(config)
    cutoff = 1 << j0
    mass = 0
    counted = 0
    for r in richness.values():
        if 1 <= r < cutoff:
            mass += r
            counted += 1
    bound = cutoff * len(config.spheres) ** 2
    assert mass <= bound
    return LowLayerReport(mass=mass, bound=bound, j0=j0, pairs_counted=counted)


@dataclass(frozen=True)
class PersistentPairs:
    threshold: SqrtRational
    pairs: tuple


def richness_threshold(K: SqrtRational, q: int, d: int,
                       c_const=Fraction(1, 4)) -> SqrtRational:
    """The persistence cutoff c * K * q**((d-1)/2), kept exact."""
    return K * SqrtRational(Fraction(c_const), q ** (d - 1))


def persistent_pairs(config: Config, K: SqrtRational | None = None,
                     c_const=Fraction(1, 4), threshold=None) -> PersistentPairs:
    """Ordered non-degenerate pairs whose bisector is threshold-rich.

    The cutoff is c_const * K * q**((d-1)/2) unless an explicit
    threshold is supplied.  With K = 0 the cutoff vanishes and every
    non-degenerate pair persists.
    """
    if threshold is not None:
        lam = threshold
    else:
        if K is None:
            K = near_extremality_K(config)
        lam = richness_threshold(K, config.q, config.d, c_const)
    richness, _ = pair_richness(config)
    pairs = tuple(sorted(p for p, r in richness.items() if r >= lam))
    return PersistentPairs(threshold=lam, pairs=pairs)


@dataclass(frozen=True)
class PartnerProfile:
    partner_counts: dict
    s0: tuple
    fraction: Fraction


def persistent_partner_profile(pp: PersistentPairs, config: Config,
                               threshold: int) -> PartnerProfile:
    """Spheres with at least `threshold` persistent partners."""
    counts = {i: 0 for i in range(len(config.spheres))}
    for (i, _) in pp.pairs:
        counts[i] += 1
    s0 = tuple(i for i, c in sorted(counts.items()) if c >= threshold)
    frac = Fraction(len(s0), len(config.spheres)) if config.spheres else Fraction(0)
    return PartnerProfile(partner_counts=counts, s0=s0, fraction=frac)


@dataclass(frozen=True)
class HeavyLayer:
    mu: int
    layer: int
    keys: tuple
    score: int
    layer_mass: int
    total_mass: int
    nonempty_layers: int


def heavy_layer_select(overlaps) -> HeavyLayer:
    """Pick the dyadic value layer maximizing 2**j * (member count).

    Accepts a mapping key -> positive value or a plain iterable of
    values.  Zero values carry no layer and are ignored; ties go to the
    larger j.  The selected score is at least the total score divided by
    the number of nonempty layers, which is the exact pigeonhole this
    selection exists for.
    """
    if not isinstance(overlaps, dict):
        overlaps = dict(enumerate(overlaps))
    layers: dict = {}
    for k, v in overlaps.items():
        if v > 0:
            layers.setdefault(dyadic_class(v), []).append(k)
    if not layers:
        raise EmptyOverlaps("no positive overlap values to select from")
    best = max(layers, key=lambda j: ((1 << j) * len(layers[j]), j))
    keys = tuple(sorted(layers[best]))
    score = (1 << best) * len(keys)
    total_score = sum((1 << j) * len(ks) for j, ks in layers.items())
    assert score * len(layers) >= total_score
    return HeavyLayer(
        mu=1 << best,
        layer=best,
        keys=keys,
        score=score,
        layer_mass=sum(overlaps[k] for k in keys),
        total_mass=sum(v for v in overlaps.values() if v > 0),
        nonempty_layers=len(layers),
    )


@dataclass(frozen=True)
class RegularizedConfig:
    points: tuple
    multiset: HyperplaneMultiset
    degree_scale: int
    richness_scale: int


def regularize(points, ms: HyperplaneMultiset, q: int, d: int) -> RegularizedConfig:
    """One point-degree pass, then one hyperplane-richness pass.

    Point degrees are counted against the geometric support of the
    input multiset; the dyadic degree bucket with the largest summed
    degree is kept (ties to the larger class), fixing the degree scale
    M1.  Hyperplane richness is then recounted against the surviving
    points and bucketed the same way, fixing the richness scale L1.
    Retained points have degree in [M1, 2*M1) with respect to the input
    support, and retained hyperplanes hold between L1 and 2*L1 - 1 of
    the retained points.
    """
    support = list(ms.support)
    if not points or not support:
        raise RegularizationDegenerate("empty points or empty support")
    degs = hyperplane_incidence(points, support, q).sum(axis=1).tolist()
    buckets: dict = {}
    for p, deg in zip(points, degs):
        if deg > 0:
            buckets.setdefault(dyadic_class(deg), []).append((p, deg))
    if not buckets:
        raise RegularizationDegenerate("no point lies on any support hyperplane")
    jp = max(buckets, key=lambda j: (sum(deg for _, deg in buckets[j]), j))
    kept_points = tuple(p for p, _ in buckets[jp])
    m1 = 1 << jp

    rich = richness_counts(kept_points, support, q, d)
    hbuckets: dict = {}
    for h, r in zip(support, rich):
        if r > 0:
            hbuckets.setdefault(dyadic_class(r), []).append((h, r))
    if not hbuckets:
        raise RegularizationDegenerate("no support hyperplane is rich in the kept points")
    jh = max(hbuckets, key=lambda j: (sum(r for _, r in hbuckets[j]), j))
    kept_hyperplanes = [h for h, _ in hbuckets[jh]]
    lam1 = 1 << jh
    return RegularizedConfig(
        points=kept_points,
        multiset=ms.restrict(kept_hyperplanes),
        degree_scale=m1,
        richness_scale=lam1,
    )

