"""Multisets of bisector hyperplanes.

A sphere-pair family induces a multiset of radical hyperplanes: the
support is the set of distinct canonical hyperplanes, each carrying a
multiplicity (how many ordered pairs produced it).  Weighted sums over
the multiset always mean "multiplicity times per-hyperplane quantity".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import count_cutoff


class EmptyMultiset(ValueError):
    pass


class EmptyClass(ValueError):
    pass


@dataclass(frozen=True)
class HyperplaneMultiset:
    support: tuple
    counts: dict

    @property
    def mass(self) -> int:
        return sum(self.counts.values())

    @property
    def geo_size(self) -> int:
        return len(self.support)

    @property
    def max_multiplicity(self) -> int:
        return max(self.counts.values()) if self.counts else 0

    def restrict(self, keep) -> "HyperplaneMultiset":
        keep = set(keep)
        support = tuple(h for h in self.support if h in keep)
        return HyperplaneMultiset(
            support=support,
            counts={h: self.counts[h] for h in support},
        )


def build_multiset(pp, config, richness_min=0) -> HyperplaneMultiset:
    """Aggregate the radical hyperplanes of the persistent pairs pp.

    pp is the `strata.persistent_pairs` result for config; its bisectors
    and their richness on config.points are reused, not recomputed, and
    its bisector index must cover every sphere pair of config.
    Concentric pairs never persist, so every pair contributes.
    Hyperplanes whose point richness falls below richness_min are
    dropped together with their multiplicity; richness_min may be an
    int, a Fraction or an exact square-root value.
    """
    ns = len(config.spheres)
    assert 2 * len(pp.pair_bisector) == ns * (ns - 1)
    bisector = pp.pairs_bisector
    assert len(bisector) == len(pp.pairs)
    counts = np.bincount(bisector, minlength=len(pp.bisectors))
    kept = (counts > 0) & (pp.richness >= count_cutoff(richness_min))
    support = tuple(pp.bisectors[k] for k in np.flatnonzero(kept).tolist())
    return HyperplaneMultiset(
        support=support,
        counts=dict(zip(support, counts[kept].tolist())),
    )


@dataclass(frozen=True)
class ParallelClass:
    direction: tuple
    offsets: dict

    @property
    def mass(self) -> int:
        return sum(self.offsets.values())


def parallel_classes(ms: HyperplaneMultiset):
    """Group the support by normal direction.

    Canonical normals are equal exactly when the hyperplanes are
    parallel, so the classes partition the support.  Returns the classes
    sorted by direction.
    """
    grouped: dict = {}
    for h in ms.support:
        grouped.setdefault(h.normal, {})[h.offset] = ms.counts[h]
    return [ParallelClass(direction=n, offsets=offs)
            for n, offs in sorted(grouped.items())]


def popular_offset(pc: ParallelClass, q: int):
    """Most frequent offset in a parallel class, smallest value on ties.

    The winner carries at least a 1/q share of the class mass, because
    only q offsets exist.
    """
    if not pc.offsets:
        raise EmptyClass("parallel class has no hyperplanes")
    m0 = max(pc.offsets.values())
    b0 = min(b for b, m in pc.offsets.items() if m == m0)
    assert m0 * q >= pc.mass
    return b0, m0


@dataclass(frozen=True)
class MassRetentionReport:
    retained: HyperplaneMultiset
    threshold: Fraction
    total_mass: int
    retained_mass: int
    geo_size: int
    max_multiplicity: int


def mass_retention(ms: HyperplaneMultiset) -> MassRetentionReport:
    """Keep hyperplanes of multiplicity at least mass / (2 * support size).

    The discarded light part sums to strictly less than half the mass,
    and the support cannot be smaller than mass / max multiplicity; both
    pigeonhole facts are asserted exactly.
    """
    if not ms.support:
        raise EmptyMultiset("cannot retain mass of an empty multiset")
    total = ms.mass
    geo = ms.geo_size
    threshold = Fraction(total, 2 * geo)
    heavy = [h for h in ms.support if 2 * geo * ms.counts[h] >= total]
    retained = ms.restrict(heavy)
    retained_mass = retained.mass
    assert 2 * retained_mass >= total
    assert geo * ms.max_multiplicity >= total
    return MassRetentionReport(
        retained=retained,
        threshold=threshold,
        total_mass=total,
        retained_mass=retained_mass,
        geo_size=geo,
        max_multiplicity=ms.max_multiplicity,
    )
