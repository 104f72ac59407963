"""Multisets of bisector hyperplanes with provenance.

A sphere-pair family induces a multiset of radical hyperplanes: the
support is the set of distinct canonical hyperplanes, each carrying a
multiplicity (how many ordered pairs produced it) and the list of those
originating pairs.  Weighted sums over the multiset always mean
"multiplicity times per-hyperplane quantity".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Hyperplane, hyperplane_incidence, radical_hyperplane


class EmptyMultiset(ValueError):
    pass


class EmptyClass(ValueError):
    pass


@dataclass(frozen=True)
class HyperplaneMultiset:
    support: tuple
    counts: dict
    provenance: dict

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
            provenance={h: self.provenance[h] for h in support},
        )


def richness_counts(points, hyperplanes, q: int, d: int):
    """|P on H| for each hyperplane, via one batched product."""
    return hyperplane_incidence(points, hyperplanes, q).sum(axis=0).tolist()


def build_multiset(pairs, config, richness_min=0) -> HyperplaneMultiset:
    """Aggregate the radical hyperplanes of ordered sphere-index pairs.

    Degenerate (concentric) pairs contribute nothing.  Hyperplanes whose
    point richness falls below richness_min are dropped together with
    their multiplicity; richness_min may be an int, a Fraction or an
    exact square-root value.
    """
    q, d = config.q, config.d
    spheres = config.spheres
    counts: dict = {}
    provenance: dict = {}
    for (i, j) in pairs:
        h = radical_hyperplane(spheres[i], spheres[j], q)
        if h is None:
            continue
        counts[h] = counts.get(h, 0) + 1
        provenance.setdefault(h, []).append((i, j))
    support = sorted(counts)
    rich = richness_counts(config.points, support, q, d)
    kept = [h for h, r in zip(support, rich) if r >= richness_min]
    return HyperplaneMultiset(
        support=tuple(kept),
        counts={h: counts[h] for h in kept},
        provenance={h: tuple(provenance[h]) for h in kept},
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
    sorted by direction together with the direction set.
    """
    grouped: dict = {}
    for h in ms.support:
        grouped.setdefault(h.normal, {})[h.offset] = ms.counts[h]
    classes = [ParallelClass(direction=n, offsets=offs)
               for n, offs in sorted(grouped.items())]
    directions = tuple(c.direction for c in classes)
    return classes, directions


def popular_offset(pc: ParallelClass, q: int):
    """Most frequent offset in a parallel class, smallest value on ties.

    The winner carries at least a 1/q share of the class mass, because
    only q offsets exist.
    """
    if not pc.offsets:
        raise EmptyClass("parallel class has no hyperplanes")
    m0 = max(pc.offsets.values())
    b0 = min(b for b, m in pc.offsets.items() if m == m0)
    assert Fraction(m0) >= Fraction(pc.mass, q)
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
    heavy = [h for h in ms.support if ms.counts[h] >= threshold]
    retained = ms.restrict(heavy)
    retained_mass = retained.mass
    assert Fraction(retained_mass) >= Fraction(total, 2)
    assert Fraction(geo) >= Fraction(total, ms.max_multiplicity)
    return MassRetentionReport(
        retained=retained,
        threshold=threshold,
        total_mass=total,
        retained_mass=retained_mass,
        geo_size=geo,
        max_multiplicity=ms.max_multiplicity,
    )
