"""Multisets of bisector hyperplanes.

A sphere-pair family induces a multiset of radical hyperplanes: the
support is the set of distinct canonical hyperplanes, each carrying a
multiplicity (how many ordered pairs produced it).  Weighted sums over
the multiset always mean "multiplicity times per-hyperplane quantity".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import group_rows


@dataclass(frozen=True, eq=False)
class HyperplaneMultiset:
    """`support`: the distinct hyperplanes as (m, d+1) int64 rows
    (normal, offset) in Hyperplane tuple order; `counts`: their int64
    multiplicities; `columns`: each row's index in the bisector rows
    and counts of `strata.PersistentPairs`, increasing."""
    support: np.ndarray
    counts: np.ndarray
    columns: np.ndarray

    @property
    def mass(self) -> int:
        return int(self.counts.sum())

    @property
    def max_multiplicity(self) -> int:
        return int(self.counts.max(initial=0))

    def restrict(self, keep) -> "HyperplaneMultiset":
        """The members at a boolean mask or increasing indices of the
        support, in support order."""
        return HyperplaneMultiset(self.support[keep], self.counts[keep],
                                  self.columns[keep])


def build_multiset(pp) -> HyperplaneMultiset:
    """Aggregate the radical hyperplanes of the persistent pairs pp.

    pp is a `strata.persistent_pairs` result; its bisector rows and
    each pair's bisector index are reused, not recomputed.  Each
    persistent unordered pair stands for both of its orders, so it
    counts twice.  Concentric pairs never persist, and the support is
    the bisectors of the persistent pairs.
    """
    live = pp.pair_bisector[pp.pair_bisector >= 0]
    counts = 2 * np.bincount(live, minlength=len(pp.bisectors))
    assert len(counts) == len(pp.bisectors), "indices must name bisector rows"
    columns = np.flatnonzero(counts)
    return HyperplaneMultiset(pp.bisectors[columns], counts[columns], columns)


def popular_hyperplane(ms: HyperplaneMultiset, q: int) -> int:
    """The support row of the most frequent offset in the heaviest
    parallel class.

    Canonical normals are equal exactly when the hyperplanes are
    parallel, so the classes, grouped by normal, partition the support.
    Ties go to the least direction, then to the least offset.  The
    winner carries at least a 1/q share of its class mass, because only
    q offsets exist.  The float64 class masses are exact below 2**53.
    """
    d = ms.support.shape[1] - 1
    _, cls = group_rows(ms.support[:, :d].T, q)
    mass = np.bincount(cls, weights=ms.counts)
    # classes are numbered in direction order, members in offset order
    members = np.flatnonzero(cls == np.argmax(mass))
    k = int(members[np.argmax(ms.counts[members])])
    assert ms.counts[k] * q >= mass.max()
    return k


@dataclass(frozen=True)
class MassRetentionReport:
    retained: HyperplaneMultiset


def mass_retention(ms: HyperplaneMultiset) -> MassRetentionReport:
    """Keep hyperplanes of multiplicity at least mass / (2 * support size)
    of a non-empty multiset.

    The discarded light part sums to strictly less than half the mass,
    and the support cannot be smaller than mass / max multiplicity; both
    pigeonhole facts are asserted exactly.
    """
    geo = len(ms.support)
    assert geo, "the multiset must not be empty"
    total = ms.mass
    retained = ms.restrict(2 * geo * ms.counts >= total)
    assert 2 * retained.mass >= total
    assert geo * ms.max_multiplicity >= total
    return MassRetentionReport(retained=retained)
