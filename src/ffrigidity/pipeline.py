"""Certificate extraction for near-extremal point-sphere configurations.

The pipeline measures the incidence surplus, collects sphere pairs
whose bisector hyperplane is rich in points, regularizes the resulting
point / hyperplane system to a two-sided degree window, and then splits
on the geometry of the surviving hyperplane family: either many of them
share a codimension-2 flat (flat concentration) and the certificate
hyperplane is the richest member of that pencil, or the family spreads
over many directions (directional coordination) and the certificate
hyperplane has the most popular direction and, within it, the most
popular offset.

A certificate is that hyperplane, the points it carries and a rich
sphere subfamily.  Its claims are asserted before it is returned, and
it serializes to a fixed-shape JSON document.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import PrimeField, place_values, residue_dtype, scale_to_lead
from .geometry import Flat, Hyperplane, hyperplane_incidence, incidence_counts
from .multiset import build_multiset, mass_retention, popular_hyperplane
from .stats import (Config, ceil_sqrt, membership_matrix,
                    near_extremality_from_counts)
from .strata import persistent_pairs, regularize, rich_subfamily

CASE_FLAT = "flat-concentration"
CASE_DIRECTIONAL = "directional-coordination"
CASE_NO_SIGNAL = "no-signal"


# Pairs per row block of `flat_profile`: over the 16 null-flats-q19
# supports (m about 243, numpy 2.4.6, 2 CPUs) a call took 2.8 ms at 2**11,
# 2.1 at 2**12, 2.0 at 2**13 and 2.6 at 2**15, and from 2**13 on the
# block holds the extract's memory peak there.
_BLOCK_PAIRS = 1 << 12


@dataclass(frozen=True, eq=False)
class FlatProfile:
    """The least codimension-2 flat in Flat tuple order that lies in the
    most family members, and the increasing indices of those members;
    (None, ()) when all pairs are parallel.  The largest flat
    multiplicity is len(pencil)."""
    witness: Flat | None
    pencil: tuple


def flat_profile(aug: np.ndarray, field: PrimeField) -> FlatProfile:
    """Largest flat multiplicity of a hyperplane family, with its witness.

    The family `aug` is an (m, d+1) int64 array of rows (normal, offset).
    For members a < b, b restricted to a fixes the flat a & b: the row
    b + (q - b[lead a]) * a in `field.residue_dtype(q)` (at most q**2 - 1)
    reduced and scaled to lead 1, zero when a and b are parallel.  A
    values-only sort of the int64 keys a * q**(d+1) + restricted row,
    packed in place by Horner's rule, groups a block; a parallel pair's
    key is a's marker a * q**(d+1), whose group counts 0.  When
    m * q**(d+1) >= 2**63 the words a, r_0, ..., r_d go through
    np.lexsort instead.  A flat of members a1 < ... < ak is a group of
    k - 1 in row a1 and smaller ones later: the witness is the least flat
    of the largest groups, one pair each reduced in closed form, and the
    pencil the members that contain it, read off one row-span test.
    Blocks of at most `_BLOCK_PAIRS` pairs (one row at least), each freed
    before the next, keep memory O(block + m).  Asserted: canonical,
    distinct input; the residue bound; nesting groups (a flat of k
    members gives one group of each size 1 .. k - 1); the fiber bound per
    row (later non-parallel partners <= groups * largest group); the
    pencil is one member more than the largest group.
    """
    q = field.q
    n = len(aug)
    if n < 2:
        return FlatProfile(None, ())
    d = aug.shape[1] - 1
    lead = (aug[:, :d] != 0).argmax(axis=1)
    assert ((aug >= 0) & (aug < q)).all() and \
        (aug[np.arange(n), lead] == 1).all(), "hyperplanes must be canonical"
    # one column per member; entry lead[a] * n + b flattened is b[lead a]
    cols = np.ascontiguousarray(aug.T, dtype=residue_dtype(q))
    negated, lead_at = (q - cols).ravel(), lead * n
    one_word = n * q ** (d + 1) < 2 ** 63
    places, a_place = place_values(q)[-d - 1:], q ** (d + 1) if one_word else 1
    later = n - 1 - np.arange(n)
    ends = np.concatenate([[0], np.cumsum(later)])

    # rows lo .. hi - 1, row a's pairs from start[a - lo]: their group
    # sizes and the best (top, key) so far; freed on return
    def block(lo, hi, best):
        span, start = later[lo:hi], ends[lo:hi] - ends[lo]
        b = np.arange(ends[hi] - ends[lo]) + (
            np.arange(lo + 1, hi + 1) - start).repeat(span)
        # b + (q - b[lead a]) * a, reduced in place: r - (r // q) * q
        r = cols[:, lo:hi].repeat(span, axis=1)
        r *= negated.take(lead_at[lo:hi].repeat(span) + b)
        r += cols.take(b, axis=1)
        del b
        t = r // q
        t *= q
        r -= t
        del t
        assert r.any(axis=0).all(), "support hyperplanes must be distinct"
        scale_to_lead(r, q)
        packed = np.arange(lo, hi).repeat(span)
        if one_word:
            for row in r:
                packed *= q
                packed += row
            ordered = [np.sort(packed)]
        else:
            words = [packed, *r]
            order = np.lexsort(words[::-1])
            ordered = [w.take(order) for w in words]
            del words, order
        del packed, r
        # runs of equal keys are the groups; each row's pairs keep place
        edge = np.ones(len(ordered[0]) + 1, dtype=bool)
        edge[1:-1] = np.logical_or.reduce([w[1:] != w[:-1] for w in ordered])
        bounds = edge.nonzero()[0]
        heads = [w.take(bounds[:-1]) for w in ordered]
        del edge, ordered
        count = bounds[1:] - bounds[:-1]
        live = np.logical_or.reduce([heads[0] % a_place != 0,
                                     *(head != 0 for head in heads[1:])])
        count *= live
        top, first = int(count.max()), bounds.searchsorted(start)
        assert (np.add.reduceat(count, first) <= top * np.add.reduceat(
            live, first, dtype=np.int64)).all(), "fiber bound"
        sizes = np.bincount(count, minlength=n)
        if top < max(best[0], 1):
            return sizes, best
        # reduced form of (a, restricted row) for one pair per largest
        # group: the restricted row vanishes at a's lead already
        maximal = np.flatnonzero(count == top)
        ha = heads[0].take(maximal) // a_place
        cut = (heads[0].take(maximal)[:, None] // places.T % q if one_word
               else np.stack([h.take(maximal) for h in heads[1:]], axis=1))
        pivot = (cut[:, :d] != 0).argmax(axis=1)
        other = aug[ha]
        other = (other - other[np.arange(len(ha)), pivot][:, None] * cut) % q
        swap = (pivot < lead[ha])[:, None]
        upper, lower = np.where(swap, cut, other), np.where(swap, other, cut)
        keys = np.concatenate([upper[:, :d], lower[:, :d], upper[:, d:],
                               lower[:, d:]], axis=1)
        i = int(np.lexsort(keys.T[::-1])[0])
        key = keys[i].tolist()
        if top > best[0] or key < best[1]:
            best = (top, key)
        return sizes, best

    size_counts = np.zeros(n, dtype=np.int64)
    best, hi = (0, None), 0
    while hi < n - 1:
        lo = hi
        hi = int(ends.searchsorted(ends[lo] + _BLOCK_PAIRS, "right")) - 1
        hi = min(max(hi, lo + 1), n - 1)
        sizes, best = block(lo, hi, best)
        size_counts += sizes
    top, key = best
    if not top:
        return FlatProfile(None, ())
    assert (size_counts[2:] <= size_counts[1:-1]).all(), "pair groups must nest"
    witness = Flat(rows=(tuple(key[:d]), tuple(key[d:2 * d])),
                   values=tuple(key[2 * d:]))
    # a member contains the witness exactly when it is the combination
    # of the two reduced rows taken at their pivot columns
    w = np.column_stack([witness.rows, witness.values])
    residual = (aug - aug[:, (w[:, :d] != 0).argmax(axis=1)] @ w) % q
    pencil = tuple(np.flatnonzero(~residual.any(axis=1)).tolist())
    assert len(pencil) == top + 1, \
        "the members containing the witness must be the largest group's"
    return FlatProfile(witness, pencil)


@dataclass(frozen=True)
class ExtractOptions:
    c_const: Fraction = Fraction(1, 4)
    b0: int | None = None


@dataclass(frozen=True)
class Certificate:
    case: str
    hyperplane: Hyperplane | None
    points_idx: tuple
    spheres_idx: tuple
    witness_flat: Flat | None
    flags: tuple
    params: dict

    def to_dict(self) -> dict:
        """Fixed-shape serialization; every field is always present."""
        params = self.params
        return {
            "schema": 4,
            "case": self.case,
            "hyperplane": (
                {"normal": list(self.hyperplane.normal),
                 "offset": self.hyperplane.offset}
                if self.hyperplane is not None else None),
            "points": list(self.points_idx),
            "spheres": list(self.spheres_idx),
            "aux": {
                "flags": list(self.flags),
                "witness_flat": (
                    {"rows": [list(r) for r in self.witness_flat.rows],
                     "values": list(self.witness_flat.values)}
                    if self.witness_flat is not None else None),
            },
            "params": {
                "K": params["K"],
                "B0": params["B0"],
                "min_points": params["min_points"],
                "sphere_min": params["sphere_min"],
            },
        }


def default_b0(K2: Fraction, d: int) -> int:
    """max(2d, ceil(K)), from the exact square K2 of K."""
    return max(2 * d, ceil_sqrt(K2))


def extract_certificate(config: Config,
                        options: ExtractOptions | None = None) -> Certificate:
    """Run the full extraction pipeline on a configuration.

    Returns a no-signal certificate, an ordinary outcome and not an
    error, when no sphere pair persists at the richness threshold.  A
    persistent pair's bisector holds a point, so regularization and mass
    retention then always keep a non-empty system.

    No |P| x B bisector incidence is built: persistence and `regularize`
    read counts off the kernel, and of `PersistentPairs` only what
    `regularize` reads lives through it.  h0 and its points are read off
    one boolean hyperplane kernel over P': its candidates are the pencil
    in the flat case and the popular hyperplane in the directional one,
    and h0 is the first of them, the least in tuple order, with the most
    points of P'.  The sphere degrees into the certificate points are
    counted through a row mask of the membership matrix, not a copy.
    """
    opts = options or ExtractOptions()
    q, d = config.q, config.d
    fq = config.space.field
    membership = membership_matrix(config)
    K2, K = near_extremality_from_counts(
        int(np.count_nonzero(membership)), len(config.points),
        len(config.spheres), q, d)
    b0 = opts.b0 if opts.b0 is not None else default_b0(K2, d)

    pp = persistent_pairs(config, K2, opts.c_const)
    ms = build_multiset(pp)
    if not len(ms.support):
        return Certificate(
            case=CASE_NO_SIGNAL, hyperplane=None, points_idx=(),
            spheres_idx=(), witness_flat=None, flags=("no-persistent-pairs",),
            params={"K": K, "B0": b0, "min_points": 0, "sphere_min": 0})
    bisectors, richness, degrees = pp.bisectors, pp.richness, pp.degrees
    del pp
    reg = regularize(config.point_lift, bisectors, richness, degrees, ms, q)
    del bisectors, richness, degrees
    retained = mass_retention(reg.multiset).retained
    # a flat lies in at most all m retained members, so with m <= b0 the
    # flat case cannot fire and flat_profile is not run
    profile = (flat_profile(retained.support, fq)
               if len(retained.support) > b0 else None)

    # flat concentration when some flat sits in more than b0 members
    if profile is not None and len(profile.pencil) > b0:
        case, witness, candidates = CASE_FLAT, profile.witness, profile.pencil
    else:
        case, witness = CASE_DIRECTIONAL, None
        candidates = (popular_hyperplane(retained, q),)
    on = hyperplane_incidence(config.point_lift[reg.point_idx],
                              retained.support.take(candidates, axis=0), q)
    rich = incidence_counts(on, 0)
    # by regularize's counts every retained member holds at least L1
    # points of P', its richness bucket; the kernel recounts them here
    lam1 = reg.richness_scale
    assert (rich >= lam1).all(), "the candidates must keep their richness"
    j = int(np.argmax(rich))
    *normal, offset = retained.support[candidates[j]].tolist()
    h0 = Hyperplane(tuple(normal), offset)
    idx = reg.point_idx[on[:, j]]
    on_h0 = np.zeros(len(config.points), dtype=bool)
    on_h0[idx] = True
    points_idx = tuple(idx.tolist())
    assert len(points_idx) >= lam1

    sphere_min, spheres_idx = rich_subfamily(
        incidence_counts(membership, 0, on_h0))

    return Certificate(
        case=case,
        hyperplane=h0,
        points_idx=points_idx,
        spheres_idx=spheres_idx,
        witness_flat=witness,
        flags=(),
        params={"K": K, "B0": b0, "min_points": lam1, "sphere_min": sphere_min},
    )
