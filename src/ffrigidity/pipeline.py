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

from .exact import SqrtRational
from .field import PrimeField, group_rows, inverse_table
from .geometry import (Flat, Hyperplane, flat_contained_in,
                       hyperplane_incidence, sphere_contains, sphere_incidence)
from .multiset import build_multiset, mass_retention, popular_hyperplane
from .stats import Config, energies, membership_matrix
from .strata import RegularizationDegenerate, persistent_pairs, regularize

CASE_FLAT = "flat-concentration"
CASE_DIRECTIONAL = "directional-coordination"
CASE_NO_SIGNAL = "no-signal"


# Pairs per row block of `flat_profile`: its arrays, 64 KiB per int64
# row, then stay in a 2 MiB L2 cache.  Over the null-flats-q19 supports
# (m about 245) a call took 3.3-4.8 ms against 5.0-7.4 ms at 2**15.
_BLOCK_PAIRS = 1 << 13


@dataclass(frozen=True, eq=False)
class FlatProfile:
    """The largest number of family members through one codimension-2
    flat (0 when all pairs are parallel), the least such flat in Flat
    tuple order and the increasing indices of the members through it."""
    max_multiplicity: int
    witness: Flat | None
    pencil: tuple


def flat_profile(aug: np.ndarray, field: PrimeField) -> FlatProfile:
    """Largest flat multiplicity of a hyperplane family, with its witness.

    The family `aug` is an (m, d+1) int64 array of rows (normal, offset).
    For non-parallel members a < b (canonical ones are parallel exactly
    when their normals coincide), b restricted to a, the row
    b - b[lead a] * a scaled to lead 1, fixes the flat a & b.  Grouped by
    (a, restricted row), a flat of members a1 < ... < ak is a group of
    k - 1 in row a1 and smaller ones later: m_max is one more than the
    largest group, the pencil a largest group with its row, and the
    witness the least flat of the largest groups, one pair each reduced
    in closed form.  Rows go in blocks of at most `_BLOCK_PAIRS` pairs
    (one row at least), so memory is O(block + m).  Asserted: canonical,
    distinct input; nesting groups (a flat of k members gives one group
    of each size 1 .. k - 1); the fiber bound per row (later partners <=
    groups * (m_max - 1)); the members through the witness, by a
    row-span test, are the pencil.
    """
    q = field.q
    n = len(aug)
    if n < 2:
        return FlatProfile(0, None, ())
    d = aug.shape[1] - 1
    lead = (aug[:, :d] != 0).argmax(axis=1)
    assert ((aug >= 0) & (aug < q)).all() and \
        (aug[np.arange(n), lead] == 1).all(), "hyperplanes must be canonical"
    cols = np.ascontiguousarray(aug.T)
    # a is written as `width` base-q digits ahead of the restricted row
    width = next(w for w in range(1, 64) if q ** w >= n)
    later = n - 1 - np.arange(n)
    ends = np.concatenate([[0], np.cumsum(later)])
    partners, groups, size_counts = np.zeros((3, n), dtype=np.int64)
    best, pencil = (0, None), ()
    a0 = 0
    while a0 < n - 1:
        a1 = int(np.searchsorted(ends, ends[a0] + _BLOCK_PAIRS, "right"))
        rows = np.arange(a0, min(max(a1 - 1, a0 + 1), n - 1))
        a0 = int(rows[-1]) + 1
        a = np.repeat(rows, later[rows])
        b = np.arange(len(a)) + np.repeat(
            rows + 1 - (ends[rows] - ends[rows[0]]), later[rows])
        # one column per pair, so every step runs over contiguous rows;
        # x - x // q * q, because int64 % is several times slower
        r = cols.take(a, axis=1)
        r *= aug.take(b * (d + 1) + lead.take(a))
        np.subtract(cols.take(b, axis=1), r, out=r)
        r -= r // q * q
        # canonical b is parallel to a exactly when this normal vanishes
        skew = r[:d].any(axis=0)
        assert (skew | (r[d] != 0)).all(), \
            "support hyperplanes must be distinct"
        a, b = a[skew], b[skew]
        digits = np.empty((width + d + 1, len(a)), dtype=np.int64)
        rest = a
        for i in range(width - 1, 0, -1):
            digits[i] = rest - rest // q * q
            rest = rest // q
        digits[0] = rest
        restricted = digits[width:]
        np.compress(skew, r, axis=1, out=restricted)
        lead_value = restricted[d - 1].copy()
        for row in restricted[d - 2::-1]:
            np.copyto(lead_value, row, where=row != 0)
        restricted *= inverse_table(q).take(lead_value)
        restricted -= restricted // q * q
        heads, run = group_rows(digits.T, q)
        count = np.bincount(run)
        partners += np.bincount(a, minlength=n)
        groups += np.bincount(a[heads], minlength=n)
        size_counts += np.bincount(count, minlength=n)
        top = int(count.max(initial=0))
        if top < max(best[0], 1):
            continue
        # reduced form of (a, restricted row) for one pair per largest
        # group: the restricted row vanishes at a's lead already
        maximal = np.flatnonzero(count == top)
        at = heads[maximal]
        cut = restricted[:, at].T
        pivot = (cut[:, :d] != 0).argmax(axis=1)
        other = aug[a[at]]
        other = (other - other[np.arange(len(at)), pivot][:, None] * cut) % q
        swap = (pivot < lead[a[at]])[:, None]
        upper, lower = np.where(swap, cut, other), np.where(swap, other, cut)
        keys = np.concatenate([upper[:, :d], lower[:, :d], upper[:, d:],
                               lower[:, d:]], axis=1)
        i = int(np.lexsort(keys.T[::-1])[0])
        key = keys[i].tolist()
        if top > best[0] or key < best[1]:
            best = (top, key)
            pencil = (int(a[at[i]]), *b[run == maximal[i]].tolist())
    top, key = best
    if not top:
        return FlatProfile(0, None, ())
    assert (np.diff(size_counts[1:]) <= 0).all(), "pair groups must nest"
    assert (partners <= groups * top).all(), "fiber bound"
    witness = Flat(rows=(tuple(key[:d]), tuple(key[d:2 * d])),
                   values=tuple(key[2 * d:]))
    # a member contains the witness exactly when it is the combination
    # of the two reduced rows taken at their pivot columns
    w = np.column_stack([witness.rows, witness.values])
    residual = (aug - aug[:, (w[:, :d] != 0).argmax(axis=1)] @ w) % q
    assert np.flatnonzero(~residual.any(axis=1)).tolist() == list(pencil), \
        "the pencil must be the members containing the witness"
    return FlatProfile(top + 1, witness, pencil)


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
                "K": float(params["K"]),
                "B0": params["B0"],
                "min_points": params["min_points"],
                "sphere_min": params["sphere_min"],
            },
        }


def _no_signal(K: SqrtRational, b0: int, reason: str) -> Certificate:
    return Certificate(
        case=CASE_NO_SIGNAL, hyperplane=None, points_idx=(),
        spheres_idx=(), witness_flat=None, flags=(reason,),
        params={"K": K, "B0": b0, "min_points": 0, "sphere_min": 0},
    )


def default_b0(K: SqrtRational, d: int) -> int:
    return max(2 * d, K.ceil())


def extract_certificate(config: Config,
                        options: ExtractOptions | None = None) -> Certificate:
    """Run the full extraction pipeline on a configuration.

    Returns a no-signal certificate when no sphere pair persists at the
    richness threshold or when regularization empties a side; both are
    ordinary outcomes, not errors.
    """
    opts = options or ExtractOptions()
    q, d = config.q, config.d
    fq = config.space.field
    membership = membership_matrix(config)
    stats = energies(config, membership)
    K = stats.K
    b0 = opts.b0 if opts.b0 is not None else default_b0(K, d)

    pp = persistent_pairs(config, K, opts.c_const)
    if not len(pp.pairs):
        return _no_signal(K, b0, "no-persistent-pairs")
    ms = build_multiset(pp)
    # the support lies in the bisector set, the retained support in the
    # support, and the pencil and h0 in the retained support: every
    # incidence below is a slice of the bisector incidence, whose columns
    # off the support are released here
    inc = pp.incidence.take(ms.columns, axis=1)
    del pp
    try:
        reg = regularize(inc, ms)
    except RegularizationDegenerate:
        return _no_signal(K, b0, "regularization-degenerate")
    retained = mass_retention(reg.multiset).retained

    # only the P' rows of the retained columns outlive flat_profile, the
    # extract's memory peak
    inc = inc.take(reg.point_idx, axis=0).take(
        np.searchsorted(ms.columns, retained.columns), axis=1)
    profile = flat_profile(retained.support, fq)

    # flat concentration when some flat sits in more than b0 members, and
    # then h0 is the first pencil member of the largest richness, the
    # least one: k is its row in the retained support, in tuple order
    if profile.max_multiplicity > b0:
        case, witness = CASE_FLAT, profile.witness
        rich = inc.take(profile.pencil, axis=1).sum(axis=0)
        k = profile.pencil[int(np.argmax(rich))]
    else:
        case, witness = CASE_DIRECTIONAL, None
        k = popular_hyperplane(retained, q)
    *normal, offset = retained.support[k].tolist()
    h0 = Hyperplane(tuple(normal), offset)
    idx = reg.point_idx[inc[:, k]]
    points_idx = tuple(idx.tolist())
    lam1 = reg.richness_scale
    assert len(points_idx) >= lam1

    sphere_min, spheres_idx = _rich_sphere_subfamily(membership[idx])

    assert hyperplane_incidence(config.point_array[idx], [h0], q).all()
    if witness is not None:
        assert flat_contained_in(witness, h0, fq)

    return Certificate(
        case=case,
        hyperplane=h0,
        points_idx=points_idx,
        spheres_idx=spheres_idx,
        witness_flat=witness,
        flags=(),
        params={"K": K, "B0": b0, "min_points": lam1, "sphere_min": sphere_min},
    )


def _rich_sphere_subfamily(incidence):
    """Largest dyadic richness threshold keeping at least half of the
    incidence mass between P' and the sphere family, from the P' rows of
    the membership matrix."""
    degs = incidence.sum(axis=0).tolist()
    total = sum(degs)
    if total == 0:
        return 1, ()
    t = 1
    best = 1
    while t <= max(degs):
        retained = sum(v for v in degs if v >= t)
        if 2 * retained >= total:
            best = t
        t *= 2
    spheres_idx = tuple(i for i, v in enumerate(degs) if v >= best)
    return best, spheres_idx


@dataclass(frozen=True)
class RetentionReport:
    incidences: int
    double_count_ok: bool
    degree_min: int
    degree_max: int


def retention_check(config: Config, cert: Certificate) -> RetentionReport:
    """Double-counting check for the retained points.

    The incidence count between the structured points and the sphere
    family is computed in both summation orders, which must agree.
    """
    q = config.q
    pprime = [config.points[i] for i in cert.points_idx]
    by_sphere = int(sphere_incidence(pprime, config.spheres, q).sum(axis=0).sum())
    point_sphere_degs = [sum(sphere_contains(s, p, q) for s in config.spheres)
                         for p in pprime]
    by_point = sum(point_sphere_degs)
    return RetentionReport(
        incidences=by_point,
        double_count_ok=by_sphere == by_point,
        degree_min=min(point_sphere_degs, default=0),
        degree_max=max(point_sphere_degs, default=0),
    )
