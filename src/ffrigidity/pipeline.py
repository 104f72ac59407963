"""Certificate extraction for near-extremal point-sphere configurations.

The pipeline measures the incidence surplus, collects sphere pairs
whose bisector hyperplane is rich in points, regularizes the resulting
point / hyperplane system to a two-sided degree window, and then splits
on the geometry of the surviving hyperplane family: either many of them
share a codimension-2 flat (flat concentration) and the certificate
hyperplane is the richest member of that pencil, or the family spreads
over many directions (directional coordination) and the certificate
comes from the most popular direction and offset, with a low-degree
form recording the directional structure.

Every certificate is re-verified against its own claims before being
returned, and serializes to a fixed-shape JSON document.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dichotomy import (Polynomial, affine_dichotomy, minimal_degree)
from .exact import SqrtRational
from .field import PrimeField, group_rows, inverse_table
from .geometry import (Flat, Hyperplane, flat_contained_in,
                       hyperplane_incidence, incidence_gram, sphere_contains,
                       sphere_incidence)
from .multiset import (HyperplaneMultiset, build_multiset, mass_retention,
                       parallel_classes, popular_offset)
from .stats import Config, energies, membership_matrix
from .strata import (EmptyOverlaps, RegularizationDegenerate,
                     heavy_layer_select, persistent_pairs, regularize)

CASE_FLAT = "flat-concentration"
CASE_DIRECTIONAL = "directional-coordination"
CASE_NO_SIGNAL = "no-signal"


def overlap_energy(points, hyperplanes, q: int, d: int) -> int:
    """Number of ordered triples (p, H, H') with H != H' both through p.

    Computed as the sum of deg(p) * (deg(p) - 1) and cross-checked
    against the pairwise intersection counts, which must agree exactly.
    """
    if not len(points) or not hyperplanes:
        return 0
    inc = hyperplane_incidence(points, hyperplanes, q)
    degs = inc.sum(axis=1)
    j_from_degrees = int((degs * (degs - 1)).sum())
    gram = incidence_gram(inc)
    j_pairwise = int(gram.sum() - np.trace(gram))
    assert j_from_degrees == j_pairwise
    return j_from_degrees


@dataclass(frozen=True, eq=False)
class FlatProfile:
    """Intersection flats of a hyperplane family, as arrays.

    Row i of `flats` is the i-th distinct flat in Flat tuple order,
    flattened as (rows[0], rows[1], values); `multiplicities[i]` is the
    number of family members containing it.  `pencil` lists the member
    indices through the witness, the smallest flat of maximal
    multiplicity.
    """
    flats: np.ndarray
    multiplicities: np.ndarray
    parallel_pairs: int
    max_multiplicity: int
    witness: Flat | None
    pencil: tuple

    def flat(self, i: int) -> Flat:
        return _flat_of_key(self.flats[i].tolist())


def _flat_of_key(key) -> Flat:
    d = len(key) // 2 - 1
    return Flat(rows=(tuple(key[:d]), tuple(key[d:2 * d])),
                values=tuple(key[2 * d:]))


def flat_profile(hyperplanes, field: PrimeField) -> FlatProfile:
    """Multiplicity of every intersection flat of a hyperplane family.

    One array pass over all pairs a < b.  Canonical hyperplanes are
    parallel exactly when their normals coincide.  For the others the
    reduced row echelon form of the 2 x (d+1) system is written out in
    closed form: both rows lead with 1, so the row with the smaller lead
    (a on ties) is the first pivot row; subtracting it from the other,
    scaling that by the inverse of its lead and eliminating back gives
    the form `flat_from_pair` computes.  `field.group_rows` groups the
    pairs by their flattened forms, and the normals by direction.

    Any two distinct hyperplanes through a common codimension-2 flat
    intersect exactly in it, so the number of unordered pairs mapping to
    a flat L is C(m(L), 2) with m(L) the number of family members
    containing L.  That identity recovers every m(L) from the pair
    grouping and is asserted, as is the fiber bound: each member meets
    its non-parallel partners in at least (partner count) / m_max
    distinct flats.
    """
    q = field.q
    hps = list(hyperplanes)
    n = len(hps)
    d = len(hps[0].normal) if hps else 0
    if n < 2:
        return FlatProfile(flats=np.zeros((0, 2 * d + 2), dtype=np.int64),
                           multiplicities=np.zeros(0, dtype=np.int64),
                           parallel_pairs=0, max_multiplicity=0,
                           witness=None, pencil=())
    aug = np.asarray([(*h.normal, h.offset) for h in hps], dtype=np.int64)
    lead = (aug[:, :d] != 0).argmax(axis=1)
    assert ((aug >= 0) & (aug < q)).all() and \
        (aug[np.arange(n), lead] == 1).all(), "hyperplanes must be canonical"
    a, b = np.triu_indices(n, k=1)
    _, direction = group_rows(aug[:, :d], q)
    parallel = direction[a] == direction[b]
    assert not (parallel & (aug[a, d] == aug[b, d])).any(), \
        "support hyperplanes must be distinct"
    a, b = a[~parallel], b[~parallel]
    first = np.where(lead[b] < lead[a], b, a)
    rows = np.arange(len(a))
    top = aug[first]
    bottom = aug[a + b - first]
    bottom = (bottom - bottom[rows, lead[first]][:, None] * top) % q
    second = (bottom[:, :d] != 0).argmax(axis=1)
    bottom = bottom * inverse_table(q)[bottom[rows, second]][:, None] % q
    top = (top - top[rows, second][:, None] * bottom) % q
    keys = np.concatenate([top[:, :d], bottom[:, :d], top[:, d:],
                           bottom[:, d:]], axis=1)

    heads, run = group_rows(keys, q)
    pairs = np.bincount(run)
    mult = ((1 + np.sqrt(1 + 8 * pairs)) // 2).astype(np.int64)
    assert (mult * (mult - 1) == 2 * pairs).all()
    flats = keys[heads]
    max_mult = int(mult.max(initial=0))
    witness = None
    pencil: tuple = ()
    if max_mult:
        w = int(mult.argmax())
        members = np.concatenate([a, b])
        in_witness = np.zeros(n, dtype=bool)
        in_witness[members[np.concatenate([run, run]) == w]] = True
        pencil = tuple(np.flatnonzero(in_witness).tolist())
        partners = np.bincount(members, minlength=n)
        member_flat = np.sort(members * len(flats)
                              + np.concatenate([run, run]))
        distinct = np.ones(len(member_flat), dtype=bool)
        distinct[1:] = member_flat[1:] != member_flat[:-1]
        fibers = np.bincount(member_flat[distinct] // len(flats), minlength=n)
        assert (fibers * max_mult >= partners).all()
        witness = _flat_of_key(flats[w].tolist())
    return FlatProfile(flats=flats, multiplicities=mult,
                       parallel_pairs=int(parallel.sum()),
                       max_multiplicity=max_mult, witness=witness,
                       pencil=pencil)


@dataclass(frozen=True)
class CaseSplit:
    tag: str
    witness: Flat | None
    pencil: tuple
    directions: tuple
    max_multiplicity: int
    b0: int


def case_split(ms: HyperplaneMultiset, b0: int, field: PrimeField) -> CaseSplit:
    """Flat concentration when some flat sits in at least b0 + 1 members
    of the support, directional coordination otherwise."""
    profile = flat_profile(ms.support, field)
    if profile.max_multiplicity >= b0 + 1:
        members = sorted(ms.support[i] for i in profile.pencil)
        return CaseSplit(CASE_FLAT, profile.witness, tuple(members),
                         (), profile.max_multiplicity, b0)
    _, directions = parallel_classes(ms)
    return CaseSplit(CASE_DIRECTIONAL, None, (), directions,
                     profile.max_multiplicity, b0)


@dataclass(frozen=True)
class ExtractOptions:
    c_const: Fraction = Fraction(1, 4)
    b0: int | None = None


@dataclass(frozen=True)
class Certificate:
    case: str
    F: Polynomial | None
    hyperplane: Hyperplane | None
    points_idx: tuple
    spheres_idx: tuple
    witness_flat: Flat | None
    aux: dict
    params: dict

    def to_dict(self) -> dict:
        """Fixed-shape serialization; every field is always present."""
        params = dict(self.params)
        k = params.get("K")
        if isinstance(k, SqrtRational):
            params["K"] = float(k)
        aux = self.aux
        return {
            "case": self.case,
            "F": self.F.to_pairs() if self.F is not None else None,
            "hyperplane": (
                {"normal": list(self.hyperplane.normal),
                 "offset": self.hyperplane.offset}
                if self.hyperplane is not None else None),
            "points": list(self.points_idx),
            "spheres": list(self.spheres_idx),
            "aux": {
                "R": aux["R"].to_pairs() if aux.get("R") is not None else None,
                "chart": aux.get("chart"),
                "D": aux.get("D"),
                "flags": list(aux.get("flags", ())),
                "witness_flat": (
                    {"rows": [list(r) for r in self.witness_flat.rows],
                     "values": list(self.witness_flat.values)}
                    if self.witness_flat is not None else None),
            },
            "params": {
                "K": params.get("K", 0.0),
                "lambda1": params.get("lambda1", 0),
                "M1": params.get("M1", 0),
                "mu": params.get("mu", 0),
                "B0": params.get("B0", 0),
                "min_points": params.get("min_points", 0),
                "sphere_min": params.get("sphere_min", 0),
            },
        }


def linear_form_of(h: Hyperplane, q: int) -> Polynomial:
    """<n, x> - b as a degree-1 polynomial in d variables."""
    d = len(h.normal)
    terms = []
    for i, c in enumerate(h.normal):
        if c % q:
            e = [0] * d
            e[i] = 1
            terms.append((tuple(e), c % q))
    if h.offset % q:
        terms.append(((0,) * d, (-h.offset) % q))
    terms.sort(key=lambda t: (sum(t[0]), tuple(-x for x in t[0])))
    return Polynomial(nvars=d, terms=tuple(terms))


def _no_signal(K: SqrtRational, b0: int, reason: str) -> Certificate:
    return Certificate(
        case=CASE_NO_SIGNAL, F=None, hyperplane=None, points_idx=(),
        spheres_idx=(), witness_flat=None,
        aux={"R": None, "chart": None, "D": None, "flags": (reason,)},
        params={"K": K, "lambda1": 0, "M1": 0, "mu": 0, "B0": b0,
                "min_points": 0, "sphere_min": 0},
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
    ms = build_multiset(pp, config, pp.threshold)
    if not ms.support:
        return _no_signal(K, b0, "empty-multiset")
    # the support lies in the bisector set, the retained support in the
    # support, and the pencil and h0 in the retained support: every
    # incidence below is a slice of the bisector incidence, whose columns
    # off the support are released here
    inc = pp.incidence.take(_positions(pp.bisectors, ms.support), axis=1)
    del pp
    try:
        reg = regularize(inc, ms)
    except RegularizationDegenerate:
        return _no_signal(K, b0, "regularization-degenerate")
    retained = mass_retention(reg.multiset).retained

    # only the P' rows of the retained columns outlive case_split, whose
    # flat profile is the extract's memory peak
    inc = inc.take(reg.point_idx, axis=0).take(
        _positions(ms.support, retained.support), axis=1)
    mu = _coincidence_scale(inc, retained.support)
    split = case_split(retained, b0, fq)

    flags: list = []
    aux: dict = {"R": None, "chart": None, "D": None}
    witness = None
    if split.tag == CASE_FLAT:
        witness = split.witness
        rich = inc.take(_positions(retained.support, split.pencil),
                        axis=1).sum(axis=0).tolist()
        top = max(rich)
        h0 = min(h for h, r in zip(split.pencil, rich) if r == top)
        case = CASE_FLAT
    else:
        directions = split.directions
        D = minimal_degree(len(directions), d)
        if D >= q:
            flags.append("interpolation-trivial")
        chart = _pigeonhole_chart(directions, d)
        result = affine_dichotomy(directions, chart, D, q)
        if result.branch == "algebraic":
            aux["R"] = result.chart_poly
        else:
            flags.append("dichotomy-large")
        aux["chart"] = chart
        aux["D"] = D
        classes, _ = parallel_classes(retained)
        top_mass = max(c.mass for c in classes)
        popular = min((c for c in classes if c.mass == top_mass),
                      key=lambda c: c.direction)
        offset, _ = popular_offset(popular, q)
        h0 = Hyperplane(popular.direction, offset)
        case = CASE_DIRECTIONAL

    on_h0 = inc[:, _positions(retained.support, [h0])[0]]
    idx = reg.point_idx[on_h0]
    points_idx = tuple(idx.tolist())
    lam1 = reg.richness_scale
    assert len(points_idx) >= lam1

    sphere_min, spheres_idx = _rich_sphere_subfamily(membership[idx])

    F = linear_form_of(h0, q)
    assert not F.evaluate_many(config.point_array[idx], q).any()
    if witness is not None:
        assert flat_contained_in(witness, h0, fq)

    return Certificate(
        case=case,
        F=F,
        hyperplane=h0,
        points_idx=points_idx,
        spheres_idx=spheres_idx,
        witness_flat=witness,
        aux={**aux, "flags": tuple(flags)},
        params={"K": K, "lambda1": lam1, "M1": reg.degree_scale, "mu": mu,
                "B0": b0, "min_points": lam1, "sphere_min": sphere_min},
    )


def _pigeonhole_chart(directions, d: int) -> int:
    """Chart with the most directions; some chart holds at least |N|/d."""
    counts = [0] * d
    for n in directions:
        for i, c in enumerate(n):
            if c:
                counts[i] += 1
    best = max(counts)
    assert best * d >= len(directions)
    return counts.index(best) + 1


def _positions(family: tuple, members) -> list:
    """The index in a hyperplane family of each of the members."""
    at = dict(zip(family, range(len(family))))
    return [at[h] for h in members]


def _coincidence_scale(inc: np.ndarray, hyperplanes) -> int:
    """Dyadic scale of the overlaps of non-parallel hyperplane pairs on
    a point set, from its incidence matrix on the hyperplanes (one
    column each, in order)."""
    if len(hyperplanes) < 2:
        return 0
    gram = incidence_gram(inc)
    ids: dict = {}
    direction = np.asarray([ids.setdefault(h.normal, len(ids))
                            for h in hyperplanes])
    skew = np.triu(direction[:, None] != direction, 1)
    try:
        return heavy_layer_select(gram[skew]).mu
    except EmptyOverlaps:
        return 0


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
    in_window: bool
    window_bounds_ok: bool | None


def retention_check(config: Config, cert: Certificate) -> RetentionReport:
    """Double-counting and degree-window checks for the retained points.

    The incidence count between the structured points and the sphere
    family is computed in both summation orders, which must agree.
    When all retained sphere degrees happen to sit inside the recorded
    window [M1, 2*M1), the implied two-sided incidence bounds with
    constants 1 and 2 are asserted.
    """
    q = config.q
    pprime = [config.points[i] for i in cert.points_idx]
    by_sphere = int(sphere_incidence(pprime, config.spheres, q).sum(axis=0).sum())
    point_sphere_degs = [sum(sphere_contains(s, p, q) for s in config.spheres)
                         for p in pprime]
    by_point = sum(point_sphere_degs)
    ok = by_sphere == by_point
    m1 = cert.params.get("M1", 0)
    dmin = min(point_sphere_degs, default=0)
    dmax = max(point_sphere_degs, default=0)
    in_window = bool(pprime) and m1 > 0 and dmin >= m1 and dmax < 2 * m1
    window_ok = None
    if in_window:
        window_ok = (m1 * len(pprime) <= by_point <= 2 * m1 * len(pprime))
        assert window_ok
    return RetentionReport(
        incidences=by_point,
        double_count_ok=ok,
        degree_min=dmin,
        degree_max=dmax,
        in_window=in_window,
        window_bounds_ok=window_ok,
    )
