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

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import isqrt

import numpy as np

from .dichotomy import (Polynomial, affine_dichotomy, minimal_degree)
from .exact import SqrtRational
from .field import PrimeField
from .geometry import (Flat, Hyperplane, flat_contained_in, flat_from_pair,
                       hyperplane_incidence, sphere_contains, sphere_incidence,
                       IDENTICAL, PARALLEL_DISJOINT)
from .multiset import (HyperplaneMultiset, build_multiset, mass_retention,
                       parallel_classes, popular_offset, richness_counts)
from .stats import Config, energies
from .strata import (EmptyOverlaps, RegularizationDegenerate,
                     heavy_layer_select, persistent_pairs, regularize,
                     richness_threshold)

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
    inc = hyperplane_incidence(points, hyperplanes, q).astype(np.int64)
    degs = inc.sum(axis=1)
    j_from_degrees = int((degs * (degs - 1)).sum())
    gram = inc.T @ inc
    j_pairwise = int(gram.sum() - np.trace(gram))
    assert j_from_degrees == j_pairwise
    return j_from_degrees


@dataclass(frozen=True)
class FlatProfile:
    multiplicity: dict
    pairs_by_flat: dict
    parallel_pairs: int
    max_multiplicity: int
    witness: Flat | None


def flat_profile(hyperplanes, field: PrimeField) -> FlatProfile:
    """Multiplicity of every intersection flat of a hyperplane family.

    Any two distinct hyperplanes through a common codimension-2 flat
    intersect exactly in it, so the number of unordered pairs mapping to
    a flat L is C(m(L), 2) with m(L) the number of family members
    containing L.  That identity recovers every m(L) from the pair
    grouping and is asserted, as is the fiber bound: each member meets
    its non-parallel partners in at least (partner count) / m_max
    distinct flats.
    """
    hps = list(hyperplanes)
    grouped: dict = {}
    parallel = 0
    for a in range(len(hps)):
        for b in range(a + 1, len(hps)):
            out = flat_from_pair(hps[a], hps[b], field)
            if out is PARALLEL_DISJOINT:
                parallel += 1
                continue
            assert out is not IDENTICAL, "support hyperplanes must be distinct"
            grouped.setdefault(out, []).append((a, b))
    multiplicity = {}
    for flat, pairs in grouped.items():
        f = len(pairs)
        m = (1 + isqrt(1 + 8 * f)) // 2
        assert m * (m - 1) == 2 * f
        multiplicity[flat] = m
    max_mult = max(multiplicity.values(), default=0)
    witness = None
    if multiplicity:
        witness = min(l for l, m in multiplicity.items() if m == max_mult)
    if max_mult:
        partners = [0] * len(hps)
        fibers = [set() for _ in hps]
        for flat, pairs in grouped.items():
            for a, b in pairs:
                partners[a] += 1
                partners[b] += 1
                fibers[a].add(flat)
                fibers[b].add(flat)
        for a in range(len(hps)):
            assert len(fibers[a]) * max_mult >= partners[a]
    return FlatProfile(
        multiplicity=multiplicity,
        pairs_by_flat={l: tuple(p) for l, p in grouped.items()},
        parallel_pairs=parallel,
        max_multiplicity=max_mult,
        witness=witness,
    )


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
        idx = {i: h for i, h in enumerate(ms.support)}
        members = set()
        for a, b in profile.pairs_by_flat[profile.witness]:
            members.add(idx[a])
            members.add(idx[b])
        return CaseSplit(CASE_FLAT, profile.witness, tuple(sorted(members)),
                         (), profile.max_multiplicity, b0)
    _, directions = parallel_classes(ms)
    return CaseSplit(CASE_DIRECTIONAL, None, (), directions,
                     profile.max_multiplicity, b0)


@dataclass(frozen=True)
class ExtractOptions:
    c_const: Fraction = Fraction(1, 4)
    b0: int | None = None
    richness_override: int | None = None
    sphere_mass_fraction: Fraction = Fraction(1, 2)


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
    regularized_points: tuple = dataclass_field(default=(), repr=False)
    pencil: tuple = dataclass_field(default=(), repr=False)

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
    stats = energies(config)
    K = stats.K
    b0 = opts.b0 if opts.b0 is not None else default_b0(K, d)

    pp = persistent_pairs(config, K, opts.c_const,
                          threshold=opts.richness_override)
    if not pp.pairs:
        return _no_signal(K, b0, "no-persistent-pairs")
    ms = build_multiset(pp.pairs, config, pp.threshold)
    if not ms.support:
        return _no_signal(K, b0, "empty-multiset")
    try:
        reg = regularize(config.points, ms, q, d)
    except RegularizationDegenerate:
        return _no_signal(K, b0, "regularization-degenerate")
    retained = mass_retention(reg.multiset).retained

    p2 = reg.points
    mu = _coincidence_scale(p2, retained.support, q)
    split = case_split(retained, b0, fq)

    flags: list = []
    aux: dict = {"R": None, "chart": None, "D": None}
    witness = None
    pencil: tuple = ()
    if split.tag == CASE_FLAT:
        witness = split.witness
        rich = richness_counts(p2, list(split.pencil), q, d)
        top = max(rich)
        h0 = min(h for h, r in zip(split.pencil, rich) if r == top)
        pencil = split.pencil
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

    point_index = {p: i for i, p in enumerate(config.points)}
    on_h0 = [p for p, on in zip(p2, hyperplane_incidence(p2, [h0], q)[:, 0])
             if on]
    points_idx = tuple(sorted(point_index[p] for p in on_h0))
    lam1 = reg.richness_scale
    assert len(points_idx) >= lam1

    sphere_min, spheres_idx = _rich_sphere_subfamily(
        config, on_h0, opts.sphere_mass_fraction)

    F = linear_form_of(h0, q)
    for p in on_h0:
        assert F.evaluate(p, q) == 0
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
        regularized_points=p2,
        pencil=pencil,
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


def _coincidence_scale(points, hyperplanes, q: int) -> int:
    """Dyadic scale of the overlaps of non-parallel hyperplane pairs on
    the point set."""
    if len(hyperplanes) < 2:
        return 0
    inc = hyperplane_incidence(points, hyperplanes, q).astype(np.int64)
    gram = inc.T @ inc
    ids: dict = {}
    direction = np.asarray([ids.setdefault(h.normal, len(ids))
                            for h in hyperplanes])
    a, b = np.triu_indices(len(hyperplanes), k=1)
    skew = direction[a] != direction[b]
    try:
        return heavy_layer_select(gram[a[skew], b[skew]].tolist()).mu
    except EmptyOverlaps:
        return 0


def _rich_sphere_subfamily(config: Config, pprime, fraction: Fraction):
    """Largest dyadic richness threshold keeping at least the given
    fraction of the incidence mass between P' and the sphere family."""
    degs = sphere_incidence(pprime, config.spheres, config.q).sum(axis=0).tolist()
    total = sum(degs)
    if total == 0:
        return 1, ()
    t = 1
    best = 1
    while t <= max(degs):
        retained = sum(v for v in degs if v >= t)
        if Fraction(retained) >= fraction * total:
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
    energy_ratio: Fraction | None
    size_ratio: Fraction | None


def retention_check(config: Config, cert: Certificate) -> RetentionReport:
    """Double-counting and degree-window checks for the retained points.

    The incidence count between the structured points and the sphere
    family is computed in both summation orders, which must agree.
    When all retained sphere degrees happen to sit inside the recorded
    window [M1, 2*M1), the implied two-sided incidence bounds with
    constants 1 and 2 are asserted.  Energy and size ratios compare the
    structured points against the regularized point set.
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
    energy_ratio = None
    size_ratio = None
    if cert.regularized_points:
        e_prime = sum(v * v for v in point_sphere_degs)
        reg_degs = sphere_incidence(cert.regularized_points, config.spheres,
                                    q).sum(axis=1)
        e_reg = int((reg_degs * reg_degs).sum())
        if e_reg:
            energy_ratio = Fraction(e_prime, e_reg)
        size_ratio = Fraction(len(pprime), len(cert.regularized_points))
    return RetentionReport(
        incidences=by_point,
        double_count_ok=ok,
        degree_min=dmin,
        degree_max=dmax,
        in_window=in_window,
        window_bounds_ok=window_ok,
        energy_ratio=energy_ratio,
        size_ratio=size_ratio,
    )
