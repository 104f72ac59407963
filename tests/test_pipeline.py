import ast
import collections
import dataclasses
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ffrigidity import field, geometry, pipeline, stats, strata, verify
from ffrigidity.field import PrimeField
from ffrigidity.geometry import (PARALLEL_DISJOINT, Sphere,
                                 canonical_hyperplane, flat_contained_in,
                                 flat_from_pair, flat_points,
                                 hyperplane_contains, make_space,
                                 radical_hyperplane, sphere_contains)
from ffrigidity.generators import GeneratorSpec, generate
from ffrigidity.pipeline import (CASE_DIRECTIONAL, CASE_FLAT, CASE_NO_SIGNAL,
                                 Certificate, ExtractOptions,
                                 default_b0, extract_certificate,
                                 flat_profile, retention_check)
from ffrigidity.stats import make_config
from ffrigidity.verify import verify_certificate


def rows(hs):
    """Hyperplanes as an int64 array of rows (normal, offset)."""
    return np.array([(*h.normal, h.offset) for h in hs], dtype=np.int64)


def pencil_config(q=7):
    """Spheres centered on the circle a^2 + b^2 = 1 in the z = 0 plane,
    all with the same radius: every bisector passes through the z axis,
    giving a big pencil through one codimension-2 flat."""
    sp = make_space(q, 3)
    centers = [(a, b) for a in range(q) for b in range(q)
               if (a * a + b * b) % q == 1]
    spheres = [Sphere((a, b, 0), 2) for a, b in centers]
    points = [(0, 0, t) for t in range(q)]
    return make_config(sp, points, spheres)


def test_flat_profile_pencil():
    q = 7
    f = PrimeField(q)
    # k planes a*x1 + b*x2 = 0 all contain the z axis
    hs = [canonical_hyperplane((1, b, 0), 0, q) for b in range(4)]
    prof = flat_profile(rows(hs), f)
    assert prof.max_multiplicity == 4
    witness_pts = flat_points(prof.witness, make_space(q, 3))
    assert witness_pts == [(0, 0, t) for t in range(q)]


def _pair_flats(hs, f):
    """The scalar oracle: every pair's flat_from_pair, grouped by flat,
    and the number of parallel pairs."""
    grouped = {}
    parallel = 0
    for a, b in itertools.combinations(range(len(hs)), 2):
        out = flat_from_pair(hs[a], hs[b], f)
        if out is PARALLEL_DISJOINT:
            parallel += 1
        else:
            grouped.setdefault(out, set()).update((a, b))
    return grouped, parallel


def test_flat_profile_three_coordinate_planes():
    q = 5
    f = PrimeField(q)
    hs = [canonical_hyperplane((1, 0, 0), 0, q),
          canonical_hyperplane((0, 1, 0), 0, q),
          canonical_hyperplane((0, 0, 1), 0, q)]
    prof = flat_profile(rows(hs), f)
    assert prof.max_multiplicity == 2
    # the three coordinate axes; the least in Flat order is x2 = x3 = 0
    assert prof.witness == min(flat_from_pair(a, b, f)
                               for a, b in itertools.combinations(hs, 2))
    assert prof.witness == flat_from_pair(hs[1], hs[2], f)
    assert prof.pencil == (1, 2)


def test_flat_profile_multiplicity_matches_containment_oracle():
    rng = random.Random(82)
    q = 5
    f = PrimeField(q)
    sp = make_space(q, 3)
    hs = []
    while len(hs) < 7:
        n = tuple(rng.randrange(q) for _ in range(3))
        if any(n):
            h = canonical_hyperplane(n, rng.randrange(q), q)
            if h not in hs:
                hs.append(h)
    members = {}
    for flat in _pair_flats(hs, f)[0]:
        pts = flat_points(flat, sp)
        members[flat] = tuple(i for i, h in enumerate(hs)
                              if all(hyperplane_contains(h, x, q)
                                     for x in pts))
    top = max(len(v) for v in members.values())
    prof = flat_profile(rows(hs), f)
    assert prof.max_multiplicity == top
    assert prof.witness == min(l for l, v in members.items() if len(v) == top)
    assert prof.pencil == members[prof.witness]


def _family(rng, q, d, m):
    """m distinct canonical hyperplanes: a planted pencil through one
    flat, a parallel class of shared normal, and random members."""
    def canonical(normal, offset):
        return canonical_hyperplane(normal, offset, q)

    def random_normal():
        while True:
            n = tuple(rng.randrange(q) for _ in range(d))
            if any(n):
                return n

    h1 = canonical(random_normal(), rng.randrange(q))
    h2 = h1
    while h2.normal == h1.normal:
        h2 = canonical(random_normal(), rng.randrange(q))
    pencil = {h1, h2}
    for _ in range(m // 3):
        s, t = rng.randrange(q), rng.randrange(1, q)
        pencil.add(canonical([s * x + t * y for x, y in
                              zip(h1.normal, h2.normal)],
                             s * h1.offset + t * h2.offset))
    normal = random_normal()
    parallel = {canonical(normal, rng.randrange(q)) for _ in range(m // 4)}
    family = []
    for h in sorted(pencil) + sorted(parallel):
        if len(family) < m and h not in family:
            family.append(h)
    while len(family) < m:
        h = canonical(random_normal(), rng.randrange(q))
        if h not in family:
            family.append(h)
    rng.shuffle(family)
    return family


def _check_against_scalar_oracle(hs, q, d, monkeypatch):
    """flat_profile against pairwise flat_from_pair and containment, with
    row blocks of one row, of a few pairs and of the default size."""
    f = PrimeField(q)
    grouped = _pair_flats(hs, f)[0]
    space = make_space(q, d) if q ** d <= 4096 else None
    for flat, members in grouped.items():
        assert members == {i for i, h in enumerate(hs)
                           if flat_contained_in(flat, h, f)}
        if space is not None:
            pts = flat_points(flat, space)
            assert members == {i for i, h in enumerate(hs) if all(
                hyperplane_contains(h, x, q) for x in pts)}
    top = max((len(v) for v in grouped.values()), default=0)
    profiles = []
    for block in (1, 7, pipeline._BLOCK_PAIRS):
        monkeypatch.setattr(pipeline, "_BLOCK_PAIRS", block)
        prof = flat_profile(rows(hs), f)
        assert prof.max_multiplicity == top
        if top:
            witness = min(l for l, v in grouped.items() if len(v) == top)
            assert prof.witness == witness
            assert prof.pencil == tuple(sorted(grouped[witness]))
        else:
            assert prof.witness is None and prof.pencil == ()
        profiles.append(prof)
    monkeypatch.undo()
    return profiles[-1]


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("q", [3, 5, 61, 65521])
def test_flat_profile_matches_scalar_oracle(q, d, monkeypatch):
    rng = random.Random(q * 10 + d)
    for m in (0, 1, 2, 3, 9, 24):
        for _ in range(4):
            _check_against_scalar_oracle(_family(rng, q, d, m), q, d,
                                         monkeypatch)
    hs = _family(rng, q, d, 12)
    prof = _check_against_scalar_oracle(hs, q, d, monkeypatch)
    assert prof.max_multiplicity >= 3 and _pair_flats(hs, PrimeField(q))[1]
    with pytest.raises(AssertionError, match="distinct"):
        flat_profile(rows(hs + [hs[5]]), PrimeField(q))


@pytest.mark.parametrize("d", [3, 4])
def test_flat_profile_exact_at_the_residue_edge(d, monkeypatch):
    """At q = 65521 a family with entries 0, 1 and q - 1 drives the
    uint32 pair sum b + (q - b[lead a]) * a to its largest value,
    q**2 - 1 < 2**32; the profile still matches the scalar oracle."""
    q = 65521
    rng = random.Random(d)
    hs = [canonical_hyperplane((1,) + (q - 1,) * (d - 1), q - 1, q),
          canonical_hyperplane((0, 1) + (q - 1,) * (d - 2), q - 1, q)]
    while len(hs) < 16:
        normal = [rng.choice((0, 1, q - 1)) for _ in range(d)]
        if any(normal):
            h = canonical_hyperplane(normal, rng.choice((0, 1, q - 1)), q)
            if h not in hs:
                hs.append(h)
    aug = rows(hs).tolist()
    assert max(y + (q - b[a.index(1)]) * x
               for a, b in itertools.combinations(aug, 2)
               for x, y in zip(a, b)) == q * q - 1
    _check_against_scalar_oracle(hs, q, d, monkeypatch)


@pytest.mark.parametrize("m", range(2, 25))
def test_flat_profile_across_the_one_word_key_boundary(m, monkeypatch):
    """At d = 4, q = 4093 the packed key a * q**5 + restricted row fits
    one int64 word for m <= 8, and from m = 9 the rows go through the
    multi-word lexsort: both grouping paths match the scalar oracle at
    the same q."""
    q, d = 4093, 4
    assert (m * q ** (d + 1) < 2 ** 63) == (m <= 8)
    _check_against_scalar_oracle(_family(random.Random(m), q, d, m), q, d,
                                 monkeypatch)


@pytest.mark.parametrize("q", [5, 61])
def test_flat_profile_refuses_non_canonical_input(q):
    hs = _family(random.Random(q), q, 3, 6)
    h = hs[5]
    scaled = h._replace(normal=tuple(2 * x % q for x in h.normal),
                        offset=2 * h.offset % q)
    for bad in (scaled, h._replace(offset=h.offset + q),
                h._replace(offset=-1)):
        with pytest.raises(AssertionError, match="canonical"):
            flat_profile(rows(hs[:5] + [bad]), PrimeField(q))


def test_flat_profile_calls_no_scalar_elimination(monkeypatch):
    """Neither the scalar flat_from_pair nor rref is reached, even when
    every pair is its own maximal group (no three members share a flat)
    and every block has to compute its candidate witnesses."""
    rng = random.Random(7)
    general = [canonical_hyperplane(
        [rng.randrange(1, 65521) for _ in range(3)], rng.randrange(65521),
        65521) for _ in range(14)]
    families = [(general, 65521), (_family(rng, 65521, 3, 24), 65521),
                (_family(rng, 61, 3, 24), 61)]
    expected = []
    for hs, q in families:
        grouped = _pair_flats(hs, PrimeField(q))[0]
        top = max(len(v) for v in grouped.values())
        witness = min(l for l, v in grouped.items() if len(v) == top)
        expected.append((top, witness, tuple(sorted(grouped[witness]))))
    assert expected[0][0] == 2
    assert len(_pair_flats(general, PrimeField(65521))[0]) == 14 * 13 // 2

    def forbidden(*args, **kwargs):
        raise RuntimeError("scalar elimination called")

    for module, name in ((field, "rref"), (geometry, "rref"),
                         (geometry, "flat_from_pair")):
        monkeypatch.setattr(module, name, forbidden)
    for block in (1, 7, pipeline._BLOCK_PAIRS):
        monkeypatch.setattr(pipeline, "_BLOCK_PAIRS", block)
        for (hs, q), want in zip(families, expected):
            prof = flat_profile(rows(hs), PrimeField(q))
            assert (prof.max_multiplicity, prof.witness,
                    prof.pencil) == want


def test_flat_profile_memory_is_bounded():
    """Row blocks of uint32 residues keep the profile of a 1500-member
    family near 1 MB (the all-pairs pass peaked at about 314 MB here,
    int64 row blocks at about 1.9 MB)."""
    q = 61
    family = rows(_family(random.Random(1500), q, 3, 1500))
    tracemalloc.start()
    try:
        prof = flat_profile(family, PrimeField(q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the planted pencil holds all q + 1 planes through its line
    assert prof.max_multiplicity == q + 1
    assert peak < 4 << 20


def test_extract_case_threshold_is_the_flat_multiplicity():
    """On the circle pencil every bisector is one of the q + 1 planes
    through the z axis, each one retained, so m_max = q + 1: b0 = m_max - 1
    gives the flat case, b0 = m_max the directional one."""
    q = 7
    cfg = pencil_config(q)
    bisectors = {radical_hyperplane(s, t, q)
                 for s, t in itertools.combinations(cfg.spheres, 2)}
    assert len(bisectors) == q + 1
    assert all(h.offset == 0 and h.normal[2] == 0 for h in bisectors)
    m_max = q + 1
    flat = extract_certificate(cfg, ExtractOptions(b0=m_max - 1)).to_dict()
    assert flat["case"] == CASE_FLAT and flat["params"]["B0"] == m_max - 1
    assert flat["aux"]["witness_flat"] == {"rows": [[1, 0, 0], [0, 1, 0]],
                                           "values": [0, 0]}
    directional = extract_certificate(cfg, ExtractOptions(b0=m_max))
    assert directional.case == CASE_DIRECTIONAL
    assert directional.to_dict()["aux"]["witness_flat"] is None
    for cert in (flat, directional.to_dict()):
        assert verify_certificate(cfg, cert) == []


def test_extract_parallel_family_stays_directional():
    """Centres on one line with one radius: every bisector is a plane
    x1 = const, so no flat lies in two members, even at b0 = 1."""
    q = 5
    spheres = [Sphere((t, 0, 0), 1) for t in range(q)]
    assert {radical_hyperplane(s, t, q).normal for s, t in
            itertools.combinations(spheres, 2)} == {(1, 0, 0)}
    cfg = make_config(make_space(q, 3),
                      [(0, a, b) for a in range(q) for b in range(q)],
                      spheres)
    cert = extract_certificate(cfg, ExtractOptions(b0=1))
    assert cert.case == CASE_DIRECTIONAL and cert.witness_flat is None
    assert cert.hyperplane == canonical_hyperplane((1, 0, 0), 0, q)
    assert cert.points_idx == tuple(range(q * q))
    assert verify_certificate(cfg, cert.to_dict()) == []


def test_extract_flat_concentration_end_to_end():
    cfg = pencil_config(7)
    cert = extract_certificate(cfg)
    assert cert.case == CASE_FLAT
    assert cert.witness_flat is not None
    # the witness is the z axis and the certificate plane contains it
    sp = make_space(7, 3)
    axis = [(0, 0, t) for t in range(7)]
    assert flat_points(cert.witness_flat, sp) == axis
    for p in axis:
        assert hyperplane_contains(cert.hyperplane, p, 7)
    assert verify_certificate(cfg, cert.to_dict()) == []
    assert len(cert.points_idx) >= cert.params["min_points"]


def test_extract_no_signal_on_concentric_family():
    sp = make_space(5, 3)
    cfg = make_config(sp, [(1, 0, 0), (2, 0, 0)],
                      [Sphere((0, 0, 0), r) for r in range(3)])
    cert = extract_certificate(cfg)
    assert cert.case == CASE_NO_SIGNAL
    assert cert.hyperplane is None
    assert cert.flags == ("no-persistent-pairs",)
    assert verify_certificate(cfg, cert.to_dict()) == []


def test_default_b0_floor():
    from ffrigidity.exact import SqrtRational
    assert default_b0(SqrtRational.zero(), 3) == 6
    assert default_b0(SqrtRational(Fraction(9), 1), 3) == 9
    assert default_b0(SqrtRational(Fraction(5), 1), 4) == 8


def test_extract_certificate_postconditions_random():
    rng = random.Random(84)
    checked = 0
    for _ in range(12):
        q = rng.choice((5, 7))
        sp = make_space(q, 3)
        pts = {tuple(rng.randrange(q) for _ in range(3))
               for _ in range(rng.randrange(10, 30))}
        sph = {Sphere(tuple(rng.randrange(q) for _ in range(3)),
                      rng.randrange(q))
               for _ in range(rng.randrange(4, 12))}
        cfg = make_config(sp, sorted(pts), sorted(sph))
        cert = extract_certificate(cfg)
        assert verify_certificate(cfg, cert.to_dict()) == []
        if cert.case == CASE_NO_SIGNAL:
            continue
        checked += 1
        q_ = cfg.q
        for i in cert.points_idx:
            assert hyperplane_contains(cert.hyperplane, cfg.points[i], q_)
        assert cert.points_idx == tuple(sorted(set(cert.points_idx)))
        assert len(cert.points_idx) >= cert.params["min_points"]
    assert checked >= 4


# sha256 of `extract` JSON, as the CLI writes it, for small configs that
# end in each of the three cases at d = 3 and d = 4; a change to the
# counting code must leave these certificate bytes as they are
GOLDEN_CERTIFICATES = [
    # kind, q, d, np, ns, seed, noise, c_const, b0, case, sha256
    ("uniform-random", 5, 3, 20, 8, 0, 0.0, "1/4", None, "directional-coordination",
     "44a907a10c699b21fe342dbb7cce89b7adeac19aa5635172971a6437370daa2e"),
    ("uniform-random", 5, 3, 30, 30, 0, 0.0, "1/4", None, "directional-coordination",
     "647dbd9aa10fe608acdd86cd5539b29121af841dfac732eeac107634f9ef155c"),
    ("reflected-pairs", 7, 3, 30, 30, 0, 0.2, "1/4", None, "directional-coordination",
     "fb4eadd4642e1e9753507d6c175da84d46fceea33c0c379c20697010dcf64afa"),
    ("uniform-random", 7, 3, 30, 30, 0, 0.0, "1/4", None, "flat-concentration",
     "43dc2f9a187d5ee6ae2c4fd86397bf07360e04d040749ebc10e8b294be56e1ba"),
    ("hyperplane-planted", 7, 3, 30, 20, 1, 0.0, "1/4", None, "flat-concentration",
     "0867159399f81aeaa5a11bbf81d49b36b5f96432f65c024c6b5c10c97f37d03f"),
    ("uniform-random", 7, 3, 30, 30, 0, 0.0, "50", None, "no-signal",
     "9b3b475dd2a145cb8b130c93396797680e536b32e84cc70aee5560f9d0e8a6a3"),
    ("uniform-random", 5, 4, 40, 12, 0, 0.0, "1/4", None, "directional-coordination",
     "c9fd64cef732ba8650b4310372b77b19f205f090ef9e0d61806414d2056db4d5"),
    ("reflected-pairs", 5, 4, 40, 12, 1, 0.0, "1/4", None, "directional-coordination",
     "0977c6b7fc9a78ee7cb32e48fe5ae7e359309020f5c31527925c367fffa177eb"),
    ("quadric-planted", 5, 4, 40, 12, 1, 0.0, "1/4", 2, "flat-concentration",
     "77b6bc342655b88fac340b1a8687e860ab621ae313c8971780f6fe2b6b0f11ef"),
    ("hyperplane-planted", 5, 4, 40, 12, 2, 0.0, "1/4", 1, "flat-concentration",
     "ebc172df7993342fba642437a396365a91c2363d7e724f5111c0ddb963a143a1"),
    ("hyperplane-planted", 5, 4, 40, 12, 0, 0.0, "50", None, "no-signal",
     "fbb24175ff296bac47bdfdc8ab315f0a3653cccc3220417bfbd6f7b3cb7e8a27"),
    ("uniform-random", 5, 4, 30, 30, 1, 0.0, "50", None, "no-signal",
     "853231cbbe11819451c5cae39adb43f9e09c47b161b3bd6f101e59ad6ea32df6"),
]


def test_certificate_bytes_match_golden_digests():
    for (kind, q, d, np_, ns, seed, noise, c_const, b0, case,
         digest) in GOLDEN_CERTIFICATES:
        gconf = generate(GeneratorSpec(kind, q, d, np_, ns, seed, noise))
        cert = extract_certificate(
            gconf.config, ExtractOptions(c_const=Fraction(c_const), b0=b0))
        text = json.dumps(cert.to_dict(), indent=2) + "\n"
        assert cert.case == case
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (
            kind, q, d, np_, ns, seed)


def test_extract_computes_each_incidence_once(monkeypatch):
    # the bisector incidence is sliced, never recomputed, past strata;
    # the one Gram is the |S| x |S| one of the energies, and the only
    # other hyperplane incidence is the final guard's column of P' on h0
    calls = collections.Counter()
    hyperplane_args = []

    def counting(kernel):
        def wrapper(*args, **kwargs):
            calls[kernel.__name__] += 1
            if kernel is geometry.hyperplane_incidence:
                hyperplane_args.append(args[1])
            return kernel(*args, **kwargs)
        return wrapper

    # every name an extract stage could call a kernel through
    for module in (strata, pipeline, stats):
        for name in ("hyperplane_incidence", "sphere_incidence",
                     "incidence_gram"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(getattr(geometry, name)))
    for (kind, q, d, np_, ns, seed, noise, c_const, b0, case,
         _) in GOLDEN_CERTIFICATES:
        calls.clear()
        hyperplane_args.clear()
        gconf = generate(GeneratorSpec(kind, q, d, np_, ns, seed, noise))
        cert = extract_certificate(
            gconf.config, ExtractOptions(c_const=Fraction(c_const), b0=b0))
        assert cert.case == case
        guard = [[cert.hyperplane]] if case != CASE_NO_SIGNAL else []
        assert hyperplane_args[1:] == guard
        assert calls == {"hyperplane_incidence": 1 + len(guard),
                         "sphere_incidence": 1, "incidence_gram": 1}


def test_directional_extract_runs_no_dichotomy(monkeypatch):
    # h0 comes from the popular direction and offset alone; no vanishing
    # form is solved for on the extract path
    def refuse(*args, **kwargs):
        raise AssertionError("extract reached the dichotomy")

    modules = [m for n, m in sys.modules.items()
               if n == "ffrigidity" or n.startswith("ffrigidity.")]
    refused = set()
    for module in modules:
        for name in ("dichotomy", "kernel_basis"):
            if callable(getattr(module, name, None)):
                monkeypatch.setattr(module, name, refuse)
                refused.add(f"{module.__name__}.{name}")
    assert refused >= {"ffrigidity.dichotomy", "ffrigidity.field.kernel_basis",
                       "ffrigidity.dichotomy.dichotomy",
                       "ffrigidity.dichotomy.kernel_basis"}
    directional = [row for row in GOLDEN_CERTIFICATES
                   if row[9] == CASE_DIRECTIONAL]
    assert len(directional) == 5
    for (kind, q, d, np_, ns, seed, noise, c_const, b0, case,
         _) in directional:
        cfg = generate(GeneratorSpec(kind, q, d, np_, ns, seed, noise)).config
        cert = extract_certificate(
            cfg, ExtractOptions(c_const=Fraction(c_const), b0=b0))
        assert cert.case == case
        assert verify_certificate(cfg, cert.to_dict()) == []


class _UnreadablePoints(tuple):
    """Point tuples whose length and truth value can be read, but which
    refuse iteration and indexing."""

    def __iter__(self):
        raise AssertionError("config.points iterated")

    def __getitem__(self, key):
        raise AssertionError("config.points indexed")


def test_extract_reads_points_only_through_point_array():
    # a stage that rebuilds the point array from the tuples trips this
    cases = [(row[:7], ExtractOptions(c_const=Fraction(row[7]), b0=row[8]))
             for row in GOLDEN_CERTIFICATES]
    cases.append((("reflected-pairs", 31, 3, 400, 40, 0, 0.1), None))
    for spec, opts in cases:
        cfg = generate(GeneratorSpec(*spec)).config
        tripwire = dataclasses.replace(
            cfg, points=_UnreadablePoints(cfg.points))
        with pytest.raises(AssertionError):
            list(tripwire.points)
        assert len(tripwire.points) == len(cfg.points)
        assert json.dumps(extract_certificate(tripwire, opts).to_dict()) \
            == json.dumps(extract_certificate(cfg, opts).to_dict())


def test_certificate_json_shape():
    cfg = pencil_config(7)
    cert = extract_certificate(cfg)
    doc = cert.to_dict()
    assert list(doc) == ["schema", "case", "hyperplane", "points",
                         "spheres", "aux", "params"]
    assert doc["schema"] == 4
    assert list(doc["hyperplane"]) == ["normal", "offset"]
    assert list(doc["aux"]) == ["flags", "witness_flat"]
    assert list(doc["params"]) == ["K", "B0", "min_points", "sphere_min"]
    json.dumps(doc)  # must be serializable as-is


def test_retention_check_reports():
    cfg = pencil_config(7)
    cert = extract_certificate(cfg)
    rep = retention_check(cfg, cert)
    assert rep.double_count_ok
    assert rep.incidences >= 0


def test_verify_rejects_wrong_hyperplane():
    cfg = pencil_config(7)
    doc = extract_certificate(cfg).to_dict()
    doc["hyperplane"]["offset"] = (doc["hyperplane"]["offset"] + 1) % 7
    assert verify_certificate(cfg, doc)


def test_verify_rejects_out_of_range_point():
    cfg = pencil_config(7)
    doc = extract_certificate(cfg).to_dict()
    doc["points"] = doc["points"] + [len(cfg.points)]
    assert verify_certificate(cfg, doc)


def test_verify_rejects_inflated_sphere_claim():
    cfg = pencil_config(7)
    doc = extract_certificate(cfg).to_dict()
    doc["params"]["sphere_min"] = 10 ** 6
    assert verify_certificate(cfg, doc)


def _index_case():
    """A directional certificate with 24 of 30 points and 18 of 30
    spheres, min_points 16."""
    g = generate(GeneratorSpec("reflected-pairs", 7, 3, 30, 30, 0, 0.2))
    doc = json.loads(json.dumps(extract_certificate(g.config).to_dict()))
    assert (len(doc["points"]), len(doc["spheres"])) == (24, 18)
    assert doc["params"]["min_points"] == 16
    return g.config, doc


@pytest.mark.parametrize("key", ["points", "spheres"])
@pytest.mark.parametrize("bad", [10 ** 30, -1, 30, 1.0, "3", True, None])
def test_verify_names_the_first_bad_index(key, bad):
    cfg, doc = _index_case()
    name = key[:-1]
    assert verify_certificate(cfg, doc) == []
    for pos in (0, 5, len(doc[key])):
        # the entries after a bad one, valid or not, are not read
        for tail in ([], [-2], ["x"]):
            idx = doc[key][:pos] + [bad] + doc[key][pos:] + tail
            assert verify_certificate(cfg, dict(doc, **{key: idx})) == [
                f"{name} index {bad!r} out of range"]


@pytest.mark.parametrize("key", ["points", "spheres"])
def test_verify_index_list_failure_lines(key):
    cfg, doc = _index_case()
    name, idx = key[:-1], doc[key]
    unordered = f"{name} indices must be sorted and distinct"
    for bad in (idx[:1] + idx, idx[:5] + idx[4:], idx[::-1],
                [idx[1], idx[0]] + idx[2:], idx[:-2] + [idx[-1], idx[-2]]):
        assert verify_certificate(cfg, dict(doc, **{key: bad})) == [unordered]
    lines = [f"{key} must be an index list"]
    if key == "points":
        lines.append("only 0 structured points, need 16")
    for bad in ("x", 3, None, {"0": 1}, tuple(idx)):
        assert verify_certificate(cfg, dict(doc, **{key: bad})) == lines
    missing = {k: v for k, v in doc.items() if k != key}
    assert verify_certificate(cfg, missing) == lines
    # an empty list is a list: only the point floor fails
    assert verify_certificate(cfg, dict(doc, **{key: []})) == lines[1:]


def _certified_configs():
    for kind, q in (("reflected-pairs", 7), ("reflected-pairs", 13),
                    ("uniform-random", 11), ("hyperplane-planted", 11),
                    ("quadric-planted", 7)):
        for seed in range(3):
            g = generate(GeneratorSpec(kind, q, 3, 5 * q, 10, seed=seed,
                                       noise=0.1))
            doc = extract_certificate(g.config).to_dict()
            if doc["case"] != CASE_NO_SIGNAL:
                yield g.config, doc


def test_verify_sphere_degrees_match_scalar_count():
    rng = random.Random(17)
    checked = 0
    for cfg, doc in _certified_configs():
        q = cfg.q
        pts = [cfg.points[i] for i in doc["points"]]
        degs = [sum(sphere_contains(s, p, q) for p in pts)
                for s in cfg.spheres]
        # every listed sphere, rich or not, reports its scalar degree
        listed = sorted(rng.sample(range(len(cfg.spheres)), 6))
        need = max(degs) + 1
        bad = dict(doc, spheres=listed,
                   params=dict(doc["params"], sphere_min=need))
        assert verify_certificate(cfg, bad) == [
            f"sphere {i} holds {degs[i]} structured points, need {need}"
            for i in listed]
        # one above the true minimum of a family with a unique minimum
        low = min(degs[i] for i in doc["spheres"])
        first = next(i for i in doc["spheres"] if degs[i] == low)
        family = [i for i in doc["spheres"] if i == first or degs[i] > low]
        bad = dict(doc, spheres=family,
                   params=dict(doc["params"], sphere_min=low + 1))
        assert verify_certificate(cfg, bad) == [
            f"sphere {first} holds {low} structured points, need {low + 1}"]
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("block", [None, 1, 8 * 130])
@pytest.mark.parametrize("d", [3, 4])
def test_verify_sphere_degrees_exact_at_the_modulus_edge(d, block,
                                                         monkeypatch):
    # coordinates and centres at 0, q - 1 and q - 2 give the largest
    # differences; 301 points x 130 spheres span several row blocks: of
    # one row, or of 252 (the default) or 8 rows with a shorter last one
    q = 65521
    rng = random.Random(d)
    corners = list(itertools.product((0, q - 1, q - 2), repeat=d))
    mixed = lambda: tuple(rng.choice((0, q - 1, q - 2, rng.randrange(q)))
                          for _ in range(d))
    points = list(dict.fromkeys(corners + [mixed() for _ in range(900)]))
    points = points[:301]
    spheres = {}
    while len(spheres) < 130:
        c = rng.choice(corners) if rng.random() < 0.7 else mixed()
        x = rng.choice(corners if rng.random() < 0.7 else points)
        r = sum((a - b) ** 2 for a, b in zip(x, c)) % q
        spheres[Sphere(c, r if rng.random() < 0.9 else rng.randrange(q))] = 0
    spheres = list(spheres)
    assert len(points) == 301
    degs = [sum(sphere_contains(s, p, q) for p in points) for s in spheres]
    assert sum(degs) >= 2 * len(spheres) and max(degs) >= 10 and 0 in degs
    if block is not None:
        monkeypatch.setattr(verify, "_BLOCK_CELLS", block)
    got = verify._sphere_degrees(np.array(points, dtype=np.int64), spheres, q)
    assert got.tolist() == degs
    # the same counts through a whole document
    cfg = make_config(make_space(q, d), points, spheres)
    need = max(degs) + 1
    doc = {"schema": 4, "case": CASE_DIRECTIONAL,
           "hyperplane": {"normal": [1] + [0] * (d - 1), "offset": 0},
           "points": list(range(len(points))),
           "spheres": list(range(len(spheres))),
           "params": {"min_points": 0, "sphere_min": need}}
    off = sum(p[0] != 0 for p in points)
    assert verify_certificate(cfg, doc) == [
        f"hyperplane misses {off} structured point(s)"] + [
        f"sphere {i} holds {deg} structured points, need {need}"
        for i, deg in enumerate(degs)]


def test_verify_counts_points_off_the_hyperplane():
    rng = random.Random(23)
    checked = 0
    for cfg, doc in _certified_configs():
        q = cfg.q
        h = geometry.Hyperplane(tuple(doc["hyperplane"]["normal"]),
                                doc["hyperplane"]["offset"])
        on = [hyperplane_contains(h, p, q) for p in cfg.points]
        assert all(on[i] for i in doc["points"])
        off = [i for i in range(len(cfg.points)) if not on[i]]
        spare = sorted(set(range(len(cfg.points))) - set(doc["points"])
                       - set(off))
        for k in (1, 3, len(off)):
            # k points off H, and up to two points of H not in P'; adding
            # points raises no sphere degree, so the miss is the one failure
            extra = rng.sample(off, min(k, len(off))) + spare[:2]
            points = sorted(doc["points"] + extra)
            bad = sum(not on[i] for i in points)
            got = verify_certificate(cfg, dict(doc, points=points))
            if bad:
                assert got == [f"hyperplane misses {bad} structured point(s)"]
                checked += 1
            else:
                assert got == []
    assert checked >= 24


def _import_names(module) -> set:
    """Names a module imports: `from` imports by name, and plain imports
    by module."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {(node.level, node.module, a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {(0, a.name, None) for a in node.names}
    return names


def test_verify_and_pipeline_imports():
    from ffrigidity import verify
    assert _import_names(verify) == {(1, "field", "PrimeField"),
                                     (1, "field", "rref"),
                                     (1, "stats", "Config"),
                                     (0, "numpy", None)}
    assert not any("dichotomy" in (module, name)
                   for _, module, name in _import_names(pipeline))


def test_extract_and_verify_reach_no_dichotomy_code():
    ran = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(
                "dichotomy.py"):
            ran.add(frame.f_code.co_name)

    for (kind, q, d, np_, ns, seed, noise, c_const, b0, case,
         _) in GOLDEN_CERTIFICATES:
        cfg = generate(GeneratorSpec(kind, q, d, np_, ns, seed, noise)).config
        opts = ExtractOptions(c_const=Fraction(c_const), b0=b0)
        sys.setprofile(profile)
        try:
            doc = extract_certificate(cfg, opts).to_dict()
            failures = verify_certificate(cfg, doc)
        finally:
            sys.setprofile(None)
        assert failures == []
    assert ran == set()


def test_verify_runs_no_pipeline_code():
    # stats.py runs (Config.q and Config.d are properties), and field.py
    # for a witness flat; no pipeline layer may run while verifying
    package = Path(verify.__file__).parent
    ran = collections.defaultdict(set)

    def profile(frame, event, arg):
        path = Path(frame.f_code.co_filename)
        if event == "call" and path.parent == package:
            ran[path.stem].add(frame.f_code.co_name)

    for (kind, q, d, np_, ns, seed, noise, c_const, b0, case,
         _) in GOLDEN_CERTIFICATES:
        cfg = generate(GeneratorSpec(kind, q, d, np_, ns, seed, noise)).config
        opts = ExtractOptions(c_const=Fraction(c_const), b0=b0)
        doc = json.loads(json.dumps(extract_certificate(cfg, opts).to_dict()))
        sys.setprofile(profile)
        try:
            failures = verify_certificate(cfg, doc)
        finally:
            sys.setprofile(None)
        assert failures == []
    assert not ran.keys() & {"geometry", "strata", "multiset", "pipeline",
                             "dichotomy"}, dict(ran)
    assert {"_indices", "_sphere_degrees"} <= ran["verify"]
    assert "rref" in ran["field"]


def test_no_numpy_ma_import():
    code = (
        "import sys\n"
        "from ffrigidity.generators import KINDS, GeneratorSpec, generate\n"
        "from ffrigidity.pipeline import extract_certificate\n"
        "from ffrigidity.verify import verify_certificate\n"
        "for kind in KINDS:\n"
        "    g = generate(GeneratorSpec(kind, 7, 3, 40, 8, seed=1))\n"
        "    cert = extract_certificate(g.config)\n"
        "    assert not verify_certificate(g.config, cert.to_dict())\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
