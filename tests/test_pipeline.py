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
from hypothesis import given
from hypothesis import strategies as st

from ffrigidity import field, geometry, pipeline, stats, strata, verify
from ffrigidity.field import PrimeField
from ffrigidity.geometry import (PARALLEL_DISJOINT, Hyperplane, Sphere,
                                 canonical_hyperplane, flat_contained_in,
                                 flat_from_pair, flat_points,
                                 hyperplane_contains, make_space,
                                 radical_hyperplane, sphere_contains)
from ffrigidity.generators import GeneratorSpec, generate
from ffrigidity.multiset import build_multiset, mass_retention
from ffrigidity.pipeline import (CASE_DIRECTIONAL, CASE_FLAT, CASE_NO_SIGNAL,
                                 ExtractOptions, default_b0,
                                 extract_certificate, flat_profile)
from ffrigidity.stats import make_config
from ffrigidity.verify import verify_certificate


def rows(family):
    """Hyperplanes or spheres as an int64 array of rows (normal, offset)
    or (center, r)."""
    return np.array([(*a, b) for a, b in family], dtype=np.int64)


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
    assert len(prof.pencil) == 4
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
    assert len(prof.pencil) == 2
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
    assert len(prof.pencil) == top
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
        assert len(prof.pencil) == top
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
    assert len(prof.pencil) >= 3 and _pair_flats(hs, PrimeField(q))[1]
    with pytest.raises(AssertionError, match="distinct"):
        flat_profile(rows(hs + [hs[5]]), PrimeField(q))


# the q = 65521 cases are named by d alone
@pytest.mark.parametrize("q, d", [(65521, 3), (65521, 4), (251, 3), (251, 4)],
                         ids=["3", "4", "251-3", "251-4"])
def test_flat_profile_exact_at_the_residue_edge(q, d, monkeypatch):
    """A family with entries 0, 1 and q - 1 drives the pair sum
    b + (q - b[lead a]) * a to its largest value, q**2 - 1: 63000 in
    uint16 at q = 251, the largest prime with q**2 <= 2**16, and
    q**2 - 1 < 2**32 in uint32 at q = 65521; the profile still matches
    the scalar oracle, and the pair rows have the rule's dtype."""
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
    dtypes = set()
    monkeypatch.setattr(pipeline, "scale_to_lead", lambda r, q: (
        dtypes.add(r.dtype), field.scale_to_lead(r, q)))
    _check_against_scalar_oracle(hs, q, d, monkeypatch)
    assert dtypes == {np.dtype({251: np.uint16, 65521: np.uint32}[q])}


@pytest.mark.parametrize("m", range(2, 25))
def test_flat_profile_across_the_one_word_key_boundary(m, monkeypatch):
    """At d = 4, q = 4093 the packed key a * q**5 + restricted row fits
    one int64 word for m <= 8, and from m = 9 the rows go through the
    multi-word lexsort: each m takes its path, and both grouping paths
    match the scalar oracle at the same q."""
    q, d = 4093, 4
    assert (m * q ** (d + 1) < 2 ** 63) == (m <= 8)
    hs = _family(random.Random(m), q, d, m)
    # the first sort of the one block's m(m-1)/2 pair keys names the
    # path: np.sort of one word, or np.lexsort of d + 2 words
    sorts = []
    with monkeypatch.context() as patch:
        for name in ("sort", "lexsort"):
            def recording(keys, *args, _name=name, _sort=getattr(np, name),
                          **kwargs):
                sorts.append((_name, len(keys)))
                return _sort(keys, *args, **kwargs)
            patch.setattr(np, name, recording)
        flat_profile(rows(hs), PrimeField(q))
    assert sorts[0] == (("sort", m * (m - 1) // 2) if m <= 8
                        else ("lexsort", d + 2))
    _check_against_scalar_oracle(hs, q, d, monkeypatch)


@pytest.mark.parametrize("q, d", [(5, 3), (61, 3), (4093, 4)])
def test_flat_profile_counts_no_parallel_group(q, d, monkeypatch):
    """Parallel members share no flat, so a parallel class larger than
    any pencil leaves the profile to the other members, and a family of
    one class has none; on the one-word key path and (q = 4093, d = 4,
    more than 8 members) the lexsort path."""
    rng = random.Random(q)
    normal = [1] + [rng.randrange(q) for _ in range(d - 1)]
    offsets = rng.sample(range(q), min(q, 12))
    parallel = [canonical_hyperplane(normal, b, q) for b in offsets]
    prof = flat_profile(rows(parallel), PrimeField(q))
    assert (prof.witness, prof.pencil) == (None, ())
    others = [h for h in _family(rng, q, d, 4) if h.normal != tuple(normal)]
    _check_against_scalar_oracle(parallel + others, q, d, monkeypatch)


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
            assert (len(prof.pencil), prof.witness,
                    prof.pencil) == want


def test_flat_profile_memory_is_bounded():
    """Row blocks of uint16 residues, each freed before the next, keep the
    profile of a 1500-member family near 0.3 MB (the all-pairs pass
    peaked at about 314 MB here, int64 row blocks at about 1.9 MB, uint32
    row blocks of 2**13 pairs alive into the next block at about 1 MB)."""
    q = 61
    family = rows(_family(random.Random(1500), q, 3, 1500))
    tracemalloc.start()
    try:
        prof = flat_profile(family, PrimeField(q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the planted pencil holds all q + 1 planes through its line
    assert len(prof.pencil) == q + 1
    assert peak < 1 << 19


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


@pytest.mark.parametrize("points,spheres,flag", [
    ([], [Sphere((0, 0, 0), 1)], "no-persistent-pairs"),
    ([(1, 0, 0), (2, 3, 4)], [], "no-persistent-pairs"),
    # no points: no bisector holds a point, so no pair persists
    ([], [Sphere((0, 0, 0), 1), Sphere((1, 0, 0), 1)],
     "no-persistent-pairs"),
])
def test_extract_no_signal_on_an_empty_side(points, spheres, flag):
    cfg = make_config(make_space(5, 3), points, spheres)
    cert = extract_certificate(cfg)
    assert cert.case == CASE_NO_SIGNAL and cert.flags == (flag,)
    assert cert.params["K"] == 0.0 and cert.params["B0"] == 6
    assert verify_certificate(cfg, cert.to_dict()) == []


@st.composite
def tiny_configs(draw):
    """Up to 10 points and 6 spheres at d = 3; the spheres share at most
    three centres, so concentric families are common."""
    q = draw(st.sampled_from((3, 5, 7)))
    coord = st.integers(0, q - 1)
    point = st.tuples(coord, coord, coord)
    centres = draw(st.lists(point, min_size=1, max_size=3))
    spheres = draw(st.lists(st.builds(Sphere, st.sampled_from(centres),
                                      coord), max_size=6))
    return make_config(make_space(q, 3), draw(st.lists(point, max_size=10)),
                       spheres)


@given(tiny_configs())
def test_extract_on_tiny_configs_has_one_no_signal_exit(cfg):
    cert = extract_certificate(cfg)
    if cert.case == CASE_NO_SIGNAL:
        assert cert.flags == ("no-persistent-pairs",)
    assert verify_certificate(cfg, cert.to_dict()) == []


def test_default_b0_floor():
    assert default_b0(Fraction(0), 3) == 6
    assert default_b0(Fraction(81), 3) == 9
    assert default_b0(Fraction(81) + Fraction(1, 10 ** 30), 3) == 10
    assert default_b0(Fraction(25), 4) == 8


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
    # K comes from the count of the one membership matrix, with no Gram
    # and no energies.  No extract builds the bisector incidence: the
    # counting kernel runs once over every point and bisector, then at
    # most once per regularize pass (every point on the bisectors outside
    # the support that hold a point, then the kept or the dropped points
    # on the support), and nothing reads the bisector rows and counts
    # after regularize (wiping them there leaves the golden bytes as they
    # are).  The one boolean hyperplane kernel is of P' on the candidates
    # for h0: the pencil, each member holding the witness flat, or h0
    # alone
    calls = []

    def recording(kernel):
        def wrapper(*args, **kwargs):
            count = kwargs.get("count", args[3] if len(args) > 3 else False)
            calls.append((kernel.__name__, bool(count), args[:2]))
            return kernel(*args, **kwargs)
        return wrapper

    def wiping(lifted, bisectors, richness, degrees, ms, q):
        reg = strata.regularize(lifted, bisectors, richness, degrees, ms, q)
        for array in (bisectors, richness, degrees):
            array[...] = -1
        return reg

    # every name an extract stage could call a kernel through
    for module in (strata, pipeline, stats):
        for name in ("hyperplane_incidence", "sphere_incidence",
                     "incidence_gram"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    recording(getattr(geometry, name)))
        if hasattr(module, "energies"):
            monkeypatch.setattr(module, "energies", recording(stats.energies))
    monkeypatch.setattr(pipeline, "regularize", wiping)
    passes_seen = collections.Counter()
    for (kind, q, d, np_, ns, seed, noise, c_const, b0, case,
         digest) in GOLDEN_CERTIFICATES:
        calls.clear()
        cfg = generate(GeneratorSpec(kind, q, d, np_, ns, seed, noise)).config
        cert = extract_certificate(
            cfg, ExtractOptions(c_const=Fraction(c_const), b0=b0))
        text = json.dumps(cert.to_dict(), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        counting = [args for name, count, args in calls if count]
        boolean = [args for name, count, args in calls
                   if name == "hyperplane_incidence" and not count]
        # the first count is of every point on every bisector
        lifted, bisectors = counting[0]
        assert lifted is cfg.point_lift
        passes = []
        for lifted, family in counting[1:]:
            assert len(family) < len(bisectors) or len(lifted) < np_
            passes.append("outside" if len(lifted) == np_ else "points")
        assert passes in ([], ["outside"], ["points"], ["outside", "points"])
        passes_seen.update(passes)
        assert collections.Counter(name for name, _, _ in calls) == {
            "sphere_incidence": 1,
            "hyperplane_incidence": len(counting) + len(boolean)}
        if case == CASE_NO_SIGNAL:
            assert len(counting) == 1 and not boolean
            continue
        assert len(boolean) == 1
        lifted, candidates = boolean[0]
        position = {tuple(x): i for i, x in enumerate(
            cfg.point_lift.tolist())}
        p_prime = [position[tuple(x)] for x in lifted.tolist()]
        assert p_prime == sorted(set(p_prime))
        assert set(cert.points_idx) <= set(p_prime)
        h0 = rows([cert.hyperplane]).tolist()
        if case == CASE_FLAT:
            fq = PrimeField(q)
            assert h0[0] in candidates.tolist()
            assert len(candidates) > cert.params["B0"]
            assert all(flat_contained_in(
                cert.witness_flat, Hyperplane(tuple(h[:-1]), h[-1]), fq)
                for h in candidates.tolist())
        else:
            assert candidates.tolist() == h0
    # some golden extract recounts over part of the points
    assert passes_seen["points"]


@pytest.mark.parametrize("seed", [0, 2])
def test_flat_case_h0_is_the_least_richest_pencil_member(seed):
    # null q = 19, 300 points, 28 spheres, the null-flats bench shape:
    # several pencil members tie for the most points of P', counted one
    # point at a time, and h0 is the least of them in tuple order
    q = 19
    cfg = generate(GeneratorSpec("uniform-random", q, 3, 300, 28, seed)).config
    cert = extract_certificate(cfg)
    assert cert.case == CASE_FLAT
    K2, _ = stats.near_extremality_from_counts(
        int(np.count_nonzero(stats.membership_matrix(cfg))),
        len(cfg.points), len(cfg.spheres), q, 3)
    pp = strata.persistent_pairs(cfg, K2, ExtractOptions().c_const)
    reg = strata.regularize(cfg.point_lift, pp.bisectors, pp.richness,
                            pp.degrees, build_multiset(pp), q)
    retained = mass_retention(reg.multiset).retained
    pencil = flat_profile(retained.support, PrimeField(q)).pencil
    members = [Hyperplane(tuple(h[:-1]), h[-1])
               for h in retained.support[list(pencil)].tolist()]
    p_prime = [cfg.points[i] for i in reg.point_idx.tolist()]
    counts = [sum(hyperplane_contains(h, x, q) for x in p_prime)
              for h in members]
    richest = [h for h, c in zip(members, counts) if c == max(counts)]
    assert len(richest) > 1 and richest == sorted(richest)
    assert cert.hyperplane == richest[0]
    assert len(cert.points_idx) == max(counts)


def test_extract_profiles_only_families_larger_than_b0(
        refuse_flat_profile_within_b0):
    # the golden bytes stay as they are, and a flat-concentration
    # certificate still comes from a profile
    b0s, profiled = refuse_flat_profile_within_b0
    for (kind, q, d, np_, ns, seed, noise, c_const, b0, case,
         digest) in GOLDEN_CERTIFICATES:
        if b0 is not None:
            b0s.append(b0)
        profiled.clear()
        gconf = generate(GeneratorSpec(kind, q, d, np_, ns, seed, noise))
        cert = extract_certificate(
            gconf.config, ExtractOptions(c_const=Fraction(c_const), b0=b0))
        text = json.dumps(cert.to_dict(), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        if case == CASE_FLAT:
            assert len(profiled) == 1


def test_extract_keeps_one_bisector_incidence():
    # null q = 31, 2000 points, 80 spheres: about 3000 bisectors, whose
    # |P| x B boolean incidence was once most of the extract's memory, and
    # a copy of its support columns beside it took the peak to 2.6 |P| B
    # bytes; the extract now builds neither
    cfg = generate(GeneratorSpec("uniform-random", 31, 3, 2000, 80, 0)).config
    n_bisectors = len(strata.persistent_pairs(
        cfg, Fraction(0), ExtractOptions().c_const).bisectors)
    assert n_bisectors > 2000
    tracemalloc.start()
    try:
        extract_certificate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(cfg.points) * n_bisectors


def test_extract_memory_has_no_bisector_incidence():
    # null q = 31, 1000 points, 120 spheres: about 7000 bisectors, whose
    # |P| x B boolean incidence alone would take about 6.6 MiB; the
    # extract counts them in row blocks and keeps no such matrix
    cfg = generate(GeneratorSpec("uniform-random", 31, 3, 1000, 120, 7)).config
    tracemalloc.start()
    try:
        extract_certificate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (1 << 20)


def test_extract_lifts_no_point(monkeypatch):
    # make_config lifts the points once; an extract reads
    # config.point_lift and lifts none itself
    calls = []
    true_lift = geometry.lift

    def counting(pts, q):
        calls.append(len(pts))
        return true_lift(pts, q)

    patched = set()
    for name, module in list(sys.modules.items()):
        if ((name == "ffrigidity" or name.startswith("ffrigidity."))
                and getattr(module, "lift", None) is true_lift):
            monkeypatch.setattr(module, "lift", counting)
            patched.add(name)
    assert patched >= {"ffrigidity.geometry", "ffrigidity.stats"}
    for (kind, q, d, np_, ns, seed, noise, c_const, b0, case,
         _) in GOLDEN_CERTIFICATES:
        cfg = generate(GeneratorSpec(kind, q, d, np_, ns, seed, noise)).config
        calls.clear()
        again = make_config(cfg.space, cfg.points, cfg.spheres)
        assert calls == [len(cfg.points)]
        calls.clear()
        cert = extract_certificate(
            again, ExtractOptions(c_const=Fraction(c_const), b0=b0))
        assert cert.case == case
        assert calls == []


def test_directional_extract_runs_no_dichotomy(monkeypatch):
    # h0 comes from the popular direction and offset alone; no vanishing
    # form is solved for on the extract path
    def refuse(*args, **kwargs):
        raise AssertionError("extract reached the dichotomy")

    modules = [m for n, m in sys.modules.items()
               if n == "ffrigidity" or n.startswith("ffrigidity.")]
    refused = set()
    for module in modules:
        if callable(getattr(module, "dichotomy", None)):
            monkeypatch.setattr(module, "dichotomy", refuse)
            refused.add(f"{module.__name__}.dichotomy")
    assert refused >= {"ffrigidity.dichotomy", "ffrigidity.dichotomy.dichotomy"}
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


def test_extract_never_reads_the_ordered_pairs(monkeypatch):
    # the extract counts each persistent unordered pair twice; the sorted
    # ordered pairs are built only for readers outside it
    def refuse(self):
        raise AssertionError("PersistentPairs.pairs read")

    monkeypatch.setattr(strata.PersistentPairs, "pairs", property(refuse))
    cases = [(row[:7], ExtractOptions(c_const=Fraction(row[7]), b0=row[8]),
              row[9]) for row in GOLDEN_CERTIFICATES]
    cases.append((("reflected-pairs", 61, 3, 2000, 120, 0, 0.1), None,
                  CASE_DIRECTIONAL))
    for spec, opts, case in cases:
        cfg = generate(GeneratorSpec(*spec)).config
        pp = strata.persistent_pairs(
            cfg, stats.energies(cfg).K2, (opts or ExtractOptions()).c_const)
        with pytest.raises(AssertionError):
            pp.pairs
        assert extract_certificate(cfg, opts).case == case


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
    got = verify._sphere_degrees(np.array(points, dtype=np.int64),
                                 rows(spheres), q)
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


@pytest.mark.parametrize("block", [None, 1, 8 * 130])
@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("q", [65521, 1000003])
def test_verify_sphere_degrees_exact_at_the_centring_seam(q, d, block,
                                                          monkeypatch):
    # the kernel centres residues in (-q/2, q/2]: q // 2 stays positive
    # and q // 2 + 1 turns negative, so values on both sides of that seam,
    # with 0, q - 1 and q - 2, give the largest lifted terms; q = 1000003
    # is inside the kernel's guard d*q*q < 2**52 but above PrimeField's
    # q < 2**16, so it is checked here on the kernel alone
    edge = (0, q // 2, q // 2 + 1, q - 1, q - 2)
    rng = random.Random(q + d)
    corners = list(itertools.product(edge, repeat=d))
    mixed = lambda: tuple(rng.choice(edge + (rng.randrange(q),))
                          for _ in range(d))
    points = list(dict.fromkeys(rng.sample(corners, 120)
                                + [mixed() for _ in range(900)]))[:301]
    spheres = {}
    while len(spheres) < 130:
        c = rng.choice(corners) if rng.random() < 0.7 else mixed()
        x = rng.choice(points)
        r = sum((a - b) ** 2 for a, b in zip(x, c)) % q
        if rng.random() < 0.1:
            r = rng.choice(edge)
        spheres[Sphere(c, r)] = 0
    spheres = list(spheres)
    assert len(points) == 301
    degs = [sum(sphere_contains(s, p, q) for p in points) for s in spheres]
    assert sum(degs) >= 2 * len(spheres) and max(degs) >= 10 and 0 in degs
    if block is not None:
        monkeypatch.setattr(verify, "_BLOCK_CELLS", block)
    got = verify._sphere_degrees(np.array(points, dtype=np.int64),
                                 rows(spheres), q)
    assert got.tolist() == degs


def _seam_primes(fits):
    """The largest odd prime q with fits(q) and the next prime above it,
    for a condition fits that holds up to some q and fails beyond."""
    q = 3
    while fits(q + 2):
        q += 2
    below = next(p for p in range(q, 2, -2) if field.is_odd_prime(p))
    above = next(p for p in itertools.count(q + 2, 2)
                 if field.is_odd_prime(p))
    assert fits(below) and not fits(above)
    return below, above


def _seam_families(rng, q, d, n, m):
    """n distinct points, m spheres and m hyperplanes: every corner of
    {0, q - 1, q - 2}**d is a point, the other coordinates take those
    residues or random ones, and each sphere and hyperplane passes
    through a chosen point, except one in ten whose radius or offset is
    one of the three."""
    edge = (0, q - 1, q - 2)
    pts = list(itertools.product(edge, repeat=d))
    while len(pts) < n:
        x = tuple(rng.choice(edge + (rng.randrange(q),)) for _ in range(d))
        pts = list(dict.fromkeys(pts + [x]))
    spheres, hyperplanes = [], []
    for _ in range(m):
        c, x, normal = rng.choice(pts), rng.choice(pts), rng.choice(pts[1:])
        r = sum((a - b) ** 2 for a, b in zip(x, c)) % q
        b = sum(a * b for a, b in zip(normal, x)) % q
        if rng.random() < 0.1:
            r, b = rng.choice(edge), rng.choice(edge)
        spheres.append(Sphere(c, r))
        hyperplanes.append(geometry.Hyperplane(normal, b))
    return np.asarray(pts, dtype=np.int64), spheres, hyperplanes


@pytest.mark.parametrize("block", [None, 1, 7 * 40 + 3])
@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("module", [geometry, verify])
def test_incidence_counts_exact_at_the_float32_seam(module, d, block,
                                                    monkeypatch):
    # float32 sums below each guard, (d+2)*(q-1)**2 < 2**22 for the two
    # incidence kernels and d*q*q < 2**23 for verify's sphere check, and
    # float64 from the next prime on; 100 points over 40 columns make
    # row blocks of one row, of 7 with a ragged last one, or one block
    if block is not None:
        monkeypatch.setattr(module, "_BLOCK_CELLS", block)
        if module is geometry:
            monkeypatch.setattr(module, "_MIN_BLOCK_ROWS", 1)
    fits = ((lambda q: (d + 2) * (q - 1) ** 2 < 1 << 22) if module is geometry
            else (lambda q: d * q * q < 1 << 23))
    for q in _seam_primes(fits):
        pts, spheres, hyperplanes = _seam_families(random.Random(q + d), q,
                                                   d, 100, 40)
        points = [tuple(x) for x in pts.tolist()]
        ms = np.array([[sphere_contains(s, x, q) for s in spheres]
                       for x in points])
        mh = np.array([[hyperplane_contains(h, x, q) for h in hyperplanes]
                       for x in points])
        assert ms.any() and mh.any() and not ms.all() and not mh.all()
        if module is geometry:
            lifted = geometry.lift(pts, q)
            assert (geometry.sphere_incidence(lifted, rows(spheres), q)
                    == ms).all()
            assert (geometry.hyperplane_incidence(lifted, rows(hyperplanes),
                                                  q) == mh).all()
        else:
            assert (verify._sphere_degrees(pts, rows(spheres), q).tolist()
                    == ms.sum(axis=0).tolist())


def test_verify_sphere_degrees_of_no_spheres_or_no_points():
    pts = np.array([(1, 2, 3), (0, 0, 0)], dtype=np.int64)
    got = verify._sphere_degrees(pts, np.zeros((0, 4), dtype=np.int64), 7)
    assert got.dtype == np.int64 and got.shape == (0,)
    got = verify._sphere_degrees(pts[:0], rows([Sphere((0, 0, 0), 1)] * 2),
                                 7)
    assert got.dtype == np.int64 and got.tolist() == [0, 0]


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


def test_verify_catches_a_broken_pipeline_sphere_kernel(monkeypatch):
    # verify evaluates the same lifted identity as the pipeline's
    # sphere_incidence, but with its own code: a pipeline kernel whose
    # column term ||c|| - r is off by one picks a sphere subfamily that
    # verify, counting against the true config, rejects
    g = generate(GeneratorSpec("reflected-pairs", 13, 3, 150, 40, seed=0,
                               noise=0.1))
    honest = extract_certificate(g.config).to_dict()
    assert verify_certificate(g.config, honest) == []
    true_kernel = stats.sphere_incidence
    monkeypatch.setattr(stats, "sphere_incidence", lambda pts, spheres, q:
                        true_kernel(pts, np.column_stack(
                            [spheres[:, :-1], spheres[:, -1] - 1]), q))
    doc = json.loads(json.dumps(extract_certificate(g.config).to_dict()))
    failures = verify_certificate(g.config, doc)
    assert failures
    assert all(" structured points, need " in f for f in failures)


def test_verify_reads_no_shared_point_lift():
    # verify lifts config.point_array itself: a point lift whose ||x||
    # slot is off by one makes the pipeline pick a sphere subfamily that
    # verify, counting against the true points, rejects
    g = generate(GeneratorSpec("reflected-pairs", 13, 3, 150, 40, seed=0,
                               noise=0.1))
    d, q = g.config.d, g.config.q
    bad = g.config.point_lift.copy()
    bad[:, d] = (bad[:, d] + 1) % q
    bad.setflags(write=False)
    broken = dataclasses.replace(g.config, point_lift=bad)
    assert (broken.point_array == g.config.point_array).all()
    doc = json.loads(json.dumps(extract_certificate(broken).to_dict()))
    assert doc["case"] != CASE_NO_SIGNAL
    failures = verify_certificate(broken, doc)
    assert failures
    assert all(" structured points, need " in f for f in failures)


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
