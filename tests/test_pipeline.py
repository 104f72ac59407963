import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from ffrigidity.field import PrimeField
from ffrigidity.geometry import (Sphere, canonical_hyperplane, flat_from_pair,
                                 flat_points, hyperplane_contains, make_space,
                                 radical_hyperplane)
from ffrigidity.generators import GeneratorSpec, generate
from ffrigidity.multiset import HyperplaneMultiset, build_multiset
from ffrigidity.pipeline import (CASE_DIRECTIONAL, CASE_FLAT, CASE_NO_SIGNAL,
                                 Certificate, ExtractOptions, case_split,
                                 default_b0, extract_certificate,
                                 flat_profile, linear_form_of, overlap_energy,
                                 retention_check)
from ffrigidity.stats import make_config
from ffrigidity.strata import persistent_pairs
from ffrigidity.verify import verify_certificate


def manual_multiset(counts_by_hyperplane):
    counts = dict(counts_by_hyperplane)
    return HyperplaneMultiset(
        support=tuple(sorted(counts)),
        counts=counts,
        provenance={h: () for h in counts},
    )


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


def test_overlap_energy_single_hyperplane():
    q = 5
    h = canonical_hyperplane((1, 0, 0), 0, q)
    pts = [(0, a, b) for a in range(q) for b in range(q)]
    assert overlap_energy(pts, [h], q, 3) == 0


def test_overlap_energy_two_hyperplanes_through_flat():
    q = 5
    h1 = canonical_hyperplane((1, 0, 0), 0, q)
    h2 = canonical_hyperplane((0, 1, 0), 0, q)
    pts = [(0, 0, t) for t in range(q)]  # k = 5 points on the flat
    assert overlap_energy(pts, [h1, h2], q, 3) == 2 * q


def test_overlap_energy_matches_triple_loop():
    rng = random.Random(81)
    q = 7
    hs = []
    while len(hs) < 6:
        n = tuple(rng.randrange(q) for _ in range(3))
        if any(n):
            h = canonical_hyperplane(n, rng.randrange(q), q)
            if h not in hs:
                hs.append(h)
    pts = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(15)]
    direct = 0
    for p in pts:
        for h1 in hs:
            for h2 in hs:
                if h1 != h2 and hyperplane_contains(h1, p, q) \
                        and hyperplane_contains(h2, p, q):
                    direct += 1
    assert overlap_energy(pts, hs, q, 3) == direct


def test_flat_profile_pencil():
    q = 7
    f = PrimeField(q)
    # k planes a*x1 + b*x2 = 0 all contain the z axis
    hs = [canonical_hyperplane((1, b, 0), 0, q) for b in range(4)]
    prof = flat_profile(hs, f)
    assert prof.max_multiplicity == 4
    witness_pts = flat_points(prof.witness, make_space(q, 3))
    assert witness_pts == [(0, 0, t) for t in range(q)]


def test_flat_profile_three_coordinate_planes():
    q = 5
    f = PrimeField(q)
    hs = [canonical_hyperplane((1, 0, 0), 0, q),
          canonical_hyperplane((0, 1, 0), 0, q),
          canonical_hyperplane((0, 0, 1), 0, q)]
    prof = flat_profile(hs, f)
    assert len(prof.multiplicity) == 3
    assert set(prof.multiplicity.values()) == {2}
    assert prof.parallel_pairs == 0


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
    prof = flat_profile(hs, f)
    for flat, m in prof.multiplicity.items():
        pts = flat_points(flat, sp)
        direct = sum(1 for h in hs
                     if all(hyperplane_contains(h, x, q) for x in pts))
        assert direct == m


def test_case_split_pencil_triggers_flat_case():
    q = 7
    f = PrimeField(q)
    hs = [canonical_hyperplane((1, b, 0), 0, q) for b in range(5)]
    ms = manual_multiset(dict.fromkeys(hs, 1))
    split = case_split(ms, b0=4, field=f)
    assert split.tag == CASE_FLAT
    assert set(split.pencil) == set(hs)
    split2 = case_split(ms, b0=5, field=f)  # boundary: m_max = 5 = b0
    assert split2.tag == CASE_DIRECTIONAL


def test_case_split_parallel_family_directional():
    q = 5
    f = PrimeField(q)
    hs = [canonical_hyperplane((1, 0, 0), b, q) for b in range(4)]
    ms = manual_multiset(dict.fromkeys(hs, 2))
    split = case_split(ms, b0=1, field=f)
    assert split.tag == CASE_DIRECTIONAL
    assert split.directions == ((1, 0, 0),)
    assert split.max_multiplicity == 0


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
    assert len(cert.points_idx) >= cert.params["lambda1"]


def test_extract_no_signal_on_concentric_family():
    sp = make_space(5, 3)
    cfg = make_config(sp, [(1, 0, 0), (2, 0, 0)],
                      [Sphere((0, 0, 0), r) for r in range(3)])
    cert = extract_certificate(cfg)
    assert cert.case == CASE_NO_SIGNAL
    assert cert.F is None and cert.hyperplane is None
    assert cert.aux["flags"] == ("no-persistent-pairs",)
    assert verify_certificate(cfg, cert.to_dict()) == []


def test_extract_no_signal_on_impossible_threshold():
    rng = random.Random(83)
    sp = make_space(7, 3)
    pts = [tuple(rng.randrange(7) for _ in range(3)) for _ in range(20)]
    sph = [Sphere(tuple(rng.randrange(7) for _ in range(3)), rng.randrange(7))
           for _ in range(8)]
    cfg = make_config(sp, pts, sph)
    cert = extract_certificate(
        cfg, ExtractOptions(richness_override=7 ** 2 + 1))
    assert cert.case == CASE_NO_SIGNAL
    assert cert.aux["flags"] == ("no-persistent-pairs",)


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
            assert cert.F.evaluate(cfg.points[i], q_) == 0
        assert cert.points_idx == tuple(sorted(set(cert.points_idx)))
        assert len(cert.points_idx) >= cert.params["min_points"]
    assert checked >= 4


# sha256 of `extract` JSON, as the CLI writes it, for small configs that
# end in each of the three cases at d = 3 and d = 4; a change to the
# counting code must leave these certificate bytes as they are
GOLDEN_CERTIFICATES = [
    # kind, q, d, np, ns, seed, noise, c_const, b0, case, sha256
    ("uniform-random", 5, 3, 20, 8, 0, 0.0, "1/4", None, "directional-coordination",
     "2dc8f3b20d842ab299f18cb4176a96753d725c9a999a8515ff6111ac822f3a32"),
    ("uniform-random", 5, 3, 30, 30, 0, 0.0, "1/4", None, "directional-coordination",
     "efe7d67cd2b1c5ca81764b48b9102a5374878e19faeb0c22074c56de402352fc"),
    ("reflected-pairs", 7, 3, 30, 30, 0, 0.2, "1/4", None, "directional-coordination",
     "a1c50dd795817b1c2097e564fcebf3c93d3521f337489c8da3f0c47b853e57c8"),
    ("uniform-random", 7, 3, 30, 30, 0, 0.0, "1/4", None, "flat-concentration",
     "8ce275de4506d7dfb7b932259f858d95b2d9324e20903fa1d6e0d0b4c01bd5b0"),
    ("hyperplane-planted", 7, 3, 30, 20, 1, 0.0, "1/4", None, "flat-concentration",
     "5a22d45e39b283117de13219594b4711b91cb52f3933858650bf334314c57416"),
    ("uniform-random", 7, 3, 30, 30, 0, 0.0, "50", None, "no-signal",
     "bab3020dc024f50b7f2d27e84fa3e9f240125782b67456b7aa8b9fdc3bd17fef"),
    ("uniform-random", 5, 4, 40, 12, 0, 0.0, "1/4", None, "directional-coordination",
     "699e3e964f643b701a4b6eff3fa720138128f98aadb017f0e2f59a6f03242d31"),
    ("reflected-pairs", 5, 4, 40, 12, 1, 0.0, "1/4", None, "directional-coordination",
     "7dba9042e5ce83abc2746511eb23c7e87dffddd5c1b0660b21ea67d5013a65f2"),
    ("quadric-planted", 5, 4, 40, 12, 1, 0.0, "1/4", 2, "flat-concentration",
     "ef61b63cf91e00013d1f9acddbae6cd4fdd0922e661b19dcafc232b2e38e19f6"),
    ("hyperplane-planted", 5, 4, 40, 12, 2, 0.0, "1/4", 1, "flat-concentration",
     "a83489bf4d1e9f9d7ae234b25eb437ac59c12d3356a05da62ac2c6c84652bc43"),
    ("hyperplane-planted", 5, 4, 40, 12, 0, 0.0, "50", None, "no-signal",
     "d13bdf08479a4dc11bfbf45dd921f5b822d9c75a77c0d0add701534a2d3f1c98"),
    ("uniform-random", 5, 4, 30, 30, 1, 0.0, "50", None, "no-signal",
     "510016ea8c9a8d60b33d71ea9a3b1d255eb3d8ecdf7b36dc40995dad17b0c82a"),
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


def test_certificate_json_shape():
    cfg = pencil_config(7)
    cert = extract_certificate(cfg)
    doc = cert.to_dict()
    assert list(doc) == ["case", "F", "hyperplane", "points", "spheres",
                         "aux", "params"]
    assert list(doc["aux"]) == ["R", "chart", "D", "flags", "witness_flat"]
    assert list(doc["params"]) == ["K", "lambda1", "M1", "mu", "B0",
                                   "min_points", "sphere_min"]
    json.dumps(doc)  # must be serializable as-is
    # deg-1 polynomial serialization: list of (exponents, coefficient)
    for exps, coef in doc["F"]:
        assert len(exps) == 3 and 0 < coef < 7


def test_linear_form_of_vanishes_exactly_on_plane():
    q = 7
    h = canonical_hyperplane((1, 2, 3), 4, q)
    f = linear_form_of(h, q)
    for x in itertools.product(range(q), repeat=3):
        assert (f.evaluate(x, q) == 0) == hyperplane_contains(h, x, q)


def test_retention_check_reports():
    cfg = pencil_config(7)
    cert = extract_certificate(cfg)
    rep = retention_check(cfg, cert)
    assert rep.double_count_ok
    assert rep.incidences >= 0
    assert rep.size_ratio is not None and 0 < rep.size_ratio <= 1
    if rep.in_window:
        assert rep.window_bounds_ok


def test_verify_rejects_zero_polynomial():
    cfg = pencil_config(7)
    doc = extract_certificate(cfg).to_dict()
    doc["F"] = []
    assert any("nonzero" in msg for msg in verify_certificate(cfg, doc))


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
