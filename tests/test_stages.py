"""Every extract stage earns its place, and the isotropic fixtures.

A stage is skipped by monkeypatching the name the pipeline calls it
through, with no library option.  For each stage one config is named on
which the skip changes the certificate.

The fixtures are near-extremal configs: in d = 3, k parallel isotropic
lines i*w + t*v (i < k, t in F_q) in the tangent plane v^perp of their
direction v, and in d = 4 a totally isotropic plane; each point is the
centre of a zero-radius sphere.
"""

import itertools
from fractions import Fraction

import pytest

from ffrigidity import pipeline, strata
from ffrigidity.generators import GeneratorSpec, generate
from ffrigidity.geometry import (Hyperplane, Sphere, hyperplane_contains,
                                 make_space)
from ffrigidity.multiset import MassRetentionReport
from ffrigidity.pipeline import (CASE_DIRECTIONAL, CASE_FLAT, CASE_NO_SIGNAL,
                                 ExtractOptions, FlatProfile,
                                 extract_certificate)
from ffrigidity.stats import energies, make_config
from ffrigidity.verify import verify_certificate


def isotropic_lines(q, k):
    """The tangent fixture in d = 3 for a prime q = 1 (mod 4), and its
    direction v = (1, 0, b) with b the least root of -1: the first
    isotropic vector of lead 1 in lexicographic order.  With w = (0, 1, 0),
    P is {i*w + t*v : i < k, t in F_q} and S the zero-radius spheres
    centred on P.  ||i*w + t*v|| = i*i, so a sphere holds exactly its own
    line and K = 1 - k/q; v^perp holds all k*q points."""
    v = (1, 0, next(b for b in range(q) if (b * b + 1) % q == 0))
    points = [(t, i, t * v[2] % q) for i in range(k) for t in range(q)]
    config = make_config(make_space(q, 3), points,
                         [Sphere(p, 0) for p in points])
    return config, v


def isotropic_plane(q):
    """The totally isotropic plane {s*u + t*v} of d = 4, with
    u = (1, 0, a, b), v = (0, 1, b, -a) and (a, b) the least pair with
    a*a + b*b = -1 (mod q): u.u = v.v = u.v = 0, so every difference of
    two points, itself in the plane, is isotropic, and every sphere of S,
    the zero-radius spheres centred on P, holds every point."""
    a, b = next((a, b) for a in range(q) for b in range(q)
                if (a * a + b * b + 1) % q == 0)
    points = [(s, t, (s * a + t * b) % q, (s * b - t * a) % q)
              for s in range(q) for t in range(q)]
    return make_config(make_space(q, 4), points,
                       [Sphere(p, 0) for p in points])


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_isotropic_plane_is_near_extremal_and_certifies(q):
    # K = sqrt(q) * (1 - 1/q) passes 3, the default of experiment
    # --guard-k, from q = 11 on, though the config is valid
    config = isotropic_plane(q)
    K2 = energies(config).K2
    assert K2 == Fraction((q - 1) ** 2, q)
    assert (K2 > 9) == (q >= 11)
    cert = extract_certificate(config)
    assert (cert.params["K"] > 3.0) == (q >= 11)
    assert cert.case == (CASE_DIRECTIONAL if q <= 7 else CASE_FLAT)
    assert verify_certificate(config, cert.to_dict()) == []
    assert cert.points_idx == tuple(range(q * q))
    assert cert.spheres_idx == tuple(range(q * q))


def _plane(v):
    """v^perp as a canonical hyperplane (v has lead 1)."""
    return Hyperplane(v, 0)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("q", [13, 17, 29])
def test_isotropic_lines_are_near_extremal_and_certify(q, k):
    config, v = isotropic_lines(q, k)
    assert v == {13: (1, 0, 5), 17: (1, 0, 4), 29: (1, 0, 12)}[q]
    assert all(hyperplane_contains(_plane(v), p, q) for p in config.points)
    assert energies(config).K2 == Fraction(q - k, q) ** 2
    cert = extract_certificate(config)
    assert verify_certificate(config, cert.to_dict()) == []
    if k == 1:
        # the single line is recovered whole, on v^perp
        assert cert.hyperplane == _plane(v)
        assert len(cert.points_idx) == q


def _keeping_every_positive_entry(pass_index):
    """strata._heaviest_class, except that on pass `pass_index` of each
    regularize (0 the point pass, 1 the hyperplane pass; regularize
    calls it once for each, in that order) every positive entry is kept,
    at the scale of the least class, so `min_points` still bounds h0."""
    heaviest, calls = strata._heaviest_class, itertools.count()

    def patched(values):
        if next(calls) % 2 != pass_index:
            return heaviest(values)
        kept = values > 0
        return int(strata._dyadic_classes(values[kept]).min()), kept
    return patched


def _skip(monkeypatch, stage):
    if stage == "persistence cutoff":
        # K2 = 0 gives the cutoff of one point
        monkeypatch.setattr(pipeline, "persistent_pairs",
                            lambda config, K2, c: strata.persistent_pairs(
                                config, Fraction(0), c))
    elif stage == "point pass":
        monkeypatch.setattr(strata, "_heaviest_class",
                            _keeping_every_positive_entry(0))
    elif stage == "hyperplane pass":
        monkeypatch.setattr(strata, "_heaviest_class",
                            _keeping_every_positive_entry(1))
    elif stage == "mass retention":
        monkeypatch.setattr(pipeline, "mass_retention", MassRetentionReport)
    else:
        assert stage == "flat/directional split"
        monkeypatch.setattr(pipeline, "flat_profile",
                            lambda aug, field: FlatProfile(None, ()))


def _config(name):
    """A generator spec and c_const, or ("tangent", q, k)."""
    if name[0] == "tangent":
        return isotropic_lines(*name[1:])[0], ExtractOptions()
    *spec, c_const = name
    return (generate(GeneratorSpec(*spec)).config,
            ExtractOptions(c_const=Fraction(c_const)))


def _outcome(config, options):
    """(case, |P'|, points of P on h0) of the certificate."""
    cert = extract_certificate(config, options)
    h = cert.hyperplane
    on_h0 = sum(hyperplane_contains(h, p, config.q)
                for p in config.points) if h else 0
    return cert.case, len(cert.points_idx), on_h0


NO, FLAT, DIR = CASE_NO_SIGNAL, CASE_FLAT, CASE_DIRECTIONAL

STAGE_SKIPS = [
    # stage, config, (case, |P'|, points of P on h0) with the stage and
    # without it
    ("persistence cutoff", ("uniform-random", 7, 3, 30, 30, 0, 0.0, "50"),
     (NO, 0, 0), (FLAT, 6, 6)),
    ("persistence cutoff",
     ("hyperplane-planted", 5, 4, 40, 12, 0, 0.0, "50"),
     (NO, 0, 0), (DIR, 8, 9)),
    ("persistence cutoff", ("uniform-random", 5, 4, 30, 30, 1, 0.0, "50"),
     (NO, 0, 0), (DIR, 5, 6)),
    ("point pass", ("tangent", 13, 3), (DIR, 13, 39), (FLAT, 13, 13)),
    ("mass retention", ("tangent", 13, 3), (DIR, 13, 39), (FLAT, 13, 13)),
    ("mass retention", ("tangent", 17, 3), (DIR, 17, 51), (FLAT, 17, 17)),
    ("mass retention", ("tangent", 29, 3), (DIR, 29, 87), (FLAT, 29, 29)),
    ("flat/directional split",
     ("hyperplane-planted", 7, 3, 30, 20, 1, 0.0, "1/4"),
     (FLAT, 7, 7), (DIR, 4, 4)),
    # skipping the hyperplane pass puts more of P on h0: the pass drops
    # v^perp, a defect of the stage and not a reason to keep it
    ("hyperplane pass", ("tangent", 13, 5), (FLAT, 13, 13), (FLAT, 39, 65)),
    ("hyperplane pass", ("tangent", 17, 5), (FLAT, 17, 17), (FLAT, 51, 85)),
    ("hyperplane pass", ("tangent", 29, 5), (FLAT, 29, 29),
     (FLAT, 87, 145)),
]


@pytest.mark.parametrize("stage, name, kept, skipped", STAGE_SKIPS, ids=[
    f"{stage}:{'-'.join(map(str, name))}" for stage, name, *_ in STAGE_SKIPS])
def test_skipping_a_stage_changes_the_certificate(monkeypatch, stage, name,
                                                  kept, skipped):
    config, options = _config(name)
    assert _outcome(config, options) == kept
    _skip(monkeypatch, stage)
    assert _outcome(config, options) == skipped


def test_every_stage_has_a_config():
    assert {row[0] for row in STAGE_SKIPS} == {
        "persistence cutoff", "point pass", "hyperplane pass",
        "mass retention", "flat/directional split"}
