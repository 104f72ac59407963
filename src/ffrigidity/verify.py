"""Independent certificate checking against raw JSON documents.

This module deliberately avoids the extraction pipeline: it checks
each claim against the configuration and the serialized certificate
alone.  It does not yet re-derive everything: K and the two floors
`min_points` and `sphere_min` are still taken from the document, not
recomputed from the configuration, so a document that lowers its own
floors still verifies.  Each failure is reported as a human-readable
string; an empty list means the certificate verifies.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField, rref
from .stats import Config


def _power(x: np.ndarray, e: int, q: int) -> np.ndarray:
    """x**e mod q entrywise for residues x and e >= 1.  By Fermat, e may
    be replaced by the exponent in [1, q - 1] congruent to it mod q - 1;
    keeping it positive keeps 0**e = 0."""
    e = (e - 1) % (q - 1) + 1
    out = np.ones_like(x)
    while e:
        if e & 1:
            out = out * x % q
        x = x * x % q
        e >>= 1
    return out


def _nonvanishing(terms, pts: np.ndarray, q: int) -> int:
    """Number of rows of pts at which the polynomial is nonzero mod q."""
    total = np.zeros(len(pts), dtype=np.int64)
    for exps, coef in terms:
        v = np.full(len(pts), coef % q, dtype=np.int64)
        for x, e in zip(pts.T, exps):
            if e:
                v = v * _power(x % q, e, q) % q
        total = (total + v) % q
    return int(np.count_nonzero(total))


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value, n: int) -> bool:
    return (isinstance(value, list) and len(value) == n
            and all(_is_int(c) for c in value))


def verify_certificate(config: Config, cert: dict) -> list:
    """All failed checks for a serialized certificate, empty if valid."""
    q, d = config.q, config.d
    failures: list = []

    schema = cert.get("schema")
    if not (_is_int(schema) and schema == 3):
        return [f"schema must be 3, not {schema!r}"]
    case = cert.get("case")
    if case not in ("flat-concentration", "directional-coordination",
                    "no-signal"):
        return [f"unknown case tag {case!r}"]
    if case == "no-signal":
        return []

    params = cert.get("params") or {}
    if not isinstance(params, dict):
        failures.append("params must be an object")
        params = {}
    min_points = params.get("min_points")
    sphere_min = params.get("sphere_min")
    if not _is_int(min_points) or not _is_int(sphere_min):
        failures.append("params min_points and sphere_min must be integers")
        min_points = sphere_min = 0
    terms = cert.get("F")
    exponents_ok = True
    if not isinstance(terms, list) or not terms:
        failures.append("F must be nonzero")
        terms = []
    else:
        cleaned = []
        for item in terms:
            if (not isinstance(item, list) or len(item) != 2
                    or not isinstance(item[0], list)
                    or not all(map(_is_int, item[0]))
                    or not _is_int(item[1])):
                failures.append("F has a malformed term")
                cleaned = []
                break
            exps, coef = tuple(item[0]), item[1] % q
            if len(exps) != d or any(e < 0 for e in exps):
                failures.append("F has a term with bad exponents")
                exponents_ok = False
            if coef == 0:
                failures.append("F must be nonzero")
            cleaned.append((exps, coef))
        terms = cleaned
        if terms and all(c == 0 for _, c in terms):
            failures.append("F must be nonzero")

    idx = cert.get("points")
    points = []
    if not isinstance(idx, list):
        failures.append("points must be an index list")
        idx = []
    for i in idx:
        if not _is_int(i) or not 0 <= i < len(config.points):
            failures.append(f"point index {i!r} out of range")
            points = None
            break
    if points is not None:
        if any(b <= a for a, b in zip(idx, idx[1:])):
            failures.append("point indices must be sorted and distinct")
        points = [config.points[i] for i in idx]
    pts = np.asarray(points or [], dtype=np.int64).reshape(-1, d)

    if terms and exponents_ok and points:
        bad = _nonvanishing(terms, pts, q)
        if bad:
            failures.append(f"F fails to vanish on {bad} structured point(s)")

    if points is not None and len(points) < min_points:
        failures.append(
            f"only {len(points)} structured points, need {min_points}")

    hp = cert.get("hyperplane")
    normal = offset = None
    if not isinstance(hp, dict):
        failures.append("certificate must name a hyperplane")
    else:
        normal = hp.get("normal")
        offset = hp.get("offset")
        if not _is_int_list(normal, d) or all(c % q == 0 for c in normal):
            failures.append("hyperplane normal is malformed")
            normal = None
        elif not _is_int(offset):
            failures.append("hyperplane offset must be an integer")
            normal = None
        else:
            normal = [c % q for c in normal]
            offset %= q
    if normal is not None and terms:
        expected = []
        for i, c in enumerate(normal):
            if c:
                e = [0] * d
                e[i] = 1
                expected.append((tuple(e), c))
        if offset:
            expected.append(((0,) * d, (-offset) % q))
        if sorted(expected) != sorted(terms):
            failures.append("F does not match the named hyperplane")

    sidx = cert.get("spheres")
    if not isinstance(sidx, list):
        failures.append("spheres must be an index list")
    else:
        ok = True
        for i in sidx:
            if not _is_int(i) or not 0 <= i < len(config.spheres):
                failures.append(f"sphere index {i!r} out of range")
                ok = False
                break
        if ok and any(b <= a for a, b in zip(sidx, sidx[1:])):
            failures.append("sphere indices must be sorted and distinct")
        if ok and points and sidx:
            listed = [config.spheres[i] for i in sidx]
            c = np.asarray([s.center for s in listed], dtype=np.int64)
            form = sum((x[:, None] - cx) ** 2 for x, cx in zip(pts.T, c.T)) % q
            radii = np.asarray([s.r for s in listed], dtype=np.int64)
            degs = (form == radii).sum(axis=0).tolist()
            for i, deg in zip(sidx, degs):
                if deg < sphere_min:
                    failures.append(
                        f"sphere {i} holds {deg} structured points, "
                        f"need {sphere_min}")

    if case == "flat-concentration":
        aux = cert.get("aux")
        flat = aux.get("witness_flat") if isinstance(aux, dict) else None
        if not isinstance(flat, dict):
            failures.append("flat-concentration certificate needs a witness flat")
        elif normal is not None:
            rows = flat.get("rows", [])
            values = flat.get("values", [])
            if (not isinstance(rows, list) or len(rows) != 2
                    or not all(_is_int_list(r, d) for r in rows)
                    or not _is_int_list(values, 2)):
                failures.append("witness flat is malformed")
            else:
                fq = PrimeField(q)
                stacked = [list(r) + [v] for r, v in zip(rows, values)]
                if len(rref(stacked, fq)[1]) != 2:
                    failures.append("witness flat constraints are not rank 2")
                else:
                    stacked.append(list(normal) + [offset])
                    if len(rref(stacked, fq)[1]) != 2:
                        failures.append("witness flat is not contained in the hyperplane")

    return failures
