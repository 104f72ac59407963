"""Independent certificate checking against raw JSON documents.

This module deliberately avoids the extraction pipeline: it checks
each claim against the configuration and the serialized certificate
alone, with its own formulas: every listed point lies on the named
hyperplane, every listed sphere holds at least `sphere_min` of them,
and a witness flat lies in the hyperplane.  It does not yet re-derive
everything: K and the two floors `min_points` and `sphere_min` are
still taken from the document, not recomputed from the configuration,
so a document that lowers its own floors still verifies.  Each failure
is reported as a human-readable string; an empty list means the
certificate verifies.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField, rref
from .stats import Config


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
    if not (_is_int(schema) and schema == 4):
        return [f"schema must be 4, not {schema!r}"]
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

    if normal is not None and points:
        off = (pts @ np.asarray(normal, dtype=np.int64) - offset) % q
        bad = int(np.count_nonzero(off))
        if bad:
            failures.append(f"hyperplane misses {bad} structured point(s)")

    if points is not None and len(points) < min_points:
        failures.append(
            f"only {len(points)} structured points, need {min_points}")

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
