"""Independent certificate checking against raw JSON documents.

This module deliberately avoids the extraction pipeline: it re-derives
every claim from the configuration and the serialized certificate
alone, so that any single-field tampering of a valid document trips at
least one check.  Each failure is reported as a human-readable string;
an empty list means the certificate verifies.
"""

from __future__ import annotations

from .field import PrimeField, rref
from .stats import Config


def _eval_terms(terms, point, q: int) -> int:
    total = 0
    for exps, coef in terms:
        v = coef % q
        for x, e in zip(point, exps):
            if e:
                v = v * pow(x % q, e, q) % q
        total += v
    return total % q


def _is_int_list(value, n: int) -> bool:
    return (isinstance(value, list) and len(value) == n
            and all(isinstance(c, int) for c in value))


def verify_certificate(config: Config, cert: dict) -> list:
    """All failed checks for a serialized certificate, empty if valid."""
    q, d = config.q, config.d
    failures: list = []

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
    min_points = params.get("min_points", 0)
    sphere_min = params.get("sphere_min", 0)
    if not isinstance(min_points, int) or not isinstance(sphere_min, int):
        failures.append("params min_points and sphere_min must be integers")
        min_points = sphere_min = 0
    terms = cert.get("F")
    if not isinstance(terms, list) or not terms:
        failures.append("F must be nonzero")
        terms = []
    else:
        cleaned = []
        for item in terms:
            try:
                exps, coef = item
                exps = tuple(int(e) for e in exps)
                coef = int(coef) % q
            except (TypeError, ValueError):
                failures.append("F has a malformed term")
                cleaned = []
                break
            if len(exps) != d or any(e < 0 for e in exps):
                failures.append("F has a term with bad exponents")
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
        if not isinstance(i, int) or not 0 <= i < len(config.points):
            failures.append(f"point index {i!r} out of range")
            points = None
            break
    if points is not None:
        if any(b <= a for a, b in zip(idx, idx[1:])):
            failures.append("point indices must be sorted and distinct")
        points = [config.points[i] for i in idx]

    if terms and points:
        bad = sum(1 for p in points if _eval_terms(terms, p, q) != 0)
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
        offset = hp.get("offset", 0)
        if not _is_int_list(normal, d) or all(c % q == 0 for c in normal):
            failures.append("hyperplane normal is malformed")
            normal = None
        elif not isinstance(offset, int):
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
            if not isinstance(i, int) or not 0 <= i < len(config.spheres):
                failures.append(f"sphere index {i!r} out of range")
                ok = False
                break
        if ok and any(b <= a for a, b in zip(sidx, sidx[1:])):
            failures.append("sphere indices must be sorted and distinct")
        if ok and points:
            for i in sidx:
                s = config.spheres[i]
                deg = sum(
                    1 for p in points
                    if sum((a - b) ** 2 for a, b in zip(p, s.center)) % q == s.r)
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
