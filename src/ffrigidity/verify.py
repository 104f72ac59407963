"""Independent certificate checking against raw JSON documents.

This module deliberately avoids the extraction pipeline: it checks
each claim against the configuration and the serialized certificate
alone, with its own code: every listed point lies on the named
hyperplane, every listed sphere holds at least `sphere_min` of them,
and a witness flat lies in the hyperplane.  The sphere check evaluates
the same expanded form ||x|| - 2<x, c> + ||c|| - r as the pipeline's
kernel, one float product per row block of lifted points and spheres,
but keeps its own centred lift of `Config.point_array` (it never reads
`Config.point_lift`), residues in (-q/2, q/2], and its own guards,
d*q*q < 2**23 for float32 and d*q*q < 2**52 (see `_sphere_degrees`).
It does not yet re-derive everything: K and the two floors
`min_points` and `sphere_min` are still taken from the document, not
recomputed from the configuration, so a document that lowers its own
floors still verifies.  Each failure is reported as a human-readable
string; an empty list means the certificate verifies.
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


def _indices(value, n: int, name: str, failures: list):
    """A JSON list of indices below n as an int64 array, or None if an
    entry is not one; a value that is not a list reads as [].  Only a
    failing list is scanned entry by entry, for its first bad entry."""
    if not isinstance(value, list):
        failures.append(f"{name}s must be an index list")
        value = []
    if not (set(map(type, value)) <= {int}
            and (not value or 0 <= min(value) and max(value) < n)):
        bad = [i for i in value if not _is_int(i) or not 0 <= i < n]
        if bad:
            failures.append(f"{name} index {bad[0]!r} out of range")
            return None
    idx = np.fromiter(value, dtype=np.int64, count=len(value))
    if (idx[1:] <= idx[:-1]).any():
        failures.append(f"{name} indices must be sorted and distinct")
    return idx


# Cells per row block of the sphere check: each float array of a block
# then fits in 256 KiB, inside L2, for any |P'| and |S'| <= 2**15.
_BLOCK_CELLS = 1 << 15


def _sphere_degrees(pts: np.ndarray, spheres: np.ndarray,
                    q: int) -> np.ndarray:
    """How many rows of pts lie on each of the int64 sphere rows
    (center, r): the form ||x|| - 2<x, c> + ||c|| - r as one float
    product per row block of the lifted points [x | ||x|| | 1] and the
    lifted spheres [-2c | 1 | ||c|| - r], a cell counted when q divides
    its form.  No spheres give an empty count.

    Coordinates, centres and radii are first taken as residues centred
    in (-q/2, q/2], so |x_i| <= q/2, |2c_i| <= q, ||x|| <= d*q*q/4 and
    |||c|| - r| <= d*q*q/4 + q/2: the absolute values of the terms of a
    form add up to at most d*q*q + q.  The product is float32 when
    d*q*q < 2**23 and float64 under the guard d*q*q < 2**52, so every
    partial sum is an integer the dtype holds exactly, in any summation
    order, and so is the form.  q divides it exactly when
    rint(form * (1/q)) * q == form: a quotient k has |k| <= d*q + 1, so
    the two roundings of form * (1/q) move it by less than
    1/q + 2**-23, below 1/3 for q >= 5 and 1/2 at q = 3; otherwise the
    right side is another multiple of q, itself exact.  Each block runs
    in the two buffers `form` and `t`, allocated once per call: the
    divisibility test writes 1 or 0 into `t`, and a product with ones
    counts its columns, exact as every partial count is below 2**24;
    the float64 total is exact below 2**53."""
    (n, d), m = pts.shape, len(spheres)
    assert d * q * q < 1 << 52, "modulus too large for exact float64 forms"
    if not m:
        return np.zeros(0, dtype=np.int64)
    dtype = np.float32 if d * q * q < 1 << 23 else np.float64
    h = (q - 1) // 2
    x = (pts + h) % q - h
    c = (spheres + h) % q - h
    rows = np.ones((n, d + 2), dtype=dtype)
    rows[:, :d] = x
    rows[:, d] = (x * x).sum(axis=1)
    centers, r = c[:, :d], c[:, d]
    cols = np.ones((d + 2, m), dtype=dtype)
    cols[:d] = -2 * centers.T
    cols[d + 1] = (centers * centers).sum(axis=1) - r
    step = max(1, _BLOCK_CELLS // m)
    assert step < 1 << 24, "too many rows for exact float32 counts"
    form = np.empty((min(step, n), m), dtype=dtype)
    t = np.empty_like(form)
    ones, part = np.ones(len(form), dtype=dtype), np.empty(m, dtype=dtype)
    inv = 1.0 / q
    degrees = np.zeros(m, dtype=np.float64)
    for start in range(0, n, step):
        block = rows[start:start + step]
        f, u = form[:len(block)], t[:len(block)]
        np.matmul(block, cols, out=f)
        np.multiply(f, inv, out=u)
        np.rint(u, out=u)
        u *= q
        np.equal(u, f, out=u, casting="unsafe")
        np.matmul(ones[:len(block)], u, out=part)
        degrees += part
    return degrees.astype(np.int64)


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

    idx = _indices(cert.get("points"), len(config.points), "point", failures)
    pts = None if idx is None else config.point_array[idx]

    if normal is not None and pts is not None and len(pts):
        bad = int(np.count_nonzero((pts @ np.asarray(normal) - offset) % q))
        if bad:
            failures.append(f"hyperplane misses {bad} structured point(s)")
    if pts is not None and len(pts) < min_points:
        failures.append(f"only {len(pts)} structured points, need {min_points}")

    sidx = _indices(cert.get("spheres"), len(config.spheres), "sphere",
                    failures)
    if sidx is not None and len(sidx) and pts is not None and len(pts):
        degs = _sphere_degrees(pts, config.sphere_array[sidx], q)
        failures += [f"sphere {i} holds {deg} structured points, "
                     f"need {sphere_min}" for i, deg in
                     zip(sidx.tolist(), degs.tolist()) if deg < sphere_min]

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
