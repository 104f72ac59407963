"""Command line front end.

Subcommands: gen, analyze, extract, verify, experiment.  Structured
artifacts are JSON with a fixed field order; experiment grids emit CSV
with a fixed header.  All outputs are byte-deterministic given their
inputs, except the runtime column of experiment rows.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from .generators import (KINDS, PRNG_NAME, BadGeneratorSpec, GeneratorSpec,
                         generate)
from .geometry import Sphere, make_space
from .field import NotAPrime
from .pipeline import (CASE_NO_SIGNAL, ExtractOptions, extract_certificate)
from .stats import Config, energies, make_config
from .strata import stratify
from .verify import _is_int, verify_certificate

EXPERIMENT_HEADER = ["q", "d", "kind", "np", "ns", "noise", "seed", "c_const",
                     "K", "case", "p_prime", "p_prime_frac", "B0", "recovered",
                     "runtime_ms"]

GRID_AXES = ["q", "d", "kind", "np", "ns", "noise", "seed", "b0", "c_const"]

GRID_INT_AXES = ["q", "d", "np", "ns", "seed"]

GRID_DEFAULTS = {"d": [3], "noise": [0.0], "b0": [None], "c_const": ["1/4"]}

GRID_CELL_CAP = 10_000


class CliError(Exception):
    """Usage or parse problem; maps to exit code 2."""


def _write_text(text: str, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise CliError(f"out: cannot write {path}: {exc.strerror}")


def _dump_json(obj, path):
    _write_text(json.dumps(obj, indent=2) + "\n", path)


def _load_json(path, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"{what}: cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # also bad UTF-8 and over-long integers
        raise CliError(f"{what}: invalid JSON in {path}: {exc}")
    except RecursionError:
        raise CliError(f"{what}: invalid JSON in {path}: nested too deeply")


def _require(doc: dict, key: str, what: str):
    if key not in doc:
        raise CliError(f"{what}: missing field {key!r}")
    return doc[key]


def config_to_dict(config: Config, meta: dict | None = None) -> dict:
    return {
        "q": config.q,
        "d": config.d,
        "points": [list(p) for p in config.points],
        "spheres": [{"center": list(s.center), "r": s.r}
                    for s in config.spheres],
        "meta": meta if meta is not None else {},
    }


def config_from_dict(doc: dict, what: str = "config") -> Config:
    if not isinstance(doc, dict):
        raise CliError(f"{what}: top level must be an object")
    q = _require(doc, "q", what)
    d = _require(doc, "d", what)
    raw_points = _require(doc, "points", what)
    raw_spheres = _require(doc, "spheres", what)
    if not _is_int(q) or not _is_int(d):
        raise CliError(f"{what}: q and d must be integers")
    if not isinstance(raw_points, list) or not isinstance(raw_spheres, list):
        raise CliError(f"{what}: points and spheres must be lists")
    try:
        space = make_space(q, d)
    except (NotAPrime, ValueError) as exc:
        raise CliError(f"{what}: {exc}")
    points = []
    for i, p in enumerate(raw_points):
        if not isinstance(p, list) or len(p) != d or not all(map(_is_int, p)):
            raise CliError(f"{what}: points[{i}] must be a list of {d} "
                           "integer coordinates")
        points.append(tuple(p))
    spheres = []
    for i, s in enumerate(raw_spheres):
        if (not isinstance(s, dict) or "center" not in s or "r" not in s
                or not isinstance(s["center"], list)
                or len(s["center"]) != d
                or not all(map(_is_int, s["center"])) or not _is_int(s["r"])):
            raise CliError(f"{what}: spheres[{i}] must be "
                           f"{{center: [{d} integers], r: integer}}")
        spheres.append(Sphere(tuple(s["center"]), s["r"]))
    try:
        return make_config(space, points, spheres)
    except (ValueError, OverflowError) as exc:  # OverflowError: d >= 2**63
        raise CliError(f"{what}: {exc}")


def _spec_from_args(args) -> GeneratorSpec:
    return GeneratorSpec(kind=args.kind, q=args.q, d=args.d,
                         n_points=args.np, n_spheres=args.ns,
                         seed=args.seed, noise=args.noise)


def _planted_dict(gconf) -> dict | None:
    if gconf.planted is None:
        return None
    return {"normal": list(gconf.planted.normal),
            "offset": gconf.planted.offset}


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    try:
        gconf = generate(spec)
    except (BadGeneratorSpec, NotAPrime) as exc:
        raise CliError(f"q: {exc}" if isinstance(exc, NotAPrime) else str(exc))
    except ValueError as exc:
        raise CliError(f"d: {exc}")
    meta = {
        "spec": {"kind": spec.kind, "q": spec.q, "d": spec.d,
                 "np": spec.n_points, "ns": spec.n_spheres,
                 "seed": spec.seed, "noise": spec.noise},
        "seed": spec.seed,
        "prng": PRNG_NAME,
        "planted": _planted_dict(gconf),
        "quadric_r": gconf.quadric_r,
    }
    _dump_json(config_to_dict(gconf.config, meta), args.out)
    return 0


def cmd_analyze(args) -> int:
    config = config_from_dict(_load_json(args.config, "config"), "config")
    st = energies(config)
    layers = stratify(st.gram)
    histogram = {str(j): n for j, n in layers.layers.items()}
    out = {
        "q": config.q,
        "d": config.d,
        "n_points": len(config.points),
        "n_spheres": len(config.spheres),
        "incidences": st.incidences,
        "energy": st.energy,
        "dual_energy": st.dual_energy,
        "off_diagonal": st.off_diagonal,
        "surplus": str(Fraction(st.incidences)
                       - Fraction(len(config.points)
                                  * len(config.spheres), config.q)),
        "K": st.K,
        "layer_histogram": histogram,
        "zero_overlap_pairs": layers.zero_pairs,
    }
    _dump_json(out, args.out)
    return 0


def _extract_options(c_const, b0) -> ExtractOptions:
    """The option check shared by `extract` and experiment grid cells."""
    try:
        c = Fraction(str(c_const))
    except (ValueError, ZeroDivisionError):
        raise CliError(f"c-const: not a rational number: {c_const!r}")
    if c <= 0:
        raise CliError("c-const: must be positive")
    if b0 is not None and (not _is_int(b0) or b0 < 1):
        raise CliError("b0: must be a positive integer")
    return ExtractOptions(c_const=c, b0=b0)


def cmd_extract(args) -> int:
    config = config_from_dict(_load_json(args.config, "config"), "config")
    cert = extract_certificate(config, _extract_options(args.c_const,
                                                         args.b0))
    _dump_json(cert.to_dict(), args.out)
    return 0


def cmd_verify(args) -> int:
    config = config_from_dict(_load_json(args.config, "config"), "config")
    cert = _load_json(args.certificate, "certificate")
    if not isinstance(cert, dict):
        raise CliError("certificate: top level must be an object")
    failures = verify_certificate(config, cert)
    if failures:
        for reason in failures:
            print(f"fail: {reason}")
        return 1
    print("ok")
    return 0


def _parse_grid(doc: dict) -> list:
    if not isinstance(doc, dict):
        raise CliError("grid: top level must be an object")
    unknown = sorted(set(doc) - set(GRID_AXES))
    if unknown:
        raise CliError(f"grid: unknown axis {unknown[0]!r}")
    axes = []
    for name in GRID_AXES:
        if name in doc:
            values = doc[name]
        elif name in GRID_DEFAULTS:
            values = GRID_DEFAULTS[name]
        else:
            raise CliError(f"grid: missing axis {name!r}")
        if not isinstance(values, list) or not values:
            raise CliError(f"grid: axis {name!r} must be a nonempty list")
        axes.append(values)
    total = 1
    for values in axes:
        total *= len(values)
    if total > GRID_CELL_CAP:
        raise CliError(f"grid: {total} cells exceeds the cap of "
                       f"{GRID_CELL_CAP}")
    cells = [{}]
    for name, values in zip(GRID_AXES, axes):
        cells = [dict(c, **{name: v}) for c in cells for v in values]
    return cells


def _cell_inputs(cell: dict):
    for axis in GRID_INT_AXES:
        if not _is_int(cell[axis]):
            raise CliError(f"{axis}: must be an integer")
    noise = cell["noise"]
    if isinstance(noise, bool) or not isinstance(noise, (int, float)):
        raise CliError("noise: must be a number")
    gconf = generate(GeneratorSpec(
        kind=cell["kind"], q=cell["q"], d=cell["d"], n_points=cell["np"],
        n_spheres=cell["ns"], seed=cell["seed"], noise=float(noise)))
    return gconf, _extract_options(cell["c_const"], cell["b0"])


def _experiment_cell(cell: dict) -> dict:
    try:
        gconf, opts = _cell_inputs(cell)
    except (CliError, ValueError, OverflowError) as exc:
        # ValueError covers BadGeneratorSpec and NotAPrime, OverflowError
        # an integer noise beyond float range
        name = ", ".join(f"{k}={cell[k]!r}" for k in GRID_AXES)
        raise CliError(f"grid: cell {name}: {exc}")
    start = time.perf_counter()
    cert = extract_certificate(gconf.config, opts)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    n_points = len(gconf.config.points)
    n_prime = len(cert.points_idx)
    if gconf.planted is not None:
        recovered = str(int(cert.case != CASE_NO_SIGNAL
                            and cert.hyperplane == gconf.planted))
    else:
        recovered = ""
    return {
        "q": cell["q"], "d": cell["d"], "kind": cell["kind"],
        "np": cell["np"], "ns": cell["ns"],
        "noise": f"{gconf.spec.noise:g}", "seed": cell["seed"],
        "c_const": str(opts.c_const),
        "K": f"{cert.params['K']:.12g}",
        "case": cert.case,
        "p_prime": n_prime,
        "p_prime_frac": f"{n_prime / n_points:.6g}",
        "B0": cert.params["B0"],
        "recovered": recovered,
        "runtime_ms": elapsed_ms,
    }


def cmd_experiment(args) -> int:
    # every comparison with NaN is false, so it would never trip
    if math.isnan(args.guard_k):
        raise CliError("guard-k: must be a number")
    cells = _parse_grid(_load_json(args.grid, "grid"))
    rows = [_experiment_cell(c) for c in cells]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=EXPERIMENT_HEADER,
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_text(buf.getvalue(), args.out)
    tripped = [r for r in rows if float(r["K"]) > args.guard_k]
    if tripped:
        print(f"guard: {len(tripped)} of {len(rows)} cells exceeded "
              f"K = {args.guard_k:g}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffrigidity",
        description="Incidence rigidity toolkit for point-sphere "
                    "configurations over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a configuration")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--np", required=True, type=int)
    p.add_argument("--ns", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="incidence statistics of a config")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("extract", help="run certificate extraction")
    p.add_argument("config")
    p.add_argument("--c-const", default="1/4")
    p.add_argument("--b0", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="re-check a certificate independently")
    p.add_argument("config")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run a seeded experiment grid")
    p.add_argument("grid")
    p.add_argument("--out", default=None)
    p.add_argument("--guard-k", type=float, default=3.0)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
