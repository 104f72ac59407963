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
import os
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
from .verify import verify_certificate

EXPERIMENT_HEADER = ["q", "d", "kind", "np", "ns", "noise", "seed", "c_const",
                     "K", "case", "p_prime", "p_prime_frac", "deg_F", "D",
                     "B0", "recovered", "runtime_ms"]

GRID_AXES = ["q", "d", "kind", "np", "ns", "noise", "seed", "b0", "c_const"]

GRID_DEFAULTS = {"d": [3], "noise": [0.0], "b0": [None], "c_const": ["1/4"]}

GRID_CELL_CAP = 10_000


class CliError(Exception):
    """Usage or parse problem; maps to exit code 2."""


def _write_text(text: str, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _dump_json(obj, path):
    _write_text(json.dumps(obj, indent=2) + "\n", path)


def _load_json(path, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"{what}: cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{what}: invalid JSON in {path}: {exc}")


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
    q = _require(doc, "q", what)
    d = _require(doc, "d", what)
    raw_points = _require(doc, "points", what)
    raw_spheres = _require(doc, "spheres", what)
    if not isinstance(q, int) or not isinstance(d, int):
        raise CliError(f"{what}: q and d must be integers")
    try:
        space = make_space(q, d)
    except (NotAPrime, ValueError) as exc:
        raise CliError(f"{what}: {exc}")
    points = []
    for i, p in enumerate(raw_points):
        if not isinstance(p, list) or len(p) != d:
            raise CliError(f"{what}: points[{i}] must be a list of {d} "
                           "coordinates")
        points.append(tuple(p))
    spheres = []
    for i, s in enumerate(raw_spheres):
        if (not isinstance(s, dict) or "center" not in s or "r" not in s
                or not isinstance(s["center"], list)
                or len(s["center"]) != d):
            raise CliError(f"{what}: spheres[{i}] must be "
                           "{center: [..], r: int}")
        spheres.append(Sphere(tuple(s["center"]), s["r"]))
    try:
        return make_config(space, points, spheres)
    except ValueError as exc:
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
    layers = stratify(config)
    histogram = {str(j): len(layers.layers[j]) for j in sorted(layers.layers)}
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
        "K": float(st.K),
        "layer_histogram": histogram,
        "zero_overlap_pairs": layers.zero_pairs,
    }
    _dump_json(out, args.out)
    return 0


def _options_from_args(args) -> ExtractOptions:
    try:
        c = Fraction(args.c_const)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"c-const: not a rational number: {args.c_const!r}")
    if c <= 0:
        raise CliError("c-const: must be positive")
    if args.b0 is not None and args.b0 < 1:
        raise CliError("b0: must be a positive integer")
    return ExtractOptions(c_const=c, b0=args.b0)


def cmd_extract(args) -> int:
    config = config_from_dict(_load_json(args.config, "config"), "config")
    cert = extract_certificate(config, _options_from_args(args))
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


def _experiment_cell(cell: dict) -> dict:
    try:
        gconf = generate(GeneratorSpec(
            kind=cell["kind"], q=cell["q"], d=cell["d"], n_points=cell["np"],
            n_spheres=cell["ns"], seed=cell["seed"],
            noise=float(cell["noise"])))
        opts = ExtractOptions(c_const=Fraction(str(cell["c_const"])),
                              b0=cell["b0"])
    except (ValueError, ZeroDivisionError) as exc:
        # ValueError covers BadGeneratorSpec and NotAPrime
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
    deg = cert.F.degree() if cert.F is not None else ""
    dval = cert.aux.get("D")
    return {
        "q": cell["q"], "d": cell["d"], "kind": cell["kind"],
        "np": cell["np"], "ns": cell["ns"],
        "noise": f"{float(cell['noise']):g}", "seed": cell["seed"],
        "c_const": str(Fraction(str(cell["c_const"]))),
        "K": f"{float(cert.params['K']):.12g}",
        "case": cert.case,
        "p_prime": n_prime,
        "p_prime_frac": f"{n_prime / n_points:.6g}",
        "deg_F": deg,
        "D": dval if dval is not None else "",
        "B0": cert.params["B0"],
        "recovered": recovered,
        "runtime_ms": elapsed_ms,
    }


def cmd_experiment(args) -> int:
    cells = _parse_grid(_load_json(args.grid, "grid"))
    workers = os.environ.get("FFRIGIDITY_WORKERS", "1")
    try:
        workers = max(1, int(workers))
    except ValueError:
        raise CliError("FFRIGIDITY_WORKERS: not an integer")
    if workers > 1 and len(cells) > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_experiment_cell, cells)
    else:
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
