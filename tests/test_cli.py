import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ffrigidity.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_config(tmp_path, capsys, kind="reflected-pairs", q=7, np_=14, ns=8,
               seed=5, noise=0.0, name="config.json"):
    path = tmp_path / name
    code, _, err = run(capsys, "gen", "--kind", kind, "--q", str(q),
                       "--np", str(np_), "--ns", str(ns),
                       "--seed", str(seed), "--noise", str(noise),
                       "--out", str(path))
    assert code == 0, err
    return path


@pytest.mark.parametrize("kind", ["uniform-random", "hyperplane-planted",
                                  "quadric-planted", "reflected-pairs"])
def test_round_trip_all_kinds(tmp_path, capsys, kind):
    cfg = gen_config(tmp_path, capsys, kind=kind, np_=12, ns=6)
    code, out, _ = run(capsys, "analyze", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 7 and doc["d"] == 3
    assert doc["n_points"] == 12 and doc["n_spheres"] == 6
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "extract", str(cfg), "--out", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(cfg), str(cert))
    assert code == 0
    assert out.strip() == "ok"


def test_gen_output_is_byte_deterministic(tmp_path, capsys):
    a = gen_config(tmp_path, capsys, name="a.json")
    b = gen_config(tmp_path, capsys, name="b.json")
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert list(doc) == ["q", "d", "points", "spheres", "meta"]
    assert doc["meta"]["prng"] == "python-random-mt19937"
    assert doc["meta"]["spec"]["kind"] == "reflected-pairs"
    assert a.read_text().endswith("\n")


def test_analyze_is_byte_deterministic(tmp_path, capsys):
    cfg = gen_config(tmp_path, capsys)
    _, out1, _ = run(capsys, "analyze", str(cfg))
    _, out2, _ = run(capsys, "analyze", str(cfg))
    assert out1 == out2


def test_analyze_empty_points(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "q": 5, "d": 3, "points": [],
        "spheres": [{"center": [0, 0, 0], "r": 1}], "meta": {}}))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["n_points"] == 0
    assert doc["incidences"] == 0 and doc["energy"] == 0
    assert doc["K"] == 0.0


def test_gen_rejects_composite_q(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--kind", "uniform-random", "--q", "4",
                       "--np", "5", "--ns", "3", "--seed", "1")
    assert code == 2
    assert "q:" in err


def test_gen_rejects_low_dimension(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--kind", "uniform-random", "--q", "5",
                       "--d", "2", "--np", "5", "--ns", "3", "--seed", "1")
    assert code == 2
    assert "d:" in err


# sha256 of `gen` output for (kind, q, d, np, ns, seed, noise): the byte
# contract of the generators, their draws and post-processing alike
GEN_DIGESTS = [
    ("uniform-random", 7, 3, 20, 10, 5, 0.0, "ecc97beb964c2bd2e332b46caab5e442e05b4e459e5efe9a2f9da59555a06066"),
    ("uniform-random", 13, 4, 60, 20, 1, 0.0, "e3838b341fe02d77101bd74c6c31416ffe739436124cae220f07572bf155394a"),
    ("uniform-random", 61, 3, 300, 28, 2, 0.0, "5cd2cae9050ec22ecd937fa3d44eefcf038cf41c489b27168303d225e4d04754"),
    # sphere codes up to q**4, just below 2**63
    ("uniform-random", 55103, 3, 40, 12, 3, 0.0, "80ddce97637f488c098c4ecaa018a06deab6d2aa7d1f1beee2ae63cccb7e93f8"),
    ("hyperplane-planted", 7, 3, 30, 10, 3, 0.0, "538585d3a224c905f88d0b0c2d3132fe886621a7a4126caf8f1c89ab87740707"),
    ("hyperplane-planted", 11, 4, 80, 16, 4, 0.5, "6b22942937a90493923367b36cc7ff9853ede427823336b7a9f1576573de4684"),
    ("hyperplane-planted", 19, 3, 100, 12, 6, 1.0, "c931d04440ac515262a8ac9b0324b5bcf2fc2d644ae4a8670d0c5518b12db42b"),
    ("quadric-planted", 31, 3, 200, 20, 7, 0.1, "9c1c7e02076ddc3aa2181e95c8408a85c1f868a01539b3c978ca6ea97578a04e"),
    ("quadric-planted", 7, 4, 50, 10, 8, 1.0, "6b67884fce3409e87cec6e3b99339d50c1726e196d2fddcd11468da6b42d8439"),
    ("quadric-planted", 13, 3, 40, 12, 9, 0.0, "1957b26dd17b43dbbb1833493c36735ebbc0e5bb096a8c8d87f6d8e17c6aef08"),
    ("reflected-pairs", 61, 3, 500, 40, 1009, 0.1, "14b25e5c5db3f4be12f201d6bcd0de3af2845660376965f5afbc481a189ec490"),
    ("reflected-pairs", 13, 4, 100, 20, 10, 1.0, "6ccf0d7f59ee4fb847c93ffdd69b4b166863f1e27b16fdbcffd4c1759e0fb557"),
    ("reflected-pairs", 7, 3, 14, 8, 2, 0.0, "7788e769b7696b48f73be151ac71295cfa33585cae7961475fd71a21267a31ad"),
]


@pytest.mark.parametrize("kind,q,d,np_,ns,seed,noise,digest", GEN_DIGESTS)
def test_gen_output_matches_pinned_digest(tmp_path, capsys, kind, q, d, np_,
                                          ns, seed, noise, digest):
    path = tmp_path / "config.json"
    code, _, err = run(capsys, "gen", "--kind", kind, "--q", str(q),
                       "--d", str(d), "--np", str(np_), "--ns", str(ns),
                       "--seed", str(seed), "--noise", str(noise),
                       "--out", str(path))
    assert code == 0, err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_gen_past_the_enumeration_cap_names_q(tmp_path, capsys):
    # the point grid: 257**3 > 2**24
    code, _, err = run(capsys, "gen", "--kind", "quadric-planted", "--q",
                       "257", "--np", "4", "--ns", "2", "--seed", "1")
    assert code == 2 and err.startswith("error: q: ")
    assert "enumeration cap" in err
    # 65521**4 sphere codes: more than random.sample can index
    code, _, err = run(capsys, "gen", "--kind", "uniform-random", "--q",
                       "65521", "--np", "4", "--ns", "2", "--seed", "1")
    assert code == 2 and err.startswith("error: q: ")
    assert "sampling range" in err
    grid = grid_file(tmp_path, dict(BASE_GRID, q=[4099],
                                    kind=["hyperplane-planted"]))
    code, _, err = run(capsys, "experiment", str(grid))
    assert code == 2 and err.startswith("error: grid: cell ")
    assert "q: " in err and "enumeration cap" in err
    assert "Traceback" not in err


def test_gen_direction_table_past_the_cap_exits_promptly():
    # 65521**2 directions would take minutes and gigabytes to build
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "ffrigidity.cli", "gen", "--kind",
         "reflected-pairs", "--q", "65521", "--np", "4", "--ns", "2",
         "--seed", "1"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: q: ")
    assert "enumeration cap" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""



def _limit_address_space():
    # a child that builds what the generator must refuse fails inside
    # this limit rather than exhausting the machine
    limit = 2 << 30
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


@pytest.mark.parametrize("command", ["gen", "experiment"])
@pytest.mark.parametrize("kind,q,d", [("reflected-pairs", 3, 17),
                                      ("reflected-pairs", 7, 1000),
                                      ("uniform-random", 7, 100000)])
def test_gen_out_of_reach_d_exits_promptly(tmp_path, command, kind, q, d):
    # the direction table trips its cap on the longest tail, before any
    # block d columns wide is built; a d no kind reaches is refused before
    # q**d is formed, so no integer of thousands of digits is formatted
    if command == "gen":
        argv = ["gen", "--kind", kind, "--q", str(q), "--d", str(d), "--np",
                "4", "--ns", "2", "--seed", "1"]
    else:
        grid = grid_file(tmp_path, {"q": [q], "d": [d], "kind": [kind],
                                    "np": [4], "ns": [2], "seed": [1]})
        argv = ["experiment", str(grid)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ffrigidity.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=_limit_address_space)
    assert time.perf_counter() - start < 20
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "q: " in lines[0] or "d: " in lines[0]
    assert "Traceback" not in proc.stderr
    assert "int_max_str_digits" not in proc.stderr
    assert proc.stdout == ""


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_analyze_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "config" in err and "JSON" in err


def test_analyze_missing_field_exits_2(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"q": 5, "d": 3, "points": []}))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "spheres" in err


@pytest.mark.parametrize("command", ["analyze", "extract"])
@pytest.mark.parametrize("mutate, where", [
    (lambda doc: doc["points"][1].__setitem__(0, 1.5), "points[1]"),
    (lambda doc: doc["points"][1].__setitem__(2, True), "points[1]"),
    (lambda doc: doc["points"][1].__setitem__(1, "2"), "points[1]"),
    (lambda doc: doc["spheres"][2]["center"].__setitem__(0, "1"),
     "spheres[2]"),
    (lambda doc: doc["spheres"][2].update(r="3"), "spheres[2]"),
    (lambda doc: doc["spheres"][2].update(r=False), "spheres[2]"),
    (lambda doc: doc.update(points=5), "points"),
], ids=["float-coordinate", "bool-coordinate", "string-coordinate",
        "string-center", "string-radius", "bool-radius", "points-not-list"])
def test_config_non_integer_value_exits_2(tmp_path, capsys, command, mutate,
                                          where):
    cfg = gen_config(tmp_path, capsys)
    doc = json.loads(cfg.read_text())
    mutate(doc)
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(cfg))
    assert code == 2 and out == ""
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "extract", "verify"])
@pytest.mark.parametrize("top", [5, None, "q"],
                         ids=["int", "null", "string"])
def test_config_top_level_not_object_exits_2(tmp_path, capsys, command,
                                             top):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(top))
    cert = tmp_path / "cert.json"
    cert.write_text("{}")
    argv = [command, str(cfg)] + ([str(cert)] if command == "verify" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: config: ") and "Traceback" not in err


def test_extract_bad_c_const_exits_2(tmp_path, capsys):
    cfg = gen_config(tmp_path, capsys)
    code, _, err = run(capsys, "extract", str(cfg), "--c-const", "abc")
    assert code == 2
    assert "c-const" in err
    code, _, err = run(capsys, "extract", str(cfg), "--b0", "0")
    assert code == 2
    assert "b0" in err


def test_verify_tampered_certificate_exits_1(tmp_path, capsys):
    cfg = gen_config(tmp_path, capsys)
    cert = tmp_path / "cert.json"
    run(capsys, "extract", str(cfg), "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["points"] = doc["points"] + [10 ** 6]
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(cfg), str(cert))
    assert code == 1
    assert out.startswith("fail:")


def _bool_witness_flat(doc):
    # a flat inside the named hyperplane, with JSON true for one entry
    normal = doc["hyperplane"]["normal"]
    other = [0, 0, True] if normal[0] else [True, 0, 0]
    doc["case"] = "flat-concentration"
    doc["aux"]["witness_flat"] = {"rows": [normal, other],
                                  "values": [doc["hyperplane"]["offset"], 0]}


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.update(params="x"),
    lambda doc: doc["params"].update(min_points="3"),
    lambda doc: doc["hyperplane"]["normal"].__setitem__(0, "1"),
    lambda doc: doc["hyperplane"].update(offset="2"),
    lambda doc: doc.update(case="flat-concentration", aux="x"),
    lambda doc: doc["points"].__setitem__(1, True),
    lambda doc: doc["params"].update(min_points=True),
    lambda doc: doc["params"].update(sphere_min=True),
    lambda doc: (doc.update(spheres=[True] + doc["spheres"]),
                 doc["params"].update(sphere_min=0)),
    lambda doc: doc["hyperplane"]["normal"].__setitem__(0, True),
    lambda doc: doc["hyperplane"].update(offset=True),
    _bool_witness_flat,
    lambda doc: doc["hyperplane"].pop("offset"),
    lambda doc: doc["params"].pop("min_points"),
    lambda doc: doc.pop("schema"),
    lambda doc: doc.update(schema=1),
    lambda doc: doc.update(schema=2),
    lambda doc: doc.update(schema=3),
], ids=["params", "min-points", "normal-entry", "offset", "aux",
        "point-index-bool", "min-points-bool", "sphere-min-bool",
        "sphere-index-bool", "normal-bool", "offset-bool",
        "witness-flat-bool", "offset-missing", "min-points-missing",
        "schema-missing", "schema-1", "schema-2", "schema-3"])
def test_verify_malformed_certificate_fails(tmp_path, capsys, mutate):
    cfg = gen_config(tmp_path, capsys)
    cert = tmp_path / "cert.json"
    run(capsys, "extract", str(cfg), "--out", str(cert))
    doc = json.loads(cert.read_text())
    assert doc["case"] == "directional-coordination"
    mutate(doc)
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(cfg), str(cert))
    assert code == 1
    assert out and all(line.startswith("fail:") for line in out.splitlines())
    assert "Traceback" not in err


def grid_file(tmp_path, doc, name="grid.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE_GRID = {"q": [5], "kind": ["reflected-pairs"], "np": [10], "ns": [4],
             "seed": [1, 2]}


def test_experiment_csv_shape(tmp_path, capsys):
    grid = grid_file(tmp_path, BASE_GRID)
    code, out, _ = run(capsys, "experiment", str(grid))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "d", "kind", "np", "ns", "noise", "seed",
                       "c_const", "K", "case", "p_prime", "p_prime_frac",
                       "B0", "recovered", "runtime_ms"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == "5" and row[2] == "reflected-pairs"
        assert row[7] == "1/4"
        assert row[13] == "1"  # planted plane recovered


def test_experiment_deterministic_modulo_runtime(tmp_path, capsys):
    grid = grid_file(tmp_path, BASE_GRID)
    _, out1, _ = run(capsys, "experiment", str(grid))
    _, out2, _ = run(capsys, "experiment", str(grid))
    strip = lambda text: [r[:-1] for r in csv.reader(io.StringIO(text))]
    assert strip(out1) == strip(out2)


def test_experiment_grid_errors(tmp_path, capsys):
    code, _, err = run(capsys, "experiment",
                       str(grid_file(tmp_path, dict(BASE_GRID, extra=[1]))))
    assert code == 2 and "unknown axis" in err
    code, _, err = run(capsys, "experiment",
                       str(grid_file(tmp_path,
                                     {k: v for k, v in BASE_GRID.items()
                                      if k != "seed"}, "g2.json")))
    assert code == 2 and "missing axis" in err
    big = dict(BASE_GRID, seed=list(range(10_001)))
    code, _, err = run(capsys, "experiment",
                       str(grid_file(tmp_path, big, "g3.json")))
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "experiment",
                       str(grid_file(tmp_path, dict(BASE_GRID, np=[]),
                                     "g4.json")))
    assert code == 2 and "nonempty" in err


GOOD_CELL = {"q": 5, "kind": "reflected-pairs", "np": 10, "ns": 4, "d": 3,
             "seed": 1, "noise": 0.0, "c_const": "1/4", "b0": None}


# position 1: the bad value is its axis's only value, so every cell is
# bad; position 2: it follows a good value of the same axis, so the
# first cell runs and the grid fails part way, still writing no CSV
@pytest.mark.parametrize("position", [1, 2])
@pytest.mark.parametrize("bad", [{"q": [9]}, {"kind": ["nope"]},
                                 {"ns": [5]}, {"c_const": ["x"]},
                                 {"np": ["10"]}, {"ns": ["4"]}, {"q": ["5"]},
                                 {"d": ["3"]}, {"seed": ["1"]}, {"np": [True]},
                                 {"noise": [[0]]}, {"noise": [True]},
                                 {"noise": ["0.1"]}, {"noise": [10 ** 400]},
                                 {"c_const": [-1]},
                                 {"c_const": [0]}, {"b0": [0]},
                                 {"b0": ["2"]}],
                         ids=["composite-q", "unknown-kind", "odd-ns",
                              "c-const", "string-np", "string-ns", "string-q",
                              "string-d", "string-seed", "bool-np",
                              "list-noise", "bool-noise", "string-noise",
                              "huge-noise",
                              "negative-c-const", "zero-c-const",
                              "zero-b0", "string-b0"])
def test_experiment_bad_cell_exits_2(tmp_path, capsys, bad, position):
    if position == 2:
        bad = {axis: [GOOD_CELL[axis], *values]
               for axis, values in bad.items()}
    grid = grid_file(tmp_path, dict(BASE_GRID, **bad))
    code, out, err = run(capsys, "experiment", str(grid))
    assert code == 2
    assert err.startswith("error: grid: cell ")
    assert "Traceback" not in err
    assert not out


def test_experiment_cell_options_match_extract(tmp_path, capsys):
    cfg = gen_config(tmp_path, capsys)
    for c_const in ("-1", "0"):
        code, _, err = run(capsys, "extract", str(cfg), "--c-const", c_const)
        assert code == 2 and err == "error: c-const: must be positive\n"
        grid = grid_file(tmp_path, dict(BASE_GRID, c_const=[c_const]))
        code, _, err = run(capsys, "experiment", str(grid))
        assert code == 2 and err.endswith(": c-const: must be positive\n")


def test_experiment_guard_trips(tmp_path, capsys):
    grid = grid_file(tmp_path, BASE_GRID)
    code, out, err = run(capsys, "experiment", str(grid), "--guard-k", "-1")
    assert code == 1
    assert "guard" in err
    assert out  # the CSV is still written in full


def test_experiment_guard_rejects_nan(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    grid = grid_file(tmp_path, BASE_GRID)
    code, out, err = run(capsys, "experiment", str(grid), "--guard-k", "nan",
                         "--out", str(out_csv))
    assert code == 2
    assert err == "error: guard-k: must be a number\n"
    assert not out and not out_csv.exists()  # no cell ran


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 2
    assert "config" in err


@pytest.mark.parametrize("target", ["missing/x", "."])
@pytest.mark.parametrize("command", ["gen", "analyze", "extract",
                                     "experiment"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, target):
    """An --out into a missing directory or at a directory is a usage
    error, not a traceback."""
    cfg = gen_config(tmp_path, capsys)
    argv = {"gen": ["gen", "--kind", "uniform-random", "--q", "5",
                    "--np", "4", "--ns", "2", "--seed", "0"],
            "analyze": ["analyze", str(cfg)],
            "extract": ["extract", str(cfg)],
            "experiment": ["experiment",
                           str(grid_file(tmp_path, BASE_GRID))]}[command]
    out = tmp_path / target
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: out: cannot write {out}: ")
    assert "Traceback" not in err
