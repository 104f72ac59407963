import csv
import io
import json

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


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.update(params="x"),
    lambda doc: doc["params"].update(min_points="3"),
    lambda doc: doc["hyperplane"]["normal"].__setitem__(0, "1"),
    lambda doc: doc["hyperplane"].update(offset="2"),
    lambda doc: doc.update(case="flat-concentration", aux="x"),
], ids=["params", "min-points", "normal-entry", "offset", "aux"])
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
                       "deg_F", "D", "B0", "recovered", "runtime_ms"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == "5" and row[2] == "reflected-pairs"
        assert row[7] == "1/4"
        assert row[15] == "1"  # planted plane recovered


def test_experiment_deterministic_modulo_runtime(tmp_path, capsys):
    grid = grid_file(tmp_path, BASE_GRID)
    _, out1, _ = run(capsys, "experiment", str(grid))
    _, out2, _ = run(capsys, "experiment", str(grid))
    strip = lambda text: [r[:-1] for r in csv.reader(io.StringIO(text))]
    assert strip(out1) == strip(out2)


def test_experiment_parallel_matches_serial(tmp_path, capsys, monkeypatch):
    grid = grid_file(tmp_path, dict(BASE_GRID, seed=[1, 2, 3, 4]))
    _, serial, _ = run(capsys, "experiment", str(grid))
    monkeypatch.setenv("FFRIGIDITY_WORKERS", "2")
    _, parallel, _ = run(capsys, "experiment", str(grid))
    strip = lambda text: [r[:-1] for r in csv.reader(io.StringIO(text))]
    assert strip(serial) == strip(parallel)


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


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("bad", [{"q": [9]}, {"kind": ["nope"]},
                                 {"ns": [5]}, {"c_const": ["x"]}],
                         ids=["composite-q", "unknown-kind", "odd-ns",
                              "c-const"])
def test_experiment_bad_cell_exits_2(tmp_path, capsys, monkeypatch, bad,
                                     workers):
    monkeypatch.setenv("FFRIGIDITY_WORKERS", workers)
    grid = grid_file(tmp_path, dict(BASE_GRID, **bad))
    code, out, err = run(capsys, "experiment", str(grid))
    assert code == 2
    assert err.startswith("error: grid: cell ")
    assert "Traceback" not in err
    assert not out


def test_experiment_guard_trips(tmp_path, capsys):
    grid = grid_file(tmp_path, BASE_GRID)
    code, out, err = run(capsys, "experiment", str(grid), "--guard-k", "-1")
    assert code == 1
    assert "guard" in err
    assert out  # the CSV is still written in full


def test_bad_workers_env_exits_2(tmp_path, capsys, monkeypatch):
    grid = grid_file(tmp_path, BASE_GRID)
    monkeypatch.setenv("FFRIGIDITY_WORKERS", "many")
    code, _, err = run(capsys, "experiment", str(grid))
    assert code == 2
    assert "FFRIGIDITY_WORKERS" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 2
    assert "config" in err
