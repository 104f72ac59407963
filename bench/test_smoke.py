"""Smoke tests for the benchmark: every workload at toy size, the tracer,
and the refusal to run without the package sources.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_all(trace: int, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "all", "--toy",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _results(proc):
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(x) for x in proc.stdout.splitlines()]
    pairs = list(zip(lines[::2], lines[1::2]))
    assert [d["detail"]["workload"] for d, _ in pairs] == sorted(run.WORKLOADS)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    return pairs


@pytest.fixture(scope="module")
def untraced():
    return _results(_run_all(0))


def test_toy_end_to_end_metrics(untraced):
    for detail, result in untraced:
        detail = detail["detail"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], detail["problems"]
        assert result["failed"] == 0 and detail["fail_frac"] == 0
        assert result["attempted"] >= 1
        for m in SPEC["end_to_end"]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert got["value"] > 0, (detail["workload"], m["name"])
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert len(detail["cert_sha256"]) == 64
        if detail["workload"] == "planted-q61":
            assert detail["recovered_frac"] == 1.0


def test_toy_per_layer_metrics_and_digest(untraced):
    digests = {d["detail"]["workload"]: d["detail"]["cert_sha256"]
               for d, _ in untraced}
    for detail, result in _results(_run_all(1)):
        detail = detail["detail"]
        assert result["correct"], detail["problems"]
        assert result["failed"] == 0
        assert detail["cert_sha256"] == digests[detail["workload"]]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for m in SPEC["per_layer"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"]["pipeline.extract_self_s"]["value"] > 0
        assert detail["trace"]["path_self_share"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_follows_reexports_and_restores():
    mods = run.load_package()
    pkg = sys.modules["ffrigidity"]
    original = mods["strata"].radical_hyperplane
    original_dichotomy = pkg.dichotomy
    gconf = mods["generators"].generate(mods["generators"].GeneratorSpec(
        kind="reflected-pairs", q=7, d=3, n_points=14, n_spheres=6, seed=1))
    tracer = Tracer(run.PACKAGE, run.LAYERS, run.COUNTERS)
    with tracer:
        assert mods["strata"].radical_hyperplane is not original
        assert pkg.dichotomy is not original_dichotomy
        mods["pipeline"].extract_certificate(gconf.config)
    assert mods["strata"].radical_hyperplane is original
    assert pkg.dichotomy is original_dichotomy
    assert tracer.calls("geometry.radical_hyperplane") > 0
    assert tracer.calls("dichotomy.dichotomy") == 0
    assert tracer.counts["strata.pairs_examined"] == 6 * 5
    root = tracer.inclusive_s("pipeline.extract_certificate")
    assert abs(sum(s[2] for s in tracer.stats.values()) - root) < 1e-6
