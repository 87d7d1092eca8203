"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload prints every end-to-end metric (and, traced,
every per-layer metric) by name and unit in the contract's result line, that
a tampered reference or a failing worker fails the run with a result line,
and that a directory without the package sources is refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--size", "tiny",
           "--seconds", "0.1", *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def copy_tree(dest: Path, sources: bool = True) -> Path:
    """BENCHMARK.json and perfbench/ copied to dest, with a link to src/."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns(".tmp", "__pycache__"))
    if sources:
        (dest / "src").symlink_to(ROOT / "src")
    return dest


def result_line(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return json.loads(lines[-1])


def assert_metrics(proc, listed):
    res = result_line(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"metric {m['name']} = " in proc.stdout
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    proc = bench("--workload", workload, "--seed", 0, "--trace", 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = assert_metrics(proc, SPEC["end_to_end"])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["value"] > 0
    assert "machine {" in proc.stdout and "failed_frac = 0 " in proc.stdout


def test_per_layer_metrics_printed():
    proc = bench("--workload", "sim-full", "--seed", 0, "--trace", 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = assert_metrics(proc, SPEC["per_layer"])
    m = res["metrics"]
    assert m["constants.projection_tables_calls"]["value"] == 5
    assert m["spectral.convert_Q_calls_per_step"]["value"] == 4
    assert m["profilefield.phi_grid_calls_per_step"]["value"] == 2


def test_tampered_reference_fails(tmp_path):
    path = copy_tree(tmp_path) / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    table = reference["sim-full"]
    for key in table:
        if key.startswith("tiny:"):
            table[key]["qt2"][-1][0] *= 1.001
    path.write_text(json.dumps(reference))
    proc = bench("--workload", "sim-full", "--seed", 0, "--trace", 0,
                 cwd=tmp_path)
    assert proc.returncode != 0
    res = result_line(proc)
    assert not res["correct"] and res["failed"] == res["attempted"]
    assert "check FAIL" in proc.stdout and "qt2" in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_failing_worker_fails(tmp_path, trace):
    # a worker that dies before writing its report
    worker = copy_tree(tmp_path) / "perfbench" / "worker.py"
    worker.write_text("import sys\nsys.exit(3)\n")
    proc = bench("--workload", "sim-full", "--seed", 0, "--trace", trace,
                 cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    res = result_line(proc)
    assert not res["correct"] and res["failed"] == res["attempted"]
    assert "check FAIL rep-0/completed: worker exited 3" in proc.stdout


def test_refused_without_sources(tmp_path):
    copy_tree(tmp_path, sources=False)
    proc = bench("--workload", "sim-full", "--seed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_layer_map_covers_every_metric():
    layers = json.loads((HERE / "layers.json").read_text())
    assert set(layers["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(layers["workloads"]) == set(WORKLOADS)
    for m in SPEC["end_to_end"]:
        assert m["name"] in layers["end_to_end"]
