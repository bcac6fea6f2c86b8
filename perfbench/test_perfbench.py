"""
Tests of the benchmark itself, on its tiny-trial mode.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--tiny",
           "--seconds", "1", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root,
                          timeout=170)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines, result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    table = lines[:-1]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]]
                   and metric["unit"] in line.split() for line in table)
    assert any(line.split()[:1] == ["failed_frac"] for line in table)


def test_seed_changes_inputs_but_not_metric_names():
    names, rows = [], []
    for seed in ("3", "4"):
        done = bench("--workload", "crowded", "--seed", seed)
        assert done.returncode == 0, done.stderr
        names.append(set(result_of(done)[1]["metrics"]))
        out = json.loads((HERE / "out" / f"crowded-seed{seed}-trace0.json")
                         .read_text())
        rows.append(out["rows"])
    assert names[0] == names[1]
    assert rows[0] != rows[1]


def _copy_checkout(dest, with_sources=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_golden_mismatch_fails_the_run(tmp_path):
    _copy_checkout(tmp_path)
    golden_file = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(golden_file.read_text())
    golden["crowded"][0]["tv_mean"] += 1e-9
    golden_file.write_text(json.dumps(golden))
    done = bench("--workload", "crowded", root=tmp_path)
    assert done.returncode != 0
    result = result_of(done)[1]
    assert result["correct"] is False
    assert result["failed"] == golden["crowded"][0]["trials"]
    assert "golden row" in done.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    done = bench("--workload", "crowded", root=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_trace_coverage_fails_loudly_on_a_silent_boundary(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    measure = importlib.import_module("measure")
    workloads = importlib.import_module("workloads")
    # ep never calls the elementwise-squared transforms
    wl = replace(workloads.WORKLOADS["ep_paper"],
                 must_fire=("tuma.decoders.sq_apply",))
    tally, metrics, _, _ = measure.run_traced(wl, 3, 0.0, True, 1)
    assert any("trace coverage" in p and "tuma.decoders.sq_apply" in p
               for p in tally.problems)
    assert metrics == {}
