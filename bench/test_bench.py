"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from tracer import METRICS  # noqa: E402

COUNT_METRICS = [name for name, unit in METRICS if unit == "count"]


def bench_run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def fresh(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(final JSON line, info line) of a new tiny run."""
    proc = bench_run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return json.loads(lines[-1]), info


_cache: dict = {}


def parsed(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Like fresh, but each argument tuple runs only once per pytest run."""
    key = (workload, seed, trace)
    if key not in _cache:
        _cache[key] = fresh(workload, seed, trace)
    return _cache[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    result, info = parsed(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and info["fail_ratio"] == 0.0
    want = END_TO_END if trace == 0 else METRICS
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == list(want)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("seed", "commit", "python", "numpy", "ostrowski", "nproc"):
        assert key in info


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_counts(workload):
    first, info1 = parsed(workload, 1, 1)
    again, info2 = fresh(workload, 1, 1)
    assert info1["jobs"] == info2["jobs"]
    assert info1["verify_instances"] == info2["verify_instances"]
    for name in COUNT_METRICS:
        assert first["metrics"][name] == again["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_draws_other_inputs_of_the_same_size(workload):
    for size in ("tiny", "full"):
        a = workloads.make_jobs(workload, 1, size)
        b = workloads.make_jobs(workload, 2, size)
        assert len(a) == len(b)
        assert a != b
        assert workloads.make_jobs(workload, 1, size) == a
    if workload == "queries":
        kinds = sorted(j["kind"] for j in workloads.make_jobs(workload, 1))
        assert kinds == sorted(j["kind"] for j in workloads.make_jobs(workload, 2))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench_run("queries", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _first_pass(workload):
    runner = workloads.Runner(workload, 3, "tiny")
    _, results = runner.run_pass()
    return runner, [out for _, out in results]


def test_oracles_pass_and_catch_wrong_outputs():
    runner, outs = _first_pass("correlate")
    assert all(workloads.check("correlate", j, o) is None for j, o in zip(runner.jobs, outs))
    job, out = runner.jobs[0], outs[0]
    out["rows"][-1]["quadratic_mean"] += 1e-6
    assert workloads.check("correlate", job, out) is not None
    control = outs[-1]
    control["rows"][0]["absolute_mean"] = 1.0 - 2**-52
    assert workloads.check("correlate", runner.jobs[-1], control) is not None

    runner, outs = _first_pass("spectrum")
    assert all(workloads.check("spectrum", j, o) is None for j, o in zip(runner.jobs, outs))
    outs[0]["ladder"][-1]["peak_value"] += 1e-6
    assert workloads.check("spectrum", runner.jobs[0], outs[0]) is not None

    runner, outs = _first_pass("verify")
    assert workloads.check("verify", runner.jobs[0], outs[0]) is None
    reports = outs[0]
    reports[-1] = dataclasses.replace(reports[-1], instances_run=reports[-1].instances_run - 1,
                                      instances_passed=reports[-1].instances_passed - 1)
    assert workloads.check("verify", runner.jobs[0], reports) is not None
    assert workloads.check("verify", runner.jobs[0], reports[:-1]) is not None

    runner, outs = _first_pass("queries")
    assert all(workloads.check("queries", j, o) is None for j, o in zip(runner.jobs, outs))
    for job, (rc, text, err) in zip(runner.jobs, outs):
        reply = json.loads(text)
        if job["kind"] == "encode":
            reply["sigma"] += 1
        elif job["kind"] == "decode":
            reply["n"] += 1
        elif job["kind"] in ("sigma", "convergents"):
            reply["rows"][-1]["sigma" if job["kind"] == "sigma" else "q"] += 1
        elif job["kind"] in ("fourier", "correlate"):
            reply["rows"][1]["re"] += 1e-6
        elif job["kind"] == "spectrum":
            reply["peak_value"] += 1e-6
        assert workloads.check("queries", job, (rc, json.dumps(reply), err)) is not None, job
