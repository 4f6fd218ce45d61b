"""Benchmark of the ostrowski package: four workloads, end to end and per layer.

Usage, from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload {correlate,spectrum,verify,queries}
                         --seed N --seconds S --trace {0,1}

Each run starts the workload in fresh child processes with the BLAS/OpenMP
thread pools pinned to one thread: four that only set up (imports, seeded
input generation, experiment configs), then one that sets up and measures.
The run prints its end-to-end report (trace 0) or per-layer report
(trace 1), then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (trace 0):
  setup_s      median over the five children of process start to ready
  wall_s       median wall time of one pass over the workload's jobs
  job_p50_s    median time of one job
  peak_rss_mb  ru_maxrss of the measuring child after its untraced passes
Also printed, not gated: jobs per pass, job_tail_s (highest percentile with
ten jobs beyond it, when there are enough jobs), fail_ratio, verify_instances.

Per-layer metrics (trace 1) come from a span recorder that wraps the
package's functions from outside (bench/tracer.py); see BASELINE.md for what
each should move.  Spans are written to bench/out/spans-<workload>.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("correlate", "spectrum", "verify", "queries")
SETUP_PROBES = 4
DEADLINE_S = 170.0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"), ("peak_rss_mb", "MB"))


def git_commit(root: Path) -> str:
    """HEAD's commit id read from .git inside the checkout, or 'unknown'."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(args, env, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run the worker once; returns (monotonic start, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - start, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "ostrowski" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'ostrowski'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))

    try:
        setups = []
        for _ in range(SETUP_PROBES):
            start, res = child(args, env, deadline, setup_only=True)
            setups.append(res["ready"] - start)
        start, res = child(args, env, deadline, setup_only=False)
        setups.append(res["ready"] - start)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1

    res["setup_s"] = statistics.median(setups)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "commit": git_commit(root),
        **res["versions"],
        "jobs": res["jobs"], "pass_walls_s": res["pass_walls"],
        "traced_walls_s": res.get("traced_walls", []),
        "attempted": res["attempted"], "failed": res["failed"],
        "fail_ratio": res["failed"] / res["attempted"],
        "verify_instances": res["verify_instances"],
        "job_tail_s": res.get("job_tail"),
        "setup_samples_s": setups,
    }
    for reason in res["reasons"]:
        print(f"FAILED {reason}")
    print("info " + json.dumps(info))
    if args.trace:
        from tracer import METRICS

        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit in METRICS}
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main())
