"""One workload in one process: set up, run timed passes, check outputs.

Started by run.py with single-threaded math libraries and the checkout's
``src`` on PYTHONPATH.  Prints one JSON line: the monotonic time at which
set-up finished, then (unless --setup-only) the pass timings, failures and,
with --trace 1, the per-layer metrics.

Set-up is everything before ``ready``: interpreter start, imports and the
seeded inputs.  A run repeats the workload's pass until the time budget is
spent (at least one pass).  With --trace 1 untraced and traced passes
alternate, so the tracing overhead is measured in the same process.  Outputs
of every pass must equal those of the first; only the first pass's outputs
are kept, and they go through the oracles after all timing is done.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import ostrowski

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def tail(times: list[float]) -> dict | None:
    """Highest of p50..p99.9 with at least ten samples above it, or None."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = int(n * pct / 100)
        if n - 1 - k >= 10:
            return {"pct": pct, "value": ordered[k], "n": n}
    return None


class Passes:
    """Timings of a run's passes and the (pass, job) pairs that failed."""

    def __init__(self, runner):
        self.runner = runner
        self.first = None  # canonical outputs of the first pass
        self.first_raw = None
        self.walls: list[float] = []
        self.job_times: list[float] = []
        self.failed: set[tuple[int, int]] = set()
        self.reasons: list[str] = []

    def one(self, on_job=lambda: None) -> list:
        """Run one pass; returns its (seconds, output) per job."""
        wall, results = self.runner.run_pass(on_job)
        self.walls.append(wall)
        self.job_times.extend(t for t, _ in results)
        canon = [workloads.canonical(self.runner.workload, out) for _, out in results]
        if self.first is None:
            self.first, self.first_raw = canon, [out for _, out in results]
        for i, ((_, out), c) in enumerate(zip(results, canon)):
            if isinstance(out, Exception) or c != self.first[i]:
                self._fail(i, repr(out) if isinstance(out, Exception)
                           else "output differs from the first pass's")
        return results

    @property
    def attempted(self) -> int:
        return len(self.walls) * len(self.runner.jobs)

    def _fail(self, job: int, reason: str, passes=None) -> None:
        for p in passes or [len(self.walls) - 1]:
            self.failed.add((p, job))
        self.reasons.append(f"job {job}: {reason}")

    def check_first_pass(self) -> None:
        """Run the oracles on the first pass; a job that fails them fails in every pass."""
        for i, (job, out) in enumerate(zip(self.runner.jobs, self.first_raw)):
            reason = workloads.check(self.runner.workload, job, out)
            if reason is not None and not isinstance(out, Exception):
                self._fail(i, reason, range(len(self.walls)))


def layer_metrics(tracer, marks, walls, untraced_walls, results, runner) -> dict:
    from tracer import LAYERS, METRICS, VERIFY_FAMILIES

    per_pass = [tracer.pass_counts(a, b) for a, b in marks]
    out = dict(per_pass[0])  # counts repeat exactly from pass to pass
    total_wall = sum(walls)
    attributed = 0.0
    for layer in LAYERS:
        spent = sum(p[f"{layer}.self_s"] for p in per_pass)
        out[f"{layer}.self_s"] = spent / len(per_pass)
        out[f"{layer}.share"] = spent / total_wall
        attributed += spent
    for fam in VERIFY_FAMILIES:
        out[f"harness.verify.{fam}.s"] = sum(p[f"harness.verify.{fam}.s"] for p in per_pass) / len(per_pass)
        out[f"harness.verify.{fam}.instances"] = 0
    if runner.workload == "verify" and not isinstance(results[0][1], Exception):
        # verify_all reports in the order of the families it ran
        for fam, report in zip(runner.jobs[0]["only"] or VERIFY_FAMILIES, results[0][1]):
            out[f"harness.verify.{fam}.instances"] = report.instances_run
    out["cli.emit.bytes"] = (sum(len(o[1]) for _, o in results if not isinstance(o, Exception))
                             if runner.workload == "queries" else 0)
    out["bench.share"] = 1.0 - attributed / total_wall
    out["trace.wall_s"] = statistics.median(walls)
    out["trace.overhead_frac"] = statistics.median(walls) / statistics.median(untraced_walls) - 1.0
    return {name: out[name] for name, _ in METRICS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    runner = workloads.Runner(args.workload, args.seed, args.size)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready, "jobs": len(runner.jobs)}
    passes = Passes(runner)
    t0 = time.perf_counter()
    if not args.trace:
        while True:
            passes.one()
            if time.perf_counter() - t0 >= args.seconds:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["wall_s"] = statistics.median(passes.walls)
        result["job_p50_s"] = statistics.median(passes.job_times)
        result["job_tail"] = tail(passes.job_times)
        result["pass_walls"] = passes.walls
    else:
        from tracer import Tracer

        # Untraced and traced passes alternate, so drift in machine speed
        # affects both sides of the overhead ratio alike.
        tracer = Tracer()
        marks, untraced, traced, first_traced = [], [], [], None
        while True:
            passes.one()
            untraced.append(passes.walls[-1])
            tracer.install()
            try:
                before = tracer.mark()
                results = passes.one(tracer.new_job)
                marks.append((before, tracer.mark()))
            finally:
                tracer.uninstall()
            traced.append(passes.walls[-1])
            first_traced = first_traced or results
            if time.perf_counter() - t0 >= args.seconds:
                break
        result["layers"] = layer_metrics(tracer, marks, traced, untraced, first_traced, runner)
        result["pass_walls"], result["traced_walls"] = untraced, traced
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(str(out_dir / f"spans-{args.workload}.npz"),
                    workload=args.workload, seed=args.seed, passes=len(traced))

    passes.check_first_pass()
    result["attempted"] = passes.attempted
    result["failed"] = len(passes.failed)
    result["reasons"] = passes.reasons[:10]
    verify = passes.first_raw[0]
    result["verify_instances"] = (sum(r.instances_run for r in verify)
                                  if args.workload == "verify" and isinstance(verify, list) else None)
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "ostrowski": getattr(ostrowski, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
