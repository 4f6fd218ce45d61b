"""Benchmark workloads: seeded inputs, job runners and output oracles.

Each workload turns a seed into a fixed list of jobs (the package sees only
those generated inputs), runs them as one pass, and checks the outputs of a
pass against oracles that share no code with the package.  Every seed draws
jobs of the same sizes, so run time does not depend on which seed is drawn;
the seed only picks alpha specs, theta, beta and the small integers of the
CLI requests.

Workloads and why they were chosen:

- correlate: pseudorandomness_experiment at N = 2^18, R up to 512.  The
  per-shift pairwise_sum loop of correlation_profile does nearly all the
  work; values_range runs once; no numeration kernel or exponential sum is
  used.  (At N = 1e6 the value blocks leave the L2 cache and memory-bound
  timings drift far more from run to run.)
- spectrum: spectrum_experiment, a doubling ladder of spectrum_scan plus 16
  scale_sums.  Dense exponential-sum probes (frac_mul_range, unit,
  pairwise_sum) dominate and values_range is rebuilt once per rung.
- verify: verify_all, the whole battery.  The numeration range kernels and
  the scalar encode inside w_sequence dominate; no large values_range or FFT.
- queries: a closed loop, one client, of small in-process cli.main requests.
  Fixed per-request costs dominate (argparse, scale_for, atom tables, the
  output writer); the only workload that measures cli and cfrac.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time

import numpy as np

# The package's default alpha specs, with their partial quotients written out
# so the oracles build their own convergent tables.  All are purely periodic.
ALPHAS = {
    "golden": (1,),
    "silver": (2,),
    "periodic:/1,2": (1, 2),
    "periodic:/1,2,3,1,1,4": (1, 2, 3, 1, 1, 4),
}
ALPHA_NAMES = tuple(ALPHAS)

ORACLE_TOL = 1e-9  # absolute, on averages of unimodular values

# Instance counts of the verify battery per family.  They do not depend on the
# seed; a change that checks fewer instances fails the verify oracle.
VERIFY_INSTANCES = {
    "fejer": 100,
    "large_sieve": 500,
    "van_der_corput": 200,
    "parseval": 168,
    "cyclic_identity": 6004,
    "carry_bound": 72108,
    "density": 331,
    "gap_structure": 93,
}

SIZES = {
    "full": {
        "corr_N": 1 << 18, "corr_R": (64, 128, 256, 512), "corr_jobs": 2,
        "spec_N": 1 << 15, "spec_jobs": 2,
        "verify_only": None,
        "queries": {"encode": 40, "decode": 24, "sigma": 24, "convergents": 24,
                    "fourier": 12, "correlate": 12, "spectrum": 4},
        "q_fourier": 610, "q_corr_N": (9000, 11000), "q_corr_R": 32, "q_spec_N": 8192,
    },
    "tiny": {
        "corr_N": 20000, "corr_R": (8, 16, 32), "corr_jobs": 1,
        "spec_N": 8192, "spec_jobs": 1,
        "verify_only": ("fejer", "vdc", "parseval"),
        "queries": {"encode": 4, "decode": 2, "sigma": 2, "convergents": 2,
                    "fourier": 2, "correlate": 2, "spectrum": 1},
        "q_fourier": 100, "q_corr_N": (1500, 2500), "q_corr_R": 8, "q_spec_N": 4096,
    },
}


# --- independent oracle arithmetic --------------------------------------------

def q_table(alpha: str, upto: int) -> tuple[list[int], list[int]]:
    """Convergent denominators q_0.. while q_k <= upto, and partial quotients a_1.."""
    period = ALPHAS[alpha]
    a = [period[i % len(period)] for i in range(200)]
    q = [1, a[0]]
    while q[-1] <= upto:
        q.append(a[len(q) - 1] * q[-1] + q[-2])
    return q, a


def digits_of(n: int, alpha: str) -> list[int]:
    """Greedy Ostrowski digits of n, least significant first, trailing zeros trimmed."""
    q, _ = q_table(alpha, n)
    out = [0] * len(q)
    for k in range(len(q) - 1, -1, -1):
        if q[k] <= n:
            out[k], n = divmod(n, q[k])
    while out and out[-1] == 0:
        out.pop()
    return out


def values(alpha: str, theta: float, beta: float, count: int) -> np.ndarray:
    """e(theta * sigma(n) - n * beta) for n < count, via a digit-sum scan."""
    q, _ = q_table(alpha, max(count - 1, 1))
    rem = np.arange(count, dtype=np.int64)
    sig = np.zeros(count, dtype=np.int64)
    for k in range(len(q) - 1, -1, -1):
        if q[k] <= count - 1:
            d = rem // q[k]
            rem -= d * q[k]
            sig += d
    phase = np.mod(theta * sig, 1.0)
    if beta:
        phase = phase - np.mod(np.arange(count) * beta, 1.0)
    return np.exp(2j * math.pi * phase)


def draw_theta(rng: random.Random) -> float:
    """A theta in (0.05, 0.95) at least 1e-3 from every fraction with denominator <= 16."""
    while True:
        theta = rng.uniform(0.05, 0.95)
        if all(abs(theta * d - round(theta * d)) > 1e-3 for d in range(1, 17)):
            return theta


def _fn_spec(theta: float, beta: float | None) -> str:
    return f"theta:{theta!r}" + (f"+beta:{beta!r}" if beta is not None else "")


# --- job lists ----------------------------------------------------------------

def make_jobs(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The seeded job list of one pass; each job is a plain dict of inputs."""
    rng = random.Random(f"{workload}:{seed}")
    z = SIZES[size]
    if workload == "correlate":
        jobs = [{"alpha": rng.choice(ALPHA_NAMES), "theta": draw_theta(rng)}
                for _ in range(z["corr_jobs"])]
        jobs.append({"alpha": rng.choice(ALPHA_NAMES), "theta": 0.0})  # control
        return [dict(j, N=z["corr_N"], R_list=z["corr_R"]) for j in jobs]
    if workload == "spectrum":
        jobs = []
        for _ in range(z["spec_jobs"]):
            beta = rng.random() if rng.random() < 0.5 else None
            jobs.append({"alpha": rng.choice(ALPHA_NAMES), "theta": draw_theta(rng), "beta": beta})
        jobs.append({"alpha": rng.choice(ALPHA_NAMES), "theta": 0.0, "beta": None})  # control
        return [dict(j, N=z["spec_N"], seed=rng.randrange(2**31)) for j in jobs]
    if workload == "verify":
        return [{"seed": seed, "only": z["verify_only"]}]
    if workload == "queries":
        jobs = []
        for kind, count in z["queries"].items():
            for i in range(count):
                # alpha cycles so every seed has the same mix of table sizes
                jobs.append(_query(kind, ALPHA_NAMES[i % len(ALPHA_NAMES)], rng, z))
        rng.shuffle(jobs)
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def _query(kind: str, alpha: str, rng: random.Random, z: dict) -> dict:
    job = {"kind": kind, "alpha": alpha}
    if kind == "encode":
        job.update(n=rng.randrange(10**9), lam=rng.randint(1, 6))
        job["argv"] = ["encode", str(job["n"]), "--alpha", alpha, "--lam", str(job["lam"])]
    elif kind == "decode":
        job["n"] = rng.randrange(10**9)
        digits = digits_of(job["n"], alpha)
        job["argv"] = ["decode", ",".join(map(str, digits)), "--alpha", alpha]
    elif kind == "sigma":
        job["ns"] = [rng.randrange(10**6) for _ in range(rng.randint(3, 5))]
        job["argv"] = ["sigma", *map(str, job["ns"]), "--alpha", alpha]
    elif kind == "convergents":
        job["depth"] = rng.randint(5, 25)
        job["argv"] = ["convergents", "--alpha", alpha, "--depth", str(job["depth"])]
    elif kind == "fourier":
        q, _ = q_table(alpha, z["q_fourier"])
        job.update(lam=max(k for k, qk in enumerate(q) if qk <= z["q_fourier"]),
                   theta=draw_theta(rng))
        job["argv"] = ["fourier", "--alpha", alpha, "--fn", _fn_spec(job["theta"], None),
                       "--lam", str(job["lam"])]
    elif kind == "correlate":
        job.update(N=rng.randint(*z["q_corr_N"]), R=z["q_corr_R"], theta=draw_theta(rng))
        job["argv"] = ["correlate", "--alpha", alpha, "--fn", _fn_spec(job["theta"], None),
                       "--N", str(job["N"]), "--R", str(job["R"])]
    elif kind == "spectrum":
        beta = rng.random() if rng.random() < 0.5 else None
        job.update(N=z["q_spec_N"], theta=draw_theta(rng), beta=beta)
        job["argv"] = ["spectrum", "--alpha", alpha, "--fn", _fn_spec(job["theta"], beta),
                       "--N", str(job["N"])]
    return job


# --- running a pass -----------------------------------------------------------

class Runner:
    """Runs one workload's passes; set-up happens in the constructor.

    run_pass(on_job) returns (wall seconds, [(seconds, output or exception)]).
    on_job is called before each job starts (the tracer marks job boundaries).
    A verify pass is one job: the whole verify_all battery.
    """

    def __init__(self, workload: str, seed: int, size: str = "full"):
        from ostrowski import cli, harness

        self.workload = workload
        self.jobs = make_jobs(workload, seed, size)
        self.harness, self.cli = harness, cli
        if workload in ("correlate", "spectrum"):
            self.configs = [self._config(j) for j in self.jobs]

    def _config(self, job: dict):
        cfg = {"alpha_spec": job["alpha"], "fn_spec": _fn_spec(job["theta"], job.get("beta")),
               "N": job["N"]}
        if "R_list" in job:
            cfg["R_list"] = job["R_list"]
        else:
            cfg.update(R_list=(), seed=job["seed"])
        return self.harness.ExperimentConfig(**cfg)

    def run_pass(self, on_job=lambda: None):
        results = []
        perf = time.perf_counter
        t_pass = perf()
        for i in range(len(self.jobs)):
            on_job()
            t0 = perf()
            try:
                out = self._run(i)
            except Exception as exc:  # a raising job counts as failed
                out = exc
            results.append((perf() - t0, out))
        return perf() - t_pass, results

    def _run(self, i: int):
        if self.workload == "correlate":
            return self.harness.pseudorandomness_experiment(self.configs[i])
        if self.workload == "spectrum":
            return self.harness.spectrum_experiment(self.configs[i])
        if self.workload == "verify":
            return self.harness.verify_all(seed=self.jobs[i]["seed"], only=self.jobs[i]["only"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(self.jobs[i]["argv"])
        return rc, out.getvalue(), err.getvalue()


# --- outputs and oracles ------------------------------------------------------

def canonical(workload: str, out):
    """The part of a job's output that must repeat exactly from pass to pass.

    Timings inside an output (runtime_seconds, a CLI reply's trace) are left out.
    """
    try:
        if workload == "correlate":
            return json.dumps(out["rows"])
        if workload == "spectrum":
            return json.dumps([out["ladder"], out["scale_sums"]])
        if workload == "verify":
            return [(r.check_name, r.instances_run, r.instances_passed, r.worst_margin) for r in out]
        rc, text, err = out
        reply = json.loads(text)
        reply.pop("trace", None)
        return rc, reply, err
    except (KeyError, TypeError, ValueError, AttributeError):
        return repr(out)  # malformed: the oracle reports it


def check(workload: str, job: dict, out) -> str | None:
    """None when the output passes its oracle, else the reason it fails."""
    if isinstance(out, Exception):
        return f"raised {out!r}"
    try:
        return {"correlate": _check_correlate, "spectrum": _check_spectrum,
                "verify": _check_verify, "queries": _check_query}[workload](job, out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"


def _close(a, b) -> bool:
    return abs(a - b) <= ORACLE_TOL


def _check_correlate(job, out):
    rows, N = out["rows"], job["N"]
    if [r["R"] for r in rows] != sorted(job["R_list"]):
        return "rows do not cover R_list"
    if job["theta"] == 0.0:
        bad = [r for r in rows if r["quadratic_mean"] != 1.0 or r["absolute_mean"] != 1.0]
        return f"control Q(R) not exactly 1.0: {bad[0]}" if bad else None
    R = max(job["R_list"])
    v = values(job["alpha"], job["theta"], 0.0, N + R - 1)
    gamma = np.array([np.vdot(v[:N], v[r:r + N]) / N for r in range(R)])
    for row in rows:
        g = gamma[: row["R"]]
        if not (_close(row["quadratic_mean"], np.mean(np.abs(g) ** 2))
                and _close(row["absolute_mean"], np.mean(np.abs(g)))):
            return f"Q({row['R']}) disagrees with np.vdot gammas"
    return None


def _check_spectrum(job, out):
    ladder = out["ladder"]
    rungs = [r["N"] for r in ladder]
    if not rungs or rungs[-1] != job["N"] or any(2 * a != b for a, b in zip(rungs, rungs[1:])):
        return f"ladder {rungs} is not a doubling ladder up to N"
    for rung in ladder:
        if job["theta"] == 0.0 and job["beta"] is None:
            if (rung["beta_peak"], rung["peak_value"]) != (0.0, 1.0):
                return f"control peak {rung} is not exactly (0.0, 1.0)"
            continue
        v = values(job["alpha"], job["theta"], job["beta"] or 0.0, rung["N"])
        dense = abs(np.sum(v * np.exp(-2j * math.pi * np.mod(np.arange(rung["N"]) * rung["beta_peak"], 1.0))))
        dense /= rung["N"]
        if rung["peak_value"] < dense - ORACLE_TOL or not _close(rung["peak_value"], dense):
            return f"peak {rung['peak_value']} differs from the dense recheck {dense}"
    q, _ = q_table(job["alpha"], job["N"])
    K = max(i for i in range(1, len(q)) if q[i] <= job["N"])
    for s in out["scale_sums"]:
        mods = s["moduli"]
        if len(mods) != K + 1 or mods[0] != 1.0 or max(mods) > 1.0 + ORACLE_TOL:
            return f"scale sums malformed at beta={s['beta']}"
        if s["contraction_margin"] > ORACLE_TOL:
            return f"scale sums grow at beta={s['beta']}"
    return None


def _check_verify(job, reports):
    for report in reports:
        want = VERIFY_INSTANCES.get(report.check_name)
        if not report.ok:
            return f"{report.check_name}: {report.instances_passed}/{report.instances_run} passed"
        if report.instances_run != want:
            return f"{report.check_name}: {report.instances_run} instances, expected {want}"
    if len(reports) != len(job["only"] or VERIFY_INSTANCES):
        return f"{len(reports)} reports for {len(job['only'] or VERIFY_INSTANCES)} families"
    return None


def _check_query(job, out):
    rc, text, err = out
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    reply = json.loads(text)
    kind, alpha = job["kind"], job["alpha"]
    if kind == "encode":
        n, d = job["n"], reply["digits"]
        q, _ = q_table(alpha, n)
        if d != digits_of(n, alpha) or reply["sigma"] != sum(d):
            return f"encode({n}) digits or sigma wrong"
        if reply["psi"][str(job["lam"])] != sum(e * qk for e, qk in zip(d[: job["lam"]], q)):
            return f"psi({n}) wrong"
    elif kind == "decode":
        if reply["n"] != job["n"]:
            return f"decode gave {reply['n']}, expected {job['n']}"
    elif kind == "sigma":
        got = [(r["n"], r["sigma"]) for r in reply["rows"]]
        if got != [(n, sum(digits_of(n, alpha))) for n in job["ns"]]:
            return "sigma disagrees with brute-force digit sums"
    elif kind == "convergents":
        _, a = q_table(alpha, 1)
        p, q = [0, 1], [1, a[0]]
        for i in range(1, job["depth"]):
            p.append(a[i] * p[i] + p[i - 1])
            q.append(a[i] * q[i] + q[i - 1])
        if [(r["p"], r["q"]) for r in reply["rows"]] != list(zip(p, q)):
            return "convergents disagree with the recurrence"
    elif kind == "fourier":
        q, _ = q_table(alpha, 10**6)
        qlam = q[job["lam"]]
        G = np.array([complex(r["re"], r["im"]) for r in reply["rows"]])
        if reply["q"] != qlam or len(G) != qlam:
            return "fourier table has the wrong length"
        if reply["parseval_delta"] > ORACLE_TOL or not _close(float(np.sum(np.abs(G) ** 2)), 1.0):
            return "fourier table breaks Parseval"
        v = values(alpha, job["theta"], 0.0, qlam)
        u = np.arange(qlam)
        for h in (0, 1, qlam - 1):
            direct = np.sum(v * np.exp(-2j * math.pi * ((h * u) % qlam) / qlam)) / qlam
            if abs(G[h] - direct) > ORACLE_TOL:
                return f"G({h}) differs from the direct sum"
    elif kind == "correlate":
        N, R = job["N"], job["R"]
        v = values(alpha, job["theta"], 0.0, N + R)
        for row in reply["rows"]:
            want = np.vdot(v[:N], v[row["r"]:row["r"] + N]) / N
            if abs(complex(row["re"], row["im"]) - want) > ORACLE_TOL:
                return f"gamma_{row['r']} differs from np.vdot"
        if len(reply["rows"]) != R:
            return "correlation profile has the wrong length"
    elif kind == "spectrum":
        N = job["N"]
        v = values(alpha, job["theta"], job["beta"] or 0.0, N)
        dense = abs(np.sum(v * np.exp(-2j * math.pi * np.mod(np.arange(N) * reply["beta_peak"], 1.0)))) / N
        if reply["peak_value"] < dense - ORACLE_TOL or not _close(reply["peak_value"], dense):
            return f"spectrum peak differs from the dense recheck {dense}"
    return None
