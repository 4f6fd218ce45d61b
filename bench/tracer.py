"""Span recorder for the benchmark's traced run.

The recorder wraps package functions from outside the package: every module
attribute bound to a wrapped function object is replaced, so calls through
names other modules imported (``spectral.values_range``, ``alphafun.encode``,
``harness.psi_range``) are recorded as well as calls through the defining
module.  Each call becomes one span (layer function, parent span, job id,
start, end, size); spans live in flat arrays until the run ends.

A layer's self time is the sum over its spans of duration minus the time
covered by direct child spans.  The run is single-threaded, so child spans
never overlap and this is exact.
"""

from __future__ import annotations

import argparse
import time
from array import array

import numpy as np

_MODULES = ("cfrac", "numeration", "alphafun", "numerics", "spectral", "harness", "cli")


def _arg(pos, name):
    """Size extractor: an integer argument given by position or keyword."""
    def size(args, kwargs):
        return int(args[pos]) if len(args) > pos else int(kwargs[name])
    return size


def _length(args, kwargs):
    return len(args[0]) if args else len(next(iter(kwargs.values())))


# (module, function, layer, size extractor).  Sizes: points for the range
# kernels and values_range, elements for pairwise_sum, points for the phases.
WRAPPED = (
    *(("cfrac", f, "cfrac", None) for f in (
        "parse_alpha_spec", "format_alpha_spec", "expand", "expand_max",
        "scale_for", "alpha_value", "tail")),
    *(("numeration", f, "numeration.encode", None) for f in (
        "encode", "decode", "sigma", "psi", "digit_string", "validate")),
    ("numeration", "psi_range", "numeration.kernel", _arg(2, "count")),
    ("numeration", "digit_at_range", "numeration.kernel", _arg(2, "count")),
    ("numeration", "high_digit_sum_range", "numeration.kernel", _arg(2, "count")),
    ("numeration", "sigma_range", "numeration.kernel", _arg(1, "count")),
    *(("numeration", f, "numeration.blocks", None) for f in (
        "w_sequence", "block_counts", "block_densities", "iterate")),
    ("alphafun", "values_range", "alphafun.values_range", _arg(1, "count")),
    *(("alphafun", f, "alphafun.eval", None) for f in (
        "evaluate", "evaluate_truncated", "trunc_values_range")),
    *(("alphafun", f, "alphafun.atoms", None) for f in (
        "from_theta", "twist", "parse_fn_spec", "load_atoms")),
    ("numerics", "pairwise_sum", "numerics.pairwise_sum", _length),
    ("numerics", "frac_mul_range", "numerics.phase", _arg(0, "count")),
    ("numerics", "unit", "numerics.phase", None),
    ("spectral", "correlation_profile", "spectral.correlation_profile", None),
    ("spectral", "spectrum_scan", "spectral.spectrum_scan", None),
    ("spectral", "scale_sums", "spectral.scale_sums", None),
    ("spectral", "fourier_coeffs", "spectral.fourier", None),
    ("spectral", "_dft_direct", "spectral.fourier", None),
    ("spectral", "_dft_fast", "spectral.fourier", None),
    *(("spectral", f, "spectral.checks", None) for f in (
        "correlation", "quadratic_mean", "parseval_check", "cyclic_identity_check",
        "cyclic_identity_sweep", "exponential_sum", "block_correlation_estimate",
        "fejer_check", "large_sieve_check", "vdc_check")),
    *(("harness", f, "harness", None) for f in (
        "pseudorandomness_experiment", "spectrum_experiment", "verify_all",
        "carry_bound_check", "carry_bound_sweep", "density_formula",
        "density_check", "density_sweep", "gap_structure_check")),
    *(("cli", f, "cli", None) for f in (
        "main", "cmd_encode", "cmd_decode", "cmd_sigma", "cmd_convergents",
        "cmd_correlate", "cmd_fourier", "cmd_spectrum", "cmd_verify", "_scale_fn")),
    ("cli", "build_parser", "cli.parse", None),
    ("cli", "_emit", "cli.emit", None),
)

# Layers whose self time is reported, in stack order.
LAYERS = (
    "cfrac", "numeration.encode", "numeration.kernel", "numeration.blocks",
    "alphafun.values_range", "alphafun.eval", "alphafun.atoms",
    "numerics.pairwise_sum", "numerics.phase",
    "spectral.correlation_profile", "spectral.spectrum_scan", "spectral.scale_sums",
    "spectral.fourier", "spectral.checks", "harness", "cli", "cli.parse", "cli.emit",
)

VERIFY_FAMILIES = ("fejer", "large_sieve", "vdc", "parseval", "cyclic", "carry", "density", "gaps")


def _metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [
        ("cfrac.calls", "count"),
        ("numeration.encode.calls", "count"),
        ("numeration.kernel.points", "count"),
        ("alphafun.values_range.calls", "count"),
        ("alphafun.values_range.points", "count"),
        ("alphafun.values_range.recomputed_frac", "ratio"),
        ("numerics.pairwise_sum.calls", "count"),
        ("numerics.pairwise_sum.elements", "count"),
        ("numerics.phase.calls", "count"),
        ("numerics.phase.points", "count"),
        ("spectral.fourier.direct_calls", "count"),
        ("spectral.fourier.fft_calls", "count"),
        ("cli.emit.bytes", "bytes"),
    ]
    for fam in VERIFY_FAMILIES:
        names += [(f"harness.verify.{fam}.s", "s"), (f"harness.verify.{fam}.instances", "count")]
    for layer in LAYERS:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.share", "ratio")]
    names += [
        ("bench.share", "ratio"),
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


METRICS = _metric_names()


def _set(owner, key: str, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Records one span per call of every wrapped package function.

    ``install()`` patches the package and ``uninstall()`` restores it (both
    can repeat), ``new_job()`` marks job boundaries, ``mark()`` snapshots the
    position at a pass boundary, and ``pass_counts(a, b)`` aggregates the
    spans between two marks.
    """

    def __init__(self):
        self.fn_names: list[str] = []
        self.fn_layers: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]
        self._job = [0]
        self._built: dict[int, tuple[object, int]] = {}
        self._recomputed = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # --- recording ------------------------------------------------------------

    def new_job(self) -> None:
        """Start a new job: later spans get a fresh id and values_range reuse resets."""
        self._job[0] += 1
        self._built.clear()

    def mark(self) -> tuple[int, int]:
        """(span count, recomputed values_range points) at a pass boundary."""
        return len(self.start), self._recomputed

    def _values_range_size(self, args, kwargs):
        """Points of one values_range call; tallies the prefix this job already built."""
        g = args[0] if args else kwargs["g"]
        count = int(args[1]) if len(args) > 1 else int(kwargs["count"])
        held = self._built.get(id(g))
        done = held[1] if held else 0
        self._recomputed += min(done, count)
        self._built[id(g)] = (g, max(done, count))  # holding g keeps its id unique
        return count

    def _wrap(self, fn, label: str, layer: str, size):
        self.fn_names.append(label)
        self.fn_layers.append(LAYERS.index(layer))
        fn_id = len(self.fn_names) - 1
        name, parent, job, start, end, sizes = (
            self.name, self.parent, self.job, self.start, self.end, self.size)
        stack, job_ref, perf = self._stack, self._job, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(fn_id)
            parent.append(stack[-1])
            job.append(job_ref[0])
            sizes.append(size(args, kwargs) if size is not None else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, key, original, wrapper) for every binding the recorder replaces."""
        import importlib

        mods = {m: importlib.import_module(f"ostrowski.{m}") for m in _MODULES}
        holders = [importlib.import_module("ostrowski"), *mods.values()]
        plan = []
        for mod_name, fn_name, layer, size in WRAPPED:
            orig = getattr(mods[mod_name], fn_name, None)
            if orig is None:  # renamed or removed in this version of the package
                continue
            if fn_name == "values_range":
                size = self._values_range_size
            wrapped = self._wrap(orig, f"{mod_name}.{fn_name}", layer, size)
            for holder in holders:
                plan += [(holder, attr, orig, wrapped)
                         for attr, value in vars(holder).items() if value is orig]
        families = mods["harness"].CHECK_FAMILIES
        for fam, fn in families.items():
            plan.append((families, fam, fn,
                         self._wrap(fn, f"harness.verify.{fam}", "harness", None)))
        parse_args = argparse.ArgumentParser.parse_args
        plan.append((argparse.ArgumentParser, "parse_args", parse_args,
                     self._wrap(parse_args, "argparse.parse_args", "cli.parse", None)))
        return plan

    def install(self) -> None:
        """Replace every planned binding by its wrapper (the plan is built once)."""
        if not self._patches:
            self._patches = self._plan()
        for owner, key, _, wrapped in self._patches:
            _set(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig, _ in self._patches:
            _set(owner, key, orig)

    # --- output ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "fn_names": np.array(self.fn_names),
            "fn_layers": np.array([LAYERS[i] for i in self.fn_layers]),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path: str, **meta) -> None:
        """Write every span (and the run's metadata) to an uncompressed .npz file."""
        np.savez(path, **self.arrays(), **{k: np.array(v) for k, v in meta.items()})

    def pass_counts(self, first: tuple[int, int], last: tuple[int, int]) -> dict:
        """Per-layer counts and self times for the spans between two marks."""
        lo, hi = first[0], last[0]
        F, L = len(self.fn_names), len(LAYERS)
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        size = np.frombuffer(self.size, dtype=np.int64)[lo:hi].astype(np.float64)
        inside = parent >= 0
        covered = np.bincount(parent[inside], weights=dur[inside], minlength=hi - lo)
        self_by_fn = np.bincount(name, weights=dur - covered, minlength=F)
        calls_by_fn = np.bincount(name, minlength=F)
        size_by_fn = np.bincount(name, weights=size, minlength=F)
        fn_layer = np.array(self.fn_layers, dtype=np.int64)
        span_layer = fn_layer[name] if F else np.zeros(0, dtype=np.int64)
        parent_layer = np.where(inside, span_layer[np.where(inside, parent, 0)], -1)
        entry = span_layer != parent_layer  # outermost span of a same-layer nest
        entries = np.bincount(span_layer[entry], minlength=L)
        entry_size = np.bincount(span_layer[entry], weights=size[entry], minlength=L)
        layer_self = np.bincount(fn_layer, weights=self_by_fn, minlength=L)

        def by_fn(table, label):
            return int(table[self.fn_names.index(label)]) if label in self.fn_names else 0

        def layer(label):
            return LAYERS.index(label)

        points = by_fn(size_by_fn, "alphafun.values_range")
        out = {f"{name_}.self_s": float(layer_self[i]) for i, name_ in enumerate(LAYERS)}
        out.update({
            "cfrac.calls": int(entries[layer("cfrac")]),
            "numeration.encode.calls": int(entries[layer("numeration.encode")]),
            "numeration.kernel.points": int(entry_size[layer("numeration.kernel")]),
            "alphafun.values_range.calls": by_fn(calls_by_fn, "alphafun.values_range"),
            "alphafun.values_range.points": points,
            "alphafun.values_range.recomputed_frac": (last[1] - first[1]) / points if points else 0.0,
            "numerics.pairwise_sum.calls": by_fn(calls_by_fn, "numerics.pairwise_sum"),
            "numerics.pairwise_sum.elements": by_fn(size_by_fn, "numerics.pairwise_sum"),
            "numerics.phase.calls": by_fn(calls_by_fn, "numerics.frac_mul_range"),
            "numerics.phase.points": by_fn(size_by_fn, "numerics.frac_mul_range"),
            "spectral.fourier.direct_calls": by_fn(calls_by_fn, "spectral._dft_direct"),
            "spectral.fourier.fft_calls": by_fn(calls_by_fn, "spectral._dft_fast"),
            "trace.spans": hi - lo,
        })
        for fam in VERIFY_FAMILIES:
            label = f"harness.verify.{fam}"
            hit = name == self.fn_names.index(label) if label in self.fn_names else []
            out[f"{label}.s"] = float(dur[hit].sum())
        return out
