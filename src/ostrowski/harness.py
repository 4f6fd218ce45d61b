"""Verification harness: exact-identity checks, bound sweeps, and experiments.

Every check returns a CheckReport; verify_all bundles the full battery with
the default test family (four quotient specs crossed with four theta values)
and is what the CLI `verify` subcommand runs.  Margins are oriented so that
passing instances have margin >= 0.
"""

from __future__ import annotations

import bisect
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from . import spectral
from .alphafun import AlphaFunction, from_theta, parse_fn_spec
from .cfrac import (
    ConvergentTable,
    parse_alpha_spec,
    scale_for,
    tail,
)
from .errors import RangeError, ValidationError
from .numeration import SHORT, _greedy, _walk, w_sequence
from .numerics import pairwise_sum

# Default verification family.
DEFAULT_ALPHA_SPECS = (
    "golden",
    "silver",
    "periodic:/1,2",
    "periodic:/1,2,3,1,1,4",
)
DEFAULT_THETAS = (0.5, 1 / 3, 0.1234567, 0.0)

IDENTITY_TOL = 1e-10
DENSITY_TOL = 5e-3
DENSITY_N = 10**6
CARRY_NS = (10**3, 10**4, 10**5)
CARRY_SPECS = ("golden", "silver")
CARRY_UPTO = max(CARRY_NS) + 10**5
IDENTITY_UPTO = 2 * 1024 + 256
GAP_COUNT = 10**4
GAP_SCAN_CHUNK = 1 << 20  # points per greedy pass of the gap check's brute-force scan


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check family: counts, the worst margin, failure details."""

    check_name: str
    instances_run: int
    instances_passed: int
    worst_margin: float
    details: tuple = ()

    @property
    def ok(self) -> bool:
        return self.instances_passed == self.instances_run


def _report(name: str, margins, details=()) -> CheckReport:
    """Report over a float array of margins, keeping the first ten failure details."""
    margins = np.asarray(margins, dtype=np.float64)
    worst = float(margins.min()) if margins.size else 0.0
    passed = int(np.count_nonzero(margins >= 0))
    return CheckReport(name, margins.size, passed, worst, tuple(details)[:10])


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs for an experiment run; recorded as the payload's config."""

    alpha_spec: str = "golden"
    fn_spec: str = "theta:0.5"
    N: int = 10**6
    R_list: tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048, 4096)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "R_list", tuple(int(r) for r in self.R_list))
        if self.N < 1:
            raise ValidationError("N must be >= 1")
        if any(R < 1 for R in self.R_list):
            raise ValidationError("every R in R_list must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        parse_alpha_spec(self.alpha_spec)

    def to_dict(self) -> dict:
        return asdict(self)


def _scale_and_fn(config: ExperimentConfig, upto: int) -> tuple[ConvergentTable, AlphaFunction]:
    scale = scale_for(parse_alpha_spec(config.alpha_spec), upto)
    return scale, parse_fn_spec(config.fn_spec, scale)


# --- carry bound -------------------------------------------------------------

def _moved(g: AlphaFunction, d: np.ndarray) -> np.ndarray:
    """Where a difference d of carry keys moves the atom product over digits >= lam.

    With a theta tag the key is sigma_{>=lam}(n), and d moves the product
    unless theta * d is an integer: theta = p/den in lowest terms with den a
    power of two, so exactly when den divides d (den >= 2**62 divides no
    nonzero key difference).  Without one the key is the block start
    n - psi_lam(n), and any d != 0 counts: the digits at lam and above
    changed, which the same N*r/q_{lam-1} bound covers.
    """
    if g.theta is None:
        return d != 0
    den = g.theta.as_integer_ratio()[1]
    return d != 0 if den >= 1 << 62 else d % den != 0


def _moved_transitions(g: AlphaFunction, key: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per block transition w_j -> w_{j+1}: whether crossing it moves the atom product."""
    return _moved(g, np.diff(key[starts]))


def _carry_counts(g: AlphaFunction, lam: int, r: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(count, recount) per r: the n < N for which n + r moves g's atom product over digits >= lam.

    Every level-lam gap is at least q_{lam-1}, so for r < q_{lam-1} the shift
    n -> n + r leaves the block [w_j, w_{j+1}) exactly for the r values of n
    just below w_{j+1}, and lands in the next block.  The count is then
    r * M, with M the moved transitions ending at or below N, plus the
    max(0, r - (w_{j+1} - N)) values of n below N that cross the one moved
    transition with w_j < N < w_{j+1}.  Shifts r >= q_{lam-1} are never asked
    for: N * r / q_{lam-1} >= N bounds their count trivially.  The shifts
    r = 1 and r = q_{lam-1} - 1 are also counted n by n through the same
    keys, and that dense recount is returned beside the count (equal to it
    everywhere else).
    """
    q_prev = g.scale.q[lam - 1]
    size = N + int(r.max())
    hi, ps = _greedy(g.scale, size, lam, digit_sum=True)
    # int64 keys: _moved's d % den needs them past int32 lanes (den up to 2**61)
    key = hi.astype(np.int64) if g.theta is not None else np.arange(size) - ps
    starts = np.flatnonzero(ps == 0)
    moved = _moved_transitions(g, key, starts)
    ends = starts[1:]
    M = np.count_nonzero(moved[ends <= N])
    j = int(np.searchsorted(ends, N, side="right"))
    # a transition q_{lam-1} or more past N (or none scanned) adds nothing for r < q_{lam-1}
    overhang = int(ends[j]) - N if j < len(ends) and moved[j] else q_prev
    count = r * M + np.maximum(0, r - overhang)
    recount = count.copy()
    for i in np.flatnonzero((r == 1) | (r == q_prev - 1)):
        recount[i] = np.count_nonzero(_moved(g, key[r[i] : r[i] + N] - key[:N]))
    return count, recount


def _carry_report(g: AlphaFunction, lam: int, r_values, N: int) -> CheckReport:
    """Margin N*r/q_{lam-1} - count per r, or -1 where an instance fails.

    The bound count * q_{lam-1} <= N * r is decided in exact integers; an
    instance whose dense recount differs from its block count fails too.
    """
    q_prev = g.scale.q[lam - 1]
    r = np.asarray(r_values, dtype=np.int64)
    count, recount = _carry_counts(g, lam, r, N)
    ok = (count <= N * r // q_prev) & (recount == count)
    margins = np.where(ok, N * r / q_prev - count, -1.0)
    details = []
    for i in np.flatnonzero(~ok)[:10].tolist():
        detail = {"lam": lam, "r": int(r[i]), "N": N, "count": int(count[i])}
        if recount[i] != count[i]:
            detail["recount"] = int(recount[i])
        details.append(detail)
    return _report("carry_bound", margins, details)


def carry_bound_sweep(
    g: AlphaFunction, lam_max: int, N_values=CARRY_NS
) -> CheckReport:
    """Exhaustive carry check: every lam <= lam_max, every r < q_{lam-1}.

    RangeError where some N + r passes the scale limit.
    """
    if lam_max < 1:
        raise ValidationError("lam_max must be >= 1")
    if any(N < 1 for N in N_values):
        raise ValidationError("every N must be >= 1")
    scale = g.scale
    return _merge("carry_bound", [
        _carry_report(g, lam, range(scale.q[lam - 1]), N)
        for N in N_values
        for lam in range(1, min(lam_max, scale.K) + 1)
    ])


# --- block densities ---------------------------------------------------------

def _density_formulas(scale: ConvergentTable, lam: int, a: np.ndarray) -> np.ndarray:
    """Limit densities of {n : psi_lam(n) = a} for an array of a (see density_formula)."""
    if not 1 <= lam <= scale.K:
        raise RangeError(f"lam={lam} outside 1..{scale.K}")
    if a.size and not (a.min() >= 0 and a.max() < scale.q[lam]):
        bad = a.min() if a.min() < 0 else a.max()
        raise RangeError(f"a={bad} outside [0, q_lam={scale.q[lam]})")
    t = tail(scale.spec, lam).value
    delta = 1.0 / (scale.q[lam] + scale.q[lam - 1] * t)
    return np.where(a < scale.q[lam - 1], delta * (1.0 + t), delta)


def density_formula(scale: ConvergentTable, lam: int, a: int) -> float:
    """Limit density of {n : psi_lam(n) = a}.

    delta = 1/(q_lam + q_{lam-1} * t) for a >= q_{lam-1} and delta * (1 + t)
    below, with t the tail [0; a_{lam+1}, a_{lam+2}, ...].  The two bands sum
    to exactly 1 over a < q_lam.
    """
    return float(_density_formulas(scale, lam, np.array([a]))[0])


def _density_margins(scale: ConvergentTable, lam: int, a: np.ndarray, counts: np.ndarray, N: int):
    """Formula densities, margins and failure details for psi_lam(n) = a over n < N.

    counts is np.bincount of psi_lam(n) over n < N.
    """
    formulas = _density_formulas(scale, lam, a)
    if len(counts) > scale.q[lam]:
        raise AssertionError("psi_lam produced a value >= q_lam")
    empirical = np.append(counts, 0)[np.minimum(a, len(counts))] / N  # 0 past the largest psi
    margins = DENSITY_TOL - np.abs(empirical - formulas)
    details = [{"lam": lam, "a": int(a[i]), "N": N, "empirical": float(empirical[i]),
                "formula": float(formulas[i])} for i in np.flatnonzero(~(margins >= 0))[:10]]
    return formulas, margins, details


def _psi_counts(scale: ConvergentTable, lam_max: int, N: int) -> list[np.ndarray]:
    """np.bincount of psi_lam(n) over n < N for lam = 1..lam_max, from one greedy walk.

    The walk yields no level above the top index of N - 1; there psi_lam(n) = n.
    """
    if lam_max < 1:
        return []
    counts = {k: np.bincount(psi) for k, _, psi in _walk(scale, N, 1) if k <= lam_max}
    return [counts[lam] if lam in counts else np.ones(N, dtype=np.int64)
            for lam in range(1, lam_max + 1)]


def density_sweep(scale: ConvergentTable, lam_max: int, N: int = DENSITY_N) -> CheckReport:
    """Densities for every a < q_lam, lam <= lam_max, from one greedy pass over n < N.

    Also verifies that the formula masses sum to 1 (within 1e-10) per level.
    """
    if N < 1:
        raise ValidationError("N must be >= 1")
    reports = []
    for lam, counts in enumerate(_psi_counts(scale, min(lam_max, scale.K), N), start=1):
        formulas, margins, details = _density_margins(scale, lam, np.arange(scale.q[lam]), counts, N)
        mass = 1e-10 - abs(float(np.sum(formulas)) - 1.0)
        reports.append(_report("density", np.append(mass, margins), details))
    return _merge("density", reports)


# --- gap structure -----------------------------------------------------------

def gap_structure_check(lam: int, count: int, scale: ConvergentTable) -> CheckReport:
    """Cross-check w_sequence against a brute-force digit scan.

    Verifies the first `count` gaps: starts match {n : psi_lam(n) = 0}, every
    gap is q_lam or q_{lam-1}, a kind tag is SHORT exactly where the digit at
    lam of the gap's start is maximal, and (away from the degenerate
    q_lam = q_{lam-1} case) so is a gap of length q_{lam-1}.  The scan
    reduces every n <= w_count, GAP_SCAN_CHUNK points per greedy pass, and
    keeps only the zeros of psi_lam and eps_lam at them.
    """
    block = w_sequence(lam, count + 1, scale)
    starts = np.asarray(block.starts, dtype=np.int64)
    zero_chunks, eps_chunks = [], []
    stop = int(starts[-1]) + 1
    for lo in range(0, stop, GAP_SCAN_CHUNK):
        eps_lam, psi_lam = _greedy(scale, min(lo + GAP_SCAN_CHUNK, stop), lam, start=lo)
        zeros = np.flatnonzero(psi_lam == 0)
        zero_chunks.append(lo + zeros)
        eps_chunks.append(eps_lam[zeros])
        del eps_lam, psi_lam  # else two chunks are alive while the next pass allocates
    if not np.array_equal(np.concatenate(zero_chunks), starts):
        return _report("gap_structure", [-1.0],
                       [{"lam": lam, "mismatch": "start set differs from brute force"}])
    gaps = np.diff(starts)
    q_long, q_short = scale.q[lam], scale.q[lam - 1]
    top = np.concatenate(eps_chunks)[:-1] == scale.digit_bound(lam)
    checks = [(np.isin(gaps, [q_long, q_short]).all(), "gap outside {q_lam, q_lam-1}")]
    if q_long != q_short:  # at a degenerate level lengths cannot tell the kinds apart
        checks.append((np.array_equal(gaps == q_short, top), "short-gap rule violated"))
    checks.append((np.array_equal(np.array(block.kinds) == SHORT, top), "kind tags disagree"))
    margins = [0.0 if ok else -1.0 for ok, _ in checks]
    details = [{"lam": lam, "mismatch": mismatch} for ok, mismatch in checks if not ok]
    return _report("gap_structure", margins, details)


# --- experiments -------------------------------------------------------------

def pseudorandomness_experiment(config: ExperimentConfig) -> dict:
    """Correlation quadratic means Q(R) for each configured R at fixed N."""
    if not config.R_list:
        raise ValidationError("R_list must not be empty")
    if config.N < max(config.R_list):
        raise ValidationError("N must be >= max(R_list)")
    t0 = time.perf_counter()
    _, g = _scale_and_fn(config, config.N + max(config.R_list) - 1)  # n < N + R - 1
    profile = spectral.correlation_profile(g, max(config.R_list), config.N)
    rows = []
    for R in sorted(config.R_list):
        absm = float(pairwise_sum(np.abs(profile.gamma[:R])).real / R)
        rows.append({"R": R, "quadratic_mean": spectral.quadratic_mean(profile, R),
                     "absolute_mean": absm})
    payload = {
        "config": {k: v for k, v in config.to_dict().items() if k != "seed"},  # seed is never read
        "N": config.N,
        "route": profile.route,
        "rows": rows,
        "runtime_seconds": time.perf_counter() - t0,
    }
    return payload


def spectrum_experiment(config: ExperimentConfig) -> dict:
    """Peak |exponential sum| along a doubling ladder of N, plus scale sums.

    The scale-sum section draws 16 uniform betas from the configured seed and
    reports |S_i| along the convergent scales q_i <= N (i >= 0) together with
    the worst contraction margin max(|S_{i+1}| - max(|S_i|, |S_{i-1}|)), 0.0
    with fewer than three scales.
    """
    t0 = time.perf_counter()
    scale, g = _scale_and_fn(config, config.N)
    ladder_ns = []
    n = config.N
    while n >= 4096:
        ladder_ns.append(n)
        n //= 2
    if not ladder_ns:
        ladder_ns = [config.N]
    ladder = []
    for n in sorted(ladder_ns):
        scan = spectral.spectrum_scan(g, n)
        ladder.append({"N": n, "beta_peak": scan.beta_peak, "peak_value": scan.peak_value})
    rng = np.random.default_rng(config.seed)
    K = bisect.bisect_right(scale.q, config.N) - 1  # q_0 = 1 alone when N < q_1
    sums = []
    for beta in rng.random(16):
        S = spectral.scale_sums(g, float(beta), K)
        mods = np.abs(S)
        contraction = float(
            max(mods[i + 1] - max(mods[i], mods[i - 1]) for i in range(1, K))
        ) if K >= 2 else 0.0
        sums.append({"beta": float(beta), "moduli": mods.tolist(),
                     "contraction_margin": contraction})
    payload = {
        "config": {k: v for k, v in config.to_dict().items() if k != "R_list"},  # never read here
        "ladder": ladder,
        "scale_sums": sums,
        "runtime_seconds": time.perf_counter() - t0,
    }
    return payload


# --- the full battery --------------------------------------------------------

def _scales(spec_texts, upto: int) -> list[ConvergentTable]:
    """One table per alpha spec, each covering n < upto."""
    return [scale_for(parse_alpha_spec(spec_text), upto) for spec_text in spec_texts]


def _with_fn(scales, fn_spec: str) -> list[tuple[ConvergentTable, AlphaFunction]]:
    """fn_spec parsed against every scale (ValidationError where it does not fit)."""
    return [(scale, parse_fn_spec(fn_spec, scale)) for scale in scales]


def _identity_family():
    """Scales and functions the identity checks run over (q_lam <= 1024)."""
    return [(scale, from_theta(theta, scale))
            for scale in _scales(DEFAULT_ALPHA_SPECS, IDENTITY_UPTO) for theta in DEFAULT_THETAS]


def _run_fejer(rng) -> CheckReport:
    margins = []
    for _ in range(100):
        R = int(rng.integers(1, 257))
        x = float(rng.random())
        _, _, delta = spectral.fejer_check(R, x)
        margins.append(IDENTITY_TOL * R * R - delta)
    return _report("fejer", margins)


def _run_sieve(rng) -> CheckReport:
    margins = []
    for _ in range(500):
        H = int(rng.integers(1, 129))
        R = int(rng.integers(1, 129))
        t = float(rng.random())
        lhs, bound, _ = spectral.large_sieve_check(H, R, t)
        margins.append(bound + spectral.SIEVE_SLACK - lhs)
    return _report("large_sieve", margins)


def _run_vdc(rng) -> CheckReport:
    margins = []
    for _ in range(200):
        L = int(rng.integers(2, 257))
        R = int(rng.integers(1, L + 1))
        seq = np.exp(2j * np.pi * rng.random(L))
        lhs, rhs, _ = spectral.vdc_check(seq, R)
        margins.append(rhs.real + spectral.VDC_SLACK * L * L - lhs)
    return _report("van_der_corput", margins)


def _run_parseval(rng, family=None) -> CheckReport:
    margins = []
    for scale, g in family or _identity_family():
        for lam in range(1, scale.K + 1):
            if scale.q[lam] > 1024:
                break
            _, _, delta = spectral.parseval_check(g, lam)
            margins.append(IDENTITY_TOL - delta)
    return _report("parseval", margins)


def _run_cyclic(rng, family=None) -> CheckReport:
    margins = []
    for scale, g in family or _identity_family():
        for lam in range(1, scale.K + 1):
            q = scale.q[lam]
            if q > 1024:
                break
            deltas = spectral.cyclic_identity_sweep(g, lam, range(0, min(q, 64) + 1))
            margins.extend(IDENTITY_TOL * q - d for d in deltas)
    return _report("cyclic_identity", margins)


def _run_carry(rng, family=None) -> CheckReport:
    family = family or [(scale, from_theta(0.5, scale)) for scale in _scales(CARRY_SPECS, CARRY_UPTO)]
    return _merge("carry_bound", [carry_bound_sweep(g, 12) for _, g in family])


def _run_density(rng) -> CheckReport:
    reports = []
    for spec_text in ("golden", "silver"):
        scale = scale_for(parse_alpha_spec(spec_text), DENSITY_N + 1)
        reports.append(density_sweep(scale, 6))
    return _merge("density", reports)


def _run_gaps(rng) -> CheckReport:
    reports = []
    for spec_text in DEFAULT_ALPHA_SPECS:
        spec = parse_alpha_spec(spec_text)
        probe = scale_for(spec, 4096)
        for lam in range(1, 9):
            # trim the table so the digit scans do not walk unused high levels
            scale = scale_for(spec, (GAP_COUNT + 2) * probe.q[lam])
            reports.append(gap_structure_check(lam, GAP_COUNT, scale))
    return _merge("gap_structure", reports)


def _merge(name: str, reports) -> CheckReport:
    return CheckReport(
        check_name=name,
        instances_run=sum(r.instances_run for r in reports),
        instances_passed=sum(r.instances_passed for r in reports),
        worst_margin=min((r.worst_margin for r in reports), default=0.0),
        details=tuple(d for r in reports for d in r.details)[:10],
    )


CHECK_FAMILIES = {
    "fejer": _run_fejer,
    "large_sieve": _run_sieve,
    "vdc": _run_vdc,
    "parseval": _run_parseval,
    "cyclic": _run_cyclic,
    "carry": _run_carry,
    "density": _run_density,
    "gaps": _run_gaps,
}


def verify_all(
    seed: int = 0,
    only: str | Sequence[str] | None = None,
    fn_spec: str | None = None,
) -> list[CheckReport]:
    """Run the check battery (or a subset: `only` is a family name or a list).

    With fn_spec, the families that check a function (parseval and cyclic
    over the four default scales, carry over golden and silver) run on
    fn_spec parsed against each scale instead of the default theta family.
    It is parsed against every one of those scales before any check runs, so
    an atom table that does not fit raises ValidationError first.
    """
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    families = {}
    if fn_spec is not None:
        identity = _with_fn(_scales(DEFAULT_ALPHA_SPECS, IDENTITY_UPTO), fn_spec)
        carry = _with_fn(_scales(CARRY_SPECS, CARRY_UPTO), fn_spec)
        families = {"parseval": identity, "cyclic": identity, "carry": carry}
    if only is None:
        names = list(CHECK_FAMILIES)
    elif isinstance(only, str):
        names = [only]
    else:
        names = list(only)
    unknown = [n for n in names if n not in CHECK_FAMILIES]
    if unknown:
        raise ValidationError(f"unknown check families: {unknown}; know {sorted(CHECK_FAMILIES)}")
    rng = np.random.default_rng(seed)
    return [CHECK_FAMILIES[name](rng, families[name]) if name in families
            else CHECK_FAMILIES[name](rng) for name in names]
