"""Verification harness: exact-identity checks, bound sweeps, and experiments.

Every check returns a CheckReport; verify_all bundles the full battery, and
is what the CLI `verify` subcommand runs.  It builds each function family
once, before any check runs: by default four quotient specs crossed with four
theta fn specs.  Margins are oriented so that passing instances have
margin >= 0.  The brute-force oracles (the psi_lam counts of the densities,
the carry keys and the gap scan) read the tiles of the greedy walk directly,
and each of them walks a point once: the carry counts of every (N, lam) are
streamed off one walk per function, and the gap scan walks each n down to
the lowest level that still needs it, to be compared with the starts and
digits of the block-start table.  The densities walk only the top level
lam_max of a scale and fold each lower level's counts exactly from the
level above, as psi_lam(n) = psi_{lam+1}(n) mod q_lam.
"""

from __future__ import annotations

import bisect
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from . import spectral
from .alphafun import AlphaFunction, fn_for, parse_fn_spec
from .cfrac import (
    ConvergentTable,
    expand_max,
    parse_alpha_spec,
    scale_for,
    tail,
)
from .errors import RangeError, ValidationError
from .numeration import _block_table, _walk

# Default verification family.
DEFAULT_ALPHA_SPECS = (
    "golden",
    "silver",
    "periodic:/1,2",
    "periodic:/1,2,3,1,1,4",
)
DEFAULT_THETAS = (0.5, 1 / 3, 0.1234567, 0.0)
THETA_FNS = tuple(f"theta:{theta!r}" for theta in DEFAULT_THETAS)  # the same atoms as from_theta
CARRY_FN = "theta:0.5"

IDENTITY_TOL = 1e-10
DENSITY_TOL = 5e-3
DENSITY_N = 10**6
CARRY_NS = (10**3, 10**4, 10**5)
CARRY_SPECS = ("golden", "silver")
CARRY_UPTO = max(CARRY_NS) + 10**5
IDENTITY_UPTO = 2 * 1024 + 256
GAP_COUNT = 10**4
GAP_LAM_MAX = 8  # the gap family checks levels 1..GAP_LAM_MAX of each default scale


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
    """Inputs of an experiment run (its payload's config); each experiment checks what only it reads."""

    alpha_spec: str = "golden"
    fn_spec: str = "theta:0.5"
    N: int = 10**6
    R_list: tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048, 4096)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "R_list", tuple(self.R_list))
        for name, value in (("N", self.N), ("seed", self.seed), *(("every R", r) for r in self.R_list)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.N < 1:
            raise ValidationError("N must be >= 1")
        parse_alpha_spec(self.alpha_spec)

    def to_dict(self) -> dict:
        return asdict(self)


# --- carry bound -------------------------------------------------------------

def _moved(g: AlphaFunction, d: np.ndarray) -> np.ndarray:
    """Where a difference d of carry keys moves the atom product over digits >= lam.

    With a theta tag the key is sigma_{>=lam}(n), and d moves the product
    unless theta * d is an integer: theta = p/den in lowest terms with den a
    power of two, so exactly when den divides d: when the low bits
    d & (den - 1) are zero, negative d included.  A den past the largest
    value of d's lanes (int32 or int64) divides no nonzero d in them.
    Without one the key is the block start
    n - psi_lam(n), and any d != 0 counts: the digits at lam and above
    changed, which the same N*r/q_{lam-1} bound covers.
    """
    if g.theta is None:
        return d != 0
    den = g.theta.as_integer_ratio()[1]
    return d != 0 if den > np.iinfo(d.dtype).max else d & (den - 1) != 0


def _moved_transitions(g: AlphaFunction, start_keys: np.ndarray) -> np.ndarray:
    """Per transition between consecutive block starts, given their keys: whether it moves the product."""
    return _moved(g, np.diff(start_keys))


class _CarryLevel:
    """One level's carry counts for every N at once, updated tile by tile off the greedy walk.

    Per N it keeps M, the moved transitions ending at or below N, and the
    overhang w_{j+1} - N of the first transition past N (q_{lam-1} when it
    does not move, -1 until it is seen); per dense shift r (1 and
    q_{lam-1} - 1) the n < N whose key moves between n and n + r.  Across
    tiles it carries only the key at the level's last start and, per dense
    shift r, a ring of the keys at the last r points walked (the key at n in
    slot n % r), which may span several tiles.
    """

    def __init__(self, g: AlphaFunction, lam: int, Ns: np.ndarray):
        self.g, self.Ns = g, Ns
        self.q_prev = g.scale.q[lam - 1]
        self.M = np.zeros(len(Ns), dtype=np.int64)
        self.overhang = np.full(len(Ns), -1, dtype=np.int64)
        self.last = None
        self.rings = {r: None for r in sorted({1, self.q_prev - 1}) if 0 < r < self.q_prev}
        self.dense = {r: np.zeros(len(Ns), dtype=np.int64) for r in self.rings}

    def update(self, base: int, key: np.ndarray, psi: np.ndarray) -> None:
        """Take the tile [base, base + len(key)): the keys and psi_lam of its points."""
        at = np.flatnonzero(psi == 0)  # the tile's starts, from base
        if len(at):  # the first start is n = 0, so later tiles always follow one
            start_keys = key[at] if self.last is None else np.concatenate((self.last, key[at]))
            ends = at[1:] if self.last is None else at
            self.last = start_keys[-1:].copy()
            moved = _moved_transitions(self.g, start_keys)
            j = np.searchsorted(ends, self.Ns - base, side="right")
            self.M += [np.count_nonzero(moved[:end]) for end in j.tolist()]
            for i in np.flatnonzero((self.overhang < 0) & (j < len(ends))).tolist():
                self.overhang[i] = base + ends[j[i]] - self.Ns[i] if moved[j[i]] else self.q_prev
        size, reach = len(key), int(self.Ns.max())
        for r, ring in self.rings.items():
            if ring is None:
                ring = self.rings[r] = np.empty(r, dtype=key.dtype)
            first, stop = max(base, r), min(base + size, reach + r)  # pairs (m - r, m), m in [first, stop)
            if first < stop:
                lo, hi = first - r, stop - r  # the partners: those below base from the ring
                partner = np.concatenate((ring.take(np.arange(lo, min(base, hi)), mode="wrap"),
                                          key[max(lo, base) - base : max(hi - base, 0)]))
                moved = _moved(self.g, key[first - base : stop - base] - partner)
                for i, N in enumerate(self.Ns.tolist()):
                    self.dense[r][i] += np.count_nonzero(moved[: max(0, N + r - first)])
            last = np.arange(max(size - r, 0), size)  # the ring takes the tile's last keys
            ring.put(base + last, key[last], mode="wrap")

    def counts(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(count, recount) for r = 0..q_{lam-1}-1 at the i-th N."""
        r = np.arange(self.q_prev, dtype=np.int64)
        # no transition seen past N, or one that does not move, adds nothing for r < q_{lam-1}
        overhang = self.overhang[i] if self.overhang[i] >= 0 else self.q_prev
        count = r * self.M[i] + np.maximum(0, r - overhang)
        recount = count.copy()
        for shift, dense in self.dense.items():
            recount[shift] = dense[i]
        return count, recount


def _carry_counts(g: AlphaFunction, lam_max: int, N_values) -> dict:
    """The carry counts of every (N, lam <= lam_max): (count, recount) over r < q_{lam-1}.

    A count is the number of n < N for which n + r moves g's atom product
    over digits >= lam.  Every level-lam gap is at least q_{lam-1}, so for
    r < q_{lam-1} the shift n -> n + r leaves the block [w_j, w_{j+1})
    exactly for the r values of n just below w_{j+1}, and lands in the next
    block.  The count is then
    r * M, with M the moved transitions ending at or below N, plus the
    max(0, r - (w_{j+1} - N)) values of n below N that cross the one moved
    transition with w_j < N < w_{j+1}.  Shifts r >= q_{lam-1} are never asked
    for: N * r / q_{lam-1} >= N bounds their count trivially.  The shifts
    r = 1 and r = q_{lam-1} - 1 are also counted n by n through the same
    keys, and that dense recount is returned beside the count (equal to it
    everywhere else).  The key of n is sigma_{>=lam}(n) with a theta tag and
    the block start n - psi_lam(n) without one.  One greedy walk over
    [0, max N + q_{lam_max-1} - 1) (RangeError past the scale limit) serves
    every level, streamed tile by tile into a _CarryLevel each.
    """
    Ns = np.array(N_values, dtype=np.int64)
    levels = {lam: _CarryLevel(g, lam, Ns) for lam in range(1, lam_max + 1)}
    stop = int(Ns.max()) + g.scale.q[lam_max - 1] - 1
    tagged = g.theta is not None
    tile = key = None
    for base, k, eps, psi in _walk(g.scale, stop, 1, hi=None if tagged else lam_max):
        if tagged:  # the key sums the digits of every level down to k
            if base != tile:
                tile, key = base, eps.copy()
            else:
                key += eps
        if k <= lam_max:
            levels[k].update(base, key if tagged else np.arange(base, base + len(psi)) - psi, psi)
    return {(N, lam): level.counts(i) for lam, level in levels.items() for i, N in enumerate(N_values)}


def _carry_report(g: AlphaFunction, lam: int, N: int, r, count, recount) -> CheckReport:
    """Margin N*r/q_{lam-1} - count per r, or -1 where an instance fails.

    The bound count * q_{lam-1} <= N * r is decided in exact integers; an
    instance whose dense recount differs from its block count fails too.
    """
    q_prev = g.scale.q[lam - 1]
    r = np.asarray(r, dtype=np.int64)
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

    The counts of every (N, lam) come from one streamed greedy walk
    (_carry_counts).  RangeError where some N + r passes the scale limit.
    """
    if lam_max < 1:
        raise ValidationError("lam_max must be >= 1")
    N_values = tuple(N_values)
    if any(N < 1 for N in N_values):
        raise ValidationError("every N must be >= 1")
    lam_max = min(lam_max, g.scale.K)
    counts = _carry_counts(g, lam_max, N_values) if N_values and lam_max else {}
    return _merge("carry_bound", [
        _carry_report(g, lam, N, np.arange(g.scale.q[lam - 1]), *counts[N, lam])
        for N in N_values
        for lam in range(1, lam_max + 1)
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
    """np.bincount of psi_lam(n) over n < N for lam = 1..lam_max, from a walk of level lam_max alone.

    The walk's level lam_max is counted tile by tile into a q_{lam_max}-long
    row; where it yields none (N - 1 < q_{lam_max}), psi_{lam_max}(n) = n and the
    row is N ones.  Each lower level is folded exactly from the one above,
    as psi_lam(n) = psi_{lam+1}(n) mod q_lam: counts_lam[v] sums the counts
    of the values congruent to v, so the row above is cut into q_lam-long
    pieces and summed.  Every row is trimmed after the largest psi_lam seen.
    """
    q = scale.q
    counts = None
    for _, _, _, psi in _walk(scale, N, lam_max, hi=lam_max):
        tile = np.bincount(psi, minlength=q[lam_max])
        counts = tile if counts is None else counts + tile
    rows = [np.ones(N, dtype=np.int64) if counts is None else np.trim_zeros(counts, "b")]
    for lam in range(lam_max - 1, 0, -1):
        above = np.pad(rows[-1], (0, -len(rows[-1]) % q[lam]))
        rows.append(np.trim_zeros(above.reshape(-1, q[lam]).sum(axis=0), "b"))
    return rows[::-1]


def density_sweep(scale: ConvergentTable, lam_max: int, N: int = DENSITY_N) -> CheckReport:
    """Densities for every a < q_lam, lam <= lam_max, from one walk of level lam_max over n < N.

    Also verifies that the formula masses sum to 1 (within 1e-10) per level.
    """
    if lam_max < 1:
        raise ValidationError("lam_max must be >= 1")
    if N < 1:
        raise ValidationError("N must be >= 1")
    reports = []
    for lam, counts in enumerate(_psi_counts(scale, min(lam_max, scale.K), N), start=1):
        formulas, margins, details = _density_margins(scale, lam, np.arange(scale.q[lam]), counts, N)
        mass = 1e-10 - abs(float(np.sum(formulas)) - 1.0)
        reports.append(_report("density", np.append(mass, margins), details))
    return _merge("density", reports)


# --- gap structure -----------------------------------------------------------

def _gap_scan(scale: ConvergentTable, ends) -> list[tuple[np.ndarray, np.ndarray]]:
    """Brute-force zeros of psi_lam below ends[lam - 1], and eps_lam at each, for lam = 1, 2, ...

    Each n >= 1 is walked once: in the band [ends[lam - 2], ends[lam - 1])
    (from 1 for lam = 1), down to level lam only, as the scans of the levels
    below lam end before the band.  A level above the top index of a band's
    last point is not walked; there psi = n, never zero.  Nor is n = 0: it
    is a zero of every level, with every digit 0.  Ends that fall (only a
    wrong block-start table gives them) make empty bands, and each level
    keeps only its zeros below its own end.
    """
    lam_max = len(ends)
    zeros = [[np.zeros(1, dtype=np.int64)] for _ in ends]
    eps = [[np.zeros(1, dtype=np.int64)] for _ in ends]
    lo = 1
    for lam, end in enumerate(ends, start=1):
        stop = max(lo, end)
        for base, k, digits, rem in _walk(scale, stop, lam, start=lo, hi=lam_max):
            at = np.flatnonzero(rem == 0)
            zeros[k - 1].append(base + at)
            eps[k - 1].append(digits[at])
        lo = stop
    out = []
    for z, e, end in zip(zeros, eps, ends):
        z, e = np.concatenate(z), np.concatenate(e)
        inside = z < end
        out.append((z[inside], e[inside]))
    return out


def _gap_report(lam: int, starts: np.ndarray, table_eps: np.ndarray, zeros: np.ndarray,
                eps: np.ndarray, scale: ConvergentTable) -> CheckReport:
    """Checks of one level's block starts and eps_lam at them against the brute-force scan."""
    if not np.array_equal(zeros, starts):
        return _report("gap_structure", [-1.0],
                       [{"lam": lam, "mismatch": "start set differs from brute force"}])
    gaps = np.diff(starts)
    q_long, q_short = scale.q[lam], scale.q[lam - 1]
    top = eps[:-1] == scale.digit_bound(lam)
    checks = [(np.isin(gaps, [q_long, q_short]).all(), "gap outside {q_lam, q_lam-1}")]
    if q_long != q_short:  # at a degenerate level lengths cannot tell the kinds apart
        checks.append((np.array_equal(gaps == q_short, top), "short-gap rule violated"))
    # SHORT iff eps_lam = a_{lam+1}: equal digits decide every kind tag
    checks.append((np.array_equal(table_eps, eps), "eps_lam differs from brute force"))
    margins = [0.0 if ok else -1.0 for ok, _ in checks]
    details = [{"lam": lam, "mismatch": mismatch} for ok, mismatch in checks if not ok]
    return _report("gap_structure", margins, details)


def gap_structure_sweep(scale: ConvergentTable, lam_max: int, count: int = GAP_COUNT) -> CheckReport:
    """Cross-check the block-start table against a brute-force digit scan at every lam <= lam_max.

    Verifies the first `count` gaps of each level in the first count + 1
    starts of its block-start table and eps_lam at each (_block_table, which
    w_sequence reads): the starts match {n : psi_lam(n) = 0},
    every gap is q_lam or q_{lam-1}, (away from the degenerate
    q_lam = q_{lam-1} case) a gap is q_{lam-1} exactly where eps_lam of its
    start is a_{lam+1}, and eps_lam equals the scanned digit at every start,
    which decides every kind tag.  The scan covers every n <= w_count in one
    banded greedy walk (_gap_scan): each n passes only through the levels
    that still need it, in tiles of WALK_TILE points, and only the zeros of
    psi_lam and eps_lam at them are kept.
    """
    if lam_max < 1:
        raise ValidationError("lam_max must be >= 1")
    if count < 0:
        raise ValidationError("count must be >= 0")
    tables = [[column[: count + 1] for column in _block_table(lam, scale, count + 1)]
              for lam in range(1, lam_max + 1)]
    scans = _gap_scan(scale, [int(starts[-1]) + 1 for starts, _ in tables])
    return _merge("gap_structure", [
        _gap_report(lam, starts, table_eps, zeros, eps, scale)
        for lam, ((starts, table_eps), (zeros, eps)) in enumerate(zip(tables, scans), start=1)
    ])


# --- experiments -------------------------------------------------------------

def pseudorandomness_experiment(config: ExperimentConfig) -> dict:
    """Correlation quadratic means Q(R) for each configured R at fixed N.

    One correlation_profile at R = max(R_list) serves every R (its prefixes);
    the payload's route is that profile's, "levels-exact" (bit for bit
    correlation()) or "levels" (within 1e-13 * max|g|^2).
    """
    if not config.R_list:
        raise ValidationError("R_list must not be empty")
    if any(R < 1 for R in config.R_list):
        raise ValidationError("every R in R_list must be >= 1")
    if config.N < max(config.R_list):
        raise ValidationError("N must be >= max(R_list)")
    t0 = time.perf_counter()
    g = fn_for(config.alpha_spec, config.fn_spec, config.N + max(config.R_list) - 1)  # n < N + R - 1
    profile = spectral.correlation_profile(g, max(config.R_list), config.N)
    rows = []
    for R in sorted(config.R_list):
        quad, absm = spectral._profile_means(profile.gamma[:R])
        rows.append({"R": R, "quadratic_mean": quad, "absolute_mean": absm})
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
    if config.seed < 0:
        raise ValidationError("seed must be >= 0")
    t0 = time.perf_counter()
    g = fn_for(config.alpha_spec, config.fn_spec, config.N)
    ladder_ns = []
    n = config.N
    while n >= 4096:
        ladder_ns.append(n)
        n //= 2
    ladder_ns = sorted(ladder_ns) or [config.N]
    ladder = [{"N": n, "beta_peak": scan.beta_peak, "peak_value": scan.peak_value}
              for n, scan in zip(ladder_ns, spectral._scans(g, ladder_ns, spectral.GRID_DEFAULT))]
    rng = np.random.default_rng(config.seed)
    K = bisect.bisect_right(g.scale.bounds, config.N) - 1  # N may be q_{K+1}; q_0 = 1 alone when N < q_1
    betas = rng.random(16)
    sums = []
    for beta, S in zip(betas.tolist(), spectral._scale_sums(g, betas, K)):
        mods = np.abs(S)
        contraction = float(
            max(mods[i + 1] - max(mods[i], mods[i - 1]) for i in range(1, K))
        ) if K >= 2 else 0.0
        sums.append({"beta": beta, "moduli": mods.tolist(),
                     "contraction_margin": contraction})
    payload = {
        "config": {k: v for k, v in config.to_dict().items() if k != "R_list"},  # never read here
        "ladder": ladder,
        "scale_sums": sums,
        "runtime_seconds": time.perf_counter() - t0,
    }
    return payload


# --- the full battery --------------------------------------------------------

def _family(spec_texts, upto: int, fn_specs) -> list[tuple[ConvergentTable, AlphaFunction]]:
    """Each fn spec parsed against the table covering n < upto of each alpha spec.

    ValidationError, naming the scale, where a fn spec does not fit one.
    """
    family = []
    for spec_text in spec_texts:
        scale = scale_for(parse_alpha_spec(spec_text), upto)
        for fn_spec in fn_specs:
            try:
                family.append((scale, parse_fn_spec(fn_spec, scale)))
            except ValidationError as exc:
                raise ValidationError(f"{fn_spec} on the {spec_text} scale: {exc}") from exc
    return family


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


def _run_parseval(rng, family) -> CheckReport:
    margins = []
    for scale, g in family:
        for lam in range(1, scale.K + 1):
            if scale.q[lam] > 1024:
                break
            _, _, delta = spectral.fourier_coeffs(g, lam).parseval()
            margins.append(IDENTITY_TOL - delta)
    return _report("parseval", margins)


def _run_cyclic(rng, family) -> CheckReport:
    margins = []
    for scale, g in family:
        for lam in range(1, scale.K + 1):
            q = scale.q[lam]
            if q > 1024:
                break
            deltas = spectral.cyclic_identity_sweep(g, lam, range(0, min(q, 64) + 1))
            margins.extend(IDENTITY_TOL * q - d for d in deltas)
    return _report("cyclic_identity", margins)


def _run_carry(rng, family) -> CheckReport:
    return _merge("carry_bound", [carry_bound_sweep(g, 12) for _, g in family])


def _run_density(rng) -> CheckReport:
    reports = []
    for spec_text in ("golden", "silver"):
        scale = scale_for(parse_alpha_spec(spec_text), DENSITY_N + 1)
        reports.append(density_sweep(scale, 6))
    return _merge("density", reports)


def _run_gaps(rng) -> CheckReport:
    return _merge("gap_structure", [
        gap_structure_sweep(expand_max(parse_alpha_spec(spec_text)), GAP_LAM_MAX)
        for spec_text in DEFAULT_ALPHA_SPECS
    ])


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


FN_FAMILIES = ("parseval", "cyclic", "carry")


def verify_all(
    seed: int = 0,
    only: str | Sequence[str] | None = None,
    fn_spec: str | None = None,
    alpha_spec: str | None = None,
) -> list[CheckReport]:
    """Run the check battery (or a subset: `only` is a family name or a list).

    The families that check a function (FN_FAMILIES) run by default on the
    theta family: parseval and cyclic over the four default scales, carry
    over golden and silver.  With alpha_spec they run on that one scale
    instead, and with fn_spec on fn_spec parsed against each of their
    scales; either is a ValidationError if `only` selects none of them.
    Both function families are built once, before any check runs, when
    `only` selects one of FN_FAMILIES, so an atom table that does not fit
    raises ValidationError, naming the scale, first.
    """
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if only is None:
        names = list(CHECK_FAMILIES)
    elif isinstance(only, str):
        names = [only]
    else:
        names = list(only)
    unknown = [n for n in names if n not in CHECK_FAMILIES]
    if unknown:
        raise ValidationError(f"unknown check families: {unknown}; know {sorted(CHECK_FAMILIES)}")
    selected = set(FN_FAMILIES) & set(names)
    for what, spec in (("an alpha spec", alpha_spec), ("a function spec", fn_spec)):
        if spec is not None and not selected:
            raise ValidationError(f"{what} applies to the families {', '.join(FN_FAMILIES)} only")
    families = {}
    if selected:
        identity_specs = DEFAULT_ALPHA_SPECS if alpha_spec is None else (alpha_spec,)
        carry_specs = CARRY_SPECS if alpha_spec is None else (alpha_spec,)
        identity = _family(identity_specs, IDENTITY_UPTO, THETA_FNS if fn_spec is None else [fn_spec])
        carry = _family(carry_specs, CARRY_UPTO, [CARRY_FN if fn_spec is None else fn_spec])
        families = {"parseval": identity, "cyclic": identity, "carry": carry}
    rng = np.random.default_rng(seed)
    return [CHECK_FAMILIES[name](rng, families[name]) if name in families
            else CHECK_FAMILIES[name](rng) for name in names]
