"""Check reports, bound checks against brute-force oracles, experiments.

Oracles: per-n recomputation of carry counts through exact rational phases
or digit comparison, empirical densities at moderate N, a per-level
brute-force psi scan for the gap structure, and the payloads the
experiments return.
"""

import json
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrowski import (
    GOLDEN,
    SILVER,
    CheckReport,
    ExperimentConfig,
    RangeError,
    ValidationError,
    carry_bound_sweep,
    correlation,
    density_formula,
    density_sweep,
    encode,
    expand_max,
    from_theta,
    gap_structure_sweep,
    parse_alpha_spec,
    parse_fn_spec,
    pseudorandomness_experiment,
    psi,
    psi_range,
    scale_for,
    scale_sums,
    sigma,
    spectrum_experiment,
    tail,
    verify_all,
)
from ostrowski import harness, numeration
from ostrowski.harness import DEFAULT_ALPHA_SPECS
from ostrowski.numerics import pairwise_sum


# --- reports ---------------------------------------------------------------------

def test_check_report_json_round_trip():
    rep = CheckReport(
        check_name="density",
        instances_run=12,
        instances_passed=11,
        worst_margin=-0.25,
        details=({"lam": 3, "a": 2, "empirical": 0.5, "formula": 0.25},),
    )
    # the verify --out file holds dataclasses.asdict of each report
    doc = json.loads(json.dumps(asdict(rep)))
    assert CheckReport(**{**doc, "details": tuple(doc["details"])}) == rep
    assert not rep.ok
    assert CheckReport("x", 3, 3, 0.0).ok


# --- carry bound -------------------------------------------------------------------

def brute_carry_count(g, lam, r, N):
    """n < N whose high-digit atom product changes between n and n + r.

    For the sigma-phase family the product over digits >= lam moves exactly
    when theta times the high digit-sum difference is a non-integer; decided
    in exact rationals on the float's binary value.  A table without a theta
    tag counts the n whose digits at lam and above differ from those of n + r.
    """
    high = [encode(m, g.scale).digits[lam:] for m in range(N + r)]
    if g.theta is None:
        return sum(1 for n in range(N) if high[n + r] != high[n])
    th = Fraction(g.theta)
    return sum(1 for n in range(N) if (th * (sum(high[n + r]) - sum(high[n]))) % 1 != 0)


def carry_instance(g, lam, r, N):
    """The report of the one carry instance (lam, r, N), off the streamed counts of level lam."""
    count, recount = harness._carry_counts(g, lam, (N,))[N, lam]
    return harness._carry_report(g, lam, N, [r], count[[r]], recount[[r]])


@pytest.mark.parametrize("spec,theta", [(GOLDEN, 0.5), (SILVER, 0.25), (GOLDEN, 1 / 3)])
def test_carry_count_matches_brute_force(spec, theta):
    scale = scale_for(spec, 600)
    g = from_theta(theta, scale)
    for lam in (1, 2, 3):
        q_prev = scale.q[lam - 1]
        for r in range(q_prev):
            rep = carry_instance(g, lam, r, 400)
            brute = brute_carry_count(g, lam, r, 400)
            assert rep.instances_run == 1
            assert rep.worst_margin == 400 * r / q_prev - brute
            assert rep.ok


def test_carry_digit_route_without_theta():
    # tables without a theta tag fall back to counting digit changes at or
    # above the level, which is the same set for generic atoms
    scale = scale_for(GOLDEN, 400)
    g = from_theta(1 / 3, scale)
    bare = type(g)(scale, g.atoms)
    lam, r, N = 3, 1, 250  # a swept shift, r < q_{lam-1} = 2
    rep = carry_instance(bare, lam, r, N)
    brute = sum(1 for n in range(N) if psi(n + r, lam, scale) - psi(n, lam, scale) != r)
    assert rep.worst_margin == N * r / scale.q[lam - 1] - brute
    assert rep.ok


@settings(max_examples=60, deadline=None)
@given(
    spec_text=st.sampled_from(DEFAULT_ALPHA_SPECS + ("list:2,1,3,1,1,4,2,1,3,2,1,2",)),
    theta=st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1 / 3, None)),
                    st.floats(0.0, 1.0, exclude_max=True)),
    N=st.integers(1, 800),
    lam=st.integers(1, 5),
    data=st.data(),
)
def test_carry_margin_matches_per_n_oracle(spec_text, theta, N, lam, data):
    # every r < q_{lam-1} takes the block-transition count; theta None is an
    # untagged table, compared digit by digit
    scale = scale_for(parse_alpha_spec(spec_text), 2000)
    g = from_theta(1 / 3 if theta is None else theta, scale)
    if theta is None:
        g = type(g)(scale, g.atoms)
    q_prev = scale.q[lam - 1]
    r = data.draw(st.integers(0, q_prev - 1), label="r")
    rep = carry_instance(g, lam, r, N)
    assert rep.instances_run == 1 and rep.ok, rep.details
    assert rep.worst_margin == N * r / q_prev - brute_carry_count(g, lam, r, N)


def test_carry_recount_catches_a_wrong_transition_count(monkeypatch):
    # the dense recount of r = 1 and r = q_{lam-1} - 1 does not rest on the
    # block lemma: one block transition marked wrongly fails those instances
    real = harness._moved_transitions

    def broken(g, start_keys):
        moved = real(g, start_keys).copy()
        moved[0] = not moved[0]
        return moved

    scale = scale_for(SILVER, 3000)
    g = from_theta(0.5, scale)
    runs = sum(scale.q[lam - 1] for lam in range(1, 5))
    assert carry_bound_sweep(g, 4, N_values=(500,)).ok
    monkeypatch.setattr(harness, "_moved_transitions", broken)
    rep = carry_bound_sweep(g, 4, N_values=(500,))
    assert not rep.ok and rep.instances_run == runs
    assert rep.worst_margin == -1.0
    first = rep.details[0]
    assert first["r"] == 1 and first["count"] != first["recount"]


@pytest.mark.parametrize("theta", [1 / 3, 0.1, 2.0**-70, 5e-324, 3.0, -0.5, 0.0])
def test_moved_matches_exact_integrality(theta):
    # theta * d is an integer exactly when theta's power-of-two denominator
    # divides d; 2**-70 and 5e-324 take the denominator >= 2**62 branch
    g = from_theta(theta, scale_for(GOLDEN, 100))
    d = np.arange(-64, 65)
    want = [(Fraction(theta) * int(v)) % 1 != 0 for v in d]
    assert harness._moved(g, d).tolist() == want


@pytest.mark.parametrize("den_bits", [1, 2, 5, 31, 32, 54, 61])
def test_moved_mask_matches_the_remainder(den_bits):
    # den is a power of two, so den divides d exactly when the low bits
    # d & (den - 1) are zero: the same booleans as d % den != 0, negative d too
    den = 1 << den_bits
    g = from_theta(1 / den, scale_for(GOLDEN, 100))
    rng = np.random.default_rng(den_bits)
    d = np.concatenate([rng.integers(-(1 << 62), 1 << 62, 10**4),
                        rng.integers(-64, 65, 10**3) * den,
                        np.array([0, den, -den, den - 1, 1 - den, (1 << 62) - den])])
    assert harness._moved(g, d).tolist() == (d % den != 0).tolist()
    # int32 lanes, as the carry keys come from the greedy walk: a den past
    # 2**31 - 1 divides no nonzero difference there
    top = (1 << 31) - 1
    d32 = [rng.integers(-top, top + 1, 10**4), np.array([0, 1, -1, top, -top])]
    if den <= top:
        most = top // den
        d32 += [rng.integers(-most, most + 1, 10**3) * den, np.array([den, -den, den - 1, 1 - den])]
    d32 = np.concatenate(d32).astype(np.int32)
    assert harness._moved(g, d32).tolist() == (d32.astype(np.int64) % den != 0).tolist()


def test_carry_sweep_all_pass():
    scale = scale_for(SILVER, 3000)
    g = from_theta(0.5, scale)
    rep = carry_bound_sweep(g, 4, N_values=(500, 2000))
    assert rep.ok
    assert rep.instances_run == 2 * sum(scale.q[lam - 1] for lam in range(1, 5))
    assert rep.worst_margin == 0.0  # the r = 0 instances are exactly tight


def test_carry_family_at_a_denominator_past_int32():
    # theta = 0.3 is p / 2**54: in the int32 lanes of the carry keys no
    # nonzero difference is a multiple of 2**54
    (rep,) = verify_all(fn_spec="theta:0.3", only="carry")
    assert rep.instances_run == 72108 and rep.ok


@pytest.mark.parametrize("tile", [None, 4099], ids=["walk_tile", "tile_4099"])
def test_carry_counts_match_per_n_keys_across_tiles(tile, monkeypatch):
    # q_2 = 60001 on periodic:/1,60000: the ring of the dense shift
    # r = q_2 - 1 holds 60000 keys, which span the tile boundary at 65536
    # (and 15 tiles of 4099 points); the counts at the sampled shifts, the
    # dense recounts among them, match the sigma_{>=lam} keys of the scalar
    # encode, n by n
    if tile is not None:
        monkeypatch.setattr(numeration, "WALK_TILE", tile)
    scale = scale_for(parse_alpha_spec("periodic:/1,60000"), 2 * 10**5)
    g = from_theta(0.5, scale)
    Ns = (65535, 65536, 65537)
    lam_max, q_prev = 3, scale.q[2]
    assert q_prev == 60001
    counts = harness._carry_counts(g, lam_max, Ns)
    digits = [encode(m, scale).digits for m in range(max(Ns) + q_prev - 1)]
    for lam in range(1, lam_max + 1):
        key = np.array([sum(d[lam:]) for d in digits])
        for N in Ns:
            count, recount = counts[N, lam]
            shifts = {0, 1, 2, 4098, 4099, 30000, q_prev - 2, q_prev - 1}
            for r in sorted(shifts & set(range(scale.q[lam - 1]))):
                brute = np.count_nonzero((key[r : r + N] - key[:N]) % 2)
                assert count[r] == recount[r] == brute, (lam, N, r)
    rep = carry_bound_sweep(g, lam_max, Ns)
    assert rep.ok and rep.instances_run == len(Ns) * (1 + 1 + q_prev)


def test_carry_sweep_of_no_N_is_the_empty_report():
    g = from_theta(0.5, scale_for(GOLDEN, 100))
    assert carry_bound_sweep(g, 3, ()) == CheckReport("carry_bound", 0, 0, 0.0)


def test_carry_family_peak_memory():
    # one walk streams every level's counts: no level keeps an array the
    # size of the walked range (12 int32 key rows per function would be 9.5 MiB)
    tracemalloc.start()
    try:
        (rep,) = verify_all(only="carry")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 5 * 2**20


def test_carry_validation():
    scale = scale_for(GOLDEN, 100)
    g = from_theta(0.5, scale)
    with pytest.raises(ValidationError):
        carry_bound_sweep(g, 0, N_values=(10,))
    with pytest.raises(ValidationError):
        carry_bound_sweep(g, 3, N_values=(10, 0))
    with pytest.raises(RangeError):  # N + r = limit + 1 at lam = 3, r = q_2 - 1 = 1
        carry_bound_sweep(g, 3, N_values=(scale.limit,))


# --- densities ---------------------------------------------------------------------

def test_density_formula_masses_sum_to_one():
    for spec in (GOLDEN, SILVER):
        scale = scale_for(spec, 10**4)
        for lam in (1, 2, 4):
            total = sum(density_formula(scale, lam, a) for a in range(scale.q[lam]))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_density_formula_bands():
    # below q_{lam-1} the density is delta * (1 + t), above it is delta
    scale = scale_for(GOLDEN, 10**4)
    lam = 2
    t = tail(GOLDEN, lam).value
    delta = 1.0 / (scale.q[lam] + scale.q[lam - 1] * t)
    assert density_formula(scale, lam, 0) == pytest.approx(delta * (1 + t), rel=1e-12)
    assert density_formula(scale, lam, 1) == pytest.approx(delta, rel=1e-12)
    assert density_formula(scale, lam, 0) == pytest.approx(0.618034, abs=5e-7)
    assert density_formula(scale, lam, 1) == pytest.approx(0.381966, abs=5e-7)


def test_density_formula_range_errors():
    scale = scale_for(GOLDEN, 10**4)
    with pytest.raises(RangeError):
        density_formula(scale, 0, 0)
    with pytest.raises(RangeError):
        density_formula(scale, 2, scale.q[2])


def test_density_check_and_sweep():
    scale = scale_for(SILVER, 2 * 10**5)
    sweep = density_sweep(scale, 4, N=10**5)
    assert sweep.ok
    assert sweep.instances_run == 4 + sum(scale.q[lam] for lam in range(1, 5))
    with pytest.raises(ValidationError):
        density_sweep(scale, 4, N=0)
    for lam_max in (0, -3):  # refused as carry_bound_sweep and gap_structure_sweep refuse it
        with pytest.raises(ValidationError, match="lam_max"):
            density_sweep(scale, lam_max)


def per_level_density_report(scale, lam_max, N):
    """density_sweep's report from one psi_range pass per level: the one-pass oracle."""
    reports = []
    for lam in range(1, min(lam_max, scale.K) + 1):
        counts = np.bincount(psi_range(scale, lam, N))
        formulas, margins, details = harness._density_margins(
            scale, lam, np.arange(scale.q[lam]), counts, N)
        mass = 1e-10 - abs(float(np.sum(formulas)) - 1.0)
        reports.append(harness._report("density", np.append(mass, margins), details))
    return harness._merge("density", reports)


@pytest.mark.parametrize("spec", [GOLDEN, SILVER], ids=["golden", "silver"])
@pytest.mark.parametrize("N", [10**5, 10, 1])
def test_one_pass_densities_match_the_per_level_scans(spec, N):
    # at N = 10 and N = 1 some levels <= 6 lie above the top index of N - 1,
    # where the walk peels nothing and psi_lam(n) = n
    scale = scale_for(spec, 10**5 + 1)
    if N < 10**5:
        assert scale.q[6] >= N  # level 6 lies above the top index of N - 1
    counts = harness._psi_counts(scale, 6, N)
    assert len(counts) == 6
    for lam, got in enumerate(counts, start=1):
        assert got.tolist() == np.bincount(psi_range(scale, lam, N)).tolist()
    assert density_sweep(scale, 6, N) == per_level_density_report(scale, 6, N)


@pytest.mark.parametrize("spec", [GOLDEN, SILVER, parse_alpha_spec("periodic:/1,2,3,1,1,4")],
                         ids=["golden", "silver", "p123114"])
@pytest.mark.parametrize("at", ["1", "q6-1", "q6", "q6+1", "tile-1", "tile+1"])
def test_folded_density_counts_match_per_level_counts(spec, at):
    # level 6 alone is walked and the levels below are folded from it; at
    # N - 1 < q_6 the walk yields nothing and the fold starts from N ones
    scale = scale_for(spec, 2 * numeration.WALK_TILE)
    q6, tile = scale.q[6], numeration.WALK_TILE
    N = {"1": 1, "q6-1": q6 - 1, "q6": q6, "q6+1": q6 + 1, "tile-1": tile - 1, "tile+1": tile + 1}[at]
    counts = harness._psi_counts(scale, 6, N)
    assert len(counts) == 6
    for lam, got in enumerate(counts, start=1):
        assert got.dtype == np.int64
        assert got.tolist() == np.bincount(psi_range(scale, lam, N)).tolist()


# --- gap structure -----------------------------------------------------------------

def test_gap_structure_across_specs():
    for spec_text in DEFAULT_ALPHA_SPECS:
        scale = scale_for(parse_alpha_spec(spec_text), 10**4)
        rep = gap_structure_sweep(scale, 3, 200)
        assert rep.ok, (spec_text, rep.details)
        degenerate = scale.q[1] == scale.q[0]
        assert rep.instances_run == 9 - degenerate


def per_level_gap_scan(scale, lam, stop):
    """Zeros of psi_lam below stop and eps_lam at them: one walk of [0, stop) yielding level lam alone."""
    zero_chunks, eps_chunks = [], []
    for base, _, eps_lam, psi_lam in numeration._walk(scale, stop, lam, hi=lam):
        zeros = np.flatnonzero(psi_lam == 0)
        zero_chunks.append(base + zeros)
        eps_chunks.append(eps_lam[zeros])
    return np.concatenate(zero_chunks), np.concatenate(eps_chunks)


def test_banded_gap_scan_matches_the_per_level_scans():
    # the battery's 32 (spec, lam) pairs: one banded walk per spec gives the
    # zero sets of psi_lam and the digits eps_lam at them that one chunked
    # scan of [0, w_count] per level gives
    pairs = 0
    for spec_text in DEFAULT_ALPHA_SPECS:
        spec = parse_alpha_spec(spec_text)
        scale = scale_for(spec, (harness.GAP_COUNT + 2) * scale_for(spec, 4096).q[8])
        ends = [numeration.w_sequence(lam, harness.GAP_COUNT + 1, scale).starts[-1] + 1
                for lam in range(1, 9)]
        for lam, (zeros, eps) in enumerate(harness._gap_scan(scale, ends), start=1):
            want_zeros, want_eps = per_level_gap_scan(scale, lam, ends[lam - 1])
            assert zeros.tolist() == want_zeros.tolist(), (spec_text, lam)
            assert eps.tolist() == want_eps.tolist(), (spec_text, lam)
            assert len(zeros) == harness.GAP_COUNT + 1
            pairs += 1
    assert pairs == 32


def test_gap_scan_edges():
    # bands that are empty, or lie below the top index of a level, still
    # give every level its zeros: n = 0 at least
    scale = scale_for(GOLDEN, 100)
    for ends in ([1, 1, 1], [2, 3, 5], [1, 4, 4]):
        for lam, (zeros, eps) in enumerate(harness._gap_scan(scale, ends), start=1):
            want = [n for n in range(ends[lam - 1]) if psi(n, lam, scale) == 0]
            assert zeros.tolist() == want
            assert eps.tolist() == [encode(n, scale).digit(lam) for n in want]
    assert gap_structure_sweep(scale, 3, 0).ok
    with pytest.raises(ValidationError):
        gap_structure_sweep(scale, 0, 10)
    for count in (-1, -5):  # an empty table slice would not do as a refusal
        with pytest.raises(ValidationError):
            gap_structure_sweep(scale, 3, count)


@pytest.mark.parametrize("fault, spec, lam", [
    ("gap", SILVER, 2),
    ("kind", SILVER, 2),
    ("kind", GOLDEN, 1),
    ("digit", SILVER, 2),
], ids=["gap", "kind", "degenerate_kind", "non_maximal_digit"])
def test_gap_check_catches_a_wrong_w_sequence(fault, spec, lam, monkeypatch):
    # the brute-force scan is an oracle independent of the block-start table
    # that w_sequence reads: one gap one too long (every later start
    # shifted), eps_lam at start 5 flipped between a_{lam+1} and 0 (its kind
    # tag flipped), or a non-maximal eps_lam changed from 0 to 1 (its kind
    # kept: silver a_3 = 2), at level lam only; at golden lam = 1
    # (q_1 = q_0) only the digit at lam can tell the kinds apart
    real = harness._block_table

    def broken(level, scale, count):
        starts, eps = (column.copy() for column in real(level, scale, count))
        if level != lam:
            return starts, eps
        if fault == "gap":
            starts[5:] += 1
        elif fault == "kind":
            bound = scale.digit_bound(lam)
            eps[5] = 0 if eps[5] == bound else bound
        else:
            assert eps[6] == 0 and scale.digit_bound(lam) == 2
            eps[6] = 1
        return starts, eps

    scale = scale_for(spec, 10**4)
    assert gap_structure_sweep(scale, 3, 50).ok
    monkeypatch.setattr(harness, "_block_table", broken)
    rep = gap_structure_sweep(scale, 3, 50)
    assert not rep.ok and rep.details
    assert {detail["lam"] for detail in rep.details} == {lam}
    if fault != "gap":
        assert rep.details == ({"lam": lam, "mismatch": "eps_lam differs from brute force"},)


# --- experiment configs and runs ----------------------------------------------------

def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        pseudorandomness_experiment(ExperimentConfig(N=100, R_list=(256,)))
    with pytest.raises(ValidationError):
        ExperimentConfig(N=0, R_list=())
    with pytest.raises(ValidationError, match="every R"):  # R_list is checked where it is read
        pseudorandomness_experiment(ExperimentConfig(N=100, R_list=(0, 4)))
    with pytest.raises(ValidationError, match="seed"):  # and seed likewise
        spectrum_experiment(ExperimentConfig(N=100, seed=-1))
    cfg = ExperimentConfig(N=5000, R_list=(16, 64))
    assert ExperimentConfig(**cfg.to_dict()) == cfg
    assert list(cfg.to_dict()) == ["alpha_spec", "fn_spec", "N", "R_list", "seed"]


@pytest.mark.parametrize("fields", [{"N": 5000.5}, {"N": True}, {"R_list": (32.7,)}, {"R_list": (8, True)},
                                    {"seed": 2.5}, {"seed": True}],
                         ids=["fractional_N", "bool_N", "fractional_R", "bool_R", "fractional_seed", "bool_seed"])
def test_experiment_config_refuses_non_integer_sizes(fields):
    # a fractional N used to run, R = 32.7 was cut to 32, seed = 2.5 raised
    # numpy's TypeError and seed = True was echoed as true in the payload
    with pytest.raises(ValidationError, match="must be an integer"):
        ExperimentConfig(**{"N": 5000, **fields})


def test_pseudorandomness_experiment_output():
    cfg = ExperimentConfig(N=4000, R_list=(8, 32))
    payload = pseudorandomness_experiment(cfg)
    assert payload["route"] == "levels-exact"
    assert [row["R"] for row in payload["rows"]] == [8, 32]
    for row in payload["rows"]:
        assert 0.0 <= row["quadratic_mean"] <= 1.0
        assert 0.0 <= row["absolute_mean"] <= 1.0
    assert payload["config"]["N"] == 4000
    # theta = 1/2 is exact: the means are those of correlation()'s gammas, bit for bit;
    # a generic theta takes the levels route, within 1e-13 of them
    for fn, route, tol in (("theta:0.5", "levels-exact", 0.0), ("theta:0.1234567", "levels", 1e-13)):
        payload = pseudorandomness_experiment(ExperimentConfig(fn_spec=fn, N=4000, R_list=(8, 32)))
        assert payload["route"] == route
        g = parse_fn_spec(fn, scale_for(GOLDEN, 4000 + 32 - 1))
        gamma = np.array([correlation(g, r, 4000) for r in range(32)])
        for row in payload["rows"]:
            head = gamma[: row["R"]]
            quad = pairwise_sum(head.real**2 + head.imag**2).real / row["R"]
            assert abs(row["quadratic_mean"] - quad) <= tol
            assert abs(row["absolute_mean"] - pairwise_sum(np.abs(head)).real / row["R"]) <= tol


def test_spectrum_experiment_output():
    cfg = ExperimentConfig(N=8192, R_list=(8,), seed=5)
    payload = spectrum_experiment(cfg)
    assert [row["N"] for row in payload["ladder"]] == [4096, 8192]
    assert len(payload["scale_sums"]) == 16
    for entry in payload["scale_sums"]:
        assert entry["contraction_margin"] <= 1e-12
        assert all(m <= 1.0 + 1e-9 for m in entry["moduli"])
    assert payload["config"]["seed"] == 5
    assert "R_list" not in payload["config"]


@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("alpha, N, scales", [("golden", 4181, 19), ("silver", 5741, 11),
                                              ("list:1,2,3", 10, 4)])
def test_spectrum_experiment_reports_every_scale_up_to_N(alpha, N, scales, shift):
    # N = q_{K+1} is the limit of the table that covers n < N, not one of its
    # q_i, and its scale sum is still reported; list:1,2,3 (q = 1, 1, 3, 10)
    # cannot cover n < 11, so N = 11 is refused as before
    config = ExperimentConfig(alpha, "theta:0.5", N + shift, seed=3)
    if alpha.startswith("list:") and shift == 1:
        with pytest.raises(RangeError):
            spectrum_experiment(config)
        return
    full = expand_max(parse_alpha_spec(alpha))
    K = scales - 1 - (shift < 0)
    assert full.q[K] <= N + shift and (K == full.K or full.q[K + 1] > N + shift)
    g = from_theta(0.5, full)
    for entry in spectrum_experiment(config)["scale_sums"]:
        mods = np.abs(scale_sums(g, entry["beta"], K)).tolist()
        assert entry["moduli"] == mods
        assert entry["contraction_margin"] == max(
            mods[i + 1] - max(mods[i], mods[i - 1]) for i in range(1, K))


def test_spectrum_experiment_ignores_the_unread_r_list():
    # the default R_list (max 4096) exceeds N, but spectrum never reads it
    payload = spectrum_experiment(ExperimentConfig(N=1000))
    assert [row["N"] for row in payload["ladder"]] == [1000]


# --- the battery -------------------------------------------------------------------

def test_verify_all_single_family():
    (rep,) = verify_all(seed=0, only="fejer")
    assert rep.check_name == "fejer" and rep.ok and rep.instances_run == 100


BATTERY_SIZE = {
    "fejer": 100,
    "large_sieve": 500,
    "van_der_corput": 200,
    "parseval": 168,
    "cyclic_identity": 6004,
    "carry_bound": 72108,
    "density": 331,
    "gap_structure": 93,
}


def test_verify_all_runs_the_whole_battery():
    # a faster route must not drop instances: every family at its full size
    reports = verify_all(seed=0)
    assert {rep.check_name: rep.instances_run for rep in reports} == BATTERY_SIZE
    assert sum(rep.instances_run for rep in reports) == 79504
    assert all(rep.ok for rep in reports)


def test_verify_all_alpha_runs_the_function_families_on_one_scale():
    default = {rep.check_name: rep for rep in verify_all(only=["parseval", "carry"])}
    golden = {rep.check_name: rep for rep in verify_all(only=["parseval", "carry"], alpha_spec="golden")}
    assert all(rep.ok for rep in golden.values())
    scale = scale_for(GOLDEN, harness.IDENTITY_UPTO)
    levels = sum(1 for lam in range(1, scale.K + 1) if scale.q[lam] <= 1024)
    assert golden["parseval"].instances_run == levels * len(harness.DEFAULT_THETAS)
    carry = scale_for(GOLDEN, harness.CARRY_UPTO)
    assert golden["carry_bound"].instances_run == len(harness.CARRY_NS) * sum(
        carry.q[lam - 1] for lam in range(1, 13))
    assert golden["carry_bound"].instances_run < default["carry_bound"].instances_run
    (rep,) = verify_all(only="parseval", alpha_spec="periodic:/1,2", fn_spec="theta:0.25")
    assert rep.ok
    with pytest.raises(ValidationError):  # fejer reads no alpha spec
        verify_all(only="fejer", alpha_spec="silver")
    with pytest.raises(ValidationError):
        verify_all(only="parseval", alpha_spec="nope")


def test_verify_all_unknown_family():
    with pytest.raises(ValidationError):
        verify_all(only="nope")
    with pytest.raises(ValidationError, match=r"unknown check families: \[''\]"):
        verify_all(only="")


def test_verify_all_runs_fn_spec_families(monkeypatch):
    import ostrowski.harness as harness

    fn = "theta:0.25+beta:0.1"
    with_fn = verify_all(only=["parseval", "cyclic"], fn_spec=fn)
    default = verify_all(only=["parseval", "cyclic"])
    assert all(rep.ok for rep in with_fn + default)
    # one function per default scale in place of the four default thetas
    assert [rep.instances_run * 4 for rep in with_fn] == [rep.instances_run for rep in default]

    seen = []

    def record(g, lam_max):
        seen.append(g)
        return CheckReport("carry_bound", 1, 1, 0.0)

    monkeypatch.setattr(harness, "carry_bound_sweep", record)
    verify_all(only="carry", fn_spec=fn)
    assert [g.flat.tobytes() for g in seen] == [parse_fn_spec(fn, g.scale).flat.tobytes() for g in seen]
    assert [g.scale.spec for g in seen] == [GOLDEN, SILVER]
    seen.clear()
    verify_all(only="carry")
    assert [g.theta for g in seen] == [0.5, 0.5]


def test_verify_all_builds_each_function_family_once(monkeypatch):
    # 4 scales x 4 thetas for parseval and cyclic together, plus the 2 carry
    # scales; each default theta function has the atoms of from_theta
    built = []

    def record(text, scale):
        g = parse_fn_spec(text, scale)
        built.append((text, g))
        return g

    monkeypatch.setattr(harness, "parse_fn_spec", record)
    verify_all()
    assert len(built) == 18
    identity, carry = built[:16], built[16:]
    assert [text for text, _ in identity] == [f"theta:{theta!r}" for theta in harness.DEFAULT_THETAS] * 4
    assert [text for text, _ in carry] == ["theta:0.5"] * 2
    for (text, g), theta in zip(built, list(harness.DEFAULT_THETAS) * 4 + [0.5] * 2):
        want = from_theta(theta, g.scale)
        assert g.theta == theta and g.flat.tobytes() == want.flat.tobytes(), text


def test_verify_all_validates_fn_spec_first(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"0": [[1.0, 0.0]]}))
    with pytest.raises(ValidationError, match="on the golden scale"):  # before fejer runs
        verify_all(only=["fejer", "parseval"], fn_spec=f"atoms:{bad}")


@pytest.mark.parametrize("only", ["fejer", ["fejer", "density", "gaps"]])
def test_verify_all_fn_spec_needs_a_function_family(only):
    # parseval, cyclic and carry read a function spec; no other family does
    with pytest.raises(ValidationError, match="function spec applies to the families"):
        verify_all(only=only, fn_spec="theta:0.3")
    (fejer, parseval) = verify_all(only=["fejer", "parseval"], fn_spec="theta:0.3")
    assert fejer.ok and parseval.ok and parseval.instances_run == 42
