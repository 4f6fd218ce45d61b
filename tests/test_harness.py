"""Check reports, bound checks against brute-force oracles, experiments.

Oracles: per-n recomputation of carry counts through exact rational phases
or digit comparison, empirical densities at moderate N, a brute-force psi
scan for the gap structure, and the payloads the experiments return.
"""

import json
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrowski import (
    GOLDEN,
    SILVER,
    BlockIndex,
    CheckReport,
    ExperimentConfig,
    RangeError,
    ValidationError,
    carry_bound_sweep,
    density_formula,
    density_sweep,
    encode,
    from_theta,
    gap_structure_check,
    parse_alpha_spec,
    parse_fn_spec,
    pseudorandomness_experiment,
    psi,
    psi_range,
    scale_for,
    sigma,
    spectrum_experiment,
    tail,
    verify_all,
)
from ostrowski import harness
from ostrowski.harness import DEFAULT_ALPHA_SPECS


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


@pytest.mark.parametrize("spec,theta", [(GOLDEN, 0.5), (SILVER, 0.25), (GOLDEN, 1 / 3)])
def test_carry_count_matches_brute_force(spec, theta):
    scale = scale_for(spec, 600)
    g = from_theta(theta, scale)
    for lam in (1, 2, 3):
        q_prev = scale.q[lam - 1]
        for r in range(q_prev):
            rep = harness._carry_report(g, lam, [r], 400)
            brute = brute_carry_count(g, lam, r, 400)
            assert rep.instances_run == 1
            assert rep.worst_margin == 400 * r / q_prev - brute
            assert rep.ok


def test_carry_digit_route_without_theta():
    # tables without a theta tag fall back to counting digit changes at or
    # above the level, which is the same set for generic atoms
    scale = scale_for(GOLDEN, 400)
    g = from_theta(1 / 3, scale)
    bare = type(g)(scale, g.atoms, g.modulus_bound, None)
    lam, r, N = 2, 1, 250
    rep = harness._carry_report(bare, lam, [r], N)
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
        g = type(g)(scale, g.atoms, g.modulus_bound, None)
    q_prev = scale.q[lam - 1]
    r = data.draw(st.integers(0, q_prev - 1), label="r")
    rep = harness._carry_report(g, lam, [r], N)
    assert rep.instances_run == 1 and rep.ok, rep.details
    assert rep.worst_margin == N * r / q_prev - brute_carry_count(g, lam, r, N)


def test_carry_recount_catches_a_wrong_transition_count(monkeypatch):
    # the dense recount of r = 1 and r = q_{lam-1} - 1 does not rest on the
    # block lemma: one block transition marked wrongly fails those instances
    real = harness._moved_transitions

    def broken(g, key, starts):
        moved = real(g, key, starts).copy()
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


def test_carry_sweep_all_pass():
    scale = scale_for(SILVER, 3000)
    g = from_theta(0.5, scale)
    rep = carry_bound_sweep(g, 4, N_values=(500, 2000))
    assert rep.ok
    assert rep.instances_run == 2 * sum(scale.q[lam - 1] for lam in range(1, 5))
    assert rep.worst_margin == 0.0  # the r = 0 instances are exactly tight


def test_carry_family_at_a_denominator_past_int32():
    # theta = 0.3 is p / 2**54: carry keys from int32 lanes must reach
    # _moved's d % 2**54 as int64
    (rep,) = verify_all(fn_spec="theta:0.3", only="carry")
    assert rep.instances_run == 72108 and rep.ok


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


# --- gap structure -----------------------------------------------------------------

def test_gap_structure_across_specs():
    from ostrowski import parse_alpha_spec

    for spec_text in DEFAULT_ALPHA_SPECS:
        spec = parse_alpha_spec(spec_text)
        scale = scale_for(spec, 10**4)
        for lam in (1, 2, 3):
            rep = gap_structure_check(lam, 200, scale)
            assert rep.ok, (spec_text, lam, rep.details)


@pytest.mark.parametrize("fault, spec, lam", [
    ("gap", SILVER, 2),
    ("kind", SILVER, 2),
    ("kind", GOLDEN, 1),
], ids=["gap", "kind", "degenerate_kind"])
def test_gap_check_catches_a_wrong_w_sequence(fault, spec, lam, monkeypatch):
    # the brute-force scan is an oracle independent of w_sequence: one gap
    # one too long (every later start shifted), or one kind tag flipped; at
    # golden lam = 1 (q_1 = q_0) only the digit at lam can tell the kinds apart
    real = harness.w_sequence

    def broken(lam, count, scale):
        block = real(lam, count, scale)
        starts, kinds = list(block.starts), list(block.kinds)
        if fault == "gap":
            starts[5:] = [w + 1 for w in starts[5:]]
        else:
            kinds[5] = "short" if kinds[5] == "long" else "long"
        return BlockIndex(lam, tuple(starts), tuple(kinds))

    scale = scale_for(spec, 10**4)
    assert gap_structure_check(lam, 50, scale).ok
    monkeypatch.setattr(harness, "w_sequence", broken)
    rep = gap_structure_check(lam, 50, scale)
    assert not rep.ok and rep.details
    if fault == "kind":
        assert rep.details == ({"lam": lam, "mismatch": "kind tags disagree"},)


# --- experiment configs and runs ----------------------------------------------------

def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        pseudorandomness_experiment(ExperimentConfig(N=100, R_list=(256,)))
    with pytest.raises(ValidationError):
        ExperimentConfig(N=0, R_list=())
    with pytest.raises(ValidationError):
        ExperimentConfig(N=100, R_list=(0, 4))
    cfg = ExperimentConfig(N=5000, R_list=(16, 64))
    assert ExperimentConfig(**cfg.to_dict()) == cfg
    assert list(cfg.to_dict()) == ["alpha_spec", "fn_spec", "N", "R_list", "seed"]


def test_pseudorandomness_experiment_output():
    cfg = ExperimentConfig(N=4000, R_list=(8, 32))
    payload = pseudorandomness_experiment(cfg)
    assert payload["route"] == "pairwise"
    assert [row["R"] for row in payload["rows"]] == [8, 32]
    for row in payload["rows"]:
        assert 0.0 <= row["quadratic_mean"] <= 1.0
        assert 0.0 <= row["absolute_mean"] <= 1.0
    assert payload["config"]["N"] == 4000


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


def test_spectrum_experiment_ignores_the_unread_r_list():
    # the default R_list (max 4096) exceeds N, but spectrum never reads it
    payload = spectrum_experiment(ExperimentConfig(N=1000))
    assert [row["N"] for row in payload["ladder"]] == [1000]


# --- the battery -------------------------------------------------------------------

def test_verify_all_single_family():
    (rep,) = verify_all(seed=0, only="fejer")
    assert rep.check_name == "fejer" and rep.ok and rep.instances_run == 100


def test_verify_all_unknown_family():
    with pytest.raises(ValidationError):
        verify_all(only="nope")


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
    assert [g.atoms for g in seen] == [parse_fn_spec(fn, g.scale).atoms for g in seen]
    assert [g.scale.spec for g in seen] == [GOLDEN, SILVER]
    seen.clear()
    verify_all(only="carry")
    assert [g.theta for g in seen] == [0.5, 0.5]


def test_verify_all_validates_fn_spec_first(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"0": [[1.0, 0.0]]}))
    with pytest.raises(ValidationError):
        verify_all(only="fejer", fn_spec=f"atoms:{bad}")
