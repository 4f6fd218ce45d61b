"""End-to-end acceptance battery: eight numbered criteria.

Each test prints a single PASS/FAIL line (visible with pytest -s, or in the
captured output on failure) and then asserts.  Identities are checked against
their own two sides; decay criteria compare against values frozen from
independent oracle runs, recorded inline where they are used.

Heavier than most unit suites: the full battery takes about 8 s on a
shared 2-core machine, most of it in criterion 1.
"""

import itertools

import numpy as np
import pytest

from ostrowski import (
    carry_bound_sweep,
    correlation_profile,
    cyclic_identity_sweep,
    decode,
    density_sweep,
    encode,
    evaluate,
    fejer_check,
    fourier_coeffs,
    from_theta,
    gap_structure_sweep,
    large_sieve_check,
    parse_alpha_spec,
    quadratic_mean,
    scale_for,
    scale_sums,
    spectrum_scan,
    twist,
    values_range,
    vdc_check,
)

ALPHA_SPECS = ("golden", "silver", "periodic:/1,2", "periodic:/1,2,3,1,1,4")


def _verdict(num: int, label: str, detail: str, problems: list) -> None:
    if problems:
        print(f"FAIL criterion {num}: {label} ({problems[0]})")
    else:
        print(f"PASS criterion {num}: {label} ({detail})")
    assert not problems, f"criterion {num}: {problems[:5]}"


# --- 1: numeration round trip and uniqueness -----------------------------------------

def _legal_strings(scale, K):
    """All digit strings over positions 0..K-1 satisfying the digit rules."""
    ranges = [range(scale.digit_bound(k) + 1) for k in range(K)]
    for digits in itertools.product(*ranges):
        if any(
            k >= 1 and digits[k] == scale.digit_bound(k) and digits[k - 1] != 0
            for k in range(1, K)
        ):
            continue
        yield digits


def test_criterion_1_round_trip_and_uniqueness():
    problems = []
    trips = 0
    for spec_text in ALPHA_SPECS:
        spec = parse_alpha_spec(spec_text)
        scale = scale_for(spec, 10**5)
        bad = [n for n in range(10**5) if decode(encode(n, scale)) != n]
        if bad:
            problems.append(f"{spec_text}: round trip broke at n={bad[0]}")
        trips += 10**5

        # independent uniqueness oracle: enumerate every legal digit string
        # outright and demand that decoding hits each n <= 500 exactly once
        K = scale_for(spec, 501).rows
        seen = {}
        for digits in _legal_strings(scale, K):
            n = sum(d * scale.q[k] for k, d in enumerate(digits))
            if n <= 500:
                seen[n] = seen.get(n, 0) + 1
        if sorted(seen) != list(range(501)) or set(seen.values()) != {1}:
            problems.append(f"{spec_text}: uniqueness oracle mismatch below 501")
    _verdict(1, "round trip and uniqueness", f"{trips} round trips on 4 scales", problems)


# --- 2: exact identities --------------------------------------------------------------

def test_criterion_2_exact_identities():
    problems = []
    checks = 0
    for spec_text in ALPHA_SPECS:
        scale = scale_for(parse_alpha_spec(spec_text), 4096)
        lam_list = [lam for lam in range(1, scale.K + 1) if scale.q[lam] <= 1024]
        for theta in (0.5, 1 / 3):
            g = from_theta(theta, scale)
            for lam in lam_list:
                lhs, rhs, delta = fourier_coeffs(g, lam).parseval()
                if delta > 1e-10 * max(1.0, abs(rhs)):
                    problems.append(f"parseval {spec_text} theta={theta} lam={lam}")
                checks += 1
                r_values = range(min(scale.q[lam], 64) + 1)
                worst = max(cyclic_identity_sweep(g, lam, r_values))
                if worst > 1e-10 * max(1.0, scale.q[lam]):
                    problems.append(f"cyclic {spec_text} theta={theta} lam={lam}")
                checks += len(r_values)
    rng = np.random.default_rng(2026)
    for _ in range(100):
        R = int(rng.integers(1, 400))
        _, _, delta = fejer_check(R, float(rng.uniform()))
        if delta > 1e-10 * R * R:
            problems.append(f"fejer R={R}")
        checks += 1
    _verdict(2, "Parseval, cyclic and Fejer identities", f"{checks} identities", problems)


# --- 3: inequalities with exact constants ----------------------------------------------

def test_criterion_3_inequalities():
    problems = []
    rng = np.random.default_rng(33)
    for _ in range(200):
        L = int(rng.integers(2, 200))
        R = int(rng.integers(1, min(L, 64) + 1))
        seq = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        if not vdc_check(seq, R)[2]:
            problems.append(f"vdc L={L} R={R}")
    for _ in range(500):
        H = int(rng.integers(1, 100))
        R = int(rng.integers(1, 50))
        if not large_sieve_check(H, R, float(rng.uniform()))[2]:
            problems.append(f"sieve H={H} R={R}")
    carried = 0
    for spec_text in ("golden", "silver"):
        scale = scale_for(parse_alpha_spec(spec_text), 10**5 + 2 * 10**4)
        g = from_theta(0.5, scale)
        rep = carry_bound_sweep(g, 12, (10**3, 10**4, 10**5))
        carried += rep.instances_run
        if not rep.ok:
            problems.append(f"carry {spec_text}: {rep.details[:1]}")
    _verdict(
        3,
        "van der Corput, large sieve and carry bounds",
        f"700 random inequalities + {carried} exhaustive carry checks",
        problems,
    )


# --- 4: residue densities ---------------------------------------------------------------

def test_criterion_4_densities():
    problems = []
    instances = 0
    for spec_text in ("golden", "silver"):
        scale = scale_for(parse_alpha_spec(spec_text), 10**6 + 1)
        rep = density_sweep(scale, 6, 10**6)
        instances += rep.instances_run
        if not rep.ok:
            problems.append(f"{spec_text}: {rep.details[:1]}")
    _verdict(4, "truncation value densities", f"{instances} densities within 0.005", problems)


# --- 5: recurrence vs direct averages ----------------------------------------------------

def test_criterion_5_scale_sums():
    problems = []
    rng = np.random.default_rng(55)
    levels = 0
    for spec_text in ("golden", "silver"):
        scale = scale_for(parse_alpha_spec(spec_text), 10**5)
        top = max(i for i in range(scale.K + 1) if scale.q[i] <= 10**5)
        for _ in range(20):
            theta, beta = float(rng.uniform()), float(rng.uniform())
            g = from_theta(theta, scale)
            S = scale_sums(g, beta)
            tw = values_range(twist(g, beta), scale.q[top])
            for i in range(top + 1):
                direct = np.sum(tw[: scale.q[i]]).item() / scale.q[i]
                # S_0 = 1 anchors the scale, so the bound is absolute
                if abs(S[i] - direct) > 1e-9:
                    problems.append(f"{spec_text} i={i} theta={theta:.4f} beta={beta:.4f}")
                levels += 1
        for _ in range(50):
            theta, beta = float(rng.uniform()), float(rng.uniform())
            S = scale_sums(from_theta(theta, scale), beta)
            mags = np.abs(S)
            if not np.all(mags[2:] <= np.maximum(mags[1:-1], mags[:-2]) + 1e-12):
                problems.append(f"contraction {spec_text} theta={theta:.4f} beta={beta:.4f}")
    _verdict(5, "scale-sum recurrence", f"{levels} levels + 100 contraction runs", problems)


# --- 6: correlation decay -----------------------------------------------------------------

# Frozen before the production estimator existed: a naive double-loop
# correlation run (per-n scalar evaluation, plain np.sum) at N = 10**5 for the
# golden scale, theta = 1/2, gave Q(4096) below.  The production value at
# N = 2 * 10**6 must come in at most 10% above it.
ORACLE_Q4096 = 0.00039959272314453123


def test_criterion_6_correlation_decay():
    problems = []
    scale = scale_for(parse_alpha_spec("golden"), 2 * 10**6 + 4096)
    g = from_theta(0.5, scale)

    # cross-validate the production path against the oracle's method at a
    # size where the double loop is affordable: agreement must be exact
    N0, R0 = 10**3, 64
    vals = np.array([evaluate(g, n) for n in range(N0 + R0)])
    naive = [np.sum(vals[r : r + N0] * np.conj(vals[:N0])).item() / N0 for r in range(R0)]
    small = correlation_profile(g, R0, N0)
    if any(small.gamma[r] != naive[r] for r in range(R0)):
        problems.append("production correlations diverge from the double loop")

    prof = correlation_profile(g, 4096, 2 * 10**6)
    q_coarse = quadratic_mean(prof, 64)
    q_fine = quadratic_mean(prof, 4096)
    if not q_fine < q_coarse:
        problems.append(f"no decay: Q(4096)={q_fine:.6g} >= Q(64)={q_coarse:.6g}")
    if not q_fine <= 1.1 * ORACLE_Q4096:
        problems.append(f"Q(4096)={q_fine:.6g} above 1.1 * oracle {ORACLE_Q4096:.6g}")

    control = correlation_profile(from_theta(0.0, scale), 4096, 10**4)
    if not (np.all(control.gamma == 1.0) and quadratic_mean(control, 64) == 1.0):
        problems.append("control profile is not identically 1")
    _verdict(
        6,
        "quadratic-mean correlation decay",
        f"Q(64)={q_coarse:.3e} Q(4096)={q_fine:.3e} at N=2e6",
        problems,
    )


# --- 7: spectrum decay ----------------------------------------------------------------------

def test_criterion_7_spectrum_decay():
    problems = []
    peaks = []
    for spec_text, theta in (("golden", 0.5), ("silver", 1 / 3)):
        scale = scale_for(parse_alpha_spec(spec_text), 10**6)
        g = from_theta(theta, scale)
        small = spectrum_scan(g, 10**4).peak_value
        big = spectrum_scan(g, 10**6).peak_value
        peaks.append(f"{spec_text}: {small:.4f} -> {big:.4f}")
        if not big < small:
            problems.append(f"{spec_text}: peak grew from {small:.6f} to {big:.6f}")
        control = spectrum_scan(from_theta(0.0, scale), 10**4 if spec_text == "golden" else 10**6)
        if (control.beta_peak, control.peak_value) != (0.0, 1.0):
            problems.append(f"{spec_text} control peak {control.beta_peak}, {control.peak_value}")
    _verdict(7, "spectrum peak decay", "; ".join(peaks), problems)


# --- 8: gap structure -----------------------------------------------------------------------

def test_criterion_8_gap_structure():
    problems = []
    blocks = 0
    for spec_text in ALPHA_SPECS:
        spec = parse_alpha_spec(spec_text)
        probe = scale_for(spec, 4096)
        rep = gap_structure_sweep(scale_for(spec, (10**4 + 2) * probe.q[8]), 8, 10**4)
        blocks += rep.instances_run
        if not rep.ok:
            problems.append(f"{spec_text}: {rep.details[:1]}")
    _verdict(8, "block gap classification", f"{blocks} checks over 4 scales", problems)
