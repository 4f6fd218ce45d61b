"""Correlations, Fourier tables, scale sums, spectrum scans, inequalities.

Oracles: naive double-loop correlations off the scalar evaluation route, a
quadratic-time reference transform, exact phase arithmetic in rationals
for the exponential sums, and the dense exponential sum for the digit route
of the spectrum-scan probes.
"""

import cmath
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ostrowski.spectral as spectral
from ostrowski import (
    GOLDEN,
    SILVER,
    AlphaFunction,
    CapError,
    RangeError,
    ValidationError,
    correlation,
    correlation_profile,
    cyclic_identity_sweep,
    encode,
    evaluate,
    expand,
    expand_max,
    exponential_sum,
    fejer_check,
    fourier_coeffs,
    from_theta,
    large_sieve_check,
    load_atoms,
    parse_alpha_spec,
    parse_fn_spec,
    quadratic_mean,
    scale_for,
    scale_sums,
    spectrum_scan,
    twist,
    values_range,
    vdc_check,
    verify_all,
)
from ostrowski.numerics import RANGE_CAP, frac_mul_array, pairwise_sum, unit
from ostrowski.spectral import (
    DFT_CAP,
    _dft_fast,
    REFINE_PEAKS,
    REFINE_WIDTH,
    _digit_exp_sums,
    _digit_plan,
    _refine,
    _scale_partials,
    _scale_sums,
    _top_local_maxima,
)


def random_atoms(scale, rng, modulus=2.0):
    """An arbitrary (non-unimodular) atom table with the forced unit column."""
    rows = []
    for k in range(scale.rows):
        top = (scale.quotients[k] if k < scale.K else scale.a_next) + 1
        radii = modulus * rng.random(top)
        row = radii * np.exp(2j * np.pi * rng.random(top))
        row[0] = 1.0
        rows.append(tuple(row.tolist()))
    return AlphaFunction(scale, tuple(rows))


# --- correlations ----------------------------------------------------------------

def test_correlation_matches_naive_double_loop_exactly():
    # theta = 1/2 keeps every value at exactly +-1, so both routes run in
    # exact integer arithmetic and must agree to the last bit
    N, R = 1000, 64
    scale = scale_for(GOLDEN, N + R)
    g = from_theta(0.5, scale)
    vals = np.array([evaluate(g, n) for n in range(N + R - 1)])
    ref = np.conj(vals[:N])
    prof = correlation_profile(g, R, N)
    for r in range(R):
        naive = np.sum(vals[r : r + N] * ref).item() / N
        assert naive == prof.gamma[r]
        assert correlation(g, r, N) == prof.gamma[r]


def test_correlation_matches_naive_double_loop_generic():
    N, R = 600, 20
    scale = scale_for(SILVER, N + R)
    g = from_theta(0.1234567, scale)
    prof = correlation_profile(g, R, N)
    vals = np.array([evaluate(g, n) for n in range(N + R - 1)])
    for r in range(R):
        naive = np.sum(vals[r : r + N] * np.conj(vals[:N])).item() / N
        assert abs(naive - prof.gamma[r]) < 1e-14


def test_quadratic_mean_prefixes():
    scale = scale_for(GOLDEN, 3000)
    g = from_theta(0.5, scale)
    prof = correlation_profile(g, 128, 2000)
    for R in (1, 2, 37, 128):
        want = sum(abs(prof.gamma[r]) ** 2 for r in range(R)) / R
        assert quadratic_mean(prof, R) == pytest.approx(want, rel=1e-12)
    assert quadratic_mean(prof) == prof.quadratic_mean
    with pytest.raises(RangeError):
        quadratic_mean(prof, 129)


def test_correlation_of_constant_function():
    scale = scale_for(GOLDEN, 1200)
    g = from_theta(0.0, scale)
    prof = correlation_profile(g, 16, 1000)
    assert np.allclose(prof.gamma, 1.0 + 0j, atol=0)
    assert prof.quadratic_mean == 1.0


def test_correlation_profile_validation():
    g = from_theta(0.5, scale_for(GOLDEN, 100))
    for R, N in ((4, 0), (4, -3), (0, 10)):
        with pytest.raises(ValidationError):
            correlation_profile(g, R, N)
    with pytest.raises(RangeError, match="past the scale limit"):
        correlation_profile(g, 4, g.scale.limit - 2)
    for r, N in ((0, 0), (3, -1), (-1, 10)):
        with pytest.raises(ValidationError):
            correlation(g, r, N)


def test_sums_and_inequality_checks_refuse_bad_sizes():
    g = from_theta(0.5, scale_for(GOLDEN, 100))
    for N in (0, -4):
        with pytest.raises(ValidationError, match="N must be"):
            exponential_sum(g, 0.3, N)
        with pytest.raises(ValidationError, match="N must be"):
            spectrum_scan(g, N)
    for K in (-1, g.scale.rows + 1):
        with pytest.raises(RangeError, match=f"K={K}"):
            scale_sums(g, 0.3, K)
    with pytest.raises(ValidationError):
        fejer_check(0, 0.3)
    for H, R in ((0, 4), (4, 0), (-1, -1)):
        with pytest.raises(ValidationError):
            large_sieve_check(H, R, 0.3)
    for R in (0, 6):
        with pytest.raises(RangeError):
            vdc_check(np.ones(5), R)


# --- level-recursion correlation route against the pairwise oracle -------------

# N * R = 2**20 was the largest profile the removed per-shift route served;
# the shapes chosen just past it stay covered.  N_FFT * R_FFT is just past
# BIG, and N + R - 1 = 16485 is no denominator of golden or silver
BIG = 1 << 20
N_FFT, R_FFT = 16421, 65
FFT_ABS_TOL = 1e-13
QUARTER_TURNS = (0.0, 0.25, 0.5, 0.75)


def pairwise_oracle(g, R, N):
    """[correlation(g, r, N) for r < R] bit for bit: one value block sliced per shift."""
    vals = values_range(g, N + R - 1)
    ref = np.conj(vals[:N])
    return np.array([pairwise_sum(vals[r : r + N] * ref) / N for r in range(R)])


def peak_power(g, R, N):
    """max_{n < N+R-1} |g(n)|**2, the scale of the levels route's tolerance."""
    vals = values_range(g, N + R - 1)
    return float(np.max(vals.real**2 + vals.imag**2))


def assert_matches_oracle(prof, g, tol=FFT_ABS_TOL):
    """levels-exact: bit for bit the oracle; levels: within tol (absolute)."""
    want = pairwise_oracle(g, prof.R, prof.N)
    if prof.route == "levels-exact":
        assert np.array_equal(prof.gamma, want)
    else:
        assert prof.route == "levels"
        assert np.max(np.abs(prof.gamma - want)) <= tol


def test_pairwise_oracle_is_correlation_bit_for_bit():
    N, R = 300, 24
    for theta in (0.5, 0.1234567):
        g = from_theta(theta, scale_for(SILVER, N + R - 1))
        assert np.array_equal(pairwise_oracle(g, R, N), [correlation(g, r, N) for r in range(R)])


@pytest.mark.parametrize("spec", [GOLDEN, SILVER])
@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
def test_fft_route_is_exact_for_quarter_turns(spec, theta):
    assert N_FFT * R_FFT > BIG
    g = from_theta(theta, scale_for(spec, N_FFT + R_FFT))
    prof = correlation_profile(g, R_FFT, N_FFT)
    assert prof.route == "levels-exact"
    assert np.array_equal(prof.gamma, pairwise_oracle(g, R_FFT, N_FFT))
    for r in (0, 1, R_FFT - 1):
        assert correlation(g, r, N_FFT) == prof.gamma[r]


def atom_document(scale, pick):
    """A load_atoms JSON document with atom pick(k, e) at digit e of row k."""
    doc = {}
    for k in range(scale.rows):
        top = scale.quotients[k] if k < scale.K else scale.a_next
        doc[str(k)] = [[1.0, 0.0]] + [list(pick(k, e)) for e in range(1, top + 1)]
    return doc


@pytest.mark.parametrize("theta", [0.1234567, 1 / 3])
def test_fft_route_tolerance_generic_theta(theta):
    g = from_theta(theta, scale_for(SILVER, N_FFT + R_FFT))
    prof = correlation_profile(g, R_FFT, N_FFT)
    assert prof.route == "levels"
    assert np.max(np.abs(prof.gamma - pairwise_oracle(g, R_FFT, N_FFT))) <= FFT_ABS_TOL


def test_fft_route_tolerance_contracting_atom_table():
    rng = np.random.default_rng(5)
    scale = scale_for(GOLDEN, N_FFT + R_FFT)

    def contracting(k, e):
        z = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
        return z.real, z.imag

    g = load_atoms(atom_document(scale, contracting), scale)
    assert max(abs(v) for row in g.atoms for v in row[1:]) < 0.9
    prof = correlation_profile(g, R_FFT, N_FFT)
    assert prof.route == "levels"
    assert np.max(np.abs(prof.gamma - pairwise_oracle(g, R_FFT, N_FFT))) <= FFT_ABS_TOL


@pytest.mark.parametrize("atom, route", [((1.0, 1.0), "levels-exact"), ((4.0, 0.0), "levels")])
def test_fft_route_integer_atom_tables(atom, route):
    # 1+i keeps (N + R - 1) * B**2 near 2**35, within EXACT_INT_MAX; atom 4
    # pushes it to about 2**98 (B = 4**21 over the 21 rows below N + R - 1),
    # so the sums are not exact floats and the levels route holds them to
    # 1e-13 * max|g|**2
    scale = scale_for(GOLDEN, N_FFT + R_FFT)
    g = load_atoms(atom_document(scale, lambda k, e: atom), scale)
    prof = correlation_profile(g, R_FFT, N_FFT)
    assert prof.route == route
    assert_matches_oracle(prof, g, FFT_ABS_TOL * peak_power(g, R_FFT, N_FFT))


def test_route_selection():
    # the route depends on the atoms only: the same on both sides of N * R = 2**20
    scale = scale_for(GOLDEN, BIG + 20)
    for theta, route in ((0.5, "levels-exact"), (0.1234567, "levels")):
        g = from_theta(theta, scale)
        for R, N in ((64, BIG // 64), (64, BIG // 64 + 1), (1, BIG), (1, BIG + 1)):
            prof = correlation_profile(g, R, N)
            assert prof.route == route
            assert_matches_oracle(prof, g)


@pytest.mark.parametrize("R, N", [(1, BIG + 1), (8192, 200), (8192, 20000), (1, 1), (300, 7)])
def test_fft_route_edge_shapes(R, N):
    # R = 1: k0 = 0 and a one-value seed; R = 8192 on golden: N + R - 1 is
    # below q_{k0+1} = 17711 at N = 200 (one dense block) and past it at
    # N = 20000; N = 7 < R = 300 is one dense block; N = R = 1 reads g(0) = 1
    # alone, which no atom reaches, so it is exact for every theta
    for theta, route in ((0.5, "levels-exact"), (0.1234567, "levels")):
        g = from_theta(theta, scale_for(GOLDEN, N + R))
        prof = correlation_profile(g, R, N)
        assert prof.route == (route if N + R > 2 else "levels-exact")
        assert_matches_oracle(prof, g)


def test_fft_route_falls_back_when_rounding_is_not_clean(monkeypatch):
    # the exact route's transforms come back 0.3 off the integers, so the
    # profile takes the levels route, whose transforms are clean
    g = from_theta(0.5, scale_for(GOLDEN, N_FFT + R_FFT))
    clean, rint_sums = spectral._lagged_sums, spectral._rint_sums
    unclean = []

    def off_integers(x, R, y=None):
        with monkeypatch.context() as m:
            m.setattr(spectral, "_lagged_sums", lambda x, R, y=None: clean(x, R, y) + 0.3)
            unclean.append(len(x))
            return rint_sums(x, R, y)

    monkeypatch.setattr(spectral, "_rint_sums", off_integers)
    prof = correlation_profile(g, R_FFT, N_FFT)
    assert unclean
    assert prof.route == "levels"
    assert np.max(np.abs(prof.gamma - pairwise_oracle(g, R_FFT, N_FFT))) <= FFT_ABS_TOL


LIST20 = "list:" + ",".join(map(str, range(1, 21)))  # no a_next: its last row is a_20's


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    spec=st.sampled_from(["golden", "silver", "periodic:/1,2", "periodic:/1,2,3,1,1,4",
                          "periodic:/1000", "periodic:3/7,1", LIST20]),
    theta=st.one_of(st.sampled_from(QUARTER_TURNS),
                    st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    R=st.integers(min_value=1, max_value=700),
    small=st.booleans(),
    extra=st.integers(min_value=1, max_value=5000),
)
@example(spec="golden", theta=0.5, R=1, small=True, extra=1)
@example(spec="golden", theta=0.1234567, R=1, small=True, extra=1)
@example(spec=LIST20, theta=0.1234567, R=300, small=True, extra=2000)
@example(spec="periodic:/1000", theta=0.25, R=64, small=True, extra=1500)
@example(spec="periodic:/1000", theta=1 / 3, R=700, small=False, extra=3)
@example(spec="periodic:3/7,1", theta=0.1234567, R=33, small=True, extra=222)
def test_fft_route_matches_pairwise_property(spec, theta, R, small, extra):
    # small: N * R up to 3.5e6 from N = 1; otherwise N * R just past 2**20
    N = extra if small else BIG // R + extra
    g = from_theta(theta, scale_for(parse_alpha_spec(spec), N + R))
    prof = correlation_profile(g, R, N)
    if theta in QUARTER_TURNS:
        assert prof.route == "levels-exact"
    assert_matches_oracle(prof, g)


@pytest.mark.parametrize("spec", ["golden", "silver", "periodic:3/7,1"])
def test_levels_route_random_atom_tables_at_small_sizes(spec):
    # complex atoms of modulus <= 2 take the levels route; integer atoms in
    # [-3, 3] keep (N + R - 1) * B**2 within 2**53 at these sizes, so they
    # are bit for bit the oracle
    rng = np.random.default_rng(17)
    alpha = parse_alpha_spec(spec)
    for R, N in ((1, 2), (5, 3), (16, 100), (64, 39), (40, 250)):
        scale = scale_for(alpha, N + R - 1)
        g = random_atoms(scale, rng)
        prof = correlation_profile(g, R, N)
        assert prof.route == "levels"
        assert_matches_oracle(prof, g, FFT_ABS_TOL * peak_power(g, R, N))
        h = load_atoms(atom_document(scale, lambda k, e: (float(rng.integers(-3, 4)), 0.0)), scale)
        prof = correlation_profile(h, R, N)
        assert prof.route == "levels-exact"
        assert_matches_oracle(prof, h)


GOLDEN_Q = expand_max(GOLDEN).q


def boundary_lengths(R):
    """N >= 2 at q_k - 1, q_k, q_k + 1, q_k + R - 1 and q_k + R, for some q_k.

    They are the last q_k with q_k * R <= 2**20, the first with q_k * R past
    2**20 + R, and the first q_k >= R (k0's own denominator) if its
    q_k * R <= 2**20.
    """
    first = next(qk for qk in GOLDEN_Q if qk >= R)
    qs = {max(qk for qk in GOLDEN_Q if qk * R <= BIG), next(qk for qk in GOLDEN_Q if qk * R > BIG + R)}
    if first * R <= BIG:
        qs.add(first)
    return sorted({N for q in qs for N in (q - 1, q, q + 1, q + R - 1, q + R) if N >= 2})


@pytest.mark.parametrize("R", [1, 610, 8192])
def test_levels_route_at_convergent_boundaries(R):
    # R = 610 = q_14 is k0's own denominator; R = 8192 puts N + R - 1 at or
    # below q_{k0+1} = 17711 (the dense shape), and R = 1 has k0 = 0
    rng = np.random.default_rng(R)
    for N in boundary_lengths(R):
        scale = scale_for(GOLDEN, N + R - 1)
        for theta in (0.0, 0.25, 0.5):
            g = from_theta(theta, scale)
            prof = correlation_profile(g, R, N)
            assert prof.route == "levels-exact"
            assert np.array_equal(prof.gamma, pairwise_oracle(g, R, N))
        for g in (from_theta(0.1234567, scale), random_atoms(scale, rng)):
            prof = correlation_profile(g, R, N)
            assert prof.route == "levels"
            assert np.max(np.abs(prof.gamma - pairwise_oracle(g, R, N))) <= FFT_ABS_TOL


def test_levels_route_is_independent_of_the_seed_level():
    # R = 64 seeds at q_10 = 89, R = 256 at q_13 = 377: same gamma_r, r < 64
    N = 1 << 40
    for theta, tol in ((0.5, 0.0), (0.1234567, 1e-13)):
        g = from_theta(theta, scale_for(GOLDEN, N + 255))
        short, long = correlation_profile(g, 64, N), correlation_profile(g, 256, N)
        assert short.route == long.route == ("levels-exact" if tol == 0.0 else "levels")
        assert np.max(np.abs(short.gamma - long.gamma[:64])) <= tol


def test_levels_route_builds_no_N_sized_block(monkeypatch):
    built = spectral.values_range

    def small_only(g, count):
        assert count <= 10**5, f"value block of {count}"
        return built(g, count)

    monkeypatch.setattr(spectral, "values_range", small_only)
    R, N = 512, 1 << 22
    prof = correlation_profile(from_theta(0.5, scale_for(GOLDEN, N + R - 1)), R, N)
    assert prof.route == "levels-exact"
    assert prof.gamma[0] == 1.0


def test_levels_route_serves_integer_atoms_past_the_exact_bound(monkeypatch):
    # atoms 2 put (N + R - 1) * B**2 past 2**53: the level recursion still
    # runs, on the seed block g(n), n < q_{k0+1} = 610 (q_k0 = 377 >= R), alone
    R, N = 256, BIG
    scale = scale_for(GOLDEN, N + R - 1)
    g = load_atoms(atom_document(scale, lambda k, e: (2.0, 0.0)), scale)
    built = spectral.values_range

    def small_only(g, count):
        assert count <= 610 + R, f"value block of {count}"
        return built(g, count)

    with monkeypatch.context() as m:
        m.setattr(spectral, "values_range", small_only)
        prof = correlation_profile(g, R, N)
    assert prof.route == "levels"
    tol = FFT_ABS_TOL * peak_power(g, R, N)
    for r in (0, 1, 255):
        assert abs(prof.gamma[r] - correlation(g, r, N)) <= tol


def test_levels_route_transforms_stay_near_the_seed(monkeypatch):
    # at N = 1e18, R = 1024 no transform input is longer than q_{k0+1} + 2R
    R, N = 1024, 10**18
    lagged = spectral._lagged_sums
    longest = []

    def recorded(x, R, y=None):
        longest.append(max(len(x), 0 if y is None else len(y)))
        return lagged(x, R, y)

    monkeypatch.setattr(spectral, "_lagged_sums", recorded)
    prof = correlation_profile(from_theta(0.5, scale_for(GOLDEN, N + R - 1)), R, N)
    assert prof.route == "levels"
    assert 0 < max(longest) <= 2584 + 2 * R  # q_{k0+1} = 2584 after q_k0 = 1597 >= R
    assert abs(prof.gamma[0] - 1.0) <= 1e-12


# --- Fourier tables ----------------------------------------------------------------

def dft_direct(vals: np.ndarray) -> np.ndarray:
    """O(q^2) evaluation of G(h) = (1/q) sum_u g(u) e(-h*u/q), the oracle of _dft_fast.

    Phases are reduced through integer h*u mod q, so every kernel entry is an
    exact root-of-unity lookup.
    """
    q = len(vals)
    roots = unit(-(np.arange(q) / q))
    u = np.arange(q, dtype=np.int64)
    out = np.empty(q, dtype=np.complex128)
    for h in range(q):
        out[h] = pairwise_sum(vals * roots[(h * u) % q]) / q
    return out


def test_direct_and_fast_transforms_agree():
    rng = np.random.default_rng(11)
    for q in (1, 2, 55, 377, 610):
        vals = np.exp(2j * np.pi * rng.random(q))
        assert np.max(np.abs(dft_direct(vals) - _dft_fast(vals))) < 1e-12


def test_transform_path_switches_at_cap():
    # production tables (always the FFT) against the direct O(q^2) oracle
    scale = scale_for(GOLDEN, 10**4 + 7000)
    g = from_theta(1 / 3, scale)
    lam_small = scale.q.index(2584)
    lam_big = scale.q.index(6765)
    vals_small = values_range(g, 2584)
    assert np.max(np.abs(fourier_coeffs(g, lam_small).G - dft_direct(vals_small))) < 1e-12
    vals_big = values_range(g, 6765)
    direct = dft_direct(vals_big)
    assert np.max(np.abs(fourier_coeffs(g, lam_big).G - direct)) < 1e-12


def test_fourier_known_table():
    scale = scale_for(GOLDEN, 100)
    g = from_theta(0.5, scale)
    t = fourier_coeffs(g, 2)  # q_2 = 2, values (1, -1)
    assert np.allclose(t.G, [0.0, 1.0], atol=1e-15)
    t4 = fourier_coeffs(g, 4)  # q_4 = 5
    assert t4.G[0] == pytest.approx(-0.2)


def test_fourier_range_and_cap_errors(monkeypatch):
    scale = scale_for(GOLDEN, 10**5)
    g = from_theta(0.5, scale)
    with pytest.raises(RangeError):
        fourier_coeffs(g, scale.K + 1)
    # a table built for the first level past the cap: refused before any value block
    lam = next(k for k, q in enumerate(expand_max(GOLDEN).q) if q > DFT_CAP)
    g = from_theta(0.5, expand(GOLDEN, lam))
    monkeypatch.setattr(spectral, "values_range", lambda *a: pytest.fail("value block built"))
    with pytest.raises(CapError):
        fourier_coeffs(g, lam)


def test_spectrum_grid_size_cap(monkeypatch):
    # rows * grid_size entries past RANGE_CAP: refused before any value block
    g = from_theta(0.5, scale_for(GOLDEN, 1000))
    monkeypatch.setattr(spectral, "values_range", lambda *a: pytest.fail("value block built"))
    with pytest.raises(CapError, match="spectrum grid"):
        spectrum_scan(g, 100, grid_size=RANGE_CAP + 1)
    with pytest.raises(CapError, match="spectrum grid"):
        spectrum_scan(g, RANGE_CAP // 2 + 2, grid_size=RANGE_CAP // 2 + 1)  # two rows


def test_parseval():
    scale = scale_for(SILVER, 2000)
    for theta in (0.5, 1 / 3, 0.1234567):
        g = from_theta(theta, scale)
        for lam in range(1, 8):
            lhs, rhs, delta = fourier_coeffs(g, lam).parseval()
            assert delta < 1e-12
            assert rhs == pytest.approx(1.0, abs=1e-12)  # unimodular values


def test_cyclic_identity_for_arbitrary_complex_tables():
    # the identity is an algebraic fact for every complex-valued g; random
    # non-unimodular atoms would expose a wrong sign convention immediately
    rng = np.random.default_rng(5)
    for spec in (GOLDEN, SILVER):
        scale = scale_for(spec, 3000)
        g = random_atoms(scale, rng)
        for lam in (2, 4, 6):
            q = scale.q[lam]
            deltas = cyclic_identity_sweep(g, lam, range(min(q, 40) + 1))
            assert max(deltas) < 1e-10 * q


def battery_calls(monkeypatch, name, families):
    """(args, result) of every spectral.<name> call verify_all(seed=0) makes over families."""
    real, calls = getattr(spectral, name), []

    def recorded(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(spectral, name, recorded)
    verify_all(seed=0, only=families)
    return calls


def cyclic_deltas_per_shift(g, lam, r_values):
    """Deltas of the cyclic identity through one pairwise sum per shift and side."""
    table = fourier_coeffs(g, lam)
    q = table.q
    vals = values_range(g, q)
    power = table.G.real**2 + table.G.imag**2
    h = np.arange(q, dtype=np.int64)
    deltas = []
    for r in r_values:
        lhs = pairwise_sum(power * unit(((h * (r % q)) % q) / q))
        rhs = pairwise_sum(np.roll(vals, -(r % q)) * np.conj(vals)) / q
        deltas.append(abs(lhs - rhs))
    return deltas


def cyclic_deltas_unit_matrix(g, lam, r_values):
    """Deltas of the cyclic identity from one e() per (shift, h) matrix entry."""
    table = fourier_coeffs(g, lam)
    q, vals = table.q, table.values
    power = table.G.real**2 + table.G.imag**2
    h = np.arange(q, dtype=np.int64)
    s = (np.array(list(r_values), dtype=np.int64) % q)[:, None]
    lhs = (power * unit(((h * s) % q) / q)).sum(axis=1)
    rhs = (vals[(h + s) % q] * np.conj(vals)).sum(axis=1)
    return np.hypot(lhs.real - rhs.real / q, lhs.imag - rhs.imag / q).tolist()


def test_cyclic_identity_sweep_matches_the_per_shift_loop_bit_for_bit(monkeypatch):
    # the root table read at (h*r) mod q gives the phases of one e() per
    # matrix entry bit for bit, so the deltas are those of both oracles
    calls = battery_calls(monkeypatch, "cyclic_identity_sweep", "cyclic")
    assert len(calls) == 168  # the identity family's levels with q_lam <= 1024
    for (g, lam, r_values), deltas in calls:
        assert deltas == cyclic_deltas_per_shift(g, lam, r_values)
        assert deltas == cyclic_deltas_unit_matrix(g, lam, r_values)


def test_cyclic_identity_sweep_edges():
    g = from_theta(1 / 3, scale_for(GOLDEN, 1000))
    assert cyclic_identity_sweep(g, 6, []) == []
    assert cyclic_identity_sweep(g, 6, [3, 3 + 13]) == cyclic_identity_sweep(g, 6, [3, 3])  # q_6 = 13
    with pytest.raises(ValidationError):
        cyclic_identity_sweep(g, 6, [0, -1])
    # only r mod q_6 is read: shifts past 2**63 - 1 are reduced as Python ints
    big = [2**63, 2**70 + 3]
    assert cyclic_identity_sweep(g, 6, big) == cyclic_identity_sweep(g, 6, [r % 13 for r in big])
    g = from_theta(1 / 3, scale_for(GOLDEN, 20000))
    with pytest.raises(CapError):  # 6200 shifts x q_20 = 10946 entries pass RANGE_CAP
        cyclic_identity_sweep(g, 20, range(6200))


def test_cyclic_identity_sweep_refuses_before_listing_the_shifts():
    # 3 * 10**6 shifts x q_8 = 34 pass RANGE_CAP: refused from the range's
    # length, before a list of its 3 * 10**6 ints is made
    g = from_theta(1 / 3, scale_for(GOLDEN, 1000))
    tracemalloc.start()
    try:
        with pytest.raises(CapError):
            cyclic_identity_sweep(g, 8, range(3 * 10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValidationError):  # a negative shift is still refused
        cyclic_identity_sweep(g, 8, range(-1, 5))


# --- exponential sums ----------------------------------------------------------------

def test_exponential_sum_exact_phase_oracle():
    scale = scale_for(GOLDEN, 500)
    g = from_theta(1 / 3, scale)
    beta = 0.7234
    bf = Fraction(beta)
    N = 300
    acc = 0j
    for n in range(N):
        acc += evaluate(g, n) * cmath.exp(-2j * cmath.pi * float((bf * n) % 1))
    assert abs(exponential_sum(g, beta, N) - acc / N) < 1e-12


def test_scale_sums_known_values():
    scale = scale_for(GOLDEN, 100)
    g = from_theta(0.5, scale)
    S = scale_sums(g, 0.0, 3)
    assert S[0] == 1.0 and S[1] == 1.0 and S[2] == 0.0
    assert S[3] == -(1 / 3)


def test_scale_sums_serve_the_row_past_K():
    # a_next is known, so the table has rows = K + 1 and the last average
    # runs over n < q_{K+1} = limit, the row _scale_sums already serves
    g = from_theta(0.5, scale_for(GOLDEN, 4181))
    assert (g.scale.K, g.scale.rows, g.scale.limit) == (17, 18, 4181)
    S = scale_sums(g, 0.3, 18)
    assert S.tobytes() == _scale_sums(g, np.array([0.3]), 18)[0].tobytes()
    direct = np.sum(values_range(twist(g, 0.3), 4181)).item() / 4181
    assert abs(S[-1] - direct) <= 2.5e-16
    with pytest.raises(RangeError, match="K=19 outside 0..18"):
        scale_sums(g, 0.3, 19)


def test_scale_sums_match_direct_averages():
    rng = np.random.default_rng(23)
    for spec in (GOLDEN, SILVER):
        scale = scale_for(spec, 2 * 10**4)
        K = max(i for i in range(1, scale.K + 1) if scale.q[i] <= 10**4)
        for _ in range(6):
            g = from_theta(float(rng.random()), scale)
            beta = float(rng.random())
            S = scale_sums(g, beta, K)
            vals = values_range(twist(g, beta), scale.q[K])
            for i in range(K + 1):
                direct = np.sum(vals[: scale.q[i]]).item() / scale.q[i]
                assert abs(S[i] - direct) < 1e-9


def test_scale_sums_past_the_cap_match_the_exact_twist():
    # q_K ~ 1e18: the batched twist over all betas against twist's one-beta
    # atom table, both through the P_i recurrence
    rng = np.random.default_rng(31)
    scale = scale_for(GOLDEN, 10**18)
    assert scale.q[scale.K] > 10**17 > RANGE_CAP
    for theta, beta in [(0.5, 0.0), (1 / 3, 0.25), *rng.random((4, 2)).tolist()]:
        g = from_theta(theta, scale)
        S = scale_sums(g, beta)
        rows = twist(g, beta).atoms[: scale.K]
        P = _scale_partials([sum(row[:-1]) for row in rows], [row[-1] for row in rows])
        want = [p / q for p, q in zip(P, scale.q)]
        assert len(S) == len(want) == scale.K + 1
        assert max(abs(a - b) for a, b in zip(S.tolist(), want)) <= 1e-12, (theta, beta)


def test_scale_sums_contraction():
    rng = np.random.default_rng(29)
    scale = scale_for(GOLDEN, 10**6)
    for _ in range(20):
        g = from_theta(float(rng.random()), scale)
        S = np.abs(scale_sums(g, float(rng.random())))
        for i in range(1, len(S) - 1):
            assert S[i + 1] <= max(S[i], S[i - 1]) + 1e-12


@pytest.mark.parametrize("spec", [GOLDEN, SILVER])
def test_scale_sums_at_beta_0_are_exact_while_the_partial_sums_fit_2_53(spec):
    # theta = 0: P_i = q_i is an exact integer while it stays <= 2**53, so S_i
    # is exactly 1 up to the last q_i <= 2**53; past it the recurrence may
    # round (golden from q_81, silver from q_43: 0.9999999999999999)
    scale = expand_max(spec)
    S = scale_sums(from_theta(0.0, scale), 0.0)
    last = max(i for i, q in enumerate(scale.q) if q <= 2**53)
    assert last < scale.K
    assert S[: last + 1].tolist() == [1.0] * (last + 1)
    assert np.max(np.abs(S - 1.0)) <= 1e-15


# --- digit route for exponential sums against the dense oracle -----------------------

DIGIT_ABS_TOL = 1e-13
ALPHA_SPECS = ["golden", "silver", "periodic:/1,2", "periodic:/1,2,3,1,1,4"]


def dense_exp_sum(vals: np.ndarray, beta: float) -> complex:
    """exponential_sum's arithmetic on a given value block: (1/N) sum_{n<N} vals[n] e(-n*beta)."""
    N = len(vals)
    return pairwise_sum(vals * unit(frac_mul_array(np.arange(N), -beta))) / N


def digit_gap(g, N, betas):
    """Largest |digit route - dense sum| over betas: one batched digit call, one value block."""
    got = _digit_exp_sums(_digit_plan(g, [N]), betas).tolist()
    vals = values_range(g, N)
    return max(abs(s - dense_exp_sum(vals, beta)) for s, beta in zip(got, betas))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    spec=st.sampled_from(ALPHA_SPECS),
    theta=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1 / 3]),
                    st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    beta=st.one_of(st.sampled_from([0.0, 1.0, -0.5, -1.0]),
                   st.integers(min_value=-256, max_value=256).map(lambda k: k / 128),
                   st.floats(min_value=-2.0, max_value=2.0)),
    N=st.integers(min_value=1, max_value=20000),
)
def test_digit_route_matches_dense_property(spec, theta, beta, N):
    g = from_theta(theta, scale_for(parse_alpha_spec(spec), N))
    assert digit_gap(g, N, [beta]) <= DIGIT_ABS_TOL


EDGE_SCALES = {
    **{spec: (spec, 5000) for spec in ALPHA_SPECS},
    # a finite quotient list: no a_{K+1}, so the table stops at q_K
    "list": ("list:2,3,1,4,1,1,2", None),
}


@pytest.mark.parametrize("name", EDGE_SCALES)
def test_digit_route_edge_lengths(name):
    # N = 1, every q_k and its neighbours, and N = scale.limit, whose greedy
    # digits are not a legal Ostrowski expansion (encode refuses it)
    spec, upto = EDGE_SCALES[name]
    spec = parse_alpha_spec(spec)
    scale = scale_for(spec, upto) if upto else expand(spec, len(spec.preperiod))
    with pytest.raises(RangeError):
        encode(scale.limit, scale)
    lengths = {1, scale.limit} | {q + d for q in scale.q for d in (-1, 0, 1)
                                  if 1 <= q + d <= scale.limit}
    betas = (0.0, 1.0, 0.1234567, -0.3, 0.5, 2.0**-40)
    for theta in (1 / 3, 0.5):
        g = from_theta(theta, scale)
        for N in sorted(lengths):
            assert digit_gap(g, N, betas) <= DIGIT_ABS_TOL, (theta, N)
    control = from_theta(0.0, scale)
    for N in sorted(lengths):
        assert _digit_exp_sums(_digit_plan(control, [N]), [0.0]).tolist() == [1.0]


@pytest.mark.parametrize("N", [1, 2, 3, 100, 12345, 10**5])
def test_quarter_turn_twist_sums_equal_the_probe_bit_for_bit(N):
    # theta = 1/2, beta = 1/4: every twisted atom and every phase n/4 is one
    # of 1, i, -1, -i exactly, so the dense sums and the digit route add the
    # same Gaussian integers without rounding
    g = from_theta(0.5, scale_for(GOLDEN, N))
    probe = _digit_exp_sums(_digit_plan(g, [N]), [0.25])[0]
    assert exponential_sum(twist(g, 0.25), 0.0, N) == probe
    assert exponential_sum(g, 0.25, N) == probe


def test_golden_half_quarter_probe_is_the_exact_dense_value():
    # the sum of g(n) e(-n/4) over n < 10**6 in integers is -708 + 22i
    N = 10**6
    g = from_theta(0.5, scale_for(GOLDEN, N))
    vals = values_range(g, N).real.astype(np.int64)
    assert set(np.unique(vals).tolist()) == {-1, 1}
    n = np.arange(N)
    total = complex(int(vals[n % 4 == 0].sum() - vals[n % 4 == 2].sum()),
                    int(vals[n % 4 == 3].sum() - vals[n % 4 == 1].sum()))
    assert total == complex(-708, 22)
    want = complex(total.real / N, total.imag / N)
    assert want == complex(-0.000708, 2.2e-05)
    assert exponential_sum(g, 0.25, N) == want
    assert _digit_exp_sums(_digit_plan(g, [N]), [0.25])[0] == want


def test_digit_route_twisted_spec_and_atom_tables():
    rng = np.random.default_rng(43)
    scale = scale_for(SILVER, 30000)
    betas = [0.0, 0.2, 0.8, -0.45, *rng.random(4)]
    g = parse_fn_spec("theta:0.3+beta:0.2", scale)
    for N in (1, 17, 4096, 29999, scale.limit):
        assert digit_gap(g, N, betas) <= DIGIT_ABS_TOL

    def pick(k, e):
        z = 1.3 * rng.random() * np.exp(2j * np.pi * rng.random())
        return z.real, z.imag

    g = load_atoms(atom_document(scale, pick), scale)
    assert not g.is_unimodular
    for N in (1, 17, 4096, 29999, scale.limit):
        peak = float(np.max(np.abs(values_range(g, N))))
        assert digit_gap(g, N, betas) <= DIGIT_ABS_TOL * max(1.0, peak)


def test_digit_route_rows_equal_the_one_beta_calls():
    # a batched call over several lengths gives each entry exactly as a
    # one-beta call on a one-length plan does
    rng = np.random.default_rng(59)
    scale = scale_for(parse_alpha_spec("periodic:/1,2,3,1,1,4"), 40000)
    g = parse_fn_spec("theta:0.1234567", scale)
    lengths = [1, 2, 4096, 12345, 32768]
    plan = _digit_plan(g, lengths)
    betas = np.concatenate([[0.0, -0.5, 1.0, 2.0**-40], rng.random(26) * 4 - 2])
    length = rng.integers(0, len(lengths), len(betas))
    got = _digit_exp_sums(plan, betas, length)
    for beta, r, s in zip(betas, length, got):
        assert s == _digit_exp_sums(_digit_plan(g, [lengths[r]]), [beta])[0], (beta, r)


def scalar_probe(g, N, beta):
    """(1/N) sum_{n<N} g(n) e(-n*beta) by the digit recursion on twist(g, beta), one beta, Python scalars."""
    rows = twist(g, beta).atoms
    total, P, prev = 1 + 0j, 1 + 0j, 0j
    for row, e in zip(rows, encode(N - 1, g.scale).digits):
        if e:
            total = sum(row[:e]) * P + row[e] * total
        a = len(row) - 1
        P, prev = sum(row[:a]) * P + row[a] * prev, P
    return total / N


def sequential_candidates(g, N, grid):
    """The scan's candidate list from one scalar probe at a time, peak after peak."""
    M = len(grid)
    out = [(0.0, float(grid[0]))]
    for j in _top_local_maxima(grid, REFINE_PEAKS).tolist():
        out.append((j / M, float(grid[j])))
        lo, hi = (j - 1) / M, (j + 1) / M
        while hi - lo > REFINE_WIDTH:
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            f1, f2 = abs(scalar_probe(g, N, m1)), abs(scalar_probe(g, N, m2))
            out += [(m1, f1), (m2, f2)]
            if f1 < f2:
                lo = m1
            else:
                hi = m2
        mid = (lo + hi) / 2
        out.append((mid, abs(scalar_probe(g, N, mid))))
    return out


@pytest.mark.parametrize("spec, fn", [("golden", "theta:0.1234567"),
                                      ("silver", "theta:0.3+beta:0.2"),
                                      ("periodic:/1,2,3,1,1,4", "theta:0.7")])
def test_lockstep_refinement_matches_the_sequential_scan(spec, fn):
    # all peaks of all lengths refined in lockstep: the same probes in the
    # same order per scan as one scalar probe at a time, values to 1e-15 * max|g|
    lengths = [4096, 5000, 8192]
    g = parse_fn_spec(fn, scale_for(parse_alpha_spec(spec), max(lengths)))
    grids = [spectral._scans(g, [N], 256)[0].grid for N in lengths]
    got = _refine(_digit_plan(g, lengths), grids)
    for N, grid, candidates in zip(lengths, grids, got):
        want = sequential_candidates(g, N, grid)
        assert [beta for beta, _ in candidates] == [beta for beta, _ in want], N
        assert max(abs(a - b) for (_, a), (_, b) in zip(candidates, want)) <= 1e-15
        scan = spectrum_scan(g, N, grid_size=256)
        best = max(want, key=lambda c: c[1])
        assert scan.beta_peak == best[0] % 1.0 and abs(scan.peak_value - best[1]) <= 1e-15


def test_spectrum_peak_matches_dense_recheck(monkeypatch):
    cases = [(GOLDEN, "theta:0.0+beta:0.3", 10**4), (SILVER, "theta:0.3333", 8192),
             (parse_alpha_spec("periodic:/1,2,3,1,1,4"), "theta:0.1234567+beta:0.61", 12345)]

    def no_dense_probes(g, beta, N):
        raise AssertionError("refinement probe took the dense route")

    width, rounds = 2 / 512, 0
    while width > REFINE_WIDTH:
        width, rounds = width * 2 / 3, rounds + 1
    for spec, fn, N in cases:
        g = parse_fn_spec(fn, scale_for(spec, N))
        calls = []

        def counted(plan, betas, length=None):
            calls.append(len(betas))
            return _digit_exp_sums(plan, betas, length)

        with monkeypatch.context() as m:
            m.setattr(spectral, "exponential_sum", no_dense_probes)
            m.setattr(spectral, "_digit_exp_sums", counted)
            scan = spectrum_scan(g, N, grid_size=512)
        # refinement stays batched: one call per ternary round plus one for
        # the midpoints, instead of 2 * rounds + 1 calls per peak
        assert len(calls) <= 1 + rounds
        assert sum(calls) == (2 * rounds + 1) * REFINE_PEAKS
        assert 0.0 < scan.beta_peak < 1.0
        dense = abs(exponential_sum(g, scan.beta_peak, N))
        assert abs(scan.peak_value - dense) <= 1e-12, (fn, scan.beta_peak)


# --- spectrum scans ----------------------------------------------------------------

def test_spectrum_control_is_exactly_one():
    scale = scale_for(GOLDEN, 20000)
    g = from_theta(0.0, scale)
    scan = spectrum_scan(g, 10**4, grid_size=512)
    assert scan.beta_peak == 0.0
    assert scan.peak_value == 1.0


@pytest.mark.parametrize("N", [8192, 10**4, 16384, 32768])
def test_spectrum_peak_of_a_real_g_is_the_smaller_mirror(N):
    # golden theta = 1/2 is real, so |S(beta)| = |S(1 - beta)|: the mirror
    # peaks tie up to rounding (at N = 10^4 and 16384 the larger beta rounds
    # higher) and the scan reports the smaller beta, with its own value
    g = from_theta(0.5, scale_for(GOLDEN, N))
    scan = spectrum_scan(g, N)
    assert 0.0 < scan.beta_peak < 0.5
    dense = abs(exponential_sum(g, scan.beta_peak, N))
    assert abs(scan.peak_value - dense) <= 1e-12
    assert abs(abs(exponential_sum(g, 1 - scan.beta_peak, N)) - dense) <= 1e-12


def test_peak_rule_takes_the_smallest_beta_of_a_tie():
    top = 0.25
    below = top - 10 * np.spacing(top)
    far = top - 2 * spectral.PEAK_TIE_ULPS * np.spacing(top)
    assert spectral._peak([(0.7, top), (0.3, below)]) == (0.3, below)
    assert spectral._peak([(0.7, top), (0.3, far)]) == (0.7, top)
    assert spectral._peak([(0.0, 1.0), (1e-7, 1.0 + 2**-52)]) == (0.0, 1.0)
    assert spectral._peak([(-1e-7, top), (0.5, top)]) == (0.5, top)  # beta is taken mod 1


def test_spectrum_finds_twisted_frequency():
    scale = scale_for(GOLDEN, 20000)
    g = twist(from_theta(0.0, scale), 0.3)
    scan = spectrum_scan(g, 10**4, grid_size=1024)
    assert abs(scan.beta_peak - 0.7) < 2e-6
    # refinement stops at width 1e-6, so the probe sits within ~1e-6 of the
    # true frequency and the sampled modulus is 1 - O((N * 1e-6)^2)
    assert scan.peak_value > 0.9995


def test_spectrum_grid_matches_direct_sums():
    scale = scale_for(SILVER, 5000)
    g = from_theta(1 / 3, scale)
    N, M = 4000, 128
    scan = spectrum_scan(g, N, grid_size=M)
    for j in (0, 1, 17, 64, 127):
        direct = abs(exponential_sum(g, j / M, N))
        assert abs(scan.grid[j] - direct) < 1e-11


@settings(max_examples=300, deadline=None, derandomize=True)
@given(levels=st.lists(st.integers(0, 4), min_size=1, max_size=64), k=st.integers(0, 8))
def test_top_local_maxima_is_the_sorted_rule(levels, k):
    # few distinct levels give plateaus and ties; the order is value
    # descending, then index ascending, over the >= cyclic local maxima
    profile = np.array(levels, dtype=np.float64) / 3
    left, right = np.roll(profile, 1), np.roll(profile, -1)
    idx = np.nonzero((profile >= left) & (profile >= right))[0]
    want = sorted(idx, key=lambda j: (-profile[j], j))[:k]
    assert _top_local_maxima(profile, k).tolist() == [int(j) for j in want]


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_beta_is_a_validation_error(beta):
    g = from_theta(0.5, scale_for(GOLDEN, 100))
    with pytest.raises(ValidationError, match="not finite"):
        exponential_sum(g, beta, 10)
    with pytest.raises(ValidationError, match="not finite"):
        scale_sums(g, beta)


def test_dense_sums_refuse_sizes_past_the_cap_before_allocating():
    g = from_theta(0.5, scale_for(GOLDEN, RANGE_CAP + 1))
    with pytest.raises(CapError):
        exponential_sum(g, 0.25, RANGE_CAP + 1)
    with pytest.raises(CapError):
        spectrum_scan(g, RANGE_CAP + 1)


# --- classical inequalities -----------------------------------------------------------

def test_fejer_hand_example():
    lhs, rhs, delta = fejer_check(2, 0.25)
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)
    assert delta < 1e-12


def test_fejer_random_sweep():
    rng = np.random.default_rng(31)
    for _ in range(25):
        R = int(rng.integers(1, 200))
        _, _, delta = fejer_check(R, float(rng.random()))
        assert delta <= 1e-10 * R * R


def sieve_lhs_per_h(H, R, t):
    """lhs of the large sieve through one pairwise sum per frequency h."""
    r = np.arange(R, dtype=np.float64)
    terms = np.empty(H, dtype=np.float64)
    for h in range(H):
        terms[h] = abs(pairwise_sum(unit(r * (t + h / H))) / R) ** 2
    return pairwise_sum(terms)


def sieve_lhs_direct_matrix(H, R, t):
    """lhs of the large sieve from one e() per entry of the H x R phase matrix."""
    sums = unit((t + np.arange(H) / H)[:, None] * np.arange(R, dtype=np.float64)).sum(axis=1)
    return pairwise_sum(np.float_power(np.hypot(sums.real / R, sums.imag / R), 2))


def test_large_sieve_matches_the_direct_matrix_to_1e13(monkeypatch):
    # the matrix from H + R roots moves lhs by at most 1e-13 of the bound
    # against one e() of the rounded r*(t + h/H) per entry, and against the
    # per-h loop; relative to a small lhs (sums that nearly cancel) the move
    # is larger, up to 1.5e-12 at lhs = 2.8e-5 over seeds 0-3
    calls = battery_calls(monkeypatch, "large_sieve_check", ["fejer", "large_sieve"])
    assert len(calls) == 500
    for (H, R, t), (lhs, bound, ok) in calls:
        assert abs(lhs - sieve_lhs_direct_matrix(H, R, t)) <= 1e-13 * bound
        assert abs(lhs - sieve_lhs_per_h(H, R, t)) <= 1e-13 * bound
        assert bound == (H + R - 1) / R
        assert ok == (lhs <= bound + spectral.SIEVE_SLACK)


def test_large_sieve_edges():
    lhs, bound, ok = large_sieve_check(1, 8, 0.0)
    assert ok and bound == 1.0 and lhs == pytest.approx(1.0)
    lhs, bound, ok = large_sieve_check(4, 1, 0.37)
    assert ok and bound == 4.0 and lhs == pytest.approx(4.0)
    with pytest.raises(CapError):  # 2**27 matrix entries, refused before allocating
        large_sieve_check(1 << 13, 1 << 14, 0.0)


def test_vdc_constant_sequence_is_tight():
    L = 50
    lhs, rhs, ok = vdc_check(np.ones(L), 1)
    assert ok
    assert lhs == pytest.approx(L * L)
    assert rhs.real == pytest.approx(L * L)


def vdc_rhs_per_shift(a, R):
    """rhs of the van der Corput bound through one pairwise sum per shift."""
    L = len(a)
    total = 0j
    for r in range(1 - R, R):
        if r >= 0:
            inner = pairwise_sum(a[r:] * np.conj(a[: L - r]))
        else:
            inner = pairwise_sum(a[: L + r] * np.conj(a[-r:]))
        total += (1 - abs(r) / R) * inner
    return ((L - 1 + R) / R) * total


def test_vdc_matches_the_per_shift_loop(monkeypatch):
    # the lags come from one autocorrelation and one weighted pairwise sum,
    # so rhs moves by rounding only (measured: at most 1.4e-16 * L**2)
    calls = battery_calls(monkeypatch, "vdc_check", ["fejer", "large_sieve", "vdc"])
    assert len(calls) == 200
    for (seq, R), (lhs, rhs, ok) in calls:
        L = len(seq)
        assert lhs == abs(pairwise_sum(seq)) ** 2
        assert abs(rhs - vdc_rhs_per_shift(seq, R)) <= 1e-15 * L * L
        assert ok == (lhs <= rhs.real + spectral.VDC_SLACK * L * L)


def test_vdc_random_sequences():
    rng = np.random.default_rng(37)
    for _ in range(25):
        L = int(rng.integers(2, 100))
        R = int(rng.integers(1, L + 1))
        seq = np.exp(2j * np.pi * rng.random(L))
        lhs, rhs, ok = vdc_check(seq, R)
        assert ok and lhs <= rhs.real + 1e-9 * L * L
