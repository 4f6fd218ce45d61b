"""Digit strings, truncations, block structure, and the vectorized kernels.

Oracles: exhaustive enumeration of every legal digit string (uniqueness and
completeness of the numeration below a cutoff), and per-n recomputation of
the quantities the vectorized kernels produce in bulk.
"""

import bisect
import itertools
import tracemalloc

import numpy as np
import pytest

from ostrowski import (
    GOLDEN,
    SILVER,
    DigitString,
    QuotientSpec,
    RangeError,
    ValidationError,
    block_counts,
    block_densities,
    decode,
    digit_at_range,
    encode,
    expand,
    high_digit_sum_range,
    iterate,
    psi,
    psi_range,
    scale_for,
    sigma,
    sigma_range,
    validate,
    w_sequence,
)

PERIOD12 = QuotientSpec((), (1, 2))
MIXED = QuotientSpec((), (1, 2, 3, 1, 1, 4))
SPECS = (GOLDEN, SILVER, PERIOD12, MIXED)

CUTOFF = 500


def legal_strings(scale):
    """Every digit vector satisfying the numeration rules, by brute force."""
    ranges = [range(scale.digit_bound(k) + 1) for k in range(scale.rows)]
    for digits in itertools.product(*ranges):
        ok = True
        for k in range(1, len(digits)):
            if digits[k] == scale.digit_bound(k) and digits[k] != 0 and digits[k - 1] != 0:
                ok = False
                break
        if ok:
            yield digits


# --- uniqueness and completeness ----------------------------------------------

@pytest.mark.parametrize("spec", SPECS, ids=["golden", "silver", "p12", "p123114"])
def test_numeration_is_a_bijection_below_cutoff(spec):
    scale = scale_for(spec, CUTOFF + 1)
    q = scale.q
    seen = {}
    for digits in legal_strings(scale):
        n = sum(e * q[k] for k, e in enumerate(digits))
        if n <= CUTOFF:
            assert n not in seen, f"two strings for {n}: {seen[n]} and {digits}"
            seen[n] = digits
    assert sorted(seen) == list(range(CUTOFF + 1))
    for n in range(CUTOFF + 1):
        d = encode(n, scale)
        padded = d.digits + (0,) * (scale.rows - len(d.digits))
        assert padded == seen[n]
        assert decode(d) == n


def test_round_trip_large_samples():
    rng = np.random.default_rng(7)
    for spec in SPECS:
        scale = scale_for(spec, 10**7)
        for n in rng.integers(0, 10**7, size=200):
            n = int(n)
            assert decode(encode(n, scale)) == n


def test_encode_range_errors():
    scale = expand(GOLDEN, 6)  # limit q_7 = 21
    with pytest.raises(RangeError):
        encode(-1, scale)
    with pytest.raises(RangeError):
        encode(scale.limit, scale)


def test_known_golden_digits():
    scale = scale_for(GOLDEN, 100)
    assert encode(4, scale).digits == (0, 1, 0, 1)
    assert encode(4, scale).sigma == 2
    # 12 = 8 + 3 + 1 over Fibonacci scales
    assert encode(12, scale).digits == (0, 1, 0, 1, 0, 1)


def test_digit_rules_enforced():
    scale = scale_for(SILVER, 1000)
    with pytest.raises(ValidationError):
        DigitString((2,), scale)            # eps_0 < a_1
    with pytest.raises(ValidationError):
        DigitString((0, 3), scale)          # eps_k <= a_{k+1}
    with pytest.raises(ValidationError):
        DigitString((1, 2), scale)          # maximal digit forces a zero below
    assert validate((0, 2), scale)
    assert not validate((1, 2), scale)


def test_trailing_zeros_trimmed():
    scale = scale_for(GOLDEN, 100)
    assert DigitString((0, 1, 0, 0), scale).digits == (0, 1)


def test_sigma_and_psi_against_digits():
    for spec in (GOLDEN, SILVER):
        scale = scale_for(spec, 2000)
        for n in range(0, 1500, 7):
            d = encode(n, scale)
            assert sigma(n, scale) == sum(d.digits)
            for lam in range(0, 6):
                expected = sum(
                    e * scale.q[k] for k, e in enumerate(d.digits) if k < lam
                )
                assert psi(n, lam, scale) == expected


def test_iterate_matches_encode():
    scale = scale_for(GOLDEN, 50)
    pairs = list(iterate(scale, 20))
    assert [n for n, _ in pairs] == list(range(20))
    assert all(decode(d) == n for n, d in pairs)


# --- block structure ------------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS, ids=["golden", "silver", "p12", "p123114"])
def test_w_sequence_brute_force(spec):
    scale = scale_for(spec, 20000)
    for lam in (1, 2, 3, 4):
        block = w_sequence(lam, 40, scale)
        brute = [n for n in range(scale.limit) if psi(n, lam, scale) == 0][:40]
        assert list(block.starts) == brute
        # gaps take exactly the two certified lengths
        gaps = np.diff(block.starts)
        assert set(gaps.tolist()) <= {scale.q[lam], scale.q[lam - 1]}
        # short gap exactly at maximal digit, whenever lengths can tell
        if scale.q[lam] != scale.q[lam - 1]:
            for w, gap, kind in zip(block.starts, gaps, block.kinds):
                is_short = encode(w, scale).digit(lam) == scale.digit_bound(lam)
                assert (gap == scale.q[lam - 1]) == is_short
                assert (kind == "short") == is_short


def test_golden_w_sequence_example():
    scale = scale_for(GOLDEN, 1000)
    block = w_sequence(2, 5, scale)
    assert block.starts == (0, 2, 3, 5, 7)
    assert block.kinds == ("long", "short", "long", "long")


def test_block_counts_cover_N():
    for spec in (GOLDEN, SILVER):
        scale = scale_for(spec, 10**5 + 100)
        for lam in (1, 2, 4):
            for N in (10**3, 10**4 + 7):
                n_long, n_short = block_counts(lam, N, scale)
                used = n_long * scale.q[lam] + n_short * scale.q[lam - 1]
                assert used <= N < used + scale.q[lam]


@pytest.mark.parametrize("spec", SPECS, ids=["golden", "silver", "p12", "p123114"])
def test_block_counts_match_psi_scan(spec):
    # blocks fully inside [0, N) are the gaps between consecutive starts
    # {n <= N : psi_lam(n) = 0}; golden lam = 1 has q_1 = q_0, all long
    scale = scale_for(spec, 10**4 + 100)
    for lam in (1, 2, 3, 4):
        q_long = scale.q[lam]
        for N in (1, q_long - 1, q_long, q_long + 1, 997, 10**4 + 7):
            gaps = np.diff(np.nonzero(psi_range(scale, lam, N + 1) == 0)[0])
            n_long = int(np.count_nonzero(gaps == q_long))
            assert block_counts(lam, N, scale) == (n_long, len(gaps) - n_long)


def test_block_densities_degenerate_level():
    # golden level 1 has q_1 = q_0 = 1: every block has length one and the
    # length-based split attributes full density to the long kind
    scale = scale_for(GOLDEN, 10**4)
    dl, ds = block_densities(1, 10**3, scale)
    assert dl == 1.0 and ds == 0.0


def test_block_densities_cover_up_to_edge():
    # length-weighted block densities tile [0, N) except the trailing stub
    scale = scale_for(SILVER, 10**5)
    for lam in (1, 2, 3):
        dl, ds = block_densities(lam, 10**4, scale)
        covered = dl * scale.q[lam] + ds * scale.q[lam - 1]
        assert 1.0 - scale.q[lam] / 10**4 <= covered <= 1.0


# --- vectorized kernels ---------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS, ids=["golden", "silver", "p12", "p123114"])
def test_kernels_match_encode(spec):
    scale = scale_for(spec, 3000)
    count = 2500
    digits = [encode(n, scale) for n in range(count)]
    sig = sigma_range(scale, count)
    assert sig.tolist() == [d.sigma for d in digits]
    for lam in (0, 1, 2, 3, 5):
        ps = psi_range(scale, lam, count)
        assert ps.tolist() == [psi(n, lam, scale) for n in range(count)]
        hi = high_digit_sum_range(scale, lam, count)
        assert hi.tolist() == [
            sum(e for k, e in enumerate(d.digits) if k >= lam) for d in digits
        ]
    for k in (0, 1, 4):
        da = digit_at_range(scale, k, count)
        assert da.tolist() == [d.digit(k) for d in digits]
    # counts at the scale edges: the top level is chosen from count - 1
    edges = {0, 1} | {q + e for q in scale.q if q + 1 <= count for e in (-1, 0, 1)}
    for c in sorted(edges):
        top = max(bisect.bisect_right(scale.q, c - 1) - 1, 0)
        for lam in (0, 1, 2, 3, top, top + 1):
            assert psi_range(scale, lam, c).tolist() == [psi(n, lam, scale) for n in range(c)]
            assert digit_at_range(scale, lam, c).tolist() == [d.digit(lam) for d in digits[:c]]
            assert high_digit_sum_range(scale, lam, c).tolist() == [
                sum(d.digits[lam:]) for d in digits[:c]
            ]
        # above the top index no digit is peeled: psi = n and eps = 0
        assert psi_range(scale, top + 1, c).tolist() == list(range(c))
        assert digit_at_range(scale, top + 1, c).tolist() == [0] * c
        assert sigma_range(scale, c).tolist() == [d.sigma for d in digits[:c]]


@pytest.mark.parametrize("kernel, arrays", [
    (lambda scale, count: psi_range(scale, 3, count), 2),
    (lambda scale, count: digit_at_range(scale, 3, count), 2),
    (lambda scale, count: high_digit_sum_range(scale, 3, count), 3),
], ids=["psi_range", "digit_at_range", "high_digit_sum_range"])
def test_kernel_peak_memory(kernel, arrays):
    # the greedy pass splits the remainder in place: working memory is the
    # remainder and digit arrays (plus the running sum), no temporaries
    count = 10**6
    scale = scale_for(GOLDEN, count)
    tracemalloc.start()
    try:
        out = kernel(scale, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == count
    assert peak <= arrays * 8 * count + 64 * 1024


def test_psi_range_validation():
    scale = scale_for(GOLDEN, 100)
    with pytest.raises(ValidationError):
        psi_range(scale, -1, 10)
    with pytest.raises(RangeError):
        psi_range(scale, 2, scale.limit + 1)
