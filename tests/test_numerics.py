"""Pairwise summation and exact phase reduction.

Oracles: math.fsum for summation accuracy and fractions.Fraction for the
modular phase arithmetic (operating on the exact binary value of each float).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ostrowski import GOLDEN, SILVER, expand_max, exponential_sum, from_theta
from ostrowski.errors import CapError, ValidationError
from ostrowski.numerics import RANGE_CAP, frac_mul_array, pairwise_sum, unit


# --- pairwise summation -----------------------------------------------------------

def test_pairwise_sum_small_cases():
    assert pairwise_sum([]) == 0j
    assert pairwise_sum([3.0]) == 3.0
    assert pairwise_sum([1.0, 2.0, 3.0]) == 6.0
    assert pairwise_sum([1 + 2j, 3 - 1j]) == 4 + 1j


def test_pairwise_sum_is_deterministic_and_accurate():
    rng = np.random.default_rng(13)
    for size in (10, 1000, 65537):
        x = rng.standard_normal(size)
        first = pairwise_sum(x)
        assert pairwise_sum(x) == first
        assert abs(first - math.fsum(x)) < 1e-9 * max(1.0, float(np.abs(x).sum()))


def test_pairwise_sum_exact_on_integers():
    rng = np.random.default_rng(17)
    x = rng.integers(-1000, 1000, size=10001).astype(np.float64)
    assert pairwise_sum(x) == math.fsum(x)  # all intermediate sums are exact


def test_pairwise_sum_returns_a_python_scalar():
    # complex / int in CPython divides each part by N; numpy's complex
    # division multiplies by the reciprocal, which the levels-exact route's
    # bit-for-bit match with the pairwise route cannot absorb
    assert type(pairwise_sum(np.array([1 + 2j, 3 - 1j]))) is complex
    assert type(pairwise_sum(np.array([1.5, 2.0]))) is float
    assert type(pairwise_sum(np.zeros(0))) is float
    z = pairwise_sum(np.full(7, 1 + 1j))
    assert z / 3 == complex(7 / 3, 7 / 3)


def test_pairwise_sum_accurate_on_strided_and_long_inputs():
    rng = np.random.default_rng(19)
    x = rng.standard_normal(30001)
    view = x[::3]
    assert abs(pairwise_sum(view) - math.fsum(view)) < 1e-9 * float(np.abs(view).sum())
    z = np.exp(2j * np.pi * rng.random(1 << 20))
    got = pairwise_sum(z)
    bound = 1e-9 * float(np.abs(z).sum())
    assert abs(got.real - math.fsum(z.real)) < bound
    assert abs(got.imag - math.fsum(z.imag)) < bound


# --- phase reduction of single integers and of ranges -------------------------------
#
# The frac_mul_int tests reduce one Python int per call, of any size; the
# frac_mul_range tests the range 0..count-1.  Both go through frac_mul_array
# and are checked against Fraction.

def circle_gap(got: float, beta: float, m: int) -> Fraction:
    """Distance on the circle between got and the exact (m * beta) mod 1."""
    d = abs(Fraction(got) - (Fraction(beta) * m) % 1)
    return min(d, 1 - d)


def reduction_bound(beta: float) -> Fraction:
    """frac_mul_array's documented bound: 2**-53, plus the mirror's 2**-54 for a negative beta.

    2**-100 covers the rounding of the collected two-sum errors.
    """
    return (Fraction(3, 2) if beta < 0 else 1) * Fraction(2) ** -53 + Fraction(2) ** -100


@pytest.mark.parametrize("beta", [0.5, 1 / 3, 0.1234567, 0.7234, -0.3, 2.75, 1e-9, 123.0])
def test_frac_mul_int_matches_rational_oracle(beta):
    for m in (0, 1, 7, 12345, 2**40 + 17, 2**62 + 3, 2**63, 2**64 + 5, 10**30):
        (got,) = frac_mul_array([m], beta)
        assert 0.0 <= got < 1.0
        assert circle_gap(float(got), beta, m) <= reduction_bound(beta), (m, beta)


def test_frac_mul_int_wraps_a_rounded_one_to_zero():
    # both exact fractions lie within 2**-54 below 1
    assert frac_mul_array([1], -1e-20).tolist() == [0.0]
    assert frac_mul_array([2**62 + 3], 1 / 3).tolist() == [0.0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
       m=st.integers(0, 2**64))
@example(beta=-1e-20, m=1)
@example(beta=1 / 3, m=2**62 + 3)
def test_frac_mul_int_property_in_unit_interval(beta, m):
    (got,) = frac_mul_array([m], beta)
    assert 0.0 <= got < 1.0
    assert circle_gap(float(got), beta, m) <= Fraction(2) ** -52


def test_frac_mul_int_survives_magnitude():
    # the naive product would have no fractional bits left at this size;
    # eight 26-bit limbs carry it exactly
    beta = 0.1234567
    m = 2**200 + 12345
    (got,) = frac_mul_array([m], beta)
    assert circle_gap(float(got), beta, m) <= reduction_bound(beta)


@pytest.mark.parametrize("beta", [0.5, 0.75, 0.015625, 2.75, 1.0, 0.0, -0.25])
def test_frac_mul_range_matches_scalar_exactly(beta):
    # dyadic beta: every fractional part is a multiple of 2**-52, so the
    # reduction is exact end to end
    got = frac_mul_array(np.arange(3000), beta)
    want = np.array([float((Fraction(beta) * n) % 1) for n in range(3000)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("beta", [1 / 3, 0.1234567, 0.7234, -0.3, -0.9999999])
def test_frac_mul_range_near_scalar(beta):
    # generic beta: the split sum may round the last bit away from the
    # correctly rounded value, so compare as points on the circle
    got = frac_mul_array(np.arange(3000), beta)
    assert np.all(got >= 0.0) and np.all(got < 1.0)
    assert max(circle_gap(float(f), beta, n) for n, f in enumerate(got)) <= Fraction(2) ** -52


def test_frac_mul_range_tiny_beta():
    # |beta| below 2**-26 uses the direct product, exact to an ulp
    beta = 2.0**-30 * 1.37
    got = frac_mul_array(np.arange(2000), beta)
    want = np.array([float((Fraction(beta) * n) % 1) for n in range(2000)])
    assert np.max(np.abs(got - want)) < 2**-52


@pytest.mark.parametrize("beta", [0.5, 0.015625, -0.25, 1 / 3, 0.1234567, -0.9999999, 2.0**-30])
def test_frac_mul_array_matches_rational_oracle_up_to_the_cap(beta):
    # scattered multipliers up to RANGE_CAP itself, the largest the spectrum
    # scan's digit route passes (b * q_k <= N - 1 < RANGE_CAP)
    rng = np.random.default_rng(41)
    m = np.concatenate([[0, 1, RANGE_CAP - 1, RANGE_CAP], rng.integers(0, RANGE_CAP, 200)])
    got = frac_mul_array(m.astype(np.int64), beta)
    want = np.array([float((Fraction(beta) * int(k)) % 1) for k in m])
    assert np.all(got >= 0.0) and np.all(got < 1.0)
    d = np.abs(got - want)
    assert np.max(np.minimum(d, 1.0 - d)) <= 2.0**-52


WIDE = [RANGE_CAP, RANGE_CAP + 1, 2**52 - 1, 2**52, 3 * 2**52 + 12345, 2**62, 2**63 - 1]


@pytest.mark.parametrize("beta", [0.5, 0.015625, -0.25, 1 / 3, 0.1234567, -0.9999999, 2.0**-30,
                                  -1e-20, 5e-324, 1e300, 0.7234])
def test_frac_mul_array_matches_rational_oracle_past_the_cap(beta):
    # 26-bit limbs: multipliers up to 2**63 - 1 land within 2**-53 (plus the
    # mirror's 2**-54 for a negative beta) of the exact value on the circle;
    # 2**-100 covers the rounding of the collected two-sum errors
    rng = np.random.default_rng(43)
    m = np.array(WIDE + rng.integers(0, 2**63 - 1, 200, dtype=np.int64).tolist(), dtype=np.int64)
    got = frac_mul_array(m, beta)
    assert np.all(got >= 0.0) and np.all(got < 1.0)
    assert max(circle_gap(float(f), beta, int(k)) for f, k in zip(got, m)) <= reduction_bound(beta)


BATCH_BETAS = [0.5, 0.75, 0.015625, 2.75, 1.0, 0.0, -0.0, -0.25, 1 / 3, 0.1234567, 0.7234, -0.3,
               -0.9999999, 2.0**-30, -1e-20, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 2.0**60]


@pytest.mark.parametrize("top", [RANGE_CAP - 1, 2**63 - 1])
def test_frac_mul_array_rows_equal_the_one_beta_calls(top):
    # one row per beta, each bit for bit the scalar call, whether the
    # multipliers stay in limb 0 or spread over all three limbs
    rng = np.random.default_rng(47)
    m = np.concatenate([[0, 1, top], rng.integers(0, top, 300, dtype=np.int64)]).reshape(3, -1)
    rows = frac_mul_array(m, np.array(BATCH_BETAS))
    assert rows.shape == (len(BATCH_BETAS),) + m.shape
    for beta, row in zip(BATCH_BETAS, rows):
        assert np.array_equal(row, frac_mul_array(m, beta)), beta


def test_frac_mul_array_is_bit_equal_below_the_cap_however_wide_the_call():
    # an entry below 2**26 keeps the one rounding of limb 0 when a wider
    # multiplier shares its call
    m = np.random.default_rng(53).integers(0, RANGE_CAP, 500)
    for beta in BATCH_BETAS:
        wide = frac_mul_array(np.append(m, 2**63 - 1), beta)[:-1]
        assert np.array_equal(wide, frac_mul_array(m, beta)), beta


def test_frac_mul_array_refuses_non_finite_betas():
    with pytest.raises(ValidationError, match="not finite"):
        frac_mul_array(np.arange(4), np.array([0.5, float("nan")]))


@pytest.mark.parametrize("beta", [0.3, -0.3, 1 / 3, 0.1234567, -0.9999999, 0.5, 2.0**-30])
def test_frac_mul_array_reduces_multipliers_past_2_63(beta):
    # a uint64 array holds multipliers up to 2**64 - 1, an object array any
    # Python int: both take as many limbs as they need, and agree with each
    # other and with Fraction.  The silver top row reaches 2 * q_K > 2**63.
    scale = expand_max(SILVER)
    top = [e * scale.q[-1] for e in range(scale.a_next + 1)]
    assert top[-1] > 2**63
    wide = [2**63, 2**63 + 1, 2**64 - 1] + top
    wider = wide + [2**64, 3 * 2**70 + 7]
    as_uint = frac_mul_array(np.array(wide, dtype=np.uint64), beta)
    as_int = frac_mul_array(np.array(wider, dtype=object), beta)
    assert np.array_equal(as_uint, as_int[: len(wide)])
    assert max(circle_gap(float(f), beta, k) for f, k in zip(as_int, wider)) <= reduction_bound(beta)
    # entries that fit int64 reduce the same whichever dtype carries them
    small = np.array([0, 1, RANGE_CAP, 2**63 - 1])
    assert np.array_equal(frac_mul_array(small.astype(np.uint64), beta), frac_mul_array(small, beta))
    assert np.array_equal(frac_mul_array(small.astype(object), beta), frac_mul_array(small, beta))


def test_frac_mul_array_refuses_what_it_cannot_reduce():
    with pytest.raises(ValidationError, match="negative"):
        frac_mul_array(np.array([3, -1]), 0.25)
    with pytest.raises(ValidationError, match="negative"):
        frac_mul_array(np.array([2**70, -1], dtype=object), 0.25)
    # numpy turns a list mixing 2**63 and smaller ints into floats
    with pytest.raises(ValidationError, match="integers"):
        frac_mul_array([0, 2**63], 0.25)
    with pytest.raises(ValidationError, match="integers"):
        frac_mul_array(np.array([1, 0.5], dtype=object), 0.25)
    with pytest.raises(ValidationError, match="integers"):
        frac_mul_array(np.array([True]), 0.25)


multipliers = st.lists(st.one_of(st.integers(0, RANGE_CAP), st.integers(0, 2**63 - 1)),
                       min_size=1, max_size=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(-1e300, 1e300, allow_subnormal=True), m=multipliers)
@example(beta=-1e-20, m=[1, 2, 3])
@example(beta=-5e-324, m=[0, RANGE_CAP])
@example(beta=2.0**60, m=[RANGE_CAP - 1])
@example(beta=-0.1234567, m=[2**63 - 1, RANGE_CAP, 1])
def test_frac_mul_array_property_any_finite_beta(beta, m):
    got = frac_mul_array(np.array(m, dtype=np.int64), beta)
    assert np.all(got >= 0.0) and np.all(got < 1.0)
    assert max(circle_gap(float(f), beta, k) for f, k in zip(got, m)) <= Fraction(2) ** -52


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(j=st.integers(-(2**53), 2**53), t=st.integers(0, 52), m=multipliers)
def test_frac_mul_array_property_dyadic_beta_is_exact(j, t, m):
    # beta = j / 2**t: every fractional part is a multiple of 2**-52, so
    # the reduction is exact and equals the rational one bit for bit
    beta = j / 2**t
    got = frac_mul_array(np.array(m, dtype=np.int64), beta)
    assert np.all(got >= 0.0) and np.all(got < 1.0)
    assert got.tolist() == [float((Fraction(beta) * k) % 1) for k in m]


def test_frac_mul_range_cap():
    # the dense phase range is exponential_sum's, capped by its value block
    # before anything is allocated; an empty range reduces to nothing
    scale = expand_max(GOLDEN)
    with pytest.raises(CapError):
        exponential_sum(from_theta(0.5, scale), 0.25, RANGE_CAP + 1)
    assert len(frac_mul_array(np.arange(0), 0.5)) == 0


# --- unit circle ---------------------------------------------------------------------
#
# The unit1 tests check unit on one phase at a time.

def test_unit1_quarter_turns_are_exact():
    assert unit(0.0) == 1 + 0j
    assert unit(0.25) == 1j
    assert unit(0.5) == -1 + 0j
    assert unit(0.75) == -1j
    assert unit(-0.25) == -1j
    assert unit(1.5) == -1 + 0j


def test_unit_quarter_turns_are_exact_at_any_sign_and_size():
    k = np.concatenate([np.arange(-4000, 4001), [2**40 + 1, -(2**40) - 3, 2**53, -(2**60) - 4]])
    want = np.array([1, 1j, -1, -1j])[k % 4]
    assert np.array_equal(unit(k / 4), want)
    assert np.array_equal(unit(np.array([1e300, -1e300, 2.0**1000])), np.ones(3))
    # off the quarter turns nothing is snapped
    assert unit(0.25 + 2.0**-54) != 1j
    assert np.isnan(unit(np.array([np.nan]))).all()


def test_unit_matches_unit1():
    # off the quarter turns an array call is exp of each phase, bit for bit
    phases = [0.1, 0.3333333333, 0.99, 0.625]
    arr = unit(phases)
    for x, got in zip(phases, arr):
        assert got == unit(x) == complex(np.exp(2j * np.pi * x))
