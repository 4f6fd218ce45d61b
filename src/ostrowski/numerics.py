"""Reproducible floating-point kernels: tree summation and exact phase reduction.

Every estimator in the package funnels its big sums through pairwise_sum and
its phases through the frac_mul_* routines, so repeated runs (and differential
tests between independent code paths) agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapError, ValidationError

# Largest array any range routine allocates (frac_mul_range, the greedy digit
# kernels, the block-start table, values_range); beyond this the int64 split
# products of frac_mul_array would stop being exact.
RANGE_CAP = 1 << 26


def check_size(count: int, what: str) -> None:
    """CapError when `what` would need more than RANGE_CAP entries; call before allocating."""
    if count > RANGE_CAP:
        raise CapError(f"{what} needs {count} entries, past the cap {RANGE_CAP}")


def pairwise_sum(values) -> complex:
    """Sum a 1-d array by repeatedly adding adjacent pairs.

    The reduction tree is fixed by the input length alone (an odd trailing
    element is promoted to the next level unchanged), so results are
    reproducible, and a partitioned run can match them exactly by aligning
    its partition boundaries with tree nodes.
    """
    buf = np.asarray(values)
    if buf.size == 0:
        return 0j
    while buf.size > 1:
        m = buf.size // 2
        nxt = buf[0 : 2 * m : 2] + buf[1 : 2 * m : 2]
        if buf.size & 1:
            nxt = np.concatenate([nxt, buf[-1:]])
        buf = nxt
    return buf[0].item()


def _dyadic(x: float) -> tuple[int, int]:
    """Write the float x exactly as b * 2**-s with integer b (ValidationError unless finite)."""
    if not math.isfinite(x):
        raise ValidationError(f"phase argument {x} is not finite")
    mant, exp = math.frexp(x)
    return int(mant * (1 << 53)), 53 - exp


def frac_mul_int(m: int, beta: float) -> float:
    """(m * beta) mod 1 for an integer m >= 0, exact up to one final rounding.

    Naive float evaluation loses the fractional part entirely once
    m * beta ~ 2**53; going through the dyadic representation of beta keeps
    the reduction exact for any integer m (Python bigints carry the product).
    """
    if m == 0 or beta == 0.0:
        return 0.0
    b, s = _dyadic(beta)
    if s <= 0:
        return 0.0  # beta is an integer scaled by a nonnegative power of two
    return ((m * b) % (1 << s)) / (1 << s)


def frac_mul_range(count: int, beta: float) -> np.ndarray:
    """(n * beta) mod 1 for n = 0..count-1, each entry exact up to ~2**-52."""
    check_size(count, "frac_mul_range")
    return frac_mul_array(np.arange(max(count, 0), dtype=np.int64), beta)


def frac_mul_array(m: np.ndarray, beta: float) -> np.ndarray:
    """(m * beta) mod 1 for an int64 array of multipliers 0 <= m <= RANGE_CAP.

    Same reduction as frac_mul_int but vectorized: beta = b * 2**-s exactly,
    b is split into 27-bit halves so every intermediate product stays exact
    in int64, and the two fractional contributions are recombined in binary64.
    Callers keep the multipliers in range; past RANGE_CAP the products wrap.
    """
    if m.size == 0 or beta == 0.0:
        return np.zeros(m.shape)
    b, s = _dyadic(beta)
    if s <= 0:
        return np.zeros(m.shape)
    if s > 79:
        # |beta| < 2**-26 and m <= 2**26, so m*beta never wraps past 1.
        return np.mod(m.astype(np.float64) * beta, 1.0)
    neg = b < 0
    b = abs(b)
    hi = m * (b >> 27)             # <= 2**52, exact
    lo = m * (b & ((1 << 27) - 1))  # <= 2**53, exact
    if s <= 27:
        # hi * 2**(27-s) is an integer, only lo contributes a fraction
        f = (lo & ((1 << s) - 1)).astype(np.float64) * 2.0**-s
    else:
        f1 = (hi & ((1 << (s - 27)) - 1)).astype(np.float64) * 2.0 ** (27 - s)
        if s <= 53:
            f2 = (lo & ((1 << s) - 1)).astype(np.float64) * 2.0**-s
        else:
            f2 = lo.astype(np.float64) * 2.0**-s  # lo < 2**s already
        f = f1 + f2
        # f1 + f2 < 2 exactly, but the binary64 sum can round up to 2.0 when
        # s > 53; two wrap passes keep the result inside [0, 1).
        f = np.where(f >= 1.0, f - 1.0, f)
        f = np.where(f >= 1.0, f - 1.0, f)
    if neg:
        f = np.where(f > 0.0, 1.0 - f, 0.0)
    return f


def unit(phases) -> np.ndarray:
    """e(x) = exp(2*pi*i*x), elementwise."""
    return np.exp((2j * math.pi) * np.asarray(phases, dtype=np.float64))


def unit1(phase: float) -> complex:
    """Scalar e(x), exact at quarter turns.

    Phases that are multiples of 1/4 map to 1, i, -1, -i without rounding, so
    digit-parity atom tables (theta a dyadic rational down to 1/4) stay exact
    and the arithmetic built on them runs in exact integers.
    """
    m = 4.0 * phase
    if m == round(m):
        return (1 + 0j, 1j, -1 + 0j, -1j)[int(m) % 4]
    return complex(np.exp(2j * math.pi * phase))
