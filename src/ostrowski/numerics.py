"""Reproducible floating-point kernels: pairwise summation and exact phase reduction.

Every estimator in the package funnels its big sums through pairwise_sum
(numpy's pairwise add.reduce, returned as a Python scalar) and its phases
through the frac_mul_* routines, so repeated runs (and differential tests
between independent code paths) agree bit for bit.  Every phase reduction
returns values in [0, 1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapError, ValidationError

# Largest array any range routine allocates (frac_mul_range, the greedy digit
# kernels, the block-start table, values_range); beyond this the binary64
# split products of frac_mul_array would stop being exact.
RANGE_CAP = 1 << 26


def check_size(count: int, what: str) -> None:
    """CapError when `what` would need more than RANGE_CAP entries; call before allocating."""
    if count > RANGE_CAP:
        raise CapError(f"{what} needs {count} entries, past the cap {RANGE_CAP}")


def pairwise_sum(values) -> complex:
    """Sum a 1-d array through numpy's pairwise add.reduce, error O(eps log n).

    The result is a Python scalar, so dividing it by an int N rounds each
    part on its own as CPython does; numpy's complex division would multiply
    by the reciprocal instead, and the levels-exact correlation route relies
    on matching the former bit for bit.
    """
    return np.asarray(values).sum().item()


def _dyadic(x: float) -> tuple[int, int]:
    """Write the float x exactly as b * 2**-s with integer b (ValidationError unless finite)."""
    if not math.isfinite(x):
        raise ValidationError(f"phase argument {x} is not finite")
    mant, exp = math.frexp(x)
    return int(mant * (1 << 53)), 53 - exp


def frac_mul_int(m: int, beta: float) -> float:
    """(m * beta) mod 1 in [0, 1) for an integer m >= 0, exact up to one final rounding.

    The rounding is to nearest; a value within 2**-54 below 1 would round to
    1.0, the same point of the circle as 0.0, and comes back as 0.0.

    Naive float evaluation loses the fractional part entirely once
    m * beta ~ 2**53; going through the dyadic representation of beta keeps
    the reduction exact for any integer m (Python bigints carry the product).
    """
    if m == 0 or beta == 0.0:
        return 0.0
    b, s = _dyadic(beta)
    if s <= 0:
        return 0.0  # beta is an integer scaled by a nonnegative power of two
    f = ((m * b) % (1 << s)) / (1 << s)
    return 0.0 if f == 1.0 else f


def frac_mul_range(count: int, beta: float) -> np.ndarray:
    """(n * beta) mod 1 for n = 0..count-1, each entry exact up to ~2**-52."""
    check_size(count, "frac_mul_range")
    return frac_mul_array(np.arange(max(count, 0), dtype=np.int64), beta)


def frac_mul_array(m: np.ndarray, beta: float) -> np.ndarray:
    """(m * beta) mod 1 for an int64 array of multipliers 0 <= m <= RANGE_CAP.

    |beta| splits into hi, its top 26 mantissa bits, and lo = |beta| - hi,
    the other 27 (Dekker's split).  For m <= RANGE_CAP = 2**26 both m * hi
    and m * lo are exact in binary64, and so is each one's fractional part
    y - floor(y); their sum lies in [0, 2) and is the one rounding step, and
    a single wrap brings it below 1.  A negative beta mirrors the result for
    |beta|, where an entry that rounds to 1.0 wraps to 0.0.  Callers keep the
    multipliers in range; past RANGE_CAP the products round.
    """
    b, s = _dyadic(abs(beta))
    if s <= 0:
        return np.zeros(m.shape)  # |beta| >= 2**52 is an integer
    hi = math.ldexp(b >> 27, 27 - s)
    x = m.astype(np.float64)
    f = x * hi
    f -= np.floor(f)
    x *= abs(beta) - hi
    x -= np.floor(x)
    f += x
    f -= f >= 1.0
    if beta < 0:
        f = 1.0 - f
        f -= f >= 1.0
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
