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
# kernels, the block-start table, values_range).  It is also the limb size of
# frac_mul_array: a multiplier below it is one limb, whose reduction keeps its
# one rounding; larger multipliers, up to 2**63, take more limbs.
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


_LIMB = 26
_LIMB_MASK = (1 << _LIMB) - 1


def _limb_terms(x: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact fractional parts of x * hi and x * lo for a limb x < 2**26.

    hi is c >= 0 with its low 27 stored mantissa bits cleared (the top 26
    significant bits of a normal c) and lo = c - hi holds at most 27 bits, so
    both products are exact in binary64, and so is y - floor(y) of each.
    """
    hi = (c.view(np.int64) & -(1 << 27)).view(np.float64)
    f = x * hi
    f -= np.floor(f)
    x = x * (c - hi)
    x -= np.floor(x)
    return f, x


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = fl(a + b) and e the exact rounding error a + b - s (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def frac_mul_array(m, beta) -> np.ndarray:
    """(m * beta) mod 1 for an int64 array of multipliers 0 <= m < 2**63.

    beta is a float, or a 1-d array of B floats for a (B,) + m.shape result
    whose rows equal the one-beta calls bit for bit.

    m splits into 26-bit limbs m_i, so m * beta = sum_i m_i * c_i mod 1 with
    c_0 = |beta| (0 when |beta| >= 2**52, an integer) and c_{i+1} the
    fractional part of 2**26 * (c_i mod 1), both exact.  Each c_i splits into
    hi, its top 26 significant bits, and lo = c_i - hi, the other 27
    (Dekker's split), so every m_i * hi and m_i * lo is exact in binary64, and
    so is each one's fractional part y - floor(y).  For m < 2**26 = RANGE_CAP
    the two fractional parts of limb 0 are added with one rounding.  Higher
    limbs add their parts through an error-free two-sum, and the rounding
    errors (limb 0's included) join in one last rounding, so the result lies
    within about 2**-53 of the exact value on the circle.  A negative beta
    mirrors the sum for |beta| to 1 - sum, and y - floor(y) brings either
    below 1; an entry that rounds to 1.0 wraps to 0.0.
    """
    m = np.asarray(m, dtype=np.int64)
    betas = np.asarray(beta, dtype=np.float64)
    if not np.isfinite(betas).all():
        raise ValidationError(f"phase argument {betas[~np.isfinite(betas)].flat[0]} is not finite")
    shape = betas.shape + (1,) * m.ndim
    b = np.abs(betas).reshape(shape)
    c = np.where(b < 2.0**52, b, 0.0)
    wide = m.size > 0 and int(m.max()) > _LIMB_MASK
    f, t = _limb_terms((m & _LIMB_MASK if wide else m).astype(np.float64), c)
    if wide:
        f, err = _two_sum(f, t)
        err = np.where(m > _LIMB_MASK, err, 0.0)  # an entry below 2**26 keeps its one rounding
        for shift in (_LIMB, 2 * _LIMB):
            c = np.ldexp(c - np.floor(c), _LIMB)
            c -= np.floor(c)
            for t in _limb_terms(((m >> shift) & _LIMB_MASK).astype(np.float64), c):
                f, e = _two_sum(f, t)
                err += e
        f -= np.floor(f)
        t = err
    f += t  # limb 0's one rounding, or the last one of the wide sum
    f *= np.copysign(1.0, betas).reshape(shape)
    f -= np.floor(f)
    f -= np.floor(f)  # 1 - sum may round up to 1.0
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
