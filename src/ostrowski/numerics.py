"""Reproducible floating-point kernels: pairwise summation and exact phase reduction.

Every estimator in the package funnels its big sums through pairwise_sum
(numpy's pairwise add.reduce, returned as a Python scalar) and its phases
through one route: frac_mul_array reduces m * beta mod 1 exactly for any
integer multiplier, to a value in [0, 1), and unit maps it to the circle,
exactly at quarter turns.  So repeated runs (and differential tests between
independent code paths) agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapError, ValidationError

# Largest array any range routine allocates (the greedy digit kernels, the
# block-start table, values_range and the dense exponential sum on it).  It
# is also the limb size of frac_mul_array: a multiplier below it is one limb,
# whose reduction keeps its one rounding; larger multipliers take more limbs.
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
    """(m * beta) mod 1 for an array of integer multipliers m >= 0.

    m is an integer array of any width: int64, uint64, or an object array of
    Python ints for multipliers past 2**64.  A negative or non-integer
    multiplier is refused (ValidationError), and so is a float array, which
    is what numpy makes of a list of ints that mixes 2**63 and smaller ones.
    beta is a float, or a 1-d array of B floats for a (B,) + m.shape result
    whose rows equal the one-beta calls bit for bit.

    m splits into 26-bit limbs m_i, as many as its largest entry needs, so
    m * beta = sum_i m_i * c_i mod 1 with c_0 = |beta| (0 when
    |beta| >= 2**52, an integer) and c_{i+1} the fractional part of
    2**26 * (c_i mod 1), both exact.  Each c_i splits into hi, its top 26
    significant bits, and lo = c_i - hi, the other 27 (Dekker's split), so
    every m_i * hi and m_i * lo is exact in binary64, and so is each one's
    fractional part y - floor(y).  For m < 2**26 = RANGE_CAP the two
    fractional parts of limb 0 are added with one rounding.  Higher limbs add
    their parts through an error-free two-sum, and the rounding errors (limb
    0's included) join in one last rounding, so the result lies within about
    2**-53 of the exact value on the circle.  A negative beta mirrors the sum
    for |beta| to 1 - sum, and y - floor(y) brings either below 1; an entry
    that rounds to 1.0 wraps to 0.0.
    """
    m = np.asarray(m)
    if m.dtype.kind not in "iuO" or (
        m.dtype.kind == "O" and not all(isinstance(v, (int, np.integer)) for v in m.flat)
    ):
        raise ValidationError(f"phase multipliers must be integers, not {m.dtype}")
    if m.size and m.min() < 0:
        raise ValidationError(f"phase multiplier {m.min()} is negative")
    betas = np.asarray(beta, dtype=np.float64)
    if not np.isfinite(betas).all():
        raise ValidationError(f"phase argument {betas[~np.isfinite(betas)].flat[0]} is not finite")
    shape = betas.shape + (1,) * m.ndim
    b = np.abs(betas).reshape(shape)
    c = np.where(b < 2.0**52, b, 0.0)
    width = int(m.max()).bit_length() if m.size else 0
    f, t = _limb_terms((m & _LIMB_MASK if width > _LIMB else m).astype(np.float64), c)
    if width > _LIMB:
        f, err = _two_sum(f, t)
        err = np.where(m > _LIMB_MASK, err, 0.0)  # an entry below 2**26 keeps its one rounding
        for shift in range(_LIMB, width, _LIMB):
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


_QUARTER_TURNS = np.array([1, 1j, -1, -1j], dtype=np.complex128)


def unit(phases) -> np.ndarray:
    """e(x) = exp(2*pi*i*x), elementwise, exact at quarter turns.

    A phase that is a multiple of 1/4, of any sign and size, maps to exactly
    1, i, -1 or -i, where exp leaves a rounding residue (e(1/2) would be
    -1 + 1.2e-16i).  So digit-parity atom tables (theta a multiple of 1/4),
    their twists by such a beta and the roots of unity of a modulus
    divisible by 4 hold Gaussian integers, and the arithmetic built on them
    runs in exact integers.
    """
    x = np.asarray(phases, dtype=np.float64)
    flat = x.ravel()
    out = np.exp((2j * math.pi) * flat)
    turns = 4.0 * flat
    hit = np.rint(turns) == turns
    hit &= turns != 0.0  # e(0) is exactly 1 already
    at = np.flatnonzero(hit)
    if at.size:
        k = np.fmod(turns[at], 4.0)  # in (-4, 4), nan for an infinite phase
        finite = k == k
        # a negative index counts from the end: i**-1 = -i
        out[at[finite]] = _QUARTER_TURNS[k[finite].astype(np.intp)]
    return out.reshape(x.shape)
