"""Ostrowski digit expansions over a convergent scale.

Every n >= 0 below the scale's limit has a unique expansion
n = sum_k eps_k * q_k with 0 <= eps_0 < a_1, 0 <= eps_k <= a_{k+1}, and
eps_k = a_{k+1} forcing eps_{k-1} = 0.  This module provides the greedy
encoder/decoder, digit statistics (sigma, psi), the greedy range kernels,
and the block structure of the set {n : eps_0(n) = ... = eps_{lam-1}(n) = 0}.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .cfrac import ConvergentTable
from .errors import RangeError, ValidationError
from .numerics import check_size

LONG = "long"
SHORT = "short"


@dataclass(frozen=True)
class DigitString:
    """A legal Ostrowski digit vector, least-significant first, trailing zeros trimmed.

    Construction validates the digit constraints and raises ValidationError on
    a breach, so every DigitString in circulation is decodable.
    """

    digits: tuple[int, ...]
    scale: ConvergentTable

    def __post_init__(self):
        ds = tuple(int(e) for e in self.digits)
        while ds and ds[-1] == 0:
            ds = ds[:-1]
        object.__setattr__(self, "digits", ds)
        reason = _violation(ds, self.scale)
        if reason:
            raise ValidationError(reason)

    @classmethod
    def _trusted(cls, digits: tuple[int, ...], scale: ConvergentTable) -> DigitString:
        """Wrap digits already known to be legal and trimmed (encode's greedy output)."""
        d = object.__new__(cls)
        object.__setattr__(d, "digits", digits)
        object.__setattr__(d, "scale", scale)
        return d

    def digit(self, k: int) -> int:
        return self.digits[k] if k < len(self.digits) else 0

    @property
    def sigma(self) -> int:
        return sum(self.digits)


def _violation(digits: Sequence[int], scale: ConvergentTable) -> str | None:
    """Reason the digit array is illegal, or None if it is fine."""
    if len(digits) > scale.rows:
        return f"digit string has {len(digits)} positions, scale certifies {scale.rows}"
    for k, e in enumerate(digits):
        if e < 0:
            return f"negative digit at position {k}"
        bound = scale.digit_bound(k)
        if e > bound:
            return f"digit {e} at position {k} exceeds bound {bound}"
        if k >= 1 and e == bound and digits[k - 1] != 0:
            return f"maximal digit at position {k} needs a zero at position {k - 1}"
    return None


def validate(digits: Sequence[int], scale: ConvergentTable) -> bool:
    """True iff the array is a legal Ostrowski digit string for this scale."""
    try:
        ds = tuple(int(e) for e in digits)
    except (TypeError, ValueError):
        return False
    while ds and ds[-1] == 0:
        ds = ds[:-1]
    return _violation(ds, scale) is None


def encode(n: int, scale: ConvergentTable) -> DigitString:
    """Greedy Ostrowski expansion: split off the largest q_k at each step.

    When consecutive denominators tie (q_0 = q_1 = 1), the higher index wins,
    which is what keeps eps_0 < a_1.  The greedy digits are legal and their
    top digit is nonzero by construction, so they are wrapped unvalidated.
    """
    n = int(n)
    if n < 0 or n >= scale.limit:
        raise RangeError(f"n={n} outside [0, {scale.limit}) for this table")
    q = scale.q
    k = bisect.bisect_right(q, n) - 1
    digits = [0] * (k + 1)
    rem = n
    while rem:
        d = rem // q[k]
        digits[k] = d
        rem -= d * q[k]
        k -= 1
    return DigitString._trusted(tuple(digits), scale)


def decode(d: DigitString) -> int:
    """Value of a digit string; the inverse of encode on canonical strings."""
    return sum(e * qk for e, qk in zip(d.digits, d.scale.q))


def sigma(n: int, scale: ConvergentTable) -> int:
    """Digit sum of the Ostrowski expansion of n."""
    return encode(n, scale).sigma


def psi(n: int, lam: int, scale: ConvergentTable) -> int:
    """Truncation below level lam: sum_{k < lam} eps_k(n) q_k."""
    if lam < 0:
        raise ValidationError("lam must be >= 0")
    d = encode(n, scale)
    return sum(e * qk for e, qk in zip(d.digits[:lam], d.scale.q[:lam]))


@dataclass(frozen=True)
class BlockIndex:
    """Starts w_0 < w_1 < ... of the blocks at level lam, with per-gap kinds.

    kinds[i] tags the gap w_{i+1} - w_i: LONG for q_lam, SHORT for q_{lam-1}
    (a short gap occurs exactly when eps_lam(w_i) = a_{lam+1}).
    """

    lam: int
    starts: tuple[int, ...]
    kinds: tuple[str, ...]


def _block_table(
    lam: int, scale: ConvergentTable, count: int = 0, end: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Level-lam block starts in increasing order, with eps_lam of each (int64 arrays).

    The starts below q_lam and below q_{lam-1} are both {0}.  The starts
    below q_{i+1} are those below q_i shifted by b*q_i for each b < a_{i+1},
    then those below q_{i-1} shifted by a_{i+1}*q_i; at i = lam the shift
    sets eps_lam to b (or a_{lam+1}), above lam every copy inherits it.  The
    assembly stops at the first level holding `count` starts and reaching
    `end`, and never passes scale.limit (q_{K+1} when a_next is known); that
    last level keeps only the copies needed to reach both.  The start count
    follows c_{i+1} = a_{i+1}*c_i + c_{i-1}, so the size is known, and checked
    against RANGE_CAP, before any array exists.
    """
    if lam < 1:
        raise ValidationError("lam must be >= 1")
    scale.digit_bound(lam)  # RangeError if the table has no level lam
    q = scale.q
    bounds = (*q, scale.limit)  # starts below bounds[i]; q_{K+1} = limit when a_next is known
    top, c_prev, c = lam, 1, 1
    while (c < count or bounds[top] < end) and top < scale.rows:
        c_prev, c = c, scale.digit_bound(top) * c + c_prev
        top += 1
    if c < count:
        raise OverflowError(f"only {c} level-{lam} block starts lie below the table limit {scale.limit}")
    if bounds[top] < end:
        raise RangeError(f"end={end} beyond table limit {scale.limit}")
    copies = 0
    if top > lam:
        a = scale.digit_bound(top - 1)
        copies = min(a, max(-(-count // c_prev), -(-end // q[top - 1])))
        if copies < a:
            c = copies * c_prev  # the tail block (shifted by a*q_{top-1}) is dropped too
    check_size(c, f"level-{lam} block-start table")
    starts = prev_starts = np.zeros(1, dtype=np.int64)
    eps = prev_eps = np.zeros(1, dtype=np.int64)
    for i in range(lam, top):
        a = scale.digit_bound(i)
        b = np.arange(a if i < top - 1 else copies, dtype=np.int64)[:, None]
        step = int(i == lam)
        new_starts, new_eps = [(starts + b * q[i]).ravel()], [(eps + b * step).ravel()]
        if len(b) == a:
            new_starts.append(prev_starts + a * q[i])
            new_eps.append(prev_eps + a * step)
        prev_starts, starts = starts, np.concatenate(new_starts)
        prev_eps, eps = eps, np.concatenate(new_eps)
    return starts, eps


def w_sequence(lam: int, count: int, scale: ConvergentTable) -> BlockIndex:
    """First `count` members of {n : eps_k(n) = 0 for all k < lam}, with gap kinds.

    Read off the level-lam block-start table (_block_table); a gap is SHORT
    iff eps_lam of its start is a_{lam+1}.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    starts, eps = _block_table(lam, scale, count=count)
    short = (eps[: count - 1] == scale.digit_bound(lam)).tolist()
    return BlockIndex(lam, tuple(starts[:count].tolist()),
                      tuple(SHORT if s else LONG for s in short))


def block_counts(lam: int, N: int, scale: ConvergentTable) -> tuple[int, int]:
    """Counts (a, b) of long and short gaps among blocks fully inside [0, N).

    Each start w < N from the block-start table ends its block at
    w + q_{lam-1} when eps_lam(w) = a_{lam+1} and at w + q_lam otherwise.
    Gaps are classified by their length; in the degenerate case
    q_lam = q_{lam-1} (lam = 1, a_1 = 1) every gap counts as long.
    Satisfies |a*q_lam + b*q_{lam-1} - N| <= q_lam.
    """
    starts, eps = _block_table(lam, scale, end=N)
    q_long = scale.q[lam]
    gaps = np.where(eps == scale.digit_bound(lam), scale.q[lam - 1], q_long)
    inside = starts + gaps <= N
    a = int(np.count_nonzero(gaps[inside] == q_long))
    return a, int(np.count_nonzero(inside)) - a


# --- vectorized per-n greedy kernels ---------------------------------------
#
# These run the same greedy reduction as encode, but over a whole range of n
# at once.  They are the throughput path for the harness and the reference
# path for differential tests (bit-for-bit the per-n semantics, since the
# arithmetic is identical integer arithmetic).


def _walk(
    scale: ConvergentTable, stop: int, lo: int, start: int = 0
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The greedy level walk over n in [start, stop): yields (k, eps_k * q_k, psi_k) per level.

    Levels run from the top index of stop - 1 down to lo; above the top
    index no digit is peeled and psi_k = n, and no level is yielded there.
    The remainder is reduced in place and the digit buffer holds eps_k * q_k
    (floor_divide by a scalar has a fast path that np.divmod lacks), so both
    yielded arrays are the walk's working buffers: a consumer may change the
    digit buffer, which the next level overwrites, but not the remainder.
    They are int32 lanes when stop <= 2**31 - 1, where every q_k walked and
    every remainder fits, and int64 otherwise.
    """
    if stop < start:
        raise RangeError(f"count={stop - start} is negative")
    if stop > scale.limit:
        raise RangeError(f"count={stop} beyond table limit {scale.limit}")
    check_size(stop - start, "greedy digit pass")
    rem = np.arange(start, stop, dtype=np.int32 if stop <= np.iinfo(np.int32).max else np.int64)
    d = np.empty_like(rem)
    q = scale.q
    for k in range(max(bisect.bisect_right(q, stop - 1) - 1, 0), lo - 1, -1):
        np.floor_divide(rem, q[k], out=d)
        d *= q[k]
        rem -= d
        yield k, d, rem


def _greedy(
    scale: ConvergentTable, stop: int, lo: int, digit_sum: bool = False, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Top-down greedy reduction of n in [start, stop) from the top index of stop - 1 to level lo.

    Returns the arrays (eps_lo, psi_lo), or (sum_{k >= lo} eps_k, psi_lo)
    with digit_sum, in the walk's lanes (int32 when stop <= 2**31 - 1); with
    no level between the top index of stop - 1 and lo they are the int64
    arrays (0, n).  The working memory is the walk's two arrays, plus the
    running sum with digit_sum.
    """
    q = scale.q
    total = rem = None
    for k, d, rem in _walk(scale, stop, lo, start):
        if digit_sum:
            d //= q[k]
            if total is None:
                total = d.copy()
            else:
                total += d
    if rem is None:
        rem = np.arange(start, stop, dtype=np.int64)
        return np.zeros_like(rem), rem
    if not digit_sum:
        d //= q[lo]
        total = d
    return total, rem


def psi_range(scale: ConvergentTable, lam: int, count: int) -> np.ndarray:
    """psi_lam(n) for n = 0..count-1 (int64): the remainder once digits >= lam are peeled."""
    if lam < 0:
        raise ValidationError("lam must be >= 0")
    return _greedy(scale, count, lam)[1].astype(np.int64, copy=False)


def sigma_range(scale: ConvergentTable, count: int) -> np.ndarray:
    """sigma(n) for n = 0..count-1 (int64)."""
    return _greedy(scale, count, 0, digit_sum=True)[0].astype(np.int64, copy=False)
