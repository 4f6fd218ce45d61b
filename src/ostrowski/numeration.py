"""Ostrowski digit expansions over a convergent scale.

Every n >= 0 below the scale's limit has a unique expansion
n = sum_k eps_k * q_k with 0 <= eps_0 < a_1, 0 <= eps_k <= a_{k+1}, and
eps_k = a_{k+1} forcing eps_{k-1} = 0.  This module provides the greedy
encoder/decoder, digit statistics (sigma, psi), the per-n range tables,
and the block structure of the set {n : eps_0(n) = ... = eps_{lam-1}(n) = 0}.
One level-copy kernel (_level_table) fills the range tables (psi_range,
sigma_range, alphafun.values_range) from the prefix already written, since
[0, q_{i+1}) is a_{i+1} copies of [0, q_i) and one of [0, q_{i-1}).  The
verify oracles read one greedy walk (_walk), which yields only the levels
its reader asks for.  It peels the levels above them off the whole
range first, as a few contiguous runs of remainders (at most
WALK_TILE // 16), since a range stays such runs until its levels cut it at
multiples of q_k.  It takes the rest of the levels in tiles of WALK_TILE
points, so that its buffers stay in cache.  Its working memory is four
tile-sized buffers and the capped run arrays, however long the range.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .cfrac import Q_MAX, ConvergentTable
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
        DigitString(digits, scale)
    except (TypeError, ValueError):  # ValidationError is a ValueError
        return False
    return True


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


def _block_table(lam: int, scale: ConvergentTable, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-lam block starts in increasing order, with eps_lam of each (int64 arrays).

    The starts below q_lam and below q_{lam-1} are both {0}.  The starts
    below q_{i+1} are those below q_i shifted by b*q_i for each b < a_{i+1},
    then those below q_{i-1} shifted by a_{i+1}*q_i; at i = lam the shift
    sets eps_lam to b (or a_{lam+1}), above lam every copy inherits it.  The
    assembly stops at the first level holding `count` starts, and never
    passes scale.limit (q_{K+1} when a_next is known); that last level keeps
    only the copies needed to reach `count`.  Fewer than `count` starts below
    the limit raise RangeError.  The start count c_{i+1} = a_{i+1}*c_i + c_{i-1}
    is checked against RANGE_CAP, and the largest start
    m_{i+1} = a_{i+1}*q_i + m_{i-1} against Q_MAX (RangeError), before both
    arrays are allocated at once, as the two rows of one table.  Every copy
    reads a prefix already written, so copy b = 0 is never made, and the
    copies of a level double: copies d..2d-1 are copies 0..d-1 shifted by
    d*q_i, so a level takes O(log a_{i+1}) array operations.
    """
    if lam < 1:
        raise ValidationError("lam must be >= 1")
    scale.digit_bound(lam)  # RangeError if the table has no level lam
    q = scale.q
    top, c_prev, c, m_prev, m = lam, 1, 1, 0, 0
    while c < count and top < scale.rows:
        a = scale.digit_bound(top)
        c_prev, c = c, a * c + c_prev
        m_prev, m = m, a * q[top] + m_prev
        top += 1
    if c < count:
        raise RangeError(f"only {c} level-{lam} block starts lie below the table limit {scale.limit}")
    if top > lam:
        a = scale.digit_bound(top - 1)
        copies = min(a, -(-count // c_prev))
        if copies < a:  # the tail block (shifted by a*q_{top-1}) is dropped too
            c, m = copies * c_prev, (copies - 1) * q[top - 1] + m_prev
    if m > Q_MAX:
        raise RangeError(f"level-{lam} block start {m} passes the 63-bit budget {Q_MAX}")
    check_size(c, f"level-{lam} block-start table")
    table = np.zeros((2, c), dtype=np.int64)  # rows: the starts and eps_lam of each
    size, prev = 1, 1  # starts written (those below q_i) and those below q_{i-1}
    for i in range(lam, top):
        a, below, step = scale.digit_bound(i), size, int(i == lam)
        done = 1  # copies b < done of the starts below q_i written; b = 0 is the prefix
        while done < a and size < c:  # copies done.. are copies 0.. shifted by done*q_i
            take = min(done, a - done, (c - size) // below) * below
            np.add(table[:, :take], [[done * q[i]], [done * step]], out=table[:, size : size + take])
            size += take
            done += take // below
        if size < c:  # the tail: the starts below q_{i-1} shifted by a*q_i
            np.add(table[:, :prev], [[a * q[i]], [a * step]], out=table[:, size : size + prev])
            size += prev
        prev = below
    return table[0], table[1]


def w_sequence(lam: int, count: int, scale: ConvergentTable) -> BlockIndex:
    """First `count` members of {n : eps_k(n) = 0 for all k < lam}, with gap kinds.

    Read off the level-lam block-start table (_block_table); a gap is SHORT
    iff eps_lam of its start is a_{lam+1}.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    starts, eps = _block_table(lam, scale, count)
    short = (eps[: count - 1] == scale.digit_bound(lam)).tolist()
    return BlockIndex(lam, tuple(starts[:count].tolist()),
                      tuple(map((LONG, SHORT).__getitem__, short)))


def block_counts(lam: int, N: int, scale: ConvergentTable) -> tuple[int, int]:
    """Counts (a, b) of long and short gaps among blocks fully inside [0, N).

    The blocks tile [0, limit) and the one holding N starts at
    N - psi_lam(N) = sum_{k >= lam} eps_k q_k, so those inside [0, N) start
    below it: a + b = sum eps_k C_k and b = sum eps_k D_k over N's greedy
    digits at k >= lam (the limit is q_{K+1} when a_next is known), with C_k
    the level-lam starts below q_k and D_k those with eps_lam = a_{lam+1}.
    Both run the start-count recurrence from C_{lam-1} = C_lam = 1 and
    D_{lam-1} = 1, D_lam = 0: O(K) Python-int steps and no array, whatever N.
    Gaps are classified by length, so at q_lam = q_{lam-1} (lam = 1, a_1 = 1)
    every gap is long.  For N >= 0, a*q_lam + b*q_{lam-1} = N - psi_lam(N).
    """
    if lam < 1:
        raise ValidationError("lam must be >= 1")
    scale.digit_bound(lam)  # RangeError if the table has no level lam
    if N > scale.limit:
        raise RangeError(f"N={N} beyond table limit {scale.limit}")
    bounds = scale.bounds
    top = bisect.bisect_right(bounds, N) - 1  # N's top digit position, -1 for N < 1
    C, D = [1, 1], [1, 0]  # C_k and D_k for k = lam-1, lam, ..., top
    for i in range(lam, top):
        a = scale.digit_bound(i)
        C.append(a * C[-1] + C[-2])
        D.append(a * D[-1] + D[-2])
    blocks, short, rem = 0, 0, N
    for k in range(top, lam - 1, -1):
        eps, rem = divmod(rem, bounds[k])
        blocks, short = blocks + eps * C[k - lam + 1], short + eps * D[k - lam + 1]
    if scale.q[lam] == scale.q[lam - 1]:
        short = 0
    return blocks - short, short


# --- per-n range tables ------------------------------------------------------

def _level_table(scale: ConvergentTable, count: int, what: str, op, coefs) -> np.ndarray:
    """The per-n table over [0, count) of a quantity that combines digit by digit, level by level.

    [0, q_{i+1}) is a = a_{i+1} copies of [0, q_i), copy b shifted by b*q_i,
    then one copy of [0, q_{i-1}) shifted by a*q_i.  coefs(i, m) gives the
    level-i coefficients of the digits b = 0..m-1 (or more: a view of a
    longer row is fine).  Level 0 is its coefficients (n < q_1 is its digit
    eps_0); an entry of level i >= 1 is op(the prefix entry it copies, its
    digit's coefficient), in that order.  Every source is a prefix already
    written, so copy b = 0 is never made; copies b = 1..full are one op,
    broadcast over b, and copy full + 1 (partial, or the tail) one more,
    stopping at count.  A level asks only for the digits it writes,
    m <= count / q_i + 2.  RangeError outside [0, limit] and CapError past
    RANGE_CAP (naming `what`) come before any allocation.
    """
    if count < 0 or count > scale.limit:
        raise RangeError(f"count={count} outside [0, {scale.limit}] for this scale")
    check_size(count, what)
    q, tops = scale.q, (*scale.quotients, scale.a_next)  # tops[i] = a_{i+1}, the top digit of level i
    size, i = min(q[1], count), 1
    first = coefs(0, size)[:size]
    out = np.empty(count, dtype=first.dtype)
    out[:size] = first
    while size < count:
        a, step = tops[i], q[i]
        full = min(a - 1, (count - size) // step)  # whole copies b = 1..full of the prefix [0, q_i)
        c = coefs(i, full + 2)
        if full:
            block = out[size : size + full * step]
            if full > 1:
                op(out[:step], c[1 : full + 1, None], out=block.reshape(full, step))
            else:  # one copy: a flat op costs less than a broadcast one
                op(out[:step], c[1], out=block)
            size += full * step
        take = min(count - size, step if full < a - 1 else q[i - 1])
        op(out[:take], c[full + 1], out=out[size : size + take])
        size += take
        i += 1
    return out


def psi_range(scale: ConvergentTable, lam: int, count: int) -> np.ndarray:
    """psi_lam(n) for n = 0..count-1 (int64): each digit b at a level i < lam adds b*q_i, above it 0."""
    if lam < 0:
        raise ValidationError("lam must be >= 0")
    return _level_table(scale, count, "psi_range", np.add,
                        lambda i, m: np.arange(m) * (scale.q[i] if i < lam else 0))


def sigma_range(scale: ConvergentTable, count: int) -> np.ndarray:
    """sigma(n) for n = 0..count-1 (int64): each digit b adds b."""
    return _level_table(scale, count, "sigma_range", np.add, lambda i, m: np.arange(m))


# --- the greedy walk: encode's reduction over a range of n, for the verify oracles

WALK_TILE = 1 << 16  # points per tile of the greedy walk: its buffers stay in L2


def _runs(
    q: Sequence[int], start: int, stop: int, top: int, floor: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """Levels top, top - 1, ... down to floor + 1 peeled off [start, stop) as runs, while few.

    Run j covers the indices [cuts[j], cuts[j + 1]) of the range (the last
    one ends at stop - start), where the remainders are index + offs[j].
    The range starts as one run, offs = [start]: while one digit covers it,
    each level is peeled off that Python int.  Level k cuts each run where its
    remainders reach a multiple of q_k, and the piece with digit d keeps
    offs[j] - d * q_k.  The peel stops before the first level that would
    leave more than WALK_TILE // 16 runs.  Returns the highest level not
    peeled (floor, or top when none is), and cuts and offs as int64 arrays.
    """
    size, k, off = stop - start, top, start
    while k > floor and off // q[k] == (off + size - 1) // q[k]:
        off -= off // q[k] * q[k]
        k -= 1
    cuts, offs = np.zeros(1, dtype=np.int64), np.array([off], dtype=np.int64)
    while k > floor:
        first = (cuts + offs) // q[k]
        pieces = (np.append(cuts[1:], size) - 1 + offs) // q[k] - first + 1
        total = int(pieces.sum())
        if total > WALK_TILE // 16:
            break
        if total > len(cuts):  # the first piece of a run starts at the run, the others at d * q_k - off
            parent = np.repeat(np.arange(len(cuts)), pieces)
            digit = first[parent] + np.arange(total) - np.repeat(np.cumsum(pieces) - pieces, pieces)
            cuts, offs = np.maximum(cuts[parent], digit * q[k] - offs[parent]), offs[parent] - digit * q[k]
        else:
            offs -= first * q[k]
        k -= 1
    return k, cuts, offs


def _walk(
    scale: ConvergentTable, stop: int, lo: int, start: int = 0, hi: int | None = None
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The greedy level walk over n in [start, stop), one tile at a time.

    The range splits into tiles [base, base + WALK_TILE) (the last one
    shorter).  Each tile is walked through all its levels before the next
    starts, and yields (base, k, eps_k, psi_k) per level lo <= k <= hi (hi
    defaults to the top), for n in the tile.  Levels run from the top index
    of stop - 1 down to lo; above the top index no digit is peeled and
    psi_k = n, and no level is yielded there.

    The levels above hi, which no reader sees, are first peeled off the
    whole range as runs (_runs): a contiguous range stays a few contiguous
    runs of remainders until its levels cut it at multiples of q_k.  Each
    tile starts at the highest level the runs left, its remainders
    materialized from the runs that cover it with one np.repeat, and each
    level below is one divide over the tile.

    Both yielded arrays are the walk's working buffers, which the next level
    overwrites: a consumer copies what it keeps and changes neither.  They
    are int32 lanes when stop <= 2**31 - 1, where every q_k walked and every
    remainder fits, and int64 otherwise.  So that every n fits int64 lanes,
    stop - 1 > Q_MAX is refused with RangeError before anything is
    allocated: no reader walks past it (the psi and carry counts walk from 0
    for at most RANGE_CAP points, the gap bands end below a block start
    <= Q_MAX).  The working memory is four tile-sized buffers, the np.repeat
    of a tile, and run arrays of at most WALK_TILE // 16 entries.
    """
    if stop < start:
        raise RangeError(f"count={stop - start} is negative")
    if stop > scale.limit:
        raise RangeError(f"count={stop} beyond table limit {scale.limit}")
    if stop - 1 > Q_MAX:
        raise RangeError(f"the walk reaches n={stop - 1}, past the 63-bit budget {Q_MAX}")
    check_size(stop - start, "greedy digit pass")
    q = scale.q
    top = max(bisect.bisect_right(q, stop - 1) - 1, 0)
    hi = top if hi is None else hi
    level, cuts, offs = _runs(q, start, stop, top, max(hi, lo - 1))
    index = np.arange(min(WALK_TILE, stop - start),
                      dtype=np.int32 if stop <= np.iinfo(np.int32).max else np.int64)
    rem_tile, eps_tile, peeled_tile = np.empty_like(index), np.empty_like(index), np.empty_like(index)
    for base in range(start, stop, WALK_TILE):
        size = min(WALK_TILE, stop - base)
        rem, eps, peeled, span = rem_tile[:size], eps_tile[:size], peeled_tile[:size], index[:size]
        at = base - start
        first, end = np.searchsorted(cuts, (at, at + size - 1), side="right").tolist()
        lengths = np.diff(np.concatenate(([at], cuts[first:end], [at + size])))
        np.add(span, np.repeat((offs[first - 1 : end] + at).astype(rem.dtype), lengths), out=rem)
        for k in range(level, lo - 1, -1):
            # floor_divide by a scalar has a fast path that np.divmod lacks
            np.floor_divide(rem, q[k], out=eps)
            np.multiply(eps, q[k], out=peeled)
            rem -= peeled
            if k <= hi:
                yield base, k, eps, rem
