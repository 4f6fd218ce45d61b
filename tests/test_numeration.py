"""Digit strings, truncations, block structure, and the vectorized kernels.

Oracles: exhaustive enumeration of every legal digit string (uniqueness and
completeness of the numeration below a cutoff), per-n recomputation of
the quantities the vectorized kernels produce in bulk, and a scalar gap walk
(one encode per block start) for the block-start table.
"""

import bisect
import itertools
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrowski import (
    GOLDEN,
    LONG,
    SHORT,
    SILVER,
    CapError,
    DigitString,
    QuotientSpec,
    RangeError,
    ValidationError,
    block_counts,
    decode,
    encode,
    expand,
    expand_max,
    gap_structure_sweep,
    parse_alpha_spec,
    psi,
    psi_range,
    scale_for,
    sigma,
    sigma_range,
    validate,
    w_sequence,
)
from ostrowski import harness, numeration
from ostrowski.numeration import _violation
from ostrowski.cfrac import Q_MAX
from ostrowski.numerics import RANGE_CAP

PERIOD12 = QuotientSpec((), (1, 2))
MIXED = QuotientSpec((), (1, 2, 3, 1, 1, 4))
SPECS = (GOLDEN, SILVER, PERIOD12, MIXED)
FINITE = parse_alpha_spec("list:2,1,3,1,1,4,2,1,3,2,1,2")

CUTOFF = 500


def walked(scale, stop, lo, digit_sum=False, start=0):
    """The walk over n in [start, stop) gathered tile by tile, in its lanes.

    (eps_lo, psi_lo) from a walk that yields level lo alone, or with
    digit_sum (sum_{k >= lo} eps_k, psi_lo) from one that yields every level
    from the top down; the int64 arrays (0, n) where no level is walked.
    """
    total = psi = None
    for base, k, eps, rem in numeration._walk(scale, stop, lo, start, hi=None if digit_sum else lo):
        if psi is None:
            psi = np.empty(stop - start, dtype=rem.dtype)
            total = np.zeros_like(psi)
        tile = slice(base - start, base - start + len(rem))
        total[tile] += eps
        if k == lo:
            psi[tile] = rem
    if psi is None:
        n = np.arange(start, stop, dtype=np.int64)
        return np.zeros_like(n), n
    return total, psi


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


def test_digit_string_refusals():
    scale = scale_for(GOLDEN, 100)
    too_long = (0,) * scale.rows + (1,)
    with pytest.raises(ValidationError, match="positions"):
        DigitString(too_long, scale)
    with pytest.raises(ValidationError, match="negative digit at position 1"):
        DigitString((0, -1), scale)
    assert not validate(too_long, scale) and not validate((0, -1), scale)
    assert not validate((0, "x"), scale) and not validate((0, None), scale)
    assert validate((0, 1) + (0,) * (scale.rows + 3), scale)  # trailing zeros are trimmed first
    with pytest.raises(ValidationError, match="lam"):
        psi(5, -1, scale)


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


@pytest.mark.parametrize("spec", SPECS + (FINITE,), ids=["golden", "silver", "p12", "p123114", "list"])
def test_encode_output_is_legal(spec):
    # encode wraps its greedy digits without re-validating them: they must be
    # legal and trimmed at every n below 10^4, at the scale edges q_k - 1,
    # q_k, q_k + 1 and at the last encodable n
    scale = expand_max(spec)
    ns = set(range(min(10**4, scale.limit))) | {scale.limit - 1}
    ns |= {q + e for q in scale.q for e in (-1, 0, 1) if 0 <= q + e < scale.limit}
    for n in sorted(ns):
        d = encode(n, scale)
        assert _violation(d.digits, scale) is None, n
        assert not d.digits or d.digits[-1] != 0
        assert decode(d) == n
    assert encode(scale.limit - 1, scale) == DigitString(encode(scale.limit - 1, scale).digits, scale)


def test_encode_decodes_back_below_20():
    scale = scale_for(GOLDEN, 50)
    assert all(decode(encode(n, scale)) == n for n in range(20))


# --- block structure ------------------------------------------------------------

def scalar_gaps(lam, scale, end):
    """Yield (w, gap, kind) for the level-lam block starts w < end: one encode per start.

    From a start w the next one is w + q_{lam-1} (SHORT) when eps_lam(w) is
    maximal and w + q_lam (LONG) otherwise.
    """
    if lam < 1:
        raise ValidationError("lam must be >= 1")
    a_top = scale.digit_bound(lam)
    q_long, q_short = scale.q[lam], scale.q[lam - 1]
    w = 0
    while w < end:
        gap, kind = (q_short, SHORT) if encode(w, scale).digit(lam) == a_top else (q_long, LONG)
        yield w, gap, kind
        w += gap


def walk_w_sequence(lam, count, scale):
    if count < 1:
        raise ValidationError("count must be >= 1")
    blocks = list(islice(scalar_gaps(lam, scale, scale.limit), count))
    if len(blocks) < count:
        raise RangeError(f"block {len(blocks)} starts beyond table limit {scale.limit}")
    return tuple(w for w, _, _ in blocks), tuple(k for _, _, k in blocks[:-1])


def walk_block_counts(lam, N, scale):
    a = b = 0
    for w, gap, _ in scalar_gaps(lam, scale, N):
        if w + gap > N:
            break
        if gap == scale.q[lam]:
            a += 1
        else:
            b += 1
    return a, b


def outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except (ValidationError, RangeError, CapError) as exc:
        return type(exc)


def refusal(f, *args):
    """f(*args), or the repr of the exception it raised: its type and message."""
    try:
        return f(*args)
    except (ValidationError, RangeError, CapError) as exc:
        return repr(exc)


def table_sequence(lam, count, scale):
    block = w_sequence(lam, count, scale)
    return block.starts, block.kinds


quotients = st.lists(st.integers(1, 4), min_size=1, max_size=14).map(tuple)


@settings(max_examples=150, deadline=None)
@given(periodic=st.booleans(), head=quotients, period=quotients,
       lam=st.integers(1, 8), count=st.integers(1, 3000), data=st.data())
def test_block_table_matches_scalar_walk(periodic, head, period, lam, count, data):
    # a periodic spec gets a table reaching count blocks; a finite list: spec
    # takes its whole table, so lam or count may run past it
    spec = QuotientSpec(head[:4], period[:4]) if periodic else QuotientSpec(head)
    scale = expand_max(spec)
    if periodic:
        scale = scale_for(spec, (count + 2) * scale.q[lam])
    assert outcome(table_sequence, lam, count, scale) == outcome(walk_w_sequence, lam, count, scale)
    q_lam = scale.q[min(lam, scale.K)]
    top = min(count * q_lam, scale.limit)
    for N in (1, q_lam - 1, q_lam + 1, data.draw(st.integers(0, top), label="N")):
        assert outcome(block_counts, lam, N, scale) == outcome(walk_block_counts, lam, N, scale), N


def test_block_table_golden_level_one():
    # q_1 = q_0 = 1: every n is a start and, by length, every block is long
    scale = scale_for(GOLDEN, 10**4)
    block = w_sequence(1, 200, scale)
    assert block.starts == tuple(range(200))
    assert (block.starts, block.kinds) == walk_w_sequence(1, 200, scale)
    for N in (0, 1, 2, 999, 10**4):
        assert block_counts(1, N, scale) == (N, 0) == walk_block_counts(1, N, scale)


def test_block_table_runs_to_the_limit_without_a_next():
    # a finite list: spec has no a_{K+1}, so the table stops at q_K = limit
    scale = expand_max(parse_alpha_spec("list:1,2,3,1,2,2"))
    assert scale.a_next is None
    for lam in range(1, scale.rows):
        below = int(np.count_nonzero(psi_range(scale, lam, scale.limit) == 0))
        block = w_sequence(lam, below, scale)
        assert (block.starts, block.kinds) == walk_w_sequence(lam, below, scale)
        with pytest.raises(RangeError):
            w_sequence(lam, below + 1, scale)
        assert block_counts(lam, scale.limit, scale) == walk_block_counts(lam, scale.limit, scale)
        with pytest.raises(RangeError):
            block_counts(lam, scale.limit + 1, scale)


def test_block_table_builds_only_the_copies_it_needs():
    # a_2 = 10^8: the full level below q_2 would hold 10^8 + 1 starts
    scale = expand_max(parse_alpha_spec("periodic:/1,100000000"))
    for lam, count in ((1, 3), (2, 5), (3, 40)):
        block = w_sequence(lam, count, scale)
        assert (block.starts, block.kinds) == walk_w_sequence(lam, count, scale)
        for N in (5, scale.q[lam] + 7, 3 * scale.q[lam]):
            assert block_counts(lam, N, scale) == walk_block_counts(lam, N, scale)


def test_block_table_errors():
    scale = expand(SILVER, 6)
    with pytest.raises(ValidationError):
        w_sequence(0, 5, scale)
    with pytest.raises(ValidationError):
        w_sequence(2, 0, scale)
    with pytest.raises(ValidationError):
        block_counts(0, 5, scale)
    with pytest.raises(RangeError):
        w_sequence(scale.rows, 2, scale)
    with pytest.raises(RangeError):
        block_counts(scale.rows, 5, scale)
    with pytest.raises(RangeError):
        w_sequence(2, 10**6, scale)


def concatenating_block_table(lam, scale, count, dtype=np.int64):
    """The block-start table by np.concatenate of shifted copies at every level.

    The differential oracle of _block_table's in-place build, with the same
    cut rule.  In int64 a start past 2**63 - 1 wraps; with dtype=object the
    starts are exact Python ints.
    """
    if lam < 1:
        raise ValidationError("lam must be >= 1")
    scale.digit_bound(lam)
    q = scale.q
    top, c_prev, c = lam, 1, 1
    while c < count and top < scale.rows:
        c_prev, c = c, scale.digit_bound(top) * c + c_prev
        top += 1
    if c < count:
        raise RangeError(f"only {c} level-{lam} block starts lie below the table limit {scale.limit}")
    copies = 0
    if top > lam:
        a = scale.digit_bound(top - 1)
        copies = min(a, -(-count // c_prev))
        if copies < a:
            c = copies * c_prev
    starts = prev_starts = np.zeros(1, dtype=dtype)
    eps = prev_eps = np.zeros(1, dtype=np.int64)
    for i in range(lam, top):
        a = scale.digit_bound(i)
        b = np.arange(a if i < top - 1 else copies, dtype=np.int64)[:, None]
        step = int(i == lam)
        new_starts = [(starts + b.astype(dtype) * q[i]).ravel()]
        new_eps = [(eps + b * step).ravel()]
        if len(b) == a:
            new_starts.append(prev_starts + a * q[i])
            new_eps.append(prev_eps + a * step)
        prev_starts, starts = starts, np.concatenate(new_starts)
        prev_eps, eps = eps, np.concatenate(new_eps)
    return starts, eps


TABLE_SPECS = ("golden", "silver", "periodic:/1,2", "periodic:/1,2,3,1,1,4", "periodic:/1000",
               "periodic:3,1/7", "list:2,1,1,5,1,1,1,1,1,1,1,1", "list:1,1,1")


@pytest.mark.parametrize("text", TABLE_SPECS)
def test_block_table_matches_the_concatenating_build_byte_for_byte(text):
    # where the int64 oracle wraps past 2**63 - 1 the table refuses, and the
    # exact starts confirm that one of them passes the budget; every other
    # refusal is the oracle's, message included
    scale = expand_max(parse_alpha_spec(text))
    refused = 0
    for lam in range(1, min(12, scale.rows - 1) + 1):
        for count in (0, 1, 2, 3, 5, 10, 11, 100, 10**4 + 1):
            want = refusal(concatenating_block_table, lam, scale, count)
            got = refusal(numeration._block_table, lam, scale, count)
            if isinstance(got, str) and "63-bit budget" in got:
                assert not isinstance(want, str), (lam, count)
                exact, _ = concatenating_block_table(lam, scale, count, dtype=object)
                assert max(exact) > Q_MAX, (lam, count)
                refused += 1
            elif isinstance(want, str):
                assert got == want, (lam, count)
            else:
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (lam, count)
    assert (refused > 0) == (text == "periodic:/1000")  # its q_6 is already about 10**18


def test_block_table_allocates_only_its_result():
    for spec in (GOLDEN, SILVER, MIXED):
        scale = expand_max(spec)
        tracemalloc.start()
        try:
            starts, eps = numeration._block_table(1, scale, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * (starts.nbytes + eps.nbytes)


def exact_starts_below(lam, N, scale):
    return [w for w, _, _ in scalar_gaps(lam, scale, N)]


@pytest.mark.parametrize("spec", [GOLDEN, SILVER, PERIOD12, parse_alpha_spec("periodic:/1000")],
                         ids=["golden", "silver", "p12", "p1000"])
def test_block_starts_past_2_63_match_python_ints_or_are_refused(spec):
    # the top levels of these scales reach past 2**63 - 1: block_counts
    # always matches the scalar walk in Python ints; w_sequence matches it
    # or names the 63-bit budget, never a wrapped start or a numpy
    # conversion error
    scale = expand_max(spec)
    served = 0
    for lam in range(max(1, scale.K - 3), scale.rows):
        for N in (2**62, 2**63 - 1, 2**63, scale.limit):
            if N > scale.limit or N // scale.q[lam - 1] >= 10**4:
                continue  # past the table, or too many starts for the scalar walk
            assert block_counts(lam, N, scale) == walk_block_counts(lam, N, scale), (lam, N)
            count = len(exact_starts_below(lam, N, scale))
            try:
                got = table_sequence(lam, count, scale)
            except RangeError as exc:
                assert "63-bit budget" in str(exc)
                continue
            assert got == outcome(walk_w_sequence, lam, count, scale), (lam, count)
            served += 1
    assert served


@pytest.mark.parametrize("request_", [
    lambda: w_sequence(6, 11, expand_max(parse_alpha_spec("periodic:/1000"))),
], ids=["p1000-w11"])
def test_block_starts_past_2_63_are_refused_not_wrapped(request_):
    # the request needs a start past 2**63 - 1: a wrapped start, or numpy's
    # conversion OverflowError, would be the wrong outcome
    with pytest.raises(RangeError, match="63-bit budget"):
        request_()


@pytest.mark.parametrize("lam, N, spec", [
    (49, 2**63 - 1, SILVER), (46, 2**63 - 1, SILVER), (46, 2**63, SILVER), (88, 2**63, GOLDEN),
    (6, 10**20, parse_alpha_spec("periodic:/1000")),
], ids=["silver-49-below", "silver-46-below", "silver-46", "golden-88", "p1000-1e20"])
def test_block_counts_near_2_63_match_the_walk(lam, N, spec):
    # the block-start table reaching N would hold a start past 2**63 - 1
    # (periodic:/1000 has 99 blocks of about 10**18 below 10**20, most of
    # them starting past it); the counts from N's digits are Python ints
    scale = expand_max(spec)
    assert block_counts(lam, N, scale) == walk_block_counts(lam, N, scale)



def test_block_routes_make_no_scalar_encode(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar encode called")

    monkeypatch.setattr(numeration, "encode", refuse)
    scale = scale_for(SILVER, 10**6)
    w_sequence(3, 1000, scale)
    block_counts(3, 10**5, scale)
    rep = harness._run_gaps(None)
    assert rep.ok and rep.instances_run == 93


def test_size_checks_refuse_before_allocating():
    # each size is refused from the start count or point count alone;
    # block_counts builds no table, so it serves 2**40 blocks
    scale = scale_for(GOLDEN, 2**41)
    assert block_counts(1, 2**40, scale) == (2**40, 0)
    n_long, n_short = block_counts(4, 2**40, scale)
    assert 0 <= 2**40 - (n_long * scale.q[4] + n_short * scale.q[3]) < scale.q[4]
    with pytest.raises(CapError):
        w_sequence(2, RANGE_CAP + 1, scale)
    with pytest.raises(CapError):
        psi_range(scale, 3, RANGE_CAP + 1)
    with pytest.raises(CapError):
        walked(scale, 2**40, 0, start=2**40 - RANGE_CAP - 1)


@pytest.mark.parametrize("kernel", [
    lambda scale, count: psi_range(scale, 0, count),
    lambda scale, count: psi_range(scale, 50, count),  # lam past the top: psi = n, no level walked
    sigma_range,
], ids=["psi_range", "psi_range_no_level", "sigma_range"])
def test_kernels_refuse_before_allocating(kernel):
    # the walk checks its count at its first step, and the kernels allocate
    # their result only at its first yield
    scale = scale_for(GOLDEN, 2**41)
    tracemalloc.start()
    try:
        for count, error in ((RANGE_CAP + 1, CapError), (scale.limit + 1, RangeError)):
            with pytest.raises(error):
                kernel(scale, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gap_check_scan_peak_memory():
    # the brute-force scan walks tiles of WALK_TILE points: silver lam <= 8
    # reduces about 10^7 points, which one pass would hold as two 80 MB
    # arrays; the tiles and the eight block indexes stay within a few MB
    spec = SILVER
    probe = scale_for(spec, 4096)
    scale = scale_for(spec, (10**4 + 2) * probe.q[8])
    tracemalloc.start()
    try:
        rep = gap_structure_sweep(scale, 8, 10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 12 * 2**20


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


def test_block_counts_degenerate_level():
    # golden level 1 has q_1 = q_0 = 1: every block has length one and the
    # length-based split counts every block as long
    scale = scale_for(GOLDEN, 10**4)
    assert block_counts(1, 10**3, scale) == (10**3, 0)


def test_block_counts_cover_up_to_edge():
    # length-weighted block counts tile [0, N) except the trailing stub
    scale = scale_for(SILVER, 10**5)
    N = 10**4
    for lam in (1, 2, 3):
        n_long, n_short = block_counts(lam, N, scale)
        covered = n_long * scale.q[lam] + n_short * scale.q[lam - 1]
        assert N - scale.q[lam] <= covered <= N


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
        hi, _ = walked(scale, count, lam, digit_sum=True)
        assert hi.tolist() == [sum(d.digits[lam:]) for d in digits]
    for k in (0, 1, 4):
        eps, _ = walked(scale, count, k)
        assert eps.tolist() == [d.digit(k) for d in digits]
    # counts at the scale edges: the top level is chosen from count - 1
    edges = {0, 1} | {q + e for q in scale.q if q + 1 <= count for e in (-1, 0, 1)}
    for c in sorted(edges):
        top = max(bisect.bisect_right(scale.q, c - 1) - 1, 0)
        for lam in (0, 1, 2, 3, top, top + 1):
            assert psi_range(scale, lam, c).tolist() == [psi(n, lam, scale) for n in range(c)]
            assert walked(scale, c, lam)[0].tolist() == [d.digit(lam) for d in digits[:c]]
            assert walked(scale, c, lam, digit_sum=True)[0].tolist() == [
                sum(d.digits[lam:]) for d in digits[:c]
            ]
        # above the top index no digit is peeled: psi = n and eps = 0
        assert psi_range(scale, top + 1, c).tolist() == list(range(c))
        assert walked(scale, c, top + 1)[0].tolist() == [0] * c
        assert sigma_range(scale, c).tolist() == [d.sigma for d in digits[:c]]


@pytest.mark.parametrize("kernel, arrays", [
    (lambda scale, count: psi_range(scale, 3, count), 2),
    (sigma_range, 3),
], ids=["psi_range", "sigma_range"])
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


@pytest.mark.parametrize("spec", SPECS, ids=["golden", "silver", "p12", "p123114"])
def test_greedy_offset_matches_full_pass(spec):
    scale = scale_for(spec, 3000)
    stop = 2500
    starts = {0} | {q + e for q in scale.q if q + 1 < stop for e in (-1, 0, 1)}
    for digit_sum in (False, True):
        for lo in (0, 1, 2, 3, 5):
            full = walked(scale, stop, lo, digit_sum)
            for start in sorted(starts):
                part = walked(scale, stop, lo, digit_sum, start=start)
                assert part[0].tolist() == full[0][start:].tolist()
                assert part[1].tolist() == full[1][start:].tolist()


@pytest.mark.parametrize("start, stop, dtype", [
    (2**31 - 4096, 2**31 - 1, np.int32),
    (2**31 - 2048, 2**31 + 2048, np.int64),
], ids=["int32_lanes", "int64_lanes"])
def test_greedy_lanes_at_the_int32_boundary(start, stop, dtype):
    # stop <= 2**31 - 1 runs in int32 lanes, a larger stop in int64; both
    # agree with the scalar greedy digits on either side of the boundary
    scale = scale_for(GOLDEN, 2**31 + 4096)
    digits = [encode(n, scale) for n in range(start, stop)]
    for lo in (0, 1, 5, 20):
        eps, ps = walked(scale, stop, lo, start=start)
        hi, ps_sum = walked(scale, stop, lo, digit_sum=True, start=start)
        assert eps.dtype == ps.dtype == hi.dtype == dtype
        assert eps.tolist() == [d.digit(lo) for d in digits]
        assert hi.tolist() == [sum(d.digits[lo:]) for d in digits]
        want = [psi(n, lo, scale) for n in range(start, stop)]
        assert ps.tolist() == ps_sum.tolist() == want


def greedy_oracle(scale, ns, lo):
    """(eps_lo, psi_lo, sum_{k >= lo} eps_k) per n, from the scalar encode."""
    digits = [encode(int(n), scale) for n in ns]
    return ([d.digit(lo) for d in digits], [psi(int(n), lo, scale) for n in ns],
            [sum(d.digits[lo:]) for d in digits])


@pytest.mark.parametrize("start, stop", [
    (0, 5 * 777 + 13),
    (1000, 4 * 777 - 5),
    (2**40 - 3 * 777 - 100, 2**40 + 2 * 777 + 7),
], ids=["from_zero", "off_tiles", "int64_lanes"])
def test_tiled_greedy_matches_encode_across_tiles(start, stop, monkeypatch):
    # tiles of 777 points: every range starts and stops off a tile boundary
    # and crosses several tiles; the last one is in int64 lanes near 2**40
    monkeypatch.setattr(numeration, "WALK_TILE", 777)
    scale = scale_for(GOLDEN, 2**41)
    ns = range(start, stop)
    for lo in (0, 1, 3, 20):
        eps, ps = walked(scale, stop, lo, start=start)
        hi, ps_sum = walked(scale, stop, lo, digit_sum=True, start=start)
        if lo <= bisect.bisect_right(scale.q, stop - 1) - 1:  # else no level is walked: int64 (0, n)
            assert eps.dtype == (np.int64 if stop > 2**31 - 1 else np.int32)
        want_eps, want_psi, want_hi = greedy_oracle(scale, ns, lo)
        assert eps.tolist() == want_eps
        assert ps.tolist() == ps_sum.tolist() == want_psi
        assert hi.tolist() == want_hi
    if start == 0:
        assert psi_range(scale, 2, stop).tolist() == [psi(n, 2, scale) for n in ns]
        assert sigma_range(scale, stop).tolist() == [sigma(n, scale) for n in ns]


@pytest.mark.parametrize("start", [0, 5, 2**40 - 2**16 - 9], ids=["zero", "off", "int64_lanes"])
def test_greedy_at_the_walk_tile_boundaries(start):
    # at the real WALK_TILE, over three tiles: every n within 3 of a tile
    # boundary or of the range's ends, and a random sample between them
    tile = numeration.WALK_TILE
    stop = start + 2 * tile + 1001
    scale = scale_for(SILVER, 2**41)
    rng = np.random.default_rng(start)
    edges = {start + b + e for b in (0, tile, 2 * tile, stop - start) for e in range(-3, 4)}
    ns = sorted({n for n in edges if start <= n < stop} | set(rng.integers(start, stop, 500).tolist()))
    at = np.array(ns) - start
    for lo in (0, 2, 7):
        eps, ps = walked(scale, stop, lo, start=start)
        hi, _ = walked(scale, stop, lo, digit_sum=True, start=start)
        want_eps, want_psi, want_hi = greedy_oracle(scale, ns, lo)
        assert eps[at].tolist() == want_eps
        assert ps[at].tolist() == want_psi
        assert hi[at].tolist() == want_hi
    if start == 0:
        assert psi_range(scale, 3, stop)[at].tolist() == [psi(n, 3, scale) for n in ns]
        assert sigma_range(scale, stop)[at].tolist() == [sigma(n, scale) for n in ns]


def plain_levels(scale, start, stop, lo, hi):
    """{k: (eps_k, psi_k)} over n in [start, stop), lo <= k <= hi, reduced one level at a time."""
    rem = np.arange(start, stop, dtype=np.int64)
    top = max(bisect.bisect_right(scale.q, stop - 1) - 1, 0)
    levels = {}
    for k in range(top, lo - 1, -1):
        eps = rem // scale.q[k]
        rem = rem - eps * scale.q[k]
        if k <= hi:
            levels[k] = (eps, rem)
    return levels


def check_walk(scale, start, stop, lo, hi, samples):
    """The walk's yields against plain_levels, their order and lanes, and encode at the sampled n.

    Returns how many (tile, level) yields had one digit over a tile of two or more points.
    """
    tile = numeration.WALK_TILE
    top = max(bisect.bisect_right(scale.q, stop - 1) - 1, 0)
    want = plain_levels(scale, start, stop, lo, top if hi is None else hi)
    got = {k: ([], []) for k in want}
    order, constant = [], 0
    for base, k, eps, rem in numeration._walk(scale, stop, lo, start=start, hi=hi):
        assert eps.dtype == rem.dtype == (np.int32 if stop <= 2**31 - 1 else np.int64)
        assert len(eps) == len(rem) == min(tile, stop - base)
        order.append((base, k))
        got[k][0].append(eps.copy())
        got[k][1].append(rem.copy())
        constant += len(eps) > 1 and eps.min() == eps.max()
    assert order == [(base, k) for base in range(start, stop, tile) for k in sorted(want, reverse=True)]
    for k, (eps, rem) in want.items():
        assert np.concatenate([np.zeros(0, np.int64), *got[k][0]]).tolist() == eps.tolist()
        assert np.concatenate([np.zeros(0, np.int64), *got[k][1]]).tolist() == rem.tolist()
        for n in samples:
            assert (eps[n - start], rem[n - start]) == (encode(n, scale).digit(k), psi(n, k, scale))
    return constant


@settings(max_examples=60, deadline=None)
@given(
    head=st.lists(st.integers(1, 9), max_size=3),
    period=st.lists(st.sampled_from((1, 1, 2, 3, 5, 60, 1000)), min_size=1, max_size=4),
    tile=st.integers(1, 700),
    data=st.data(),
)
def test_walk_matches_a_plain_greedy_reduction(head, period, tile, data):
    # random specs and tiles; the range starts and stops within a few points
    # of a tile boundary or a q_k, so tiles straddle q_k boundaries and
    # levels whose digit is constant over a tile are peeled as Python ints
    scale = scale_for(QuotientSpec(tuple(head), tuple(period)), 10**5)
    edges = sorted({q for q in scale.q if q < 10**5})
    start = data.draw(st.sampled_from(edges), label="start q") + data.draw(st.integers(-3, 3), label="start off")
    start = max(0, start)
    ends = [q for q in edges if start <= q <= start + 40 * tile] + [start + 3 * tile]  # at most 41 tiles
    stop = data.draw(st.sampled_from(ends), label="stop q")
    stop = min(max(start, stop + data.draw(st.integers(-3, 3), label="stop off")), scale.limit)
    lo = data.draw(st.integers(0, 6), label="lo")
    hi = data.draw(st.one_of(st.none(), st.integers(lo, lo + 6)), label="hi")
    samples = data.draw(st.lists(st.integers(start, stop - 1), max_size=8), label="n") if stop > start else []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeration, "WALK_TILE", tile)
        check_walk(scale, start, stop, lo, hi, samples)


@pytest.mark.parametrize("start, stop, lo, hi", [
    (3_380_000, 3_380_000 + 5 * 777 + 11, 8, 8),
    (0, 40_000, 0, None),
    (2**40 - 3 * 777 - 100, 2**40 + 2 * 777 + 7, 5, 30),
    (2**40 - RANGE_CAP // 8, 2**40 - RANGE_CAP // 8 + 4 * 777, 20, None),
], ids=["silver_gap_band", "from_zero", "int64_lanes", "int64_top_levels"])
def test_walk_peels_tile_constant_digits(start, stop, lo, hi, monkeypatch):
    # tiles of 777 points: in silver's gap band at lam = 8 the digits of
    # levels 18..13 are one per tile, peeled as Python ints and not yielded;
    # near 2**40 the walk runs in int64 lanes
    monkeypatch.setattr(numeration, "WALK_TILE", 777)
    scale = scale_for(SILVER, 2**41)
    rng = np.random.default_rng(start)
    samples = sorted({start, stop - 1} | set(rng.integers(start, stop, 40).tolist()))
    yielded_constant = check_walk(scale, start, stop, lo, hi, samples)
    assert yielded_constant > 0 or hi == lo  # a constant level that is yielded is filled


def tile_runs(scale, start, stop, lo, hi):
    """(highest level not peeled as runs, runs in all, runs covering each tile, next cut's runs)."""
    tile = numeration.WALK_TILE
    top = max(bisect.bisect_right(scale.q, stop - 1) - 1, 0)
    floor = max(top if hi is None else hi, lo - 1)
    level, cuts, offs = numeration._runs(scale.q, start, stop, top, floor)
    size = stop - start
    covering = [1 + int(np.count_nonzero((cuts > at) & (cuts < min(at + tile, size))))
                for at in range(0, size, tile)]
    q, offs = scale.q[level], np.asarray(offs, dtype=object)
    cut = int(((np.append(cuts[1:], size) - 1 + offs) // q - (cuts + offs) // q + 1).sum())
    return level, len(cuts), covering, cut


@pytest.mark.parametrize("start, stop, lo, hi, level, one, several", [
    (3_380_000, 3_380_000 + 10 * 777 + 5, 8, 8, 8, True, True),
    (3_380_000, 3_380_000 + 10 * 777 + 5, 2, 2, 6, True, True),
    (0, 10 * 777 + 5, 3, 3, 6, True, True),
    (2**31 + 100 - 4 * 777 - 5, 2**31 + 100, 3, 3, 5, True, True),
    (1000, 1000 + 5 * 777, 0, None, 9, True, False),
    (4256, 5741, 2, 30, 9, True, False),
], ids=["tiles_in_one_run", "run_cap_above_hi", "from_zero", "int64_lanes", "hi_none", "hi_above_top"])
def test_walk_starts_each_tile_from_its_runs(start, stop, lo, hi, level, one, several, monkeypatch):
    # tiles of 777 points and at most 777 // 16 = 48 runs.  Silver's levels
    # above hi are cut into runs: at lam = 8 runs of 2378 points hold most
    # tiles whole; at hi = 2 or 3 the cap stops the cut at level 6 or 5, above
    # hi, and most tiles span several runs; hi = None, or hi above the top
    # level 9, peels no level as runs
    monkeypatch.setattr(numeration, "WALK_TILE", 777)
    scale = scale_for(SILVER, 2**41)
    got_level, runs, covering, cut = tile_runs(scale, start, stop, lo, hi)
    assert got_level == level
    if hi is None or hi > level:
        assert runs == 1
    elif level > hi:  # the cut at this level would pass the cap
        assert runs <= 48 < cut
    assert (min(covering) == 1, max(covering) > 1) == (one, several)
    rng = np.random.default_rng(start)
    samples = sorted({start, stop - 1} | set(rng.integers(start, stop, 40).tolist()))
    check_walk(scale, start, stop, lo, hi, samples)


@pytest.mark.parametrize("start, stop", [(2**63 - 1000, 2**63 + 1000), (-3000, 0)],
                         ids=["across_2_63", "below_the_limit"])
def test_walk_past_2_63_matches_encode(start, stop, monkeypatch):
    # golden's largest table reaches past 2**63 - 1: remainders there fit
    # int64 lanes only once the top level is peeled, which the one run
    # does in Python ints
    monkeypatch.setattr(numeration, "WALK_TILE", 777)
    scale = expand_max(GOLDEN)
    if stop <= 0:
        start, stop = scale.limit + start, scale.limit + stop
    assert stop > 2**63
    rng = np.random.default_rng(7)
    at = sorted({0, stop - start - 1} | set(rng.integers(0, stop - start, 60).tolist()))
    ns = [start + i for i in at]
    for lo in (0, 5, 40):
        eps, ps = walked(scale, stop, lo, start=start)
        hi, _ = walked(scale, stop, lo, digit_sum=True, start=start)
        want_eps, want_psi, want_hi = greedy_oracle(scale, ns, lo)
        assert eps[at].tolist() == want_eps
        assert ps[at].tolist() == want_psi
        assert hi[at].tolist() == want_hi


def test_walk_memory_is_its_tiles_and_capped_runs():
    # 2**22 points at lam = 1: 64 tiles of 2**16 int32 lanes, each cut from
    # up to 4096 runs; the buffers are four tiles and the repeat of one, the
    # runs a few arrays of at most WALK_TILE // 16 int64 entries
    scale = scale_for(GOLDEN, 2**22)
    tile, cap = numeration.WALK_TILE, numeration.WALK_TILE // 16
    tracemalloc.start()
    try:
        yields = sum(1 for _ in numeration._walk(scale, 2**22, 1, hi=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert yields == 2**22 // tile
    assert tile_runs(scale, 0, 2**22, 1, 1)[1] > cap // 2  # the runs fill half their cap or more
    assert peak <= 5 * 4 * tile + 12 * 8 * cap + 64 * 1024


def test_psi_range_validation():
    scale = scale_for(GOLDEN, 100)
    with pytest.raises(ValidationError):
        psi_range(scale, -1, 10)
    with pytest.raises(RangeError):
        psi_range(scale, 2, scale.limit + 1)


@pytest.mark.parametrize("kernel", [
    lambda scale: psi_range(scale, 2, -1),
    lambda scale: sigma_range(scale, -1),
], ids=["psi", "sigma"])
def test_kernels_refuse_a_negative_count(kernel):
    # as values_range does, rather than returning an empty array
    with pytest.raises(RangeError):
        kernel(scale_for(GOLDEN, 100))


def test_block_counts_of_an_empty_range():
    # no block lies inside [0, N) for N <= 0
    scale = expand(GOLDEN, 6)
    for N in (0, -3):
        assert block_counts(2, N, scale) == (0, 0)


def test_block_counts_allocate_no_table():
    # golden lam = 1 has 3 * 10**6 blocks below N: the block-start table
    # holding them would take 48 MB; the digit counts take a few Python ints
    scale = scale_for(GOLDEN, 2**30)
    tracemalloc.start()
    try:
        got = block_counts(1, 3 * 10**6, scale)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (3 * 10**6, 0)
    assert peak < 64 * 1024


@st.composite
def quotient_specs(draw):
    """Random periodic:<pre>/<per> and finite list: specs with small quotients."""
    small = st.lists(st.integers(1, 6), max_size=4)
    if draw(st.booleans()):
        return QuotientSpec(tuple(draw(small)), tuple(draw(small.filter(bool))))
    return QuotientSpec(tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))), ())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=quotient_specs(), data=st.data())
def test_encode_decode_round_trip_property(spec, data):
    scale = expand_max(spec)
    k = data.draw(st.integers(0, scale.K), label="k")
    near = [scale.q[k] + d for d in (-1, 0, 1)]
    n = data.draw(st.sampled_from(near) | st.integers(0, scale.limit - 1), label="n")
    if not 0 <= n < scale.limit:
        with pytest.raises(RangeError):
            encode(n, scale)
        return
    d = encode(n, scale)
    assert validate(d.digits, scale)
    assert decode(DigitString(d.digits, scale)) == n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=quotient_specs(), data=st.data())
def test_block_counts_match_the_block_start_table(spec, data):
    # the digit counts against the count-mode table: its starts below N
    # (counted by a psi_lam scan), each ending its block by its eps_lam
    scale = expand_max(spec)
    if scale.rows < 2:
        return
    top = min(scale.limit, 10**6)
    lam = data.draw(st.integers(1, min(scale.rows - 1, bisect.bisect_right(scale.q, top))), label="lam")
    near = [scale.q[k] + d for k in range(lam, scale.K + 1) for d in (-1, 0, 1)] + [0, scale.limit]
    N = data.draw(st.sampled_from([n for n in near if 0 <= n <= top]) | st.integers(0, top),
                  label="N")
    count = int(np.count_nonzero(psi_range(scale, lam, N) == 0))
    starts, eps = numeration._block_table(lam, scale, count)
    q_long, q_short = scale.q[lam], scale.q[lam - 1]
    short = eps == scale.digit_bound(lam)
    inside = starts + np.where(short, q_short, q_long) <= N
    n_short = 0 if q_long == q_short else int(np.count_nonzero(inside & short))
    assert block_counts(lam, N, scale) == (int(np.count_nonzero(inside)) - n_short, n_short)
