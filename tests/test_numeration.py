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
    gap_structure_check,
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
from ostrowski.numeration import _greedy, _violation
from ostrowski.numerics import RANGE_CAP

PERIOD12 = QuotientSpec((), (1, 2))
MIXED = QuotientSpec((), (1, 2, 3, 1, 1, 4))
SPECS = (GOLDEN, SILVER, PERIOD12, MIXED)
FINITE = parse_alpha_spec("list:2,1,3,1,1,4,2,1,3,2,1,2")

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
        raise OverflowError(f"block {len(blocks)} starts beyond table limit {scale.limit}")
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
    except (ValidationError, RangeError, OverflowError, CapError) as exc:
        return type(exc)


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
        with pytest.raises(OverflowError):
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
    with pytest.raises(OverflowError):
        w_sequence(2, 10**6, scale)


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
    # each size is refused from the start count or point count alone
    scale = scale_for(GOLDEN, 2**41)
    with pytest.raises(CapError):
        block_counts(1, 2**40, scale)
    with pytest.raises(CapError):
        block_counts(4, 2**40, scale)
    with pytest.raises(CapError):
        w_sequence(2, RANGE_CAP + 1, scale)
    with pytest.raises(CapError):
        psi_range(scale, 3, RANGE_CAP + 1)
    with pytest.raises(CapError):
        _greedy(scale, 2**40, 0, start=2**40 - RANGE_CAP - 1)


def test_gap_check_scan_peak_memory():
    # the brute-force scan runs in fixed chunks: silver lam = 8 reduces
    # about 10^7 points, which one pass would hold as two 80 MB arrays
    spec = SILVER
    probe = scale_for(spec, 4096)
    scale = scale_for(spec, (10**4 + 2) * probe.q[8])
    tracemalloc.start()
    try:
        rep = gap_structure_check(8, 10**4, scale)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 48 * 2**20


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
        hi, _ = _greedy(scale, count, lam, digit_sum=True)
        assert hi.tolist() == [sum(d.digits[lam:]) for d in digits]
    for k in (0, 1, 4):
        eps, _ = _greedy(scale, count, k)
        assert eps.tolist() == [d.digit(k) for d in digits]
    # counts at the scale edges: the top level is chosen from count - 1
    edges = {0, 1} | {q + e for q in scale.q if q + 1 <= count for e in (-1, 0, 1)}
    for c in sorted(edges):
        top = max(bisect.bisect_right(scale.q, c - 1) - 1, 0)
        for lam in (0, 1, 2, 3, top, top + 1):
            assert psi_range(scale, lam, c).tolist() == [psi(n, lam, scale) for n in range(c)]
            assert _greedy(scale, c, lam)[0].tolist() == [d.digit(lam) for d in digits[:c]]
            assert _greedy(scale, c, lam, digit_sum=True)[0].tolist() == [
                sum(d.digits[lam:]) for d in digits[:c]
            ]
        # above the top index no digit is peeled: psi = n and eps = 0
        assert psi_range(scale, top + 1, c).tolist() == list(range(c))
        assert _greedy(scale, c, top + 1)[0].tolist() == [0] * c
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
            full = _greedy(scale, stop, lo, digit_sum)
            for start in sorted(starts):
                part = _greedy(scale, stop, lo, digit_sum, start=start)
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
        eps, ps = _greedy(scale, stop, lo, start=start)
        hi, ps_sum = _greedy(scale, stop, lo, digit_sum=True, start=start)
        assert eps.dtype == ps.dtype == hi.dtype == dtype
        assert eps.tolist() == [d.digit(lo) for d in digits]
        assert hi.tolist() == [sum(d.digits[lo:]) for d in digits]
        want = [psi(n, lo, scale) for n in range(start, stop)]
        assert ps.tolist() == ps_sum.tolist() == want


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
