"""Convergent tables, alpha spec parsing, and tail values.

Oracles: convergents recomputed through fractions.Fraction from scratch, the
classical determinant identity, and bracket containment for tail values.
"""

import bisect
from fractions import Fraction

import pytest

from ostrowski import (
    GOLDEN,
    SILVER,
    ConvergentTable,
    QuotientSpec,
    RangeError,
    ValidationError,
    alpha_value,
    expand,
    expand_max,
    format_alpha_spec,
    parse_alpha_spec,
    scale_for,
    tail,
)
from ostrowski.cfrac import Q_MAX

PERIOD12 = QuotientSpec((), (1, 2))
MIXED = QuotientSpec((2, 1), (3, 1, 4))
SPECS = (GOLDEN, SILVER, PERIOD12, MIXED)


def continued_fraction_value(quotients) -> Fraction:
    """[0; a_1, a_2, ...] evaluated backwards in exact rationals."""
    x = Fraction(0)
    for a in reversed(quotients):
        x = Fraction(1, a + x)
    return x


# --- table construction -------------------------------------------------------

def test_convergents_match_exact_rationals():
    for spec in SPECS:
        t = expand(spec, 12)
        for i in range(2, 13):
            exact = continued_fraction_value([spec.quotient(j) for j in range(1, i + 1)])
            assert Fraction(t.p[i], t.q[i]) == exact


def test_determinant_identity():
    # q_i * p_{i-1} - p_i * q_{i-1} alternates between +1 and -1
    for spec in SPECS:
        t = expand(spec, 15)
        for i in range(1, 16):
            assert t.q[i] * t.p[i - 1] - t.p[i] * t.q[i - 1] == (-1) ** i


def test_known_denominators():
    g = expand(GOLDEN, 9)
    assert g.q[:8] == (1, 1, 2, 3, 5, 8, 13, 21)
    s = expand(SILVER, 6)
    assert s.q[:6] == (1, 2, 5, 12, 29, 70)


def test_expand_overflow_reports_largest_safe_K():
    with pytest.raises(RangeError, match=r"largest safe K for this spec is \d+"):
        expand(GOLDEN, 200)


def test_expand_max_is_maximal():
    for spec in (GOLDEN, SILVER, PERIOD12):
        t = expand_max(spec)
        with pytest.raises(RangeError):
            expand(spec, t.K + 1)


def test_finite_list_runs_out():
    spec = QuotientSpec((2, 3, 1), ())
    t = expand_max(spec)
    assert t.K == 3 and t.a_next is None
    with pytest.raises(RangeError):
        expand(spec, 4)


def test_bounds_end_at_the_limit():
    # with a_next known the last bound is q_{K+1} = a_next*q_K + q_{K-1}, the
    # limit; without it the bounds are the q_k alone, the last of them the limit
    with_next = expand(GOLDEN, 5)
    assert with_next.bounds == (1, 1, 2, 3, 5, 8, 13) == (*with_next.q, with_next.limit)
    assert len(with_next.bounds) == with_next.rows + 1
    finite = expand_max(QuotientSpec((2, 3, 1), ()))
    assert finite.a_next is None
    assert finite.bounds == finite.q == (1, 2, 7, 9) and finite.bounds[-1] == finite.limit
    assert len(finite.bounds) == finite.rows + 1
    top = expand_max(GOLDEN)  # q_{K+1} passes 2**63 - 1 and is still the last bound
    assert top.bounds[-1] == top.limit > Q_MAX >= top.q[-1]


@pytest.mark.parametrize("K", [2**63 - 1, 2**63, 2**64, 10**30])
def test_expand_past_sys_maxsize_is_refused(K):
    # the recurrence stops at Q_MAX rows, so no K reaches islice's limit
    with pytest.raises(RangeError, match="largest safe K for this spec is 91"):
        expand(GOLDEN, K)
    with pytest.raises(RangeError, match="exhausted at a_4"):
        expand(QuotientSpec((2, 3, 1), ()), K)


def test_scale_for_covers_and_is_minimal():
    for spec in SPECS:
        for upto in (2, 10, 999, 12345):
            t = scale_for(spec, upto)
            assert t.limit >= upto
            if t.K > 1:
                assert expand(spec, t.K - 1).limit < upto


# The three-pass builders the one recurrence replaced: expand gathers the
# quotients, then runs the recurrence; expand_max runs it to find K, then
# calls expand; scale_for builds the largest table, then calls expand again.

def three_pass_expand(spec, K):
    if K < 1:
        raise ValidationError("K must be >= 1")
    a = [spec.quotient(i) for i in range(1, K + 1)]
    if a[0] > Q_MAX:
        raise RangeError("a_1 alone exceeds 2**63 - 1")
    p, q = [0, 1], [1, a[0]]
    for i in range(1, K):
        nxt = a[i] * q[i] + q[i - 1]
        if nxt > Q_MAX:
            raise RangeError(f"q_{i + 1} exceeds 2**63 - 1; largest safe K for this spec is {i}")
        p.append(a[i] * p[i] + p[i - 1])
        q.append(nxt)
    try:
        a_next = spec.quotient(K + 1)
    except RangeError:
        a_next = None
    return ConvergentTable(spec, tuple(a), tuple(p), tuple(q), a_next)


def three_pass_expand_max(spec):
    K, q_prev, q_cur = 1, 1, spec.quotient(1)
    if q_cur > Q_MAX:
        raise RangeError("a_1 alone exceeds 2**63 - 1")
    while spec.has_quotient(K + 1):
        nxt = spec.quotient(K + 1) * q_cur + q_prev
        if nxt > Q_MAX:
            break
        q_prev, q_cur = q_cur, nxt
        K += 1
    return three_pass_expand(spec, K)


def three_pass_scale_for(spec, upto):
    table = three_pass_expand_max(spec)
    if table.limit < upto:
        if table.a_next is None:
            raise RangeError(f"spec cannot cover n < {upto}: its quotient list ends at "
                             f"a_{table.K}, which covers n < {table.limit}")
        raise RangeError(f"spec cannot cover n < {upto} within the 63-bit budget")
    return three_pass_expand(spec, min(bisect.bisect_left(table.q, upto, 2) - 1, table.K))


def outcome(build, *args):
    try:
        return build(*args)
    except (ValidationError, RangeError) as exc:
        return repr(exc)


@pytest.mark.parametrize("text", [
    "golden", "silver", "periodic:/1,2", "periodic:/1,2,3,1,1,4", "periodic:3,1/7",
    "list:1,2,3,4,5,6,7,8,9,10,11,12", "periodic:/1000", "list:9223372036854775808",
    "list:1099511627776,1099511627776,1099511627776", "periodic:1099511627776/1",
])
def test_one_recurrence_matches_the_three_pass_builders(text):
    # same tables and the same exception reprs: every K up to two past the
    # largest, and 13 upto values from 0 to the limit, plus its edges
    spec = parse_alpha_spec(text)
    top = outcome(three_pass_expand_max, spec)
    assert outcome(expand_max, spec) == top
    K_max = top.K if isinstance(top, ConvergentTable) else 1
    for K in range(-1, K_max + 3):
        assert outcome(expand, spec, K) == outcome(three_pass_expand, spec, K), K
    limit = top.limit if isinstance(top, ConvergentTable) else 2
    uptos = {1, 2, 3, limit - 1, limit + 1, *(limit * j // 12 for j in range(13))}
    for upto in sorted(uptos):
        assert outcome(scale_for, spec, upto) == outcome(three_pass_scale_for, spec, upto), upto


def test_scale_for_rejects_uncoverable():
    with pytest.raises(RangeError):
        scale_for(QuotientSpec((1, 1), ()), 10**6)


def test_digit_bound_rows():
    t = expand(SILVER, 5)
    assert t.digit_bound(0) == 1          # eps_0 < a_1 = 2
    assert all(t.digit_bound(k) == 2 for k in range(1, t.rows))
    with pytest.raises(RangeError):
        t.digit_bound(t.rows)


# --- spec grammar -------------------------------------------------------------

def test_parse_named_specs():
    assert parse_alpha_spec("golden") == GOLDEN
    assert parse_alpha_spec("silver") == SILVER


def test_parse_periodic_and_list():
    assert parse_alpha_spec("periodic:/1,2") == PERIOD12
    assert parse_alpha_spec("periodic:2,1/3,1,4") == MIXED
    assert parse_alpha_spec("list:4,4,4") == QuotientSpec((4, 4, 4), ())


def test_format_round_trip():
    for spec in (*SPECS, QuotientSpec((7,), ())):
        assert parse_alpha_spec(format_alpha_spec(spec)) == spec


@pytest.mark.parametrize(
    "text",
    ["", "gold", "periodic:", "periodic:/", "list:", "list:0,1", "periodic:1,-2/3", "list:a",
     "list:1,,2", "periodic:1,/2"],
)
def test_parse_rejects_garbage(text):
    with pytest.raises(ValidationError):
        parse_alpha_spec(text)


def test_quotientspec_validation():
    with pytest.raises(ValidationError):
        QuotientSpec((0,), (1,))
    with pytest.raises(ValidationError):
        QuotientSpec((), ())
    with pytest.raises(RangeError, match="1-indexed"):
        GOLDEN.quotient(0)


# --- alpha and tail values ----------------------------------------------------

def test_alpha_value_brackets_golden_ratio():
    # golden alpha = (sqrt(5) - 1) / 2
    target = (5 ** 0.5 - 1) / 2
    v = alpha_value(GOLDEN, 30)
    assert abs(v.value - target) <= v.error_bound
    assert v.error_bound < 1e-11


def test_alpha_value_depth_validation():
    with pytest.raises(ValidationError):
        alpha_value(GOLDEN, 1)


def test_tail_validation():
    with pytest.raises(ValidationError, match="lam"):
        tail(GOLDEN, -1)
    with pytest.raises(ValidationError, match="depth"):
        tail(GOLDEN, 3, depth=1)


def test_tail_is_bracketed_by_shifted_convergents():
    # the reported value must sit inside the last convergent bracket of the
    # shifted fraction; strictness is only meaningful while the bracket is
    # wide compared to double resolution
    for spec in (GOLDEN, SILVER, PERIOD12):
        for lam in (1, 2, 5):
            for depth in (8, 14, 20, 25):
                t = tail(spec, lam, depth)
                shifted = [spec.quotient(lam + i) for i in range(1, depth + 2)]
                lo = continued_fraction_value(shifted[:depth])
                hi = continued_fraction_value(shifted[: depth - 1])
                if lo > hi:
                    lo, hi = hi, lo
                if hi - lo >= Fraction(1, 10**12):
                    assert lo < t.value < hi
                deeper = continued_fraction_value(shifted)
                assert abs(t.value - deeper) <= t.error_bound


def test_tail_known_value_golden():
    # every golden tail equals alpha itself: x = 1/(1+x)
    target = (5 ** 0.5 - 1) / 2
    for lam in (1, 3, 10):
        t = tail(GOLDEN, lam)
        assert abs(t.value - target) <= t.error_bound + 1e-15
        assert t.error_bound < 1e-12


def test_tail_known_value_silver():
    # silver tail: x = 1/(2+x) -> x = sqrt(2) - 1
    t = tail(SILVER, 4)
    assert abs(t.value - (2 ** 0.5 - 1)) <= t.error_bound + 1e-15
