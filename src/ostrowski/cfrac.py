"""Continued fractions: partial-quotient specs, convergent tables, tail values.

The convergent denominators q_0 <= q_1 <= ... built here are the scale of the
Ostrowski numeration system; everything else in the package hangs off a
ConvergentTable.  alpha itself is never accepted as a decimal: specs name the
partial quotients exactly, so all integer structure stays exact.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, islice, takewhile

from .errors import RangeError, ValidationError

# Convergent denominators are kept within this budget so that downstream
# integer work (digits, block starts, phase reduction) stays in 64-bit range.
Q_MAX = (1 << 63) - 1

_PRESETS = {
    "golden": ((), (1,)),
    "silver": ((), (2,)),
}


@dataclass(frozen=True)
class QuotientSpec:
    """Partial quotients a_1, a_2, ... given as a preperiod plus repeating period.

    An empty period means the list is explicit and finite: indexed access past
    its end raises RangeError.
    """

    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(int(a) for a in self.preperiod))
        object.__setattr__(self, "period", tuple(int(a) for a in self.period))
        if not self.preperiod and not self.period:
            raise ValidationError("quotient spec needs at least one partial quotient")
        if any(a < 1 for a in self.preperiod + self.period):
            raise ValidationError("partial quotients must be integers >= 1")

    def quotient(self, i: int) -> int:
        """a_i, 1-indexed."""
        if i < 1:
            raise RangeError(f"quotient index {i} < 1 (quotients are 1-indexed)")
        if i <= len(self.preperiod):
            return self.preperiod[i - 1]
        if not self.period:
            raise RangeError(
                f"explicit quotient list exhausted at a_{i} "
                f"(only {len(self.preperiod)} quotients given)"
            )
        return self.period[(i - len(self.preperiod) - 1) % len(self.period)]

    def has_quotient(self, i: int) -> bool:
        return 1 <= i <= len(self.preperiod) or (i >= 1 and bool(self.period))


GOLDEN = QuotientSpec(*_PRESETS["golden"])
SILVER = QuotientSpec(*_PRESETS["silver"])


def parse_int_list(body: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; a blank entry is refused, a blank string is ()."""
    body = body.strip()
    if not body:
        return ()
    try:
        return tuple(int(tok) for tok in body.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad {what} {body!r}: comma-separated integers expected") from exc


def parse_alpha_spec(text: str) -> QuotientSpec:
    """Parse an alpha spec string.

    Grammar: ``golden`` | ``silver`` | ``periodic:<pre>/<per>`` | ``list:<a,b,...>``
    where <pre> and <per> are comma-separated quotient lists (<pre> may be
    empty, e.g. ``periodic:/1,2`` for the purely periodic [1,2]).
    """
    t = text.strip()
    if t in _PRESETS:
        return QuotientSpec(*_PRESETS[t])
    if t.startswith("periodic:"):
        body = t[len("periodic:"):]
        if "/" not in body:
            raise ValidationError(f"periodic spec {text!r} needs '<preperiod>/<period>'")
        pre, per = body.split("/", 1)
        return QuotientSpec(parse_int_list(pre, "preperiod"), parse_int_list(per, "period"))
    if t.startswith("list:"):
        return QuotientSpec(parse_int_list(t[len("list:"):], "quotient list"), ())
    raise ValidationError(f"unrecognized alpha spec {text!r}")


def format_alpha_spec(spec: QuotientSpec) -> str:
    for name, parts in _PRESETS.items():
        if (spec.preperiod, spec.period) == parts:
            return name
    if spec.period:
        return "periodic:%s/%s" % (
            ",".join(map(str, spec.preperiod)),
            ",".join(map(str, spec.period)),
        )
    return "list:" + ",".join(map(str, spec.preperiod))


@dataclass(frozen=True)
class TailValue:
    """A real number in (0, 1) together with a certified absolute error bound."""

    value: float
    error_bound: float


@dataclass(frozen=True)
class ConvergentTable:
    """Convergents p_i/q_i for i = 0..K, plus digit-bound metadata.

    p_0 = 0, q_0 = 1, p_1 = 1, q_1 = a_1, then the usual two-term recurrence.
    a_next is a_{K+1} when the quotient sequence provides it; with it the
    table can encode
    every n < q_{K+1}, without it the usable range stops at q_K.
    """

    spec: QuotientSpec
    quotients: tuple[int, ...]  # a_1..a_K
    p: tuple[int, ...]
    q: tuple[int, ...]
    a_next: int | None

    @property
    def K(self) -> int:
        return len(self.q) - 1

    @property
    def limit(self) -> int:
        """Smallest integer the table cannot represent."""
        if self.a_next is None:
            return self.q[-1]
        return self.a_next * self.q[-1] + self.q[-2]

    def digit_bound(self, k: int) -> int:
        """Largest legal Ostrowski digit at position k (a_1 - 1 at k = 0)."""
        if k == 0:
            return self.quotients[0] - 1
        if k < self.K:
            return self.quotients[k]
        if k == self.K and self.a_next is not None:
            return self.a_next
        raise RangeError(f"digit position {k} beyond this table (K={self.K})")

    @property
    def rows(self) -> int:
        """Number of digit positions with a known bound: digits 0..rows-1."""
        return self.K + 1 if self.a_next is not None else self.K


def _convergents(spec: QuotientSpec) -> Iterator[tuple[int, int, int]]:
    """(a_i, p_i, q_i) for i = 1, 2, ... while the quotients last and q_i <= Q_MAX.

    The table builders' one run of the recurrence, from p_{-1}, q_{-1} = 1, 0.
    """
    p_prev, q_prev, p, q = 1, 0, 0, 1
    for a in map(spec.quotient, takewhile(spec.has_quotient, count(1))):
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        if q > Q_MAX:
            return
        yield a, p, q


def _table(spec: QuotientSpec, rows: list[tuple[int, int, int]]) -> ConvergentTable:
    """The table through K = len(rows) from the rows (a_i, p_i, q_i), i = 1..K."""
    if not rows:
        raise RangeError("a_1 alone exceeds 2**63 - 1")
    a, p, q = zip(*rows)
    a_next = spec.quotient(len(a) + 1) if spec.has_quotient(len(a) + 1) else None
    return ConvergentTable(spec, a, (0, *p), (1, *q), a_next)


def expand(spec: QuotientSpec, K: int) -> ConvergentTable:
    """Convergent table through index K: the first K rows of the recurrence.

    Raises RangeError if an explicit quotient list is too short (before any
    denominator is checked) or if a denominator would pass 2**63 - 1
    (reporting the largest safe K).  The slice stops at Q_MAX rows, which no
    table reaches, so a K past sys.maxsize gets that refusal too.
    """
    if K < 1:
        raise ValidationError("K must be >= 1")
    if not spec.has_quotient(K):
        spec.quotient(len(spec.preperiod) + 1)  # RangeError naming the first missing quotient
    rows = list(islice(_convergents(spec), min(K, Q_MAX)))
    if rows and len(rows) < K:
        raise RangeError(
            f"q_{len(rows) + 1} exceeds 2**63 - 1; largest safe K for this spec is {len(rows)}"
        )
    return _table(spec, rows)


def expand_max(spec: QuotientSpec) -> ConvergentTable:
    """Largest table whose denominators stay within the 63-bit budget: every row of the recurrence."""
    return _table(spec, list(_convergents(spec)))


def scale_for(spec: QuotientSpec, upto: int) -> ConvergentTable:
    """A table able to encode every n < upto (minimal K that covers it).

    Below the largest table's K, the table through K has limit q_{K+1}, so
    the recurrence stops at the first q_i >= upto with i >= 2 and K = i - 1.
    Otherwise the largest table is the answer, if its limit covers upto.
    """
    rows = []
    for row in _convergents(spec):
        if rows and row[2] >= upto:
            return _table(spec, rows)
        rows.append(row)
    table = _table(spec, rows)
    if table.limit < upto:
        if table.a_next is None:
            raise RangeError(f"spec cannot cover n < {upto}: its quotient list ends at "
                             f"a_{table.K}, which covers n < {table.limit}")
        raise RangeError(f"spec cannot cover n < {upto} within the 63-bit budget")
    return table


def alpha_value(spec: QuotientSpec, depth: int) -> TailValue:
    """p_depth / q_depth with the classical error bound 1/(q_depth * q_{depth+1})."""
    if depth < 2:
        raise ValidationError("depth must be >= 2")
    t = expand(spec, depth + 1)  # one extra index feeds the error bound
    return TailValue(t.p[depth] / t.q[depth], 1.0 / (t.q[depth] * t.q[depth + 1]))


def tail(spec: QuotientSpec, lam: int, depth: int = 40) -> TailValue:
    """Value of the shifted continued fraction [0; a_{lam+1}, a_{lam+2}, ...].

    Backward evaluation over `depth` quotients, seeded at 1/2.  Any seed in
    (0, 1) lands the result strictly inside the bracket spanned by the shifted
    fraction's convergents at depths depth-1 and depth, and the true tail lies
    in the same bracket, so the bracket width (plus a little float slack) is a
    rigorous error bound.  At the default depth the bound is far below 1e-12.
    """
    if lam < 0:
        raise ValidationError("lam must be >= 0")
    if depth < 2:
        raise ValidationError("depth must be >= 2")
    b = [spec.quotient(lam + i) for i in range(1, depth + 1)]
    x = 0.5
    for a in reversed(b):
        x = 1.0 / (a + x)
    # denominators of the shifted fraction give the bracket width
    q_prev, q_cur = 1, b[0]
    for a in b[1:]:
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return TailValue(x, 1.0 / (q_prev * q_cur) + 1e-14)
