"""Functions multiplicative over Ostrowski digits.

An AlphaFunction is stored by its atom table, one read-only array whose row
k holds atoms[k][e], the value at e * q_k; the value at any n is the product
of the atoms of its digits (empty product at n = 0).  The canonical family is
g(n) = e(theta * sigma(n)); twisting by e(-n * beta) stays inside the class
because n = sum eps_k q_k splits the phase across digit positions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .cfrac import ConvergentTable, parse_alpha_spec, scale_for
from .errors import CapError, RangeError, ValidationError
from .numeration import encode
from .numerics import check_size, frac_mul_array, unit

ATOM_UNIT_TOL = 1e-12  # slack for the forced v[k][0] = 1 and for is_unimodular

# Largest value bound B = prod_k max_e |v[k][e]| an atom table may have.  No
# value g(n), and no partial product values_range forms, exceeds B, and a
# transform of at most 2**26 such values stays below (2**26 * B)**2.  The
# largest intermediate of any estimator is an accumulated correlation sum,
# |c(r)| <= N * B**2 with N below the scale limit, which passes 2**64 for
# some specs (periodic:/1000 reaches 2**69.8), so a table is also refused
# where B**2 times its scale's limit passes FLOAT_MAX.  Past either bound such
# a sum could overflow to inf and the result to NaN.
FLOAT_MAX = float(np.finfo(np.float64).max)
VALUE_BOUND_MAX = math.sqrt(FLOAT_MAX / 2.0**64)

# Most atoms a table may hold over all its rows (about 50 MB traced while it
# is built: 43 MB by from_theta, 50 MB by load_atoms of a parsed document);
# a scale whose digit ceilings sum past it is refused before any row is built.
ATOM_CAP = 1 << 20


@dataclass(frozen=True, eq=False)
class AlphaFunction:
    """A digit-multiplicative function given by its atom table.

    Row k covers digits 0..a_{k+1} (the row-0 slot at a_1 is carried for
    uniformity but never read, since eps_0 < a_1).  v[k][0] = 1 is forced.
    The rows, of any sequence type, are copied into one read-only complex128
    array flat (row k is flat[starts[k]:starts[k+1]], atoms[k] its view) and
    checked there once, with no modulus bound (B of VALUE_BOUND_MAX bounds
    every value).  Tables are equal only when they are one object.
    """

    scale: ConvergentTable
    atoms: tuple[np.ndarray, ...]
    theta: float | None = field(default=None, kw_only=True)  # set when g(n) = e(theta * sigma(n)) exactly
    flat: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tops = np.array(_row_tops(self.scale))  # CapError before any row is read
        if len(self.atoms) != len(tops):
            raise ValidationError(f"atom table has {len(self.atoms)} rows, "
                                  f"scale certifies {len(tops)} digit positions")
        lengths = np.array([len(row) for row in self.atoms])
        # each check refuses at its first offender ([:1]), if there is one
        for k in np.flatnonzero(lengths != tops + 1)[:1].tolist():
            raise ValidationError(f"atom row {k} has {lengths[k]} entries, expected {tops[k] + 1}")
        flat, starts = np.concatenate(self.atoms, dtype=np.complex128), np.r_[0, np.cumsum(lengths)]
        for k in np.flatnonzero(np.abs(flat[starts[:-1]] - 1.0) > ATOM_UNIT_TOL)[:1].tolist():
            raise ValidationError(f"atom v[{k}][0] = {flat[starts[k]].item()} but must equal 1")
        for i in np.flatnonzero(~np.isfinite(flat))[:1].tolist():
            k = int(np.searchsorted(starts, i, side="right")) - 1
            raise ValidationError(f"atom v[{k}][{i - starts[k]}] = {flat[i].item()} is not finite")
        flat[starts[:-1]] = 1.0
        with np.errstate(over="ignore"):  # a modulus past the float range is inf, refused below
            sizes = np.hypot(flat.real, flat.imag)
        # B = prod_k max(1, max_e |v[k][e]|), see VALUE_BOUND_MAX
        value_bound = math.prod(np.maximum.reduceat(sizes, starts[:-1]).tolist())
        if value_bound > VALUE_BOUND_MAX:
            raise ValidationError(f"atom table value bound {value_bound:.3g} exceeds "
                                  f"{VALUE_BOUND_MAX:.3g}: correlation sums could overflow")
        if value_bound**2 * self.scale.limit > FLOAT_MAX:
            raise ValidationError(f"atom table value bound {value_bound:.3g} squared times the "
                                  f"scale limit {self.scale.limit} passes the float range: "
                                  "correlation sums could overflow")
        flat.flags.writeable = starts.flags.writeable = False
        rows = tuple(flat[s:e] for s, e in pairwise(starts.tolist()))
        for name, value in (("flat", flat), ("starts", starts), ("atoms", rows)):
            object.__setattr__(self, name, value)

    @property
    def is_unimodular(self) -> bool:
        return bool(np.all(np.abs(np.abs(self.flat) - 1.0) <= ATOM_UNIT_TOL))


def _row_tops(scale: ConvergentTable) -> list[int]:
    """The digit ceiling a_{k+1} of every certified position k; CapError past ATOM_CAP atoms."""
    tops = [*scale.quotients, scale.a_next][: scale.rows]
    count = sum(tops) + len(tops)
    if count > ATOM_CAP:
        raise CapError(f"atom table needs {count} atoms, past the cap {ATOM_CAP}")
    return tops


def from_theta(theta: float, scale: ConvergentTable) -> AlphaFunction:
    """g(n) = e(theta * sigma(n)): every atom at digit e is e(theta * e), each row a prefix of one array."""
    tops = _row_tops(scale)
    e = unit(frac_mul_array(np.arange(max(tops) + 1), theta))
    return AlphaFunction(scale, [e[: top + 1] for top in tops], theta=float(theta))


def _multipliers(q, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the digits b >= 1 sit among the atoms of rows of the given lengths
    (a flat boolean mask in row order), and their multipliers b * q_k: int64,
    or Python ints where one passes 2**63 - 1 (frac_mul_array reduces either
    exactly).  Digit 0 has phase 0 at every beta, so no twist reduces it."""
    top = max(((n - 1) * qk for n, qk in zip(lengths.tolist(), q)), default=0)
    dtype = np.int64 if top < 1 << 63 else object
    b = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return b >= 1, b[b >= 1].astype(dtype) * np.repeat(np.array(q[: len(lengths)], dtype=dtype), lengths - 1)


def _twisted(atoms: np.ndarray, mult: np.ndarray, beta) -> np.ndarray:
    """atoms * e(-mult * beta) by one exact reduction; B betas give B rows, each the one-beta call's."""
    return atoms * unit(frac_mul_array(mult, -beta))


@dataclass(frozen=True)
class _Rows:
    """Atom rows of g laid out for batched twists: atoms and mult are the atoms
    v_k(b) and multipliers (_multipliers) of the digits 1 <= b <= last[k] of
    each row k, flat; moved marks their places, column 1 + b of row k, in the
    padded (K, W + 1) layout that sums twists into."""

    atoms: np.ndarray
    mult: np.ndarray
    moved: np.ndarray
    last: np.ndarray

    @classmethod
    def of(cls, g: AlphaFunction, K: int, width: int | None = None) -> "_Rows":
        """Rows 0..K-1 of g, the last cut to its first width atoms (default: all of them)."""
        lengths = np.diff(g.starts[: K + 1])
        lengths[-1:] = lengths[-1:] if width is None else width
        moved, mult = _multipliers(g.scale.q, lengths)
        col = np.arange(1 + lengths.max(initial=0))  # the layout is row-major: the flat order
        return cls(g.flat[: lengths.sum()][moved], mult, (col >= 2) & (col <= lengths[:, None]), lengths - 1)

    def sums(self, betas: np.ndarray, *digits) -> list[tuple[np.ndarray, np.ndarray]]:
        """The rows of g twisted by each of B betas, read at digit arrays d of shape (K,) or (B, K).

        Per d, a pair of (K, B) arrays: at [k, j], the sum over b < d[j, k] of
        row k of twist(g, betas[j]), added from b = 0 up, and its atom at
        d[j, k].  One twist serves every d."""
        h = np.zeros((len(betas),) + self.moved.shape, np.complex128)
        h[:, :, 1:2] = 1.0  # v_k(0) = 1 (a slice: a table of no rows has no column 1)
        h[:, self.moved] = _twisted(self.atoms, self.mult, betas)
        below = np.cumsum(h, axis=2)  # column d: the sum over b < d (columns 0 and past a row are 0)
        j, k = np.arange(len(betas))[:, None], np.arange(len(self.last))
        return [(below[j, k, d].T, h[j, k, d + 1].T) for d in digits]


def twist(g: AlphaFunction, beta: float) -> AlphaFunction:
    """Pointwise product with e(-n * beta), realized on the atom table.

    The phase of the atom at e * q_k picks up -e * q_k * beta: _twisted of one
    copy of g.flat, no row padded, as _Rows.sums (scale_sums and the spectrum
    probes) does for many betas.  beta = 0 leaves every atom as is.
    """
    moved, mult = _multipliers(g.scale.q, np.diff(g.starts))
    h = g.flat.copy()
    h[moved] = _twisted(h[moved], mult, beta)
    rows = [h[s:e] for s, e in pairwise(g.starts.tolist())]
    return AlphaFunction(g.scale, rows, theta=g.theta if beta == 0.0 else None)


def evaluate(g: AlphaFunction, n: int) -> complex:
    """g(n) as the product of digit atoms, in increasing digit order."""
    out = complex(1.0)
    for k, e in enumerate(encode(n, g.scale).digits):
        if e:
            out *= g.atoms[k].item(e)  # Python's complex product: numpy's scalar one rounds otherwise
    return out


def values_range(g: AlphaFunction, count: int) -> np.ndarray:
    """g(n) for n = 0..count-1 as one complex array, allocated once.

    Level by level: the values over [0, q_{i+1}) are g on [0, q_i) times
    v_i(b) for each b < a = a_{i+1}, then g on [0, q_{i-1}) times v_i(a).
    Both sources are prefixes already written, so copy b = 0 is the prefix
    itself and each other copy is one multiply into the next free slots, up
    to count.  Atom products accumulate in increasing digit order, as in
    evaluate: the two agree exactly when the atoms are exactly representable
    and to a few ulps per factor otherwise (vector and scalar complex
    products round differently).  A longer build extends a shorter one bit
    for bit.
    """
    if count < 0 or count > g.scale.limit:
        raise RangeError(f"count={count} outside [0, {g.scale.limit}] for this scale")
    check_size(count, "values_range")
    q = g.scale.q
    out = np.empty(count, dtype=np.complex128)
    size = min(q[1], count)
    out[:size] = g.atoms[0][:size]  # single-digit values; v_0(0) = 1 at n = 0
    i = 1
    while size < count:
        row = g.atoms[i]
        for b in range(1, len(row)):
            take = min(q[i] if b < len(row) - 1 else q[i - 1], count - size)
            np.multiply(out[:take], row[b], out=out[size : size + take])
            size += take
            if size == count:
                break
        i += 1
    return out


def load_atoms(document: str | dict, scale: ConvergentTable) -> AlphaFunction:
    """Build an AlphaFunction from a JSON atom table.

    The document maps digit positions to rows of [re, im] pairs:
    {"0": [[1,0], [re,im], ...], "1": ...}.  Every certified position needs a
    row; AlphaFunction checks its length (a_{k+1} + 1), v[k][0] = 1, that
    every atom is finite, and the product B of the rows' largest moduli (see
    VALUE_BOUND_MAX).  No modulus bound is asked for: B bounds every value.
    """
    try:
        data = json.loads(document) if isinstance(document, str) else document
    except json.JSONDecodeError as exc:
        raise ValidationError(f"atom table is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("atom table must be a JSON object of rows")
    rows = []
    for k in range(len(_row_tops(scale))):  # CapError before any row is parsed
        if str(k) not in data:
            raise ValidationError(f"atom table missing row {k}")
        try:
            pairs = np.array(data[str(k)], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"atom row {k} entries must be [re, im] pairs of numbers") from exc
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError(f"atom row {k} must be a list of [re, im] pairs")
        rows.append(pairs.view(np.complex128).ravel())  # each pair's bits as one complex
    return AlphaFunction(scale, rows)


# --- function spec grammar ---------------------------------------------------

def fn_for(alpha_spec: str, fn_spec: str, upto: int) -> AlphaFunction:
    """The fn spec parsed against alpha_spec's table for n < upto, which is then g.scale."""
    return parse_fn_spec(fn_spec, scale_for(parse_alpha_spec(alpha_spec), upto))


def parse_fn_spec(text: str, scale: ConvergentTable) -> AlphaFunction:
    """Parse a function spec string against a scale.

    Grammar: ``theta:<real>`` | ``theta:<real>+beta:<real>`` | ``atoms:<path>``
    | ``atoms:<path>+beta:<real>``.
    """
    t = text.strip()
    beta = None
    if "+beta:" in t:
        t, beta_part = t.split("+beta:", 1)
        try:
            beta = float(beta_part)
        except ValueError as exc:
            raise ValidationError(f"bad beta value {beta_part!r}") from exc
    if ":" not in t:
        raise ValidationError(f"unrecognized function spec {text!r}")
    name, arg = t.split(":", 1)
    if name == "theta":
        try:
            theta = float(arg)
        except ValueError as exc:
            raise ValidationError(f"bad theta value {arg!r}") from exc
        g = from_theta(theta, scale)
    elif name == "atoms":
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                document = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read atom table {arg!r}: {exc}") from exc
        g = load_atoms(document, scale)
    else:
        raise ValidationError(f"unknown function family {name!r} in {text!r}")
    return twist(g, beta) if beta is not None else g
