"""Functions multiplicative over Ostrowski digits.

An AlphaFunction is stored by its atom table: atoms[k][e] is the value at
e * q_k, and the value at any n is the product of the atoms of its digits
(empty product at n = 0).  The canonical family is g(n) = e(theta * sigma(n));
twisting by e(-n * beta) stays inside the class because n = sum eps_k q_k
splits the phase across digit positions.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .cfrac import ConvergentTable
from .errors import RangeError, ValidationError
from .numeration import encode
from .numerics import check_size, frac_mul_int, unit1

ATOM_UNIT_TOL = 1e-12  # slack for the forced v[k][0] = 1 and |v| <= bound checks

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


@dataclass(frozen=True)
class AlphaFunction:
    """A digit-multiplicative function given by its atom table.

    Row k covers digits 0..a_{k+1} (the row-0 slot at a_1 is carried for
    uniformity but never read, since eps_0 < a_1).  v[k][0] = 1 is forced.
    """

    scale: ConvergentTable
    atoms: tuple[tuple[complex, ...], ...]
    modulus_bound: float = 1.0
    theta: float | None = None  # set when g(n) = e(theta * sigma(n)) exactly

    def __post_init__(self):
        rows = tuple(tuple(complex(v) for v in row) for row in self.atoms)
        scale = self.scale
        if len(rows) != scale.rows:
            raise ValidationError(
                f"atom table has {len(rows)} rows, scale certifies {scale.rows} digit positions"
            )
        value_bound = 1.0  # B = prod_k max_e |v[k][e]|, see VALUE_BOUND_MAX
        for (k, top), row in zip(_rows_for(scale), rows):
            if len(row) != top + 1:
                raise ValidationError(f"atom row {k} has {len(row)} entries, expected {top + 1}")
            if abs(row[0] - 1.0) > ATOM_UNIT_TOL:
                raise ValidationError(f"atom v[{k}][0] = {row[0]} but must equal 1")
            for e, v in enumerate(row):
                if not cmath.isfinite(v):
                    raise ValidationError(f"atom v[{k}][{e}] = {v} is not finite")
            try:
                sizes = [abs(v) for v in row]
            except OverflowError:
                raise ValidationError(
                    f"atom row {k} has a modulus past the float range: correlation sums could overflow"
                ) from None
            for e, size in enumerate(sizes):
                if size > self.modulus_bound + ATOM_UNIT_TOL:
                    raise ValidationError(
                        f"|v[{k}][{e}]| = {size} exceeds modulus bound {self.modulus_bound}"
                    )
            value_bound *= max(1.0, *sizes[1:])
        if value_bound > VALUE_BOUND_MAX:
            raise ValidationError(
                f"atom table value bound {value_bound:.3g} exceeds {VALUE_BOUND_MAX:.3g}: "
                "correlation sums could overflow"
            )
        if value_bound**2 * scale.limit > FLOAT_MAX:
            raise ValidationError(
                f"atom table value bound {value_bound:.3g} squared times the scale limit "
                f"{scale.limit} passes the float range: correlation sums could overflow"
            )
        object.__setattr__(self, "atoms", tuple((1 + 0j,) + row[1:] for row in rows))

    @property
    def is_unimodular(self) -> bool:
        return all(abs(abs(v) - 1.0) <= ATOM_UNIT_TOL for row in self.atoms for v in row)


def _rows_for(scale: ConvergentTable):
    """(k, digit ceiling a_{k+1}) for every certified digit position."""
    for k in range(scale.rows):
        yield k, (scale.quotients[k] if k < scale.K else scale.a_next)


def from_theta(theta: float, scale: ConvergentTable) -> AlphaFunction:
    """g(n) = e(theta * sigma(n)): every atom at digit e is e(theta * e)."""
    atoms = tuple(
        tuple(unit1(frac_mul_int(e, theta)) for e in range(top + 1))
        for _, top in _rows_for(scale)
    )
    return AlphaFunction(scale, atoms, 1.0, float(theta))


def twist(g: AlphaFunction, beta: float) -> AlphaFunction:
    """Pointwise product with e(-n * beta), realized on the atom table.

    The phase of the atom at e * q_k picks up -e * q_k * beta; reduction mod 1
    goes through exact integer arithmetic (q_k can be as large as 2**63).
    beta = 0 leaves every atom untouched.
    """
    scale = g.scale
    atoms = tuple(
        tuple(
            v * unit1(frac_mul_int(e * scale.q[k], -beta))
            for e, v in enumerate(row)
        )
        for k, row in enumerate(g.atoms)
    )
    return AlphaFunction(scale, atoms, g.modulus_bound, g.theta if beta == 0.0 else None)


def evaluate(g: AlphaFunction, n: int) -> complex:
    """g(n) as the product of digit atoms, in increasing digit order."""
    out = complex(1.0)
    for k, e in enumerate(encode(n, g.scale).digits):
        if e:
            out *= g.atoms[k][e]
    return out


def values_range(g: AlphaFunction, count: int) -> np.ndarray:
    """g(n) for n = 0..count-1 as one complex array.

    Level-by-level assembly: the values over [0, q_{i+1}) are a copies of the
    block over [0, q_i) scaled by the atoms at position i, plus a final copy
    of the block over [0, q_{i-1}) scaled by the maximal atom.  Atom products
    accumulate in increasing digit order, the same order evaluate uses; the
    two paths agree exactly when the atoms are exactly representable and to a
    few ulps per factor otherwise (vector and scalar complex products round
    differently).  Prefixes are stable: a longer build extends a shorter one
    bit for bit.
    """
    if count < 0 or count > g.scale.limit:
        raise RangeError(f"count={count} outside [0, {g.scale.limit}] for this scale")
    check_size(count, "values_range")
    if count == 0:
        return np.zeros(0, dtype=np.complex128)
    prev = np.ones(1, dtype=np.complex128)  # values over [0, q_0)
    if count == 1:
        return prev.copy()
    q1 = g.scale.q[1]
    cur = np.array(g.atoms[0][:q1], dtype=np.complex128)  # single-digit values
    i = 1
    while len(cur) < count:
        row = g.atoms[i]
        a = len(row) - 1
        out_len = min(a * len(cur) + len(prev), count)
        out = np.empty(out_len, dtype=np.complex128)
        pos = 0
        for b in range(a):
            if pos >= out_len:
                break
            take = min(len(cur), out_len - pos)
            if b == 0:
                out[pos : pos + take] = cur[:take]
            else:
                np.multiply(cur[:take], row[b], out=out[pos : pos + take])
            pos += take
        if pos < out_len:
            take = min(len(prev), out_len - pos)
            np.multiply(prev[:take], row[a], out=out[pos : pos + take])
            pos += take
        if out_len >= count:
            return out[:count]
        prev, cur = cur, out
        i += 1
    return cur[:count]


def load_atoms(document: str | dict, scale: ConvergentTable) -> AlphaFunction:
    """Build an AlphaFunction from a JSON atom table.

    The document maps digit positions to rows of [re, im] pairs:
    {"0": [[1,0], [re,im], ...], "1": ...}.  Every certified position needs a
    row; AlphaFunction checks its length (a_{k+1} + 1), v[k][0] = 1 and that
    every atom is finite and that the atom products B stay below
    VALUE_BOUND_MAX, with B**2 times the scale limit below FLOAT_MAX.  The
    modulus bound is taken as the largest atom modulus found.
    """
    try:
        data = json.loads(document) if isinstance(document, str) else document
    except json.JSONDecodeError as exc:
        raise ValidationError(f"atom table is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("atom table must be a JSON object of rows")
    rows = []
    for k in range(scale.rows):
        key = str(k)
        if key not in data:
            raise ValidationError(f"atom table missing row {k}")
        raw = data[key]
        if not isinstance(raw, list) or not all(isinstance(p, list) and len(p) == 2 for p in raw):
            raise ValidationError(f"atom row {k} must be a list of [re, im] pairs")
        try:
            rows.append(tuple(complex(float(re), float(im)) for re, im in raw))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"atom row {k} entries must be [re, im] pairs of numbers") from exc
    # hypot, not abs: abs(v) raises OverflowError where |v| passes the float range
    bound = max((math.hypot(v.real, v.imag) for row in rows for v in row), default=1.0)
    return AlphaFunction(scale, tuple(rows), bound, None)


# --- function spec grammar ---------------------------------------------------

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
