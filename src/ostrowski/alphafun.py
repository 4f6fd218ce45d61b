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
from .errors import CapError, RangeError, ValidationError
from .numeration import encode
from .numerics import check_size, frac_mul_array, unit

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

# Most atoms a table may hold over all its rows (about 80 MB while it is
# built); a scale whose digit ceilings sum past it is refused before any row
# is built.
ATOM_CAP = 1 << 20


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
        for k, (top, row) in enumerate(zip(_row_tops(scale), rows)):
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


def _row_tops(scale: ConvergentTable) -> list[int]:
    """The digit ceiling a_{k+1} of every certified position k; CapError past ATOM_CAP atoms."""
    tops = [scale.quotients[k] if k < scale.K else scale.a_next for k in range(scale.rows)]
    count = sum(tops) + len(tops)
    if count > ATOM_CAP:
        raise CapError(f"atom table needs {count} atoms, past the cap {ATOM_CAP}")
    return tops


def from_theta(theta: float, scale: ConvergentTable) -> AlphaFunction:
    """g(n) = e(theta * sigma(n)): every atom at digit e is e(theta * e), one row sliced per row."""
    tops = _row_tops(scale)
    e = unit(frac_mul_array(np.arange(max(tops) + 1), theta)).tolist()
    return AlphaFunction(scale, tuple(tuple(e[: top + 1]) for top in tops), 1.0, float(theta))


@dataclass(frozen=True)
class _Rows:
    """Atom rows of g laid out for batched twists.

    atoms[k, 1 + b] = v_k(b) and mult[k, 1 + b] = b * q_k for each digit
    b <= last[k] of row k; column 0 and the columns past a row's end hold a
    zero atom, so prefix sums along a row start from 0.  mult is int64, or
    an object array of Python ints where a top-row multiplier passes
    2**63 - 1 (frac_mul_array reduces either exactly).
    """

    atoms: np.ndarray
    mult: np.ndarray
    last: np.ndarray

    @classmethod
    def of(cls, g: AlphaFunction, rows) -> "_Rows":
        q = g.scale.q
        atoms = np.zeros((len(rows), 1 + max(map(len, rows), default=0)), dtype=np.complex128)
        mult = [[0] * atoms.shape[1] for _ in rows]
        for k, row in enumerate(rows):
            atoms[k, 1 : len(row) + 1] = row
            mult[k][1 : len(row) + 1] = range(0, len(row) * q[k], q[k])
        top = max(((len(row) - 1) * q[k] for k, row in enumerate(rows)), default=0)
        mult = np.array(mult, dtype=np.int64 if top < 1 << 63 else object).reshape(atoms.shape)
        return cls(atoms, mult, np.array([len(row) - 1 for row in rows], dtype=np.intp))

    def twist(self, betas: np.ndarray) -> np.ndarray:
        """The rows of g twisted by each of B betas, a (B, K, W + 1) array.

        Entry [j, k, 1 + b] is v_k(b) e(-b * q_k * betas[j]); every phase
        comes from one batched exact reduction.  Columns 0 (no atom) and
        1 (b = 0) keep phase 0.
        """
        h = np.repeat(self.atoms[None], len(betas), axis=0)
        h[:, :, 2:] *= unit(frac_mul_array(self.mult[:, 2:], -betas))
        return h


def twist(g: AlphaFunction, beta: float) -> AlphaFunction:
    """Pointwise product with e(-n * beta), realized on the atom table.

    The phase of the atom at e * q_k picks up -e * q_k * beta, reduced
    exactly for every multiplier (a top row may pass 2**63): the one-beta
    case of _Rows.twist, the twist the spectrum probes and scale_sums run.
    beta = 0 leaves every atom untouched.
    """
    h = _Rows.of(g, g.atoms).twist(np.array([beta], dtype=np.float64))[0]
    atoms = tuple(tuple(h[k, 1 : len(row) + 1].tolist()) for k, row in enumerate(g.atoms))
    return AlphaFunction(g.scale, atoms, g.modulus_bound, g.theta if beta == 0.0 else None)


def evaluate(g: AlphaFunction, n: int) -> complex:
    """g(n) as the product of digit atoms, in increasing digit order."""
    out = complex(1.0)
    for k, e in enumerate(encode(n, g.scale).digits):
        if e:
            out *= g.atoms[k][e]
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
    for k in range(len(_row_tops(scale))):  # CapError before any row is parsed
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
