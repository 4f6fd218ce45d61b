"""Atom tables: construction, evaluation routes, twisting, serialization.

Oracles: phases recomputed through fractions.Fraction (exact binary value of
the float argument) and cmath, independent of the package's own bigint phase
reduction.
"""

import cmath
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ostrowski import (
    GOLDEN,
    SILVER,
    AlphaFunction,
    CapError,
    RangeError,
    ValidationError,
    encode,
    evaluate,
    expand_max,
    from_theta,
    load_atoms,
    parse_alpha_spec,
    parse_fn_spec,
    psi,
    scale_for,
    sigma,
    twist,
    values_range,
)
import ostrowski.alphafun as alphafun
from ostrowski.alphafun import VALUE_BOUND_MAX, _Rows
from ostrowski.numerics import RANGE_CAP, frac_mul_array, unit

THETAS = (0.5, 1 / 3, 0.1234567, 0.0)


def unit_fraction(phase: Fraction) -> complex:
    """e(phase) with the phase reduced exactly in rationals first."""
    return cmath.exp(2j * cmath.pi * float(phase % 1))


# --- construction and validation ------------------------------------------------

def test_from_theta_rows_match_scale():
    scale = scale_for(SILVER, 500)
    g = from_theta(0.5, scale)
    assert len(g.atoms) == scale.rows
    for k, row in enumerate(g.atoms):
        assert len(row) == scale.digit_bound(k) + 1 or k == 0
    assert g.theta == 0.5 and g.is_unimodular


def test_quarter_turn_atoms_are_exact():
    scale = scale_for(GOLDEN, 500)
    assert all(v in (1 + 0j, -1 + 0j) for row in from_theta(0.5, scale).atoms for v in row)
    assert all(
        v in (1 + 0j, 1j, -1 + 0j, -1j) for row in from_theta(0.25, scale).atoms for v in row
    )


def row_top(scale, k):
    """Digit ceiling a_{k+1} of atom row k (row 0 keeps the unread a_1 slot)."""
    return scale.quotients[k] if k < scale.K else scale.a_next


@pytest.mark.parametrize("spec", ["golden", "silver", "periodic:/1,2,3,1,1,4", "periodic:/1000"])
@pytest.mark.parametrize("theta", [0.1234567, 1 / 3, 0.5, 0.25, 0.0, -0.3])
def test_from_theta_atoms_are_the_correctly_rounded_phases(spec, theta):
    # one reduction of 0..max digit, sliced per row: for theta >= 0 each atom
    # is e() of the correctly rounded (e * theta) mod 1, bit for bit; a
    # negative theta mirrors the phase with one more rounding (2**-53)
    scale = expand_max(parse_alpha_spec(spec))
    g = from_theta(theta, scale)
    top = max(map(len, g.atoms))
    want = np.array([complex(unit(float((Fraction(theta) * e) % 1) % 1.0)) for e in range(top)])
    for row in g.atoms:
        got = np.array(row)
        if theta >= 0:
            assert np.array_equal(got.view(np.float64), want[: len(row)].view(np.float64))
        else:
            assert np.max(np.abs(got - want[: len(row)])) <= 1e-15


def test_atom_tables_past_the_atom_cap_are_refused(monkeypatch):
    # periodic:/1000 has 7007 atoms over its 7 rows: at the cap it builds,
    # one atom under it every route refuses before building a row
    scale = expand_max(parse_alpha_spec("periodic:/1000"))
    rows = from_theta(0.3, scale).atoms
    assert sum(map(len, rows)) == 7007
    monkeypatch.setattr(alphafun, "ATOM_CAP", 7007)
    from_theta(0.3, scale)
    monkeypatch.setattr(alphafun, "ATOM_CAP", 7006)
    monkeypatch.setattr(alphafun, "frac_mul_array", lambda *a: pytest.fail("row built"))
    with pytest.raises(CapError, match="7007 atoms"):
        from_theta(0.3, scale)
    with pytest.raises(CapError, match="7007 atoms"):
        load_atoms({}, scale)  # refused before the missing row 0 is looked for
    with pytest.raises(CapError, match="7007 atoms"):
        AlphaFunction(scale, rows)


def test_atom_validation_errors():
    scale = scale_for(GOLDEN, 30)  # rows for q = 1,1,2,3,.. digits
    rows = [[1.0] * (row_top(scale, k) + 1) for k in range(scale.rows)]
    AlphaFunction(scale, tuple(tuple(r) for r in rows))  # baseline is fine
    bad = [list(r) for r in rows]
    bad[1][0] = 0.5
    with pytest.raises(ValidationError, match="must equal 1"):
        AlphaFunction(scale, tuple(tuple(r) for r in bad))
    wide = [list(r) for r in rows]
    wide[2][1] = 3.0  # no modulus bound: any atom is taken while the value bound holds
    assert AlphaFunction(scale, tuple(tuple(r) for r in wide)).atoms[2][1] == 3.0
    with pytest.raises(ValidationError, match="rows"):
        AlphaFunction(scale, tuple(tuple(r) for r in rows[:-1]))


def test_theta_is_keyword_only():
    # the third positional slot once held the modulus bound: a caller still
    # passing one gets a TypeError, not a table silently tagged theta = 2.0
    scale = scale_for(GOLDEN, 30)
    rows = tuple(tuple([1.0] * (row_top(scale, k) + 1)) for k in range(scale.rows))
    with pytest.raises(TypeError):
        AlphaFunction(scale, rows, 2.0)
    assert AlphaFunction(scale, rows, theta=0.0).theta == 0.0


# --- evaluation ------------------------------------------------------------------

@pytest.mark.parametrize("theta", THETAS)
def test_evaluate_matches_exact_phase_oracle(theta):
    scale = scale_for(GOLDEN, 2000)
    g = from_theta(theta, scale)
    th = Fraction(theta)
    for n in range(0, 1500, 11):
        want = unit_fraction(th * sigma(n, scale))
        assert abs(evaluate(g, n) - want) < 1e-12


def test_evaluate_is_digit_multiplicative():
    # split n into low and high digit parts with a zero gap between them:
    # the atom products then multiply independently
    scale = scale_for(SILVER, 10**6)
    g = from_theta(0.1234567, scale)
    rng = np.random.default_rng(3)
    done = 0
    for n in rng.integers(0, 10**6, size=400):
        n = int(n)
        digits = encode(n, scale).digits
        for k in range(2, len(digits) - 1):
            if digits[k] == 0:
                low = psi(n, k, scale)
                high = n - low
                assert abs(evaluate(g, n) - evaluate(g, low) * evaluate(g, high)) < 1e-13
                done += 1
                break
    assert done > 100


@pytest.mark.parametrize("theta", THETAS)
def test_values_range_agrees_with_evaluate(theta):
    scale = scale_for(SILVER, 4000)
    g = from_theta(theta, scale)
    vr = values_range(g, 3500)
    ev = np.array([evaluate(g, n) for n in range(3500)])
    assert np.max(np.abs(vr - ev)) < 1e-13
    if theta in (0.0, 0.5):
        assert np.array_equal(vr.view(np.float64), ev.view(np.float64))


def test_values_range_size_cap():
    # refused from the count alone, before the value block is allocated
    g = from_theta(0.5, scale_for(GOLDEN, RANGE_CAP + 2))
    with pytest.raises(CapError):
        values_range(g, RANGE_CAP + 1)


def test_values_range_prefix_stability():
    scale = scale_for(GOLDEN, 5000)
    g = from_theta(1 / 3, scale)
    long = values_range(g, 4500)
    for count in (1, 2, 137, 1000):
        short = values_range(g, count)
        assert np.array_equal(short.view(np.float64), long[:count].view(np.float64))


def concatenating_values_range(g, count):
    """g on [0, count) from fresh prev/cur/out arrays at every level.

    The differential oracle of values_range's in-place build, which must
    match it byte for byte: the same products of the same operands in the
    same order.
    """
    if count == 0:
        return np.zeros(0, dtype=np.complex128)
    prev = np.ones(1, dtype=np.complex128)
    if count == 1:
        return prev.copy()
    cur = np.array(g.atoms[0][: g.scale.q[1]], dtype=np.complex128)
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


GRID_SPECS = ("golden", "silver", "periodic:/1,2", "periodic:/1,2,3,1,1,4", "periodic:/1000",
              "periodic:3,1/7", "list:2,1,1,5,1,1,1,1,1,1,1,1", "list:1,1,1")
GRID_MAX = 3 * 10**5


def grid_functions(scale):
    """The parity grid's nine functions: seven theta families, a random modulus-2 table, a twist."""
    rng = np.random.default_rng(7)
    rows = []
    for k in range(scale.rows):
        top = row_top(scale, k) + 1
        row = 2.0 * rng.random(top) * np.exp(2j * np.pi * rng.random(top))
        row[0] = 1.0
        rows.append(tuple(row.tolist()))
    return ([from_theta(theta, scale) for theta in (0, 0.25, 0.5, 0.75, 1 / 3, 0.1234567, -0.3)]
            + [AlphaFunction(scale, tuple(rows)),
               twist(from_theta(0.5, scale), 0.3)])


@pytest.mark.parametrize("text", GRID_SPECS)
def test_values_range_matches_the_concatenating_build_byte_for_byte(text):
    scale = expand_max(parse_alpha_spec(text))
    top = min(scale.limit, GRID_MAX)
    counts = {*range(6), 7, 8, 13, 100, 1000, 1001}
    counts |= {q + d for q in scale.q for d in (-1, 0, 1)}
    counts = sorted(n for n in counts if 0 <= n <= top)
    for g in grid_functions(scale):
        for count in counts:
            got, want = values_range(g, count), concatenating_values_range(g, count)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (text, count)


@pytest.mark.parametrize("spec", [GOLDEN, SILVER, parse_alpha_spec("periodic:/1,2,3,1,1,4")],
                         ids=["golden", "silver", "p123114"])
def test_values_range_allocates_only_its_result(spec):
    g = from_theta(0.3, scale_for(spec, 2**20))
    tracemalloc.start()
    try:
        out = values_range(g, 2**20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * out.nbytes


def test_values_range_count_validation():
    g = from_theta(0.5, scale_for(GOLDEN, 100))
    for count in (-1, g.scale.limit + 1):
        with pytest.raises(RangeError):
            values_range(g, count)
    empty = values_range(g, 0)
    assert empty.shape == (0,) and empty.dtype == np.complex128
    assert values_range(g, g.scale.limit).shape == (g.scale.limit,)


# --- twisting --------------------------------------------------------------------

def test_twist_matches_exact_phase_oracle():
    scale = scale_for(GOLDEN, 5000)
    g = from_theta(1 / 3, scale)
    beta = 0.3
    h = twist(g, beta)
    bf = Fraction(beta)
    for n in range(0, 3000, 17):
        want = evaluate(g, n) * unit_fraction(-bf * n)
        assert abs(evaluate(h, n) - want) < 1e-12


def test_twist_reduces_the_silver_top_row_past_2_63():
    # the top row's multipliers e * q_K reach 2 * q_K > 2**63: the layout
    # carries them as Python ints, and every phase is within 2**-52 of the
    # exact one on the circle
    scale = expand_max(SILVER)
    g = from_theta(0.5, scale)
    beta, qK = 0.3, scale.q[-1]
    rows = _Rows.of(g, g.scale.rows)
    assert rows.mult.dtype == object and rows.mult[-1] == 2 * qK > 2**63
    phases = frac_mul_array(rows.mult[-2:], -beta)  # digits 1 and 2 of the top row
    for e, f in enumerate(phases.tolist(), 1):
        exact = (-Fraction(beta) * e * qK) % 1
        gap = abs(Fraction(f) - exact)
        assert min(gap, 1 - gap) <= Fraction(2) ** -52
    h = twist(g, beta)
    for e, (v, u) in enumerate(zip(h.atoms[-1], g.atoms[-1])):
        assert abs(v - u * unit_fraction(-Fraction(beta) * e * qK)) < 1e-15


def bits(z) -> list:
    """The float64 bit patterns of a complex array or Python complex, signed zeros told apart."""
    return np.asarray(z, dtype=np.complex128).view(np.uint64).tolist()


@pytest.mark.parametrize("spec", ["golden", "silver", "periodic:/1000", "periodic:3/7,1"])
@pytest.mark.parametrize("beta", [0.3, -0.37, 0.0, 0.25, -0.75, 1e-9])
def test_row_sums_equal_scalar_sums_of_the_twist_bit_for_bit(spec, beta):
    # _Rows.sums (which scale_sums and the spectrum probes read) at every
    # digit d from 0 to a row's last, against Python-scalar sums of the rows
    # of twist(g, beta) over b < d, added from 0 up, and the atom at d;
    # silver's top row passes 2**63, and quarter turns stay exact
    g = from_theta(0.1234567, expand_max(parse_alpha_spec(spec)))
    rows = _Rows.of(g, g.scale.rows)
    digits = [np.minimum(d, rows.last) for d in range(rows.last.max() + 1)]
    got = rows.sums(np.array([beta]), *digits)
    for k, row in enumerate(twist(g, beta).atoms):
        below = 0j
        for d, atom in enumerate(row):
            assert (bits(got[d][0][k]), bits(got[d][1][k])) == (bits([below]), bits([atom])), (k, d)
            below += atom


def test_row_sums_of_a_batch_are_its_one_beta_calls():
    # each beta's pair does not depend on the others, for a (K,) digit array
    # and for a (B, K) one, whose row j it reads as the (K,) array does
    g = from_theta(0.1234567, expand_max(SILVER))
    rows = _Rows.of(g, g.scale.rows)
    betas = np.array([0.3, -0.37, 0.0, 0.25, -0.75, 1e-9, 0.61803398875])
    eps = np.random.default_rng(7).integers(0, rows.last + 1, size=(len(betas), len(rows.last)))
    batch = rows.sums(betas, rows.last, eps)
    for j in range(len(betas)):
        one = rows.sums(betas[j : j + 1], rows.last, eps[j])
        for pair, one_pair in zip(batch, one):
            for got, want in zip(pair, one_pair):
                assert got.shape == (len(rows.last), len(betas)) and want.shape == (len(rows.last), 1)
                assert bits(got[:, j]) == bits(want[:, 0]), j


def test_twist_allocates_about_its_result():
    # no padded (rows x widest row) layout: periodic:10000/1 has one row of
    # 10001 atoms among 74 rows, so a padded array alone is 73 times the atoms
    g = from_theta(0.5, expand_max(parse_alpha_spec("periodic:10000/1")))
    atoms = sum(map(len, g.atoms))
    tracemalloc.start()
    try:
        twist(g, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 16 * atoms


def test_building_a_table_of_a_million_atoms_stays_within_four_copies():
    # one 10**6 + 1 atom row: each build holds the table, one copy of its
    # atoms and the moduli at most (the tuple layout peaked at 8.0x from
    # from_theta and 7.5x from load_atoms, its Python complex rows)
    scale = scale_for(parse_alpha_spec("periodic:1000000/1"), 4 * 10**6)
    g = from_theta(0.3, scale)
    atoms = sum(map(len, g.atoms))
    assert atoms == 1_000_009
    doc = {str(k): np.asarray(row, dtype=np.complex128).view(np.float64).reshape(-1, 2).tolist()
           for k, row in enumerate(g.atoms)}
    for build in (lambda: from_theta(0.3, scale), lambda: load_atoms(doc, scale)):
        tracemalloc.start()
        try:
            build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * atoms


def test_table_is_one_read_only_array_whose_rows_are_views():
    g = from_theta(0.1234567, expand_max(parse_alpha_spec("periodic:/1,1000")))
    assert g.flat.dtype == np.complex128 and len(g.starts) == len(g.atoms) + 1 and g.starts[-1] == len(g.flat)
    for k, row in enumerate(g.atoms):
        assert row.base is g.flat and bits(row) == bits(g.flat[g.starts[k] : g.starts[k + 1]])
    for write in (lambda: g.atoms[1].__setitem__(1, 0.5), lambda: g.flat.__setitem__(0, 2.0),
                  lambda: g.starts.__setitem__(1, 0)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    # equality is identity; the bits are compared through flat
    same = AlphaFunction(g.scale, g.atoms, theta=g.theta)
    assert g == g and same != g and bits(same.flat) == bits(g.flat)
    assert bits(twist(g, 0.0).flat) == bits(g.flat)
    h = twist(g, 0.37)
    doc = {str(k): [[v.real, v.imag] for v in row.tolist()] for k, row in enumerate(h.atoms)}
    assert bits(load_atoms(doc, h.scale).flat) == bits(h.flat)
    assert bits(load_atoms(json.dumps(doc), h.scale).flat) == bits(h.flat)


def test_twist_theta_tag():
    scale = scale_for(GOLDEN, 100)
    g = from_theta(0.5, scale)
    assert twist(g, 0.0).theta == 0.5
    assert twist(g, 0.25).theta is None
    assert np.array_equal(
        values_range(twist(g, 0.0), 80).view(np.float64),
        values_range(g, 80).view(np.float64),
    )


def test_twist_round_trip():
    scale = scale_for(SILVER, 2000)
    g = from_theta(0.1234567, scale)
    back = twist(twist(g, 0.375), -0.375)  # dyadic beta keeps phases exact
    va, vb = values_range(g, 1500), values_range(back, 1500)
    assert np.max(np.abs(va - vb)) < 1e-14


# --- serialization and the fn grammar ---------------------------------------------

def rows_payload(scale, fill):
    return {
        str(k): [[fill(k, e).real, fill(k, e).imag] for e in range(row_top(scale, k) + 1)]
        for k in range(scale.rows)
    }


def test_load_atoms_round_trip(tmp_path):
    scale = scale_for(GOLDEN, 200)
    g = from_theta(1 / 3, scale)
    doc = rows_payload(scale, lambda k, e: g.atoms[k][e])
    h = load_atoms(doc, scale)
    assert h.flat.tobytes() == g.flat.tobytes()
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(doc))
    h2 = load_atoms(path.read_text(), scale)
    assert h2.flat.tobytes() == g.flat.tobytes()


def test_load_atoms_takes_any_modulus_below_the_value_bound():
    # no modulus bound is asked for or inferred: atoms of modulus 2 load, and
    # only the value bound B (the product of the rows' largest moduli) refuses
    scale = scale_for(GOLDEN, 200)
    doc = rows_payload(scale, lambda k, e: complex(1.0 if e == 0 else 2.0))
    h = load_atoms(doc, scale)
    assert all(v == 2.0 for row in h.atoms for v in row[1:])
    assert not h.is_unimodular and h.theta is None
    assert values_range(h, 8).tolist() == [2.0 ** sigma(n, scale) for n in range(8)]
    doc = rows_payload(scale, lambda k, e: complex(2 * VALUE_BOUND_MAX if (k, e) == (3, 1) else 1.0))
    with pytest.raises(ValidationError, match="could overflow"):
        load_atoms(doc, scale)


def test_load_atoms_rejects_bad_tables():
    scale = scale_for(GOLDEN, 200)
    doc = rows_payload(scale, lambda k, e: complex(1.0))
    del doc["1"]
    with pytest.raises(ValidationError):
        load_atoms(doc, scale)
    doc = rows_payload(scale, lambda k, e: complex(1.0))
    doc["1"] = [[1.0, 0.0]]  # wrong arity for the row
    with pytest.raises(ValidationError):
        load_atoms(doc, scale)
    for text in ("not json", "[[1.0, 0.0]]"):
        with pytest.raises(ValidationError):
            load_atoms(text, scale)


def test_parse_fn_spec(tmp_path):
    scale = scale_for(GOLDEN, 500)
    g = parse_fn_spec("theta:0.5", scale)
    assert g.theta == 0.5
    h = parse_fn_spec("theta:0.5+beta:0.25", scale)
    assert h.theta is None
    want = values_range(twist(from_theta(0.5, scale), 0.25), 300)
    assert np.array_equal(values_range(h, 300).view(np.float64), want.view(np.float64))

    doc = rows_payload(scale, lambda k, e: complex(1.0))
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(doc))
    j = parse_fn_spec(f"atoms:{path}", scale)
    assert np.all(values_range(j, 100) == 1.0)

    for bad in ("", "theta:", "gamma:1", "theta:0.5+beta:", "theta:x", "atoms:/nope.json"):
        with pytest.raises((ValidationError, OSError)):
            parse_fn_spec(bad, scale)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_phases_are_refused(x):
    scale = scale_for(GOLDEN, 200)
    with pytest.raises(ValidationError, match="not finite"):
        from_theta(x, scale)
    with pytest.raises(ValidationError, match="not finite"):
        twist(from_theta(0.5, scale), x)


def test_nan_atom_is_refused():
    scale = scale_for(GOLDEN, 200)
    doc = rows_payload(scale, lambda k, e: complex(1.0))
    doc["2"][1] = [float("nan"), 0.0]
    with pytest.raises(ValidationError, match="not finite"):
        load_atoms(json.dumps(doc), scale)  # json writes the NaN literal it reads back
    rows = [[1.0] * (row_top(scale, k) + 1) for k in range(scale.rows)]
    rows[0][1] = complex(0.0, float("nan"))
    with pytest.raises(ValidationError, match="not finite"):
        AlphaFunction(scale, tuple(tuple(r) for r in rows))


@pytest.mark.parametrize("row", [5, "ab", {"0": [1, 0]}, [1.0, 0.0], [[1.0, 0.0], [0.0]],
                                 [[1.0, 0.0], ["x", 1.0]], [[1.0, 0.0], [10**400, 0.0]]],
                         ids=["int", "str", "dict", "flat", "short_pair", "text", "huge_int"])
def test_malformed_atom_row_is_a_validation_error(row):
    scale = scale_for(GOLDEN, 200)
    doc = rows_payload(scale, lambda k, e: complex(1.0))
    doc["1"] = row
    with pytest.raises(ValidationError, match="atom row 1"):
        load_atoms(doc, scale)


def test_atom_products_past_the_value_bound_are_refused():
    # golden rows [[1, 0], [1e308, 1e308]] used to load and run to NaN
    scale = scale_for(GOLDEN, 40)
    doc = {str(k): [[1.0, 0.0], [1e308, 1e308]] for k in range(scale.rows)}
    with pytest.raises(ValidationError, match="could overflow"):
        load_atoms(doc, scale)
    # parts whose modulus leaves the float range are refused the same way
    doc["0"][1] = [1.5e308, 1.5e308]
    with pytest.raises(ValidationError, match="could overflow"):
        load_atoms(doc, scale)
    # the bound is the product over rows of each row's largest modulus
    big = math.sqrt(VALUE_BOUND_MAX) / 2
    doc = rows_payload(scale, lambda k, e: complex(big if (k, e) in ((0, 1), (3, 1)) else 1.0))
    assert load_atoms(doc, scale).atoms[3][1] == big
    doc = rows_payload(scale, lambda k, e: complex(big if k in (0, 2, 3) and e == 1 else 1.0))
    with pytest.raises(ValidationError, match="could overflow"):
        load_atoms(doc, scale)


def test_unit_atom_is_stored_as_exactly_one():
    scale = scale_for(GOLDEN, 200)
    doc = rows_payload(scale, lambda k, e: complex(1.0 + 5e-13 if e == 0 else -1.0))
    g = load_atoms(doc, scale)
    assert all(row[0] == 1 + 0j for row in g.atoms)
    # prefix stability: g(0) is 1 however long the block
    assert values_range(g, 2)[0] == values_range(g, 1)[0] == evaluate(g, 0) == 1.0
