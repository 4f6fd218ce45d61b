"""Command line fuzz: every request ends in exit 0, 2 or 3, never an exception.

Derandomized hypothesis over the alpha and fn grammars (theta and beta
including nan, +-inf and 1e300; atom tables that are valid, hold a NaN atom,
hold a non-list row or miss a row) and small numeric flags, negative ones
included, over every subcommand but verify and both experiment kinds, each
in JSON or CSV.  On exit 0 a JSON reply is byte for byte its own
json.dumps(..., indent=2) re-dump, the streamed writer's oracle, and a CSV is
one table of equal-width lines; about half the requests run again with --out,
whose file must hold the bytes stdout got (runtime_seconds masked).  Every
integer flag and operand also draws 2**63, 2**64 and 10**30, past the 63-bit
budget and sys.maxsize; digit strings and R-lists also draw blank entries.
Otherwise sizes stay small (N <= 2e4, R <= 64, Fourier levels <= 12): the
huge sizes are refused, or served by the level recursion, before any
N-sized block is built.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrowski import expand_max, parse_alpha_spec
from ostrowski.cli import main
from ostrowski.spectral import DFT_CAP

ROWS = 100  # more rows than any scale below certifies; extra rows are ignored
HUGE = st.sampled_from([2**63, 2**64, 10**30])


@pytest.fixture(scope="module")
def atom_files(tmp_path_factory):
    """Paths of atom tables: valid for golden and silver, and three broken ones."""
    root = tmp_path_factory.mktemp("atoms")

    def table(width, fill=(0.0, 1.0)):
        return {str(k): [[1.0, 0.0]] + [list(fill)] * (width - 1) for k in range(ROWS)}

    docs = {
        "golden": table(2),
        "silver": table(3),
        "nan": table(2, (float("nan"), 0.0)),
        "non_list_row": {**table(2), "1": 5},
        "missing_row": {k: v for k, v in table(2).items() if k != "1"},
    }
    paths = []
    for name, doc in docs.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths + [str(root / "absent.json")]


# Weighted towards requests that run, so that exit 0 is reached on every subcommand.
FINITE_REALS = ["0", "0.5", "0.25", "0.3333", "-0.75", "0.1234567", "1e300", "-1e300", "1e-300"]
REALS = (st.sampled_from(FINITE_REALS)
         | st.sampled_from(["nan", "-nan", "inf", "-inf", "x", ""])
         | st.floats(allow_nan=True, allow_infinity=True).map(repr))

GOOD_ALPHAS = ["golden", "silver", "periodic:/1,2", "periodic:/1,2,3,1,1,4", "periodic:3/1"]
ALPHAS = (st.sampled_from(GOOD_ALPHAS)
          | st.sampled_from(["list:1,2,3", "list:2", "list:", "periodic:1", "periodic:/",
                             "list:0,1", "list:-1", "list:a", "bogus"])
          | st.lists(st.integers(1, 5), min_size=1, max_size=6).map(
              lambda qs: "list:" + ",".join(map(str, qs))))


def fn_specs(atom_paths):
    base = st.one_of(
        st.builds("theta:{}".format, st.sampled_from(FINITE_REALS)),
        st.builds("theta:{}".format, REALS),
        st.sampled_from(atom_paths).map("atoms:{}".format),
        st.sampled_from(["", "theta:", "gamma:1", "theta"]),
    )
    beta = st.none() | st.none() | REALS
    return st.builds(lambda f, b: f if b is None else f"{f}+beta:{b}", base, beta)


def requests(atom_paths):
    ints = st.integers
    shared = st.builds(lambda a: ["--alpha", a], ALPHAS) | st.just([])
    fn = st.builds(lambda f: ["--fn", f], fn_specs(atom_paths))
    N = st.builds(lambda n: ["--N", str(n)], ints(1, 300) | ints(-3, 20000) | HUGE)

    def int_lists(entry, max_size):
        """Comma lists of entries, and the same with one blank entry inserted."""
        full = st.lists(entry.map(str), max_size=max_size)
        blank = st.builds(lambda es, i: es[:i] + [""] + es[i:],
                          st.lists(entry.map(str), min_size=1, max_size=max_size - 1),
                          ints(0, max_size - 1))
        return (full | blank).map(",".join)

    digits = int_lists(ints(-1, 4), 8)
    # always given: the default N = 10**6 is too large here; N < a_1 is an edge
    experiment_N = ints(1, 3) | ints(1, 300) | ints(1, 20000) | HUGE
    return st.one_of(
        st.builds(lambda n, lam, a: ["encode", str(n), *lam, *a],
                  ints(-3, 10**6) | HUGE,
                  st.lists(ints(-2, 40) | HUGE, max_size=2).map(
                      lambda ls: [x for lam in ls for x in ("--lam", str(lam))]),
                  shared),
        st.builds(lambda d, a: ["decode", d, *a], digits | st.just("1,x"), shared),
        st.builds(lambda ns, a: ["sigma", *map(str, ns), *a],
                  st.lists(ints(-3, 10**6) | HUGE, min_size=1, max_size=3), shared),
        st.builds(lambda d, a: ["convergents", *d, *a],
                  st.just([]) | (ints(-2, 100) | HUGE).map(lambda d: ["--depth", str(d)]),
                  shared),
        st.builds(lambda n, r, a, f: ["correlate", *n, "--R", str(r), *a, *f],
                  N, ints(-2, 64) | HUGE, shared, fn),
        st.builds(lambda lam, a, f: ["fourier", "--lam", str(lam), *a, *f],
                  ints(-2, 12) | HUGE, shared, fn),
        st.builds(lambda n, m, a, f: ["spectrum", *n, "--grid", str(m), *a, *f],
                  N, ints(16, 512) | ints(-1, 512) | HUGE, shared, fn),
        st.builds(lambda n, s, a, f: ["experiment", "spectrum", "--N", str(n), *s, *a, *f],
                  experiment_N,
                  st.just([]) | (ints(-1, 5) | HUGE).map(lambda s: ["--seed", str(s)]),
                  shared, fn),
        st.builds(lambda n, rs, a, f: ["experiment", "pseudorandomness", "--N", str(n), *rs, *a, *f],
                  experiment_N,
                  int_lists(ints(-1, 64), 3).map(lambda rs: ["--R-list", rs]) | st.just([]),
                  shared, fn),
    )


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("out") / "reply"


def call(argv):
    """(exit code, stdout, stderr) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def unclocked(text: str) -> str:
    """The text with the experiments' runtime_seconds masked: it differs between two runs."""
    return re.sub(r'"runtime_seconds": [^,\n]*', '"runtime_seconds": _', text)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_requests_end_in_a_documented_exit_code(atom_files, out_path, data):
    argv = data.draw(requests(atom_files), label="argv")
    argv += ["--format", data.draw(st.sampled_from(["json", "csv"]), label="format")]
    code, text, err = call(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0 and argv[-1] == "json":
        # the streamed writer's bytes are those of the indent=2 encoder
        assert json.dumps(json.loads(text), indent=2) + "\n" == text, argv
    if code == 0 and argv[-1] == "csv":
        config, header, *rows = text.splitlines()
        assert config.startswith("# config: ")
        json.loads(config[len("# config: "):])
        width = header.count(",")
        assert all(row.count(",") == width for row in rows), argv
    if data.draw(st.booleans(), label="--out"):  # the file holds the bytes stdout would
        out_path.unlink(missing_ok=True)
        assert call([*argv, "--out", str(out_path)]) == (code, "", err), argv
        if code == 0:
            assert unclocked(out_path.read_bytes().decode()) == unclocked(text), argv


# Skewed quotients: one quotient a up to 10**4 makes one atom row 10**4 + 1
# wide among rows of 2, which every reader of the flat table sees.
SKEW_N = 10**5


def skewed_alphas():
    a = st.integers(1, 10**4) | st.sampled_from([1000, 9999, 10**4])
    return st.one_of(a.map("periodic:{}/1".format), a.map("periodic:/1,{}".format),
                     a.map("list:1,{},1".format))


def fourier_levels(alpha):
    """The levels lam of alpha whose Fourier table has at most SKEW_N entries, within DFT_CAP."""
    q = expand_max(parse_alpha_spec(alpha)).q
    return [lam for lam, qk in enumerate(q) if qk <= min(SKEW_N, DFT_CAP)]


@st.composite
def skewed_requests(draw):
    alpha = draw(skewed_alphas(), label="alpha")
    fn = draw(st.builds(lambda t, b: f"theta:{t}" if b is None else f"theta:{t}+beta:{b}",
                        st.sampled_from(FINITE_REALS[:6]), st.none() | st.sampled_from(FINITE_REALS[:6])))
    N = draw(st.integers(1, SKEW_N) | st.sampled_from([1, 2, SKEW_N]), label="N")
    shared = ["--alpha", alpha, "--fn", fn]
    kind = draw(st.sampled_from(["correlate", "spectrum", "sigma", "fourier", "experiment"]))
    if kind == "correlate":
        return ["correlate", "--N", str(N), "--R", str(draw(st.integers(1, 64))), *shared]
    if kind == "spectrum":
        return ["spectrum", "--N", str(N), "--grid", str(draw(st.integers(16, 512))), *shared]
    if kind == "sigma":
        ns = draw(st.lists(st.integers(0, SKEW_N), min_size=1, max_size=3))
        return ["sigma", *map(str, ns), "--alpha", alpha]
    if kind == "fourier":
        return ["fourier", "--lam", str(draw(st.sampled_from(fourier_levels(alpha)))), *shared]
    return ["experiment", "spectrum", "--N", str(N), "--seed", str(draw(st.integers(0, 5))), *shared]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=skewed_requests())
def test_skewed_quotient_requests_end_in_a_documented_exit_code(argv):
    code, text, err = call(argv)
    assert code in (0, 2, 3), (argv, code, err)
