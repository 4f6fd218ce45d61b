"""Command line fuzz: every request ends in exit 0, 2 or 3, never an exception.

Derandomized hypothesis over the alpha and fn grammars (theta and beta
including nan, +-inf and 1e300; atom tables that are valid, hold a NaN atom,
hold a non-list row or miss a row) and small numeric flags, negative ones
included, over every subcommand but verify and both experiment kinds.  Sizes
stay small (N <= 2e4, R <= 64, Fourier levels <= 12) so no request allocates
much.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrowski.cli import main

ROWS = 100  # more rows than any scale below certifies; extra rows are ignored


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
    N = st.builds(lambda n: ["--N", str(n)], ints(1, 300) | ints(-3, 20000))
    digits = st.lists(ints(-1, 4), max_size=8).map(lambda ds: ",".join(map(str, ds)))
    # always given: the default N = 10**6 is too large here; N < a_1 is an edge
    experiment_N = ints(1, 3) | ints(1, 300) | ints(1, 20000)
    return st.one_of(
        st.builds(lambda n, lam, a: ["encode", str(n), *lam, *a],
                  ints(-3, 10**6) | st.just(10**30),
                  st.lists(ints(-2, 40), max_size=2).map(
                      lambda ls: [x for lam in ls for x in ("--lam", str(lam))]),
                  shared),
        st.builds(lambda d, a: ["decode", d, *a], digits | st.just("1,x"), shared),
        st.builds(lambda ns, a: ["sigma", *map(str, ns), *a],
                  st.lists(ints(-3, 10**6), min_size=1, max_size=3), shared),
        st.builds(lambda d, a: ["convergents", *d, *a],
                  st.just([]) | ints(-2, 100).map(lambda d: ["--depth", str(d)]), shared),
        st.builds(lambda n, r, a, f: ["correlate", *n, "--R", str(r), *a, *f],
                  N, ints(-2, 64), shared, fn),
        st.builds(lambda lam, a, f: ["fourier", "--lam", str(lam), *a, *f],
                  ints(-2, 12), shared, fn),
        st.builds(lambda n, m, a, f: ["spectrum", *n, "--grid", str(m), *a, *f],
                  N, ints(16, 512) | ints(-1, 512), shared, fn),
        st.builds(lambda n, s, a, f: ["experiment", "spectrum", "--N", str(n), *s, *a, *f],
                  experiment_N, st.just([]) | ints(-1, 5).map(lambda s: ["--seed", str(s)]),
                  shared, fn),
        st.builds(lambda n, rs, a, f: ["experiment", "pseudorandomness", "--N", str(n), *rs, *a, *f],
                  experiment_N,
                  st.lists(ints(-1, 64), max_size=3).map(
                      lambda rs: ["--R-list", ",".join(map(str, rs))]) | st.just([]),
                  shared, fn),
    )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_requests_end_in_a_documented_exit_code(atom_files, data):
    argv = data.draw(requests(atom_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the flags
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
