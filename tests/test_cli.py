"""Command line interface: payload shapes, exit codes, output formats."""

import argparse
import ast
import cmath
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ostrowski import (
    GOLDEN,
    SILVER,
    CheckReport,
    correlation,
    correlation_profile,
    expand,
    expand_max,
    fourier_coeffs,
    from_theta,
    parse_alpha_spec,
    parse_fn_spec,
    scale_for,
    sigma,
    values_range,
)
from ostrowski.alphafun import fn_for
from ostrowski.cli import build_parser, main
import ostrowski.cli as cli
import ostrowski.harness as harness
import ostrowski.spectral as spectral


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


# --- basic subcommands ---------------------------------------------------------

def test_encode_json_payload(capsys):
    code, out = run(capsys, "encode", "4", "--lam", "2", "--lam", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["digits"] == [0, 1, 0, 1]
    assert doc["sigma"] == 2
    assert doc["psi"] == {"2": 1, "3": 1}
    assert doc["config"]["alpha"] == "golden"


def test_encode_csv_has_config_comment(capsys):
    code, out = run(capsys, "encode", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "n,sigma,digits"
    assert lines[2] == "4,2,0;1;0;1"


def test_successive_calls_share_no_parsed_state(capsys):
    # main keeps one parser per process: an append option of one call must
    # not leak into the next, and build_parser still returns a fresh parser
    _, out = run(capsys, "encode", "4", "--lam", "2", "--lam", "3")
    assert json.loads(out)["psi"] == {"2": 1, "3": 1}
    _, out = run(capsys, "encode", "4", "--lam", "1")
    assert json.loads(out)["psi"] == {"1": 0}
    _, out = run(capsys, "encode", "4")
    assert json.loads(out)["psi"] == {}
    assert build_parser()[0] is not build_parser()[0]


def test_handlers_are_looked_up_by_name_on_each_call(capsys, monkeypatch):
    # the cached parser binds no handler: a cmd_* replaced after the first
    # call is the one the next call runs
    import ostrowski.cli as cli

    assert run(capsys, "encode", "4")[0] == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_encode", lambda args: calls.append(args.n) or 0)
    assert run(capsys, "encode", "7") == (0, "")
    assert calls == [7]


def test_decode_round_trip(capsys):
    code, out = run(capsys, "decode", "0,1,0,1")
    assert code == 0
    assert json.loads(out)["n"] == 4


PSEUDO = ("experiment", "pseudorandomness", "--N", "100", "--R-list")


@pytest.mark.parametrize("argv, message", [
    (("decode", "0,,1"), "bad digits '0,,1': comma-separated integers expected"),
    (("decode", ",1", "--alpha", "silver"), "bad digits ',1': comma-separated integers expected"),
    (("decode", "1,"), "bad digits '1,': comma-separated integers expected"),
    (("decode", ","), "bad digits ',': comma-separated integers expected"),
    ((*PSEUDO, "4,,8"), "bad --R-list '4,,8': comma-separated integers expected"),
    ((*PSEUDO, ",4"), "bad --R-list ',4': comma-separated integers expected"),
    ((*PSEUDO, ""), "R_list must not be empty"),
])
def test_a_blank_list_entry_is_exit_2(argv, message, capsys):
    # a blank entry would drop a position: decode ",1" is not eps_0 = 1
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_decode_of_the_empty_string_is_zero(capsys):
    code, out = run(capsys, "decode", "")
    assert code == 0 and json.loads(out)["n"] == 0


def test_sigma_multiple(capsys):
    code, out = run(capsys, "sigma", "4", "12", "33", "--alpha", "silver")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["sigma"] for r in rows] == [2, 1, 3]


def test_convergents_table(capsys):
    code, out = run(capsys, "convergents", "--depth", "5", "--alpha", "periodic:/1,2")
    assert code == 0
    doc = json.loads(out)
    assert [r["q"] for r in doc["rows"]] == [1, 1, 3, 4, 11, 15]
    # [0; 1, 2, 1, 2, ...] solves x = (2 + x)/(3 + x), so x = sqrt(3) - 1
    assert abs(doc["alpha"] - (3 ** 0.5 - 1)) <= doc["alpha_error_bound"]


@pytest.mark.parametrize("argv", [("--depth", "2"), ("--alpha", "list:1,2")])
def test_convergents_of_a_three_row_table(capsys, argv):
    # too short for alpha's error bound: the rows alone, exit 0
    code, out = run(capsys, "convergents", *argv)
    assert code == 0
    doc = json.loads(out)
    assert [r["i"] for r in doc["rows"]] == [0, 1, 2]
    assert "alpha" not in doc and "alpha_error_bound" not in doc


def test_correlate_payload(capsys):
    code, out = run(capsys, "correlate", "--N", "2000", "--R", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["route"] == "levels-exact"
    assert len(doc["rows"]) == 16
    assert doc["rows"][0]["re"] == pytest.approx(1.0)
    assert 0.0 < doc["quadratic_mean"] <= 1.0
    # the default theta:0.5 is exact: every row is correlation() bit for bit
    g = from_theta(0.5, scale_for(GOLDEN, 2000 + 16 - 1))
    assert [complex(row["re"], row["im"]) for row in doc["rows"]] == [
        correlation(g, r, 2000) for r in range(16)]


def test_fourier_payload(capsys):
    code, out = run(capsys, "fourier", "--lam", "2", "--fn", "theta:0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 2
    assert doc["parseval_delta"] < 1e-12
    assert [round(r["re"], 12) for r in doc["rows"]] == [0.0, 1.0]


def test_fourier_builds_the_value_block_once(monkeypatch, capsys):
    import ostrowski.spectral as spectral

    real, sizes = spectral.values_range, []

    def counted(g, count):
        sizes.append(count)
        return real(g, count)

    monkeypatch.setattr(spectral, "values_range", counted)
    code, _ = run(capsys, "fourier", "--lam", "4")
    assert code == 0 and sizes == [5]  # golden q_4 = 5
    g = from_theta(0.5, scale_for(GOLDEN, 100))
    for check in (lambda: spectral.fourier_coeffs(g, 4).parseval(),
                  lambda: spectral.cyclic_identity_sweep(g, 4, range(3))):
        sizes.clear()
        check()
        assert sizes == [5]


def test_spectrum_payload(capsys):
    code, out = run(capsys, "spectrum", "--N", "4096", "--grid", "256",
                    "--fn", "theta:0.0+beta:0.25")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["beta_peak"] - 0.75) < 1e-6
    assert doc["peak_value"] > 0.999


@pytest.mark.parametrize("argv, first", [
    (("--N", "1"), [0, 1, 2, 3, 4]),   # a flat grid: every point ties
    (("--N", "3", "--grid", "16"), [4, 12]),   # real g: j and 16 - j tie
])
def test_spectrum_top_grid_points_break_ties_by_index(argv, first, capsys):
    # the refinement's order: value descending, then j ascending
    code, out = run(capsys, "spectrum", *argv)
    assert code == 0
    points = json.loads(out)["top_grid_points"]
    keys = [(-p["value"], p["j"]) for p in points]
    assert keys == sorted(keys)
    assert [p["j"] for p in points][: len(first)] == first


def test_out_file(tmp_path, capsys):
    path = tmp_path / "enc.json"
    code, out = run(capsys, "encode", "12", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["sigma"] == 3  # 12 = 8 + 3 + 1


# --- verify and experiment -------------------------------------------------------

def test_verify_single_family(capsys):
    code, out = run(capsys, "verify", "--only", "fejer")
    assert code == 0
    assert out.startswith("PASS fejer: 100/100")


def test_verify_reports_file(tmp_path, capsys, monkeypatch):
    detail = {"lam": 3, "a": 2, "empirical": 0.5, "formula": 0.25}
    monkeypatch.setitem(harness.CHECK_FAMILIES, "forced",
                        lambda rng: CheckReport("forced", 2, 1, -0.25, (detail,)))
    path = tmp_path / "reports.json"
    code, _ = run(capsys, "verify", "--only", "forced,vdc", "--out", str(path))
    assert code == 1
    docs = json.loads(path.read_text())
    assert docs[0] == {"check_name": "forced", "instances_run": 2, "instances_passed": 1,
                       "worst_margin": -0.25, "details": [detail]}
    assert docs[1]["check_name"] == "van_der_corput"


@pytest.mark.parametrize("argv", [
    ("correlate", "--N", "100", "--R", "4"),
    ("verify", "--only", "fejer"),
])
@pytest.mark.parametrize("target", ["{tmp}/missing/x.json", "{tmp}", ""],
                         ids=["missing_dir", "a_dir", "empty"])
def test_out_to_an_unwritable_path_is_exit_2_without_traceback(argv, target, tmp_path):
    path = target.format(tmp=tmp_path)
    proc = run_process(*argv, "--out", path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [proc.stderr.strip()]  # one line
    assert proc.stderr.startswith(f"error: cannot write {path!r}: ")
    assert "Traceback" not in proc.stderr


STDOUT_CASES = [
    ("fourier", "--alpha", "golden", "--fn", "theta:0.5", "--lam", "20"),  # 1.5 MB in chunks
    ("encode", "5"),  # one short write, flushed by _print
    ("verify", "--only", "fejer"),
]


@pytest.mark.parametrize("argv", STDOUT_CASES, ids=["fourier", "encode", "verify"])
def test_a_closed_stdout_pipe_ends_the_run_quietly(argv):
    # the pipe has no reader before the child starts, so its first write
    # fails with EPIPE: exit 0, nothing on stderr, not even at interpreter exit
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_process(*argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", STDOUT_CASES, ids=["fourier", "encode", "verify"])
def test_a_failed_stdout_write_is_exit_2_without_traceback(argv):
    with open("/dev/full", "w") as full:
        proc = run_process(*argv, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write to stdout: No space left on device\n"


def test_verify_failure_exit_code(capsys, monkeypatch):
    def failing(rng):
        return CheckReport("forced", 1, 0, -1.0)

    monkeypatch.setitem(harness.CHECK_FAMILIES, "forced", failing)
    code, out = run(capsys, "verify", "--only", "forced")
    assert code == 1
    assert out.startswith("FAIL forced: 0/1")


def test_experiment_csv(tmp_path, capsys):
    path = tmp_path / "exp.csv"
    code, out = run(
        capsys, "experiment", "pseudorandomness",
        "--N", "4000", "--R-list", "8,16", "--out", str(path), "--format", "csv",
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "R,quadratic_mean,absolute_mean"
    assert len(lines) == 4
    assert out == ""


@pytest.mark.parametrize("alpha, N", [("silver", 1), ("periodic:3/1", 2)])
def test_spectrum_experiment_below_q1_sums_over_q0(alpha, N, capsys):
    # N < q_1 = a_1: the scale-sum section covers q_0 = 1 alone
    code = main(["experiment", "spectrum", "--alpha", alpha, "--N", str(N)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert [row["N"] for row in doc["ladder"]] == [N]
    assert len(doc["scale_sums"]) == 16
    for entry in doc["scale_sums"]:
        assert entry["moduli"] == [1.0]
        assert entry["contraction_margin"] == 0.0


def test_spectrum_experiment_needs_no_r_list(capsys):
    # R_list is a pseudorandomness input; its default must not constrain N here
    code, out = run(capsys, "experiment", "spectrum", "--N", "1000")
    assert code == 0
    doc = json.loads(out)
    assert [row["N"] for row in doc["ladder"]] == [1000]
    assert "R_list" not in doc["config"]


def test_spectrum_experiment_refuses_r_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "spectrum", "--N", "5000", "--R-list", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ostrowski experiment spectrum")  # its own usage, not the root's
    assert "unrecognized arguments: --R-list 8" in err

def test_verify_fn_runs_the_given_function(capsys):
    base_code, base = run(capsys, "verify", "--only", "parseval,cyclic")
    fn_code, with_fn = run(capsys, "verify", "--only", "parseval,cyclic", "--fn", "theta:0.3")
    assert base_code == fn_code == 0
    assert with_fn != base
    # one function per default scale instead of four theta values
    assert with_fn.splitlines()[0].startswith("PASS parseval: 42/42")


def test_verify_fn_atoms_must_fit_every_scale(tmp_path, capsys):
    # a golden theta = 1/4 table covering the carry scale: without --alpha it
    # is parsed against every default scale and the silver rows do not fit;
    # with --alpha golden the function families run on golden alone and pass
    scale = scale_for(GOLDEN, harness.CARRY_UPTO)
    g = from_theta(0.25, scale)
    doc = {str(k): [[v.real, v.imag] for v in row] for k, row in enumerate(g.atoms)}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--only", "parseval", "--fn", f"atoms:{path}"]) == 2
    assert "silver scale" in capsys.readouterr().err
    code, out = run(capsys, "verify", "--alpha", "golden", "--fn", f"atoms:{path}")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(harness.CHECK_FAMILIES) and all(line.startswith("PASS") for line in lines)
    # one function on one scale: one parseval instance per golden level with q <= 1024
    levels = sum(1 for q in scale_for(GOLDEN, harness.IDENTITY_UPTO).q[1:] if q <= 1024)
    assert any(line.startswith(f"PASS parseval: {levels}/{levels} instances") for line in lines)


def test_verify_alpha_needs_a_function_family(capsys):
    # --alpha is read by parseval, cyclic and carry only
    assert main(["verify", "--only", "fejer,density", "--alpha", "silver"]) == 2
    assert "error:" in capsys.readouterr().err
    code, out = run(capsys, "verify", "--only", "fejer,cyclic", "--alpha", "silver")
    assert code == 0 and out.startswith("PASS fejer")


# --- one flag surface, one writer -------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("encode", "4", "--fn", "theta:0.3"),
    ("sigma", "4", "--seed", "1"),
    ("fourier", "--lam", "2", "--seed", "1"),
    ("verify", "--only", "fejer", "--alpha", "silver"),
    ("verify", "--only", "fejer", "--format", "csv"),
    ("correlate", "--threads", "1"),
    ("experiment", "pseudorandomness", "--N", "100", "--R-list", "4", "--seed", "3"),
    ("encode", "4", "--format", "yaml"),
])
def test_unread_flags_are_refused(argv, capsys):
    # argparse refuses every one of them: each experiment kind has its own parser
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


FLAGS = {
    "encode": {"--alpha", "--out", "--format", "--lam"},
    "decode": {"--alpha", "--out", "--format"},
    "sigma": {"--alpha", "--out", "--format"},
    "convergents": {"--alpha", "--out", "--format", "--depth"},
    "correlate": {"--alpha", "--out", "--format", "--fn", "--N", "--R"},
    "fourier": {"--alpha", "--out", "--format", "--fn", "--lam"},
    "spectrum": {"--alpha", "--out", "--format", "--fn", "--N", "--grid"},
    "verify": {"--alpha", "--fn", "--out", "--seed", "--only"},
    "experiment": set(),
    "experiment pseudorandomness": {"--alpha", "--out", "--format", "--fn", "--N", "--R-list"},
    "experiment spectrum": {"--alpha", "--out", "--format", "--fn", "--N", "--seed"},
}


def sub_parsers(parser, prefix=""):
    """(command words, parser) of every subcommand, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + name, sub
                yield from sub_parsers(sub, prefix + name + " ")


def test_each_subcommand_takes_the_flags_of_the_readme_table():
    parsers = dict(sub_parsers(build_parser()[0]))
    assert set(parsers) == set(FLAGS)
    for name, parser in parsers.items():
        flags = {opt for action in parser._actions for opt in action.option_strings}
        assert flags - {"-h", "--help"} == FLAGS[name], name


@pytest.mark.parametrize("argv, keys", [
    (("encode", "4", "--lam", "2"), {"command", "alpha", "n", "lam"}),
    (("decode", "0,1"), {"command", "alpha", "digits"}),
    (("sigma", "4", "5"), {"command", "alpha", "n"}),
    (("convergents", "--depth", "3"), {"command", "alpha", "depth"}),
    (("correlate", "--N", "200", "--R", "4", "--fn", "theta:0.3"),
     {"command", "alpha", "fn", "N", "R"}),
    (("fourier", "--lam", "2"), {"command", "alpha", "fn", "lam"}),
    (("spectrum", "--N", "4096", "--grid", "64"), {"command", "alpha", "fn", "N", "grid"}),
    (("experiment", "spectrum", "--N", "1000", "--seed", "2"),
     {"alpha_spec", "fn_spec", "N", "seed"}),
    (("experiment", "pseudorandomness", "--N", "2000", "--R-list", "4"),
     {"alpha_spec", "fn_spec", "N", "R_list"}),
])
def test_config_holds_only_what_is_read(argv, keys, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    assert set(json.loads(out)["config"]) == keys


WRITER_CASES = {
    "encode": (("encode", "12", "--lam", "2"), "n,sigma,digits,psi_2"),
    "correlate": (("correlate", "--N", "500", "--R", "4"), "r,re,im,abs"),
    "pseudorandomness": (("experiment", "pseudorandomness", "--N", "2000", "--R-list", "4,8"),
                         "R,quadratic_mean,absolute_mean"),
    "spectrum": (("experiment", "spectrum", "--N", "1000", "--seed", "3"), "section,x,y,z"),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_csv_config_line_is_the_json_config(case, to_file, tmp_path, capsys):
    argv, header = WRITER_CASES[case]

    def produce(fmt: str) -> str:
        path = tmp_path / f"{case}.{fmt}"
        code, out = run(capsys, *argv, "--format", fmt, *(["--out", str(path)] if to_file else []))
        assert code == 0
        if not to_file:
            return out
        assert out == ""
        return path.read_bytes().decode()  # undecoded line endings

    json_text, csv_text = produce("json"), produce("csv")
    assert "\r" not in json_text + csv_text
    doc = json.loads(json_text)
    lines = csv_text.split("\n")
    assert lines[0].startswith("# config: ")
    assert json.loads(lines[0][len("# config: "):]) == doc["config"]
    assert lines[1] == header


def library_rows(case: str) -> list:
    """The rows of a TABLE_CASES request, computed by the library."""
    if case == "sigma":
        return [[n, sigma(n, expand_max(SILVER))] for n in (4, 12, 33)]
    if case == "convergents":
        scale = expand(GOLDEN, 6)
        return [[i, scale.quotients[i - 1] if i else None, scale.p[i], scale.q[i]]
                for i in range(scale.K + 1)]
    if case == "fourier":
        values = fourier_coeffs(parse_fn_spec("theta:0.3+beta:0.25", expand_max(SILVER)), 6).G
    else:
        fn = "theta:0.5" if case == "correlate-levels-exact" else "theta:0.3"
        values = correlation_profile(fn_for("golden", fn, 2000 + 16 - 1), 16, 2000).gamma
    return [[k, z.real, z.imag, abs(z)] for k, z in enumerate(map(complex, values))]


TABLE_CASES = {
    "sigma": ("sigma", "4", "12", "33", "--alpha", "silver"),
    "convergents": ("convergents", "--depth", "6"),
    "correlate-levels-exact": ("correlate", "--N", "2000", "--R", "16"),
    "correlate-levels": ("correlate", "--N", "2000", "--R", "16", "--fn", "theta:0.3"),
    "fourier": ("fourier", "--lam", "6", "--alpha", "silver", "--fn", "theta:0.3+beta:0.25"),
}


@pytest.mark.parametrize("case", list(TABLE_CASES))
def test_json_and_csv_are_one_table_of_the_library_numbers(case, capsys):
    # the CSV header is the JSON row keys, each CSV line parses back to its
    # JSON row ("" for null), and the rows are the library's numbers exactly
    _, json_text = run(capsys, *TABLE_CASES[case])
    _, csv_text = run(capsys, *TABLE_CASES[case], "--format", "csv")
    doc = json.loads(json_text)
    header, *lines = csv_text.splitlines()[1:]
    assert [list(row) for row in doc["rows"]] == [header.split(",")] * len(lines)
    parsed = [[None if f == "" else ast.literal_eval(f) for f in line.split(",")] for line in lines]
    assert parsed == [list(row.values()) for row in doc["rows"]] == library_rows(case)
    if case.startswith("correlate"):
        assert doc["route"] == case[len("correlate-"):]
    if case == "convergents":
        assert list(doc) == ["config", "rows", "alpha", "alpha_error_bound"]


# --- the streamed writer ------------------------------------------------------------

EDGE_VALUES = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2**63 - 1, None,
               0, -1, 1.5, 1e300, -2.5e-300, 0.1 + 0.2, 2**64]


def oracle_text(fmt: str, payload: dict, header, rows) -> str:
    """The writer's bytes by definition: indent=2 JSON of row objects, or CSV's line formula."""
    if fmt == "json":
        return json.dumps({**payload, "rows": [dict(zip(header, row)) for row in rows]},
                          indent=2) + "\n"
    lines = ["# config: " + json.dumps(payload["config"]), ",".join(header)]
    lines += [",".join("" if c is None else str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def emitted(payload: dict, fmt: str, path) -> str:
    """What _emit writes, to stdout (path None) or to the file path."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(argparse.Namespace(format=fmt, out=None if path is None else str(path)), payload)
    if path is None:
        return buf.getvalue()
    assert buf.getvalue() == ""
    return path.read_bytes().decode()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("size", [0, 1, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1])
@pytest.mark.parametrize("last", [True, False], ids=["last-key", "inner-key"])
def test_emit_writes_the_indent_json_and_csv_of_its_table_at_the_chunk_seams(
        size, fmt, to_file, last, tmp_path):
    header = ["i", "x", "y"]
    cols = [list(range(size)),
            [EDGE_VALUES[k % len(EDGE_VALUES)] for k in range(size)],
            [EDGE_VALUES[(3 * k + 1) % len(EDGE_VALUES)] for k in range(size)]]
    table = cli._Table(header, size, lambda i, j: [c[i:j] for c in cols])
    payload = {"config": {"alpha": "golden", "note": '"rows": []\n'}, "rows": table}
    if not last:
        payload |= {"alpha": 0.5, "nested": {"rows": [], "x": [1, None]}}
    want = oracle_text(fmt, payload, header, list(zip(*cols)))
    assert emitted(payload, fmt, tmp_path / "t.out" if to_file else None) == want


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_complex_tables_are_the_rows_of_python_abs(fmt, tmp_path):
    parts = [0.0, -0.0, 1.5, -2.0, 5e-324, 1e300, float("inf"), -float("inf"), float("nan")]
    z = np.array([complex(a, b) for a in parts for b in parts] * 60)  # past one chunk
    assert z.size > cli.CHUNK_ROWS
    payload = {"config": {}, "lam": 1, "rows": cli._complex_table("h", z), "q": 7}
    rows = [[h, v.real, v.imag, abs(v)] for h, v in enumerate(z.tolist())]
    want = oracle_text(fmt, payload, ["h", "re", "im", "abs"], rows)
    assert emitted(payload, fmt, None) == emitted(payload, fmt, tmp_path / "z.out") == want


def test_fourier_output_peaks_at_a_few_times_its_size(tmp_path):
    # the rows are formatted and written a chunk at a time, so neither a row list
    # nor the whole text is ever held
    path = tmp_path / "f.json"
    argv = ["fourier", "--alpha", "periodic:10000/1", "--fn", "theta:0.5+beta:0.1", "--lam", "1",
            "--out", str(path)]
    main(argv)  # the scale and the parser are built once per process, outside the trace
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert code == 0 and size > 10**6
    assert peak <= 4 * size, (peak, size)


# --- exit codes -------------------------------------------------------------------

def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["encode"])  # missing operand
    assert exc.value.code == 2


def test_validation_error_is_exit_2(capsys):
    assert main(["encode", "4", "--alpha", "nonsense"]) == 2
    assert "error:" in capsys.readouterr().err


def test_range_error_is_exit_3(capsys):
    assert main(["encode", "5", "--alpha", "list:1,1"]) == 3
    assert main(["encode", "-5"]) == 3


@pytest.mark.parametrize("argv, message", [
    (["encode", "3", "--alpha", "list:2"],
     "spec cannot cover n < 4: its quotient list ends at a_1, which covers n < 2"),
    (["verify", "--alpha", "list:1,2", "--only", "parseval"], "its quotient list ends at a_2"),
], ids=["encode", "verify"])
def test_a_finite_list_too_short_names_its_end(argv, message, capsys):
    # the list ends long before any denominator nears 2**63 - 1
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert message in err and "63-bit" not in err


def test_a_bug_in_a_handler_propagates_out_of_main(monkeypatch):
    # main maps the package's three errors to exit codes, and nothing else
    def index_error(*args):
        raise IndexError("list index out of range")

    def overflow_error(*args):
        raise OverflowError("planted")

    monkeypatch.setattr(cli, "encode", index_error)
    monkeypatch.setattr(cli, "correlation_profile", overflow_error)
    with pytest.raises(IndexError):
        main(["encode", "4"])
    with pytest.raises(OverflowError):
        main(["correlate", "--N", "100", "--R", "4"])


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_process(*argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """The CLI in a child process that imports this checkout's package, installed or not.

    stdout is captured unless a file or descriptor is given; stderr always is.
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ostrowski.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path})


def raises_in(path: Path) -> list[tuple[str | None, str]]:
    """(enclosing function, exception name) of every raise statement in a module."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((func, "raise" if exc is None else ast.unparse(exc)))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_the_package_raises_only_its_three_errors():
    # besides the internal _Inexact, which correlation_profile catches, and
    # the invariant of harness._density_margins
    allowed = {"ValidationError", "RangeError", "CapError"}
    stray = [(path.name, func, name)
             for path in sorted(Path(SRC, "ostrowski").glob("*.py"))
             for func, name in raises_in(path)
             if name not in allowed
             and (path.name, name) != ("spectral.py", "_Inexact")
             and (path.name, func, name) != ("harness.py", "_density_margins", "AssertionError")]
    assert stray == []


def test_spectral_reads_the_twisted_rows_only_through_row_sums():
    # the padded layout of a batched twist, its prefix sums and its column
    # offsets stay inside alphafun._Rows.sums: spectral takes no cumsum and
    # no twist of its own
    tree = ast.parse(Path(SRC, "ostrowski", "spectral.py").read_text(encoding="utf-8"))
    called = {ast.unparse(node.func).rsplit(".", 1)[-1]
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "sums" in called and not called & {"cumsum", "twist"}


@pytest.mark.parametrize("argv, code", [
    (("convergents", "--depth", str(2**63)), 3),
    (("decode", "0,,1"), 2),
    (("encode", "4", "--out", ""), 2),
    (("experiment", "pseudorandomness", "--N", "100", "--seed", "3"), 2),
    (("experiment", "spectrum", "--N", "100", "--R-list", "8"), 2),
])
def test_refusals_are_one_error_line_without_traceback(argv, code):
    proc = run_process(*argv)
    assert proc.returncode == code
    assert len([line for line in proc.stderr.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("correlate", "--N", "0"),
    ("experiment", "pseudorandomness", "--N", "100", "--R-list", "0,4"),
    ("experiment", "pseudorandomness", "--N", "100", "--R-list", "4,x"),
    ("decode", "1,x"),
    ("convergents", "--depth", "0"),
    ("spectrum", "--N", "100", "--fn", "atoms:{tmp}/missing.json"),
    ("spectrum", "--N", "100", "--fn", "atoms:{tmp}"),  # a directory
    ("spectrum", "--N", "100", "--fn", "atoms:{tmp}/not.json"),
    ("verify", "--only", ""),  # the empty family name, not the whole battery
])
def test_bad_sizes_are_exit_2_without_traceback(argv, tmp_path):
    (tmp_path / "not.json").write_text("not json")
    proc = run_process(*(arg.format(tmp=tmp_path) for arg in argv))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fn", ["theta:nan", "theta:0.5+beta:nan", "theta:inf", "theta:0.5+beta:inf"])
def test_non_finite_theta_or_beta_is_exit_2_without_traceback(fn):
    proc = run_process("correlate", "--fn", fn, "--N", "100", "--R", "4")
    assert proc.returncode == 2
    assert "not finite" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("row1, message", [
    ([[1.0, 0.0], [float("nan"), 0.0]], "not finite"),
    (5, "must be a list of"),
], ids=["nan_atom", "non_list_row"])
def test_malformed_atom_table_is_exit_2_without_traceback(row1, message, tmp_path):
    doc = {str(k): [[1.0, 0.0], [0.0, 1.0]] for k in range(40)}  # golden rows
    doc["1"] = row1
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(doc))
    proc = run_process("correlate", "--fn", f"atoms:{path}", "--N", "100", "--R", "4")
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_atom_table_past_the_value_bound_is_exit_2_without_traceback(tmp_path):
    doc = {str(k): [[1.0, 0.0], [1e308, 1e308]] for k in range(40)}  # golden rows
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(doc))
    proc = run_process("correlate", "--fn", f"atoms:{path}", "--N", "40", "--R", "4")
    assert proc.returncode == 2
    assert "could overflow" in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_dense_cap_is_exit_3_without_traceback():
    # RANGE_CAP + 1 points: refused before the value block is allocated
    proc = run_process("spectrum", "--N", str((1 << 26) + 1))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


def test_atom_table_past_the_atom_cap_is_exit_3_without_traceback(monkeypatch, capsys):
    # a 103-point request on a scale whose top row holds 4 * 10**6 atoms:
    # refused before any atom row is built
    import ostrowski.alphafun as alphafun

    monkeypatch.setattr(alphafun, "frac_mul_array", lambda *a: pytest.fail("atom row built"))
    assert main(["correlate", "--alpha", "periodic:/1,4000000", "--N", "100", "--R", "4"]) == 3
    err = capsys.readouterr().err
    assert "atoms, past the cap" in err and "Traceback" not in err


def test_fourier_of_a_twist_past_2_63_runs(capsys):
    # silver's largest table twists its top row at multipliers up to 2 * q_K > 2**63
    code, out = run(capsys, "fourier", "--alpha", "silver", "--fn", "theta:0.5+beta:0.3", "--lam", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 12 and payload["parseval_delta"] < 1e-12
    g = from_theta(0.5, expand_max(parse_alpha_spec("silver")))
    vals = [complex(v) * cmath.exp(-2j * cmath.pi * float((Fraction(3, 10) * n) % 1))
            for n, v in enumerate(values_range(g, 12))]
    for row in payload["rows"]:
        want = sum(v * cmath.exp(-2j * cmath.pi * row["h"] * u / 12) for u, v in enumerate(vals)) / 12
        assert abs(complex(row["re"], row["im"]) - want) < 1e-12


def test_spectrum_grid_past_the_size_cap_is_exit_3_without_traceback(monkeypatch, capsys):
    # one row of RANGE_CAP + 1 grid entries: refused before the value block
    monkeypatch.setattr(spectral, "values_range", lambda *a: pytest.fail("value block built"))
    assert main(["spectrum", "--N", "100", "--grid", str((1 << 26) + 1)]) == 3
    err = capsys.readouterr().err
    assert "spectrum grid" in err and "Traceback" not in err


def test_correlate_past_the_scale_limit_is_exit_3_without_traceback():
    # n < N + R - 1 must be covered; one past the largest table's limit cannot be
    limit = expand_max(GOLDEN).limit
    proc = run_process("correlate", "--N", str(limit - 2), "--R", "4")
    assert proc.returncode == 3
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_correlate_past_the_old_size_cap_takes_the_levels_route(capsys):
    # N + R - 1 = RANGE_CAP + 1 used to need a value block past the cap
    code, out = run(capsys, "correlate", "--N", str(1 << 26), "--R", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "levels-exact"
    assert [row["r"] for row in payload["rows"]] == [0, 1]
    assert payload["rows"][0]["re"] == 1.0 and payload["rows"][0]["im"] == 0.0


@pytest.mark.parametrize("command", ["correlate", "experiment"])
def test_scale_request_covers_exactly_n_below_N_plus_R_minus_1(command, capsys):
    # only n < N + R - 1 is evaluated: N + R - 1 = limit runs, one more is exit 3
    limit, R = expand_max(GOLDEN).limit, 4
    for N, want in ((limit - R + 1, 0), (limit - R + 2, 3)):
        if command == "correlate":
            argv = ["correlate", "--N", str(N), "--R", str(R)]
        else:
            argv = ["experiment", "pseudorandomness", "--N", str(N), "--R-list", f"2,{R}"]
        code, out = run(capsys, *argv)
        assert code == want
        if want == 0:
            assert json.loads(out)["route"] == "levels"


def test_correlate_past_the_size_budget_is_exit_3_before_allocating(monkeypatch, capsys):
    # R + q_{k0+1} past RANGE_CAP: refused before the seed block is built
    monkeypatch.setattr(spectral, "values_range", lambda *a: pytest.fail("value block built"))
    assert main(["correlate", "--N", str(1 << 40), "--R", str((1 << 26) + 1)]) == 3
    err = capsys.readouterr().err
    assert "past the cap" in err and "Traceback" not in err


def test_correlate_at_N_1e18_takes_the_levels_route(capsys):
    code, out = run(capsys, "correlate", "--N", str(10**18), "--R", "1024")
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "levels"
    assert len(payload["rows"]) == 1024
    assert payload["rows"][0]["re"] == pytest.approx(1.0, abs=1e-12)
    assert payload["quadratic_mean"] < 0.01


def test_atom_table_between_the_old_and_new_value_bound_is_exit_2(tmp_path, capsys):
    # B = 2**483 passed sqrt(max/2**53) ~ 2**485.5 but could overflow N * B**2
    # for N near 2**64; sqrt(max/2**64) = 2**480 refuses it
    doc = {str(k): [[1.0, 0.0], [2.0**483 if k == 1 else 1.0, 0.0]] for k in range(40)}
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(doc))
    assert main(["correlate", "--fn", f"atoms:{path}", "--N", "40", "--R", "4"]) == 2
    assert "could overflow" in capsys.readouterr().err


def test_correlate_reports_levels_route(capsys):
    code, out = run(capsys, "correlate", "--N", "40000", "--R", "32")
    assert code == 0
    assert json.loads(out)["route"] == "levels-exact"


def test_corrupt_atoms_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"0": [[1.0, 0.0]]}))
    assert main(["verify", "--only", "fejer", "--fn", f"atoms:{bad}"]) == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--only", "fejer", "--seed", "-1"),
    ("experiment", "spectrum", "--N", "4096", "--seed", "-1"),
])
def test_negative_seed_is_exit_2_without_traceback(argv, capsys):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err
    assert "Traceback" not in err


def test_atom_table_whose_squared_bound_passes_the_float_range_at_the_scale_limit(tmp_path, capsys):
    # B = 2**479.5 stays below VALUE_BOUND_MAX = 2**480, but periodic:/1000
    # has 7 rows and a limit near 2**69.8, so N * B**2 could reach inf
    scale = expand_max(parse_alpha_spec("periodic:/1000"))
    assert scale.rows == 7
    m = 2.0 ** (479.5 / 7)
    doc = {str(k): [[1.0, 0.0]] + [[m, 0.0]] * 1000 for k in range(scale.rows)}
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(doc))
    argv = ("correlate", "--alpha", "periodic:/1000", "--fn", f"atoms:{path}",
            "--N", str(scale.limit - 1), "--R", "1")
    code = main(list(argv))
    out, err = capsys.readouterr()
    proc = run_process(*argv)
    for code, out, err in ((code, out, err), (proc.returncode, proc.stdout, proc.stderr)):
        assert code in (2, 3)
        assert "could overflow" in err
        assert "NaN" not in out + err and "Infinity" not in out
        assert "Traceback" not in err


def test_every_public_name_resolves_and_star_import_works():
    import ostrowski

    assert [name for name in ostrowski.__all__ if not hasattr(ostrowski, name)] == []
    namespace = {}
    exec("from ostrowski import *", namespace)
    assert set(ostrowski.__all__) <= set(namespace)


def test_installed_entry_point():
    proc = run_process("encode", "4")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["digits"] == [0, 1, 0, 1]
