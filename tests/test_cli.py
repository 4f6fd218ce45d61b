"""Command line interface: payload shapes, exit codes, output formats."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ostrowski import GOLDEN, CheckReport, expand_max, from_theta, parse_alpha_spec, scale_for
from ostrowski.cli import build_parser, main
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
    assert build_parser() is not build_parser()


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


def test_correlate_payload(capsys):
    code, out = run(capsys, "correlate", "--N", "2000", "--R", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["route"] == "pairwise"
    assert len(doc["rows"]) == 16
    assert doc["rows"][0]["re"] == pytest.approx(1.0)
    assert 0.0 < doc["quadratic_mean"] <= 1.0


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
    for check in (lambda: spectral.parseval_check(g, 4),
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
    assert main(["experiment", "spectrum", "--N", "5000", "--R-list", "8"]) == 2
    assert "pseudorandomness" in capsys.readouterr().err


def test_verify_fn_runs_the_given_function(capsys):
    base_code, base = run(capsys, "verify", "--only", "parseval,cyclic")
    fn_code, with_fn = run(capsys, "verify", "--only", "parseval,cyclic", "--fn", "theta:0.3")
    assert base_code == fn_code == 0
    assert with_fn != base
    # one function per default scale instead of four theta values
    assert with_fn.splitlines()[0].startswith("PASS parseval: 42/42")


def test_verify_fn_atoms_must_fit_every_scale(tmp_path, capsys):
    scale = scale_for(GOLDEN, 2 * 1024 + 256)
    g = from_theta(0.3, scale)
    doc = {str(k): [[v.real, v.imag] for v in row] for k, row in enumerate(g.atoms)}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--only", "parseval", "--fn", f"atoms:{path}"]) == 2
    assert "error:" in capsys.readouterr().err


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
    # argparse refuses all but the pseudorandomness --seed, which its handler refuses
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
    "verify": {"--fn", "--out", "--seed", "--only"},
    "experiment": {"--alpha", "--out", "--format", "--fn", "--seed", "--N", "--R-list"},
}


def test_each_subcommand_takes_the_flags_of_the_readme_table():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(FLAGS)
    for name, parser in sub.choices.items():
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


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_process(*argv) -> subprocess.CompletedProcess:
    """The CLI in a child process that imports this checkout's package, installed or not."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ostrowski.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("argv", [
    ("correlate", "--N", "0"),
    ("experiment", "pseudorandomness", "--N", "100", "--R-list", "0,4"),
    ("experiment", "pseudorandomness", "--N", "100", "--R-list", "4,x"),
    ("decode", "1,x"),
    ("convergents", "--depth", "0"),
    ("spectrum", "--N", "100", "--fn", "atoms:{tmp}/missing.json"),
    ("spectrum", "--N", "100", "--fn", "atoms:{tmp}"),  # a directory
    ("spectrum", "--N", "100", "--fn", "atoms:{tmp}/not.json"),
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
