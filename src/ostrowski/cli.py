"""Command line front end.

Subcommands: encode, decode, sigma, convergents, correlate, fourier,
spectrum, verify, experiment.  Exit codes: 0 success, 1 a check or
verification failed, 2 usage or ValidationError, 3 RangeError or CapError.
Any other exception is a bug and propagates.

Every subcommand, and each experiment kind, accepts only the flags it
reads.  All output except the verify report goes through `_emit`: JSON, or
CSV whose first line is `# config: ` and the JSON of the payload's `config`.
Every file, the verify report's included, goes through `_write`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from .alphafun import fn_for, parse_fn_spec
from .cfrac import alpha_value, expand, expand_max, parse_alpha_spec, parse_int_list, scale_for
from .errors import CapError, RangeError, ValidationError
from .harness import ExperimentConfig, pseudorandomness_experiment, spectrum_experiment, verify_all
from .numeration import DigitString, decode, encode, psi, sigma
from .spectral import GRID_DEFAULT, correlation_profile, fourier_coeffs, spectrum_scan

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RANGE = 3


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"out", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _emit(args, payload: dict, header, rows=None) -> None:
    """Write the payload as JSON (default) or CSV, to stdout or --out.

    The one table is `header` over rows of Python scalars in column order:
    payload["rows"], which JSON prints in place as objects keyed by the header, or
    else `rows`, CSV's alone.  CSV is `# config: ` and the JSON of payload["config"],
    the header, one line per row (None an empty field), each ending in a bare newline.
    """
    if args.format == "json":
        if rows is None:
            payload = {**payload, "rows": [dict(zip(header, row)) for row in payload["rows"]]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["# config: " + json.dumps(payload["config"]), ",".join(header)]
        lines += [",".join("" if c is None else str(c) for c in row)
                  for row in (payload["rows"] if rows is None else rows)]
        text = "\n".join(lines) + "\n"
    if args.out is not None:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _write(path: str, text: str) -> None:
    """The one file writer: text to path, ValidationError (exit 2) if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


# --- handlers -----------------------------------------------------------------

def cmd_encode(args) -> int:
    scale = scale_for(parse_alpha_spec(args.alpha), args.n + 1)
    d = encode(args.n, scale)
    payload = {
        "config": _config_dict(args),
        "n": args.n,
        "digits": list(d.digits),
        "sigma": d.sigma,
        "psi": {str(lam): psi(args.n, lam, scale) for lam in (args.lam or [])},
    }
    header = ["n", "sigma", "digits"] + [f"psi_{lam}" for lam in (args.lam or [])]
    row = [args.n, d.sigma, ";".join(map(str, d.digits))]
    row += [payload["psi"][str(lam)] for lam in (args.lam or [])]
    _emit(args, payload, header, [row])
    return EXIT_OK


def cmd_decode(args) -> int:
    digits = parse_int_list(args.digits, "digits")
    scale = expand(parse_alpha_spec(args.alpha), max(len(digits), 2))
    n = decode(DigitString(digits, scale))
    payload = {"config": _config_dict(args), "digits": list(digits), "n": n}
    _emit(args, payload, ["digits", "n"], [[";".join(map(str, digits)), n]])
    return EXIT_OK


def cmd_sigma(args) -> int:
    scale = scale_for(parse_alpha_spec(args.alpha), max(args.n) + 1)
    payload = {"config": _config_dict(args), "rows": [[n, sigma(n, scale)] for n in args.n]}
    _emit(args, payload, ["n", "sigma"])
    return EXIT_OK


def cmd_convergents(args) -> int:
    """Rows i, a_i, p_i, q_i to --depth (all by default); from K = 3 rows also
    alpha = p_d/q_d, d = min(K - 1, 40), and its bound 1/(q_d q_{d+1})."""
    spec = parse_alpha_spec(args.alpha)
    scale = expand(spec, args.depth) if args.depth is not None else expand_max(spec)
    payload = {
        "config": _config_dict(args),
        "rows": [[i, scale.quotients[i - 1] if i else None, scale.p[i], scale.q[i]]
                 for i in range(scale.K + 1)],
    }
    if scale.K >= 3:  # alpha_value needs depth >= 2, and row d + 1 for its bound
        approx = alpha_value(spec, min(scale.K - 1, 40))
        payload["alpha"] = approx.value
        payload["alpha_error_bound"] = approx.error_bound
    _emit(args, payload, ["i", "a", "p", "q"])
    return EXIT_OK


def cmd_correlate(args) -> int:
    g = fn_for(args.alpha, args.fn, args.N + args.R - 1)  # n < N + R - 1 is evaluated
    prof = correlation_profile(g, args.R, args.N)
    payload = {
        "config": _config_dict(args),
        "route": prof.route,
        "quadratic_mean": prof.quadratic_mean,
        "absolute_mean": prof.absolute_mean,
        "rows": [[r, z.real, z.imag, abs(z)] for r, z in enumerate(prof.gamma.tolist())],
    }
    _emit(args, payload, ["r", "re", "im", "abs"])
    return EXIT_OK


def cmd_fourier(args) -> int:
    scale = expand_max(parse_alpha_spec(args.alpha))
    g = parse_fn_spec(args.fn, scale)
    table = fourier_coeffs(g, args.lam)
    _, _, delta = table.parseval()
    payload = {
        "config": _config_dict(args),
        "lam": args.lam,
        "q": table.q,
        "parseval_delta": delta,
        "rows": [[h, z.real, z.imag, abs(z)] for h, z in enumerate(table.G.tolist())],
    }
    _emit(args, payload, ["h", "re", "im", "abs"])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    g = fn_for(args.alpha, args.fn, args.N)
    scan = spectrum_scan(g, args.N, grid_size=args.grid)
    order = (-scan.grid).argsort(kind="stable")[:5]  # value descending, then j ascending
    payload = {
        "config": _config_dict(args),
        "beta_peak": scan.beta_peak,
        "peak_value": scan.peak_value,
        "top_grid_points": [{"j": j, "beta": j / args.grid, "value": v}
                            for j, v in zip(order.tolist(), scan.grid[order].tolist())],
    }
    _emit(args, payload, ["beta_peak", "peak_value"], [[scan.beta_peak, scan.peak_value]])
    return EXIT_OK


def cmd_verify(args) -> int:
    only = args.only.split(",") if args.only is not None else None
    reports = verify_all(seed=args.seed, only=only, fn_spec=args.fn, alpha_spec=args.alpha)
    for rep in reports:
        status = "PASS" if rep.ok else "FAIL"
        print(f"{status} {rep.check_name}: {rep.instances_passed}/{rep.instances_run} "
              f"instances, worst margin {rep.worst_margin:.3e}")
    if args.out is not None:
        _write(args.out, json.dumps([asdict(rep) for rep in reports], indent=2) + "\n")
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_CHECK_FAILED


def cmd_experiment(args) -> int:
    fields = {"alpha_spec": args.alpha, "fn_spec": args.fn, "N": args.N}
    if args.kind == "spectrum":
        payload = spectrum_experiment(ExperimentConfig(**fields, seed=args.seed))
        rows = [["ladder", r["N"], r["beta_peak"], r["peak_value"]] for r in payload["ladder"]]
        rows += [["scale_sums", s["beta"], len(s["moduli"]), s["contraction_margin"]]
                 for s in payload["scale_sums"]]
        _emit(args, payload, ["section", "x", "y", "z"], rows)
    else:
        if args.R_list is not None:
            fields["R_list"] = parse_int_list(args.R_list, "--R-list")
        payload = pseudorandomness_experiment(ExperimentConfig(**fields))
        rows = [[r["R"], r["quadratic_mean"], r["absolute_mean"]] for r in payload["rows"]]
        _emit(args, payload, ["R", "quadratic_mean", "absolute_mean"], rows)
    return EXIT_OK


# --- parser -------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The root parser, and each subcommand's parser by (command, experiment kind or None)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--alpha", default="golden",
                        help="quotient spec: golden | silver | periodic:<pre>/<per> | list:<a1,...>")
    shared.add_argument("--out", default=None, help="output path (default stdout)")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    fn = argparse.ArgumentParser(add_help=False)
    fn_help = "function spec: theta:<x>[+beta:<y>] | atoms:<path>[+beta:<y>]"
    fn.add_argument("--fn", default="theta:0.5", help=fn_help)

    parser = argparse.ArgumentParser(prog="ostrowski",
                                     description="Ostrowski numeration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", parents=[shared], help="digits of n")
    p.add_argument("n", type=int)
    p.add_argument("--lam", type=int, action="append", help="also report psi at this level")

    p = sub.add_parser("decode", parents=[shared], help="value of a digit string")
    p.add_argument("digits", help="comma-separated digits, least significant first")

    p = sub.add_parser("sigma", parents=[shared], help="digit sums")
    p.add_argument("n", type=int, nargs="+")

    p = sub.add_parser("convergents", parents=[shared], help="convergent table")
    p.add_argument("--depth", type=int, default=None)

    p = sub.add_parser("correlate", parents=[shared, fn], help="autocorrelation profile")
    p.add_argument("--N", type=int, default=10**5)
    p.add_argument("--R", type=int, default=256)

    p = sub.add_parser("fourier", parents=[shared, fn], help="level-lam Fourier table")
    p.add_argument("--lam", type=int, required=True)

    p = sub.add_parser("spectrum", parents=[shared, fn], help="Fourier-Bohr peak scan")
    p.add_argument("--N", type=int, default=10**5)
    p.add_argument("--grid", type=int, default=GRID_DEFAULT)

    p = sub.add_parser("verify", help="run the check battery")
    p.add_argument("--fn", default=None, help=fn_help + " (default: the theta family)")
    p.add_argument("--alpha", default=None,
                   help="quotient spec the parseval, cyclic and carry families run on "
                        "(default: their default scales)")
    p.add_argument("--out", default=None, help="also write the reports as a JSON list here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", default=None, help="comma list of check families to run")

    kinds = sub.add_parser("experiment", help="run a sweep experiment").add_subparsers(
        dest="kind", required=True)
    p = kinds.add_parser("pseudorandomness", parents=[shared, fn], help="correlation decay in R")
    p.add_argument("--N", type=int, default=10**6)
    p.add_argument("--R-list", dest="R_list", default=None,
                   help="comma list of shift counts R (default 32,64,...,4096)")
    p = kinds.add_parser("spectrum", parents=[shared, fn], help="peak ladder and scale sums")
    p.add_argument("--N", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0, help="seed of the scale-sum betas")

    chosen = {(name, None): p for name, p in sub.choices.items()}
    chosen |= {("experiment", kind): p for kind, p in kinds.choices.items()}
    return parser, chosen


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The process's one build_parser(), built on first use, not at import; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser, chosen = _parsers()
    args, extra = parser.parse_known_args(argv)
    if extra:  # refused by the sub-parser that read them, under its own usage
        chosen[args.command, vars(args).get("kind")].error("unrecognized arguments: " + " ".join(extra))
    try:
        return globals()["cmd_" + args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RangeError, CapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE


if __name__ == "__main__":
    sys.exit(main())
