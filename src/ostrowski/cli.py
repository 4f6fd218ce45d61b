"""Command line front end.

Subcommands: encode, decode, sigma, convergents, correlate, fourier,
spectrum, verify, experiment.  Exit codes: 0 success, 1 a check or
verification failed, 2 usage or validation error, 3 range/overflow/cap error.

Every subcommand accepts only the flags it reads.  All output except the
verify report goes through `_emit`: JSON, or CSV whose first line is
`# config: ` and the JSON of the payload's `config`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from .alphafun import parse_fn_spec
from .cfrac import alpha_value, expand, expand_max, parse_alpha_spec, scale_for
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


def _emit(args, payload: dict, rows, header) -> None:
    """Write the payload as JSON (default) or CSV, to stdout or --out.

    CSV starts with `# config: ` and the JSON of payload["config"], then the
    header and one line per row; every line ends in a bare newline.
    """
    if args.format == "csv":
        lines = ["# config: " + json.dumps(payload["config"])]
        lines.append(",".join(header))
        lines += [",".join(str(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _scale_fn(args, upto: int):
    scale = scale_for(parse_alpha_spec(args.alpha), upto)
    return scale, parse_fn_spec(args.fn, scale)


def _int_list(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers (blank entries skipped), else ValidationError."""
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ValidationError(f"{what} must be a comma-separated list of integers") from exc


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
    _emit(args, payload, [row], header)
    return EXIT_OK


def cmd_decode(args) -> int:
    digits = _int_list(args.digits, "digits")
    scale = expand(parse_alpha_spec(args.alpha), max(len(digits), 2))
    n = decode(DigitString(digits, scale))
    payload = {"config": _config_dict(args), "digits": list(digits), "n": n}
    _emit(args, payload, [[";".join(map(str, digits)), n]], ["digits", "n"])
    return EXIT_OK


def cmd_sigma(args) -> int:
    scale = scale_for(parse_alpha_spec(args.alpha), max(args.n) + 1)
    rows = [[n, sigma(n, scale)] for n in args.n]
    payload = {"config": _config_dict(args), "rows": [{"n": n, "sigma": s} for n, s in rows]}
    _emit(args, payload, rows, ["n", "sigma"])
    return EXIT_OK


def cmd_convergents(args) -> int:
    spec = parse_alpha_spec(args.alpha)
    scale = expand(spec, args.depth) if args.depth is not None else expand_max(spec)
    rows = [[i, scale.quotients[i - 1] if i else "", scale.p[i], scale.q[i]]
            for i in range(scale.K + 1)]
    payload = {
        "config": _config_dict(args),
        "rows": [{"i": r[0], "a": r[1] or None, "p": r[2], "q": r[3]} for r in rows],
    }
    if scale.K >= 2:
        try:
            approx = alpha_value(spec, min(scale.K - 1, 40))
        except (IndexError, OverflowError):
            approx = None  # finite quotient list too short for the error bound
        if approx is not None:
            payload["alpha"] = approx.value
            payload["alpha_error_bound"] = approx.error_bound
    _emit(args, payload, rows, ["i", "a", "p", "q"])
    return EXIT_OK


def cmd_correlate(args) -> int:
    _, g = _scale_fn(args, args.N + args.R - 1)  # n < N + R - 1 is evaluated
    prof = correlation_profile(g, args.R, args.N)
    rows = [[r, prof.gamma[r].real, prof.gamma[r].imag, abs(prof.gamma[r])]
            for r in range(args.R)]
    payload = {
        "config": _config_dict(args),
        "route": prof.route,
        "quadratic_mean": prof.quadratic_mean,
        "absolute_mean": prof.absolute_mean,
        "rows": [{"r": r, "re": re, "im": im, "abs": ab} for r, re, im, ab in rows],
    }
    _emit(args, payload, rows, ["r", "re", "im", "abs"])
    return EXIT_OK


def cmd_fourier(args) -> int:
    scale = expand_max(parse_alpha_spec(args.alpha))
    g = parse_fn_spec(args.fn, scale)
    table = fourier_coeffs(g, args.lam)
    _, _, delta = table.parseval()
    rows = [[h, table.G[h].real, table.G[h].imag, abs(table.G[h])] for h in range(table.q)]
    payload = {
        "config": _config_dict(args),
        "lam": args.lam,
        "q": table.q,
        "parseval_delta": delta,
        "rows": [{"h": h, "re": re, "im": im, "abs": ab} for h, re, im, ab in rows],
    }
    _emit(args, payload, rows, ["h", "re", "im", "abs"])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    _, g = _scale_fn(args, args.N)
    scan = spectrum_scan(g, args.N, grid_size=args.grid)
    order = scan.grid.argsort()[::-1][:5]
    rows = [[int(j), j / args.grid, float(scan.grid[j])] for j in order]
    payload = {
        "config": _config_dict(args),
        "beta_peak": scan.beta_peak,
        "peak_value": scan.peak_value,
        "top_grid_points": [{"j": j, "beta": b, "value": v} for j, b, v in rows],
    }
    _emit(args, payload, [[scan.beta_peak, scan.peak_value]] , ["beta_peak", "peak_value"])
    return EXIT_OK


def cmd_verify(args) -> int:
    only = args.only.split(",") if args.only else None
    reports = verify_all(seed=args.seed, only=only, fn_spec=args.fn)
    for rep in reports:
        status = "PASS" if rep.ok else "FAIL"
        print(f"{status} {rep.check_name}: {rep.instances_passed}/{rep.instances_run} "
              f"instances, worst margin {rep.worst_margin:.3e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([asdict(rep) for rep in reports], fh, indent=2)
            fh.write("\n")
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_CHECK_FAILED


def cmd_experiment(args) -> int:
    fields = {"alpha_spec": args.alpha, "fn_spec": args.fn, "N": args.N}
    if args.kind == "spectrum":
        if args.R_list is not None:
            raise ValidationError("--R-list applies to pseudorandomness experiments only")
        if args.seed is not None:
            fields["seed"] = args.seed
        payload = spectrum_experiment(ExperimentConfig(**fields))
        rows = [["ladder", r["N"], r["beta_peak"], r["peak_value"]] for r in payload["ladder"]]
        rows += [["scale_sums", s["beta"], len(s["moduli"]), s["contraction_margin"]]
                 for s in payload["scale_sums"]]
        _emit(args, payload, rows, ["section", "x", "y", "z"])
    else:
        if args.seed is not None:
            raise ValidationError("--seed applies to spectrum experiments only")
        if args.R_list is not None:
            fields["R_list"] = _int_list(args.R_list, "--R-list")
        payload = pseudorandomness_experiment(ExperimentConfig(**fields))
        rows = [[r["R"], r["quadratic_mean"], r["absolute_mean"]] for r in payload["rows"]]
        _emit(args, payload, rows, ["R", "quadratic_mean", "absolute_mean"])
    return EXIT_OK


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--out", default=None, help="also write the reports as a JSON list here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", default=None, help="comma list of check families to run")

    p = sub.add_parser("experiment", parents=[shared, fn], help="run a sweep experiment")
    p.add_argument("kind", choices=("pseudorandomness", "spectrum"))
    p.add_argument("--N", type=int, default=10**6)
    p.add_argument("--R-list", dest="R_list", default=None,
                   help="comma list of shift counts R (pseudorandomness only; "
                        "default 32,64,...,4096)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the scale-sum betas (spectrum only; default 0)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use, not at import; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RangeError, CapError, OverflowError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE


if __name__ == "__main__":
    sys.exit(main())
