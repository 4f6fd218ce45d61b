"""Command line front end.

Subcommands: encode, decode, sigma, convergents, correlate, fourier,
spectrum, verify, experiment.  Exit codes: 0 success, 1 a check or
verification failed, 2 usage or ValidationError, 3 RangeError or CapError.
Any other exception is a bug and propagates.  A reader that closes stdout
early (BrokenPipeError) ends the output quietly, under the run's own exit
code; any other failed write to stdout exits 2, as a failed --out file
does.  Neither prints a traceback.

Every subcommand, and each experiment kind, accepts only the flags it
reads.  All output except the verify report goes through `_emit`: JSON, or
CSV whose first line is `# config: ` and the JSON of the payload's `config`,
its one table streamed a chunk of rows at a time.  Every file, the verify
report's included, goes through `_write`, and everything on stdout through
`_print`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
CHUNK_ROWS = 4096  # table rows formatted and written at a time


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"out", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


class _Table:
    """`header` over `size` rows; columns(i, j) gives the Python-scalar columns of rows [i, j).

    So only one chunk of rows exists as Python objects at a time.
    """

    def __init__(self, header, size: int, columns):
        self.header, self.size, self.columns = header, size, columns

    @classmethod
    def of_rows(cls, header, rows):
        """The table of rows already built: sigma's, convergents' and the CSV-only ones."""
        return cls(header, len(rows), lambda i, j: list(zip(*rows[i:j])))

    def chunks(self):
        """The columns of each chunk of CHUNK_ROWS rows, in order."""
        for i in range(0, self.size, CHUNK_ROWS):
            yield self.columns(i, min(i + CHUNK_ROWS, self.size))


def _complex_table(index: str, z) -> _Table:
    """The (index, re, im, abs) table of complex array z, from one tolist() per chunk.

    abs is Python's abs of each complex: np.abs differs from it in the last bit.
    """
    def columns(i, j):
        vals = z[i:j].tolist()
        return [list(range(i, j)), [v.real for v in vals], [v.imag for v in vals],
                [abs(v) for v in vals]]
    return _Table([index, "re", "im", "abs"], len(z), columns)


def _emit(args, payload: dict, table: _Table | None = None) -> None:
    """Write the payload as JSON (default) or CSV, to stdout or --out, a chunk of rows at a time.

    A JSON table is the _Table at payload["rows"]: JSON prints it in that place, one object
    per row keyed by its header, and the bytes are json.dumps(payload, indent=2) + "\\n" of
    those row objects (see _json_parts).  CSV prints `table`, if given, else that one:
    `# config: ` and the JSON of payload["config"], the header, one line per row (None an
    empty field, else str), each ending in a bare newline.
    """
    if args.format == "json":
        parts = _json_parts(payload)
    else:
        parts = _csv_parts(payload["config"], table or payload["rows"])
    if args.out is not None:
        _write(args.out, parts)
    else:
        _print(parts)


def _json_parts(payload: dict):
    """json.dumps(payload, indent=2) + "\\n", its table's rows written without the indent encoder.

    The head is the payload dumped with an empty table, split at its one line `\\n  "rows": []`:
    nested keys sit at least 4 spaces deep and JSON strings hold no raw newline, so that line is
    the top-level key and the table keeps its place.  Each chunk runs each column through the C
    encoder, whose tokens for the numbers and None a column holds (float.__repr__, NaN,
    Infinity, ints, null) are the indent encoder's; a column holds no str, so the split at
    ", " is exact.  The tokens fill a row template built once from the header.
    """
    table = payload.get("rows")
    if not isinstance(table, _Table):
        yield json.dumps(payload, indent=2) + "\n"
        return
    text = json.dumps({**payload, "rows": []}, indent=2) + "\n"
    if not table.size:
        yield text
        return
    head, _, tail = text.partition('\n  "rows": []')
    row = "\n    {\n" + ",\n".join(f"      {json.dumps(k)}: %s" for k in table.header) + "\n    }"
    sep = head + '\n  "rows": ['
    for cols in table.chunks():
        tokens = [json.dumps(col)[1:-1].split(", ") for col in cols]
        yield sep + ",".join(map(row.__mod__, zip(*tokens)))
        sep = ","
    yield "\n  ]" + tail


def _csv_parts(config: dict, table: _Table):
    """The CSV lines of `table` under its `# config: ` and header lines."""
    yield "# config: " + json.dumps(config) + "\n" + ",".join(table.header) + "\n"
    for cols in table.chunks():
        cells = [["" if c is None else str(c) for c in col] for col in cols]
        yield "".join([",".join(r) + "\n" for r in zip(*cells)])


def _write(path: str, parts) -> None:
    """The one file writer: the strings of iterable `parts`, in order, to path.

    ValidationError (exit 2) if it cannot be written.  A lone str must come as [text]: a bare
    str would be written one character at a time.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _print(parts) -> None:
    """The one stdout writer: the strings of iterable `parts`, in order, then a flush.

    The flush makes a failed write fail here, not at interpreter exit.  On any OSError
    stdout's file descriptor is pointed at os.devnull, so the interpreter's last flush of
    the unwritten bytes succeeds and prints nothing.  BrokenPipeError (the reader closed the
    pipe) then ends the output quietly, and the run keeps its exit code; any other OSError
    becomes ValidationError (exit 2), as in _write.
    """
    try:
        sys.stdout.writelines(parts)
        sys.stdout.flush()
    except OSError as exc:
        try:
            fd = sys.stdout.fileno()
        except OSError:  # io.UnsupportedOperation: a stream with no descriptor holds no bytes
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise ValidationError(f"cannot write to stdout: {exc.strerror or exc}") from exc


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
    _emit(args, payload, _Table.of_rows(header, [row]))
    return EXIT_OK


def cmd_decode(args) -> int:
    digits = parse_int_list(args.digits, "digits")
    scale = expand(parse_alpha_spec(args.alpha), max(len(digits), 2))
    n = decode(DigitString(digits, scale))
    payload = {"config": _config_dict(args), "digits": list(digits), "n": n}
    _emit(args, payload, _Table.of_rows(["digits", "n"], [[";".join(map(str, digits)), n]]))
    return EXIT_OK


def cmd_sigma(args) -> int:
    scale = scale_for(parse_alpha_spec(args.alpha), max(args.n) + 1)
    rows = [[n, sigma(n, scale)] for n in args.n]
    _emit(args, {"config": _config_dict(args), "rows": _Table.of_rows(["n", "sigma"], rows)})
    return EXIT_OK


def cmd_convergents(args) -> int:
    """Rows i, a_i, p_i, q_i to --depth (all by default); from K = 3 rows also
    alpha = p_d/q_d, d = min(K - 1, 40), and its bound 1/(q_d q_{d+1})."""
    spec = parse_alpha_spec(args.alpha)
    scale = expand(spec, args.depth) if args.depth is not None else expand_max(spec)
    rows = [[i, scale.quotients[i - 1] if i else None, scale.p[i], scale.q[i]]
            for i in range(scale.K + 1)]
    payload = {"config": _config_dict(args), "rows": _Table.of_rows(["i", "a", "p", "q"], rows)}
    if scale.K >= 3:  # alpha_value needs depth >= 2, and row d + 1 for its bound
        approx = alpha_value(spec, min(scale.K - 1, 40))
        payload["alpha"] = approx.value
        payload["alpha_error_bound"] = approx.error_bound
    _emit(args, payload)
    return EXIT_OK


def cmd_correlate(args) -> int:
    g = fn_for(args.alpha, args.fn, args.N + args.R - 1)  # n < N + R - 1 is evaluated
    prof = correlation_profile(g, args.R, args.N)
    payload = {
        "config": _config_dict(args),
        "route": prof.route,
        "quadratic_mean": prof.quadratic_mean,
        "absolute_mean": prof.absolute_mean,
        "rows": _complex_table("r", prof.gamma),
    }
    _emit(args, payload)
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
        "rows": _complex_table("h", table.G),
    }
    _emit(args, payload)
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
    peak = _Table.of_rows(["beta_peak", "peak_value"], [[scan.beta_peak, scan.peak_value]])
    _emit(args, payload, peak)
    return EXIT_OK


def cmd_verify(args) -> int:
    only = args.only.split(",") if args.only is not None else None
    reports = verify_all(seed=args.seed, only=only, fn_spec=args.fn, alpha_spec=args.alpha)
    _print(f"{'PASS' if rep.ok else 'FAIL'} {rep.check_name}: {rep.instances_passed}/{rep.instances_run} "
           f"instances, worst margin {rep.worst_margin:.3e}\n" for rep in reports)
    if args.out is not None:
        _write(args.out, [json.dumps([asdict(rep) for rep in reports], indent=2) + "\n"])
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_CHECK_FAILED


def cmd_experiment(args) -> int:
    fields = {"alpha_spec": args.alpha, "fn_spec": args.fn, "N": args.N}
    if args.kind == "spectrum":
        payload = spectrum_experiment(ExperimentConfig(**fields, seed=args.seed))
        rows = [["ladder", r["N"], r["beta_peak"], r["peak_value"]] for r in payload["ladder"]]
        rows += [["scale_sums", s["beta"], len(s["moduli"]), s["contraction_margin"]]
                 for s in payload["scale_sums"]]
        _emit(args, payload, _Table.of_rows(["section", "x", "y", "z"], rows))
    else:
        if args.R_list is not None:
            fields["R_list"] = parse_int_list(args.R_list, "--R-list")
        payload = pseudorandomness_experiment(ExperimentConfig(**fields))
        rows = payload["rows"]  # one dict per R, never none: the harness refuses an empty R_list
        _emit(args, payload, _Table.of_rows(list(rows[0]), [list(r.values()) for r in rows]))
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
