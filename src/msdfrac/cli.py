"""Command-line front end for the convergence studies.

Each model subcommand runs a two-mesh study of the packaged example
problem at the requested parameters; ``table --id N`` reruns both
blocks of published table N.  Output is a pretty block or CSV on
stdout, plus CSV to a file via --out.

Exit codes: 0 on success, 2 for invalid parameters, 3 when a solve
fails mid-study.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .study import (
    StudyError,
    TABLE_IDS,
    default_ms,
    emit_csv,
    make_diffusion_wave_study,
    make_integro_study,
    make_relaxation_study,
    make_subdiffusion_study,
    make_volterra_study,
    reproduce_table,
    run_study,
)


def _parse_c(text: str) -> tuple:
    out = []
    for tok in text.split(","):
        num, slash, den = tok.partition("/")
        den = float(den) if slash else 1.0
        if den == 0.0:
            raise argparse.ArgumentTypeError(f"--c has a zero denominator in {tok.strip()!r}")
        out.append(float(num) / den)
    return tuple(out)


def _add_common(p: argparse.ArgumentParser, make, *, gamma: bool = False):
    """The options every model shares; make is the model's study constructor,
    called with the parsed options other than --M, --out and --format."""
    p.set_defaults(make=make)
    if gamma:
        p.add_argument("--gamma", type=float, required=True, help="wave exponent in (1, 2)")
    else:
        p.add_argument("--alpha", type=float, required=True, help="fractional exponent in (0, 1)")
    p.add_argument(
        "--M",
        type=int,
        action="append",
        dest="Ms",
        metavar="M",
        help="time-step count; repeat for a doubling list (default: the table's column)",
    )
    p.add_argument("--T", type=float, default=1.0, help="time horizon (default 1)")
    p.add_argument("--out", type=str, default=None, help="also write the rows as CSV here")
    p.add_argument(
        "--format",
        choices=("csv", "pretty"),
        default="pretty",
        help="stdout format (default pretty)",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="msdfrac",
        description="Convergence studies for solvers of nonlocal-in-time problems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relaxation", help="scalar fractional relaxation, L1 scheme")
    _add_common(p, make_relaxation_study)
    p.add_argument("--n", type=int, default=0, help="separated terms (default 0)")
    p.add_argument("--r", type=float, default=1.0, help="mesh grading (default 1)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="coefficient (default 1)")

    p = sub.add_parser("volterra", help="weakly singular Volterra equation, collocation")
    _add_common(p, make_volterra_study)
    p.add_argument("--n", type=int, default=0, help="separated terms (default 0)")
    p.add_argument(
        "--c",
        type=_parse_c,
        default=(2.0 / 3.0, 1.0),
        help="collocation points per step, comma list, fractions allowed (default 2/3,1)",
    )

    p = sub.add_parser("subdiffusion", help="1D subdiffusion, L1 + linear FEM")
    _add_common(p, make_subdiffusion_study)
    p.add_argument("--n", type=int, default=0, help="separated terms (default 0)")
    p.add_argument("--r", type=float, default=1.0, help="mesh grading (default 1)")
    p.add_argument("--J", type=int, default=128, help="spatial cells (default 128)")

    p = sub.add_parser("integro", help="1D integrodifferential, CQ + Crank-Nicolson")
    _add_common(p, make_integro_study)
    p.add_argument("--n", type=int, default=1, help="0 = direct stepper, 1 = one-term split")
    p.add_argument("--J", type=int, default=32, help="spatial cells (default 32)")

    p = sub.add_parser("diffusion-wave", help="1D diffusion-wave via the integro stepper")
    _add_common(p, make_diffusion_wave_study, gamma=True)
    p.add_argument("--J", type=int, default=32, help="spatial cells (default 32)")

    p = sub.add_parser("table", help="rerun a published table")
    p.add_argument("--id", type=int, required=True, help=f"table number, one of {TABLE_IDS}")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("csv", "pretty"), default="pretty")

    return ap


def _table(table_id: int) -> list:
    """Both blocks of a published table.  What the table's own parameters
    warn of (the grading r < 1 of tables 2 and 5) is printed once per
    message as a plain note on stderr, not as a warning with a source
    line; library callers of reproduce_table keep the warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        left, right = reproduce_table(table_id)
    for text in dict.fromkeys(str(w.message) for w in caught):
        print(f"note: {text}", file=sys.stderr)
    return list(left) + list(right)


def _emit(reports: list, fmt: str, out_path):
    for rep in reports:
        if rep.note:
            print(f"note: {rep.title()}: {rep.note}", file=sys.stderr)
    text = emit_csv(reports)
    if fmt == "csv":
        sys.stdout.write(text)
    else:
        print("\n\n".join(rep.pretty() for rep in reports))
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    opts = vars(build_parser().parse_args(argv))
    command, fmt, out_path = opts.pop("command"), opts.pop("format"), opts.pop("out")
    try:
        if command == "table":
            reports = _table(opts["id"])
        else:
            make, Ms = opts.pop("make"), opts.pop("Ms")
            spec = make(**opts)
            reports = [run_study(spec, Ms or default_ms(spec))]
    except StudyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(reports, fmt, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
