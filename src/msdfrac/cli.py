"""Command-line front end for the convergence studies.

Each model subcommand runs a two-mesh study of the packaged example
problem at the requested parameters; ``table --id N`` reruns both
blocks of published table N.  Output is a pretty block or CSV on
stdout, plus CSV to a file via --out.

Exit codes: 0 on success, 2 for invalid parameters or an unwritable
--out, 3 when a solve fails mid-study.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import warnings

from .study import (
    StudyError,
    TABLE_IDS,
    _fmt_param,
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


# constructor keyword -> (flag, type, help).  A model subcommand offers those its study
# constructor takes, with the constructor's defaults; one without a default is required.
_OPTIONS = {
    "alpha": ("--alpha", float, "fractional exponent in (0, 1)"),
    "gamma": ("--gamma", float, "wave exponent in (1, 2)"),
    "n": ("--n", int, "separated terms"),
    "r": ("--r", float, "mesh grading"),
    "lam": ("--lambda", float, "coefficient"),
    "c": ("--c", _parse_c, "collocation points per step, comma list, fractions allowed"),
    "J": ("--J", int, "spatial cells"),
    "T": ("--T", float, "time horizon"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="msdfrac",
        description="Convergence studies for solvers of nonlocal-in-time problems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for model, make, about in (
        ("relaxation", make_relaxation_study, "scalar fractional relaxation, L1 scheme"),
        ("volterra", make_volterra_study, "weakly singular Volterra equation, collocation"),
        ("subdiffusion", make_subdiffusion_study, "1D subdiffusion, L1 + linear FEM"),
        ("integro", make_integro_study, "1D integrodifferential, CQ + Crank-Nicolson"),
        ("diffusion-wave", make_diffusion_wave_study, "1D diffusion-wave via the integro stepper"),
    ):
        p = sub.add_parser(model, help=about)
        p.set_defaults(make=make)  # called with the parsed options other than --M, --out and --format
        for name, param in inspect.signature(make).parameters.items():
            if name in _OPTIONS:
                flag, kind, text = _OPTIONS[name]
                if param.default is param.empty:
                    p.add_argument(flag, dest=name, type=kind, required=True, help=text)
                else:
                    text += f" (default {_fmt_param(param.default)})"
                    p.add_argument(flag, dest=name, type=kind, default=param.default, help=text)
        p.add_argument(
            "--M",
            type=int,
            action="append",
            dest="Ms",
            metavar="M",
            help="time-step count; repeat for a doubling list (default: the table's column)",
        )

    p = sub.add_parser("table", help="rerun a published table")
    p.add_argument("--id", type=int, required=True, help=f"table number, one of {TABLE_IDS}")
    for p in sub.choices.values():
        p.add_argument("--out", type=str, default=None, help="also write the rows as CSV here")
        p.add_argument(
            "--format",
            choices=("csv", "pretty"),
            default="pretty",
            help="stdout format (default pretty)",
        )

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


def _emit(reports: list, fmt: str) -> str:
    for rep in reports:
        if rep.note:
            print(f"note: {rep.title()}: {rep.note}", file=sys.stderr)
    text = emit_csv(reports)
    if fmt == "csv":
        sys.stdout.write(text)
    else:
        print("\n\n".join(rep.pretty() for rep in reports))
    return text


def main(argv=None) -> int:
    opts = vars(build_parser().parse_args(argv))
    command, fmt, out_path = opts.pop("command"), opts.pop("format"), opts.pop("out")
    try:
        if out_path and (os.path.isdir(out_path) or not os.path.isdir(os.path.dirname(out_path) or os.curdir)):
            raise ValueError(f"--out {out_path}: not a file in an existing directory")
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
    text = _emit(reports, fmt)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as e:  # one the check before the solves cannot see, such as a read-only file
            print(f"error: --out {out_path}: {e.strerror}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
