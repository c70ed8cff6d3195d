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

from .study import (
    ConvergenceReport,
    StudyError,
    TABLE_IDS,
    emit_csv,
    make_diffusion_wave_study,
    make_integro_study,
    make_relaxation_study,
    make_subdiffusion_study,
    make_volterra_study,
    reproduce_table,
    run_study,
)

_DEFAULT_MS = {
    "relaxation": [128, 256, 512, 1024, 2048],
    "volterra": [512, 1024, 2048, 4096, 8192],
    "integro": [128, 256, 512, 1024, 2048],
    "diffusion-wave": [128, 256, 512, 1024],
}


def _parse_c(text: str) -> tuple:
    out = []
    for tok in text.split(","):
        num, slash, den = tok.partition("/")
        den = float(den) if slash else 1.0
        if den == 0.0:
            raise argparse.ArgumentTypeError(f"--c has a zero denominator in {tok.strip()!r}")
        out.append(float(num) / den)
    return tuple(out)


def _add_common(p: argparse.ArgumentParser, *, gamma: bool = False):
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
    _add_common(p)
    p.add_argument("--n", type=int, default=0, help="separated terms (default 0)")
    p.add_argument("--r", type=float, default=1.0, help="mesh grading (default 1)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="coefficient (default 1)")

    p = sub.add_parser("volterra", help="weakly singular Volterra equation, collocation")
    _add_common(p)
    p.add_argument("--n", type=int, default=0, help="separated terms (default 0)")
    p.add_argument(
        "--c",
        type=_parse_c,
        default=(2.0 / 3.0, 1.0),
        help="collocation points per step, comma list, fractions allowed (default 2/3,1)",
    )

    p = sub.add_parser("subdiffusion", help="1D subdiffusion, L1 + linear FEM")
    _add_common(p)
    p.add_argument("--n", type=int, default=0, help="separated terms (default 0)")
    p.add_argument("--r", type=float, default=1.0, help="mesh grading (default 1)")
    p.add_argument("--J", type=int, default=128, help="spatial cells (default 128)")

    p = sub.add_parser("integro", help="1D integrodifferential, CQ + Crank-Nicolson")
    _add_common(p)
    p.add_argument("--n", type=int, default=1, help="0 = direct stepper, 1 = one-term split")
    p.add_argument("--J", type=int, default=32, help="spatial cells (default 32)")

    p = sub.add_parser("diffusion-wave", help="1D diffusion-wave via the integro stepper")
    _add_common(p, gamma=True)
    p.add_argument("--J", type=int, default=32, help="spatial cells (default 32)")

    p = sub.add_parser("table", help="rerun a published table")
    p.add_argument("--id", type=int, required=True, help=f"table number, one of {TABLE_IDS}")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("csv", "pretty"), default="pretty")

    return ap


def _make_spec(args):
    if args.command == "relaxation":
        return make_relaxation_study(args.alpha, n=args.n, r=args.r, lam=args.lam, T=args.T)
    if args.command == "volterra":
        return make_volterra_study(args.alpha, n=args.n, c=args.c, T=args.T)
    if args.command == "subdiffusion":
        return make_subdiffusion_study(args.alpha, n=args.n, r=args.r, J=args.J, T=args.T)
    if args.command == "integro":
        return make_integro_study(args.alpha, n=args.n, J=args.J, T=args.T)
    return make_diffusion_wave_study(args.gamma, J=args.J, T=args.T)


def _default_ms(args) -> list:
    if args.command == "subdiffusion":
        return [64, 128, 256, 512, 1024] if args.alpha <= 0.5 else [512, 1024, 2048, 4096, 8192]
    return _DEFAULT_MS[args.command]


def _emit(reports: list, fmt: str, out_path):
    text = emit_csv(reports)
    if fmt == "csv":
        sys.stdout.write(text)
    else:
        print("\n\n".join(rep.pretty() for rep in reports))
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "table":
            left, right = reproduce_table(args.id)
            reports = list(left) + list(right)
        else:
            spec = _make_spec(args)
            reports = [run_study(spec, args.Ms or _default_ms(args))]
    except StudyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(reports, args.format, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
