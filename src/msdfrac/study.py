"""Two-mesh convergence studies and table reproduction.

The error of a run with M steps is measured against the run with 2M
steps on the once-refined mesh (which shares every coarse node bit for
bit), so no closed-form solution is needed:

    Error_M = max_m |U^{2m}(2M) - U^m(M)|,
    Rate    = log2(Error_M / Error_{2M}),

with the max taken over coarse nodes; field traces use the discrete
L2 norm sqrt(h sum_j d_j^2) in space first.  A study over a doubling
list of M values therefore needs one solve per distinct M: the fine
solve of each row is reused as the coarse solve of the next.

reproduce_table() bakes in the example problems of the published
tables (relaxation, Volterra, subdiffusion, integrodifferential) and
returns the classical-method block and the decomposition block side
by side, each as one report per alpha.

CSV format: header ``model,alpha,n,r,M,error,rate``, floats at six
significant digits, rate empty on each study's first row.  The
quantization means parse(emit(x)) equals x only for reports already
at that precision; emit(parse(emit(x))) == emit(x) always holds, and
the parse/emit pair is the exchange contract.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .fracint import TimeProfile
from .mesh import build_mesh
from .pde1d import (
    FieldTrace,
    PdeData,
    SeparableField,
    _fields,
    assemble_fem,
    integro_direct_data,
    msd_integro_data,
    msd_subdiffusion_data,
    solve_diffusion_wave,
    solve_integro,
    solve_subdiffusion,
)
from .relaxation import RelaxationProblem, ScalarTrace, full_order_depth, solve_relaxation
from .volterra import CollocationTrace, VolterraProblem, collocation_depth, solve_volterra

__all__ = [
    "StudyRow",
    "ConvergenceReport",
    "StudyError",
    "StudySpec",
    "theory_order",
    "two_mesh_error",
    "run_study",
    "make_relaxation_study",
    "make_volterra_study",
    "make_subdiffusion_study",
    "make_integro_study",
    "make_diffusion_wave_study",
    "reproduce_table",
    "TABLE_IDS",
    "emit_csv",
    "parse_csv",
]


@dataclass(frozen=True)
class StudyRow:
    M: int
    error: float
    rate: float | None  # None on the first row of a study


@dataclass(frozen=True)
class ConvergenceReport:
    model: str
    params: dict
    rows: tuple[StudyRow, ...]
    theory: float | None = None

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(r.error for r in self.rows)

    @property
    def final_rate(self) -> float | None:
        return self.rows[-1].rate if self.rows else None

    def pretty(self) -> str:
        head = ", ".join(f"{k}={_fmt_param(v)}" for k, v in self.params.items())
        lines = [f"{self.model} ({head})", f"  {'M':>7s}  {'error':>12s}  {'rate':>6s}"]
        for row in self.rows:
            rate = f"{row.rate:6.2f}" if row.rate is not None else "     *"
            lines.append(f"  {row.M:7d}  {row.error:12.4e}  {rate}")
        if self.theory is not None:
            lines.append(f"  theory rate {self.theory:.2f}")
        return "\n".join(lines)


def _fmt_param(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, tuple):
        return "(" + ",".join(_fmt_param(x) for x in v) + ")"
    return str(v)


class StudyError(RuntimeError):
    """A solve inside a study failed; carries the row context."""


def theory_order(model: str, alpha: float, n: int = 0, r: float = 1.0, q: int = 2) -> float:
    """Predicted temporal convergence order for the given setup.

    L1 on a graded mesh: min(2 - a, r (n+1) a).  Collocation of order
    q on a uniform mesh: min(q, 2 (n+1)(1 - a)).  The CQ/CN stepper:
    1 + a undecomposed, 2 with at least one separated term.  For the
    wave solver alpha is the wave exponent gamma and the two-term
    split always restores second order.
    """
    if model in ("relaxation", "subdiffusion"):
        return min(2.0 - alpha, r * (n + 1) * alpha)
    if model == "volterra":
        return min(float(q), 2.0 * (n + 1) * (1.0 - alpha))
    if model == "integro":
        return 2.0 if n >= 1 else 1.0 + alpha
    if model == "diffusion-wave":
        return 2.0
    raise ValueError(f"unknown model {model!r}")


def _check_nested(coarse_nodes: np.ndarray, fine_nodes: np.ndarray):
    if len(fine_nodes) != 2 * len(coarse_nodes) - 1:
        raise ValueError(
            f"fine mesh has {len(fine_nodes) - 1} steps, expected "
            f"{2 * (len(coarse_nodes) - 1)}"
        )
    if not np.array_equal(fine_nodes[::2], coarse_nodes):
        raise ValueError("meshes are not nested (refine() alignment violated)")


def two_mesh_error(trace_M, trace_2M) -> float:
    """Two-mesh error between a coarse trace and its refined companion.

    Scalar traces: max absolute nodal difference.  Collocation traces:
    the same at mesh points (requires c_q = 1 so the last collocation
    point of each step is the mesh point).  Field traces: max over
    time of the discrete L2 spatial norm; both traces must share the
    spatial grid.
    """
    if type(trace_M) is not type(trace_2M):
        raise TypeError(
            f"trace types differ: {type(trace_M).__name__} vs {type(trace_2M).__name__}"
        )
    if isinstance(trace_M, CollocationTrace):
        _check_nested(trace_M.mesh.nodes, trace_2M.mesh.nodes)
        d = trace_2M.nodal_values[1::2] - trace_M.nodal_values
        return float(np.max(np.abs(d)))
    if isinstance(trace_M, ScalarTrace):
        _check_nested(trace_M.mesh.nodes, trace_2M.mesh.nodes)
        return float(np.max(np.abs(trace_2M.U[::2] - trace_M.U)))
    if isinstance(trace_M, FieldTrace):
        _check_nested(trace_M.mesh.nodes, trace_2M.mesh.nodes)
        fa, fb = trace_M.fem, trace_2M.fem
        if (fa.a, fa.b, fa.J) != (fb.a, fb.b, fb.J):
            raise ValueError("field traces live on different spatial grids")
        d = trace_2M.U[::2] - trace_M.U
        return float(np.max(np.sqrt(trace_M.fem.h * np.sum(d * d, axis=1))))
    raise TypeError(f"unsupported trace type {type(trace_M).__name__}")


@dataclass(frozen=True)
class StudySpec:
    """A runnable convergence study: model name, parameters, solver."""

    model: str
    params: dict
    theory: float | None
    solve: Callable[[int], object]  # M -> trace


def run_study(spec: StudySpec, Ms: Sequence[int]) -> ConvergenceReport:
    """Solve at every M in a strictly doubling list plus one refinement.

    The fine solve of row k is the coarse solve of row k+1, so a study
    over k rows costs k+1 solves.
    """
    Ms = list(Ms)
    for M in Ms:
        if isinstance(M, bool) or not isinstance(M, (int, np.integer)):
            raise ValueError(f"M must be an integer number of steps, got M={M!r}")
    Ms = [int(M) for M in Ms]
    if not Ms:
        raise ValueError("empty M list")
    if any(M <= 0 for M in Ms):
        raise ValueError(f"M values must be positive, got {Ms}")
    for a, b in zip(Ms, Ms[1:]):
        if b != 2 * a:
            raise ValueError(f"M list must strictly double, got {a} followed by {b}")

    traces = {}
    for M in Ms + [2 * Ms[-1]]:
        if M in traces:
            continue
        try:
            traces[M] = spec.solve(M)
        except Exception as e:
            raise StudyError(f"{spec.model} solve failed at M={M}: {e}") from e

    errors = [two_mesh_error(traces[M], traces[2 * M]) for M in Ms]
    rows = []
    for i, (M, err) in enumerate(zip(Ms, errors)):
        if i == 0:
            rate = None
        else:
            rate = math.log2(errors[i - 1] / err) if err > 0.0 and errors[i - 1] > 0.0 else None
        rows.append(StudyRow(M=M, error=err, rate=rate))
    return ConvergenceReport(
        model=spec.model, params=dict(spec.params), rows=tuple(rows), theory=spec.theory
    )


# ---------------------------------------------------------------------------
# Study constructors.  Defaults are the example problems of the tables.

def make_relaxation_study(
    alpha: float, n: int = 0, r: float = 1.0, lam: float = 1.0, T: float = 1.0, f=1.0
) -> StudySpec:
    prob = RelaxationProblem(alpha=alpha, lam=lam, T=T, f=f, n=n)
    return StudySpec(
        model="relaxation",
        params={"alpha": alpha, "n": n, "r": r, "lam": lam, "T": T},
        theory=theory_order("relaxation", alpha, n, r),
        solve=lambda M: solve_relaxation(prob, build_mesh(T, M, r)),
    )


def make_volterra_study(
    alpha: float,
    n: int = 0,
    c: tuple = (2.0 / 3.0, 1.0),
    T: float = 1.0,
    kernel=None,
    f=1.0,
) -> StudySpec:
    """Volterra study with len(c) collocation points per cell."""
    if kernel is None:
        kernel = 1.0 / math.gamma(1.0 - alpha)
    prob = VolterraProblem(alpha=alpha, T=T, kernel=kernel, f=f, n=n, q=len(c), c=c)
    return StudySpec(
        model="volterra",
        params={"alpha": alpha, "n": n, "r": 1.0, "q": prob.q, "c": tuple(c), "T": T},
        theory=theory_order("volterra", alpha, n, q=prob.q),
        solve=lambda M: solve_volterra(prob, M),
    )


def _default_subdiffusion_problem():
    dom = (0.0, 2.0 * math.pi)
    f = SeparableField(dom, ((2, TimeProfile.constant(1.0)),))
    u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)),))
    return dom, f, u0


def make_subdiffusion_study(
    alpha: float,
    n: int = 0,
    r: float = 1.0,
    J: int = 128,
    T: float = 1.0,
    f=None,
    u0=None,
    domain=None,
) -> StudySpec:
    if f is None and u0 is None and domain is None:
        domain, f, u0 = _default_subdiffusion_problem()
    field = next((cand for cand in (f, u0) if isinstance(cand, SeparableField)), None)
    if field is not None and domain is not None and tuple(domain) != tuple(field.domain):
        raise ValueError(f"domain {tuple(domain)} differs from the fields' domain {field.domain}")
    if domain is None:
        if field is None:
            raise ValueError("domain is required when no argument is a SeparableField")
        domain = field.domain
    if u0 is None:
        u0 = SeparableField.zero(domain)
    fem = assemble_fem(domain[0], domain[1], J)
    data = msd_subdiffusion_data(f, u0, n, alpha)
    return StudySpec(
        model="subdiffusion",
        params={"alpha": alpha, "n": n, "r": r, "J": J, "T": T},
        theory=theory_order("subdiffusion", alpha, n, r),
        solve=lambda M: solve_subdiffusion(alpha, n, data, build_mesh(T, M, r), fem),
    )


def _default_integro_problem(alpha: float):
    dom = (0.0, 1.0)
    f = SeparableField(dom, ((1, TimeProfile.of((1.0, alpha))),))
    u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)),))
    return dom, f, u0


def make_integro_study(
    alpha: float,
    n: int = 1,
    J: int = 32,
    T: float = 1.0,
    f=None,
    u0=None,
) -> StudySpec:
    """n = 0 runs the undecomposed stepper, n = 1 the one-term split."""
    if n not in (0, 1):
        raise ValueError(f"the stepper supports n = 0 (direct) or n = 1 (split), got {n}")
    if f is None and u0 is None:
        _, f, u0 = _default_integro_problem(alpha)
    data = (msd_integro_data if n == 1 else integro_direct_data)(f, u0, alpha)
    dom = data.initial.domain
    fem = assemble_fem(dom[0], dom[1], J)
    return StudySpec(
        model="integro",
        params={"alpha": alpha, "n": n, "r": 1.0, "J": J, "T": T},
        theory=theory_order("integro", alpha, n),
        solve=lambda M: solve_integro(alpha, data, build_mesh(T, M, 1.0), fem),
    )


def make_diffusion_wave_study(
    gamma: float,
    J: int = 32,
    T: float = 1.0,
    f=None,
    u0=None,
    du0=None,
) -> StudySpec:
    """Wave solver study; always the two-term split (n = 2 in the CSV)."""
    dom = (0.0, 1.0)
    if u0 is None and du0 is None and f is None:
        u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)),))
        du0 = SeparableField(dom, ((1, TimeProfile.constant(0.5)),))
    dom = _fields(f=f, u0=u0, du0=du0)[0].domain
    fem = assemble_fem(dom[0], dom[1], J)
    return StudySpec(
        model="diffusion-wave",
        params={"gamma": gamma, "n": 2, "r": 1.0, "J": J, "T": T},
        theory=theory_order("diffusion-wave", gamma),
        solve=lambda M: solve_diffusion_wave(gamma, f, u0, du0, build_mesh(T, M, 1.0), fem),
    )


# ---------------------------------------------------------------------------
# Table reproduction.

TABLE_IDS = (1, 2, 3, 4, 5, 6)

_SCALAR_MS = [128, 256, 512, 1024, 2048]
_VOLTERRA_MS = [512, 1024, 2048, 4096, 8192]
_PDE_MS = {0.25: [64, 128, 256, 512, 1024], 0.75: [512, 1024, 2048, 4096, 8192]}
_INTEGRO_MS = [128, 256, 512, 1024, 2048]


def reproduce_table(table_id: int):
    """Run both blocks of a published table.

    Returns (left, right): left is the classical method (no separated
    terms), right the decomposition-based one, each a tuple with the
    alpha = 0.25 report first and the alpha = 0.75 report second.
    """
    if table_id not in TABLE_IDS:
        raise ValueError(f"table id must be one of {TABLE_IDS}, got {table_id}")

    left, right = [], []
    if table_id == 1:
        for alpha in (0.25, 0.75):
            left.append(run_study(make_relaxation_study(alpha, n=0, r=1.0), _SCALAR_MS))
            n = full_order_depth(alpha)
            right.append(run_study(make_relaxation_study(alpha, n=n, r=1.0), _SCALAR_MS))
    elif table_id == 2:
        for alpha in (0.25, 0.75):
            r0 = (2.0 - alpha) / alpha
            left.append(run_study(make_relaxation_study(alpha, n=0, r=r0), _SCALAR_MS))
            r3 = (2.0 - alpha) / (4.0 * alpha)
            right.append(run_study(make_relaxation_study(alpha, n=3, r=r3), _SCALAR_MS))
    elif table_id == 3:
        for alpha in (0.25, 0.75):
            left.append(run_study(make_volterra_study(alpha, n=0), _VOLTERRA_MS))
            n = collocation_depth(alpha)
            right.append(run_study(make_volterra_study(alpha, n=n), _VOLTERRA_MS))
    elif table_id == 4:
        for alpha in (0.25, 0.75):
            Ms = _PDE_MS[alpha]
            left.append(run_study(make_subdiffusion_study(alpha, n=0, r=1.0), Ms))
            n = full_order_depth(alpha)
            right.append(run_study(make_subdiffusion_study(alpha, n=n, r=1.0), Ms))
    elif table_id == 5:
        for alpha in (0.25, 0.75):
            Ms = _PDE_MS[alpha]
            r0 = (2.0 - alpha) / alpha
            left.append(run_study(make_subdiffusion_study(alpha, n=0, r=r0), Ms))
            r3 = (2.0 - alpha) / (4.0 * alpha)
            right.append(run_study(make_subdiffusion_study(alpha, n=3, r=r3), Ms))
    else:
        for alpha in (0.25, 0.75):
            left.append(run_study(make_integro_study(alpha, n=0), _INTEGRO_MS))
            right.append(run_study(make_integro_study(alpha, n=1), _INTEGRO_MS))
    return tuple(left), tuple(right)


# ---------------------------------------------------------------------------
# CSV exchange.

_CSV_HEADER = ["model", "alpha", "n", "r", "M", "error", "rate"]


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def emit_csv(reports) -> str:
    """Serialize one report or an iterable of reports."""
    if isinstance(reports, ConvergenceReport):
        reports = [reports]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for rep in reports:
        alpha = rep.params.get("alpha", rep.params.get("gamma"))
        n = rep.params.get("n", 0)
        r = rep.params.get("r", 1.0)
        for row in rep.rows:
            writer.writerow(
                [
                    rep.model,
                    _sig6(float(alpha)),
                    int(n),
                    _sig6(float(r)),
                    row.M,
                    _sig6(row.error),
                    "" if row.rate is None else _sig6(row.rate),
                ]
            )
    return buf.getvalue()


def parse_csv(text: str) -> list[ConvergenceReport]:
    """Inverse of emit_csv up to float quantization.

    Rows are grouped into reports on change of (model, alpha, n, r);
    a row with an empty rate also starts a new report.  Parsed reports
    carry only the schema parameters and no theory order.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != _CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}, want {_CSV_HEADER!r}")
    reports: list[ConvergenceReport] = []
    key = None
    rows: list[StudyRow] = []

    def flush():
        if rows:
            model, alpha, n, r = key
            reports.append(
                ConvergenceReport(
                    model=model,
                    params={"alpha": alpha, "n": n, "r": r},
                    rows=tuple(rows),
                )
            )

    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(_CSV_HEADER):
            raise ValueError(f"malformed CSV row {rec!r}")
        model, alpha_s, n_s, r_s, M_s, err_s, rate_s = rec
        this_key = (model, float(alpha_s), int(n_s), float(r_s))
        if this_key != key or rate_s == "":
            flush()
            key = this_key
            rows = []
        rows.append(
            StudyRow(M=int(M_s), error=float(err_s), rate=None if rate_s == "" else float(rate_s))
        )
    flush()
    return reports
