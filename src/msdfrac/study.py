"""Two-mesh convergence studies and table reproduction.

The error of a run with M steps is measured against the run with 2M
steps on the once-refined mesh (which shares every coarse node bit for
bit), so no closed-form solution is needed:

    Error_M = max_m |U^{2m}(2M) - U^m(M)|,
    Rate    = log2(Error_M / Error_{2M}),

with the max taken over coarse nodes; field traces use the discrete
L2 norm sqrt(h sum_j d_j^2) in space first.  A study over a doubling
list of M values therefore needs one solve per distinct M: the fine
solve of each row is reused as the coarse solve of the next (graded
L1 studies solve a mesh with its half in one march, see run_study).

reproduce_table() reruns a published table from its row in _TABLES:
the study constructor of its model (relaxation, Volterra, subdiffusion,
integrodifferential), whose defaults are the tables' example problems,
and a map from alpha to the keyword arguments of the classical-method
block (left) and of the decomposition block (right).  Each block is
one report per alpha = 0.25, 0.75 over default_ms(), the table's
published column of M values, which the CLI also uses.

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
from .mesh import (
    build_mesh, check_alpha, check_count, check_gamma, check_grading, check_horizon, check_nested,
)
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
    solve_subdiffusion_pair,
)
from .relaxation import (
    RelaxationProblem, ScalarTrace, full_order_depth, solve_relaxation, solve_relaxation_pair
)
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
    note: str = ""  # set by run_study when the finest row's rate falls short

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(r.error for r in self.rows)

    def title(self) -> str:
        return f"{self.model} ({', '.join(f'{k}={_fmt_param(v)}' for k, v in self.params.items())})"

    def pretty(self) -> str:
        lines = [self.title(), f"  {'M':>7s}  {'error':>12s}  {'rate':>6s}"]
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


def two_mesh_error(trace_M, trace_2M) -> float:
    """Two-mesh error between a coarse trace and its refined companion.

    Scalar traces: max absolute nodal difference.  Collocation traces:
    the same at mesh points (requires c_q = 1 so the last collocation
    point of each step is the mesh point).  Field traces: max over
    time of the discrete L2 spatial norm; both traces must share the
    FEM and their spatial rows, so the norm is the quadratic form of the
    rows' Gram matrix in the difference of their time coefficients, and
    no nodal field is formed.
    """
    if type(trace_M) is not type(trace_2M):
        raise TypeError(
            f"trace types differ: {type(trace_M).__name__} vs {type(trace_2M).__name__}"
        )
    if not isinstance(trace_M, (CollocationTrace, ScalarTrace, FieldTrace)):
        raise TypeError(f"unsupported trace type {type(trace_M).__name__}")
    check_nested(trace_M.mesh, trace_2M.mesh)
    if isinstance(trace_M, CollocationTrace):
        d = trace_2M.nodal_values[1::2] - trace_M.nodal_values
        return float(np.max(np.abs(d)))
    if isinstance(trace_M, ScalarTrace):
        return float(np.max(np.abs(trace_2M.U[::2] - trace_M.U)))
    fa, fb = trace_M.fem, trace_2M.fem
    if (fa.a, fa.b, fa.J) != (fb.a, fb.b, fb.J):
        raise ValueError("field traces live on different spatial grids")
    if not np.array_equal(trace_M.rows, trace_2M.rows):
        raise ValueError("field traces have different spatial rows (data or method differ)")
    dc, G = trace_2M.coef[::2] - trace_M.coef, trace_M.rows @ trace_M.rows.T
    return float(np.max(np.sqrt(fa.h * np.einsum("mi,mi->m", dc @ G, dc))))


@dataclass(frozen=True)
class StudySpec:
    """A runnable convergence study: model name, parameters, solvers."""

    model: str
    params: dict
    theory: float | None
    solve: Callable[[int], object]  # M -> trace
    solve_pair: Callable[[int], tuple] | None = None  # M -> (trace at M/2, trace at M)


def run_study(spec: StudySpec, Ms: Sequence[int]) -> ConvergenceReport:
    """Solve at every M in a strictly doubling list plus one refinement.

    A study over k rows needs k+1 meshes, each solved once from the
    finest down: one at a time, or with ``spec.solve_pair`` in pairs (2M_k
    with M_k, then M_{k-1} with M_{k-2}, ..., and a coarsest mesh left
    over alone).  The finest first lets a solver keep what it forms for
    the largest M, such as the Volterra moments and CQ weights, and hand
    the coarser meshes prefixes of it.  Each row's error is taken as soon as
    both of its traces exist, and a trace is dropped once its rows are
    done: at most two traces are alive, or three with pairs.  The report's
    note flags a rate at the finest row that is negative or below half the
    theory rate, with no claim about its cause.
    """
    Ms = [check_count(M, "M", 1) for M in Ms]
    if not Ms:
        raise ValueError("empty M list")
    for a, b in zip(Ms, Ms[1:]):
        if b != 2 * a:
            raise ValueError(f"M list must strictly double, got {a} followed by {b}")

    levels = Ms + [2 * Ms[-1]]  # row k compares the traces of levels k and k+1
    pairs = [[k - 1, k] for k in range(len(levels) - 1, 0, -2)] + [[0]] * (len(levels) % 2)
    errors, live = {}, {}
    for group in [[k] for k in reversed(range(len(levels)))] if spec.solve_pair is None else pairs:
        M = levels[group[-1]]
        try:
            live.update(zip(group, spec.solve_pair(M) if len(group) == 2 else [spec.solve(M)]))
        except Exception as e:
            at = " and ".join(str(levels[k]) for k in group)
            raise StudyError(f"{spec.model} solve failed at M={at}: {e}") from e
        for k in [k for k in live if k + 1 in live and k not in errors]:
            errors[k] = two_mesh_error(live[k], live[k + 1])
        # keep a trace while a row on either side of it is still open
        live = {k: t for k, t in live.items() if {k - 1, k} - {-1, len(Ms)} - errors.keys()}

    errs = [errors[k] for k in range(len(Ms))]
    rates = [math.log2(p / e) if e > 0.0 and p > 0.0 else None for p, e in zip([0.0] + errs, errs)]
    rows = tuple(StudyRow(M=M, error=e, rate=rate) for M, e, rate in zip(Ms, errs, rates))
    last, theory, note = rates[-1], spec.theory, ""
    if last is not None and last < (0.0 if theory is None else theory / 2.0):
        note = f"the observed rate at the finest row, M = {Ms[-1]}, is {last:.2f}"
        note += "" if theory is None else f", below half the theory rate {theory:.2f}"
    return ConvergenceReport(spec.model, dict(spec.params), rows, spec.theory, note)


# ---------------------------------------------------------------------------
# Study constructors.  Defaults are the example problems of the tables.

def make_relaxation_study(
    alpha: float, n: int = 0, r: float = 1.0, lam: float = 1.0, T: float = 1.0, f=1.0
) -> StudySpec:
    check_grading(r)
    prob = RelaxationProblem(alpha=alpha, lam=lam, T=T, f=f, n=n)
    return StudySpec(
        model="relaxation",
        params={"alpha": alpha, "n": n, "r": r, "lam": lam, "T": T},
        theory=theory_order("relaxation", alpha, n, r),
        solve=lambda M: solve_relaxation(prob, build_mesh(T, M, r)),
        solve_pair=None if r == 1.0 else lambda M: solve_relaxation_pair(prob, build_mesh(T, M, r)),
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
    check_alpha(alpha)  # before the default kernel 1/Gamma(1 - alpha) is formed
    if kernel is None:
        kernel = 1.0 / math.gamma(1.0 - alpha)
    prob = VolterraProblem(alpha=alpha, T=T, kernel=kernel, f=f, n=n, c=c)
    if prob.c[-1] != 1.0:
        raise ValueError(f"c must end at 1, the mesh point the two-mesh error reads, got c = {prob.c}")
    return StudySpec(
        model="volterra",
        params={"alpha": alpha, "n": n, "r": 1.0, "q": prob.q, "c": tuple(c), "T": T},
        theory=theory_order("volterra", alpha, n, q=prob.q),
        solve=lambda M: solve_volterra(prob, M),
    )


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
    check_horizon(T)
    check_grading(r)
    if f is None and u0 is None and domain is None:
        domain = (0.0, 2.0 * math.pi)
        f = SeparableField(domain, ((2, TimeProfile.constant(1.0)),))
        u0 = SeparableField(domain, ((1, TimeProfile.constant(1.0)),))
    if not isinstance(f, SeparableField) and not isinstance(u0, SeparableField):
        if domain is None:
            raise ValueError("domain is required when no argument is a SeparableField")
        u0 = SeparableField.zero(domain) if u0 is None else u0
    data = msd_subdiffusion_data(f, u0, n, alpha)
    dom = data.initial.domain
    if domain is not None and tuple(domain) != dom:
        raise ValueError(f"domain {tuple(domain)} differs from the fields' domain {dom}")
    fem = assemble_fem(dom[0], dom[1], J)
    return StudySpec(
        model="subdiffusion",
        params={"alpha": alpha, "n": n, "r": r, "J": J, "T": T},
        theory=theory_order("subdiffusion", alpha, n, r),
        solve=lambda M: solve_subdiffusion(alpha, n, data, build_mesh(T, M, r), fem),
        solve_pair=None if r == 1.0 else (
            lambda M: solve_subdiffusion_pair(alpha, data, build_mesh(T, M, r), fem)
        ),
    )


def make_integro_study(
    alpha: float,
    n: int = 1,
    J: int = 32,
    T: float = 1.0,
    f=None,
    u0=None,
) -> StudySpec:
    """n = 0 runs the undecomposed stepper, n = 1 the one-term split."""
    check_alpha(alpha)  # before the default forcing t^alpha is formed
    n = check_count(n, "n", 0)
    if n not in (0, 1):
        raise ValueError(f"the stepper supports n = 0 (direct) or n = 1 (split), got {n}")
    check_horizon(T)
    if f is None and u0 is None:
        f = SeparableField((0.0, 1.0), ((1, TimeProfile.of((1.0, alpha))),))
        u0 = SeparableField((0.0, 1.0), ((1, TimeProfile.constant(1.0)),))
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
    check_gamma(gamma)
    check_horizon(T)
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

# First M and row count of each model's published column.  Subdiffusion
# starts at 64 for alpha <= 0.5 and at 512 above.
_COLUMNS = {
    "relaxation": (128, 5),
    "volterra": (512, 5),
    "subdiffusion": (512, 5),
    "integro": (128, 5),
    "diffusion-wave": (128, 4),
}


def default_ms(spec: StudySpec) -> list[int]:
    """The doubling M list of the published table column for spec's model."""
    first, rows = _COLUMNS[spec.model]
    if spec.model == "subdiffusion" and spec.params["alpha"] <= 0.5:
        first = 64
    return [first * 2**k for k in range(rows)]


def _full_order(alpha: float):
    """Tables 1 and 4: depth 0 against the least depth of order 2 - alpha."""
    return {"n": 0}, {"n": full_order_depth(alpha)}


def _graded(alpha: float):
    """Tables 2 and 5: the mesh grading that gives order 2 - alpha at depth
    0 and at depth 3."""
    return {"n": 0, "r": (2.0 - alpha) / alpha}, {"n": 3, "r": (2.0 - alpha) / (4.0 * alpha)}


# table id -> (study constructor, alpha -> (left, right) keyword arguments)
_TABLES = {
    1: (make_relaxation_study, _full_order),
    2: (make_relaxation_study, _graded),
    3: (make_volterra_study, lambda a: ({"n": 0}, {"n": collocation_depth(a)})),
    4: (make_subdiffusion_study, _full_order),
    5: (make_subdiffusion_study, _graded),
    6: (make_integro_study, lambda a: ({"n": 0}, {"n": 1})),
}
TABLE_IDS = tuple(_TABLES)


def reproduce_table(table_id: int):
    """Run both blocks of a published table.

    Returns (left, right): left is the classical method (no separated
    terms), right the decomposition-based one, each a tuple with the
    alpha = 0.25 report first and the alpha = 0.75 report second.
    """
    if table_id not in TABLE_IDS:
        raise ValueError(f"table id must be one of {TABLE_IDS}, got {table_id}")
    make, blocks = _TABLES[table_id]
    left, right = [], []
    for alpha in (0.25, 0.75):
        for out, kwargs in zip((left, right), blocks(alpha)):
            spec = make(alpha, **kwargs)
            out.append(run_study(spec, default_ms(spec)))
    return tuple(left), tuple(right)


# ---------------------------------------------------------------------------
# CSV exchange.

_CSV_HEADER = ["model", "alpha", "n", "r", "M", "error", "rate"]


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
        head = [rep.model, _fmt_param(float(alpha)), int(n), _fmt_param(float(r))]
        for row in rep.rows:
            rate = "" if row.rate is None else _fmt_param(row.rate)
            writer.writerow(head + [row.M, _fmt_param(row.error), rate])
    return buf.getvalue()


def parse_csv(text: str) -> list[ConvergenceReport]:
    """Inverse of emit_csv up to float quantization.

    Rows are grouped into reports on change of (model, alpha, n, r);
    a row with an empty rate also starts a new report.  Parsed reports
    carry only the schema parameters and no theory order.  A row that
    does not parse raises a ValueError naming it.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != _CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}, want {_CSV_HEADER!r}")
    groups: list[tuple[tuple, list[StudyRow]]] = []  # (model, alpha, n, r) and the report's rows
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(_CSV_HEADER):
            raise ValueError(f"malformed CSV row {rec!r}")
        model, alpha_s, n_s, r_s, M_s, err_s, rate_s = rec
        try:
            key = (model, float(alpha_s), int(n_s), float(r_s))
            row = StudyRow(M=int(M_s), error=float(err_s), rate=None if rate_s == "" else float(rate_s))
        except ValueError as e:
            raise ValueError(f"malformed CSV row {rec!r}: {e}") from None
        if not groups or key != groups[-1][0] or row.rate is None:
            groups.append((key, []))
        groups[-1][1].append(row)
    return [
        ConvergenceReport(model, {"alpha": alpha, "n": n, "r": r}, tuple(rows))
        for (model, alpha, n, r), rows in groups
    ]
