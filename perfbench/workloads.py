"""The benchmark's workloads and the checks on their outputs.

A workload is a list of tasks.  One pass runs every task once, in an
order drawn from the seed, and each task reports its operations to a
Tally: one operation per study row (one error cell) and one per
cross-check.  An operation either passes its check, fails (the library
raised), or is wrong (it returned a value outside its check).

Every call into the library goes through an attribute of the
``msdfrac`` package (``msdfrac.run_study``, ``msdfrac.reproduce_table``),
resolved at call time, so that the outside-in tracer in ``tracer.py``
sees it when it is installed.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import msdfrac

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_cells.json"

# Table cells are compared with the cells captured from the seed commit
# at this relative tolerance.  A cell is itself a two-mesh error, so a
# change that moves every solution value by less than half of this share
# of the cell cannot fail it; that is three orders of magnitude below the
# discretization error the cell measures and below every digit the
# published tables print.  ROADMAP item 4 holds its approximate history
# to the same share of each cell.
CELL_RTOL = 1e-3

# emit_csv prints six significant digits, so a parsed cell is within
# 5e-6 of the report's value.
CSV_RTOL = 1e-5

# A study row in the general workload passes when its observed rate is
# at least theory_order minus this margin (rates above the theory are
# superconvergence at the nodes, not a defect).
RATE_MARGIN = 0.2

# Closed-form deviation allowed by test_oracle_suite in the acceptance gate.
ORACLE_TOL = 5e-3

# The modal and banded paths are algebraically identical; the test
# suite pins them together at this relative tolerance.
PATH_RTOL = 1e-10

# The error solve_integro raises on a uniform mesh whose steps are equal
# only up to rounding.
INTEGRO_DECIMAL_DEFECT = "convolution quadrature needs a uniform mesh"

TABLE_WORKLOADS = {"tables-graded": (2, 5), "tables-uniform": (1, 3, 4, 6)}
WORKLOADS = tuple(TABLE_WORKLOADS) + ("general",)


@dataclass
class Tally:
    """Operations attempted in one pass, with what went wrong.

    Rows of a study that raise a known defect's error are listed in
    ``defects`` instead: they are neither attempted nor failed, so the
    workload has no failing operation at the seed commit, and they still show.
    """

    attempted: int = 0
    failed: list = field(default_factory=list)  # the library raised
    wrong: list = field(default_factory=list)  # a check was violated
    defects: list = field(default_factory=list)  # a known defect's error

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.wrong.append(f"{what}: {detail}")

    def fail(self, what: str, count: int, err: BaseException) -> None:
        self.attempted += count
        self.failed.extend([f"{what}: {type(err).__name__}: {err}"] * count)

    def defect(self, what: str, count: int, err: BaseException) -> None:
        self.defects.extend([f"{what}: {type(err).__name__}: {err}"] * count)


@dataclass
class Task:
    name: str
    run: Callable[[Tally], None]


@dataclass
class Workload:
    name: str
    params: dict
    tasks: list

    def run_pass(self) -> tuple[Tally, dict]:
        """Run every task once; return the tally and each task's seconds."""
        tally = Tally()
        times = {}
        for task in self.tasks:
            t0 = time.perf_counter()
            task.run(tally)
            times[task.name] = time.perf_counter() - t0
        return tally, times


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name in TABLE_WORKLOADS:
        reference = load_reference()
        ids = list(TABLE_WORKLOADS[name])
        rng.shuffle(ids)  # the tables are fixed by publication; the seed orders them
        tasks = [Task(f"table{tid}", _table_task(tid, reference[str(tid)])) for tid in ids]
        return Workload(name, {"tables": ids}, tasks)
    if name == "general":
        return _general(rng)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# Published tables: the calls behind ``msdfrac table --id N``.

def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["tables"]


def reports_to_cells(reports) -> list:
    """The reference layout of a table: one entry per report."""
    return [
        {
            "model": rep.model,
            "alpha": rep.params.get("alpha", rep.params.get("gamma")),
            "n": rep.params.get("n"),
            "r": rep.params.get("r"),
            "rows": [[row.M, row.error] for row in rep.rows],
        }
        for rep in reports
    ]


def check_table(tid: int, reports, csv_text: str, reference: list, tally: Tally) -> None:
    """One operation per error cell plus one for the CSV emission."""
    got = reports_to_cells(reports)
    for i, ref in enumerate(reference):
        key = f"table {tid} {ref['model']} alpha={ref['alpha']} n={ref['n']} r={ref['r']:.6g}"
        mine = got[i] if i < len(got) else None
        same_study = mine is not None and all(
            mine[k] == ref[k] for k in ("model", "alpha", "n", "r")
        )
        for j, (M, err_ref) in enumerate(ref["rows"]):
            what = f"{key} M={M}"
            if not same_study or j >= len(mine["rows"]) or mine["rows"][j][0] != M:
                tally.record(what, False, "study or row missing from the report")
                continue
            err = mine["rows"][j][1]
            ok = abs(err - err_ref) <= CELL_RTOL * abs(err_ref)
            tally.record(what, ok, f"error {err!r}, reference {err_ref!r}, rtol {CELL_RTOL}")
    parsed = msdfrac.parse_csv(csv_text)
    ok = len(parsed) == len(reports) and all(
        len(p.rows) == len(r.rows)
        and all(
            pr.M == rr.M and abs(pr.error - rr.error) <= CSV_RTOL * abs(rr.error)
            for pr, rr in zip(p.rows, r.rows)
        )
        for p, r in zip(parsed, reports)
    )
    tally.record(f"table {tid} csv", ok, "emitted CSV does not round-trip the report cells")


def _table_task(tid: int, reference: list):
    cells = sum(len(ref["rows"]) for ref in reference)

    def run(tally: Tally) -> None:
        try:
            left, right = msdfrac.reproduce_table(tid)
            reports = list(left) + list(right)
            text = msdfrac.emit_csv(reports)
        except Exception as err:  # any failure of the table fails all its cells
            tally.fail(f"table {tid}", cells + 1, err)
            return
        check_table(tid, reports, text, reference, tally)

    return run


# ---------------------------------------------------------------------------
# General data: inputs the published tables never send down these paths.

def _study_task(what: str, spec, Ms: list, known_defect: str | None = None):
    """Two-mesh study; each row is checked against theory_order.

    A StudyError whose message contains ``known_defect`` marks every row
    as a known defect; any other error fails every row of the study.
    """

    def run(tally: Tally) -> None:
        try:
            rep = msdfrac.run_study(spec, Ms)
        except Exception as err:
            if known_defect and isinstance(err, msdfrac.StudyError) and known_defect in str(err):
                tally.defect(what, len(Ms), err)
            else:
                tally.fail(what, len(Ms), err)
            return
        for row in rep.rows:
            if row.rate is None:
                ok = math.isfinite(row.error) and row.error > 0.0
                detail = f"error {row.error!r}"
            else:
                ok = row.rate >= rep.theory - RATE_MARGIN
                detail = f"rate {row.rate:.3f} below theory {rep.theory:.3f} - {RATE_MARGIN}"
            tally.record(f"{what} M={row.M}", ok, detail)

    return run


def _check_task(what: str, measure: Callable[[], float], tol: float):
    """Cross-check: measure() returns a deviation that must stay within tol."""

    def run(tally: Tally) -> None:
        try:
            dev = measure()
        except Exception as err:
            tally.fail(what, 1, err)
            return
        tally.record(what, bool(dev <= tol), f"deviation {dev:.3e} exceeds {tol:.1e}")

    return run


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _graded(alpha: float, n: int) -> float:
    """The grading that gives the full order at depth n, at least 1."""
    return max(1.0, (2.0 - alpha) / ((n + 1) * alpha))


def _general(rng: random.Random) -> Workload:
    # alpha and the decimal base are drawn from narrow ranges so that the
    # work of a pass hardly depends on the seed; every base in 98..102
    # gives meshes whose steps are not bitwise equal.
    alpha = round(rng.uniform(0.35, 0.65), 4)
    base = rng.randint(98, 102)
    decimal = [base, 2 * base, 4 * base, 8 * base]
    T = 1.0

    tasks = []

    # Uniform meshes with a decimal step count: march_l1 and the banded
    # marcher see steps that are equal only up to rounding.
    tasks.append(Task("relaxation-decimal", _study_task(
        "relaxation decimal-M",
        msdfrac.make_relaxation_study(alpha, n=msdfrac.full_order_depth(alpha), r=1.0),
        decimal,
    )))

    dom = (0.0, math.pi)
    u0 = msdfrac.SeparableField(dom, ((1, msdfrac.TimeProfile.constant(1.0)),))

    def f_nonsep(x, t):
        return x * (math.pi - x) * np.exp(-x * t)

    tasks.append(Task("subdiffusion-nonseparable", _study_task(
        "subdiffusion non-separable decimal-M",
        msdfrac.make_subdiffusion_study(alpha, n=0, r=1.0, J=32, f=f_nonsep, u0=u0, domain=dom),
        decimal,
    )))

    # A callable kernel: product-integration preprocessing and kernel
    # samples at every step.  The discrete decomposition of a callable
    # kernel is exact algebra on the collocation values, so the rate is
    # the undecomposed one and the study runs at n = 0.
    kappa = 1.0 / math.gamma(1.0 - alpha)

    def kernel(s, t):
        return kappa * (1.0 + 0.5 * s * t)

    tasks.append(Task("volterra-callable-kernel", _study_task(
        "volterra callable kernel",
        msdfrac.make_volterra_study(alpha, n=0, kernel=kernel),
        decimal,
    )))

    # The CQ marcher on a decimal uniform mesh.  At the seed commit every
    # solve rejects the mesh because its steps are not bitwise equal
    # (ROADMAP item 2).  The study is kept small so that fixing the defect
    # turns its rows into checked operations without moving the wall time.
    tasks.append(Task("integro-decimal", _study_task(
        "integro decimal-M",
        msdfrac.make_integro_study(alpha, n=1, J=32),
        [base, 2 * base],
        known_defect=INTEGRO_DECIMAL_DEFECT,
    )))

    # method="full" banded solves against the modal path.
    sub_n = 1
    sub_r = _graded(alpha, sub_n)
    sub_data = msdfrac.msd_subdiffusion_data(*_sine_pair(), sub_n, alpha)
    sub_fem = msdfrac.assemble_fem(0.0, 2.0 * math.pi, 32)

    def subdiffusion_paths() -> float:
        mesh = msdfrac.build_mesh(T, 4 * base, sub_r)
        modal = msdfrac.solve_subdiffusion(alpha, sub_n, sub_data, mesh, sub_fem)
        full = msdfrac.solve_subdiffusion(alpha, sub_n, sub_data, mesh, sub_fem, method="full")
        return _rel_dev(full.U, modal.U)

    tasks.append(Task("subdiffusion-full-vs-modal",
                      _check_task("subdiffusion full vs modal", subdiffusion_paths, PATH_RTOL)))

    int_dom = (0.0, 1.0)
    int_f = msdfrac.SeparableField(int_dom, ((1, msdfrac.TimeProfile.of((1.0, alpha))),))
    int_u0 = msdfrac.SeparableField(int_dom, ((1, msdfrac.TimeProfile.constant(1.0)),))
    int_data = msdfrac.msd_integro_data(int_f, int_u0, alpha)
    int_fem = msdfrac.assemble_fem(0.0, 1.0, 32)

    def integro_paths() -> float:
        mesh = msdfrac.build_mesh(T, 512, 1.0)
        modal = msdfrac.solve_integro(alpha, int_data, mesh, int_fem)
        full = msdfrac.solve_integro(alpha, int_data, mesh, int_fem, method="full")
        return _rel_dev(full.U, modal.U)

    tasks.append(Task("integro-full-vs-modal",
                      _check_task("integro full vs modal", integro_paths, PATH_RTOL)))

    # Closed-form Mittag-Leffler solutions of each model, after
    # test_oracle_suite.  Relaxation takes its forcing pointwise at
    # n >= 1, so the decomposition terms come from product integration.
    def relaxation_oracle() -> float:
        n = 2
        prob = msdfrac.RelaxationProblem(
            alpha=alpha, lam=1.0, T=T, f=lambda t: np.ones_like(t), n=n
        )
        mesh = msdfrac.build_mesh(T, 4 * base, _graded(alpha, n))
        trace = msdfrac.solve_relaxation(prob, mesh)
        exact = msdfrac.relaxation_exact(alpha, 1.0, mesh.nodes[1:])
        return float(np.max(np.abs(trace.U[1:] - exact)))

    vol_prob = msdfrac.VolterraProblem(
        alpha=alpha, T=T, kernel=kappa, f=1.0, n=msdfrac.collocation_depth(alpha),
        q=2, c=(2.0 / 3.0, 1.0),
    )

    def volterra_oracle() -> float:
        trace = msdfrac.solve_volterra(vol_prob, 4 * base)
        t = trace.mesh.nodes[1:]
        exact = msdfrac.ml_eval(1.0 - alpha, 1.0, t ** (1.0 - alpha))
        return float(np.max(np.abs(trace.nodal_values - exact)))

    pi_dom = (0.0, math.pi)
    pi_u0 = msdfrac.SeparableField(pi_dom, ((1, msdfrac.TimeProfile.constant(1.0)),))
    pi_fem = msdfrac.assemble_fem(0.0, math.pi, 32)
    sub_oracle_n = 2
    sub_oracle_data = msdfrac.msd_subdiffusion_data(
        msdfrac.SeparableField.zero(pi_dom), pi_u0, sub_oracle_n, alpha
    )

    def subdiffusion_oracle() -> float:
        mesh = msdfrac.build_mesh(T, 4 * base, _graded(alpha, sub_oracle_n))
        trace = msdfrac.solve_subdiffusion(alpha, sub_oracle_n, sub_oracle_data, mesh, pi_fem)
        lam = pi_fem.discrete_eigenvalue(1)
        prof = np.concatenate(
            [[1.0], msdfrac.ml_eval(alpha, 1.0, -lam * mesh.nodes[1:] ** alpha)]
        )
        return float(np.max(np.abs(trace.U - np.outer(prof, pi_fem.sine_vector(1)))))

    unit_fem = msdfrac.assemble_fem(0.0, 1.0, 64)
    unit_zero = msdfrac.SeparableField.zero(int_dom)
    int_oracle_data = msdfrac.msd_integro_data(unit_zero, int_u0, alpha)

    def integro_oracle() -> float:
        mesh = msdfrac.build_mesh(T, 512, 1.0)
        trace = msdfrac.solve_integro(alpha, int_oracle_data, mesh, unit_fem)
        gam = 1.0 + alpha
        prof = np.concatenate(
            [[1.0], msdfrac.ml_eval(gam, 1.0, -math.pi**2 * mesh.nodes[1:] ** gam)]
        )
        return float(np.max(np.abs(trace.U - np.outer(prof, unit_fem.sine_vector(1)))))

    gamma = 1.0 + alpha
    wave_du0 = msdfrac.SeparableField(int_dom, ((1, msdfrac.TimeProfile.constant(0.5)),))

    def wave_oracle() -> float:
        mesh = msdfrac.build_mesh(T, 512, 1.0)
        trace = msdfrac.solve_diffusion_wave(gamma, unit_zero, int_u0, wave_du0, mesh, unit_fem)
        t = mesh.nodes[1:]
        x = -math.pi**2 * t**gamma
        prof = msdfrac.ml_eval(gamma, 1.0, x) + 0.5 * t * msdfrac.ml_eval(gamma, 2.0, x)
        prof = np.concatenate([[1.0], prof])
        return float(np.max(np.abs(trace.U - np.outer(prof, unit_fem.sine_vector(1)))))

    for name, measure in (
        ("relaxation-oracle-pointwise", relaxation_oracle),
        ("volterra-oracle", volterra_oracle),
        ("subdiffusion-oracle", subdiffusion_oracle),
        ("integro-oracle", integro_oracle),
        ("diffusion-wave-oracle", wave_oracle),
    ):
        tasks.append(Task(name, _check_task(name, measure, ORACLE_TOL)))

    rng.shuffle(tasks)
    return Workload("general", {"alpha": alpha, "decimal_base": base}, tasks)


def _sine_pair():
    """The table-4/5 subdiffusion data on (0, 2 pi): modes 2 (f) and 1 (u0)."""
    dom = (0.0, 2.0 * math.pi)
    f = msdfrac.SeparableField(dom, ((2, msdfrac.TimeProfile.constant(1.0)),))
    u0 = msdfrac.SeparableField(dom, ((1, msdfrac.TimeProfile.constant(1.0)),))
    return f, u0
