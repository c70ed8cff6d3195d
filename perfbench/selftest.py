"""Self-test of the benchmark's checks and tracer.

    PYTHONPATH=src python3 perfbench/selftest.py

1. Table 1 against the captured reference passes every operation; the
   same table against a reference with one cell moved by twice the
   tolerance fails exactly that cell, so the pass ratio drops; a move of
   half the tolerance still passes.
2. The tracer counts one l1_weight_row call per step of a graded
   relaxation solve, tags its spans with the solve id, and uninstalls
   to the original functions.
3. One pass of the general workload fails no operation, and the rows
   of the decimal-step integro study show as a known defect.

Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import sys
import warnings

import msdfrac
import workloads
from tracer import Tracer


def check(cond: bool, what: str) -> bool:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    return cond


def perturbed_cell() -> bool:
    reference = workloads.load_reference()["1"]
    left, right = msdfrac.reproduce_table(1)
    reports = list(left) + list(right)
    text = msdfrac.emit_csv(reports)
    cells = sum(len(ref["rows"]) for ref in reference) + 1

    def tally_for(ref):
        tally = workloads.Tally()
        workloads.check_table(1, reports, text, ref, tally)
        return tally

    ok = True
    base = tally_for(reference)
    ok &= check(base.attempted == cells and not base.wrong, f"table 1 passes all {cells} operations")
    for factor, expect in ((2.0, 1), (0.5, 0)):
        moved = copy.deepcopy(reference)
        moved[1]["rows"][2][1] *= 1.0 + factor * workloads.CELL_RTOL
        tally = tally_for(moved)
        ratio = (tally.attempted - len(tally.wrong)) / tally.attempted
        ok &= check(
            len(tally.wrong) == expect,
            f"cell moved by {factor} x rtol: {len(tally.wrong)} failed, pass ratio {ratio:.4f}",
        )
    return ok


def tracer_counts() -> bool:
    tracer = Tracer()
    original = msdfrac.l1_scheme.l1_weight_row
    tracer.install()
    try:
        tracer.phase = "pass0"
        spec = msdfrac.make_relaxation_study(0.5, n=1, r=2.0)
        msdfrac.run_study(spec, [32])
    finally:
        tracer.uninstall()
    rows = [s for s in tracer.spans if s[0] == "l1_scheme.l1_weight_row"]
    ok = check(len(rows) == 32 + 64, f"l1_weight_row traced {len(rows)} times for M = 32 and 64")
    ok &= check({s[4] for s in rows} == {("relaxation", 32), ("relaxation", 64)},
                "weight-row spans carry the solve id of their solve")
    ok &= check(msdfrac.l1_scheme.l1_weight_row is original and msdfrac.march_l1.__module__ == "msdfrac.l1_scheme"
                and not hasattr(msdfrac.march_l1, "__wrapped__"), "uninstall restores the library")
    return ok


def general_failures() -> bool:
    wl = workloads.build("general", 1)
    tally, _ = wl.run_pass()
    rows = 2
    ok = check(not tally.wrong and not tally.failed, "general: no operation fails")
    ok &= check(
        len(tally.defects) == rows and all(m.startswith("integro decimal-M") for m in tally.defects),
        f"general: the {rows} rows of the decimal-step integro study show as a known defect",
    )
    return ok


def main() -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = [perturbed_cell(), tracer_counts(), general_failures()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
