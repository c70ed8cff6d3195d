"""One benchmark process: set up a workload, run passes of it, report JSON.

run.py starts this script in a fresh interpreter with the BLAS/OpenMP
thread count pinned and ``src`` on PYTHONPATH.  With --setup-only it
stops once the workload is built, which is one sample of set-up time.
Otherwise it runs whole passes until --seconds have elapsed (at least
one), untraced; with --trace 1 it spends the first half of the time on
untraced passes, then installs the tracer, builds the workload again
and spends the second half on traced passes.

The last line of standard output is ``PERFBENCH_RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _environment(np, scipy, msdfrac) -> dict:
    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "msdfrac": msdfrac.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Passes:
    """Samples and operation outcomes of a series of whole passes."""

    def __init__(self):
        self.walls, self.cpus, self.task_times = [], [], {}
        self.attempted, self.failed, self.wrong = 0, [], []
        self.defects, self.defect_rows = [], []  # last pass's defects; rows per pass

    def run(self, workload, seconds: float, before_pass=None) -> None:
        """Run passes until `seconds` have elapsed, at least one."""
        start = time.perf_counter()
        while True:
            if before_pass is not None:
                before_pass(len(self.walls))
            c0, t0 = time.process_time(), time.perf_counter()
            tally, times = workload.run_pass()
            self.walls.append(time.perf_counter() - t0)
            self.cpus.append(time.process_time() - c0)
            for name, sec in times.items():
                self.task_times.setdefault(name, []).append(sec)
            self.attempted += tally.attempted
            self.failed += tally.failed
            self.wrong += tally.wrong
            self.defect_rows.append(len(tally.defects))
            self.defects = tally.defects
            if time.perf_counter() - start >= seconds:
                return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import msdfrac
    import_s = time.perf_counter() - t0

    src = (ROOT / "src").resolve()
    if src not in Path(msdfrac.__file__).resolve().parents:
        print(f"error: imported msdfrac from {msdfrac.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.build(args.workload, args.seed)
    ready = time.perf_counter()
    result = {"ready": ready, "import_s": import_s, "params": workload.params}
    if args.setup_only:
        print("PERFBENCH_RESULT " + json.dumps(result))
        return 0

    import numpy as np
    import scipy

    untraced = Passes()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced.run(workload, budget)
    result.update(
        environment=_environment(np, scipy, msdfrac),
        walls=untraced.walls,
        cpus=untraced.cpus,
        task_times=untraced.task_times,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    outcomes = [untraced]

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        traced = Passes()
        tracer.install()
        try:
            traced_workload = workloads.build(args.workload, args.seed)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                marks = []

                def before_pass(i):
                    tracer.phase = f"pass{i}"
                    marks.append(len(caught))

                traced.run(traced_workload, args.seconds - budget, before_pass)
                marks.append(len(caught))
        finally:
            tracer.uninstall()
        outcomes.append(traced)
        result.update(
            layers=_layer_metrics(tracer, len(traced.walls)),
            traced_walls=traced.walls,
            warnings_per_pass=[b - a for a, b in zip(marks, marks[1:])],
            defect_rows=traced.defect_rows,
        )
        if args.spans:
            tracer.write(args.spans)

    failed = [e for o in outcomes for e in o.failed]
    wrong = [e for o in outcomes for e in o.wrong]
    result.update(
        attempted=sum(o.attempted for o in outcomes),
        failed=len(failed) + len(wrong),
        wrong=wrong[:20],
        errors=sorted(set(failed))[:20],
        defects=sorted(set(untraced.defects)),
    )
    print("PERFBENCH_RESULT " + json.dumps(result))
    return 0


# Per-layer metrics: span name -> which of calls / self_s / maxM_s / points.
LAYER_SPANS = {
    "l1_scheme.l1_weight_row": ("calls", "self_s"),
    "l1_scheme.march_l1": ("calls", "self_s", "maxM_s"),
    "volterra.solve_volterra": ("calls", "self_s", "maxM_s"),
    "volterra.msd_volterra_forcing": ("calls", "self_s"),
    "conv_quad.build_cq": ("calls", "self_s"),
    "pde1d.solve_integro": ("calls", "self_s", "maxM_s"),
    "pde1d.solve_subdiffusion": ("calls", "self_s"),
    "pde1d.banded_solve": ("calls", "self_s"),
    "pde1d.msd_data": ("calls", "self_s"),
    "relaxation.msd_forcing": ("calls", "self_s"),
    "relaxation.msd_reconstruction": ("calls", "self_s"),
    "fracint.frac_integrate_numeric": ("calls", "self_s"),
    "fracint.frac_integrate": ("calls", "self_s"),
    "fracint.TimeProfile.call": ("calls", "self_s"),
    "mittag_leffler.ml_eval": ("calls", "self_s", "points"),
    "study.two_mesh_error": ("calls", "self_s"),
}


def _layer_metrics(tracer, passes: int) -> dict:
    """Calls, self time and counters for one set-up plus one traced pass.

    Counts repeat exactly from pass to pass; times are the median over
    the traced passes, plus the set-up phase.
    """
    stats = tracer.phase_stats()
    pass_phases = [f"pass{i}" for i in range(passes)]
    out = {}
    for name, fields in LAYER_SPANS.items():
        setup = stats["setup"].get(name, [0, 0.0])
        per_pass = [stats[p].get(name, [0, 0.0]) for p in pass_phases]
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = setup[0] + per_pass[-1][0]
            elif f == "self_s":
                out[f"{name}.self_s"] = setup[1] + statistics.median(r[1] for r in per_pass)
            elif f == "maxM_s":
                out[f"{name}.maxM_s"] = tracer.max_m_seconds(name, pass_phases)
            else:  # the ml_eval argument count
                out[f"{name}.points"] = tracer.points["setup"] + tracer.points[pass_phases[-1]]
    return out


if __name__ == "__main__":
    sys.exit(main())
