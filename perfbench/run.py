"""msdfrac benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload tables-graded --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): tables-graded (published tables 2 and 5),
tables-uniform (tables 1, 3, 4 and 6) and general (decimal step counts,
pointwise forcing, a callable kernel, non-separable forcing, banded
solves and closed-form checks).

Every measurement runs in a fresh interpreter started from here, with
BLAS/OpenMP pinned to one thread and the checkout's ``src`` on
PYTHONPATH, so the package is always the one in this checkout.  One
interpreter sets the workload up and runs passes for --seconds; before
and after it, SETUP_SAMPLES more only set the workload up.  Set-up time
is measured from just before an interpreter is started until the
workload is ready for its first solve, and reported as the 90th
percentile of all these samples.

With --trace 0 the metrics are the end-to-end ones: wall_s (the 90th
percentile of the run's pass times), setup_s, peak_rss_mib and
pass_ratio (operations that passed their check over operations
attempted).  With --trace 1 they are the per-layer ones from the
outside-in tracer in tracer.py.  The last line of standard output is
the result object; the full record, with every sample and the
environment, goes to perfbench/out/, and the spans of a traced run next
to it.  The exit code is 0 when a result was
printed, whatever it says, and non-zero when none could be produced,
for instance when the run goes past DEADLINE_S.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 8
# The whole run, set-up samples included, must end within 180 s, so a
# run whose passes take longer than this prints no result and exits 3.
DEADLINE_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _spawn(args: list, env: dict, deadline: float) -> tuple[dict, float]:
    """Run the worker; return its result and the clock just before it started."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run's deadline")
    lines = [ln for ln in out.splitlines() if ln.startswith("PERFBENCH_RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{err.strip()[-2000:]}")
    return json.loads(lines[-1][len("PERFBENCH_RESULT "):]), t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one msdfrac benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "msdfrac" / "__init__.py").is_file():
        print(f"error: no msdfrac package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_s, import_s = [], []

    def setup_sample():
        res, t0 = _spawn(common + ["--seconds", "0", "--setup-only"], env, deadline)
        setup_s.append(res["ready"] - t0)
        import_s.append(res["import_s"])

    try:
        # set-up samples before and after the measuring process, so that
        # their median spans the run rather than one moment of it
        for _ in range(SETUP_SAMPLES // 2):
            setup_sample()
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans", str(OUT / f"{stem}.spans.jsonl.gz")]
        res, t0 = _spawn(run_args, env, deadline)
        setup_s.append(res["ready"] - t0)
        import_s.append(res["import_s"])
        for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2):
            setup_sample()
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        values = dict(res["layers"])
        values.update({
            "setup.import_s": statistics.median(import_s),
            "cpu_s": statistics.median(res["cpus"]),
            "warnings.count": statistics.median(res["warnings_per_pass"]),
            "trace.overhead_s": statistics.median(res["traced_walls"]) - statistics.median(res["walls"]),
            "known_defect.rows": statistics.median(res["defect_rows"]),
        })
        for tid in range(1, 7):
            values[f"study.table{tid}.total_s"] = statistics.median(
                res["task_times"].get(f"table{tid}", [0.0])
            )
    else:
        values = {
            "wall_s": _upper_percentile(res["walls"]),
            "setup_s": _upper_percentile(setup_s),
            "peak_rss_mib": res["peak_rss_mib"],
            "pass_ratio": (attempted - failed) / attempted,
        }
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 3
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}

    record = dict(res, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_s=setup_s, import_s=import_s, metrics=metrics)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment: {json.dumps(res['environment'])}")
    print(f"workload {args.workload} seed {args.seed} params {json.dumps(res['params'])}: "
          f"{len(res['walls'])} untraced passes, wall_s samples "
          f"{[round(w, 4) for w in res['walls']]}, setup_s samples {[round(s, 4) for s in setup_s]}")
    for msg in res["errors"] + res["wrong"]:
        print(f"  not passed: {msg}")
    for msg in res["defects"]:
        print(f"  known defect, rows not attempted: {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _upper_percentile(samples: list) -> float:
    """The 90th percentile of a run's pass times or set-up samples.

    The machine this was tuned on runs at a steady base speed, with
    stretches in which the same work takes up to 40% less time, and the
    share of a run spent in them varies from run to run.  A median of
    the samples then jumps between the two speeds; the upper part of the
    distribution keeps to the base speed.  With the median, the ten-run
    spread of `general`'s wall_s once went past its 0.25 bound and the
    set-up medians of two sets of ten runs differed by 31%
    (perfbench/BASELINE.md).
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _declared_metrics(section: str) -> dict:
    """{name: unit} of one metric list of BENCHMARK.json, in its order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())
