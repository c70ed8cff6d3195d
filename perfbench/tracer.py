"""Outside-in tracer: spans around the public functions of each msdfrac module.

``Tracer.install()`` replaces each target function by a wrapper in every
``msdfrac`` module namespace that holds it (the package, the defining
module and every module that imported it by name), and replaces
``TimeProfile.__call__`` on the class.  Callers resolve these names at
call time, so the wrappers see every call without any change to the
library.  ``uninstall()`` puts the originals back.

A span is (name, start, end, parent span, solve id).  The solve id is
(model, M) of the outermost solver call enclosing the span, so every
span of one solve shares it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

import msdfrac

# (module, attribute, span name).  Several attributes may share a span.
TARGETS = (
    ("mesh", "build_mesh", "mesh.build_mesh"),
    ("fracint", "frac_integrate", "fracint.frac_integrate"),
    ("fracint", "frac_integrate_numeric", "fracint.frac_integrate_numeric"),
    ("l1_scheme", "l1_weight_row", "l1_scheme.l1_weight_row"),
    ("l1_scheme", "march_l1", "l1_scheme.march_l1"),
    ("conv_quad", "build_cq", "conv_quad.build_cq"),
    ("relaxation", "msd_forcing", "relaxation.msd_forcing"),
    ("relaxation", "msd_reconstruction", "relaxation.msd_reconstruction"),
    ("relaxation", "solve_relaxation", "relaxation.solve_relaxation"),
    ("volterra", "msd_volterra_forcing", "volterra.msd_volterra_forcing"),
    ("volterra", "solve_volterra", "volterra.solve_volterra"),
    ("pde1d", "msd_subdiffusion_data", "pde1d.msd_data"),
    ("pde1d", "msd_integro_data", "pde1d.msd_data"),
    ("pde1d", "integro_direct_data", "pde1d.msd_data"),
    ("pde1d", "solve_subdiffusion", "pde1d.solve_subdiffusion"),
    ("pde1d", "solve_integro", "pde1d.solve_integro"),
    ("pde1d", "solve_diffusion_wave", "pde1d.solve_diffusion_wave"),
    # the banded factor-solve pair exactly as pde1d calls it
    ("pde1d", "solveh_banded", "pde1d.banded_solve"),
    ("pde1d", "cho_solve_banded", "pde1d.banded_solve"),
    ("mittag_leffler", "ml_eval", "mittag_leffler.ml_eval"),
    ("study", "run_study", "study.run_study"),
    ("study", "two_mesh_error", "study.two_mesh_error"),
    # the calls behind ``msdfrac table --id N``
    ("study", "reproduce_table", "study.reproduce_table"),
    ("study", "emit_csv", "study.emit_csv"),
)
PROFILE_CALL = "fracint.TimeProfile.call"

# Solver entry points that open a solve id, with the argument holding M.
SOLVES = {
    "relaxation.solve_relaxation": ("relaxation", "mesh"),
    "volterra.solve_volterra": ("volterra", "M"),
    "pde1d.solve_subdiffusion": ("subdiffusion", "mesh"),
    "pde1d.solve_integro": ("integro", "mesh"),
    "pde1d.solve_diffusion_wave": ("diffusion-wave", "mesh"),
}

# ml_eval(alpha, beta, x) also counts the arguments it evaluates.
POINTS = "mittag_leffler.ml_eval"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, solve id, phase]
        self.points = defaultdict(int)  # phase -> ml_eval arguments
        self.phase = "setup"
        self._stack = []  # indices of the open spans
        self._solve = None
        self._patches = []  # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, func):
        spans, stack, points = self.spans, self._stack, self.points
        clock = time.perf_counter
        solve = SOLVES.get(name)
        sig = inspect.signature(func) if solve else None
        count_points = name == POINTS
        tracer = self

        def wrapper(*args, **kwargs):
            opened = False
            if solve is not None and tracer._solve is None:
                model, arg = solve
                size = sig.bind(*args, **kwargs).arguments[arg]
                tracer._solve = (model, int(size if arg == "M" else size.M))
                opened = True
            if count_points:
                points[tracer.phase] += int(np.size(args[2]))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._solve, tracer.phase]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if opened:
                    tracer._solve = None

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [msdfrac] + [
            m for k, m in sys.modules.items() if k.startswith("msdfrac.") and m is not None
        ]
        for modname, attr, span in TARGETS:
            original = getattr(sys.modules[f"msdfrac.{modname}"], attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = msdfrac.fracint.TimeProfile
        original = cls.__dict__["__call__"]
        self._patches.append((cls, "__call__", original))
        cls.__call__ = self._wrap(PROFILE_CALL, original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------

    def phase_stats(self) -> dict:
        """{phase: {span name: [calls, self seconds]}}.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        stats = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for i, s in enumerate(self.spans):
            row = stats[s[5]][s[0]]
            row[0] += 1
            row[1] += s[2] - s[1] - child[i]
        return stats

    def max_m_seconds(self, name: str, phases) -> float:
        """Median inclusive seconds of the calls at the largest solve M."""
        calls = [
            (s[4][1], s[2] - s[1])
            for s in self.spans
            if s[0] == name and s[5] in phases and s[4] is not None
        ]
        if not calls:
            return 0.0
        top = max(M for M, _ in calls)
        return statistics.median(d for M, d in calls if M == top)

    def write(self, path) -> None:
        """Spans as JSON lines, gzip-compressed, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent", "solve", "phase"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[0], s[1] - t0, s[2] - t0, s[3], s[4], s[5]]) + "\n")
