"""Graded time meshes.

The grid t_m = T (m/M)^r concentrates steps near t = 0, where solutions
of nonlocal-in-time problems typically lose smoothness.  r = 1 is the
uniform mesh.  Nodes are evaluated as T*(m/M)**r rather than the
algebraically equal (m*tau)**r: with the former, the mesh of level 2M
reproduces every coarse node bit for bit at the even indices, because
2m/(2M) and m/M round to the same quotient.  The two-mesh error metric
in the study harness depends on that alignment.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GradedMesh", "build_mesh"]


def check_count(value, name: str, low: int) -> int:
    """value as an int; a bool, a non-integer or a value below low raises
    a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {name}={value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {name}={value}")
    return int(value)


def check_real(value, name: str, ok=math.isfinite, need: str = "be finite (a real number)"):
    """A bool, a value that is not a real number, or one failing ok, raises
    a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
        raise ValueError(f"{name} must {need}, got {name}={value!r}")


def check_reals(values, name: str) -> tuple:
    """values, a nonempty tuple, list or array of finite reals, as floats, else a ValueError naming it."""
    if not isinstance(values, (tuple, list, np.ndarray)) or len(values) == 0:
        raise ValueError(f"{name} must be a nonempty sequence of numbers, got {name}={values!r}")
    for v in values:
        check_real(v, name, need="hold finite real numbers")
    return tuple(float(v) for v in values)


def check_alpha(alpha) -> None:
    """A fractional order outside (0, 1), NaN included, raises a ValueError."""
    check_real(alpha, "alpha", lambda a: 0.0 < a < 1.0, "lie in (0, 1) as a fractional order")


def check_gamma(gamma) -> None:
    """A wave exponent outside (1, 2), NaN included, raises a ValueError."""
    check_real(gamma, "gamma", lambda g: 1.0 < g < 2.0, "lie in (1, 2)")


def check_horizon(T) -> None:
    """A time horizon that is not positive and finite raises a ValueError."""
    check_real(T, "T", lambda t: 0.0 < t < math.inf, "be a positive finite time horizon")


def check_grading(r) -> None:
    """A grading exponent that is not positive and finite raises a ValueError."""
    check_real(r, "r", lambda q: 0.0 < q < math.inf, "be a positive finite grading exponent")


@dataclass(frozen=True, eq=False)
class GradedMesh:
    """Time grid t_m = T (m/M)^r for m = 0..M.

    nodes has length M+1 with nodes[0] = 0 and nodes[M] = T exactly;
    steps has length M with steps[m-1] = t_m - t_{m-1}.
    """

    T: float
    M: int
    r: float
    nodes: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)

    @property
    def uniform(self) -> bool:
        return self.r == 1.0


def build_mesh(T: float, M: int, r: float = 1.0) -> GradedMesh:
    """Construct the graded mesh t_m = T (m/M)^r.

    r >= 1 is the regime the convergence theory covers; r in (0, 1)
    is accepted with a warning since some tabulated parameter choices
    evaluate to r < 1.
    """
    check_horizon(T)
    M = check_count(M, "M", 1)
    check_grading(r)
    if r < 1.0:
        warnings.warn(
            f"grading r = {r} < 1 coarsens the mesh near t = 0; "
            "the convergence theory assumes r >= 1",
            stacklevel=2,
        )
    return _graded(T, M, r)


def _graded(T, M: int, r) -> GradedMesh:
    """build_mesh(T, M, r) for checked arguments, without its warning."""
    m = np.arange(M + 1, dtype=float)
    nodes = T * (m / M) ** r
    steps = np.diff(nodes)
    if np.any(steps <= 0.0):
        raise ValueError("mesh steps must be positive; M too large for this T, r")
    return GradedMesh(T=float(T), M=M, r=float(r), nodes=nodes, steps=steps)


def check_nested(coarse: GradedMesh, fine: GradedMesh) -> None:
    """A ValueError unless fine has twice the steps of coarse and its nodes at the even indices."""
    if fine.M != 2 * coarse.M:
        raise ValueError(f"fine mesh has {fine.M} steps, expected {2 * coarse.M}")
    if not np.array_equal(fine.nodes[::2], coarse.nodes):
        raise ValueError("meshes are not nested: fine nodes[::2] differ from the coarse nodes")


def half_mesh(mesh: GradedMesh) -> GradedMesh:
    """build_mesh(T, M // 2, r) for an even M, checked to nest in mesh.

    A grading r < 1 is not warned about again: mesh was built with it.
    """
    if mesh.M % 2:
        raise ValueError(f"a mesh has a half only at even M, got M = {mesh.M}")
    half = _graded(mesh.T, mesh.M // 2, mesh.r)
    check_nested(half, mesh)
    return half
