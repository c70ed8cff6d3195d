"""Nonuniform L1 discretization of the Caputo derivative of order in (0,1).

The scheme replaces the integrand's time derivative by difference
quotients on each cell, which turns the derivative at t_m into a
discrete convolution

    D^a v^m = sum_{k=1}^{m} a_{m-k}^{(m)} (v^k - v^{k-1}),

with positive weights that decrease away from the diagonal.  The
complementary kernel P inverts this convolution summatively: the rows
of P against the columns of a sum to one exactly, which is the identity
the stability analysis of every L1-based solver in the package rests
on.  Both triangles are kept densely; the kernel triangle costs O(M^3)
to fill and is only needed by the verification suite, so it is built on
first access.

march_l1 steps the scheme row by row on a graded mesh.  On a uniform
mesh the weights depend only on the gap, a_g, and written on the values
instead of the differences the derivative is D^a v^m = sum_{k<=m}
c_{m-k} v^k for v^0 = 0, with c_0 = a_0 and c_g = a_g - a_{g-1}: a
lower-triangular Toeplitz system in which a relaxation coefficient or
an eigenvalue sits only on the diagonal.  toeplitz.march solves it a
block of steps at a time.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .mesh import GradedMesh
from .toeplitz import march, modal_inverse, stepwise

__all__ = ["L1System", "build_l1", "apply_dfrac", "l1_weight_row", "march_l1"]


def l1_weight_row(alpha: float, mesh: GradedMesh, m: int) -> np.ndarray:
    """Row of L1 weights at node m: row[k-1] = a^{(m)}_{m-k}, k = 1..m.

    row[-1] is the diagonal weight tau_m^{-alpha}/Gamma(2-alpha).  The
    marching solvers call this directly instead of building the full
    triangle, which keeps them at O(M) memory.
    """
    nodes = mesh.nodes
    pw = (nodes[m] - nodes[: m + 1]) ** (1.0 - alpha)  # last entry is 0^{1-a} = 0
    return (pw[:-1] - pw[1:]) / (mesh.steps[:m] * math.gamma(2.0 - alpha))


def _kernel_row(a: np.ndarray, m: int) -> np.ndarray:
    """P^{(m)}_{m-k} for k = 1..m, from the backward recursion."""
    prow = np.zeros(m + 1)
    prow[m] = 1.0 / a[m, m]
    for k in range(m - 1, 0, -1):
        d = a[k + 1 : m + 1, k + 1] - a[k + 1 : m + 1, k]
        prow[k] = (d @ prow[k + 1 : m + 1]) / a[k, k]
    return prow[1:]


class L1System:
    """L1 weights and complementary kernel on a fixed mesh.

    ``a[m, k]`` holds the weight a^{(m)}_{m-k} for 1 <= k <= m <= M and
    is zero elsewhere; ``P[m, j]`` holds the kernel value P^{(m)}_{m-j}
    with the same layout.
    """

    def __init__(self, mesh: GradedMesh, alpha: float, weights: np.ndarray):
        self.mesh = mesh
        self.alpha = alpha
        self.a = weights
        self._P: np.ndarray | None = None

    @property
    def P(self) -> np.ndarray:
        if self._P is None:
            M = self.mesh.M
            P = np.zeros_like(self.a)
            for m in range(1, M + 1):
                P[m, 1 : m + 1] = _kernel_row(self.a, m)
            self._P = P
        return self._P

    def kernel_row(self, m: int) -> np.ndarray:
        """Single kernel row P^{(m)}_{m-k}, k = 1..m, in O(m^2) work."""
        if self._P is not None:
            return self._P[m, 1 : m + 1]
        return _kernel_row(self.a, m)


def build_l1(mesh: GradedMesh, alpha: float) -> L1System:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha}")
    M = mesh.M
    a = np.zeros((M + 1, M + 1))
    for m in range(1, M + 1):
        a[m, 1 : m + 1] = l1_weight_row(alpha, mesh, m)
    return L1System(mesh, alpha, a)


def apply_dfrac(sys: L1System, values) -> float:
    """Discrete Caputo derivative at the last supplied node.

    ``values`` are v^0..v^m with m <= M; returns
    sum_k a^{(m)}_{m-k} (v^k - v^{k-1}).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a one-dimensional sequence of node values")
    m = v.size - 1
    if not 1 <= m <= sys.mesh.M:
        raise ValueError(f"need between 2 and {sys.mesh.M + 1} values, got {v.size}")
    return float(sys.a[m, 1 : m + 1] @ np.diff(v))


def march_l1(
    alpha: float, mesh: GradedMesh, lam: float | np.ndarray | Callable, rhs: np.ndarray
) -> np.ndarray:
    """Solve D^a V^m + lam V^m = rhs^m for m = 1..M with V^0 = 0.

    ``lam`` is a scalar, or a vector of eigenvalues with one column of
    ``rhs`` per mode sharing each weight row, or, for a non-diagonal
    operator, a callable ``lam(a0, rhs[m], b)`` returning V^m, where
    b = a0 V^{m-1} - hist.  rhs[0] is ignored.  On a uniform mesh
    (``mesh.uniform``) the scheme is the lower-triangular Toeplitz system
    sum_{k<=m} c_{m-k} V^k + lam V^m = rhs^m, with c_0 = a_0 and
    c_g = a_g - a_{g-1} from the gap weights a_g for tau = T/M, so
    b = -sum_{k<m} c_{m-k} V^k; it is solved by toeplitz.march.  Graded
    meshes build the weight row at every step.
    """
    M = mesh.M
    solve = lam if callable(lam) else None
    if solve is None:
        lam = np.asarray(lam, dtype=float)
        a0_min = mesh.steps.max() ** (-alpha) / math.gamma(2.0 - alpha)
        if a0_min + np.min(lam, initial=np.inf) <= 0.0:
            raise ValueError(f"degenerate L1 step: diagonal weight + lam <= 0 for lam = {lam}")
        lam = float(lam) if lam.ndim == 0 else lam  # scalar steps stay in Python floats

    rhs = np.asarray(rhs, dtype=float)
    V = np.zeros(rhs.shape)
    if mesh.uniform:
        pw = np.arange(M + 1, dtype=float) ** (1.0 - alpha)
        a = (pw[1:] - pw[:-1]) * (mesh.T / M) ** (-alpha) / math.gamma(2.0 - alpha)
        c = np.concatenate([a[:1], np.diff(a)])
        if solve is not None:

            def step(j, b):
                return solve(c[0], rhs[j + 1], b)

            V[1:] = march(c, np.zeros(rhs[1:].shape), stepwise(c, step))
        else:
            V[1:] = march(c, rhs[1:].copy(), modal_inverse(c, lam))
        return V

    D = np.zeros((M,) + rhs.shape[1:])  # D[k-1] = V^k - V^{k-1}
    for m in range(1, M + 1):
        row = l1_weight_row(alpha, mesh, m)
        a0 = row[-1]
        hist = row[: m - 1] @ D[: m - 1]
        if solve is None:
            V[m] = (rhs[m] + a0 * V[m - 1] - hist) / (a0 + lam)
        else:
            V[m] = solve(a0, rhs[m], a0 * V[m - 1] - hist)
        D[m - 1] = V[m] - V[m - 1]
    return V
