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

march_l1 marches a graded mesh _ROWS steps at a time.  l1_weight_block
builds a block of weight-row numerators (t_m - t_{k-1})^{1-a} - (t_m -
t_k)^{1-a}, bit for bit as a single row forms them.  The unknowns are
the scaled increments E_k = (v^k - v^{k-1}) / (tau_k Gamma(2-a)), so the
far history, from earlier blocks, is one product of the numerators with
E, and each cancelling difference is rounded as in a row.  With a
relaxation coefficient or one eigenvalue per mode the near block is a
lower-triangular system in E, solved for all modes as one stack; a local
solve given as a callable steps through the block's rows.

On a uniform mesh the weights depend only on the gap, a_g, and written
on the values instead of the differences the derivative is D^a v^m =
sum_{k<=m} c_{m-k} v^k for v^0 = 0, with c_0 = a_0 and c_g = a_g -
a_{g-1}: a lower-triangular Toeplitz system in which a relaxation
coefficient or an eigenvalue sits only on the diagonal.  toeplitz.march
solves it a block of steps at a time.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .mesh import GradedMesh
from .toeplitz import march, modal_inverse, stepwise

__all__ = ["L1System", "build_l1", "apply_dfrac", "l1_weight_block", "l1_weight_row", "march_l1"]


# Steps per block of the graded march.  Tables 2 and 5 ran fastest with
# 32 of 16, 32 and 64 rows: fewer rows add Python work per step, more
# lengthen the block, _ROWS x (M + 1) doubles (4.2 MB at M = 16384).
_ROWS = 32


def l1_weight_block(alpha: float, mesh: GradedMesh, start: int, stop: int) -> np.ndarray:
    """Numerators of the L1 weight rows m = start+1..stop.

    block[m-start-1, k-1] = (t_m - t_{k-1})^{1-a} - (t_m - t_k)^{1-a}
    for k = 1..stop, exactly 0 for k > m; divided by tau_k Gamma(2-a)
    it is a^{(m)}_{m-k}.
    """
    nodes, n = mesh.nodes, stop - start
    # Views into full-width arrays: every block of a march then asks for the
    # same sizes and reuses the memory freed by the block before.  Arrays
    # that grow with stop fault in fresh pages at every block, which made a
    # first march at M = 16384 take 1.7 s instead of 0.9 s.
    x = np.empty((n, mesh.M + 1))[:, : stop + 1]
    np.subtract(nodes[start + 1 : stop + 1, None], nodes[: stop + 1], out=x)
    near = x[:, start:]
    np.maximum(near, 0.0, out=near)  # t_m - t_k < 0 beyond the diagonal, and 0^{1-a} = 0
    x **= 1.0 - alpha
    return np.subtract(x[:, :-1], x[:, 1:], out=np.empty((n, mesh.M))[:, :stop])


def l1_weight_row(alpha: float, mesh: GradedMesh, m: int) -> np.ndarray:
    """Row of L1 weights at node m: row[k-1] = a^{(m)}_{m-k}, k = 1..m.

    row[-1] is the diagonal weight tau_m^{-alpha}/Gamma(2-alpha).
    """
    return l1_weight_block(alpha, mesh, m - 1, m)[0] / (mesh.steps[:m] * math.gamma(2.0 - alpha))


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
    a[1:, 1:] = l1_weight_block(alpha, mesh, 0, M) / (mesh.steps * math.gamma(2.0 - alpha))
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
    b = a0 V^{m-1} - hist.  ``rhs`` has one row per node; rhs[0] is
    ignored.  On a uniform mesh (``mesh.uniform``) the scheme is the
    lower-triangular Toeplitz system sum_{k<=m} c_{m-k} V^k + lam V^m =
    rhs^m, with c_0 = a_0 and c_g = a_g - a_{g-1} from the gap weights a_g
    for tau = T/M, so b = -sum_{k<m} c_{m-k} V^k; it is solved by
    toeplitz.march.  Graded meshes are marched a block of weight rows at a
    time (see the module docstring).
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
    if rhs.ndim == 0 or len(rhs) != M + 1:
        raise ValueError(f"rhs must have M + 1 = {M + 1} rows, one per node, got shape {rhs.shape}")
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

    scale = mesh.steps * math.gamma(2.0 - alpha)  # a^{(m)}_{m-k} = block[., k-1] / scale[k-1]
    E = np.zeros((M,) + rhs.shape[1:])  # E[k-1] = (V^k - V^{k-1}) / scale[k-1]
    for start in range(0, M, _ROWS):
        stop = min(start + _ROWS, M)
        W = l1_weight_block(alpha, mesh, start, stop)
        far = W[:, :start] @ E[:start]
        near = W[:, start:]
        if solve is None:
            # sum_{k<=m} W[m, k] E_k + lam (V^start + sum_{start<k<=m} scale_k E_k) = rhs^m
            S = np.tril(np.broadcast_to(scale[start:stop], near.shape))
            b = rhs[start + 1 : stop + 1] - far - lam * V[start]
            if np.ndim(lam):  # one system per mode column, solved as one stack
                Eb = np.linalg.solve(near + lam[:, None, None] * S, b.T[..., None])[..., 0].T
            else:
                Eb = np.linalg.solve(near + lam * S, b)
            E[start:stop] = Eb
            V[start + 1 : stop + 1] = V[start] + np.cumsum((Eb.T * scale[start:stop]).T, axis=0)
        else:
            for i in range(stop - start):
                m = start + 1 + i
                a0 = near[i, i] / scale[m - 1]
                hist = far[i] + near[i, :i] @ E[start : m - 1]
                V[m] = solve(a0, rhs[m], a0 * V[m - 1] - hist)
                E[m - 1] = (V[m] - V[m - 1]) / scale[m - 1]
    return V
