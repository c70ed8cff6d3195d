"""Reference constructions the tests check the solvers against.

No solver calls these, and ``import msdfrac`` does not load this
module.  Each is the direct, unoptimized form of a scheme:

- build_l1: the dense L1 weight triangle, a[m, k] = a^{(m)}_{m-k};
- complementary_kernel: the kernel P that inverts the L1 convolution
  summatively, sum_{j=k}^{m} P^{(m)}_{m-j} a^{(j)}_{j-k} = 1, the
  identity the stability analysis of every L1-based solver rests on.
  It costs O(M^3);
- apply_dfrac and apply_cq: one value of the discrete Caputo
  derivative and of the convolution quadrature;
- singular_moment: one history moment of the collocation scheme;
- toeplitz_inverse_steps: the first (block) column of the inverse of
  either kind of system toeplitz.march solves, by forward substitution
  over every entry, with einsum and matmul products in place of _times;
- volterra_steps: the collocation scheme marched one cell at a time,
  with the direct history sum and one q x q solve per cell;
- collocation_residual: the collocation equations checked by the same
  direct per-cell sum.

Both take a constant kernel K as lambda s, t: K.
"""

from __future__ import annotations

import math

import numpy as np

from .conv_quad import CQWeights
from .fracint import sample
from .l1_scheme import l1_weight_block
from .mesh import GradedMesh, build_mesh, check_alpha, check_count
from .volterra import (
    CollocationTrace,
    VolterraProblem,
    _collocation_points,
    _forcing_at,
    _local_matrix,
    _moments,
    _weights,
)

__all__ = [
    "build_l1",
    "complementary_kernel",
    "apply_dfrac",
    "apply_cq",
    "singular_moment",
    "toeplitz_inverse_steps",
    "volterra_steps",
    "collocation_residual",
]


def build_l1(mesh: GradedMesh, alpha: float) -> np.ndarray:
    """a[m, k] = a^{(m)}_{m-k} for 1 <= k <= m <= M, zero elsewhere."""
    check_alpha(alpha)
    M = mesh.M
    a = np.zeros((M + 1, M + 1))
    a[1:, 1:] = l1_weight_block(1.0 - alpha, mesh, 0, M) / (mesh.steps * math.gamma(2.0 - alpha))
    return a


def complementary_kernel(a: np.ndarray) -> np.ndarray:
    """P[m, j] = P^{(m)}_{m-j}, laid out as a, by the backward recursion."""
    P = np.zeros_like(a)
    for m in range(1, len(a)):
        P[m, m] = 1.0 / a[m, m]
        for k in range(m - 1, 0, -1):
            d = a[k + 1 : m + 1, k + 1] - a[k + 1 : m + 1, k]
            P[m, k] = (d @ P[m, k + 1 : m + 1]) / a[k, k]
    return P


def apply_dfrac(a: np.ndarray, values) -> float:
    """Discrete Caputo derivative at the last supplied node.

    ``values`` are v^0..v^m with m <= M; returns
    sum_k a^{(m)}_{m-k} (v^k - v^{k-1}).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a one-dimensional sequence of node values")
    m, M = v.size - 1, len(a) - 1
    if not 1 <= m <= M:
        raise ValueError(f"need between 2 and {M + 1} values, got {v.size}")
    return float(a[m, 1 : m + 1] @ np.diff(v))


def apply_cq(w: CQWeights, values) -> float:
    """Quadrature value approximating (I^a phi)(t_m) from phi^0..phi^m."""
    phi = np.asarray(values, dtype=float)
    if phi.ndim != 1 or phi.size < 1:
        raise ValueError("expected a one-dimensional sequence of node values")
    m = phi.size - 1
    if m > w.M:
        raise ValueError(f"got {phi.size} values but the rule holds {w.M + 1} weights")
    return float(w.tau**w.alpha * (w.omega[: m + 1] @ phi[::-1]) + w.chi[m] * phi[0])


def singular_moment(alpha: float, d: float, k: int) -> float:
    """int_0^1 (d - s)^{-alpha} s^k ds for d >= 1 (history cells)."""
    if d < 1.0:
        raise ValueError("history moment needs d >= 1")
    return float(_moments(alpha, d, k + 1)[k])


def toeplitz_inverse_steps(kern: np.ndarray, shift=None) -> np.ndarray:
    """z with sum_{i<=j} K[j-i] z[i] = delta_{j0} for j = 0..len(kern)-1.

    With ``shift`` None, kern holds q x q blocks and K[0] is the identity
    (kern[0] is not read).  Otherwise kern is scalar and K[0] = kern[0] +
    shift, a column of z per entry of the scalar or vector shift: z is
    the impulse response of toeplitz.march(kern, x, shift).
    """
    kern = np.asarray(kern, dtype=float)
    if shift is None:
        z = np.zeros_like(kern)
        z[0] = np.eye(kern.shape[1])
        for j in range(1, len(kern)):
            z[j] = -np.einsum("gij,gjk->ik", kern[j:0:-1], z[:j])
        return z
    d = kern[0] + np.asarray(shift, dtype=float)
    z = np.empty((len(kern),) + d.shape)
    z[0] = 1.0 / d
    for j in range(1, len(kern)):
        z[j] = -(kern[j:0:-1] @ z[:j]) / d
    return z


def _kernel_samples(prob: VolterraProblem, pts: np.ndarray, m: int):
    """K(t_{e,j}, t_{m,i}) for the history cells e = 0..m-1, indexed [i, e, j]
    (empty at m = 0), and for the current cell, indexed [i, j]."""
    kernel = prob.kernel if callable(prob.kernel) else lambda s, t: float(prob.kernel)
    ti, name = pts[m], "kernel K(s, t)"  # ti: (q,)
    return sample(kernel, pts[:m][None], ti[:, None, None], name=name), sample(kernel, pts[m], ti[:, None], name=name)


def _history(psi: np.ndarray, vals: np.ndarray, m: int, hist_k) -> np.ndarray:
    """Memory of cell m: sum_{e<m} psi[m-e] vals[e], weighted by the kernel
    samples ``hist_k[i, e, j]``."""
    return np.einsum("igj,gj->i", psi[m:0:-1].transpose(1, 0, 2) * hist_k, vals[:m])


def volterra_steps(prob: VolterraProblem, M: int) -> CollocationTrace:
    """solve_volterra's scheme and reconstruction, one cell at a time."""
    M = check_count(M, "M", 1)
    pts = _collocation_points(prob.T, M, prob.c)
    rhs, recon = _forcing_at(prob, pts)
    psi, phi, scale = _weights(prob, M)
    V = np.zeros((M, prob.q))
    for m in range(M):
        hist_k, cur_k = _kernel_samples(prob, pts, m)
        mat = _local_matrix(phi, scale, cur_k)
        V[m] = np.linalg.solve(mat, rhs[m] + scale * _history(psi, V, m, hist_k))
    U = V if recon is None else V + prob.f(0.0) + recon
    return CollocationTrace(mesh=build_mesh(prob.T, M, 1.0), c=prob.c, V=V, U=U)


def collocation_residual(prob: VolterraProblem, trace: CollocationTrace) -> float:
    """Max residual of the discrete equations over all collocation points."""
    V = trace.V
    pts = _collocation_points(prob.T, len(V), prob.c)
    forcing, _ = _forcing_at(prob, pts)
    psi, phi, scale = _weights(prob, len(V))
    LV = np.empty_like(V)
    for m in range(len(V)):
        hist_k, cur_k = _kernel_samples(prob, pts, m)
        LV[m] = scale * (_history(psi, V, m, hist_k) + (phi * cur_k) @ V[m])
    return float(np.max(np.abs(V - LV - forcing)))
