"""Nonuniform L1 discretization of the Caputo derivative of order in (0,1).

The scheme replaces the integrand's time derivative by difference
quotients on each cell, which turns the derivative at t_m into a
discrete convolution

    D^a v^m = sum_{k=1}^{m} a_{m-k}^{(m)} (v^k - v^{k-1}),

with positive weights that decrease away from the diagonal.

march_l1 marches a graded mesh _ROWS steps at a time.  l1_weight_block
builds the weight numerators (t_m - t_{k-1})^{1-a} - (t_m - t_k)^{1-a}
of a block of rows and a range of columns, bit for bit as a single row
forms them.  The unknowns are the scaled increments E_k = (v^k -
v^{k-1}) / (tau_k Gamma(2-a)), so the far history, from earlier blocks,
is a sum of products of numerator tiles, _COLS columns wide, with E,
and each cancelling difference is rounded as in a row.  The tiles are
built one after another in one scratch buffer, so a march holds
O(_ROWS _COLS) numerators, not a block of full-width rows.  With a
relaxation coefficient or one eigenvalue per mode the near block is a
lower-triangular system in E, solved for all modes as one stack.

On a uniform mesh the weights depend only on the gap, a_g, and written
on the values instead of the differences the derivative is D^a v^m =
sum_{k<=m} c_{m-k} v^k for v^0 = 0, with c_0 = a_0 and c_g = a_g -
a_{g-1}: a lower-triangular Toeplitz system in which a relaxation
coefficient or an eigenvalue sits only on the diagonal.  toeplitz.march
solves it a block of steps at a time.  Summed on the values, the
history keeps about two digits fewer than on the differences: at M =
16384 and alpha = 0.9 it is 3e-13 relative off a long-double solve of
the same scheme.  Those digits are not needed, because the smallest
two-mesh error any study reads from a uniform L1 march is 7.1e-8 (table
1, alpha = 0.25, n = 6, M = 2048), five orders above them.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import GradedMesh, check_alpha
from .toeplitz import march, modal_inverse

__all__ = ["l1_weight_row", "march_l1"]


# Steps per block of the graded march.  Tables 2 and 5 ran fastest with
# 32 of 16, 32 and 64 rows: fewer rows add Python work per step, more
# lengthen the near-block solve.
_ROWS = 32
# Columns per far-history tile; a march's one scratch buffer holds _ROWS
# x (_COLS + 1) doubles (256 KiB) at any M.  Tables 2 and 5 ran as fast
# with 1024 as with 2048 or 4096 columns, and 10% slower with 512.
_COLS = 1024


def l1_weight_block(
    alpha: float, mesh: GradedMesh, start: int, stop: int, lo: int = 0, hi: int | None = None, out=None
) -> np.ndarray:
    """Numerators of the L1 weight rows m = start+1..stop, columns k = lo+1..hi.

    block[m-start-1, k-lo-1] = (t_m - t_{k-1})^{1-a} - (t_m - t_k)^{1-a}
    for k = lo+1..hi (hi defaults to stop), exactly 0 for k > m; divided
    by tau_k Gamma(2-a) it is a^{(m)}_{m-k}.  ``out`` is an optional flat
    scratch array of at least (stop - start) (hi - lo + 1) doubles; the
    block is then a view into it, valid until the next call that uses it.
    """
    hi = stop if hi is None else hi
    shape = (stop - start, hi - lo + 1)
    flat = np.empty(shape[0] * shape[1]) if out is None else out[: shape[0] * shape[1]]
    x = flat.reshape(shape)  # x[i, j] = t_m - t_{lo+j}, then its power
    np.subtract(mesh.nodes[start + 1 : stop + 1, None], mesh.nodes[lo : hi + 1], out=x)
    near = x[:, max(start - lo, 0) :]
    np.maximum(near, 0.0, out=near)  # t_m - t_k < 0 beyond the diagonal, and 0^{1-a} = 0
    x **= 1.0 - alpha
    # Neighbour differences along the flat array are the row differences
    # in every column but the last, which is dropped: no temporary copy.
    np.subtract(flat[:-1], flat[1:], out=flat[:-1])
    return x[:, :-1]


def l1_weight_row(alpha: float, mesh: GradedMesh, m: int) -> np.ndarray:
    """Row of L1 weights at node m: row[k-1] = a^{(m)}_{m-k}, k = 1..m.

    row[-1] is the diagonal weight tau_m^{-alpha}/Gamma(2-alpha).
    """
    return l1_weight_block(alpha, mesh, m - 1, m)[0] / (mesh.steps[:m] * math.gamma(2.0 - alpha))


def march_l1(
    alpha: float, mesh: GradedMesh, lam: float | np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve D^a V^m + lam V^m = rhs^m for m = 1..M with V^0 = 0.

    ``lam`` is a scalar, or a vector of eigenvalues with one column of
    ``rhs`` per mode sharing each weight row.  ``rhs`` has one row per
    node; rhs[0] is ignored.  On a uniform mesh (``mesh.uniform``) the
    scheme is the lower-triangular Toeplitz system sum_{k<=m} c_{m-k} V^k
    + lam V^m = rhs^m, with c_0 = a_0 and c_g = a_g - a_{g-1} from the gap
    weights a_g for tau = T/M; it is solved by toeplitz.march.  Graded
    meshes are marched a block of weight rows at a time (see the module
    docstring).
    """
    check_alpha(alpha)
    M = mesh.M
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim == 0 or len(rhs) != M + 1:
        raise ValueError(f"rhs must have M + 1 = {M + 1} rows, one per node, got shape {rhs.shape}")
    try:
        lam = np.asarray(lam, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"lam must be a scalar or a vector of eigenvalues, got {lam!r}") from None
    if lam.ndim > 1 or (lam.ndim == 1 and lam.shape != rhs.shape[1:]):
        raise ValueError(
            f"lam must be a scalar or a vector with one entry per rhs column,"
            f" got shape {lam.shape} for rhs of shape {rhs.shape}"
        )
    a0_min = mesh.steps.max() ** (-alpha) / math.gamma(2.0 - alpha)
    if a0_min + np.min(lam, initial=np.inf) <= 0.0:
        raise ValueError(f"degenerate L1 step: diagonal weight + lam <= 0 for lam = {lam}")
    lam = float(lam) if lam.ndim == 0 else lam  # scalar steps stay in Python floats

    V = np.zeros(rhs.shape)
    if mesh.uniform:
        pw = np.arange(M + 1, dtype=float) ** (1.0 - alpha)
        a = (pw[1:] - pw[:-1]) * (mesh.T / M) ** (-alpha) / math.gamma(2.0 - alpha)
        c = np.concatenate([a[:1], np.diff(a)])
        V[1:] = march(c, rhs[1:].copy(), modal_inverse(c, lam))
        return V

    scale = mesh.steps * math.gamma(2.0 - alpha)  # a^{(m)}_{m-k} = block[., k-1] / scale[k-1]
    E = np.zeros((M,) + rhs.shape[1:])  # E[k-1] = (V^k - V^{k-1}) / scale[k-1]
    buf = np.empty(_ROWS * (_COLS + 1))  # every tile and near block is built here
    for start in range(0, M, _ROWS):
        stop = min(start + _ROWS, M)
        hist = 0.0
        for lo in range(0, start, _COLS):
            hi = min(lo + _COLS, start)
            hist += l1_weight_block(alpha, mesh, start, stop, lo, hi, buf) @ E[lo:hi]
        near = l1_weight_block(alpha, mesh, start, stop, start, stop, buf)
        # sum_{k<=m} block[m, k] E_k + lam (V^start + sum_{start<k<=m} scale_k E_k) = rhs^m
        S = np.tril(np.broadcast_to(scale[start:stop], near.shape))
        b = rhs[start + 1 : stop + 1] - hist - lam * V[start]
        if np.ndim(lam):  # one system per mode column, solved as one stack
            Eb = np.linalg.solve(near + lam[:, None, None] * S, b.T[..., None])[..., 0].T
        else:
            Eb = np.linalg.solve(near + lam * S, b)
        E[start:stop] = Eb
        V[start + 1 : stop + 1] = V[start] + np.cumsum((Eb.T * scale[start:stop]).T, axis=0)
    return V
