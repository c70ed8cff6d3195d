"""Nonuniform L1 discretization of the Caputo derivative of order in (0,1).

The scheme replaces the integrand's time derivative by difference
quotients on each cell, which turns the derivative at t_m into a
discrete convolution

    D^a v^m = sum_{k=1}^{m} a_{m-k}^{(m)} (v^k - v^{k-1}),

with positive weights that decrease away from the diagonal.

l1_weight_block builds the cell-integral numerators (t_m - t_{k-1})^p -
(t_m - t_k)^p of a block of rows and a range of columns, bit for bit as
a single row forms them: p = 1 - a for the L1 weights, and p = 1 + nu
for the product integration of fracint.frac_integrate_numeric, which
shares this weight family and its tile loop, cell_integral_blocks.  The
loop takes _ROWS rows at a time and sums the columns of earlier blocks
one tile of _COLS columns at a time in one scratch buffer, so it holds
O(_ROWS _COLS) numerators, and each cancelling difference is rounded as
in a row.  march_l1 sums it over the scaled increments E_k = (v^k -
v^{k-1}) / (tau_k Gamma(2-a)); a scalar relaxation coefficient is one
mode, and the near blocks of all modes are solved as one stack of
lower-triangular systems in E.

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
    p: float, mesh: GradedMesh, start: int, stop: int, lo: int = 0, hi: int | None = None, out=None
) -> np.ndarray:
    """Numerators of exponent p for rows m = start+1..stop, columns k = lo+1..hi.

    block[m-start-1, k-lo-1] = (t_m - t_{k-1})^p - (t_m - t_k)^p for
    k = lo+1..hi (hi defaults to stop), exactly 0 for k > m.  Over
    Gamma(1+p) it is the integral of beta_p(t_m - s) on cell k; for p = 1-a
    and over tau_k Gamma(2-a) it is the L1 weight a^{(m)}_{m-k}.  ``out``
    is an optional flat scratch array of at least (stop - start) (hi - lo
    + 1) doubles; the block is then a view into it, valid until the next
    call that uses it.
    """
    hi = stop if hi is None else hi
    shape = (stop - start, hi - lo + 1)
    flat = np.empty(shape[0] * shape[1]) if out is None else out[: shape[0] * shape[1]]
    x = flat.reshape(shape)  # x[i, j] = t_m - t_{lo+j}, then its power
    np.subtract(mesh.nodes[start + 1 : stop + 1, None], mesh.nodes[lo : hi + 1], out=x)
    near = x[:, max(start - lo, 0) :]
    np.maximum(near, 0.0, out=near)  # t_m - t_k < 0 beyond the diagonal, and 0^p = 0
    x **= p
    # Neighbour differences along the flat array are the row differences
    # in every column but the last, which is dropped: no temporary copy.
    np.subtract(flat[:-1], flat[1:], out=flat[:-1])
    return x[:, :-1]


def cell_integral_blocks(p: float, mesh: GradedMesh, x: np.ndarray):
    """Per block of _ROWS rows m = start+1..stop, yield (start, stop, far, near).

    far[m-start-1] = sum_{k<=start} block[m, k] x[k-1] for the numerators
    of exponent p, summed a tile of _COLS columns at a time (0.0 for the
    first block); near is the block of columns start+1..stop, a view into
    the scratch buffer valid until the next block.  x is read lazily, so a
    march may fill x[start:stop] before it asks for the next block.
    """
    buf = np.empty(_ROWS * (_COLS + 1))
    for start in range(0, mesh.M, _ROWS):
        stop = min(start + _ROWS, mesh.M)
        far = 0.0
        for lo in range(0, start, _COLS):
            hi = min(lo + _COLS, start)
            far += l1_weight_block(p, mesh, start, stop, lo, hi, buf) @ x[lo:hi]
        yield start, stop, far, l1_weight_block(p, mesh, start, stop, start, stop, buf)


def l1_weight_row(alpha: float, mesh: GradedMesh, m: int) -> np.ndarray:
    """Row of L1 weights at node m: row[k-1] = a^{(m)}_{m-k}, k = 1..m.

    row[-1] is the diagonal weight tau_m^{-alpha}/Gamma(2-alpha).
    """
    return l1_weight_block(1.0 - alpha, mesh, m - 1, m)[0] / (mesh.steps[:m] * math.gamma(2.0 - alpha))


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
    # one column per mode: a scalar lam is one mode, or one lam shared by every rhs column
    shape, rhs = rhs.shape, rhs.reshape(M + 1, -1)
    lam = np.broadcast_to(lam, rhs.shape[1:])

    V = np.zeros(rhs.shape)
    if mesh.uniform:
        pw = np.arange(M + 1, dtype=float) ** (1.0 - alpha)
        a = (pw[1:] - pw[:-1]) * (mesh.T / M) ** (-alpha) / math.gamma(2.0 - alpha)
        c = np.concatenate([a[:1], np.diff(a)])
        V[1:] = march(c, rhs[1:].copy(), modal_inverse(c, lam))
        return V.reshape(shape)

    scale = mesh.steps * math.gamma(2.0 - alpha)  # a^{(m)}_{m-k} = block[., k-1] / scale[k-1]
    E = np.zeros((M, rhs.shape[1]))  # E[k-1] = (V^k - V^{k-1}) / scale[k-1]
    for start, stop, hist, near in cell_integral_blocks(1.0 - alpha, mesh, E):
        # sum_{k<=m} block[m, k] E_k + lam (V^start + sum_{start<k<=m} scale_k E_k) = rhs^m per mode
        S = np.tril(np.broadcast_to(scale[start:stop], near.shape))
        b = rhs[start + 1 : stop + 1] - hist - lam * V[start]
        E[start:stop] = np.linalg.solve(near + lam[:, None, None] * S, b.T[..., None])[..., 0].T
        V[start + 1 : stop + 1] = V[start] + np.cumsum(E[start:stop] * scale[start:stop, None], axis=0)
    return V.reshape(shape)
