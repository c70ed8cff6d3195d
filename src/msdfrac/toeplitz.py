"""Exact blocked march for lower-triangular (block-)Toeplitz systems.

On a uniform mesh three schemes solve

    sum_{i<=j} K[j-i] u_i = x_j,    j = 0..M-1,

with scalar, per-column or q x q kernel entries K[g]: the
constant-kernel Volterra collocation scheme, the L1 scheme and the
convolution-quadrature (CQ) Crank-Nicolson scheme.  ``march`` solves
it exactly up to rounding in O(M log^2 M) work, after the online FFT scheme of
Hairer, Lubich and Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985).
Unknowns are grouped in blocks of _BLOCK.  The far history, from
earlier blocks, arrives in an accumulator: x_j is overwritten by x_j
minus its far history, and after n blocks the last lowbit(n) blocks
feed the next lowbit(n) through one rfft/irfft convolution, with each
kernel prefix transformed once per march.

The near history, from earlier unknowns of the same block, is left to
a block solver.  Where the local step is linear, every block solves the
same lower-triangular (block-)Toeplitz system, whose inverse is again
lower-triangular (block-)Toeplitz and is fixed by its first (block)
column; the leading part of it serves the last, shorter block.
``block_inverse`` (q x q blocks, identity K[0]) and ``modal_inverse``
(one scalar recursion per column, on a shared kernel with a per-column
diagonal, as in L1, or on a per-column kernel, as in CQ) find that
column once per march by forward substitution, and each block then
advances with one length-2B FFT product, with no Python work per step.  ``stepwise`` serves a local
step given as a callable (a banded finite-element solve): it steps
through its block one unknown at a time, with one BLAS product per step
for the near history.

The CQ march, on the table-6 data at M = 4096, stays within 2.5e-14
(alpha = 0.25) and 9.3e-14 (alpha = 0.75) of a long-double step-by-step
solve of the same scheme, relative to max |V|; the step-by-step loop
it replaced was off by 1.9e-14 and 6.3e-14.

The block size is a constant because the march time hardly depends on
it.  The march is a plain loop: a recursive closure would form a
reference cycle and keep its arrays alive until the garbage collector
runs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["march", "block_inverse", "modal_inverse", "stepwise"]

# Unknowns per block.  The Volterra march time at M = 16384 and 65536
# was flat, within noise, for 64 to 512 cells per block: a smaller block
# adds FFT levels, a larger one lengthens each block's work.
_BLOCK = 256

BlockSolve = Callable[[np.ndarray, int, int], None]


def _convolve(spec: np.ndarray, src: np.ndarray, N: int) -> np.ndarray:
    """Length-N cyclic convolution of a transformed kernel with src.

    A kernel with one more axis than src holds q x q blocks; otherwise
    it is scalar, shared by every column of src or given per column.
    """
    s = np.fft.rfft(src, n=N, axis=0)
    if spec.ndim == s.ndim + 1:
        prod = np.einsum("kij,kj->ki", spec, s)
    else:
        prod = spec.reshape(spec.shape + (1,) * (s.ndim - spec.ndim)) * s
    return np.fft.irfft(prod, n=N, axis=0)


def march(kern: np.ndarray, x: np.ndarray, solve_block: BlockSolve) -> np.ndarray:
    """Solve sum_{i<=j} kern[j-i] u_i = x_j in place; returns x holding u.

    ``kern`` holds K[g] for g = 0..M-1 (K[0] is read only by the block
    solver, which may also add back a part of K that kern leaves out of
    the far history).  ``solve_block(x, start, stop)`` must turn x[start:stop],
    the right side minus the far history, into u[start:stop], reading
    earlier unknowns of the block from x.
    """
    M = len(x)
    B = _BLOCK
    spectra = {}  # span L -> rfft of kern[:2L]
    for start in range(0, M, B):
        stop = min(start + B, M)
        solve_block(x, start, stop)
        if stop == M:
            break
        # after n blocks, the last lowbit(n) blocks feed the next lowbit(n)
        n = stop // B
        L = (n & -n) * B
        if L not in spectra:
            head = kern[: 2 * L].copy()
            head[0] = 0.0  # gap 0 never reaches the far outputs; keep its size out of the rounding
            spectra[L] = np.fft.rfft(head, n=2 * L, axis=0)
        far = _convolve(spectra[L], x[stop - L : stop], 2 * L)
        x[stop : stop + L] -= far[L : L + min(L, M - stop)]
    return x


def _inverse_solver(z: np.ndarray) -> BlockSolve:
    """Block solver applying the lower-triangular (block-)Toeplitz
    inverse with first (block) column z, as one FFT product."""
    N = 2 * len(z)
    spec = np.fft.rfft(z, n=N, axis=0)

    def solve_block(x, start, stop):
        x[start:stop] = _convolve(spec, x[start:stop], N)[: stop - start]

    return solve_block


def block_inverse(kern: np.ndarray) -> BlockSolve:
    """Block solver for a linear step with q x q kernel blocks and the
    identity for K[0], by forward substitution for the first block
    column of the inverse: z[j] = -sum_{i=1..j} K[i] z[j-i]."""
    col = kern[:_BLOCK]
    nb, q, _ = col.shape
    wide = col[1:].transpose(1, 0, 2).reshape(q, (nb - 1) * q)  # K[1] .. K[nb-1] side by side
    rev = np.zeros((nb * q, q))  # z[nb-1] .. z[0] stacked, filled from the bottom
    rev[-q:] = np.eye(q)
    for j in range(1, nb):
        rev[(nb - 1 - j) * q : (nb - j) * q] = -wide[:, : j * q] @ rev[(nb - j) * q :]
    return _inverse_solver(rev.reshape(nb, q, q)[::-1])


def modal_inverse(kern: np.ndarray, shift: np.ndarray) -> BlockSolve:
    """Block solver for one scalar recursion per column: column k of x
    solves march's system with K[0] + shift[k] on the diagonal, where
    kern is scalar, shared by every column, or 2-D, column k of kern
    being column k's kernel.  Forward substitution runs over all columns
    at once."""
    col = kern[:_BLOCK]
    d = col[0] + shift
    z = np.empty((len(col),) + d.shape)  # first column of each inverse
    z[0] = 1.0 / d
    for j in range(1, len(col)):
        if col.ndim == 1:
            z[j] = -(col[j:0:-1] @ z[:j]) / d
        else:
            z[j] = -np.einsum("ik,ik->k", col[j:0:-1], z[:j]) / d
    return _inverse_solver(z)


def stepwise(kern: np.ndarray, step: Callable[[int, np.ndarray], np.ndarray]) -> BlockSolve:
    """Block solver for a local step given as a callable, with scalar
    kern: u_j = step(j, b) with b = x_j - sum_{i<j} kern[j-i] u_i, the
    near part of that sum one BLAS product per step against the
    reversed gaps 1..B-1."""
    rev = kern[1:_BLOCK][::-1].copy()
    nr = len(rev)

    def solve_block(x, start, stop):
        for j in range(start, stop):
            x[j] = step(j, x[j] - rev[nr - (j - start) :] @ x[start:j])

    return solve_block
