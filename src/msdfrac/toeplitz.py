"""Exact blocked march for lower-triangular (block-)Toeplitz systems.

On a uniform mesh three schemes solve

    sum_{i<=j} K[j-i] u_i = x_j,    j = 0..M-1,

with scalar or q x q kernel entries K[g]: the constant-kernel Volterra
collocation scheme, the L1 scheme and, written on the increments of
its unknowns, the convolution-quadrature (CQ) Crank-Nicolson scheme.
``march`` solves it exactly up to rounding in O(M log^2 M) work, after
the online FFT scheme of Hairer, Lubich and Schlichte (SIAM J. Sci.
Stat. Comput. 6, 1985).
Unknowns are grouped in blocks of _BLOCK.  The far history, from
earlier blocks, arrives in an accumulator: x_j is overwritten by x_j
minus its far history, and after n blocks the last lowbit(n) blocks
feed the next lowbit(n) through one rfft/irfft convolution, with each
kernel prefix transformed once per march.

The near history, from earlier unknowns of the same block, is solved
by the inverse of the block system.  Every block solves the same
lower-triangular (block-)Toeplitz system, whose inverse is again
lower-triangular (block-)Toeplitz and is fixed by its first (block)
column z; the leading part of z serves the last, shorter block.
``block_inverse`` (q x q blocks, identity K[0]) and ``modal_inverse``
(one scalar recursion per column, on a shared kernel with a per-column
diagonal shift, as in L1 and CQ) find z once per march by forward
substitution, and each block then advances with one length-2B FFT
product with z, with no Python work per step.

The CQ march, on the table-6 data at M = 4096 (alpha 0.25 and 0.75,
split and direct), stays within 1.9e-15 to 3.7e-15 of a long-double
step-by-step solve of the same scheme, relative to max |V|.  The same
scheme marched on the values V, with the 1/tau coupling of neighbouring
steps off the diagonal, is off by 2.5e-14 to 1.2e-13.

The block size is a constant because the march time hardly depends on
it.  The march is a plain loop: a recursive closure would form a
reference cycle and keep its arrays alive until the garbage collector
runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["march", "block_inverse", "modal_inverse"]

# Unknowns per block.  The Volterra march time at M = 16384 and 65536
# was flat, within noise, for 64 to 512 cells per block: a smaller block
# adds FFT levels, a larger one lengthens each block's work.
_BLOCK = 256


def _convolve(spec: np.ndarray, src: np.ndarray, N: int) -> np.ndarray:
    """Length-N cyclic convolution of a transformed kernel with src.

    A spectrum with one more axis than src's holds q x q blocks; one
    with fewer axes is shared by every column of src, and one of src's
    shape (the inverses of ``modal_inverse``, one per diagonal shift)
    acts column by column.
    """
    s = np.fft.rfft(src, n=N, axis=0)
    if spec.ndim == s.ndim + 1:
        prod = np.einsum("kij,kj->ki", spec, s)
    else:
        prod = spec.reshape(spec.shape + (1,) * (s.ndim - spec.ndim)) * s
    return np.fft.irfft(prod, n=N, axis=0)


def march(kern: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Solve sum_{i<=j} kern[j-i] u_i = x_j in place; returns x holding u.

    ``kern`` holds the scalar or q x q K[g] for g = 0..M-1; K[0] is not
    read.  ``z`` is the first (block) column of the inverse of one
    block's system, as ``block_inverse`` or ``modal_inverse`` return it.
    """
    M = len(x)
    B = _BLOCK
    N = 2 * len(z)
    zspec = np.fft.rfft(z, n=N, axis=0)
    spectra = {}  # span L -> rfft of kern[:2L]
    for start in range(0, M, B):
        stop = min(start + B, M)
        x[start:stop] = _convolve(zspec, x[start:stop], N)[: stop - start]
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


def block_inverse(kern: np.ndarray) -> np.ndarray:
    """First block column z of the inverse of one block's system, for
    q x q kernel blocks and the identity for K[0], by forward
    substitution: z[j] = -sum_{i=1..j} K[i] z[j-i]."""
    col = kern[:_BLOCK]
    nb, q, _ = col.shape
    wide = col[1:].transpose(1, 0, 2).reshape(q, (nb - 1) * q)  # K[1] .. K[nb-1] side by side
    rev = np.zeros((nb * q, q))  # z[nb-1] .. z[0] stacked, filled from the bottom
    rev[-q:] = np.eye(q)
    for j in range(1, nb):
        rev[(nb - 1 - j) * q : (nb - j) * q] = -wide[:, : j * q] @ rev[(nb - j) * q :]
    return rev.reshape(nb, q, q)[::-1]


def modal_inverse(kern: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """First columns z of the inverses of one block's systems, for one
    scalar recursion per column on the scalar kern, shared by every
    column: column k of x solves march's system with K[0] + shift[k] on
    the diagonal.  Forward substitution runs over all columns at once."""
    col = kern[:_BLOCK]
    d = col[0] + shift
    z = np.empty((len(col),) + d.shape)
    z[0] = 1.0 / d
    for j in range(1, len(col)):
        z[j] = -(col[j:0:-1] @ z[:j]) / d
    return z
