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
diagonal shift, as in L1 and CQ) find z once per march: forward
substitution gives its first entries, at most _FIRST, and each doubling
step then extends the n known entries by m <= n more with two FFT products
(Commenges and Monsion, IEEE Trans. Automat. Control 29, 1984):
w = (K * z[:n])[n:n+m] and z[n:n+m] = -(z[:m] * w)[:m], since the
residual of the truncated z is -w from entry n on.  A diagonal shift
would enter w only through entries of the truncated z from n on, which
are zero, so every column forms w on the shared unshifted kernel.  Each
block then advances with one length-2B FFT product with z, with no
Python work per step.

The CQ march, on the table-6 data at M = 4096 (alpha 0.25 and 0.75,
split and direct), stays within 1.9e-15 to 3.9e-15 of a long-double
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
# Most entries of an inverse's first column found by forward substitution;
# a full block's column then takes log2(_BLOCK / _FIRST) doubling steps.
_FIRST = 16


def _times(spec: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Product of two spectra along axis 0.

    A three-axis spec holds q x q blocks, which multiply s's vectors or
    blocks as matrices; one with fewer axes than s is shared by every
    column of s, and one of s's shape (the inverses of ``modal_inverse``,
    one per diagonal shift) acts column by column.
    """
    if spec.ndim == 3:
        return np.einsum("kij,kj->ki", spec, s) if s.ndim == 2 else spec @ s
    return spec.reshape(spec.shape + (1,) * (s.ndim - spec.ndim)) * s


def _convolve(spec: np.ndarray, src: np.ndarray, N: int) -> np.ndarray:
    """Length-N cyclic convolution of a transformed kernel with src."""
    return np.fft.irfft(_times(spec, np.fft.rfft(src, n=N, axis=0)), n=N, axis=0)


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


def _head(nb: int) -> int:
    """Leading entries of a length-nb column found by forward substitution:
    nb halved, rounding up, to at most _FIRST, so that only the last
    doubling step falls short, and by less than 2^k after k halvings.
    The FFT products round relative to their largest terms, so z[n/2:n]
    carries errors relative to z[n-1]; where z grows (a negative shift),
    a last step far short of n would carry them into entries far below
    z[n-1]."""
    while nb > _FIRST:
        nb = (nb + 1) // 2
    return nb


def _double(kern: np.ndarray, head: np.ndarray) -> np.ndarray:
    """The first len(kern) entries of z from its first entries ``head``,
    doubling the known length per step.  Both products of a step are
    length-2n FFT products with z[:n]; in a last step that falls short,
    the entries of z[:n] from m on do not reach the m outputs kept."""
    z = np.empty((len(kern),) + head.shape[1:])
    n = len(head)
    z[:n] = head
    while n < len(z):
        m, N = min(n, len(z) - n), 2 * n
        zs = np.fft.rfft(z[:n], n=N, axis=0)
        w = np.fft.irfft(_times(np.fft.rfft(kern[: n + m], n=N, axis=0), zs), n=N, axis=0)[n : n + m]
        z[n : n + m] = -np.fft.irfft(_times(zs, np.fft.rfft(w, n=N, axis=0)), n=N, axis=0)[:m]
        n += m
    return z


def block_inverse(kern: np.ndarray) -> np.ndarray:
    """First block column z of the inverse of one block's system, for
    q x q kernel blocks and the identity for K[0]: forward substitution
    z[j] = -sum_{i=1..j} K[i] z[j-i] for the first _head entries, then
    doubling."""
    col = kern[:_BLOCK]
    nb, q, _ = col.shape
    n = _head(nb)
    wide = col[1:n].transpose(1, 0, 2).reshape(q, (n - 1) * q)  # K[1] .. K[n-1] side by side
    rev = np.zeros((n * q, q))  # z[n-1] .. z[0] stacked, filled from the bottom
    rev[-q:] = np.eye(q)
    for j in range(1, n):
        rev[(n - 1 - j) * q : (n - j) * q] = -wide[:, : j * q] @ rev[(n - j) * q :]
    return _double(col, rev.reshape(n, q, q)[::-1])


def modal_inverse(kern: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """First columns z of the inverses of one block's systems, for one
    scalar recursion per column on the scalar kern, shared by every
    column: column k of x solves march's system with K[0] + shift[k] on
    the diagonal.  Forward substitution of the first _head entries runs
    over all columns at once, then doubling."""
    col = kern[:_BLOCK]
    d = col[0] + shift
    z = np.empty((_head(len(col)),) + d.shape)
    z[0] = 1.0 / d
    for j in range(1, len(z)):
        z[j] = -(col[j:0:-1] @ z[:j]) / d
    return _double(col, z)
