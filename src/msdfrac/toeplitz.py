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

The system comes in two kinds, told apart by ``shift``: q x q blocks
with the identity for K[0] (Volterra collocation), or a scalar kernel
shared by every column of x, with K[0] + shift[k] on the diagonal of
column k (L1 and CQ, one column per mode).  The near history, from
earlier unknowns of the same block, is solved by the inverse of the
block system, again lower-triangular (block-)Toeplitz and fixed by its
first (block) column z.  march finds z once for the full blocks and once
for a shorter last one: one recursion through _times, the same for both
kinds, gives its first entries, at most _FIRST, and each doubling step
then extends the n known entries by m <= n more with two FFT products
(Commenges and Monsion, IEEE Trans. Automat. Control 29, 1984):
w = (K * z[:n])[n:n+m] and z[n:n+m] = -(z[:m] * w)[:m], since the
residual of the truncated z is -w from entry n on.  A diagonal shift
would enter w only through entries of the truncated z from n on, which
are zero, so every column forms w on the shared unshifted kernel.  Each
block then advances with one FFT product with z, with no Python work
per step.  A published table marches each operator on the same
meshes in both of its blocks, so march takes z from _block_inverse,
a functools.lru_cache (threads may share it) of the last _MEMO systems,
keyed by the bytes, shape and dtype of kern's first block and shift:
a hit is the column the same system would give again, bit for bit.

Where z grows (a negative shift), FFT rounding is relative to its
largest entries: at alpha 0.3 and shift -0.9 a_0 the L1 impulse response
is 1.95e-7, 3.43e-8 and 3.86e-9 of max |z| (1.6e232 to 4.7e301) off
forward substitution at M = 385, 450 and 500, all in the second block,
against 5.5e-14 for milder shifts.  At M = 600 z overflows (see finite).

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

import functools

import numpy as np

__all__ = ["march"]

# Unknowns per block.  The Volterra march time at M = 16384 and 65536
# was flat, within noise, for 64 to 512 cells per block: a smaller block
# adds FFT levels, a larger one lengthens each block's work.
_BLOCK = 256
# Most entries of an inverse's first column found by forward substitution;
# a full block's column then takes log2(_BLOCK / _FIRST) doubling steps.
_FIRST = 16
# Block systems whose inverse columns _inverse_of keeps: enough for one study's six
# meshes, one entry each (two where a march ends in a shorter block), so that the other
# block of a table finds them.  An entry is len(col) <= _BLOCK rows of q^2 doubles, or of
# one double per shift.
_MEMO = 8


def _times(spec: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Product of two spectra, or of two sequences of entries, along axis 0.

    A three-axis spec holds q x q blocks, which multiply s's vectors or
    blocks as matrices; one with fewer axes than s is shared by every
    column of s, and one of s's shape (the inverses of one diagonal shift
    per column) acts column by column.
    """
    if spec.ndim == 3:
        return np.einsum("kij,kj->ki", spec, s) if s.ndim == 2 else spec @ s
    return spec.reshape(spec.shape + (1,) * (s.ndim - spec.ndim)) * s


def _convolve(spec: np.ndarray, src: np.ndarray, N: int) -> np.ndarray:
    """Length-N cyclic convolution of a transformed kernel with src."""
    return np.fft.irfft(_times(spec, np.fft.rfft(src, n=N, axis=0)), n=N, axis=0)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported by finite
def march(kern: np.ndarray, x: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """Solve sum_{i<=j} K[j-i] u_i = x_j in place; returns x holding u.

    ``kern`` holds K[g] for g = 1..M-1 in kern[g]; kern[0] is read only
    with a ``shift``.  With ``shift`` None the K[g] are q x q blocks and
    K[0] is the identity; otherwise kern is scalar and column k of x has
    K[0] = kern[0] + shift[k].
    """
    M, N = len(x), 0
    spectra = {}  # span L -> rfft of kern[:2L] with gap 0 zeroed
    for start in range(0, M, _BLOCK):
        stop = min(start + _BLOCK, M)
        if N != 2 * (stop - start):  # the first block, and a shorter last one
            N = 2 * (stop - start)
            zspec = np.fft.rfft(_block_inverse(kern[: N // 2], shift), n=N, axis=0)
        x[start:stop] = _convolve(zspec, x[start:stop], N)[: stop - start]
        if stop == M:
            break
        # after n blocks, the last lowbit(n) blocks feed the next lowbit(n)
        n = stop // _BLOCK
        L = (n & -n) * _BLOCK
        if L not in spectra:
            # gap 0 never reaches the far outputs; keep its size out of the rounding
            spectra[L] = np.fft.rfft(np.concatenate([np.zeros_like(kern[:1]), kern[1 : 2 * L]]), n=2 * L, axis=0)
        far = _convolve(spectra[L], x[stop - L : stop], 2 * L)
        x[stop : stop + L] -= far[L : L + min(L, M - stop)]
    return finite(x)


def finite(V: np.ndarray) -> np.ndarray:
    """V, one row per step of a march, if finite; else a ValueError naming its first step that is not."""
    if not np.isfinite(V).all():
        step = np.isfinite(V.reshape(len(V), -1)).all(axis=1).argmin() + 1
        raise ValueError(f"the solution overflows double precision: step {step} of {len(V)} is not finite")
    return V


def _block_inverse(col: np.ndarray, shift: np.ndarray | None) -> np.ndarray:
    """_inverse(col, shift), read-only, keyed by the dtype, shape and bytes of col and shift."""
    system = (col,) if shift is None else (col, np.asarray(shift))
    return _inverse_of(tuple((a.dtype.str, a.shape, a.tobytes()) for a in system))


@functools.lru_cache(maxsize=_MEMO)
def _inverse_of(key: tuple) -> np.ndarray:
    """_inverse of the system _block_inverse spelled out as key, read-only."""
    z = _inverse(*(np.frombuffer(data, dtype).reshape(shape) for dtype, shape, data in key))
    z.flags.writeable = False
    return z


def _inverse(col: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """First (block) column z of the inverse of march's system on
    len(col) <= _BLOCK unknowns: z[j] = -sum_{i=1..j} K[i] z[j-i] / d for
    the first n entries, one recursion through _times for both kinds and
    all columns (d = 1 for blocks, K[0] for scalars), then doubling.  Both
    products of a doubling step are length-2n FFT products with z[:n]; in
    a last step that falls short, the entries of z[:n] from m on do not
    reach the m outputs kept."""
    # n is len(col) halved, rounding up, to at most _FIRST, so that only the
    # last doubling step falls short, by less than 2^k after k halvings.  The
    # FFT products round relative to their largest terms, so z[n/2:n] carries
    # errors relative to z[n-1]; where z grows (a negative shift), a last step
    # far short of n would carry them into entries far below z[n-1].
    n = len(col)
    while n > _FIRST:
        n = (n + 1) // 2
    if shift is None:  # K[0] = I, whatever kern[0] holds
        col = np.concatenate([np.eye(col.shape[1])[None], col[1:]])
        d, z0 = 1.0, col[0]
    else:
        d = col[0] + shift
        z0 = 1.0 / d
    z = np.empty((len(col),) + np.shape(z0))
    z[0] = z0
    for j in range(1, n):
        z[j] = -_times(col[j:0:-1], z[:j]).sum(axis=0) / d
    while n < len(z):
        m, N = min(n, len(z) - n), 2 * n
        zs = np.fft.rfft(z[:n], n=N, axis=0)
        w = np.fft.irfft(_times(np.fft.rfft(col[: n + m], n=N, axis=0), zs), n=N, axis=0)[n : n + m]
        z[n : n + m] = -_convolve(zs, w, N)[:m]
        n += m
    return z
