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
one tile of _COLS columns at a time in one scratch buffer, 2 x 256 KiB
at any M: powers in one half, their differences in the other, so numpy
copies no overlapping operand.  Each cancelling difference is rounded
as in a row.  march_l1 sums it over the scaled increments E_k = (v^k -
v^{k-1}) / (tau_k Gamma(2-a)); a scalar relaxation coefficient is one
mode, and the near blocks of all modes are solved as one stack of
lower-triangular systems in E.

A graded mesh and its half t_0, t_2, ..., t_M are marched in one pass
of that loop: a half cell is two fine cells, so the half's numerator
(j, i) is the fine row 2j summed over columns 2i - 1 and 2i, and no
numerator of the half is formed.  Sterbenz's lemma makes both fine
differences exact where the steps grow (r >= 1), so the sum is rounded
once, to the half's own numerator (at M = 2200: none differs for r = 7,
7/4, 5/3, 2; one by 1 ulp at r = 5/12).  The half's far history comes
from the same far sums, its increments repeated as extra columns of E,
so only the order of its far sums differs from a march of its own.

A graded march of more than _SOE_M = 4 _COLS + _ROWS = 4128 steps, by
the mesh's declared M, takes its far history from a sum of exponentials
(SOE) instead, soe_blocks, at O(M N K) for N exponentials and K columns
in place of O(M^2 K) (Jiang, Zhang, Zhang and Zhang, Commun. Comput.
Phys. 21 (2017)).  soe_kernel writes t^{-a} = Gamma(a)^{-1} int_0^inf
s^{a-1} e^{-st} ds as sum_j w_j e^{-s_j t} on [delta, T], delta the
smallest gap t_{start+1} - t_start a far term sees: 12-node Gauss-Jacobi
with weight s^{a-1} on [0, 1/T], and 16-node Gauss-Legendre panels of
width at most 2 in log s up to log(37/delta) + 1 (Beylkin and Monzon,
Appl. Comput. Harmon. Anal. 28 (2010)).  Every weight is positive, N =
12 + 16 ceil((log(37 T/delta) + 1)/2), 204 at delta = 1e-8 and 540 at
1e-26 for T = 1, and the relative error of t^{-a} is below 2.5e-15 for
alpha in [0.02, 0.98] (1.3e-15 at T = 1).  Row m's far sum is then p
sum_j w_j e^{-s_j (t_m - t_start)} H_j, and after each near solve H_j <-
e^{-s_j (t_stop - t_start)} H_j + sum_k E_k e^{-s_j (t_stop - t_k)} (1 -
e^{-s_j tau_k}) / s_j over the block's cells, so no term cancels.  A
pair's half columns of E ride in H unchanged, a half cell being two
fine cells; the near block keeps the exact numerators.  A pair march at
M = 16384 (table 5, alpha 0.75) takes 0.14-0.18 s in place of 1.0-1.25 s
of tiles on one CPU, and agrees with them to 5e-16 of max |V|.  The gate
sits above M = 4096 because seven cells of tables 2 and 5 (alpha 0.25,
r 7, M 256 to 2048, whose finest meshes have M <= 4096) are rounding
noise of the cancelling numerators and would move by 19-90% under any
other far sum; below it every march, and every such cell, is the tile
loop's bit for bit.  Four cells can move: table 5 at alpha 0.75, rows
M = 4096 and 8192, both blocks; two do, by 4.1e-12 and 1.5e-14 relative.
Product integration keeps the tile loop at every M (its kernel t^nu
grows; see fracint.frac_integrate_numeric for its cost).

On a uniform mesh the weights depend only on the gap, a_g, and written
on the values instead of the differences the derivative is D^a v^m =
sum_{k<=m} c_{m-k} v^k for v^0 = 0, with c_0 = a_0 and c_g = a_g -
a_{g-1}: a lower-triangular Toeplitz system in which a relaxation
coefficient or an eigenvalue sits only on the diagonal.  toeplitz.march
solves it a block of steps at a time.  Summed on the values, the
history keeps about two digits fewer than on the differences: at alpha
= 0.9 it is 1.6e-13 (M = 4096) and 6e-14 (M = 16384) relative off a
long-double solve of the same scheme.  Those digits are not needed, because the smallest
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
# Columns per far-history tile; a march's one scratch buffer holds two
# halves of _ROWS x (_COLS + 1) doubles (2 x 256 KiB) at any M.  Tables
# 2 and 5 ran as fast with 1024 as with 2048 or 4096 columns, and 10%
# slower with 512.
_COLS = 1024
# Graded marches of more steps than this, whose blocks from t_4096 on
# have five far tiles or more, take the far history from a sum of
# exponentials (soe_blocks); see the module docstring for why not fewer.
_SOE_M = 4 * _COLS + _ROWS


def l1_weight_block(
    p: float, mesh: GradedMesh, start: int, stop: int, lo: int = 0, hi: int | None = None, out=None
) -> np.ndarray:
    """Numerators of exponent p for rows m = start+1..stop, columns k = lo+1..hi.

    block[m-start-1, k-lo-1] = (t_m - t_{k-1})^p - (t_m - t_k)^p for
    k = lo+1..hi (hi defaults to stop), exactly 0 for k > m.  Over
    Gamma(1+p) it is the integral of beta_p(t_m - s) on cell k; for p = 1-a
    and over tau_k Gamma(2-a) it is the L1 weight a^{(m)}_{m-k}.  ``out``
    is an optional flat scratch array of at least 2 (stop - start) (hi -
    lo + 1) doubles; the block is then a view into it, valid until the
    next call that uses it.
    """
    hi = stop if hi is None else hi
    n = (stop - start) * (hi - lo + 1)
    out = np.empty(2 * n) if out is None else out
    x = out[:n].reshape(stop - start, -1)  # x[i, j] = t_m - t_{lo+j}, then its power
    np.subtract(mesh.nodes[start + 1 : stop + 1, None], mesh.nodes[lo : hi + 1], out=x)
    near = x[:, max(start - lo, 0) :]
    np.maximum(near, 0.0, out=near)  # t_m - t_k < 0 beyond the diagonal, and 0^p = 0
    x **= p
    # Neighbour differences along the flat powers are the row differences
    # in every column but the last, which is dropped.  They go to the
    # second half: an output overlapping its operands would be copied.
    np.subtract(out[: n - 1], out[1:n], out=out[n : 2 * n - 1])
    return out[n : 2 * n].reshape(x.shape)[:, :-1]


def cell_integral_blocks(p: float, mesh: GradedMesh, x: np.ndarray):
    """Per block of _ROWS rows m = start+1..stop, yield (start, stop, far, near).

    far[m-start-1] = sum_{k<=start} block[m, k] x[k-1] for the numerators
    of exponent p, summed a tile of _COLS columns at a time (zeros for the
    first block); near is the block of columns start+1..stop, a view into
    the scratch buffer valid until the next block.  x is read lazily, so a
    march may fill x[start:stop] before it asks for the next block.
    """
    buf = np.empty(2 * _ROWS * (_COLS + 1))
    for start in range(0, mesh.M, _ROWS):
        stop = min(start + _ROWS, mesh.M)
        far = np.zeros((stop - start,) + x.shape[1:])
        for lo in range(0, start, _COLS):
            hi = min(lo + _COLS, start)
            far += l1_weight_block(p, mesh, start, stop, lo, hi, buf) @ x[lo:hi]
        yield start, stop, far, l1_weight_block(p, mesh, start, stop, start, stop, buf)


def soe_kernel(a: float, delta: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s and positive weights w with sum_j w_j exp(-s_j t) = t^{-a} on [delta, T].

    t^{-a} is Gamma(a)^{-1} times the integral of s^{a-1} e^{-st} over s >
    0: 12-node Gauss-Jacobi with weight s^{a-1} on [0, 1/T], by
    Golub-Welsch, and 16-node Gauss-Legendre panels of width at most 2 in
    log s from 1/T up to e 37/delta, past which e^{-s t} < e^{-100}.  The
    relative error is below 2.5e-15 for a in [0.02, 0.98].
    """
    b, n = a - 1.0, np.arange(1.0, 12.0)
    c = 2.0 * np.arange(12.0) + b  # the Jacobi matrix of the weight (1 + y)^b on [-1, 1], y = 2 s T - 1
    off = n * (n + b) / c[1:] * np.sqrt(4.0 / (c[1:] ** 2 - 1.0))
    y, vec = np.linalg.eigh(np.diag(b * b / (c * (c + 2.0))) + np.diag(off, 1) + np.diag(off, -1))
    x, xw = _gauss_legendre(16)
    lo, hi = -math.log(T), math.log(37.0 / delta) + 1.0
    panels = math.ceil((hi - lo) / 2.0)
    h = (hi - lo) / panels
    u = (lo + h * (np.arange(panels)[:, None] + (x + 1.0) / 2.0)).ravel()
    s = np.concatenate([(1.0 + y) / (2.0 * T), np.exp(u)])
    # (1 + y)^b has mass 2^a / a on [-1, 1], and s^{a-1} ds = (2 T)^{-a} (1 + y)^b dy
    w = np.concatenate([vec[0] ** 2 / a * T**-a, np.tile(xw * h / 2.0, panels) * np.exp(a * u)])
    return s, w / math.gamma(a)


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], by Newton's method on P_n."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(5):  # the fourth step leaves x exact for n = 16, the fifth the weights
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


def soe_blocks(p: float, mesh: GradedMesh, x: np.ndarray):
    """cell_integral_blocks for 0 < p < 1 and x of shape (M, K), with each far
    sum from the exponentials of soe_kernel (see the module docstring)."""
    t, tau = mesh.nodes, mesh.steps
    s, w = soe_kernel(1.0 - p, tau[_ROWS::_ROWS].min(initial=mesh.T), mesh.T)
    H = np.zeros((len(s), x.shape[1]))  # H[j] = sum_{k<=start} x[k-1] int_{cell k} e^{-s_j (t_start - u)} du
    buf = np.empty(2 * _ROWS * (_ROWS + 1))
    for start in range(0, mesh.M, _ROWS):
        stop = min(start + _ROWS, mesh.M)
        ts = t[start + 1 : stop + 1]
        decay = np.exp(np.outer(t[start] - ts, s))  # e^{-s_j (t_m - t_start)}
        yield start, stop, (decay * (p * w)) @ H, l1_weight_block(p, mesh, start, stop, start, stop, buf)
        cells = np.exp(np.outer(ts - t[stop], s)) * -np.expm1(np.outer(-tau[start:stop], s)) / s
        H = decay[-1, :, None] * H + cells.T @ x[start:stop]


def l1_weight_row(alpha: float, mesh: GradedMesh, m: int) -> np.ndarray:
    """Row of L1 weights at node m: row[k-1] = a^{(m)}_{m-k}, k = 1..m.

    row[-1] is the diagonal weight tau_m^{-alpha}/Gamma(2-alpha).
    """
    return l1_weight_block(1.0 - alpha, mesh, m - 1, m)[0] / (mesh.steps[:m] * math.gamma(2.0 - alpha))


def march_l1(
    alpha: float, mesh: GradedMesh, lam: float | np.ndarray, rhs: np.ndarray, half_rhs=None
):
    """Solve D^a V^m + lam V^m = rhs^m for m = 1..M with V^0 = 0.

    ``lam`` is a scalar, or a vector of eigenvalues with one column of
    ``rhs`` per mode sharing each weight row.  ``rhs`` has one row per
    node; rhs[0] is ignored.  On a uniform mesh (``mesh.uniform``) the
    scheme is the lower-triangular Toeplitz system sum_{k<=m} c_{m-k} V^k
    + lam V^m = rhs^m, with c_0 = a_0 and c_g = a_g - a_{g-1} from the gap
    weights a_g for tau = T/M; it is solved by toeplitz.march.  Graded
    meshes are marched a block of weight rows at a time (see the module
    docstring).  Given ``half_rhs``, the rhs at the nodes t_0, t_2, ..., t_M
    of a graded mesh with even M, the half mesh is marched in the same
    pass, and the result is the pair (V on the half mesh, V).
    """
    check_alpha(alpha)
    M = mesh.M
    if half_rhs is not None and (mesh.uniform or M % 2):
        raise ValueError(f"only a graded mesh of even M has a half to march, got r = {mesh.r}, M = {M}")
    rhss = [np.asarray(b, dtype=float) for b in ([rhs] if half_rhs is None else [rhs, half_rhs])]
    for name, b, rows in zip(("rhs", "half_rhs"), rhss, (M + 1, M // 2 + 1)):
        if b.ndim == 0 or len(b) != rows or b.shape[1:] != rhss[0].shape[1:]:
            raise ValueError(f"{name} must have {rows} rows, one per node, got shape {b.shape}")
    try:
        lam = np.asarray(lam, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"lam must be a scalar or a vector of eigenvalues, got {lam!r}") from None
    if lam.ndim > 1 or (lam.ndim == 1 and lam.shape != rhss[0].shape[1:]):
        raise ValueError(
            f"lam must be a scalar or a vector with one entry per rhs column,"
            f" got shape {lam.shape} for rhs of shape {rhss[0].shape}"
        )
    # the half's cells are pairs of fine cells, so its largest step is the largest
    steps = [mesh.steps, np.diff(mesh.nodes[::2])][: len(rhss)]
    a0_min = steps[-1].max() ** (-alpha) / math.gamma(2.0 - alpha)
    if a0_min + np.min(lam, initial=np.inf) <= 0.0:
        raise ValueError(f"degenerate L1 step: diagonal weight + lam <= 0 for lam = {lam}")
    # one column per mode: a scalar lam is one mode, or one lam shared by every rhs column
    shapes, rhss = [b.shape for b in rhss], [b.reshape(len(b), -1) for b in rhss]
    lam = np.broadcast_to(lam, rhss[0].shape[1:])
    Vs = [np.zeros(b.shape) for b in rhss]

    if mesh.uniform:
        pw = np.arange(M + 1, dtype=float) ** (1.0 - alpha)
        a = (pw[1:] - pw[:-1]) * (mesh.T / M) ** (-alpha) / math.gamma(2.0 - alpha)
        c = np.concatenate([a[:1], np.diff(a)])
        Vs[0][1:] = march(c, rhss[0][1:].copy(), modal_inverse(c, lam))
        return Vs[0].reshape(shapes[0])

    K = len(lam)
    E = np.zeros((M, K * len(rhss)))  # E[k-1, :K] = (V^k - V^{k-1}) / scale[k-1]; E[k-1, K:] the half's
    scales = [h * math.gamma(2.0 - alpha) for h in steps]  # a^{(m)}_{m-k} = block[., k-1] / scale[k-1]
    tri = np.tri(_ROWS)
    blocks = soe_blocks if M > _SOE_M else cell_integral_blocks
    for start, stop, far, near in blocks(1.0 - alpha, mesh, E):
        for s, b, V, scale in zip((1, 2), rhss, Vs, scales):
            # level s: rows s j and cells of s fine cells; i < j <= i + n are this block's
            i, n, cols = start // s, (stop - start) // s, slice((s - 1) * K, s * K)
            A = near if s == 1 else near[1::2, ::2] + near[1::2, 1::2]
            # sum_{k<=j} A[j, k] E_k + lam (V^i + sum_{i<k<=j} scale_k E_k) = rhs^j per mode
            S = tri[:n, :n] * scale[i : i + n]
            rest = b[i + 1 : i + n + 1] - far[s - 1 :: s, cols] - lam * V[i]
            e = np.linalg.solve(A + lam[:, None, None] * S, rest.T[..., None])[..., 0].T
            E[start:stop, cols] = np.repeat(e, s, axis=0)
            V[i + 1 : i + n + 1] = V[i] + np.cumsum(e * scale[i : i + n, None], axis=0)
    Vs = [V.reshape(shape) for V, shape in zip(Vs, shapes)]
    return Vs[0] if half_rhs is None else (Vs[1], Vs[0])
