"""Nonuniform L1 discretization of the Caputo derivative of order in (0,1).

The scheme replaces the integrand's time derivative by difference
quotients on each cell, which turns the derivative at t_m into a
discrete convolution

    D^a v^m = sum_{k=1}^{m} a_{m-k}^{(m)} (v^k - v^{k-1}),

with positive weights that decrease away from the diagonal.

l1_weight_block builds the cell-integral numerators (t_m - t_{k-1})^p -
(t_m - t_k)^p of a block of rows and a range of columns, bit for bit as
a single row forms them: each cancelling difference is rounded as in a
row.  p = 1 - a gives the L1 weights; fracint.frac_integrate_numeric
sums the same family at p = 1 + nu, the product integration of its
forcing, in its own tile loop.

march_l1 marches a graded mesh _ROWS rows at a time on the scaled
increments E_k = (v^k - v^{k-1}) / (tau_k Gamma(2-a)); a scalar
relaxation coefficient is one mode.  A block's far history, the sum over
the columns k <= start of earlier blocks, is one exact tile of
numerators over the first _HEAD = 256 columns, its head, plus a sum of
exponentials over the columns past the head; its near block is solved
for all modes as one stack of lower-triangular systems in E.

A graded mesh and its half t_0, t_2, ..., t_M are marched in one pass:
a half cell is two fine cells, so the half's numerator (j, i) is the
fine row 2j summed over columns 2i - 1 and 2i, and no numerator of the
half is formed.  Sterbenz's lemma makes both fine differences exact
where the steps grow (r >= 1), so the sum is rounded once, to the half's
own numerator (at M = 2200: none differs for r = 7, 7/4, 5/3, 2; one by
1 ulp at r = 5/12).  The half's far history comes from the same far
sums, its increments repeated as extra columns of E, so only the order
of its far sums differs from a march of its own.

The sum of exponentials (SOE) costs O(M N K) for N exponentials and K
columns in place of the O(M^2 K) of exact far sums (Jiang, Zhang, Zhang
and Zhang, Commun. Comput. Phys. 21 (2017)).  soe_kernel writes t^{-a} =
Gamma(a)^{-1} int_0^inf s^{a-1} e^{-st} ds as sum_j w_j e^{-s_j t} on
[delta, T] by the trapezoid rule of step 1/4 in x for s = e^{x - e^{-x}}
/ T (W. McLean, Exponential sum approximations for t^{-beta},
Contemporary Computational Mathematics, Springer 2018).  Every weight is
positive, N = floor(4 (log(40 T/delta) - x_0)) + 2 for x_0 = floor(-4
log(40/a))/4: at T = 1, 111 at delta = 1e-8 and 277 at 1e-26 for alpha =
0.25, 106 and 272 for 0.75 and 121 and 287 for 0.02; and the relative
error of t^{-a} is below 2.5e-15 for alpha in [1e-4, 0.9999] and delta
down to 1e-300.  A march fits one kernel, on the smallest gap t_{start+1}
- t_start that any SOE term sees (blocks from start = head + _ROWS on),
and uses all of its terms in every block.  Row m's far sum past the head
is then p sum_j w_j e^{-s_j (t_m - t_start)} H_j, H_j the sum over the
columns head < k <= start of E_k int_{cell k} e^{-s_j (t_start - u)} du.
Before each block, H_j <- e^{-s_j (t_start - t_prev)} H_j + sum_k E_k
e^{-s_j (t_start - t_k)} (1 - e^{-s_j tau_k}) / s_j over the previous
block's cells past the head, so no term cancels.  A pair's half columns
of E ride in the head and in H unchanged, a half cell being two fine
cells; the near block keeps the exact numerators.

The head is there for seven cells of tables 2 and 5 (alpha 0.25, r 7, M
256 to 2048).  They are rounding noise of the cancelling numerators in
the first ~100 columns of their r = 7 meshes, and an SOE far history
from the first column on moves them by 19-90%.  With the head no cell
of tables 2 and 5 moves by more than 3.8e-8 relative from its value with
exact far sums (see _HEAD for narrower heads).  A march of at most _HEAD
+ _ROWS = 320 steps never reaches a column past the head: its far sums
are all exact and it fits no kernel.  A march of more than _SOE_M steps,
by the mesh's declared M, takes no head (see _SOE_M).  A pair march at M
= 16384 (table 5, alpha 0.75) agrees with exact far sums to 5.6e-16 of
max |V|.

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
from .toeplitz import finite, march

__all__ = ["l1_weight_row", "march_l1"]


# Steps per block of the graded march.  Tables 2 and 5 ran fastest with
# 64 of 32, 48, 64 and 128 rows: fewer rows add Python work per step,
# more lengthen the near-block solve.
_ROWS = 64
# Exact far-history columns, the head, of a graded march of at most
# _SOE_M steps (see the module docstring).  With 256 no cell of tables 2
# and 5 moves by more than 3.8e-8 relative from its value with exact far
# sums; with 128, 64 and 32 the largest moves are 1.1e-6, 1.2e-4 and
# 4.1e-4.
_HEAD = 256
# Graded marches of more steps than this take no head, whose M x _HEAD
# numerators would cost a scalar 16384-step pair march 30-60 ms.  The
# tables' meshes are powers of two, so any gate from 4096 to 8191 gives
# their marches up to 4096 steps a head and their larger ones none.
_SOE_M = 4160


def l1_weight_block(
    p: float, mesh: GradedMesh, start: int, stop: int, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Numerators of exponent p for rows m = start+1..stop, columns k = lo+1..hi.

    block[m-start-1, k-lo-1] = (t_m - t_{k-1})^p - (t_m - t_k)^p for
    k = lo+1..hi (hi defaults to stop), exactly 0 for k > m.  Over
    Gamma(1+p) it is the integral of beta_p(t_m - s) on cell k; for p = 1-a
    and over tau_k Gamma(2-a) it is the L1 weight a^{(m)}_{m-k}.
    """
    hi = stop if hi is None else hi
    x = mesh.nodes[start + 1 : stop + 1, None] - mesh.nodes[lo : hi + 1]  # x[i, j] = t_m - t_{lo+j}
    near = x[:, max(start - lo, 0) :]
    beyond = near < 0.0  # t_m - t_k < 0 for k > m, where the numerators are 0
    np.abs(near, out=near)  # np.power is some 2.5 times slower on zeros
    x **= p
    near[beyond] = 0.0
    return x[:, :-1] - x[:, 1:]


def soe_kernel(a: float, delta: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s and positive weights w with sum_j w_j exp(-s_j t) = t^{-a} on [delta, T].

    t^{-a} is Gamma(a)^{-1} times the integral of s^{a-1} e^{-st} over s >
    0, here in u = log(s T) = x - e^{-x} by the trapezoid rule at the
    exact points x_j = x_0 + j/4, j < N: s_j = e^{u_j}/T and w_j = e^{a
    u_j} (1 + e^{-x_j}) / (4 Gamma(a) T^a).  x_0 = floor(-4 log(40/a))/4
    leaves out an integral below e^{-40} / Gamma(1 + a) of t^{-a}, and N =
    floor(4 (log(40 T/delta) - x_0)) + 2 puts the last node past 39/delta,
    where e^{-s delta} < e^{-39}; so a kernel for a larger delta is a
    prefix of this one.  Where u >= 0, e^{a u} is (e^u)^a, the weight of
    the rounded node; exp(a u) was off by 2.3e-14 at delta = 1e-300.
    Nodes below 2^-500 / T (e^u underflows to 0 at a = 0.02) are raised
    to it: e^{-s t} is 1 either way, and s tau stays normal for
    tau > 1e-157 T.  The relative error is below 2.5e-15 for a in [1e-4,
    0.9999], T in [0.3, 100] and delta down to 1e-300.
    """
    x0 = math.floor(-4.0 * math.log(40.0 / a)) / 4.0
    x = x0 + np.arange(math.floor(4.0 * (math.log(40.0 * T / delta) - x0)) + 2) / 4.0
    u = x - np.exp(-x)
    eu = np.exp(u)
    w = np.where(u >= 0.0, eu**a, np.exp(a * u)) * (1.0 + np.exp(-x)) / (4.0 * math.gamma(a) * T**a)
    return np.maximum(eu, 2.0**-500) / T, w


def _decay(x: np.ndarray) -> np.ndarray:
    """e^x for the SOE exponents x <= 0, raised to -700 in place: numpy's exp
    is 10-140 times slower per element below -708 (numpy 2.4, AVX-512), where
    14% of those in tables 2 and 5 lie, and e^-700 is below every far sum's last bit."""
    return np.exp(np.maximum(x, -700.0, out=x))


def l1_weight_row(alpha: float, mesh: GradedMesh, m: int) -> np.ndarray:
    """Row of L1 weights at node m: row[k-1] = a^{(m)}_{m-k}, k = 1..m.

    row[-1] is the diagonal weight tau_m^{-alpha}/Gamma(2-alpha).
    """
    return l1_weight_block(1.0 - alpha, mesh, m - 1, m)[0] / (mesh.steps[:m] * math.gamma(2.0 - alpha))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported by finite
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
    if not np.isfinite(lam).all():
        raise ValueError(f"lam must be finite, got lam = {lam}")
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
        Vs[0][1:] = march(c, rhss[0][1:].copy(), lam)
        return Vs[0].reshape(shapes[0])

    K = len(lam)
    E = np.zeros((M, K * len(rhss)))  # E[k-1, :K] = (V^k - V^{k-1}) / scale[k-1]; E[k-1, K:] the half's
    scales = [h * math.gamma(2.0 - alpha) for h in steps]  # a^{(m)}_{m-k} = block[., k-1] / scale[k-1]
    tri = np.tri(_ROWS)
    p, t, tau = 1.0 - alpha, mesh.nodes, mesh.steps
    head = 0 if M > _SOE_M else _HEAD
    if M > head + _ROWS:  # a block past the head: one kernel on the smallest gap any far term sees
        s, w = soe_kernel(1.0 - p, tau[head + _ROWS :: _ROWS].min(), mesh.T)
        w *= p
        H = np.zeros((len(s), E.shape[1]))  # H[j] = sum_{head<k<=start} E[k-1] int_{cell k} e^{-s_j (t_start - u)} du
    for start in range(0, M, _ROWS):
        stop = min(start + _ROWS, M)
        # far[m-start-1] = sum_{k<=start} block[m, k] E[k-1]: past the head from the exponentials
        far = np.zeros((stop - start, E.shape[1]))
        if start > head:
            lo = max(start - _ROWS, head)  # the previous block's cells past the head
            # -e^{-s_j (t_start - t_k)} (1 - e^{-s_j tau_k}), each factor to full precision
            c = _decay(np.multiply.outer(s, t[lo + 1 : start + 1] - t[start]))
            c *= np.expm1(np.multiply.outer(s, -tau[lo:start]))
            H *= _decay((t[start - _ROWS] - t[start]) * s)[:, None]
            H -= (c @ E[lo:start]) / s[:, None]
            far += (_decay(np.multiply.outer(t[start] - t[start + 1 : stop + 1], s)) * w) @ H
        h = min(start, head)  # and over the head columns from exact numerators
        if h:
            far += l1_weight_block(p, mesh, start, stop, 0, h) @ E[:h]
        near = l1_weight_block(p, mesh, start, stop, start, stop)
        for d, b, V, scale in zip((1, 2), rhss, Vs, scales):
            # level d: rows d j and cells of d fine cells; i < j <= i + n are this block's
            i, n, cols = start // d, (stop - start) // d, slice((d - 1) * K, d * K)
            A = near if d == 1 else near[1::2, ::2] + near[1::2, 1::2]
            # sum_{k<=j} A[j, k] E_k + lam (V^i + sum_{i<k<=j} scale_k E_k) = rhs^j per mode
            S = tri[:n, :n] * scale[i : i + n]
            rest = b[i + 1 : i + n + 1] - far[d - 1 :: d, cols] - lam * V[i]
            e = np.linalg.solve(A + lam[:, None, None] * S, rest.T[..., None])[..., 0].T
            E[start:stop, cols] = np.repeat(e, d, axis=0)
            V[i + 1 : i + n + 1] = V[i] + np.cumsum(e * scale[i : i + n, None], axis=0)
    for V in Vs:
        finite(V[1:])  # V^0 = 0 is no step
    Vs = [V.reshape(shape) for V, shape in zip(Vs, shapes)]
    return Vs[0] if half_rhs is None else (Vs[1], Vs[0])
