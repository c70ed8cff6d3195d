"""Piecewise-polynomial collocation for weakly singular Volterra equations.

The integral equation

    u(t) = f(t) + int_0^t (t-s)^{-a} K(s,t) u(s) ds

has a solution with a t^{1-a} singular layer at the origin, which limits
uniform-mesh collocation to order 2(1-a) regardless of the polynomial
degree.  Writing (Lg)(t) for the integral operator above, the
substitution u = w + f(0) gives an equation for w with a forcing
f~ = L f(0) + f - f(0) vanishing at zero, and the decomposition

    w = v + sum_{i=0}^{n-1} L^i f~

leaves a remainder v solving the same equation with forcing L^n f~,
which is in C^m once n(1-a) >= m.  Both come from fracint.msd_split,
with L acting exactly on profiles: a constant kernel and a TimeProfile
f.  The collocation scheme is applied to v on a uniform mesh with q
points t_m + c_i tau per cell; the split-off sum is added back at the
collocation points.  Pointwise data (a callable kernel or f) is solved
undecomposed, at n = 0: there L could only be the scheme's own
collocation operator L_h, and (I - L_h)(v + f(0) + sum_{i<n} L_h^i f~)
= f makes every depth the n = 0 solution, at n + 1 times the cost.

The singular cell integrals reduce to moments of the Lagrange basis.
On the current cell they are exact Beta-function values.  For a history
cell at gap g >= 1 the moment int_0^1 (d-s)^{-a} s^k ds with d = c_i + g
is summed as d^{-a} sum_l (a)_l/l! d^{-l}/(k+l+1) from d = 3 on:
every term is positive and the ratio is at most 1/d, so the evaluation
is stable for arbitrarily large gaps (the direct binomial expansion
loses d^k worth of digits there).  Closer to 1 the exact antiderivative
is used; _moments evaluates both, vectorized over d.  The moments do not
depend on M, and _history_blocks keeps those of the last (alpha, c) at
the largest M asked: a study solves its finest mesh first, and the
coarser meshes take read-only prefixes, bit for bit.

With a constant kernel the history of cell m, sum_{e<m} psi[m-e] V[e],
is a lower-triangular block-Toeplitz convolution, and the march is
toeplitz.march: FFT far history, and one FFT product per block of
cells with the inverse of the block system.  A callable kernel weights
psi[m-e] by K(t_{e,j}, t_{m,i}), which breaks that structure, and
_march_kernel solves _CELLS cells at a time: per tile of at most _TILE
far history cells, one kernel call, one product with a strided Toeplitz
view of psi and one contraction with V; then one solve of the near
cells' block-lower-triangular system.  Each sample is taken once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fracint import TimeProfile, as_forcing, frac_integrate, msd_split, sample
from .mesh import GradedMesh, build_mesh, check_alpha, check_count, check_horizon, check_real, check_reals
from .toeplitz import finite, march

__all__ = [
    "VolterraProblem",
    "CollocationTrace",
    "collocation_depth",
    "msd_volterra_forcing",
    "solve_volterra",
]

# Cells per block and history cells per far tile of the callable-kernel march, whose one
# scratch buffer holds _CELLS q^2 _TILE doubles.  A study over M = 100..1600 ran fastest
# with 32 of 16, 32 and 64 cells, and as fast with 256 as with 512 history cells.
_CELLS, _TILE = 32, 256
_GAPS = 2048  # gaps per chunk of the moments psi: O(_GAPS q^2) scratch at any M
# (alpha, c) -> psi at the largest M asked, for the last (alpha, c) only: (M + 1) q^2
# doubles, 0.5 MiB at M = 16384 and q = 2
_PSI: dict = {}


@dataclass(frozen=True, eq=False)
class VolterraProblem:
    """u = f + integral of (t-s)^{-a} K(s,t) u(s), decomposed to depth n.

    ``kernel`` is a real number (constant K) or a callable K(s, t) of
    broadcastable float arrays, whose finite result must broadcast to
    their common shape (a single number does); n > 0 needs the analytic
    path, a constant kernel and a TimeProfile f.
    """

    alpha: float
    T: float
    kernel: object
    f: object  # TimeProfile, number or callable of t (see as_forcing)
    n: int = 0
    q: int | None = None  # len(c) by default
    c: tuple = (2.0 / 3.0, 1.0)

    def __post_init__(self):
        check_alpha(self.alpha)
        check_horizon(self.T)
        object.__setattr__(self, "n", check_count(self.n, "n", 0))
        if not callable(self.kernel):
            check_real(self.kernel, "kernel", need="be a finite number or a callable")
        c = check_reals(self.c, "c")
        object.__setattr__(self, "q", len(c) if self.q is None else check_count(self.q, "q", 1))
        if len(c) != self.q:
            raise ValueError(f"need q = {self.q} collocation parameters, got {c}")
        if not all(0.0 < x <= 1.0 for x in c) or len(set(c)) != len(c) or list(c) != sorted(c):
            raise ValueError(f"collocation parameters must be distinct, increasing, in (0, 1]: {c}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "f", as_forcing(self.f))
        if self.analytic and self.f.min_exponent < 0.0:  # the split subtracts f(0)
            raise ValueError("forcing f is infinite at t = 0; a callable f is solved undecomposed at n = 0")
        if self.n and not self.analytic:
            raise ValueError(f"a callable kernel or f is solved at depth n = 0, got n={self.n}")

    @property
    def constant_kernel(self) -> bool:
        return not callable(self.kernel)

    @property
    def analytic(self) -> bool:
        """Constant kernel and TimeProfile f: the data msd_volterra_forcing splits."""
        return self.constant_kernel and isinstance(self.f, TimeProfile)


@dataclass(frozen=True, eq=False)
class CollocationTrace:
    """Remainder and reconstructed values at the collocation points.

    V and U have shape (M, q); row m holds the values at t_m + c_i tau.
    On pointwise data V is the solution itself, and U is V.
    nodal_values lists U at the mesh points t_1..t_M (requires c_q = 1).
    """

    mesh: GradedMesh
    c: tuple
    V: np.ndarray
    U: np.ndarray

    @property
    def nodal_values(self) -> np.ndarray:
        if self.c[-1] != 1.0:
            raise ValueError("mesh-point values need c_q = 1")
        return self.U[:, -1]


def collocation_depth(alpha: float, order: int = 1) -> int:
    """Smallest depth n with n(1-a) >= order, i.e. L^n f~ in C^order."""
    return math.ceil(order / (1.0 - alpha) - 1e-12) - 1


def _lagrange_coeffs(c: tuple) -> np.ndarray:
    """A[k, j]: monomial coefficients of the Lagrange basis L_j on [0, 1]."""
    q = len(c)
    V = np.vander(np.asarray(c), q, increasing=True)
    return np.linalg.inv(V)


def _moments(alpha: float, d: np.ndarray, q: int) -> np.ndarray:
    """mom[..., k] = int_0^1 (d - s)^{-alpha} s^k ds for k < q and d >= 1."""
    d = np.asarray(d, dtype=float)
    # positive-term series: d^{-a} sum_l (a)_l/l! d^{-l} / (k+l+1).  Each
    # partial sum is at least 1/(k+1), and term l is at most (a)_l/l! d^{-l}
    # / (k+1), which falls with l and d.  Once that bound is below 2^-54 at
    # the least d >= 3, every later term is below half an ulp of its
    # partial sum and adds nothing, so the sums from d = 3 on are those of
    # any longer series, bit for bit.  That takes at most 35 terms at d = 3
    # (the ratio is 1/d <= 1/3) and at most 5 from d = 2048 on.
    far = d[d >= 3.0]
    terms, bound = 0, 1.0
    while far.size and bound > 2.0**-54:
        bound *= (alpha + terms) / (terms + 1.0) / far.min()
        terms += 1
    dinv = 1.0 / d
    acc = np.zeros((q,) + d.shape)
    poch = 1.0
    p = np.ones_like(d)
    for l in range(terms):
        w = poch * p
        for k in range(q):
            acc[k] += w / (k + l + 1.0)
        poch *= (alpha + l) / (l + 1.0)
        p *= dinv
    acc *= d ** (-alpha)
    mom = np.moveaxis(acc, 0, -1)
    # below d = 3 the exact antiderivative after expanding s^k about d; the
    # alternating sum loses a factor d^k of precision, harmless this close to 1
    near = d < 3.0
    dn = d[near]
    for k in range(q):
        exact = np.zeros_like(dn)
        for j in range(k + 1):
            p = j + 1.0 - alpha
            exact += math.comb(k, j) * (-1.0) ** j * dn ** (k - j) * (dn**p - (dn - 1.0) ** p) / p
        mom[near, k] = exact
    return mom


def _history_blocks(alpha: float, c: tuple, M: int) -> np.ndarray:
    """psi[g, i, j] = int_0^1 (c_i + g - s)^{-a} L_j(s) ds for g = 1..M, read-only.

    psi[0] is unused (zero).  Formed _GAPS gaps at a time from gap 1,
    each entry as from all gaps at once: the chunk's least gap sets how
    many series terms _moments sums, and any further term is below half
    an ulp.  So the table of any M is a prefix of that of a larger M,
    bit for bit: a smaller M gets a slice of the table in _PSI its one
    lookup found (threads may share _PSI), a larger one forms it anew.
    """
    psi = _PSI.get((alpha, c), ())
    if len(psi) <= M:
        del psi  # with _PSI's entry, the old table goes before the new one is formed
        _PSI.clear()
        A = _lagrange_coeffs(c)
        psi = np.zeros((M + 1, len(c), len(c)))
        edges = [*range(1, M + 1, _GAPS), M + 1]
        for lo, hi in zip(edges, edges[1:]):
            g = np.arange(lo, hi, dtype=float)
            np.matmul(_moments(alpha, g[:, None] + np.asarray(c), len(c)), A, out=psi[lo:hi])
        psi.flags.writeable = False
        _PSI[alpha, c] = psi
    return psi[: M + 1]


def _current_block(alpha: float, c: tuple) -> np.ndarray:
    """Phi[i, j] = int_0^{c_i} (c_i - s)^{-a} L_j(s) ds, exact."""
    q = len(c)
    mom = np.empty((q, q))
    for i, ci in enumerate(c):
        for k in range(q):
            mom[i, k] = (
                ci ** (k + 1.0 - alpha)
                * math.gamma(k + 1.0)
                * math.gamma(1.0 - alpha)
                / math.gamma(k + 2.0 - alpha)
            )
    return mom @ _lagrange_coeffs(c)


def msd_volterra_forcing(prob: VolterraProblem):
    """The profile pair (L^n f~, sum_{i<n} L^i f~) from msd_split, for
    analytic data only: solve_volterra solves pointwise data undecomposed."""
    if not prob.analytic:
        raise ValueError("only a constant kernel and a TimeProfile f split")
    s = 1.0 - prob.alpha
    scale = float(prob.kernel) * math.gamma(s)

    def L(g):  # int_0^t (t-s)^{-a} g ds = Gamma(1-a) I^{1-a} g
        return scale * frac_integrate(g, s)

    f0 = prob.f(0.0)
    forcing, head = msd_split(L(TimeProfile.constant(f0)) + prob.f - TimeProfile.constant(f0), L, prob.n)
    return forcing, sum(head, TimeProfile.zero())


def _collocation_points(T: float, M: int, c: tuple) -> np.ndarray:
    tau = T / M
    return tau * (np.arange(M)[:, None] + np.asarray(c)[None, :])


def _weights(prob: VolterraProblem, M: int):
    """(psi, phi, scale) on M cells: the history and current-cell blocks,
    and the factor tau^{1-a} of every cell integral."""
    scale = (prob.T / M) ** (1.0 - prob.alpha)
    return _history_blocks(prob.alpha, prob.c, M), _current_block(prob.alpha, prob.c), scale


def _local_matrix(phi: np.ndarray, scale: float, cur_k=1.0) -> np.ndarray:
    mat = np.eye(len(phi)) - scale * (phi * cur_k)
    # singular when the least singular value is below 1e-14 of the largest: the condition
    # number does not overflow with a large K, as a determinant does
    if not (np.isfinite(mat).all() and np.all(np.linalg.cond(mat) < 1e14)):
        raise ValueError("singular local collocation system; check the c_i")
    return mat


def _forcing_at(prob: VolterraProblem, pts: np.ndarray):
    """(march forcing, split-off sum) at the (M, q) collocation points; the
    sum is None on pointwise data, whose forcing is f itself."""
    if not prob.analytic:
        return sample(prob.f, pts), None
    forcing, head = msd_volterra_forcing(prob)
    return forcing(pts), head(pts)


def _march_kernel(kernel, psi, phi, scale, pts, rhs) -> np.ndarray:
    """V[m] = rhs[m] + scale (sum_{e<m} (psi[m-e] * K_me) V[e] + (phi * K_mm) V[m]),
    K_me[i, j] = K(t_{e,j}, t_{m,i}), solved _CELLS cells at a time."""
    M, q = pts.shape
    V = np.zeros((M, q))
    g = np.arange(min(_CELLS, M))
    near_w = psi[(g[:, None] - g).clip(0)].transpose(0, 2, 1, 3)  # [m, i, e, j]; psi[0] = 0
    # wins[d, i, j, k] = psi[d + k], zero past gap M: each tile's window is a slice of it
    wins = sliding_window_view(np.concatenate([psi, np.zeros((_TILE,) + psi.shape[1:])]), _TILE, axis=0)
    buf = np.empty(_CELLS * q * q * _TILE)
    for start in range(0, M, _CELLS):
        stop = min(start + _CELLS, M)
        b, t = stop - start, pts[start:stop, :, None, None]
        hist = np.zeros(b * q)
        for lo in range(0, start, _TILE):
            hi = min(lo + _TILE, start)
            # win[m, i, j, k] = psi[m - e] for e = hi - 1 - k: the tile's cells run backwards
            win = wins[start - hi + 1 : stop - hi + 1, ..., : hi - lo]
            tile = buf[: win.size].reshape(win.shape)
            np.multiply(win, sample(kernel, pts[lo:hi][::-1].T, t, name="kernel K(s, t)"), out=tile)
            hist += tile.reshape(b * q, -1) @ V[lo:hi][::-1].T.ravel()
        k = sample(kernel, pts[start:stop], t, name="kernel K(s, t)")  # [m, i, e, j]
        mat = -scale * (near_w[:b, :, :b] * k)
        mat[g[:b], :, g[:b]] = _local_matrix(phi, scale, k[g[:b], :, g[:b]])  # diagonal blocks
        rhs_b = rhs[start:stop].ravel() + scale * hist
        V[start:stop] = np.linalg.solve(mat.reshape(b * q, -1), rhs_b).reshape(b, q)
    return finite(V)


def solve_volterra(prob: VolterraProblem, M: int) -> CollocationTrace:
    """March the collocation scheme for the remainder and reconstruct u."""
    M = check_count(M, "M", 1)
    psi, phi, scale = _weights(prob, M)
    pts = _collocation_points(prob.T, M, prob.c)
    rhs, recon = _forcing_at(prob, pts)

    if prob.constant_kernel:
        scale *= float(prob.kernel)
        # times inv, the scheme has identity diagonal blocks and kern[g] = -scale inv psi[g]
        inv = np.linalg.inv(_local_matrix(phi, scale))
        kern, x = -(scale * inv) @ psi[:M], rhs @ inv.T
        del pts, rhs  # the march reads neither: keep them out of its working set
        V = march(kern, x)
    else:
        V = _march_kernel(prob.kernel, psi, phi, scale, pts, rhs)

    U = V if recon is None else V + prob.f(0.0) + recon
    mesh = build_mesh(prob.T, M, 1.0)
    return CollocationTrace(mesh=mesh, c=prob.c, V=V, U=U)

