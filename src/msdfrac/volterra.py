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
which is in C^m once n(1-a) >= m.  Both come from fracint.msd_split:
L acts on profiles for a constant kernel and analytic f, else on
values at the collocation points by product integration.  The
collocation scheme is applied to v on a uniform mesh with q points
t_m + c_i tau per cell; the split-off sum is added back at the
collocation points.

The singular cell integrals reduce to moments of the Lagrange basis.
On the current cell they are exact Beta-function values.  For a history
cell at gap g >= 1 the moment int_0^1 (d-s)^{-a} s^k ds with d = c_i + g
is summed as d^{-a} sum_l (a)_l/l! d^{-l}/(k+l+1) from d = 3 on:
every term is positive and the ratio is at most 1/d, so the evaluation
is stable for arbitrarily large gaps (the direct binomial expansion
loses d^k worth of digits there).  Closer to 1 the exact antiderivative
is used; _moments evaluates both, vectorized over d.

With a constant kernel the history of cell m, sum_{e<m} psi[m-e] V[e],
is a lower-triangular block-Toeplitz convolution, and the march is
toeplitz.march: FFT far history, and one FFT product per block of
cells with the inverse of the block system.  A callable kernel
breaks the Toeplitz structure and keeps the direct per-step sum
(_history), which collocation_residual uses as the reference for both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fracint import TimeProfile, as_forcing, frac_integrate, msd_split, sample
from .mesh import GradedMesh, build_mesh, check_count
from .toeplitz import block_inverse, march

__all__ = [
    "VolterraProblem",
    "CollocationTrace",
    "collocation_depth",
    "msd_volterra_forcing",
    "solve_volterra",
    "collocation_residual",
    "singular_moment",
]


@dataclass(frozen=True, eq=False)
class VolterraProblem:
    """u = f + integral of (t-s)^{-a} K(s,t) u(s), decomposed to depth n.

    ``kernel`` is either a real number (constant K, the analytic path)
    or a callable K(s, t).
    """

    alpha: float
    T: float
    kernel: object
    f: object  # TimeProfile, number or callable of t (see as_forcing)
    n: int = 0
    q: int = 2
    c: tuple = (2.0 / 3.0, 1.0)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"exponent must lie in (0, 1), got {self.alpha}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"horizon must be positive, got {self.T}")
        object.__setattr__(self, "n", check_count(self.n, "n", 0))
        if not callable(self.kernel) and not math.isfinite(self.kernel):
            raise ValueError(f"kernel must be a finite number or a callable, got {self.kernel}")
        c = tuple(float(x) for x in self.c)
        if len(c) != self.q or self.q < 1:
            raise ValueError(f"need q = {self.q} collocation parameters, got {c}")
        if not all(0.0 < x <= 1.0 for x in c) or len(set(c)) != len(c) or list(c) != sorted(c):
            raise ValueError(f"collocation parameters must be distinct, increasing, in (0, 1]: {c}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "f", as_forcing(self.f))

    @property
    def constant_kernel(self) -> bool:
        return not callable(self.kernel)


@dataclass(frozen=True, eq=False)
class CollocationTrace:
    """Remainder and reconstructed values at the collocation points.

    V and U have shape (M, q); row m holds the values at t_m + c_i tau.
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
    # positive-term series: d^{-a} sum_l (a)_l/l! d^{-l} / (k+l+1); the
    # ratio is 1/d <= 1/3 from d = 3 on, so 40 terms reach full precision
    dinv = 1.0 / d
    acc = np.zeros((q,) + d.shape)
    poch = 1.0
    p = np.ones_like(d)
    for l in range(40):
        w = poch * p
        for k in range(q):
            acc[k] += w / (k + l + 1.0)
        poch *= (alpha + l) / (l + 1.0)
        p *= dinv
    mom = np.moveaxis(acc * d ** (-alpha), 0, -1)
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


def singular_moment(alpha: float, d: float, k: int) -> float:
    """int_0^1 (d - s)^{-alpha} s^k ds for d >= 1 (history cells)."""
    if d < 1.0:
        raise ValueError("history moment needs d >= 1")
    return float(_moments(alpha, d, k + 1)[k])


def _history_blocks(alpha: float, c: tuple, A: np.ndarray, M: int) -> np.ndarray:
    """psi[g, i, j] = int_0^1 (c_i + g - s)^{-a} L_j(s) ds for g = 1..M.

    psi[0] is unused (zero).
    """
    psi = np.zeros((M + 1, len(c), len(c)))
    psi[1:] = _moments(alpha, np.arange(1.0, M + 1.0)[:, None] + np.asarray(c), len(c)) @ A
    return psi


def _current_block(alpha: float, c: tuple, A: np.ndarray) -> np.ndarray:
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
    return mom @ A


def msd_volterra_forcing(prob: VolterraProblem, M: int | None = None):
    """The pair (L^n f~, sum_{i<n} L^i f~) from msd_split, profiles or
    (M, q) point arrays."""
    alpha = prob.alpha
    f = prob.f
    if prob.constant_kernel and isinstance(f, TimeProfile):
        kappa = float(prob.kernel)
        f0 = f(0.0)
        ft = _apply_L_profile(TimeProfile.constant(f0), kappa, alpha) + f - TimeProfile.constant(f0)
        forcing, head = msd_split(ft, lambda g: _apply_L_profile(g, kappa, alpha), prob.n)
        return forcing, sum(head, TimeProfile.zero())

    if M is None:
        raise ValueError("the general-kernel path needs the mesh size M")
    warnings.warn(
        "non-constant kernel or pointwise forcing: decomposition terms are "
        "computed by product integration at the collocation points",
        stacklevel=2,
    )
    pts = _collocation_points(prob.T, M, prob.c)
    fv = sample(f, pts)
    f0 = float(sample(f, 0.0))
    ft = f0 * _apply_L_points(np.ones_like(fv), prob, pts) + fv - f0
    forcing, head = msd_split(ft, lambda g: _apply_L_points(g, prob, pts), prob.n)
    return forcing, sum(head, np.zeros_like(ft))


def _collocation_points(T: float, M: int, c: tuple) -> np.ndarray:
    tau = T / M
    return tau * (np.arange(M)[:, None] + np.asarray(c)[None, :])


def _apply_L_profile(g: TimeProfile, kappa: float, alpha: float) -> TimeProfile:
    # int_0^t (t-s)^{-a} g ds = Gamma(1-a) I^{1-a} g
    return (kappa * math.gamma(1.0 - alpha)) * frac_integrate(g, 1.0 - alpha)


def _kernel_samples(prob: VolterraProblem, pts: np.ndarray, m: int):
    """K(t_{e,j}, t_{m,i}) for the history cells e = 0..m-1 plus the current one."""
    if prob.constant_kernel:
        return None, None
    ti = pts[m]  # (q,)
    hist = prob.kernel(pts[:m][None, :, :], ti[:, None, None]) if m else None
    cur = prob.kernel(pts[m][None, :], ti[:, None])
    return hist, cur


def _history(psi: np.ndarray, vals: np.ndarray, m: int, hist_k) -> np.ndarray:
    """Memory of cell m: sum_{e<m} psi[m-e] vals[e], weighted by the kernel
    samples ``hist_k[i, e, j]`` when K is not constant.

    The constant kernel's factor stays outside the sum (the caller scales
    the result once), which keeps each call to one contraction.
    """
    if hist_k is None:
        return np.einsum("gij,gj->i", psi[m:0:-1], vals[:m])
    return np.einsum("igj,gj->i", psi[m:0:-1].transpose(1, 0, 2) * hist_k, vals[:m])


def _weights(prob: VolterraProblem, M: int):
    """(psi, phi, scale) on M cells: the history and current-cell blocks,
    and the factor tau^{1-a} (times K when K is constant) of every cell
    integral."""
    A = _lagrange_coeffs(prob.c)
    s = (prob.T / M) ** (1.0 - prob.alpha)
    scale = s * float(prob.kernel) if prob.constant_kernel else s
    return _history_blocks(prob.alpha, prob.c, A, M), _current_block(prob.alpha, prob.c, A), scale


def _local_matrix(phi: np.ndarray, scale: float, cur_k=1.0) -> np.ndarray:
    mat = np.eye(len(phi)) - scale * (phi * cur_k)
    if abs(np.linalg.det(mat)) < 1e-14:
        raise ValueError("singular local collocation system; check the c_i")
    return mat


def _apply_L_points(vals: np.ndarray, prob: VolterraProblem, pts: np.ndarray) -> np.ndarray:
    """(L g) at all collocation points from g's collocation values."""
    psi, phi, scale = _weights(prob, len(vals))
    out = np.empty_like(vals)
    for m in range(len(vals)):
        hist_k, cur_k = _kernel_samples(prob, pts, m)
        cur = phi if cur_k is None else phi * cur_k
        out[m] = scale * (_history(psi, vals, m, hist_k) + cur @ vals[m])
    return out


def _forcing_at(prob: VolterraProblem, pts: np.ndarray):
    """msd_volterra_forcing's pair as values at the (M, q) collocation points."""
    pair = msd_volterra_forcing(prob, len(pts))
    return tuple(x(pts) if isinstance(x, TimeProfile) else x for x in pair)


def solve_volterra(prob: VolterraProblem, M: int) -> CollocationTrace:
    """March the collocation scheme for the remainder and reconstruct u."""
    M = check_count(M, "M", 1)
    psi, phi, scale = _weights(prob, M)
    pts = _collocation_points(prob.T, M, prob.c)
    rhs, recon = _forcing_at(prob, pts)

    if prob.constant_kernel:
        # times inv, the scheme has identity diagonal blocks and kern[g] = -scale inv psi[g]
        inv = np.linalg.inv(_local_matrix(phi, scale))
        kern = -(scale * inv) @ psi[:M]
        kern[0] = np.eye(prob.q)
        V = march(kern, rhs @ inv.T, block_inverse(kern))
    else:
        V = np.zeros((M, prob.q))
        for m in range(M):
            hist_k, cur_k = _kernel_samples(prob, pts, m)
            mat = _local_matrix(phi, scale, cur_k)
            V[m] = np.linalg.solve(mat, rhs[m] + scale * _history(psi, V, m, hist_k))

    U = V + float(sample(prob.f, 0.0)) + recon
    mesh = build_mesh(prob.T, M, 1.0)
    return CollocationTrace(mesh=mesh, c=prob.c, V=V, U=U)


def collocation_residual(prob: VolterraProblem, trace: CollocationTrace) -> float:
    """Max residual of the discrete equations over all collocation points."""
    pts = _collocation_points(prob.T, len(trace.V), prob.c)
    forcing, _ = _forcing_at(prob, pts)
    return float(np.max(np.abs(trace.V - _apply_L_points(trace.V, prob, pts) - forcing)))
