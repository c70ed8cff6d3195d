"""Piecewise-linear FEM on an interval with three nonlocal time steppers.

Spatial side: continuous piecewise-linear elements on a uniform grid
with homogeneous Dirichlet conditions, assembled as tridiagonal mass
and stiffness matrices.  The discrete sine vectors s_k, k = 1..J-1,
diagonalize both matrices at once (M s_k = mu_k s_k, K s_k = lam_k mu_k
s_k) and are orthogonal with |s_k|^2 = J/2, so in the sine basis the
Galerkin system is J - 1 scalar recursions on the discrete eigenvalues
lam_k, marched all at once ("modal").  Separable data (finite sums of
sine modes with time-dependent amplitudes) enters that basis in closed
form: the per-mode Gauss load vectors are exact multiples of the sine
vectors, and a mode whose index is a multiple of J vanishes at every
node and is dropped.  Callable data f(x, t), which subdiffusion and
the integrodifferential model take at depth 0, is sampled on the whole
grid in one call, a row of nodes x against a column of times t; it
must return an array that broadcasts to their common shape (a scalar
is spread over the grid).  Its nodal loads are transformed to the sine
basis.  ``method="full"`` is the same time scheme written out
step by step on the nodal unknowns, with a dense solve of the (J-1) x
(J-1) system cm M + ck K per step (``IntervalFem.matrix``): an O(M^2)
reference that shares no marcher with the modal path.

Time side, acting on the zero-at-origin remainder v of the multiscale
splitting:

* subdiffusion d^a u - Lap u = f: the L1 convolution weights on a
  possibly graded mesh, marched by march_l1 for all modes at once, and
  by solve_subdiffusion_pair together with the half of a graded mesh;
* integrodifferential u' - I^a Lap u = f: trapezoidal convolution
  quadrature for the memory term on half-step averages combined with
  Crank-Nicolson, written on the increments V^m - V^{m-1} as a
  lower-triangular Toeplitz system in time with one shared kernel and
  1/tau on the diagonal only, solved a block of steps at a time by
  toeplitz.march;
* diffusion-wave d^g u - Lap u = f for g in (1, 2): reduced to the
  integrodifferential form with a = g - 1 and a two-term splitting.

One routine builds the data of all three.  The substitution w = u - u0
moves the initial value into the forcing g = f + beta_kappa Lap u0
(kappa = 1 for subdiffusion, where beta_1 = 1, and 1 + a for the other
two); fracint.msd_split splits g by L = Lap I^nu, mode by mode (nu = a
for subdiffusion, 1 + a for the other two), and the split-off sum is
mapped through I^a or I^1 respectively.  Diffusion-wave data stays
separable: its forcing enters as I^{g-1} f, and both that integral and
the two-level split need closed-form time profiles.

A solve returns time coefficients times spatial rows: the remainder's
modal amplitudes against their sine vectors (nodal values against the
identity for "full"), then per mode of the split-off part and of u0 its
exact node samples against its sine vector; V and U are formed only
when read.  U is the element solution plus exact node samples of the
correction, not an element of the FEM space.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conv_quad import build_cq
from .fracint import TimeProfile, beta_profile, frac_integrate, msd_split, sample
from .l1_scheme import l1_weight_row, march_l1
from .mesh import GradedMesh, check_alpha, check_count, check_gamma, half_mesh
from .toeplitz import march

__all__ = [
    "IntervalFem",
    "SeparableField",
    "FieldTrace",
    "PdeData",
    "assemble_fem",
    "msd_subdiffusion_data",
    "solve_subdiffusion",
    "solve_subdiffusion_pair",
    "msd_integro_data",
    "integro_direct_data",
    "solve_integro",
    "solve_diffusion_wave",
]


# Two functions under perfbench's traced names until ROADMAP item 1; one under both would count twice.
def solveh_banded(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(A, b)


def cho_solve_banded(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(A, b)


@dataclass(frozen=True, eq=False)
class IntervalFem:
    """Linear elements on (a, b) with J cells and Dirichlet ends.  The mode
    functions take an int k or an integer array of them."""

    a: float
    b: float
    J: int
    h: float

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.J)

    @property
    def mass_diags(self) -> tuple[float, float]:
        """(diagonal, off-diagonal) of the tridiagonal mass matrix."""
        return 4.0 * self.h / 6.0, self.h / 6.0

    @property
    def stiff_diags(self) -> tuple[float, float]:
        return 2.0 / self.h, -1.0 / self.h

    def matrix(self, cm: float, ck: float) -> np.ndarray:
        """cm*mass + ck*stiffness as a dense (J-1) x (J-1) array."""
        (md, me), (kd, ke) = self.mass_diags, self.stiff_diags
        n, d, e = self.J - 1, cm * md + ck * kd, cm * me + ck * ke
        return d * np.eye(n) + e * (np.eye(n, k=1) + np.eye(n, k=-1))

    def mode_frequency(self, k):
        return k * math.pi / (self.b - self.a)

    def sine_vector(self, k) -> np.ndarray:
        """sin(k xi (x-a)) at the interior nodes, one row per k of an array."""
        return np.sin(np.multiply.outer(self.mode_frequency(k), self.interior_nodes - self.a))

    def discrete_eigenvalue(self, k):
        """Generalized eigenvalue of (stiffness, mass) on the sine vector."""
        th = self.mode_frequency(k) * self.h
        return (6.0 / self.h**2) * (1.0 - np.cos(th)) / (2.0 + np.cos(th))

    def mass_eigenvalue(self, k):
        th = self.mode_frequency(k) * self.h
        return self.h * (2.0 + np.cos(th)) / 3.0

    def mode_load_coeff(self, k):
        """The two-point Gauss load of sin(k xi (x-a)) is this multiple of
        the sine vector: h (g- cos(g+ th) + g+ cos(g- th)) with th = k xi h
        and g-/+ = 1/2 -/+ 1/(2 sqrt 3) the Gauss points of a cell."""
        th = self.mode_frequency(k) * self.h
        lo, hi = 0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)
        return self.h * (lo * np.cos(hi * th) + hi * np.cos(lo * th))

    def nodal_load(self, fvals: np.ndarray) -> np.ndarray:
        """Load of the nodal interpolant; the last axis of fvals has all
        J+1 node values."""
        d, e = self.mass_diags
        return d * fvals[..., 1:-1] + e * (fvals[..., :-2] + fvals[..., 2:])


def _check_domain(a, b) -> tuple[float, float]:
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError(f"domain (a, b) must be finite and nonempty, got ({a}, {b})")
    return float(a), float(b)


def assemble_fem(a: float, b: float, J: int) -> IntervalFem:
    J = check_count(J, "J", 2)
    return IntervalFem(*_check_domain(a, b), J=J, h=(b - a) / J)


def _as_profile(k: int, amp) -> TimeProfile:
    if isinstance(amp, TimeProfile):
        return amp
    if isinstance(amp, numbers.Real) and not isinstance(amp, bool):
        return TimeProfile.constant(float(amp))
    raise ValueError(f"amplitude of mode {k} must be a TimeProfile or a real number, got {amp!r}")


@dataclass(frozen=True, eq=False)
class SeparableField:
    """Finite sum of sine modes with time-profile amplitudes.

    modes goes in as (k, amplitude) pairs, the amplitude a TimeProfile or
    a number, and is stored as (k, lambda_k, profile) triples sorted by k,
    with lambda_k = (k pi/(b-a))^2 the mode's eigenvalue of -Lap.
    """

    domain: tuple
    modes: tuple

    def __post_init__(self):
        a, b = _check_domain(*self.domain)
        xi = math.pi / (b - a)
        norm = []
        for mode in self.modes:
            try:
                k, amp = mode
            except (TypeError, ValueError):
                raise ValueError(f"modes must be (k, amplitude) pairs, got {mode!r}") from None
            k = check_count(k, "mode index", 1)
            norm.append((k, (k * xi) ** 2, _as_profile(k, amp)))
        norm.sort(key=lambda m: m[0])
        if len({m[0] for m in norm}) != len(norm):
            raise ValueError("duplicate mode indices")
        object.__setattr__(self, "domain", (a, b))
        object.__setattr__(self, "modes", tuple(norm))

    @staticmethod
    def zero(domain) -> "SeparableField":
        return SeparableField(domain=domain, modes=())

    @property
    def is_zero(self) -> bool:
        return all(amp.is_zero for _, _, amp in self.modes)

    def __add__(self, other: "SeparableField") -> "SeparableField":
        if other == 0:
            return self
        if self.domain != other.domain:
            raise ValueError("cannot add fields on different domains")
        acc = {k: amp for k, _, amp in self.modes}
        for k, _, amp in other.modes:
            acc[k] = acc[k] + amp if k in acc else amp
        return SeparableField(self.domain, tuple((k, a) for k, a in acc.items() if not a.is_zero))

    __radd__ = __add__

    def laplacian(self) -> "SeparableField":
        return self.map_amplitudes(lambda lam, amp: amp * (-lam))

    def map_amplitudes(self, fn: Callable) -> "SeparableField":
        """New field with amplitude fn(lam, profile) per mode."""
        return SeparableField(self.domain, tuple((k, fn(lam, amp)) for k, lam, amp in self.modes))

    def evaluate(self, x, t):
        a, b = self.domain
        xi = math.pi / (b - a)
        x = np.asarray(x, dtype=float)
        return sum((np.asarray(amp(t)) * np.sin(k * xi * (x - a)) for k, _, amp in self.modes), 0.0)


@dataclass(frozen=True, eq=False)
class FieldTrace:
    """Time coefficients ``coef`` (M+1, K) times spatial rows ``rows`` (K, J-1),
    the first ``nv`` making up the remainder.  The nodal V (row 0 zero) and
    U are formed on each access and not kept."""

    mesh: GradedMesh
    fem: IntervalFem
    coef: np.ndarray
    rows: np.ndarray
    nv: int

    @property
    def V(self) -> np.ndarray:
        return self.coef[:, : self.nv] @ self.rows[: self.nv]

    @property
    def U(self) -> np.ndarray:
        return self.coef @ self.rows


@dataclass(frozen=True, eq=False)
class PdeData:
    """Forcing for the remainder equation plus what restores the solution."""

    forcing: object  # SeparableField, or callable f(x, t) for the nodal path
    reconstruction: SeparableField
    initial: SeparableField


def _fields(**fields) -> list:
    """The named arguments as SeparableFields on the domain of the first one
    that is a field; None becomes the zero field."""
    domain = next((f.domain for f in fields.values() if isinstance(f, SeparableField)), None)
    if domain is None:
        raise TypeError(f"{' or '.join(fields)} must be a SeparableField")
    for what, f in fields.items():
        if f is not None and not isinstance(f, SeparableField):
            raise TypeError(f"{what} must be a SeparableField")
        if f is not None and f.domain != domain:
            raise ValueError(f"{what} lives on {f.domain}, expected {domain}")
    return [SeparableField.zero(domain) if f is None else f for f in fields.values()]


def _pde_data(f, u0, n: int, nu: float, outer: float, kappa: float = 1.0) -> PdeData:
    """The data of all three models, split at depth n.

    The substitution w = u - u0 moves the initial value into the forcing
    g = f + beta_kappa Lap u0, where beta_1 = 1.  The split of g by
    L = Lap I^nu leaves the remainder forcing L^n g, and the solution is
    recovered as u = v + u0 + I^outer sum_{i<n} L^i g.  Both output
    fields carry exact per-mode profiles.  f may instead be a callable
    f(x, t) when n = 0: no closed-form splitting exists for such data.
    """
    n = check_count(n, "n", 0)
    if not callable(f):
        f, u0 = _fields(f=f, u0=u0)
    elif n > 0:
        raise ValueError("non-separable forcing is only supported at depth 0")
    else:
        (u0,) = _fields(u0=u0)
    beta = beta_profile(kappa)
    lap = u0.laplacian().map_amplitudes(lambda lam, amp: _profile_times(amp, beta, "u0"))
    g = (lambda x, t: sample(f, x, t) + lap.evaluate(x, t)) if callable(f) else f + lap
    forcing, head = msd_split(
        g, lambda h: h.map_amplitudes(lambda lam, amp: frac_integrate(amp, nu) * (-lam)), n
    )
    head = sum(head, SeparableField.zero(u0.domain))
    reconstruction = head.map_amplitudes(lambda lam, amp: frac_integrate(amp, outer))
    return PdeData(forcing=forcing, reconstruction=reconstruction, initial=u0)


def _profile_times(amp: TimeProfile, beta: TimeProfile, name: str) -> TimeProfile:
    """amp is constant for initial data such as ``name``; scale beta by that constant."""
    if amp.is_zero:
        return TimeProfile.zero()
    if len(amp.terms) == 1 and amp.terms[0][1] == 0.0:
        return beta * amp.terms[0][0]
    raise ValueError(f"{name} amplitudes must be constant in time")


def msd_subdiffusion_data(f, u0, n: int, alpha: float) -> PdeData:
    """Split the subdiffusion problem at depth n: g = f + Lap u0, split by
    L = Lap I^a, remainder forcing L^n g = (Lap)^n I^{na} g and
    reconstruction I^a sum_{i<n} L^i g.  f may be a callable f(x, t) at
    n = 0 (see the module docstring)."""
    check_alpha(alpha)
    return _pde_data(f, u0, n, alpha, alpha)


def _modal_data(forcing, fem: IntervalFem, times: np.ndarray):
    """(eigenvalues, amplitudes at ``times``, sine rows) of the forcing.

    Column j of the amplitudes is mode j's load in the sine basis over its
    mass eigenvalue; a modal trace maps to nodes as ``@ sines``.

    Callable forcing keeps all J - 1 modes: the nodal loads b at each time
    are b = (2/J) sum_k (s_k . b) s_k.  Separable forcing keeps its own
    modes, each a load coefficient times its profile.  Modes with k a
    multiple of J are left out: their Gauss load vanishes on every hat
    function, so their Galerkin solution is exactly 0, and their discrete
    eigenvalue is 0 when k is a multiple of 2J.
    """
    if not isinstance(forcing, SeparableField):
        ks = np.arange(1, fem.J)
        sines = fem.sine_vector(ks)
        amps = _load_rows(forcing, fem, times) @ sines.T * (2.0 / (fem.J * fem.mass_eigenvalue(ks)))
        return fem.discrete_eigenvalue(ks), amps, sines
    ks, amps = _mode_columns([mode for mode in forcing.modes if mode[0] % fem.J], times)
    amps *= fem.mode_load_coeff(ks) / fem.mass_eigenvalue(ks)
    return fem.discrete_eigenvalue(ks), amps, fem.sine_vector(ks)


def _mode_columns(modes, times: np.ndarray):
    """The indices k of (k, lambda_k, profile) triples, and their profiles at ``times`` as columns."""
    ks = np.array([k for k, _, _ in modes], dtype=int)
    prof = np.fromiter((amp(times) for _, _, amp in modes), np.dtype((float, len(times))), len(ks))
    return ks, prof.T


def _load_rows(forcing, fem: IntervalFem, times: np.ndarray) -> np.ndarray:
    """FEM loads at each time, (len(times), J-1): exact Gauss loads of the
    modes of separable forcing, else the load of the nodal interpolant of
    f, sampled on the whole grid by one call f(x[None, :], t[:, None])."""
    if not isinstance(forcing, SeparableField):
        xs = fem.a + fem.h * np.arange(fem.J + 1)
        return fem.nodal_load(sample(forcing, xs[None, :], times[:, None]))
    ks, profiles = _mode_columns(forcing.modes, times)
    return profiles @ (fem.mode_load_coeff(ks)[:, None] * fem.sine_vector(ks))


def _check_fem(data: PdeData, fem: IntervalFem) -> None:
    if (fem.a, fem.b) != data.initial.domain:
        raise ValueError(
            f"fem is assembled on ({fem.a}, {fem.b}), but the data live on {data.initial.domain}"
        )


def _check_method(method: str) -> None:
    if method not in ("modal", "full"):
        raise ValueError(f'method must be "modal" or "full", got {method!r}')


def _reconstruct(coef, rows, data: PdeData, mesh: GradedMesh, fem: IntervalFem) -> FieldTrace:
    """The remainder coef @ rows plus one column and sine row per mode of the
    reconstruction (its profile at t_1..t_M, 0 at t_0) and of the initial
    data (its constant amplitude)."""
    parts = [(k, np.append(0.0, amp(mesh.nodes[1:]))) for k, _, amp in data.reconstruction.modes]
    parts += [(k, np.full(mesh.M + 1, amp(0.0))) for k, _, amp in data.initial.modes]
    coef_all = np.column_stack([coef] + [col for _, col in parts])
    rows_all = np.vstack([rows, fem.sine_vector(np.array([k for k, _ in parts], dtype=int))])
    return FieldTrace(mesh, fem, coef_all, rows_all, nv=coef.shape[1])


def solve_subdiffusion(
    alpha: float,
    n: int,
    data: PdeData,
    mesh: GradedMesh,
    fem: IntervalFem,
    method: str = "modal",
) -> FieldTrace:
    """L1-in-time Galerkin marching for the subdiffusion remainder.

    Each step solves (a0 M + K) V^m = load(t_m) + M (a0 V^{m-1} - hist)
    with the diagonal L1 weight a0 of the current step.  In the sine
    basis the iteration decouples into scalar recursions on the discrete
    eigenvalues, and "modal" runs all modes in one batched ``march_l1``
    call, for separable and callable forcing alike (see ``_modal_data``).
    "full" is the scheme written out step by step on the nodal unknowns,
    with one dense solve of a0 M + K per step: an O(M^2) reference for checks
    that shares no marcher with "modal".  ``n`` is not read; ``data`` fixes it.
    """
    check_alpha(alpha)
    _check_method(method)
    _check_fem(data, fem)
    times = mesh.nodes[1:]  # rhs[0] is never read, and profiles may be singular at 0
    if method == "modal":
        lam, amps, rows = _modal_data(data.forcing, fem, times)
        V = march_l1(alpha, mesh, lam, np.vstack([np.zeros_like(lam), amps]))
    else:
        rows = np.eye(fem.J - 1)
        loads = _load_rows(data.forcing, fem, times)
        mass, stiff = fem.matrix(1.0, 0.0), fem.matrix(0.0, 1.0)
        V = np.zeros((mesh.M + 1, fem.J - 1))
        D = np.zeros((mesh.M, fem.J - 1))  # D[k-1] = V^k - V^{k-1}
        for m in range(1, mesh.M + 1):
            a = l1_weight_row(alpha, mesh, m)
            b = a[-1] * V[m - 1] - a[:-1] @ D[: m - 1]
            V[m] = solveh_banded(a[-1] * mass + stiff, loads[m - 1] + mass @ b)
            D[m - 1] = V[m] - V[m - 1]

    return _reconstruct(V, rows, data, mesh, fem)


def solve_subdiffusion_pair(alpha: float, data: PdeData, mesh: GradedMesh, fem: IntervalFem):
    """(trace on half_mesh(mesh), trace on mesh) from one march: the modal
    solve_subdiffusion on each, up to how the half's far history is summed."""
    _check_fem(data, fem)
    meshes = (half_mesh(mesh), mesh)
    (_, amps_h, _), (lam, amps, rows) = (_modal_data(data.forcing, fem, m.nodes[1:]) for m in meshes)
    Vs = march_l1(alpha, mesh, lam, *(np.vstack([np.zeros_like(lam), a]) for a in (amps, amps_h)))
    return tuple(_reconstruct(V, rows, data, m, fem) for V, m in zip(Vs, meshes))


def msd_integro_data(f, u0, alpha: float) -> PdeData:
    """One-level split of the integrodifferential problem: g = f + beta_{1+a}
    Lap u0, remainder forcing Lap I^{1+a} g and reconstruction I^1 g.  One
    level is enough for the scheme's full second order."""
    check_alpha(alpha)
    return _pde_data(f, u0, 1, 1.0 + alpha, 1.0, 1.0 + alpha)


def integro_direct_data(f, u0, alpha: float) -> PdeData:
    """Unsplit forcing for the same stepper: g = f + beta_{1+a} Lap u0.
    f may be a callable f(x, t) (see the module docstring)."""
    check_alpha(alpha)
    return _pde_data(f, u0, 0, 1.0 + alpha, 1.0, 1.0 + alpha)


def solve_integro(
    alpha: float,
    data: PdeData,
    mesh: GradedMesh,
    fem: IntervalFem,
    method: str = "modal",
) -> FieldTrace:
    """Convolution-quadrature Crank-Nicolson marching for u' = I^a Lap u + F.

    Memory term on half-step averages W^j = (V^j + V^{j-1})/2 with
    V^0 = V^{-1} = 0, forcing as the endpoint average fbar^m =
    (F^m + F^{m-1})/2, tau = T/M.  With F_g = tau^a (omega_g +
    omega_{g-1})/2, omega_{-1} = 0, the scheme reads
    M (V^m - V^{m-1})/tau + K sum_g F_g V^{m-g} = fbar^m (mass M,
    stiffness K).  It is marched on the increments D^m = V^m - V^{m-1}:
    with G = cumsum(F), sum_g F_g V^{m-g} = sum_g G_g D^{m-g}, so
    M D^m/tau + K sum_g G_g D^{m-g} = fbar^m is a lower-triangular
    Toeplitz system with 1/tau on its diagonal only, and V is the
    running sum of D.  "modal" divides mode k by its eigenvalue
    lam_k > 0, which leaves the shared kernel G with the diagonal shift
    1/(tau lam_k), and solves it by toeplitz.march.  "full" steps the
    nodal increments one at a time with dense solves of M/tau + G_0 K:
    an O(M^2) reference for checks that shares no marcher with "modal".
    Both take separable forcing and the callable f(x, t) that
    ``integro_direct_data`` passes through.
    """
    _check_method(method)
    _check_fem(data, fem)
    if not mesh.uniform:
        raise ValueError("convolution quadrature needs a uniform mesh")
    tau = mesh.T / mesh.M
    w = build_cq(alpha, mesh.M)[: mesh.M]
    G = np.cumsum(tau**alpha / 2.0 * np.concatenate([w[:1], w[1:] + w[:-1]]))

    if method == "modal":
        lam, amps, rows = _modal_data(data.forcing, fem, mesh.nodes)
        D = march(G, 0.5 * (amps[1:] + amps[:-1]) / lam, 1.0 / (tau * lam))
        V = np.cumsum(D, axis=0)
    else:
        rows = np.eye(fem.J - 1)
        loads = _load_rows(data.forcing, fem, mesh.nodes)
        fbar = 0.5 * (loads[1:] + loads[:-1])
        A, stiff = fem.matrix(1.0 / tau, G[0]), fem.matrix(0.0, 1.0)
        # one row of increments D^1..D^M per node: numpy sums a contiguous row
        # pairwise, which at M = 4096 keeps this within 1.5e-14 of max |V| of a
        # long-double solve, where a BLAS product's running sum was 4.3e-14 off
        D = np.zeros(fbar.T.shape)
        for m in range(mesh.M):
            hist = (D[:, :m] * G[m:0:-1]).sum(axis=1)
            D[:, m] = cho_solve_banded(A, fbar[m] - stiff @ hist)
        V = np.cumsum(D.T, axis=0)
    V = np.vstack([np.zeros(V.shape[1]), V])

    return _reconstruct(V, rows, data, mesh, fem)


def solve_diffusion_wave(
    gamma: float,
    f,
    u0,
    du0,
    mesh: GradedMesh,
    fem: IntervalFem,
    method: str = "modal",
) -> FieldTrace:
    """Wave-regime solver via reduction to the integrodifferential form.

    With a = g - 1 the first-order-in-time form reads
    w' = I^a Lap w + g0, g0 = I^{g-1} f + beta_g Lap u0 + du0, and two
    split levels by L = Lap I^{1+a} leave the remainder forcing L^2 g0
    with reconstruction I^1 (g0 + L g0).  Runs the same CQ/CN stepper as
    solve_integro, with the same ``method``.  f must be a SeparableField:
    I^{g-1} f and its two-level split need closed-form time profiles.
    The amplitudes of u0 and du0 must be constant in time.
    """
    check_gamma(gamma)
    alpha = gamma - 1.0
    f, u0, du0 = _fields(f=f, u0=u0, du0=du0)
    one = TimeProfile.constant(1.0)
    du0 = du0.map_amplitudes(lambda lam, amp: _profile_times(amp, one, "du0"))
    f = f.map_amplitudes(lambda lam, amp: frac_integrate(amp, alpha)) + du0
    return solve_integro(alpha, _pde_data(f, u0, 2, 1.0 + alpha, 1.0, gamma), mesh, fem, method=method)
