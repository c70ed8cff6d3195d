"""Decomposed solver for the scalar fractional relaxation equation.

The problem d^a u + lam u = f, u(0) = 0 has a solution whose derivative
blows up like t^{a-1} at the origin, which caps the L1 scheme at order
a on uniform meshes.  Splitting off the leading singular part cures
this: with (Lg)(t) = -lam (I^a g)(t), the remainder

    v = u - I^a sum_{i=0}^{n-1} L^i f

solves the same equation with forcing L^n f, and its derivative only
degenerates like t^{(n+1)a - 1}.  The solver marches the L1 scheme for
v and adds the split-off sum back in closed form, so the depth-n run
converges at order min{2 - a, r (n+1) a} on a mesh graded with
exponent r.  n = 0 is the plain L1 scheme.  The splitting itself is
fracint.msd_split with this L; solve_relaxation builds it once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fracint import (
    TimeProfile, as_forcing, frac_integrate, frac_integrate_numeric, msd_split, sample
)
from .l1_scheme import march_l1
from .mesh import GradedMesh, check_alpha, check_count, check_horizon, check_real, half_mesh

__all__ = [
    "RelaxationProblem",
    "ScalarTrace",
    "full_order_depth",
    "msd_forcing",
    "msd_reconstruction",
    "solve_relaxation",
    "solve_relaxation_pair",
]


@dataclass(frozen=True, eq=False)
class RelaxationProblem:
    """d^a u + lam u = f on (0, T], u(0) = 0, decomposed to depth n."""

    alpha: float
    lam: float
    T: float
    f: object  # TimeProfile, number or callable of t (see as_forcing)
    n: int = 0

    def __post_init__(self):
        check_alpha(self.alpha)
        check_horizon(self.T)
        check_real(self.lam, "lam")
        object.__setattr__(self, "n", check_count(self.n, "n", 0))
        object.__setattr__(self, "f", as_forcing(self.f))


@dataclass(frozen=True, eq=False)
class ScalarTrace:
    """Remainder values V^m and reconstructed solution U^m on the mesh."""

    mesh: GradedMesh
    V: np.ndarray
    U: np.ndarray


def full_order_depth(alpha: float) -> int:
    """Smallest depth giving the full order 2 - a on a suitably graded mesh."""
    return math.ceil((2.0 - alpha) / alpha - 1e-12) - 1


def _split(prob: RelaxationProblem, mesh: GradedMesh | None):
    """(L^n f, I^a sum_{i<n} L^i f) by msd_split with L = -lam I^a.

    Both are TimeProfiles when f is a TimeProfile, else nodal value arrays
    computed by product integration (that path carries the quadrature's
    own O(tau^2) error on top of the scheme's).  Its cell integrals are
    the L1 weights' numerators with exponent 1 + a, which
    fracint.frac_integrate_numeric sums over its own exact tiles.
    """
    a, lam = prob.alpha, prob.lam
    if isinstance(prob.f, TimeProfile):
        forcing, head = msd_split(prob.f, lambda g: -lam * frac_integrate(g, a), prob.n)
        return forcing, frac_integrate(sum(head, TimeProfile.zero()), a)
    if mesh is None:
        raise ValueError("a mesh is required to decompose a pointwise forcing")
    if prob.n > 0:
        warnings.warn(
            "forcing is only available pointwise; decomposition terms are "
            "computed by nodal product quadrature and are approximate",
            stacklevel=4,
        )
    # at n = 0 no product integration reads t_0, where f may be singular: 0 there, as in _nodal
    vals = sample(prob.f, mesh.nodes) if prob.n else np.append(0.0, sample(prob.f, mesh.nodes[1:]))
    forcing, head = msd_split(vals, lambda v: -lam * frac_integrate_numeric(v, a, mesh), prob.n)
    zero = np.zeros_like(vals)
    return forcing, frac_integrate_numeric(sum(head, zero), a, mesh) if head else zero


def _nodal(x, nodes: np.ndarray) -> np.ndarray:
    """Nodal values as they are, or a profile sampled at t_1..t_M with 0 at
    t_0: march_l1 never reads rhs[0], and a reconstruction is a fractional
    integral, so it vanishes there whenever it is defined there."""
    if not isinstance(x, TimeProfile):
        return x
    out = np.zeros(len(nodes))
    out[1:] = x(nodes[1:])
    return out


def msd_forcing(prob: RelaxationProblem, mesh: GradedMesh | None = None):
    """Modified forcing L^n f driving the remainder equation."""
    return _split(prob, mesh)[0]


def msd_reconstruction(prob: RelaxationProblem, mesh: GradedMesh | None = None):
    """The split-off part I^a sum_{i<n} L^i f added back to the remainder."""
    return _split(prob, mesh)[1]


def _nodal_split(prob: RelaxationProblem, mesh: GradedMesh):
    """(L^n f, I^a sum_{i<n} L^i f) at the nodes of a mesh for prob."""
    if abs(mesh.T - prob.T) > 1e-12 * prob.T:
        raise ValueError(f"mesh horizon {mesh.T} does not match problem horizon {prob.T}")
    if prob.lam < 0.0:
        warnings.warn("negative relaxation coefficient is outside the stability theory")
    return [_nodal(x, mesh.nodes) for x in _split(prob, mesh)]


def solve_relaxation(prob: RelaxationProblem, mesh: GradedMesh) -> ScalarTrace:
    """March the L1 scheme for the remainder and reconstruct the solution."""
    forcing, recon = _nodal_split(prob, mesh)
    V = march_l1(prob.alpha, mesh, prob.lam, forcing)
    return ScalarTrace(mesh=mesh, V=V, U=V + recon)


def solve_relaxation_pair(prob: RelaxationProblem, mesh: GradedMesh):
    """(trace on half_mesh(mesh), trace on mesh) from one march: solve_relaxation
    on each, up to how the half's far history is summed (see l1_scheme)."""
    half = half_mesh(mesh)
    (fh, rh), (f, r) = (_nodal_split(prob, m) for m in (half, mesh))
    Vh, V = march_l1(prob.alpha, mesh, prob.lam, f, fh)
    return ScalarTrace(mesh=half, V=Vh, U=Vh + rh), ScalarTrace(mesh=mesh, V=V, U=V + r)
