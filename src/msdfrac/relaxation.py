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
exponent r.  n = 0 is the plain L1 scheme.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fracint import (
    ForcingFunction,
    TimeProfile,
    as_forcing,
    frac_integrate,
    frac_integrate_numeric,
)
from .l1_scheme import march_l1
from .mesh import GradedMesh

__all__ = [
    "RelaxationProblem",
    "ScalarTrace",
    "full_order_depth",
    "msd_forcing",
    "msd_reconstruction",
    "solve_relaxation",
]


@dataclass(frozen=True, eq=False)
class RelaxationProblem:
    """d^a u + lam u = f on (0, T], u(0) = 0, decomposed to depth n."""

    alpha: float
    lam: float
    T: float
    f: ForcingFunction
    n: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"order must lie in (0, 1), got {self.alpha}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.n < 0:
            raise ValueError(f"decomposition depth must be >= 0, got {self.n}")
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


def _msd_terms(prob: RelaxationProblem, mesh: GradedMesh | None):
    """The iterates L^i f for i = 0..n, analytically when possible.

    Returns a list of TimeProfile, or of nodal value arrays when f is
    only available pointwise (that path carries the quadrature's own
    O(tau^2) error on top of the scheme's).
    """
    if prob.f.is_analytic:
        g = prob.f.profile
        out = [g]
        for _ in range(prob.n):
            g = (-prob.lam) * frac_integrate(g, prob.alpha)
            out.append(g)
        return out
    if mesh is None:
        raise ValueError("a mesh is required to decompose a pointwise forcing")
    if prob.n > 0:
        warnings.warn(
            "forcing is only available pointwise; decomposition terms are "
            "computed by nodal product quadrature and are approximate",
            stacklevel=3,
        )
    vals = np.asarray(prob.f.sample(mesh.nodes), dtype=float)
    out = [vals]
    for _ in range(prob.n):
        vals = -prob.lam * frac_integrate_numeric(vals, prob.alpha, mesh)
        out.append(vals)
    return out


def msd_forcing(prob: RelaxationProblem, mesh: GradedMesh | None = None):
    """Modified forcing L^n f driving the remainder equation."""
    return _msd_terms(prob, mesh)[-1]


def msd_reconstruction(prob: RelaxationProblem, mesh: GradedMesh | None = None):
    """The split-off part I^a sum_{i<n} L^i f added back to the remainder."""
    if prob.n == 0:
        return TimeProfile.zero()
    terms = _msd_terms(prob, mesh)[: prob.n]
    if isinstance(terms[0], TimeProfile):
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return frac_integrate(total, prob.alpha)
    return frac_integrate_numeric(sum(terms), prob.alpha, mesh)


def solve_relaxation(prob: RelaxationProblem, mesh: GradedMesh) -> ScalarTrace:
    """March the L1 scheme for the remainder and reconstruct the solution."""
    if abs(mesh.T - prob.T) > 1e-12 * prob.T:
        raise ValueError(f"mesh horizon {mesh.T} does not match problem horizon {prob.T}")
    if prob.lam < 0.0:
        warnings.warn("negative relaxation coefficient is outside the stability theory")

    nodes = mesh.nodes
    M = mesh.M
    forcing = msd_forcing(prob, mesh)
    if isinstance(forcing, TimeProfile):
        rhs = np.zeros(M + 1)
        rhs[1:] = forcing(nodes[1:])
    else:
        rhs = forcing

    V = march_l1(prob.alpha, mesh, prob.lam, rhs)

    recon = msd_reconstruction(prob, mesh)
    U = V.copy()
    if isinstance(recon, TimeProfile):
        if not recon.is_zero:
            # the reconstruction is a fractional integral, so it vanishes
            # at t = 0 whenever it is defined there
            U[1:] += recon(nodes[1:])
    else:
        U += recon
    return ScalarTrace(mesh=mesh, V=V, U=U)
