"""Power-function time profiles and Riemann-Liouville integration.

A TimeProfile is a finite sum  sum_i c_i t^{p_i}  with exponents
p_i > -1.  The class is closed under the fractional integral

    (I^nu f)(t) = integral_0^t beta_nu(t - s) f(s) ds,
    beta_nu(t) = t^{nu - 1} / Gamma(nu),

which acts termwise as I^nu t^p = Gamma(p+1)/Gamma(p+1+nu) t^{p+nu}.
This exact closure is what lets the modified forcings and the singular
reconstruction terms of the solution decomposition be carried through
the solvers without quadrature error.

beta_profile(nu) builds the kernel itself.  For nu < 1 its exponent is
negative, so such a profile cannot be evaluated at t = 0.

Forcing data is either a TimeProfile, which the splitting treats
exactly, or a plain callable of t, sampled at mesh points (sample).
frac_integrate_numeric provides the fallback for the callable: the
integrand is replaced by its piecewise-linear interpolant on the mesh
and the kernel moments are integrated exactly (product integration,
second order for smooth data).

msd_split is the multiscale splitting itself, and the one place any
model applies its splitting operator repeatedly: given data g and an
operator L it returns the remainder forcing L^n g and the split-off
terms L^i g, i < n.  Each model supplies its own L (profile algebra,
product integration or a map over sine modes) and maps the summed
terms through its own outer operator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .mesh import GradedMesh

__all__ = [
    "TimeProfile",
    "beta_profile",
    "frac_integrate",
    "frac_integrate_numeric",
    "as_forcing",
]


def _normalize(terms: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    by_exp: dict[float, float] = {}
    for c, p in terms:
        c = float(c)
        p = float(p)
        if c == 0.0:
            continue
        by_exp[p] = by_exp.get(p, 0.0) + c
    return tuple((c, p) for p, c in sorted(by_exp.items()) if c != 0.0)


@dataclass(frozen=True)
class TimeProfile:
    """Finite linear combination of power functions c * t^p.

    terms is a normalized tuple of (coefficient, exponent) pairs:
    sorted by exponent, equal exponents merged, zero coefficients
    dropped.  Use TimeProfile.of(...) or the module constructors.
    """

    terms: tuple[tuple[float, float], ...]

    @staticmethod
    def of(*terms: tuple[float, float]) -> "TimeProfile":
        out = _normalize(terms)
        for _, p in out:
            if p <= -1.0:
                raise ValueError(f"exponent {p} <= -1 is not integrable")
        return TimeProfile(out)

    @staticmethod
    def constant(c: float) -> "TimeProfile":
        return TimeProfile.of((float(c), 0.0))

    @staticmethod
    def zero() -> "TimeProfile":
        return TimeProfile(())

    @property
    def min_exponent(self) -> float:
        return min((p for _, p in self.terms), default=0.0)

    def __call__(self, t):
        scalar = np.isscalar(t)
        tv = np.asarray(t, dtype=float)
        if self.min_exponent < 0.0 and np.any(tv == 0.0):
            raise ValueError("profile with a negative exponent cannot be evaluated at t = 0")
        acc = np.zeros_like(tv)
        for c, p in self.terms:
            if p == 0.0:
                acc += c
            else:
                acc += c * tv**p
        return float(acc) if scalar else acc

    def __add__(self, other: "TimeProfile") -> "TimeProfile":
        return TimeProfile(_normalize(self.terms + other.terms))

    def __sub__(self, other: "TimeProfile") -> "TimeProfile":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "TimeProfile":
        return TimeProfile(_normalize((c * scalar, p) for c, p in self.terms))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not self.terms


def beta_profile(nu: float) -> TimeProfile:
    """The kernel beta_nu(t) = t^{nu-1}/Gamma(nu) as a TimeProfile."""
    if not (math.isfinite(nu) and nu > 0.0):
        raise ValueError(f"kernel order must be positive, got {nu}")
    return TimeProfile.of((1.0 / math.gamma(nu), nu - 1.0))


def frac_integrate(p: TimeProfile, nu: float) -> TimeProfile:
    """Exact fractional integral I^nu of a profile, termwise.

    I^nu t^q = Gamma(q+1)/Gamma(q+1+nu) t^{q+nu}; the semigroup law
    I^a I^b = I^{a+b} holds exactly on this representation.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise ValueError(f"integration order must be positive, got {nu}")
    terms = []
    for c, q in p.terms:
        factor = math.gamma(q + 1.0) / math.gamma(q + 1.0 + nu)
        terms.append((c * factor, q + nu))
    return TimeProfile.of(*terms)


def as_forcing(f):
    """Forcing data as a TimeProfile (a real number becomes a constant) or a callable."""
    if isinstance(f, TimeProfile) or callable(f):
        return f
    if isinstance(f, numbers.Real) and not isinstance(f, bool):
        return TimeProfile.constant(float(f))
    raise TypeError(
        f"forcing f must be a TimeProfile, a real number or a callable of t, got {type(f).__name__}"
    )


def sample(f, t) -> np.ndarray:
    """Values of the forcing f at the points t, broadcast to the shape of t."""
    tv = np.asarray(t, dtype=float)
    return np.broadcast_to(np.asarray(f(tv), dtype=float), tv.shape).copy()


def frac_integrate_numeric(f, nu: float, mesh: GradedMesh) -> np.ndarray:
    """(I^nu f)(t_m) at every mesh node by product integration.

    f may be forcing data (see as_forcing) or an array of nodal values.
    The piecewise-linear interpolant of f is integrated against the
    kernel exactly, cell by cell:

        int_{t_{k-1}}^{t_k} (t_m - s)^{nu-1} (linear in s) ds

    reduces to the two power moments of (t_m - s) on the cell.
    """
    if not (0.0 < nu <= 2.0):
        raise ValueError(f"integration order must lie in (0, 2], got {nu}")
    t = mesh.nodes
    if isinstance(f, np.ndarray):
        fv = np.asarray(f, dtype=float)
        if fv.shape != t.shape:
            raise ValueError(f"nodal values have shape {fv.shape}, expected {t.shape}")
    else:
        fv = sample(as_forcing(f), t)

    tau = mesh.steps
    g = 1.0 / math.gamma(nu)
    out = np.zeros_like(t)
    for m in range(1, mesh.M + 1):
        # On cell k the kernel argument u = t_m - s runs over [A_k, B_k].
        B = t[m] - t[:m]
        A = t[m] - t[1 : m + 1]
        i0 = (B**nu - A**nu) / nu
        i1 = (B ** (nu + 1.0) - A ** (nu + 1.0)) / (nu + 1.0)
        w_right = (B * i0 - i1) / tau[:m]
        w_left = (i1 - A * i0) / tau[:m]
        out[m] = g * (np.dot(w_left, fv[:m]) + np.dot(w_right, fv[1 : m + 1]))
    return out


def msd_split(g, L: Callable, n: int):
    """The depth-n splitting of g by L: (L^n g, [L^i g for i < n])."""
    head = []
    for _ in range(n):
        head.append(g)
        g = L(g)
    return g, head
