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
frac_integrate_numeric provides the fallback for the samples: the
integrand is replaced by its piecewise-linear interpolant on the mesh
and integrated against the kernel exactly (product integration, second
order for smooth data).  Its cell integrals are the L1 weight family
with exponent 1 + nu in place of 1 - a, formed by
l1_scheme.l1_weight_block a block of rows at a time, against every
column up to the block's end, and summed in one product per block.

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

from .l1_scheme import _ROWS, l1_weight_block
from .mesh import GradedMesh, check_real

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
        if not (math.isfinite(c) and math.isfinite(p)):
            raise ValueError(f"TimeProfile terms must be finite, got ({c}, {p})")
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
            acc += c * tv**p  # t**0.0 is exactly 1.0
        return float(acc) if scalar else acc

    def __add__(self, other: "TimeProfile") -> "TimeProfile":
        if not isinstance(other, TimeProfile):
            return NotImplemented
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
    check_real(nu, "nu", lambda v: 0.0 < v < math.inf, "be a positive finite kernel order")
    return TimeProfile.of((1.0 / math.gamma(nu), nu - 1.0))


def frac_integrate(p: TimeProfile, nu: float) -> TimeProfile:
    """Exact fractional integral I^nu of a profile, termwise.

    I^nu t^q = Gamma(q+1)/Gamma(q+1+nu) t^{q+nu}; the semigroup law
    I^a I^b = I^{a+b} holds exactly on this representation.
    """
    check_real(nu, "nu", lambda v: 0.0 < v < math.inf, "be a positive finite integration order")
    terms = []
    for c, q in p.terms:
        try:
            factor = math.gamma(q + 1.0) / math.gamma(q + 1.0 + nu)
        except OverflowError:  # q + 1 + nu > 171.6, reached by deep splits
            factor = math.exp(math.lgamma(q + 1.0) - math.lgamma(q + 1.0 + nu))
        terms.append((c * factor, q + nu))
    return TimeProfile.of(*terms)


def as_forcing(f):
    """Forcing data as a TimeProfile (a real number becomes a constant) or a callable."""
    if isinstance(f, TimeProfile) or callable(f):
        return f
    if isinstance(f, numbers.Real) and not isinstance(f, bool):
        check_real(f, "forcing f", need="be finite")
        return TimeProfile.constant(float(f))
    raise TypeError(
        f"forcing f must be a TimeProfile, a real number or a callable of t, got {type(f).__name__}"
    )


def sample(f, *args, name: str | None = None) -> np.ndarray:
    """f(t) or f(x, t) at broadcastable points, as a read-only view of the
    common shape of the arguments: a scalar return is spread over it.  A
    wrong shape or a value that is not finite raises a ValueError calling f
    ``name`` (default "forcing f(t)" or "forcing f(x, t)")."""
    args = [np.asarray(a, dtype=float) for a in args]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    vals = np.asarray(f(*args), dtype=float)
    name = name or f"forcing f({', '.join('xt'[-len(args) :])})"
    if not np.isfinite(vals).all():
        raise ValueError(f"{name} must be finite, got {vals[~np.isfinite(vals)][0]}")
    try:
        return np.broadcast_to(vals, shape)
    except ValueError:
        raise ValueError(
            f"{name} returned shape {vals.shape}, which does not"
            f" broadcast to {shape}, the common shape of its arguments"
        ) from None


def frac_integrate_numeric(f: np.ndarray, nu: float, mesh: GradedMesh) -> np.ndarray:
    """(I^nu f_h)(t_m) at every node, f_h the piecewise-linear interpolant
    of the nodal values f, by product integration.

    I^nu f_h = f_0 t^nu / Gamma(1+nu) + I^{1+nu} f_h', and f_h' is the
    slope (f_k - f_{k-1}) / tau_k on cell k: the second term sums the
    slopes against the numerators of exponent p = 1 + nu over
    Gamma(2 + nu), the L1 weight family (p = 1 - a there), all exact:
    the kernel t^nu grows, so no sum of decaying exponentials stands in
    for the far columns.  O(M^2): 1.0-1.1 s at M = 16384 (r = 2, nu =
    0.5, one CPU), one product per block of rows with all its columns,
    whose _ROWS x M numerators peak at 4.1 MiB at M = 4096 and 16.3 MiB
    at 16384.  No study runs it above M of about 408.  These are the L1
    weights' cancelling numerators, so near the origin of a strongly
    graded mesh, where a step is many orders below t_m, they lose
    digits here as in the L1 march (ROADMAP item 2).
    """
    check_real(nu, "nu", lambda v: 0.0 < v <= 2.0, "lie in (0, 2] as an integration order")
    f = np.asarray(f, dtype=float)
    if f.shape != mesh.nodes.shape:
        raise ValueError(f"nodal values have shape {f.shape}, expected {mesh.nodes.shape}")
    slopes = np.diff(f) / mesh.steps
    out = f[0] / math.gamma(1.0 + nu) * mesh.nodes**nu
    p, M = 1.0 + nu, mesh.M
    for start in range(0, M, _ROWS):
        stop = min(start + _ROWS, M)
        out[start + 1 : stop + 1] += l1_weight_block(p, mesh, start, stop) @ slopes[:stop] / math.gamma(2.0 + nu)
    return out


def msd_split(g, L: Callable, n: int):
    """The depth-n splitting of g by L: (L^n g, [L^i g for i < n])."""
    head = []
    for _ in range(n):
        head.append(g)
        g = L(g)
    return g, head
