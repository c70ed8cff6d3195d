"""Two-parameter Mittag-Leffler function on the real axis.

E_{a,b}(x) = sum_{k>=0} x^k / Gamma(a k + b), for 0 < a <= 2 and
0 < b <= 3, is the inverse Laplace transform of F(s) = s^{a-b} / (s^a - x)
at t = 1.  Every closed-form reference solution in this package
(relaxation, Volterra, per-mode subdiffusion, integrodifferential,
diffusion-wave) is assembled from such values.

One algorithm serves every argument (Garrappa, "Numerical evaluation of
two and three parameter Mittag-Leffler functions", SIAM J. Numer. Anal.
53 (2015)): the Bromwich integral is moved onto the parabola
s(u) = mu (1 + iu)^2, which winds around the branch cut on the negative
axis, and summed by the trapezoidal rule in u.  The branch point s = 0
sits at u = i.  A pole s* of F in the principal sheet (x > 0, or x < 0
with a > 1) lies on the parabola of parameter phi = (|s*| + Re s*) / 2
and so at Im u = 1 - sqrt(phi / mu).  A pole left of the contour
(phi < mu) is part of the integral; one right of it adds its residue
e^{s*} s*^{1-b} / a.  Each argument gets the contour mu = 4^-k, the
largest that keeps its poles at least _GAP from the real u axis, so the
rule converges like exp(-2 pi _GAP / h) for every argument and the
arguments that share a k are evaluated as one array operation.  With no
pole in the principal sheet (x <= 0 and a <= 1) that is k = 0 for all.
The one special case is E_{1,1} = exp: its pole lies on the cut, inside
every parabola, where the rule's absolute error would swamp e^x.

Round-off grows like e^mu, so mu <= 1 keeps the absolute error near
1e-18.  The guarantee, for b in (0, 3]: 1e-10 relative on [-100, 5]
wherever |E| >= 1e-7, and about 1e-17 absolute below that.  Measured
against mpmath on 17 values of a in [0.1, 2], 6 of b in [0.5, 2.5] and
80 points in [-100, 5] (8,124 values), the worst errors are 1.3e-12
relative and 4e-18 absolute; 3,000 random (a, b, x) with b up to 3 give
at most 3e-13.  Below 1e-7 the error is absolute only: E_{1, 1+1e-7}(-100)
is about 1e-9, and there it is 3e-10 relative.  Beyond b = 3 the
singularity s^{a-b} at the branch point costs digits (2e-10 at b = 4),
so larger b is rejected.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import check_alpha, check_real

__all__ = ["ml_eval", "relaxation_exact"]

_L = 40.0  # discretization and truncation errors are about e^-_L
_GAP = 0.75  # least distance of a pole from the real u axis
_H = 2.0 * math.pi * _GAP / _L  # trapezoidal step in u
_CHUNK = 2**17  # arguments times contour nodes per array operation, which bounds the memory


def _poles(alpha: float, beta: float, x: np.ndarray):
    """phi of the principal poles (0 if none) and their residue sum, per argument."""
    phi = np.zeros_like(x)
    res = np.zeros_like(x)
    pos = x > 0.0
    log_s = np.log(x[pos]) / alpha  # the real pole s = x^(1/a)
    with np.errstate(over="ignore"):  # beyond the float64 range E is inf
        s = np.exp(log_s)
        phi[pos] = s
        res[pos] = np.exp(s + (1.0 - beta) * log_s) / alpha
    if alpha > 1.0:  # the conjugate pair s = |x|^(1/a) e^(+-i pi/a)
        neg = x < 0.0
        theta = math.pi / alpha  # cos(theta) = -sin(theta - pi/2), exactly 0 at a = 2
        s = (-x[neg]) ** (1.0 / alpha) * complex(-math.sin(theta - math.pi / 2), math.sin(theta))
        phi[neg] = (np.abs(s) + s.real) / 2.0
        res[neg] = 2.0 / alpha * (s ** (1.0 - beta) * np.exp(s)).real
    return phi, res


def _contour(alpha: float, beta: float, k: int):
    """s^a and weights of the trapezoidal rule on mu = 4^-k, for u >= 0."""
    mu = 4.0**-k
    # truncate where e^(mu (1 - u^2)) = e^-_L
    z = 1.0 + 1j * _H * np.arange(math.ceil(math.sqrt(1.0 + _L / mu) / _H) + 1)
    s = mu * z * z
    w = (_H * mu / math.pi) * z * np.exp(s) * s ** (alpha - beta)  # h s'(u) e^s s^(a-b) / (2 pi i)
    w[1:] *= 2.0  # u < 0 gives the complex conjugates
    return s**alpha, w


def ml_eval(alpha: float, beta: float, x):
    """Evaluate E_{alpha,beta}(x) for real x (scalar or array).

    Accurate to 1e-10 relative on [-100, 5] wherever |E| >= 1e-7, and to
    about 1e-17 absolute below that (see the module docstring).  A value
    beyond the float64 range is inf.  Raises ValueError for a parameter
    out of range or a non-finite x.
    """
    check_real(alpha, "alpha", lambda a: 0.0 < a <= 2.0, "lie in (0, 2] as the first parameter")
    check_real(beta, "beta", lambda b: 0.0 < b <= 3.0, "lie in (0, 3] as the second parameter")
    xv = np.asarray(x, dtype=float)
    bad = xv[~np.isfinite(xv)]
    if bad.size:
        raise ValueError(f"x must be finite, got {bad[0]}")
    if alpha == 1.0 and beta == 1.0:
        with np.errstate(over="ignore"):
            out = np.exp(xv)
    else:
        flat = xv.ravel()
        phi, res = _poles(alpha, beta, flat)
        inside = phi <= (1.0 - _GAP) ** 2  # left of mu = 1, far enough
        out = np.where(inside, 0.0, res)
        # the least k >= 0 with phi 4^k >= (1 + _GAP)^2: right of mu = 4^-k, far enough
        k = np.zeros(flat.shape, dtype=int)
        k[~inside] = np.ceil(math.log2(1.0 + _GAP) - np.log2(phi[~inside]) / 2.0).clip(0)
        for kk in np.unique(k):
            sa, w = _contour(alpha, beta, kk)
            idx = np.flatnonzero(k == kk)
            step = max(1, _CHUNK // len(sa))
            for c in range(0, idx.size, step):
                i = idx[c : c + step]
                out[i] += (w / (sa - flat[i, None])).sum(axis=1).real
        out = out.reshape(xv.shape)
    return float(out) if np.isscalar(x) else out


def relaxation_exact(alpha: float, lam: float, t):
    """Exact solution of  d^alpha u + lam u = 1,  u(0) = 0,  f constant 1.

    u(t) = (1 - E_{alpha,1}(-lam t^alpha)) / lam.
    """
    check_alpha(alpha)
    check_real(lam, "relaxation coefficient lam", lambda v: 0.0 < v < math.inf, "be positive and finite")
    scalar = np.isscalar(t)
    tv = np.asarray(t, dtype=float)
    vals = ml_eval(alpha, 1.0, -lam * tv**alpha)
    out = (1.0 - vals) / lam
    return float(out) if scalar else out
