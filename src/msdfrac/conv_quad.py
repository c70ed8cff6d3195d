"""Trapezoidal convolution quadrature for the fractional integral I^a.

On a uniform mesh the Riemann-Liouville integral of order a is
approximated by

    Q_m(phi) = tau^a sum_{p=0}^{m} omega_p phi^{m-p} + chi_m phi^0,

where the omega_p are the Taylor coefficients of the generating
function (2(1-z)/(1+z))^{-a} = 2^{-a} w(z), w = ((1+z)/(1-z))^a.  From
(1 - z^2) w' = 2a w the coefficients of w obey (k+1) w_{k+1} = 2a w_k
+ (k-1) w_{k-1}, an O(M) recurrence of positive terms: nothing cancels.
The starting weights chi_m absorb the rule's error on constants: they
are defined so that Q_m(1) = t_m^a/Gamma(1+a) holds exactly for every
m (chi_0, forced by that identity at t_0 = 0, makes Q_0 vanish
identically).  The rule is then second-order accurate for smooth
inputs.  No solver reads chi (the CQ Crank-Nicolson stepper of pde1d
takes omega alone), so build_cq(alpha, M) returns the read-only
omega_0..omega_M, which depend on alpha alone, and reference.apply_cq
forms chi itself.

The recurrence runs step by step, so omega_0..omega_M is a prefix of
the weights of any larger M, bit for bit: _OMEGA keeps the weights of
the last alpha at the largest M asked, and a smaller M gets a read-only
slice of them.  A study solves its finest mesh first, so its coarser
meshes, and the other block of a table at the same alpha, take slices
of the weights its one lookup found (threads may share _OMEGA).
"""

from __future__ import annotations

import numpy as np

from .mesh import check_alpha, check_count

__all__ = ["build_cq"]

# alpha -> omega_0..omega_M at the largest M asked, for the last alpha only: M + 1
# doubles, 32 KiB at M = 4096
_OMEGA: dict = {}


def build_cq(alpha: float, M: int) -> np.ndarray:
    """omega_0..omega_M of order alpha, read-only."""
    check_alpha(alpha)
    M = check_count(M, "M", 1)

    omega = _OMEGA.get(alpha, ())
    if len(omega) <= M:
        _OMEGA.clear()
        w = [1.0, 2.0 * alpha]
        for k in range(1, M):
            w.append((2.0 * alpha * w[k] + (k - 1) * w[k - 1]) / (k + 1))
        omega = 2.0 ** (-alpha) * np.array(w)
        omega.flags.writeable = False
        _OMEGA[alpha] = omega
    return omega[: M + 1]
