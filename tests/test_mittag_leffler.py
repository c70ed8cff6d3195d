import math

import numpy as np
import pytest
from scipy.special import erfcx

from msdfrac import ml_eval, relaxation_exact


def test_reduces_to_exp():
    x = np.linspace(-50.0, 5.0, 111)
    got = ml_eval(1.0, 1.0, x)
    assert np.max(np.abs(got / np.exp(x) - 1.0)) < 1e-10


def test_half_order_erfc_identity():
    # E_{1/2,1}(-x) = exp(x^2) erfc(x) for x >= 0
    x = np.linspace(0.0, 20.0, 81)
    got = ml_eval(0.5, 1.0, -x)
    ref = erfcx(x)
    assert np.max(np.abs(got / ref - 1.0)) < 1e-10


def test_beta_two_reduces_to_expm1_over_x():
    # E_{1,2}(x) = (e^x - 1)/x
    x = np.linspace(-30.0, -0.5, 60)
    got = ml_eval(1.0, 2.0, x)
    ref = np.expm1(x) / x
    assert np.max(np.abs(got / ref - 1.0)) < 1e-10


def test_series_region_small_argument():
    # plain series: two terms dominate, cross-check by hand at x = -1e-4
    val = ml_eval(0.3, 1.0, -1e-4)
    import math

    ref = sum((-1e-4) ** k / math.gamma(0.3 * k + 1.0) for k in range(8))
    assert val == pytest.approx(ref, rel=1e-13)


def test_complete_monotonicity_on_negative_axis():
    # E_a(-x) is positive and decreasing in x for a in (0,1)
    for alpha in (0.25, 0.5, 0.75, 0.9):
        x = np.linspace(0.0, 80.0, 400)
        v = ml_eval(alpha, 1.0, -x)
        assert np.all(v > 0.0)
        assert np.all(np.diff(v) < 1e-14)


def test_laplace_transform_oracle():
    # independent reference: u(t) = E_a(-t^a) has Laplace transform
    # s^{a-1}/(s^a + 1); invert numerically with mpmath's Talbot rule
    import mpmath as mp

    mp.mp.dps = 30
    for alpha in (0.25, 0.6, 0.85):
        for t in (0.05, 0.7, 3.0, 20.0):
            ref = mp.invertlaplace(
                lambda s, a=alpha: s ** (a - 1.0) / (s**a + 1.0), t, method="talbot"
            )
            got = ml_eval(alpha, 1.0, -(t**alpha))
            assert got == pytest.approx(float(ref), rel=1e-9)


def test_vector_and_scalar_agree():
    xs = np.array([-3.0, -0.1, 0.0, 1.2])
    vec = ml_eval(0.7, 1.3, xs)
    for x, v in zip(xs, vec):
        assert ml_eval(0.7, 1.3, float(x)) == v


def test_validation():
    with pytest.raises(ValueError):
        ml_eval(0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        ml_eval(-0.5, 1.0, -1.0)
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="order"):
            relaxation_exact(alpha, 1.0, 1.0)
    # a NaN lam passed the sign test and failed later with "x must be finite"
    for lam in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="relaxation coefficient lam"):
            relaxation_exact(0.5, lam, 1.0)


def test_relaxation_exact_limits():
    # u(0) = 0 and u(t) -> 1/lam as t -> infinity
    assert relaxation_exact(0.5, 2.0, 0.0) == pytest.approx(0.0)
    assert relaxation_exact(0.5, 2.0, 1e8) == pytest.approx(0.5, rel=1e-3)
    t = np.linspace(0.0, 5.0, 50)
    u = relaxation_exact(0.25, 1.0, t)
    assert np.all(np.diff(u) > 0.0)  # monotone approach to the plateau


def _mpmath_reference(alpha, beta, x):
    # Talbot inversion of s^(a-b)/(s^a - x) at t = 1 where the series
    # cancels too much to sum (a < 1, x < -1); elsewhere the series.  Its
    # terms cancel only for x < 0, where the precision is twice the digits
    # of the largest term, which also covers a result as small as
    # 1/largest (e^-100 at a = b = 1)
    import mpmath as mp

    if alpha < 1.0 and x < -1.0:
        with mp.workdps(20):
            F = lambda s: s ** (alpha - beta) / (s**alpha - x)  # noqa: E731
            return float(mp.invertlaplace(F, 1, method="talbot"))
    logs = [k * math.log(abs(x)) - math.lgamma(alpha * k + beta) for k in range(4000)]
    peak = max(logs)
    dps = 25 + (int(2.0 * peak / math.log(10.0)) if x < 0.0 and peak > 0.0 else 0)
    cut = peak - (dps + 5) * math.log(10.0)
    n = next(k for k in range(logs.index(peak), 4000) if logs[k] < cut)
    with mp.workdps(dps):
        a, b, xm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        return float(mp.fsum(xm**k * mp.rgamma(a * k + b) for k in range(n)))


def test_matches_mpmath_reference():
    # 1e-10 relative on the grid, leaving out x > 0 where E overflows; the
    # array call and the scalar calls agree bit for bit
    xs = np.array([-100.0, -30.0, -5.0, -0.7, -1e-3, 0.4, 3.0])
    for alpha in (0.1, 0.25, 0.5, 0.9, 0.99, 0.9999, 1.0, 1.0001, 1.5, 1.99, 2.0):
        for beta in (0.5, 1.0, 2.0, 2.5):
            x = xs[(xs < 0.0) | (np.abs(xs) ** (1.0 / alpha) < 700.0)]
            got = ml_eval(alpha, beta, x)
            for xi, g in zip(x, got):
                assert ml_eval(alpha, beta, float(xi)) == g
                ref = _mpmath_reference(alpha, beta, float(xi))
                assert g == pytest.approx(ref, rel=1e-10, abs=0.0), (alpha, beta, xi)


def test_non_finite_and_overflowing_arguments():
    # NaN and +-inf are rejected by name; a value beyond the float64 range
    # is inf, with no RuntimeWarning (which the test configuration turns
    # into an error)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x must be finite"):
            ml_eval(0.5, 1.0, bad)
        with pytest.raises(ValueError, match="x must be finite"):
            ml_eval(1.5, 1.0, np.array([-1.0, bad]))
    assert ml_eval(0.1, 1.0, 3.0) == math.inf
    assert ml_eval(0.5, 1.0, 1000.0) == math.inf
    assert ml_eval(1.0, 1.0, 1000.0) == math.inf
    got = ml_eval(0.5, 2.0, np.array([1e300, 1.0, -1e300]))
    assert got[0] == math.inf and np.all(np.isfinite(got[1:]))
    with pytest.raises(ValueError, match="second parameter"):
        ml_eval(0.5, 3.5, -1.0)  # beyond the measured range of beta
