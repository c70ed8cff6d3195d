import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdfrac import TimeProfile, beta_profile, build_mesh, frac_integrate, frac_integrate_numeric
from msdfrac.fracint import sample


def test_profile_algebra():
    p = TimeProfile.of((2.0, 0.0), (3.0, 1.5))
    assert p(2.0) == pytest.approx(2.0 + 3.0 * 2.0**1.5)
    q = TimeProfile.of((1.0, 1.5))
    s = p + q
    assert s.terms == TimeProfile.of((2.0, 0.0), (4.0, 1.5)).terms
    assert (p - p).is_zero
    assert (p * 0.0).is_zero
    assert (2.0 * q)(3.0) == pytest.approx(2.0 * 3.0**1.5)


def test_profile_duplicate_exponents_merge():
    p = TimeProfile.of((1.0, 0.5), (2.5, 0.5))
    assert len(p.terms) == 1
    assert p.terms[0][0] == pytest.approx(3.5)


def test_profile_terms_sorted_by_exponent():
    # the order (and with it the summation order of __call__) follows the
    # exponents, not the coefficients' values
    assert TimeProfile.of((2.0, 0.0), (-0.5, 0.5)).terms == ((2.0, 0.0), (-0.5, 0.5))
    assert TimeProfile.of((-0.5, 0.5), (2.0, 0.0)).terms == ((2.0, 0.0), (-0.5, 0.5))


def test_singular_profile_rejects_origin():
    p = beta_profile(0.5)  # t^{-1/2}/Gamma(1/2)
    with pytest.raises(ValueError):
        p(0.0)
    assert p(4.0) == pytest.approx(4.0**-0.5 / math.gamma(0.5))


def test_beta_profile_values():
    nu = 1.7
    p = beta_profile(nu)
    t = np.array([0.3, 1.0, 2.5])
    assert np.allclose(p(t), t ** (nu - 1.0) / math.gamma(nu), rtol=1e-15)


def test_frac_integrate_monomial():
    # I^nu t^q = Gamma(q+1)/Gamma(q+1+nu) t^{q+nu}
    p = TimeProfile.of((1.0, 0.75))
    out = frac_integrate(p, 0.5)
    t = 1.7
    expect = math.gamma(1.75) / math.gamma(2.25) * t**1.25
    assert out(t) == pytest.approx(expect, rel=1e-14)


def test_frac_integrate_constant_is_beta():
    out = frac_integrate(TimeProfile.constant(1.0), 0.3)
    t = np.linspace(0.1, 2.0, 7)
    assert np.allclose(out(t), t**0.3 / math.gamma(1.3), rtol=1e-14)


# exponents drawn from a coarse grid so term merging is identical on
# both sides (nearly equal float exponents could merge after + a but
# not after + (a+b), which is a representation artifact, not an error)
_coeff = st.floats(-5.0, 5.0).filter(lambda c: c == 0.0 or abs(c) > 1e-6)
_exponent = st.integers(0, 128).map(lambda k: k / 32.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_coeff, _exponent), min_size=1, max_size=5),
    st.floats(0.05, 1.5),
    st.floats(0.05, 1.5),
)
def test_semigroup_property(terms, a, b):
    # I^a I^b = I^{a+b}, checked termwise at 1e-13 relative
    p = TimeProfile.of(*terms)
    lhs = frac_integrate(frac_integrate(p, a), b)
    rhs = frac_integrate(p, a + b)
    assert len(lhs.terms) == len(rhs.terms)
    for (cl, ql), (cr, qr) in zip(lhs.terms, rhs.terms):
        assert ql == pytest.approx(qr, abs=1e-13)
        assert cl == pytest.approx(cr, rel=1e-13)


def test_semigroup_on_singular_kernel():
    # beta_nu composes the same way: I^a beta_b = beta_{a+b}
    for a, b in [(0.25, 0.5), (0.7, 0.7), (0.05, 0.9)]:
        lhs = frac_integrate(beta_profile(b), a)
        rhs = beta_profile(a + b)
        (cl, ql), (cr, qr) = lhs.terms[0], rhs.terms[0]
        assert ql == pytest.approx(qr, abs=1e-14)
        assert cl == pytest.approx(cr, rel=1e-13)


def test_numeric_integration_matches_analytic():
    mesh = build_mesh(1.0, 512, 1.0)
    vals = np.cos(mesh.nodes)
    out = frac_integrate_numeric(vals, 0.5, mesh)
    # reference: termwise transform of the truncated cosine series
    ref = TimeProfile.zero()
    for k in range(0, 9):
        ref = ref + TimeProfile.of(((-1.0) ** k / math.factorial(2 * k), 2.0 * k))
    ref = frac_integrate(ref, 0.5)
    assert np.max(np.abs(out[1:] - ref(mesh.nodes[1:]))) < 5e-6
    assert out[0] == 0.0


@pytest.mark.parametrize("r", [1.0, 3.0, 7.0])
@pytest.mark.parametrize("M", [1, 31, 33, 1100])
def test_numeric_integration_is_exact_on_linear_data(M, r):
    # the interpolant of 2 - 3t is 2 - 3t, so product integration gives
    # I^nu(2 - 3t) = 2 t^nu / Gamma(1+nu) - 3 t^{1+nu} / Gamma(2+nu) up to
    # rounding; M = 33 and 1100 cross a block of rows and a tile of columns
    mesh = build_mesh(1.0, M, r)
    t = mesh.nodes
    for nu in (0.25, 0.75, 1.5):
        out = frac_integrate_numeric(2.0 - 3.0 * t, nu, mesh)
        exact = 2.0 * t**nu / math.gamma(1.0 + nu) - 3.0 * t ** (1.0 + nu) / math.gamma(2.0 + nu)
        assert np.max(np.abs(out - exact)) <= 1e-14 * np.max(np.abs(exact)), nu


def _mp_product_integral(t, f, nu, m):
    # I^nu of the piecewise-linear interpolant at t_m, cell by cell in
    # 60-digit arithmetic on the same float nodes and values
    with mpmath.workdps(60):
        nu = mpmath.mpf(nu)
        T, F = [mpmath.mpf(x) for x in t[: m + 1]], [mpmath.mpf(x) for x in f[: m + 1]]
        acc = mpmath.mpf(0)
        for k in range(1, m + 1):
            A, B = T[m] - T[k], T[m] - T[k - 1]
            i0 = (B**nu - A**nu) / nu
            i1 = (B ** (nu + 1) - A ** (nu + 1)) / (nu + 1)
            acc += F[k - 1] * i0 + (F[k] - F[k - 1]) / (T[k] - T[k - 1]) * (B * i0 - i1)
        return float(acc / mpmath.gamma(nu))


@pytest.mark.parametrize("nu", [0.25, 0.75, 1.5])
def test_numeric_integration_matches_mpmath_on_a_strongly_graded_mesh(nu):
    # at r = 7 the first cells are ~1e-22 wide and their numerators cancel;
    # the pointwise relative errors measured on these nodes were at most
    # 2.3e-15
    mesh = build_mesh(1.0, 1100, 7.0)
    f = np.cos(3.0 * mesh.nodes)
    out = frac_integrate_numeric(f, nu, mesh)
    for m in (1, 2, 32, 33, 1024, 1025, 1100):
        ref = _mp_product_integral(mesh.nodes, f, nu, m)
        assert abs(out[m] - ref) <= 1e-14 * abs(ref), m


@pytest.mark.parametrize(
    "term", [(1.0, math.nan), (math.inf, 1.0), (math.nan, 0.0), (1.0, math.inf)]
)
def test_non_finite_profile_terms_are_rejected(term):
    with pytest.raises(ValueError, match="TimeProfile terms must be finite"):
        TimeProfile.of(term)
    with pytest.raises(ValueError, match="TimeProfile terms must be finite"):
        TimeProfile.of((1.0, 0.5), term)


_MESH8 = build_mesh(1.0, 8, 1.0)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: TimeProfile.of((1.0, -1.0)), "not integrable"),
        (lambda: TimeProfile.of((1.0, 0.5), (2.0, -1.5)), "not integrable"),
        (lambda: beta_profile(0.0), "kernel order"),
        (lambda: beta_profile(-0.5), "kernel order"),
        (lambda: beta_profile(math.nan), "kernel order"),
        (lambda: frac_integrate(TimeProfile.constant(1.0), 0.0), "integration order"),
        (lambda: frac_integrate(TimeProfile.constant(1.0), -1.0), "integration order"),
        (lambda: frac_integrate_numeric(np.ones(9), 0.0, _MESH8), r"\(0, 2\]"),
        (lambda: frac_integrate_numeric(np.ones(9), 2.5, _MESH8), r"\(0, 2\]"),
        (lambda: frac_integrate_numeric(np.ones(9), math.nan, _MESH8), r"\(0, 2\]"),
        (lambda: frac_integrate_numeric(np.ones(8), 0.5, _MESH8), "nodal values have shape"),
    ],
)
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_sample_spreads_a_scalar_as_a_view():
    t = np.linspace(0.0, 1.0, 5)
    vals = sample(lambda t: 2.0, t)
    assert vals.shape == t.shape and np.all(vals == 2.0)
    assert vals.strides == (0,) and not vals.flags.writeable  # no copy
    grid = sample(lambda x, t: x + t, np.arange(3.0)[None, :], t[:, None])
    assert np.array_equal(grid, np.arange(3.0)[None, :] + t[:, None])
    with pytest.raises(ValueError, match=r"f\(x, t\) returned shape \(2,\)"):
        sample(lambda x, t: np.ones(2), np.arange(3.0)[None, :], t[:, None])
    with pytest.raises(ValueError, match=r"f\(t\) returned shape \(3,\)"):
        sample(lambda t: np.ones(3), t)
