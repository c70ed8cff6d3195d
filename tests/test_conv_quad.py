import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdfrac import build_cq, conv_quad
from msdfrac.reference import apply_cq, cq_starting_weights


def test_weights_match_binomial_products():
    # omega_k is the Cauchy product of the (1+z)^a and (1-z)^{-a}
    # series, scaled by 2^{-a}; spot-check against math.comb-based values
    alpha = 0.4
    omega = build_cq(alpha, 12)

    def binom(a, k):
        out = 1.0
        for j in range(k):
            out *= (a - j) / (j + 1)
        return out

    for m in range(13):
        ref = 2.0**-alpha * sum(
            binom(alpha, j) * (-1.0) ** (m - j) * binom(-alpha, m - j) for j in range(m + 1)
        )
        assert omega[m] == pytest.approx(ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
@pytest.mark.parametrize("M", [1, 2, 64, 4096])
def test_weights_match_direct_binomial_convolution(alpha, M):
    k = np.arange(1, M + 1, dtype=float)
    c = np.concatenate(([1.0], np.cumprod((alpha - k + 1.0) / k)))  # (1+z)^a
    d = np.concatenate(([1.0], np.cumprod((k - 1.0 + alpha) / k)))  # (1-z)^{-a}
    ref = 2.0**-alpha * np.convolve(c, d)[: M + 1]
    omega = build_cq(alpha, M)
    assert omega.shape == ref.shape
    assert np.max(np.abs(omega - ref) / ref) < 1e-13


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("tau", [0.3, 1.0 / 512.0])
def test_constant_exactness_identity(alpha, tau):
    # tau^a sum_{p<=m} omega_p + chi_m = t_m^a / Gamma(1+a), every m
    M = 512
    omega = build_cq(alpha, M)
    t = tau * np.arange(M + 1)
    lhs = tau**alpha * np.cumsum(omega) + cq_starting_weights(alpha, tau, omega)
    ref = t**alpha / math.gamma(1.0 + alpha)
    assert np.max(np.abs(lhs - ref)) < 1e-12


def test_apply_cq_on_constants_is_exact():
    alpha, tau, M = 0.6, 0.05, 40
    omega = build_cq(alpha, M)
    for m in (1, 7, 40):
        got = apply_cq(alpha, tau, omega, 3.0 * np.ones(m + 1))
        ref = 3.0 * (m * tau) ** alpha / math.gamma(1.0 + alpha)
        assert got == pytest.approx(ref, abs=1e-12)


def test_apply_cq_converges_on_smooth_history():
    # I^a cos at t=1; reference from the termwise power series
    alpha = 0.5
    ref = sum(
        (-1.0) ** k / math.factorial(2 * k) * math.gamma(2 * k + 1.0) / math.gamma(2 * k + 1.5)
        for k in range(12)
    )
    errs = []
    for M in (64, 128, 256):
        errs.append(abs(apply_cq(alpha, 1.0 / M, build_cq(alpha, M), np.cos(np.arange(M + 1) / M)) - ref))
    rate = math.log2(errs[0] / errs[2]) / 2.0
    assert rate == pytest.approx(2.0, abs=0.1)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.05, 0.95),
    st.integers(1, 80),
    st.integers(0, 2**32 - 1),
)
def test_quadrature_weights_positive_definite(alpha, N, seed):
    # the generating symbol maps the unit disk into the right half
    # plane, so the convolution quadratic form is nonnegative
    omega = build_cq(alpha, N)
    v = np.random.default_rng(seed).standard_normal(N + 1)
    q = float(v @ np.convolve(omega, v)[: v.size])
    assert q >= -1e-12 * float(v @ v)


def test_validation():
    with pytest.raises(ValueError):
        build_cq(1.0, 8)
    with pytest.raises(ValueError):
        build_cq(0.5, 0)
    with pytest.raises(ValueError):
        apply_cq(0.5, 0.1, build_cq(0.5, 4), np.ones(6))  # more values than weights


@pytest.mark.parametrize("M", [2.5, 8.0, "8", True])
def test_step_count_must_be_an_integer(M):
    with pytest.raises(ValueError, match="M must be an integer"):
        build_cq(0.5, M)


def test_numpy_integer_step_count_accepted():
    assert np.array_equal(build_cq(0.5, np.int64(8)), build_cq(0.5, 8))


def test_weights_memo_hands_out_read_only_prefixes():
    # omega at M sliced from the weights kept at 16 M are fresh weights of M
    # bit for bit; another alpha forms its own
    M = 256
    conv_quad._OMEGA.clear()
    fresh = build_cq(0.25, M).copy()
    conv_quad._OMEGA.clear()
    big = build_cq(0.25, 16 * M)
    omega = build_cq(0.25, M)
    assert np.shares_memory(omega, big) and omega.tobytes() == fresh.tobytes()
    other = build_cq(0.75, M)
    assert not np.shares_memory(other, big)
    conv_quad._OMEGA.clear()
    assert other.tobytes() == build_cq(0.75, M).tobytes()
    for arr in (big, omega, other):
        with pytest.raises(ValueError):
            arr[1] = 0.0
        with pytest.raises(ValueError):
            arr.flags.writeable = True
