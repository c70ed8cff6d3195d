import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import solveh_banded

from msdfrac import (
    apply_dfrac,
    assemble_fem,
    build_l1,
    build_mesh,
    l1_scheme,
    l1_weight_row,
    march_l1,
)


def test_uniform_weight_row_closed_form():
    alpha = 0.35
    M, tau = 16, 1.0 / 16.0
    mesh = build_mesh(1.0, M, 1.0)
    g = np.arange(M + 1, dtype=float)
    w = tau**-alpha * ((g + 1.0) ** (1.0 - alpha) - g ** (1.0 - alpha)) / math.gamma(2.0 - alpha)
    for m in (1, 5, 16):
        row = l1_weight_row(alpha, mesh, m)
        # row[k-1] = a^{(m)}_{m-k}, i.e. the gap m-k indexes w
        assert np.allclose(row, w[m - 1 :: -1], rtol=1e-13)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
@pytest.mark.parametrize("r", [1.0, 2.5])
def test_exact_on_linear_histories(alpha, r):
    # piecewise-linear product integration reproduces the Caputo
    # derivative of c0 + c1 t exactly: c1 t^{1-a}/Gamma(2-a)
    mesh = build_mesh(2.0, 48, r)
    sysm = build_l1(mesh, alpha)
    c0, c1 = 0.7, -1.3
    v = c0 + c1 * mesh.nodes
    for m in (1, 7, 48):
        got = apply_dfrac(sysm, v[: m + 1])
        ref = c1 * mesh.nodes[m] ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        assert got == pytest.approx(ref, abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("alpha,r,M", [(0.25, 1.0, 64), (0.5, 2.0, 48), (0.75, 7.0, 32)])
def test_complementary_kernel_identities(alpha, r, M):
    # sum_{j=k}^m P^{(m)}_{m-j} a^{(j)}_{j-k} = 1 and
    # 0 < P^{(m)}_{m-j} <= Gamma(2-a) tau_j^a
    mesh = build_mesh(1.0, M, r)
    sysm = build_l1(mesh, alpha)
    P, a = sysm.P, sysm.a
    bound = math.gamma(2.0 - alpha) * mesh.steps**alpha
    for m in range(1, M + 1):
        for k in range(1, m + 1):
            s = sum(P[m, j] * a[j, k] for j in range(k, m + 1))
            assert abs(s - 1.0) < 1e-12
        prow = P[m, 1 : m + 1]
        assert np.all(prow > 0.0)
        assert np.all(prow <= bound[:m] * (1.0 + 1e-13))


def test_kernel_row_matches_cached_matrix():
    mesh = build_mesh(1.0, 20, 3.0)
    sysm = build_l1(mesh, 0.6)
    row = sysm.kernel_row(13).copy()
    assert np.allclose(row, sysm.P[13, 1:14], rtol=0, atol=0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.05, 0.95),
    st.floats(1.0, 4.0),
    st.integers(2, 40),
    st.integers(0, 2**32 - 1),
)
def test_coercivity_inequality(alpha, r, M, seed):
    # v^m (D v)^m >= (1/2) (D v^2)^m at every step: the discrete
    # analogue of v v' = (v^2/2)', from monotone weight rows
    mesh = build_mesh(1.0, M, r)
    sysm = build_l1(mesh, alpha)
    v = np.random.default_rng(seed).standard_normal(M + 1)
    for m in range(1, M + 1):
        lhs = v[m] * apply_dfrac(sysm, v[: m + 1])
        rhs = 0.5 * apply_dfrac(sysm, v[: m + 1] ** 2)
        assert lhs - rhs >= -1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_march_solves_the_scheme(monkeypatch):
    # a marched solution satisfies D^a V^m + lam V^m = rhs^m exactly; on
    # a uniform mesh this holds for the Toeplitz fast path, which must
    # be taken (no graded weight rows) even when a decimal step count
    # leaves the node gaps equal only up to rounding
    alpha, lam = 0.4, 2.5
    rows = []

    def counted_row(*args):
        rows.append(args)
        return l1_weight_row(*args)

    monkeypatch.setattr(l1_scheme, "l1_weight_row", counted_row)
    for mesh in (build_mesh(1.0, 32, 2.0), build_mesh(1.0, 100), build_mesh(0.3, 128)):
        M = mesh.M
        rhs = np.random.default_rng(7).standard_normal(M + 1)
        rows.clear()
        V = march_l1(alpha, mesh, lam, rhs)
        assert len(rows) == (0 if mesh.uniform else M)
        sysm = build_l1(mesh, alpha)
        assert V[0] == 0.0
        for m in range(1, M + 1):
            res = apply_dfrac(sysm, V[: m + 1]) + lam * V[m] - rhs[m]
            assert abs(res) < 1e-10 * max(1.0, abs(rhs[m]))


def test_march_uniform_and_graded_paths_agree():
    # the Toeplitz fast path is the graded scheme on the same nodes: a
    # decimal step count gives gaps equal only up to rounding, and the
    # graded rows on those very nodes must reproduce the fast path;
    # an explicitly non-uniform r->1 mesh must approach it as well
    alpha, lam = 0.3, 1.0
    decimal = build_mesh(1.0, 100, 1.0)
    rhs = np.sin(np.arange(101) * 0.1)
    same_nodes = dataclasses.replace(decimal, r=1.0 + 1e-12)
    V1 = march_l1(alpha, decimal, lam, rhs)
    V2 = march_l1(alpha, same_nodes, lam, rhs)
    assert np.max(np.abs(V2 - V1)) < 1e-12
    rhs = np.sin(np.arange(65) * 0.1)
    V1 = march_l1(alpha, build_mesh(1.0, 64, 1.0), lam, rhs)
    V3 = march_l1(alpha, build_mesh(1.0, 64, 1.0 + 1e-12), lam, rhs)
    assert np.max(np.abs(V3 - V1)) < 1e-8


@pytest.mark.parametrize("alpha", [0.3, 0.9])
@pytest.mark.parametrize("M", [1, 255, 256, 257, 1000, 3001])
def test_blocked_toeplitz_march_matches_graded_rows(alpha, M):
    # the uniform march solves whole blocks of 256 steps at once (far
    # history by FFT); the graded rows on the same nodes step one at a
    # time, for a scalar, three modes up to 2e4 and a banded local solve
    mesh = build_mesh(1.0, M, 1.0)
    stepped = dataclasses.replace(mesh, r=1.0 + 1e-12)
    t = mesh.nodes
    fem = assemble_fem(0.0, 1.0, 8)

    def banded(a0, load, b):
        return solveh_banded(fem.banded(a0, 1.0), load + fem.mass_apply(b))

    cases = (
        (2.5, np.sin(3.0 * t) + t**0.7),
        (np.array([1.0, 50.0, 2e4]), np.outer(t**0.7, [1.0, 2.0, 3.0])),
        (banded, np.outer(t**0.6, np.linspace(1.0, 2.0, 7))),
    )
    for lam, rhs in cases:
        V = march_l1(alpha, mesh, lam, rhs)
        ref = march_l1(alpha, stepped, lam, rhs)
        assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_validation():
    mesh = build_mesh(1.0, 8, 1.0)
    with pytest.raises(ValueError):
        build_l1(mesh, 1.5)
    sysm = build_l1(mesh, 0.5)
    with pytest.raises(ValueError):
        apply_dfrac(sysm, np.ones(1))  # needs at least two values
    with pytest.raises(ValueError):
        apply_dfrac(sysm, np.ones(10))  # beyond the mesh
    with pytest.raises(ValueError, match="degenerate"):
        march_l1(0.5, mesh, np.array([1.0, -1e6]), np.zeros((9, 2)))  # a0 + lam <= 0
