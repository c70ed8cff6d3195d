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
from msdfrac.l1_scheme import l1_weight_block


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
    # a marched solution satisfies D^a V^m + lam V^m = rhs^m exactly; a
    # graded march builds every weight row 1..M exactly once, a block of
    # rows at a time, and on a uniform mesh the Toeplitz fast path must
    # be taken (no graded weight rows) even when a decimal step count
    # leaves the node gaps equal only up to rounding
    alpha, lam = 0.4, 2.5
    rows = []

    def counted_block(alpha, mesh, start, stop):
        rows.extend(range(start + 1, stop + 1))
        return l1_weight_block(alpha, mesh, start, stop)

    monkeypatch.setattr(l1_scheme, "l1_weight_block", counted_block)
    graded = (build_mesh(1.0, 32, 2.0), build_mesh(1.0, 100, 1.5))
    for mesh in graded + (build_mesh(1.0, 100), build_mesh(0.3, 128)):
        M = mesh.M
        rhs = np.random.default_rng(7).standard_normal(M + 1)
        rows.clear()
        V = march_l1(alpha, mesh, lam, rhs)
        assert sorted(rows) == ([] if mesh.uniform else list(range(1, M + 1)))
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
    for grid in (mesh, build_mesh(1.0, 8, 2.0)):
        for shape in (8, 10, (8, 2), ()):
            with pytest.raises(ValueError, match="rhs"):
                march_l1(0.5, grid, 1.0, np.zeros(shape))  # one row per node 0..8


def _weight_numerators(alpha, t, m):
    # (t_m - t_{k-1})^{1-a} - (t_m - t_k)^{1-a} for k = 1..m, one row at a time
    pw = (t[m] - t[: m + 1]) ** (1.0 - alpha)
    return pw[:-1] - pw[1:]


@pytest.mark.filterwarnings("ignore:grading r")
@pytest.mark.parametrize("alpha,r", [(0.25, 7.0), (0.75, 5.0 / 12.0), (0.5, 2.0)])
@pytest.mark.parametrize("M", [1, 31, 32, 33, 1000])
def test_weight_block_rows_match_the_formula(alpha, r, M):
    # block rows are the numerators bit for bit, exactly 0 beyond the
    # diagonal, and l1_weight_row divides one of them by tau_k Gamma(2-a)
    mesh = build_mesh(1.0, M, r)
    t = mesh.nodes
    scale = mesh.steps * math.gamma(2.0 - alpha)
    for start in range(0, M, 32):
        stop = min(start + 32, M)
        block = l1_weight_block(alpha, mesh, start, stop)
        assert block.shape == (stop - start, stop)
        for i, m in enumerate(range(start + 1, stop + 1)):
            want = _weight_numerators(alpha, t, m)
            assert block[i, :m].tobytes() == want.tobytes()
            assert np.all(block[i, m:] == 0.0)
            assert l1_weight_row(alpha, mesh, m).tobytes() == (want / scale[:m]).tobytes()


def _stepped_march(alpha, mesh, lam, rhs):
    # the graded scheme one step at a time, the weight row rebuilt at each
    t = mesh.nodes
    V = np.zeros(rhs.shape)
    D = np.zeros(rhs.shape)  # D[k-1] = V^k - V^{k-1}
    for m in range(1, mesh.M + 1):
        row = _weight_numerators(alpha, t, m) / (mesh.steps[:m] * math.gamma(2.0 - alpha))
        a0, hist = row[-1], row[:-1] @ D[: m - 1]
        if callable(lam):
            V[m] = lam(a0, rhs[m], a0 * V[m - 1] - hist)
        else:
            V[m] = (rhs[m] + a0 * V[m - 1] - hist) / (a0 + lam)
        D[m - 1] = V[m] - V[m - 1]
    return V


@pytest.mark.parametrize("alpha,r", [(0.25, 7.0), (0.75, 5.0 / 3.0), (0.5, 2.0)])
@pytest.mark.parametrize("M", [1, 31, 32, 33, 200])
def test_block_march_matches_stepped_graded_march(alpha, r, M):
    # blocks of rows (far history one product, near block one solve)
    # against the step-by-step march, for a scalar, three modes up to
    # 2e4 and a banded local solve
    mesh = build_mesh(1.0, M, r)
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
        ref = _stepped_march(alpha, mesh, lam, rhs)
        assert np.max(np.abs(V - ref)) <= 1e-13 * np.max(np.abs(ref))
