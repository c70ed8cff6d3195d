import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msdfrac
from msdfrac import (
    build_mesh,
    frac_integrate_numeric,
    l1_scheme,
    l1_weight_row,
    march_l1,
)
from msdfrac.l1_scheme import l1_weight_block
from msdfrac.mesh import half_mesh
from msdfrac.reference import apply_dfrac, build_l1, complementary_kernel
from msdfrac.study import default_ms, make_relaxation_study, run_study


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
    P, a = complementary_kernel(sysm), sysm
    bound = math.gamma(2.0 - alpha) * mesh.steps**alpha
    for m in range(1, M + 1):
        for k in range(1, m + 1):
            s = sum(P[m, j] * a[j, k] for j in range(k, m + 1))
            assert abs(s - 1.0) < 1e-12
        prow = P[m, 1 : m + 1]
        assert np.all(prow > 0.0)
        assert np.all(prow <= bound[:m] * (1.0 + 1e-13))


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


def _formed_once(M):
    # the numerators (m, k), 1 <= k <= m <= M, that a graded march forms,
    # each once: every one up to M = _HEAD + _ROWS = 320; past it the head
    # columns k <= _HEAD and each row's own block, about M x 320 in place
    # of M^2 / 2; above _SOE_M each row's own block only
    rows, head = l1_scheme._ROWS, 0 if M > l1_scheme._SOE_M else l1_scheme._HEAD
    m, k = np.arange(1, M + 1)[:, None], np.arange(1, M + 1)
    formed = (k <= m) & ((k <= head) | (k > (m - 1) // rows * rows))
    assert M > head + rows or np.all(formed == np.tri(M, dtype=bool))
    return formed.astype(int)


def test_march_solves_the_scheme(monkeypatch):
    # a marched solution satisfies D^a V^m + lam V^m = rhs^m exactly; a
    # graded march forms the weight numerators of _formed_once exactly
    # once, a tile of rows and columns at a time, and on a uniform mesh
    # the Toeplitz fast path must be taken (no graded numerators) even
    # when a decimal step count leaves the node gaps equal only up to
    # rounding
    alpha, lam = 0.4, 2.5
    formed = None  # formed[m, k]: times numerator (m, k) was formed

    def counted_block(p, mesh, start, stop, lo=0, hi=None):
        formed[start + 1 : stop + 1, lo + 1 : (stop if hi is None else hi) + 1] += 1
        return l1_weight_block(p, mesh, start, stop, lo, hi)

    monkeypatch.setattr(l1_scheme, "l1_weight_block", counted_block)
    edge = l1_scheme._HEAD + l1_scheme._ROWS  # the longest march with no column past the head
    graded = tuple(build_mesh(1.0, M, r) for M, r in ((32, 2.0), (100, 1.5), (edge, 2.0), (edge + 1, 2.0), (2100, 2.0)))
    for mesh in graded + (build_mesh(1.0, 100), build_mesh(0.3, 128)):
        M = mesh.M
        rhs = np.random.default_rng(7).standard_normal(M + 1)
        formed = np.zeros((M + 1, M + 1), dtype=int)
        V = march_l1(alpha, mesh, lam, rhs)
        lower = np.tril(formed[1:, 1:])  # k <= m; the zeros beyond the diagonal are not counted
        assert np.all(lower == (0 if mesh.uniform else _formed_once(M)))
        if M > 128:
            continue  # the dense residual check below is O(M^3)
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
    # time, for a scalar and three modes up to 2e4
    mesh = build_mesh(1.0, M, 1.0)
    stepped = dataclasses.replace(mesh, r=1.0 + 1e-12)
    t = mesh.nodes
    cases = (
        (2.5, np.sin(3.0 * t) + t**0.7),
        (np.array([1.0, 50.0, 2e4]), np.outer(t**0.7, [1.0, 2.0, 3.0])),
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
    for alpha in (0.0, 1.0, 1.5, -0.5, math.nan):
        # 1.5 and NaN marched to NaN, 0 to a number
        for grid in (mesh, build_mesh(1.0, 8, 2.0)):
            with pytest.raises(ValueError, match="alpha"):
                march_l1(alpha, grid, 1.0, np.zeros(9))
        with pytest.raises(ValueError, match="alpha"):
            build_l1(mesh, alpha)
    for grid in (mesh, build_mesh(1.0, 8, 2.0)):
        with pytest.raises(ValueError, match="lam"):
            march_l1(0.5, grid, lambda a0, load, b: b, np.zeros((9, 3)))  # no local-solve callable
        for shape in (8, 10, (8, 2), ()):
            with pytest.raises(ValueError, match="rhs"):
                march_l1(0.5, grid, 1.0, np.zeros(shape))  # one row per node 0..8
        for lam, shape in ((np.ones(2), 9), (np.ones(3), (9, 2)), (np.ones((2, 2)), (9, 2))):
            with pytest.raises(ValueError, match="lam"):
                march_l1(0.5, grid, lam, np.zeros(shape))  # one entry per rhs column
        # NaN passed the degenerate-step check, which compares False, and so did
        # +inf: both marched to NaN
        for lam, shape in ((math.nan, 9), (math.inf, 9), (-math.inf, 9), (np.array([1.0, math.nan]), (9, 2))):
            with pytest.raises(ValueError, match="lam must be finite"):
                march_l1(0.5, grid, lam, np.ones(shape))


def _numerators(p, t, m):
    # (t_m - t_{k-1})^p - (t_m - t_k)^p for k = 1..m, one row at a time
    pw = (t[m] - t[: m + 1]) ** p
    return pw[:-1] - pw[1:]


@pytest.mark.filterwarnings("ignore:grading r")
@pytest.mark.parametrize("alpha,r", [(0.25, 7.0), (0.75, 5.0 / 12.0), (0.5, 2.0)])
@pytest.mark.parametrize("M", [1, 31, 32, 33, 63, 64, 65, 1000, 1100])
def test_weight_block_rows_match_the_formula(alpha, r, M):
    # block rows are the numerators bit for bit, +0.0 beyond the diagonal,
    # and l1_weight_row divides one of them by tau_k Gamma(2-a); so is every
    # range of columns: runs of 1024 columns before the block, the near
    # block, and ranges across the diagonal and across column 1024; for the
    # L1 exponent 1 - a and for product integration's 1 + a
    mesh = build_mesh(1.0, M, r)
    t = mesh.nodes
    scale = mesh.steps * math.gamma(2.0 - alpha)
    rows, cols = l1_scheme._ROWS, 1024
    for p in (1.0 - alpha, 1.0 + alpha):
        for start in range(0, M, rows):
            stop = min(start + rows, M)
            want = np.zeros((stop - start, stop))
            for i, m in enumerate(range(start + 1, stop + 1)):
                want[i, :m] = _numerators(p, t, m)
                if p < 1.0:
                    assert l1_weight_row(alpha, mesh, m).tobytes() == (want[i, :m] / scale[:m]).tobytes()
            assert l1_weight_block(p, mesh, start, stop).tobytes() == want.tobytes()
            ranges = [(lo, min(lo + cols, start)) for lo in range(0, start, cols)]
            ranges += [(start, stop), (max(start - 5, 0), stop), (max(start - 5, 0), start + 1)]
            if stop > cols - 3:
                ranges.append((cols - 3, min(cols + 5, stop)))
            for lo, hi in ranges:
                block = l1_weight_block(p, mesh, start, stop, lo, hi)
                assert block.shape == (stop - start, hi - lo)
                assert block.tobytes() == want[:, lo:hi].tobytes(), (p, start, lo, hi)


@pytest.mark.parametrize("nu", [0.5, 1.5])
def test_product_integration_tiles_match_the_row_sums(nu):
    # frac_integrate_numeric sums each block of rows against all columns up
    # to the block's end in one product; at M = 1100 every row must still be
    # the per-row numerator sum
    mesh = build_mesh(1.0, 1100, 2.0)
    t, f = mesh.nodes, np.exp(mesh.nodes)
    slopes = np.diff(f) / mesh.steps
    out = frac_integrate_numeric(f, nu, mesh)
    want = f[0] * t**nu / math.gamma(1.0 + nu)
    want[1:] += [_numerators(1.0 + nu, t, m) @ slopes[:m] / math.gamma(2.0 + nu) for m in range(1, mesh.M + 1)]
    assert np.all(np.abs(out - want) <= 1e-14 * np.abs(want))


def _stepped_march(alpha, mesh, lam, rhs):
    # the graded scheme one step at a time, the weight row rebuilt at each
    t = mesh.nodes
    V = np.zeros(rhs.shape)
    D = np.zeros(rhs.shape)  # D[k-1] = V^k - V^{k-1}
    for m in range(1, mesh.M + 1):
        row = _numerators(1.0 - alpha, t, m) / (mesh.steps[:m] * math.gamma(2.0 - alpha))
        a0, hist = row[-1], row[:-1] @ D[: m - 1]
        V[m] = (rhs[m] + a0 * V[m - 1] - hist) / (a0 + lam)
        D[m - 1] = V[m] - V[m - 1]
    return V


@pytest.mark.parametrize("alpha,r", [(0.25, 7.0), (0.75, 5.0 / 3.0), (0.5, 2.0)])
@pytest.mark.parametrize("M", [1, 31, 32, 33, 65, 200, 1100, 2100])
def test_block_march_matches_stepped_graded_march(alpha, r, M):
    # blocks of rows (far history a head of tile products and a sum of
    # exponentials past it, near block one solve) against the step-by-step
    # march, for a scalar and three modes up to 2e4; M = 200 is all head
    mesh = build_mesh(1.0, M, r)
    t = mesh.nodes
    cases = (
        (2.5, np.sin(3.0 * t) + t**0.7),
        (np.array([1.0, 50.0, 2e4]), np.outer(t**0.7, [1.0, 2.0, 3.0])),
    )
    for lam, rhs in cases:
        V = march_l1(alpha, mesh, lam, rhs)
        ref = _stepped_march(alpha, mesh, lam, rhs)
        assert np.max(np.abs(V - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("r", [1.0, 7.0])
@pytest.mark.parametrize("M", [100, 1100])
def test_scalar_march_is_the_one_mode_march(M, r):
    # a scalar lam is marched as one mode column: the same bytes
    alpha, lam = 0.4, 2.5
    mesh = build_mesh(1.0, M, r)
    rhs = np.sin(3.0 * mesh.nodes) + mesh.nodes**0.7
    one_mode = march_l1(alpha, mesh, np.array([lam]), rhs[:, None])[:, 0]
    assert march_l1(alpha, mesh, lam, rhs).tobytes() == one_mode.tobytes()


def test_graded_march_peaks_below_one_block_of_full_rows():
    # the far history is built from one head tile of _HEAD columns and
    # the exponentials' history (M = 4096), or from the exponentials alone
    # (M = 8192), so a march never holds a block of _ROWS full-width rows
    # of numerators (2 and 4 MiB; it peaks at 0.7 MiB)
    march_l1(0.25, build_mesh(1.0, 64, 7.0), 1.0, np.zeros(65))  # first-call set-up outside the measurement
    for M in (4096, 8192):
        mesh = build_mesh(1.0, M, 7.0)
        rhs = np.sin(3.0 * mesh.nodes)
        tracemalloc.start()
        try:
            march_l1(0.25, mesh, 1.0, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < l1_scheme._ROWS * M * 8, M


@pytest.mark.filterwarnings("ignore:grading r")
@pytest.mark.parametrize("alpha", [0.25, 0.75])
@pytest.mark.parametrize("r,ulps", [(7.0, 0), (1.75, 0), (5.0 / 3.0, 0), (2.0, 0), (5.0 / 12.0, 2)])
def test_half_numerators_are_summed_fine_column_pairs(alpha, r, ulps):
    # a cell of the half mesh is two fine cells, so the half's numerator
    # (j, i) is the fine row 2j summed over columns 2i - 1 and 2i; the two
    # fine differences are exact (Sterbenz) when the steps grow (r >= 1),
    # and the sum is then the half's own numerator bit for bit
    M, p = 2200, 1.0 - alpha
    fine, half = build_mesh(1.0, M, r), build_mesh(1.0, M // 2, r)
    for start in range(0, M, l1_scheme._ROWS):
        stop = min(start + l1_scheme._ROWS, M)
        rows = l1_weight_block(p, fine, start, stop)[1::2]
        summed = rows[:, ::2] + rows[:, 1::2]
        want = l1_weight_block(p, half, start // 2, stop // 2)
        if ulps == 0:
            assert summed.tobytes() == want.tobytes(), start
        else:
            assert np.all(np.abs(summed - want) <= ulps * np.spacing(np.abs(want))), start


@pytest.mark.filterwarnings("ignore:grading r")
@pytest.mark.parametrize("alpha", [0.25, 0.75])
@pytest.mark.parametrize("r", [7.0, 1.75, 5.0 / 12.0])
@pytest.mark.parametrize("M", [2, 64, 2200])
def test_pair_march_matches_separate_marches(alpha, r, M):
    # a mesh marched with its half against a march of each alone, for a
    # scalar and three modes up to 2e4; the far sums differ in order and,
    # at M = 2200, in the head: 256 columns of the half alone, 128 in the
    # pair
    fine = build_mesh(1.0, M, r)
    half = half_mesh(fine)
    for lam, modes in ((2.5, None), (np.array([1.0, 50.0, 2e4]), [1.0, 2.0, 3.0])):
        rhs, rhs_half = (
            np.sin(3.0 * t) + t**0.7 if modes is None else np.outer(t**0.7, modes)
            for t in (fine.nodes, half.nodes)
        )
        V_half, V = march_l1(alpha, fine, lam, rhs, rhs_half)
        for got, mesh, b in ((V_half, half, rhs_half), (V, fine, rhs)):
            ref = march_l1(alpha, mesh, lam, b)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_pair_march_forms_only_the_fine_numerators(monkeypatch):
    # the fine numerators of _formed_once, each exactly once, and not one
    # numerator on the half mesh
    formed, meshes = None, []

    def counted_block(p, mesh, start, stop, lo=0, hi=None):
        meshes.append(mesh)
        formed[start + 1 : stop + 1, lo + 1 : (stop if hi is None else hi) + 1] += 1
        return l1_weight_block(p, mesh, start, stop, lo, hi)

    monkeypatch.setattr(l1_scheme, "l1_weight_block", counted_block)
    edge = l1_scheme._HEAD + l1_scheme._ROWS  # the longest march with no column past the head
    for M in (2, 100, edge, edge + 2, 2100):
        fine = build_mesh(1.0, M, 2.0)
        rhs = np.random.default_rng(7).standard_normal(M + 1)
        formed, meshes = np.zeros((M + 1, M + 1), dtype=int), []
        march_l1(0.4, fine, 2.5, rhs, rhs[::2])
        assert all(mesh is fine for mesh in meshes)
        assert np.all(np.tril(formed[1:, 1:]) == _formed_once(M))


@pytest.mark.parametrize("alpha", [1e-4, 0.02, 0.25, 0.5, 0.75, 0.98, 0.9999])
@pytest.mark.parametrize("delta", [1e-8, 1e-16, 1e-26, 1e-80, 1e-300])
def test_soe_kernel_within_its_stated_accuracy(alpha, delta):
    # sum_j w_j exp(-s_j t) against t^{-a} on [delta, T], relative error
    # below 2.5e-15, every node and weight positive, and N trapezoid points
    # x_0 + j/4 from x_0 = floor(-4 log(40/a))/4 to past log(40 T/delta); a
    # head lets a march of up to 4160 steps reach far smaller gaps than
    # 1e-26, and with every weight from exp(a u) the error was 2.3e-14 at
    # delta = 1e-300; alpha 1e-4 and 0.9999 stand for the ends of the open
    # interval (0, 1) that check_alpha admits (worst errors 1.3e-15 and
    # 1.1e-15)
    for T in (0.3, 1.0, 3.0, 100.0):
        s, w = l1_scheme.soe_kernel(alpha, delta, T)
        x0 = math.floor(-4.0 * math.log(40.0 / alpha)) / 4.0
        assert len(s) == len(w) == math.floor(4.0 * (math.log(40.0 * T / delta) - x0)) + 2
        assert np.all(w > 0.0) and np.all(s > 0.0)
        t = np.geomspace(delta, T, 3000)
        err = np.exp(-np.outer(t, s)) @ w * t**alpha - 1.0
        assert np.max(np.abs(err)) < 2.5e-15, (T, np.max(np.abs(err)))
    # N at delta = 1e-8 and 1e-26 for T = 1, 204 and 540 with the former
    # Gauss-Jacobi rule and Gauss-Legendre panels; a small a needs more
    # points below s = 1/T
    want = {
        1e-4: (142, 308), 0.02: (121, 287), 0.25: (111, 277), 0.5: (108, 274),
        0.75: (106, 272), 0.98: (105, 271), 0.9999: (105, 271),
    }[alpha]
    assert tuple(len(l1_scheme.soe_kernel(alpha, d, 1.0)[0]) for d in (1e-8, 1e-26)) == want


@pytest.mark.parametrize("alpha", [0.02, 0.25, 0.75, 0.98])
def test_soe_kernel_for_a_larger_gap_is_a_prefix(alpha):
    # a kernel fitted for a larger delta is the first N terms of one fitted
    # for a smaller delta, bit for bit, N as in the accuracy test above; at
    # a = 0.02 the first e^u underflow to 0, and those nodes are raised to
    # a positive s whose e^{-s T} is 1 and whose cell factor
    # (1 - e^{-s tau}) / s is tau
    x0 = math.floor(-4.0 * math.log(40.0 / alpha)) / 4.0
    for T in (0.3, 1.0, 100.0):
        s, w = l1_scheme.soe_kernel(alpha, 1e-300, T)
        assert np.all(s > 0.0)
        for delta in (1e-200, 1e-26, 1e-8, 1e-3, 0.1 * T):
            n = math.floor(4.0 * (math.log(40.0 * T / delta) - x0)) + 2
            s2, w2 = l1_scheme.soe_kernel(alpha, delta, T)
            assert len(s2) == len(w2) == n < len(s)
            assert s2.tobytes() == s[:n].tobytes() and w2.tobytes() == w[:n].tobytes()
        assert (math.exp(x0 - math.exp(-x0)) == 0.0) == (alpha == 0.02)
        flat = np.exp(-s * T) == 1.0
        assert flat[0]
        for tau in (1e-17 * T, 1e-3 * T):
            assert np.allclose(-np.expm1(-s[flat] * tau) / s[flat], tau, rtol=1e-15, atol=0.0)


@pytest.mark.filterwarnings("ignore:grading r")
@pytest.mark.parametrize("alpha", [0.25, 0.75])
@pytest.mark.parametrize("r", [5.0 / 3.0, 5.0 / 12.0, 7.0])
@pytest.mark.parametrize("M", [1, 33, 2100])
def test_soe_march_matches_the_tile_march(monkeypatch, alpha, r, M):
    # the sum-of-exponentials far history past the head, and with no head
    # (the gate lowered), against exact tiles for every column, for a
    # scalar and three modes up to 2e4, alone and with the half
    mesh = build_mesh(1.0, M, r)
    t = mesh.nodes
    cases = (
        (2.5, np.sin(3.0 * t) + t**0.7),
        (np.array([1.0, 50.0, 2e4]), np.outer(t**0.7, [1.0, 2.0, 3.0])),
    )

    def marches(lam, rhs):  # alone, then as a pair (half, fine) where M is even
        pair = march_l1(alpha, mesh, lam, rhs, rhs[::2]) if M % 2 == 0 else ()
        return [march_l1(alpha, mesh, lam, rhs), *pair]

    for lam, rhs in cases:
        with monkeypatch.context() as patch:
            patch.setattr(l1_scheme, "_HEAD", M)
            want = marches(lam, rhs)
        for gate in (l1_scheme._SOE_M, 0):  # a head, then none
            with monkeypatch.context() as patch:
                patch.setattr(l1_scheme, "_SOE_M", gate)
                got = marches(lam, rhs)
            assert len(got) == len(want) == (3 if M % 2 == 0 else 1)
            for g, ref in zip(got, want):
                assert g.shape == ref.shape
                assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("ignore:grading r")
@pytest.mark.parametrize("r", [5.0 / 3.0, 5.0 / 12.0])
def test_soe_pair_march_above_the_gate(monkeypatch, r):
    # a pair at M = 8192 (sum of exponentials) against the tile pair and
    # against a march of each mesh alone (the half, M = 4096, past a head)
    alpha, M = 0.75, 8192
    fine = build_mesh(1.0, M, r)
    half = half_mesh(fine)
    lam, modes = np.array([1.0, 50.0, 2e4]), [1.0, 2.0, 3.0]
    rhs, rhs_half = (np.outer(np.cos(t) + t**0.7, modes) for t in (fine.nodes, half.nodes))
    pair = march_l1(alpha, fine, lam, rhs, rhs_half)
    with monkeypatch.context() as patch:
        patch.setattr(l1_scheme, "_SOE_M", M)
        patch.setattr(l1_scheme, "_HEAD", M)
        tiles = march_l1(alpha, fine, lam, rhs, rhs_half)
    alone = (march_l1(alpha, half, lam, rhs_half), march_l1(alpha, fine, lam, rhs))
    for got, a, b in zip(pair, tiles, alone):
        for ref in (a, b):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_head_keeps_table_2_noise_cells(monkeypatch):
    # table 2's alpha 0.25, n 0, r 7 study against all-tile marches (the
    # head over every column): its errors at M 256 to 2048 are rounding
    # noise of the cancelling numerators in the first ~100 columns, so the
    # exact head keeps every one within 1e-6 relative, and no head moves
    # some row by more than 1%
    spec = make_relaxation_study(0.25, n=0, r=7.0)
    Ms = default_ms(spec)

    def errors(head):
        with monkeypatch.context() as patch:
            patch.setattr(l1_scheme, "_HEAD", l1_scheme._HEAD if head is None else head)
            return np.array([row.error for row in run_study(spec, Ms).rows])

    shipped, tiles = errors(None), errors(2 * Ms[-1])
    assert np.max(np.abs(shipped / tiles - 1.0)) < 1e-6
    assert np.max(np.abs(errors(0) / tiles - 1.0)) > 1e-2


def test_soe_march_forms_only_near_numerators(monkeypatch):
    # above the gate no far tile is formed: each block's numerators are
    # its own near block, formed once, in a march and in a pair march
    M = l1_scheme._SOE_M + 2 * l1_scheme._ROWS
    mesh = build_mesh(1.0, M, 2.0)
    calls = []

    def counted_block(p, mesh, start, stop, lo=0, hi=None):
        calls.append((start, stop, lo, hi))
        return l1_weight_block(p, mesh, start, stop, lo, hi)

    monkeypatch.setattr(l1_scheme, "l1_weight_block", counted_block)
    rhs = np.sin(3.0 * mesh.nodes)
    rows = l1_scheme._ROWS
    blocks = [(a, min(a + rows, M), a, min(a + rows, M)) for a in range(0, M, rows)]
    for half in (None, rhs[::2]):
        calls.clear()
        march_l1(0.4, mesh, 2.5, rhs, half)
        assert calls == blocks


def test_import_leaves_concurrent_futures_unloaded():
    # no solver uses a thread pool; concurrent.futures would add its
    # import time to every run
    env = {**os.environ, "PYTHONPATH": str(Path(msdfrac.__file__).parents[1])}
    code = "import sys, msdfrac; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_pair_march_validation():
    graded = build_mesh(1.0, 8, 2.0)
    with pytest.raises(ValueError, match="half_rhs"):
        march_l1(0.5, graded, 1.0, np.zeros(9), np.zeros(4))  # one row per node t_0, t_2, .., t_8
    with pytest.raises(ValueError, match="half_rhs"):
        march_l1(0.5, graded, 1.0, np.zeros(9), np.zeros((5, 2)))  # the fine rhs has one column
    for mesh in (build_mesh(1.0, 8), build_mesh(1.0, 7, 2.0)):  # uniform, odd M
        with pytest.raises(ValueError, match="half"):
            march_l1(0.5, mesh, 1.0, np.zeros(mesh.M + 1), np.zeros(mesh.M // 2 + 1))
    with pytest.raises(ValueError, match="a mesh has a half only at even M, got M = 7"):
        half_mesh(build_mesh(1.0, 7, 2.0))
    # a mesh whose every other node is not build_mesh(T, M/2, r) has no half
    nodes = graded.nodes.copy()
    nodes[2] += 1e-9
    with pytest.raises(ValueError, match="not nested"):
        half_mesh(dataclasses.replace(graded, nodes=nodes))


def _longdouble_uniform_march(alpha, M, lam, rhs):
    # the uniform scheme one step at a time on the differences, in long
    # double: a_g = ((g + 1)^{1-a} - g^{1-a}) tau^{-a} / Gamma(2-a)
    b = 1 - np.longdouble(alpha)
    g = np.arange(M + 1, dtype=np.longdouble)
    a = (g[1:] ** b - g[:-1] ** b) * np.longdouble(M) ** np.longdouble(alpha) / math.gamma(2.0 - alpha)
    rhs = rhs.astype(np.longdouble)
    V = np.zeros(M + 1, dtype=np.longdouble)
    D = np.zeros(M, dtype=np.longdouble)  # D[k-1] = V^k - V^{k-1}
    for m in range(1, M + 1):
        hist = a[m - 1 : 0 : -1] @ D[: m - 1]
        V[m] = (rhs[m] + a[0] * V[m - 1] - hist) / (a[0] + lam)
        D[m - 1] = V[m] - V[m - 1]
    return V


@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_uniform_march_matches_a_long_double_solve(alpha):
    # the Toeplitz march sums its history on the values, not the
    # differences, and keeps about two digits fewer (2.3e-15 at alpha
    # 0.3 and 1.6e-13 at 0.9 when measured); the table cells it feeds are
    # 7.1e-8 and larger
    M, lam = 4096, 1.0
    t = build_mesh(1.0, M).nodes
    rhs = np.sin(3.0 * t) + t**0.7
    V = march_l1(alpha, build_mesh(1.0, M), lam, rhs)
    ref = _longdouble_uniform_march(alpha, M, lam, rhs)
    assert float(np.max(np.abs(V - ref)) / np.max(np.abs(ref))) <= 1e-12


def test_overflowing_march_is_reported():
    # lam near the degenerate limit -a0 of the largest step makes V grow: on
    # the uniform mesh (toeplitz.march), on graded ones (the block loop; at T
    # = 1e6 its products warned of the overflow) and in a pair march whose half
    # overflows first, V passes the double range, and the march names the first
    # step that is not finite instead of returning inf and NaN
    def lam(alpha, mesh, eps):
        return -(1.0 - eps) * mesh.steps.max() ** -alpha / math.gamma(2.0 - alpha)

    uniform, graded, wide = build_mesh(1.0, 600), build_mesh(1.0, 2048, 2.0), build_mesh(1e6, 1024, 1.2)
    cases = [
        (0.3, uniform, lam(0.3, uniform, 0.1), None, "step 257 of 600"),
        (0.3, graded, lam(0.3, graded, 1e-12), None, "step 1537 of 2048"),
        (0.1, wide, lam(0.1, wide, 1e-9), None, "step 1024 of 1024"),
        (0.9, graded, lam(0.9, half_mesh(graded), 1e-6), np.ones(1025), "step 961 of 1024"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, mesh, lam_, half_rhs, step in cases:
            with pytest.raises(ValueError, match=f"^the solution overflows double precision: {step} is not finite$"):
                march_l1(alpha, mesh, lam_, np.ones(mesh.M + 1), half_rhs)
        # short of the double range the graded march runs as before
        mesh = build_mesh(1.0, 1024, 2.0)
        assert 1e230 < np.abs(march_l1(0.3, mesh, lam(0.3, mesh, 1e-12), np.ones(mesh.M + 1))).max() < np.inf


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_non_finite_rhs_is_blamed_on_the_rhs(r):
    # a NaN in rhs or an inf in half_rhs used to march on and be reported as
    # "the solution overflows double precision: step 1 of ..."; rhs[0] is never read
    mesh = build_mesh(1.0, 16, r)
    rhs = np.ones(17)
    rhs[5] = np.nan
    with pytest.raises(ValueError, match="^rhs must be finite, but row 5 is not$"):
        march_l1(0.5, mesh, 1.0, rhs)
    modes = np.ones((17, 3))
    modes[16, 2] = -np.inf
    with pytest.raises(ValueError, match="^rhs must be finite, but row 16 is not$"):
        march_l1(0.5, mesh, np.ones(3), modes)
    rhs[5] = 1.0
    if r != 1.0:
        half = np.ones(9)
        half[3] = np.inf
        with pytest.raises(ValueError, match="^half_rhs must be finite, but row 3 is not$"):
            march_l1(0.5, mesh, 1.0, rhs, half)
    rhs[0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert march_l1(0.5, mesh, 1.0, rhs).tobytes() == march_l1(0.5, mesh, 1.0, np.ones(17)).tobytes()
