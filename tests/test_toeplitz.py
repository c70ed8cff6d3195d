import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdfrac import build_cq, toeplitz
from msdfrac.reference import toeplitz_inverse_steps

# The doubling inverses form their products by FFT, whose rounding is
# relative to the largest terms of each product, so every check is
# relative to max |z|, per column of one shift each.  Where z stays
# bounded (no negative shift) the largest error measured was 3.7e-14 of
# max |z|, on CQ kernels, which grow like g^alpha; where z grows by up to
# 1e247 over one block (L1 with lam = -0.9 a0) it was 1.0e-12, which is
# also the accuracy of march's own FFT products in such a block.
TOL = 1e-13
TOL_GROWING = 5e-12
LENGTHS = [1, 2, 15, 16, 17, 100, 255, 256, 300]


def _relerr(z, ref):
    """max |z - ref| relative to max |ref|: per column of one shift each, or
    over all of a block column."""
    scale = np.abs(ref).max(axis=0) if ref.ndim == 2 else np.abs(ref).max()
    return float(np.max(np.abs(z - ref) / scale))


def _dense(kern, diag):
    """Dense lower-triangular Toeplitz matrix of the scalar kern with diag on the diagonal."""
    n = len(kern)
    g = np.subtract.outer(np.arange(n), np.arange(n))
    T = np.where(g >= 0, kern[g.clip(0)], 0.0)
    T[np.diag_indices(n)] = diag
    return T


def _l1_kernel(alpha, M):
    # march_l1's uniform kernel on (0, 1): c_0 = a_0, c_g = a_g - a_{g-1}
    pw = np.arange(M + 1, dtype=float) ** (1.0 - alpha)
    a = (pw[1:] - pw[:-1]) * M**alpha / math.gamma(2.0 - alpha)
    return np.concatenate([a[:1], np.diff(a)])


def _cq_kernel(alpha, M):
    # solve_integro's kernel G on (0, 1), marched with shifts 1/(tau lam)
    tau = 1.0 / M
    w = build_cq(alpha, tau, M).omega[:M]
    return np.cumsum(tau**alpha / 2.0 * np.concatenate([w[:1], w[1:] + w[:-1]]))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", LENGTHS)
def test_block_inverse_matches_forward_substitution_and_dense_solve(n, q):
    rng = np.random.default_rng(100 * n + q)
    g = np.arange(n, dtype=float)[:, None, None]
    kern = rng.uniform(-1.0, 1.0, (n, q, q)) / (1.0 + g) ** 1.5
    kern[0] = np.eye(q)
    z = toeplitz.block_inverse(kern)
    nb = min(n, toeplitz._BLOCK)
    assert z.shape == (nb, q, q)
    assert _relerr(z, toeplitz_inverse_steps(kern[:nb])) <= TOL
    # dense: the nb q x nb q block matrix, solved for its first block column
    blocks = np.zeros((nb, q, nb, q))
    for i in range(nb):
        for j in range(i + 1):
            blocks[i, :, j, :] = kern[i - j]
    rhs = np.zeros((nb * q, q))
    rhs[:q] = np.eye(q)
    dense = np.linalg.solve(blocks.reshape(nb * q, nb * q), rhs).reshape(nb, q, q)
    assert _relerr(z, dense) <= TOL


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_modal_inverse_on_l1_kernels(alpha, n):
    kern = _l1_kernel(alpha, n)
    a0 = kern[0]
    nb = min(n, toeplitz._BLOCK)
    for shift, tol in [
        (0.0, TOL),
        (1.0, TOL),
        (-0.9 * a0, TOL_GROWING),
        (np.array([-0.9 * a0, -0.5 * a0, 0.0, 1.0, 1e3, 1e8]), TOL_GROWING),
    ]:
        z = toeplitz.modal_inverse(kern, shift)
        assert z.shape == (nb,) + np.shape(shift)
        assert _relerr(z, toeplitz_inverse_steps(kern[:nb], shift)) <= tol
    for lam in [0.0, 1.0, 1e3]:
        dense = np.linalg.solve(_dense(kern[:nb], a0 + lam), np.eye(nb)[:, 0])
        assert _relerr(toeplitz.modal_inverse(kern, lam), dense) <= TOL


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_modal_inverse_on_cq_kernels(alpha, n):
    # the shifts 1/(tau lam) of solve_integro, for the discrete Laplacian's
    # smallest and largest eigenvalues at J = 32 and one in between
    kern = _cq_kernel(alpha, n)
    nb = min(n, toeplitz._BLOCK)
    lam = 4.0 * 32**2 * np.sin(np.array([1, 8, 31]) * np.pi / 64) ** 2
    shifts = n / lam
    z = toeplitz.modal_inverse(kern, shifts)
    assert _relerr(z, toeplitz_inverse_steps(kern[:nb], shifts)) <= TOL
    for k, s in enumerate(shifts):
        dense = np.linalg.solve(_dense(kern[:nb], kern[0] + s), np.eye(nb)[:, 0])
        assert _relerr(z[:, k], dense) <= TOL
        assert _relerr(toeplitz.modal_inverse(kern, s), dense) <= TOL


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 400),
    decay=st.floats(2.0, 4.0),
    shifts=st.lists(st.floats(0.0, 1e8), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_modal_inverse_on_random_decaying_kernels(n, decay, shifts, seed):
    # off-diagonal entries summing below the diagonal 1: z stays bounded
    rng = np.random.default_rng(seed)
    kern = rng.uniform(-1.0, 1.0, n) / (1.0 + np.arange(n)) ** decay
    kern[0] = 1.0
    shift = np.array(shifts)
    nb = min(n, toeplitz._BLOCK)
    assert _relerr(toeplitz.modal_inverse(kern, shift), toeplitz_inverse_steps(kern[:nb], shift)) <= TOL


@pytest.mark.parametrize("M", [5, 16, 100, 300, 1000])
def test_march_with_doubled_inverse_solves_the_system(M):
    # the whole march against a dense solve: short, exact-power, ragged and
    # multi-block columns of z
    kern = _l1_kernel(0.6, M)
    rng = np.random.default_rng(M)
    x = rng.standard_normal((M, 2))
    lam = np.array([0.5, 40.0])
    u = toeplitz.march(kern, x.copy(), toeplitz.modal_inverse(kern, lam))
    for k in range(2):
        ref = np.linalg.solve(_dense(kern, kern[0] + lam[k]), x[:, k])
        assert _relerr(u[:, k], ref) <= TOL
