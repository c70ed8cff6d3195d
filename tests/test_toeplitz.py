import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdfrac import build_cq, toeplitz
from msdfrac.reference import toeplitz_inverse_steps

# The doubling inverse forms its products by FFT, whose rounding is
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
    w = build_cq(alpha, M)[:M]
    return np.cumsum(tau**alpha / 2.0 * np.concatenate([w[:1], w[1:] + w[:-1]]))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", LENGTHS)
def test_block_inverse_matches_forward_substitution_and_dense_solve(n, q):
    rng = np.random.default_rng(100 * n + q)
    g = np.arange(n, dtype=float)[:, None, None]
    kern = rng.uniform(-1.0, 1.0, (n, q, q)) / (1.0 + g) ** 1.5
    kern[0] = np.eye(q)
    nb = min(n, toeplitz._BLOCK)
    z = toeplitz._inverse(kern[:nb], None)
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
        z = toeplitz._inverse(kern[:nb], shift)
        assert z.shape == (nb,) + np.shape(shift)
        assert _relerr(z, toeplitz_inverse_steps(kern[:nb], shift)) <= tol
    for lam in [0.0, 1.0, 1e3]:
        dense = np.linalg.solve(_dense(kern[:nb], a0 + lam), np.eye(nb)[:, 0])
        assert _relerr(toeplitz._inverse(kern[:nb], lam), dense) <= TOL


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_modal_inverse_on_cq_kernels(alpha, n):
    # the shifts 1/(tau lam) of solve_integro, for the discrete Laplacian's
    # smallest and largest eigenvalues at J = 32 and one in between
    kern = _cq_kernel(alpha, n)
    nb = min(n, toeplitz._BLOCK)
    lam = 4.0 * 32**2 * np.sin(np.array([1, 8, 31]) * np.pi / 64) ** 2
    shifts = n / lam
    z = toeplitz._inverse(kern[:nb], shifts)
    assert _relerr(z, toeplitz_inverse_steps(kern[:nb], shifts)) <= TOL
    for k, s in enumerate(shifts):
        dense = np.linalg.solve(_dense(kern[:nb], kern[0] + s), np.eye(nb)[:, 0])
        assert _relerr(z[:, k], dense) <= TOL
        assert _relerr(toeplitz._inverse(kern[:nb], s), dense) <= TOL


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
    assert _relerr(toeplitz._inverse(kern[:nb], shift), toeplitz_inverse_steps(kern[:nb], shift)) <= TOL


@pytest.mark.parametrize("M", [1, 16, 255, 256, 257, 1000])
def test_march_impulse_response_is_the_inverse_column(M):
    # march's whole first (block) column against forward substitution over all
    # M entries: one block, far history, and a shorter last block.  Where z grows
    # (a negative shift), a shorter last block solved with the leading part of a
    # full block's z was off by 0.66% of max |z| at M = 257 for alpha 0.3 and by
    # 1e53 times max |z| for alpha 0.9 (shift -a0/2): it carried the rounding of
    # the full block's last doubling step and of a product with all of z
    rng = np.random.default_rng(M)
    g = np.arange(M, dtype=float)[:, None, None]
    for q in (1, 2, 3):
        kern = rng.uniform(-1.0, 1.0, (M, q, q)) / (1.0 + g) ** 1.5  # kern[0] is not read: K[0] = I
        x = np.zeros((M, q, q))
        x[0] = np.eye(q)
        assert _relerr(toeplitz.march(kern, x), toeplitz_inverse_steps(kern)) <= TOL
    lam = 4.0 * 32**2 * np.sin(np.array([1, 8, 31]) * np.pi / 64) ** 2
    cases = [(_cq_kernel(alpha, M), M / lam, TOL) for alpha in (0.25, 0.75)]
    for alpha in (0.3, 0.9):
        kern = _l1_kernel(alpha, M)
        cases += [(kern, np.array([0.0, 1.0, 1e3, 1e8]), TOL), (kern, np.array([-0.5, -0.2]) * kern[0], TOL_GROWING)]
    for kern, shift, tol in cases:
        x = np.zeros((M, len(shift)))
        x[0] = 1.0
        assert _relerr(toeplitz.march(kern, x, shift), toeplitz_inverse_steps(kern, shift)) <= tol


@pytest.mark.parametrize("M", [385, 450, 500])
def test_march_in_the_growth_regime(M):
    # the uniform L1 kernel at alpha 0.3 with shift -0.9 a0: max |z| is
    # 1.6e232 (M = 385) .. 4.7e301 (M = 500), and the march's impulse
    # response is 1.95e-7, 3.43e-8 and 3.86e-9 of max |z| off forward
    # substitution, against 5.5e-14 for every milder case of a sweep over
    # M = 257..1100
    kern = _l1_kernel(0.3, M)
    shift = np.array([-0.9 * kern[0]])
    x = np.zeros((M, 1))
    x[0] = 1.0
    ref = toeplitz_inverse_steps(kern, shift)
    assert 1e232 < np.abs(ref).max() < 1e302
    assert _relerr(toeplitz.march(kern, x, shift), ref) <= 1e-6


def test_march_reports_an_overflowing_solution():
    # at M = 600 the same z passes the double range in its second block
    M = 600
    kern = _l1_kernel(0.3, M)
    x = np.zeros((M, 1))
    x[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the solution overflows double precision: step 257 of 600 is not finite$"):
            toeplitz.march(kern, x, np.array([-0.9 * kern[0]]))


@pytest.mark.parametrize("M", [5, 16, 100, 300, 1000])
def test_march_with_doubled_inverse_solves_the_system(M):
    # the whole march against a dense solve: short, exact-power, ragged and
    # multi-block columns of z
    kern = _l1_kernel(0.6, M)
    rng = np.random.default_rng(M)
    x = rng.standard_normal((M, 2))
    lam = np.array([0.5, 40.0])
    u = toeplitz.march(kern, x.copy(), lam)
    for k in range(2):
        ref = np.linalg.solve(_dense(kern, kern[0] + lam[k]), x[:, k])
        assert _relerr(u[:, k], ref) <= TOL


def test_repeated_march_reuses_its_block_inverses(monkeypatch):
    # a march of 300 steps inverts a full block and a shorter last one; the
    # same system again inverts nothing and gives the same bytes, a change of
    # kern or shift inverts anew, and the kept columns are read-only
    calls, kept = [], []
    inverse = toeplitz._inverse

    def counted(col, shift=None):
        calls.append(len(col))
        kept.append(inverse(col, shift))
        return kept[-1]

    monkeypatch.setattr(toeplitz, "_inverse", counted)
    toeplitz._inverse_of.cache_clear()
    M = 300
    kern, rng = _l1_kernel(0.6, M), np.random.default_rng(M)
    x, lam = rng.standard_normal((M, 2)), np.array([0.5, 40.0])
    blocks = rng.uniform(-1.0, 1.0, (M, 2, 2)) / (1.0 + np.arange(M))[:, None, None] ** 1.5
    bx = rng.standard_normal((M, 2))
    first = toeplitz.march(kern, x.copy(), lam)
    first_blocks = toeplitz.march(blocks, bx.copy())
    assert calls == [256, 44] * 2
    assert toeplitz.march(kern, x.copy(), lam).tobytes() == first.tobytes()
    assert toeplitz.march(blocks, bx.copy()).tobytes() == first_blocks.tobytes()
    assert len(calls) == 4
    assert toeplitz._inverse_of.cache_info()[:2] == (4, 4)  # (hits, misses)
    bumped = kern.copy()
    bumped[20] *= 1.0 + 2.0**-52
    # one step less keeps the full block's system and changes the last one's
    for k, shift, inverted in [(kern, np.array([0.5, 41.0]), [256, 44]), (bumped, lam, [256, 44]), (kern[:299], lam, [43])]:
        del calls[:]
        toeplitz.march(k, x[: len(k)].copy(), shift)
        assert calls == inverted
    for z in kept:
        with pytest.raises(ValueError):
            z[0] = 0.0
    # a fresh inverse gives the bytes of a kept one
    toeplitz._inverse_of.cache_clear()
    assert toeplitz.march(kern, x.copy(), lam).tobytes() == first.tobytes()


def test_block_inverse_memo_keeps_the_last_systems():
    # least recently used out first, and never more than _MEMO systems
    toeplitz._inverse_of.cache_clear()
    kerns = [_l1_kernel(alpha, 64) for alpha in np.linspace(0.1, 0.9, toeplitz._MEMO + 1)]
    shift = np.array([1.0])
    for kern in kerns[: toeplitz._MEMO]:
        toeplitz._block_inverse(kern, shift)
    z = toeplitz._block_inverse(kerns[0], shift)  # a hit: now the most recent
    assert not z.flags.writeable
    toeplitz._block_inverse(kerns[-1], shift)  # evicts kerns[1]
    assert toeplitz._inverse_of.cache_info().currsize == toeplitz._MEMO
    assert toeplitz._block_inverse(kerns[0], shift) is z
    misses = toeplitz._inverse_of.cache_info().misses
    toeplitz._block_inverse(kerns[1], shift)  # gone: inverted anew
    assert toeplitz._inverse_of.cache_info().misses == misses + 1
