import dataclasses
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from msdfrac import (
    StudyError,
    VolterraProblem,
    collocation_depth,
    make_volterra_study,
    ml_eval,
    msd_volterra_forcing,
    run_study,
    solve_volterra,
    volterra,
)
from msdfrac.reference import collocation_residual, singular_moment, volterra_steps


def test_collocation_depth_values():
    assert collocation_depth(0.25) == 1
    assert collocation_depth(0.5) == 1
    assert collocation_depth(0.75) == 3
    assert collocation_depth(0.9) == 9
    # exact integer ratio must not round up
    assert collocation_depth(0.5, order=2) == 3


def _default_problem(alpha, n=0, T=1.0):
    return VolterraProblem(
        alpha=alpha,
        T=T,
        kernel=1.0 / math.gamma(1.0 - alpha),
        f=1.0,
        n=n,
        q=2,
        c=(2.0 / 3.0, 1.0),
    )


def test_singular_moments_against_quadrature():
    mp.mp.dps = 30
    rng = np.random.default_rng(3)
    for _ in range(25):
        alpha = float(rng.uniform(0.05, 0.95))
        d = float(rng.uniform(1.0, 40.0))
        k = int(rng.integers(0, 3))
        got = singular_moment(alpha, d, k)
        ref = mp.quad(lambda s: (d - s) ** (-alpha) * s**k, [0, 1])
        assert got == pytest.approx(float(ref), rel=5e-13)


def test_moment_large_offset_stability():
    # the binomial closed form loses digits for large d; the series
    # branch must stay accurate there
    mp.mp.dps = 40
    got = singular_moment(0.5, 2000.0, 2)
    ref = mp.quad(lambda s: (2000.0 - s) ** -0.5 * s**2, [0, 1])
    assert got == pytest.approx(float(ref), rel=1e-12)


def _moment_series(alpha, d, q, terms):
    # the positive-term series of _moments summed to a fixed length, in its
    # order of operations
    acc, poch, p = np.zeros((q,) + d.shape), 1.0, np.ones_like(d)
    for l in range(terms):
        w = poch * p
        for k in range(q):
            acc[k] += w / (k + l + 1.0)
        poch *= (alpha + l) / (l + 1.0)
        p *= 1.0 / d
    return np.moveaxis(acc * d ** (-alpha), 0, -1)


@pytest.mark.parametrize("alpha", [0.01, 0.25, 0.5, 0.75, 0.99])
def test_truncated_moment_series_is_the_40_term_series_bit_for_bit(alpha):
    # _moments sums only the terms that the least d >= 3 it is given needs;
    # from d = 3 on every moment must equal the 40-term sum bit for bit,
    # whichever d share the call: all at once, from 3 or 64 on as in
    # _history_blocks' chunks, or one scalar d as singular_moment passes it
    d = np.geomspace(1.0, 1e7, 2001)
    far = d >= 3.0
    for q in range(1, 5):
        ref = _moment_series(alpha, d, q, 40)
        for lo in (1.0, 3.0, 64.0, 1e4):
            sel = d >= lo
            got = volterra._moments(alpha, d[sel], q)
            assert got[far[sel]].tobytes() == ref[sel & far].tobytes()
        for i in np.flatnonzero(far)[::40]:
            assert singular_moment(alpha, float(d[i]), q - 1) == ref[i, q - 1]


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_oracle_mittag_leffler(alpha):
    # u = 1 + I^{1-a} u has the closed solution E_{1-a,1}(t^{1-a});
    # nodal_values runs over t_1..t_M
    prob = _default_problem(alpha, n=collocation_depth(alpha))
    trace = solve_volterra(prob, 1024)
    t = trace.mesh.nodes[1:]
    ref = ml_eval(1.0 - alpha, 1.0, t ** (1.0 - alpha))
    err = np.max(np.abs(trace.nodal_values - ref))
    assert err < 5e-3


@pytest.mark.parametrize("alpha,n", [(0.25, 0), (0.25, 1), (0.75, 3)])
def test_collocation_equations_hold(alpha, n):
    # M = 256 and 257 end on and just past a block edge, 1000 and 3001
    # cross several FFT levels of the constant-kernel march;
    # collocation_residual sums directly
    for c in ((2.0 / 3.0, 1.0), (1.0,), (0.2, 0.6, 1.0)):
        prob_c = dataclasses.replace(_default_problem(alpha, n=n), q=len(c), c=c)
        for M in (64, 256, 257, 1000, 3001):
            trace = solve_volterra(prob_c, M)
            assert collocation_residual(prob_c, trace) < 1e-12
    prob = _default_problem(alpha, n=0)
    # a callable kernel runs the kernel-weighted history on both sides
    kappa = float(prob.kernel)
    prob_k = dataclasses.replace(prob, kernel=lambda s, t: kappa * (1.0 + 0.5 * s * t))
    for M in (64, 1100):  # 1100 crosses four far-history tile edges
        trace = solve_volterra(prob_k, M)
        assert collocation_residual(prob_k, trace) < 1e-12


def test_msd_depths_agree():
    alpha = 0.75
    finals = []
    for n in range(4):
        trace = solve_volterra(_default_problem(alpha, n=n), 2048)
        finals.append(trace.nodal_values[-1])
    ref = ml_eval(0.25, 1.0, 1.0)
    assert np.max(np.abs(np.asarray(finals) - ref)) < 2e-3
    assert max(finals) - min(finals) < 2e-3


def test_forcing_transform_for_constant_f():
    # with K = 1/Gamma(1-a) the operator L is exactly I^{1-a}; the
    # zeroed forcing f~ = L f(0) + f - f(0) for f = 1 is t^{1-a}/Gamma(2-a),
    # and the depth-n forcing is L^n of that
    alpha = 0.4
    prob = _default_problem(alpha, n=2)
    forcing, recon = msd_volterra_forcing(prob)
    t = 0.9
    s = 1.0 - alpha
    ref = t ** (3.0 * s) / math.gamma(1.0 + 3.0 * s)
    assert forcing(t) == pytest.approx(ref, rel=1e-13)
    ref_rec = sum(t ** ((i + 1) * s) / math.gamma(1.0 + (i + 1) * s) for i in range(2))
    assert recon(t) == pytest.approx(ref_rec, rel=1e-13)


def test_general_kernel_path_warns_and_stays_close():
    # K(s, t) = 1/Gamma(1-a) as a callable must give the constant-path
    # depth-1 answer up to the undecomposed scheme's discretization error
    alpha = 0.5
    kconst = 1.0 / math.gamma(1.0 - alpha)
    prob_c = _default_problem(alpha, n=1)
    prob_g = VolterraProblem(
        alpha=alpha,
        T=1.0,
        kernel=lambda s, t: np.full_like(np.broadcast_arrays(s, t)[0], kconst),
        f=1.0,
        n=0,
        q=2,
        c=(2.0 / 3.0, 1.0),
    )
    ref = solve_volterra(prob_c, 256)
    got = solve_volterra(prob_g, 256)
    # the callable kernel is solved without the split, at order 2(1 - a)
    # rather than the split's 2, so agreement is first-order-ish, not exact
    assert np.max(np.abs(got.nodal_values - ref.nodal_values)) < 5e-4


def test_pointwise_forcing_with_scalar_return_matches_constant():
    # a callable f returning one number is broadcast over the collocation
    # points and gives the same solve as the constant profile, bit for bit
    prob = dataclasses.replace(_default_problem(0.5), kernel=lambda s, t: 1.0 + 0.5 * s * t)
    ref = solve_volterra(prob, 32)
    got = solve_volterra(dataclasses.replace(prob, f=lambda t: 1.0), 32)
    assert np.array_equal(got.U, ref.U)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_kernel_march_matches_step_loop(alpha):
    # the callable-kernel march, _CELLS = 32 cells per block and far tiles
    # of _TILE = 256 cells, against the per-cell reference march: M = 1
    # and 31 stay in the first block, 32 and 33 end on and just past a
    # block edge, 257 fills one far tile and 1100 crosses four tile edges
    f = lambda t: np.cos(t) + t**0.5  # noqa: E731
    for kernel in (lambda s, t: 0.3 + 0.2 * np.sin(3.0 * s) * t, lambda s, t: 0.2):
        for c in ((1.0,), (2.0 / 3.0, 1.0), (0.2, 0.6, 1.0)):
            prob = VolterraProblem(alpha=alpha, T=1.0, kernel=kernel, f=f, q=len(c), c=c)
            for M in (1, 31, 32, 33, 257, 1100):
                ref = volterra_steps(prob, M).U
                got = solve_volterra(prob, M).U
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kernel_march_peaks_below_one_block_of_full_rows():
    # the far history is sampled one tile of _TILE history cells at a time,
    # so beyond psi a solve holds a fixed number of _CELLS x q^2 x _TILE
    # products (4.5 of them when measured), never a block of _CELLS
    # full-width rows of samples (4 MiB at M = 4096)
    M, q = 4096, 2
    prob = VolterraProblem(alpha=0.5, T=1.0, kernel=lambda s, t: 1.0 + 0.5 * s * t, f=1.0)
    volterra._PSI.clear()  # psi of M is formed inside the measurement, not sliced from a larger one
    solve_volterra(prob, 64)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        solve_volterra(prob, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    psi_bytes = (M + 1) * q * q * 8
    assert peak < psi_bytes + 6 * volterra._CELLS * q * q * volterra._TILE * 8


def test_history_moments_are_formed_in_chunks():
    # psi is formed _GAPS gaps at a time: every entry as from all gaps at
    # once, bit for bit, while the series scratch of all gaps at once
    # peaked at 5.5 times psi at M = 16384 (2.75 MiB)
    M, c = 16384, (2.0 / 3.0, 1.0)
    A = volterra._lagrange_coeffs(c)
    volterra._PSI.clear()  # psi of M is formed inside the measurement, not sliced from a larger one
    volterra._history_blocks(0.25, c, 64)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        psi = volterra._history_blocks(0.25, c, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * psi.nbytes
    whole = volterra._moments(0.25, np.arange(1.0, M + 1.0)[:, None] + np.asarray(c), len(c)) @ A
    assert psi[0].tobytes() == bytes(psi[0].nbytes)
    assert psi[1:].tobytes() == whole.tobytes()


def test_history_moments_memo_hands_out_read_only_prefixes():
    # psi at M sliced from a table kept at 16 M is a fresh table of M bit
    # for bit; another alpha or c forms its own table
    c, M = (2.0 / 3.0, 1.0), 1000
    volterra._PSI.clear()
    fresh = volterra._history_blocks(0.25, c, M).copy()
    volterra._PSI.clear()
    big = volterra._history_blocks(0.25, c, 16 * M)
    psi = volterra._history_blocks(0.25, c, M)
    assert np.shares_memory(psi, big) and psi.tobytes() == fresh.tobytes()
    for alpha, other_c in [(0.75, c), (0.25, (0.5, 1.0))]:
        other = volterra._history_blocks(alpha, other_c, M)
        assert not np.shares_memory(other, big)
        volterra._PSI.clear()
        assert other.tobytes() == volterra._history_blocks(alpha, other_c, M).tobytes()
    for arr in (big, psi, other):
        with pytest.raises(ValueError):
            arr[1, 0, 0] = 0.0
        with pytest.raises(ValueError):
            arr.flags.writeable = True


def test_large_kernel_solves_without_warnings():
    # the local system's singularity test is scale-free: its determinant
    # overflowed at K = 1e200 and warned, once for the constant kernel and
    # once per block of the callable one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (1e200, lambda s, t: 1e200):
            U = solve_volterra(VolterraProblem(alpha=0.5, T=10.0, kernel=kernel, f=1.0), 300).U
            assert np.isfinite(U).all()


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_toeplitz_march_matches_kernel_march(alpha):
    # pointwise f with a constant kernel takes toeplitz.march; the same
    # constant as a callable K(s, t) takes the blocked callable-kernel
    # march.  M = 257 ends just past a Toeplitz block edge, 1000 crosses
    # several FFT levels and three far-history tile edges.  Neither
    # pointwise solve warns.
    kappa = 1.0 / math.gamma(1.0 - alpha)
    const = VolterraProblem(alpha=alpha, T=1.0, kernel=kappa, f=lambda t: np.cos(t) + t**0.5)
    loop = dataclasses.replace(const, kernel=lambda s, t: np.full(np.broadcast(s, t).shape, kappa))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in (64, 257, 1000):
            ref = solve_volterra(loop, M).U
            got = solve_volterra(const, M).U
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("solve", [solve_volterra, volterra_steps])
def test_kernel_samples_are_checked(solve):
    # NaN everywhere, inf only in the far history (s < 0.01 against t > 0.9,
    # a far tile at M = 300) and a shape that does not broadcast: each is a
    # ValueError naming the kernel, not a NaN solution or a numpy error
    cases = (
        (lambda s, t: np.nan * s * t, 8, "kernel K\\(s, t\\) must be finite, got nan"),
        (lambda s, t: np.where((s < 0.01) & (t > 0.9), np.inf, 1.0), 300, "must be finite, got inf"),
        (lambda s, t: np.ones(3), 8, r"kernel K\(s, t\) returned shape \(3,\), which does not broadcast to \("),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel, M, match in cases:
            with pytest.raises(ValueError, match=match):
                solve(VolterraProblem(alpha=0.5, T=1.0, kernel=kernel, f=1.0), M)
    # a NaN local matrix is singular, not accepted
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="singular local collocation"):
        volterra._local_matrix(np.eye(2), 1.0, np.nan)


@pytest.mark.parametrize("solve", [solve_volterra, volterra_steps])
def test_pointwise_forcing_samples_are_checked(solve):
    # a NaN or inf in f at a collocation point used to run to a NaN solution
    for bad in (np.nan, np.inf):
        for kernel in (1.0, lambda s, t: 1.0 + s * t):
            prob = VolterraProblem(alpha=0.5, T=1.0, kernel=kernel, f=lambda t: np.where(t > 0.5, bad, 1.0))
            with pytest.raises(ValueError, match=r"forcing f\(t\) must be finite, got"):
                solve(prob, 8)


def test_overflowing_solution_is_reported():
    # u = E_{1/4}(1.5 Gamma(1/4) t^{1/4}) is about e^875 at t = 1: the march
    # (toeplitz.march for the constant kernel, the callable-kernel march for
    # the same K as a callable) passes the double range and says so, where
    # it returned NaN with numpy warnings
    kwargs = dict(alpha=0.75, T=1.0, f=1.0, c=(0.2, 0.6, 1.0))
    cases = [(1.5, 300, "257 of 300"), (1.5, 4096, "3073 of 4096"), (lambda s, t: 1.5 + 0.0 * s * t, 300, "257 of 300")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel, M, step in cases:
            with pytest.raises(ValueError, match=f"^the solution overflows double precision: step {step} is not"):
                solve_volterra(VolterraProblem(kernel=kernel, **kwargs), M)
        # a study names the mesh that failed, where its M = 256 row read a NaN error
        with pytest.raises(StudyError, match="^volterra solve failed at M=512: the solution overflows"):
            run_study(make_volterra_study(0.75, c=kwargs["c"], kernel=1.5), [64, 128, 256])


@pytest.mark.parametrize("solve", [solve_volterra, volterra_steps])
def test_singular_local_system_is_reported(solve):
    # with c = (0.2, 0.6, 1) phi has one real eigenvalue lam, and K = 1 /
    # (tau^{1-a} lam) makes I - tau^{1-a} K phi singular on every cell; the
    # callable kernel that takes this K only for t > 0.5 is regular on the
    # first block and singular on cell 50, inside the second
    c, M = (0.2, 0.6, 1.0), 100
    _, phi, scale = volterra._weights(VolterraProblem(alpha=0.5, T=1.0, kernel=1.0, f=1.0, q=3, c=c), M)
    eig = np.linalg.eigvals(phi)
    K = 1.0 / (scale * eig[np.argmin(np.abs(eig.imag))].real)
    for kernel in (K, lambda s, t: K, lambda s, t: np.where(t > 0.5, K, 0.5 * K)):
        prob = VolterraProblem(alpha=0.5, T=1.0, kernel=kernel, f=1.0, q=3, c=c)
        with pytest.raises(ValueError, match=r"^singular local collocation system; check the c_i$"):
            solve(prob, M)


def test_pointwise_data_runs_at_depth_zero():
    # the split of pointwise data could only use the scheme's own operator,
    # which makes every depth the n = 0 solution: n > 0 is refused
    def kernel(s, t):
        return 1.0 + 0.5 * s * t

    for data in ({"kernel": kernel}, {"f": np.cos}, {"kernel": kernel, "f": np.cos}):
        args = {"alpha": 0.5, "T": 1.0, "kernel": 1.0, "f": 1.0, **data}
        with pytest.raises(ValueError, match="n=1"):
            VolterraProblem(n=1, **args)
        with pytest.raises(ValueError, match="TimeProfile f"):
            msd_volterra_forcing(VolterraProblem(**args))


def test_validation():
    with pytest.raises(ValueError):
        VolterraProblem(alpha=1.2, T=1.0, kernel=1.0, f=1.0, n=0, q=2, c=(2.0 / 3.0, 1.0))
    with pytest.raises(ValueError, match="q = 2"):
        VolterraProblem(alpha=0.5, T=1.0, kernel=1.0, f=1.0, n=0, q=2, c=(0.5,))  # q mismatch
    with pytest.raises(ValueError, match="q = 2"):
        VolterraProblem(alpha=0.5, T=1.0, kernel=1.0, f=1.0, q=2, c=(0.2, 0.6, 1.0))
    # q defaults to len(c), and an explicit q that matches c is kept
    for q in (None, 3):
        kw = {} if q is None else {"q": q}
        assert VolterraProblem(alpha=0.5, T=1.0, kernel=1.0, f=1.0, c=(0.2, 0.6, 1.0), **kw).q == 3
    assert VolterraProblem(alpha=0.5, T=1.0, kernel=1.0, f=1.0).q == 2
    with pytest.raises(ValueError):
        VolterraProblem(alpha=0.5, T=1.0, kernel=1.0, f=1.0, n=0, q=2, c=(1.0, 2.0 / 3.0))
    # c that is not a nonempty sequence of numbers is named, by the problem and the study
    for c in (0.5, (), "1"):
        with pytest.raises(ValueError, match=r"^c must .*got c="):
            VolterraProblem(alpha=0.5, T=1.0, kernel=1.0, f=1.0, c=c)
        with pytest.raises(ValueError, match=r"^c must .*got c="):
            make_volterra_study(0.5, c=c)
    for T in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon"):
            VolterraProblem(alpha=0.5, T=T, kernel=1.0, f=1.0)
    for d in (0.999, 0.0, -2.0):
        with pytest.raises(ValueError, match="d >= 1"):
            singular_moment(0.5, d, 0)
    bad = VolterraProblem(alpha=0.5, T=1.0, kernel=1.0, f=lambda t: np.ones(3))
    with pytest.raises(ValueError, match=r"f\(t\) returned shape \(3,\)"):
        solve_volterra(bad, 8)
    # a bool is not a kernel constant, and a string names its field
    for kernel in (True, "1"):
        with pytest.raises(ValueError, match="kernel"):
            VolterraProblem(alpha=0.5, T=1.0, kernel=kernel, f=1.0)
    with pytest.raises(ValueError, match="alpha"):
        VolterraProblem(alpha="0.5", T=1.0, kernel=1.0, f=1.0)
    prob = _default_problem(0.5)
    prob_half = VolterraProblem(
        alpha=0.5, T=1.0, kernel=1.0, f=1.0, n=0, q=2, c=(1.0 / 3.0, 2.0 / 3.0)
    )
    trace = solve_volterra(prob_half, 16)
    with pytest.raises(ValueError):
        trace.nodal_values  # mesh-point readout needs c_q = 1
    assert solve_volterra(prob, 16).nodal_values.shape == (16,)
    for M in (10.0, 2.5, "8", True):
        with pytest.raises(ValueError, match="M must be an integer"):
            solve_volterra(prob, M)
    assert solve_volterra(prob, np.int64(16)).nodal_values.shape == (16,)


@pytest.mark.parametrize(
    "c, q, name",
    [
        ((True,), 1, "c"),  # a bool is not a collocation parameter
        (("a",), 1, "c"),
        ((None, 1.0), 2, "c"),
        ((math.nan, 1.0), 2, "c"),
        ((1.0,), True, "q"),
        ((1.0,), 1.0, "q"),
        ((1.0,), 0, "q"),
    ],
)
def test_collocation_data_is_checked(c, q, name):
    with pytest.raises(ValueError, match=rf"^{name} must .*got {name}="):
        VolterraProblem(alpha=0.5, T=1.0, kernel=1.0, f=1.0, q=q, c=c)


@pytest.mark.parametrize("kernel", [math.nan, math.inf])
def test_non_finite_kernel_is_rejected(kernel):
    with pytest.raises(ValueError, match="kernel must be a finite number"):
        VolterraProblem(alpha=0.5, T=1.0, kernel=kernel, f=1.0)


@pytest.mark.parametrize("n", [1.5, 1.0, True, -1])
def test_depth_must_be_a_nonnegative_integer(n):
    with pytest.raises(ValueError, match="n must be"):
        VolterraProblem(alpha=0.5, T=1.0, kernel=1.0, f=1.0, n=n)
    assert VolterraProblem(alpha=0.5, T=1.0, kernel=1.0, f=1.0, n=np.int32(1)).n == 1
