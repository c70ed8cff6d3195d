import math

import numpy as np
import pytest

from msdfrac import (
    PdeData,
    SeparableField,
    TimeProfile,
    assemble_fem,
    beta_profile,
    build_cq,
    build_mesh,
    frac_integrate,
    integro_direct_data,
    l1_scheme,
    ml_eval,
    msd_integro_data,
    msd_subdiffusion_data,
    pde1d,
    solve_diffusion_wave,
    solve_integro,
    solve_subdiffusion,
    toeplitz,
)


def field_error(trace, exact_nodal):
    # max over time of the discrete-L2 nodal norm, same as the studies use
    d = trace.U - exact_nodal
    return float(np.max(np.sqrt(trace.fem.h * np.sum(d * d, axis=1))))


# --- assembly -------------------------------------------------------------


def test_hand_assembled_matrices():
    fem = assemble_fem(0.0, 1.0, 2)  # one interior node, h = 1/2
    d, e = fem.mass_diags
    assert d == pytest.approx(1.0 / 3.0)
    assert e == pytest.approx(1.0 / 12.0)
    d, e = fem.stiff_diags
    assert d == pytest.approx(4.0)
    assert e == pytest.approx(-2.0)


def _dense(fem):
    # mass and stiffness matrices assembled by hand from their diagonals
    n = fem.J - 1
    return tuple(
        np.diag(np.full(n, d)) + np.diag(np.full(n - 1, e), 1) + np.diag(np.full(n - 1, e), -1)
        for d, e in (fem.mass_diags, fem.stiff_diags)
    )


def test_operator_applications_match_dense():
    fem = assemble_fem(0.0, 2.0, 9)
    Mmat, Kmat = _dense(fem)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(fem.J - 1)
    # the load of a nodal interpolant that vanishes at both ends is M v,
    # and v K v is the energy of its piecewise-constant slopes
    assert np.allclose(fem.nodal_load(np.pad(v, 1)), Mmat @ v, rtol=1e-14)
    assert np.allclose(v @ Kmat @ v, np.sum(np.diff(np.pad(v, 1)) ** 2) / fem.h, rtol=1e-14)
    # mass row sums equal h away from the boundary rows
    assert np.allclose(Mmat.sum(axis=1)[1:-1], fem.h, rtol=1e-14)


def test_dense_matrix_and_array_mode_functions():
    fem = assemble_fem(0.0, 2.0, 9)
    Mmat, Kmat = _dense(fem)
    for cm, ck in ((1.0, 0.0), (0.0, 1.0), (7.5, 0.3)):
        assert np.array_equal(fem.matrix(cm, ck), cm * Mmat + ck * Kmat)
    # an array of k gives each scalar call's value bit for bit, multiples of J included
    ks = np.arange(1, 3 * fem.J + 1)
    for name in ("mode_frequency", "sine_vector", "discrete_eigenvalue", "mass_eigenvalue", "mode_load_coeff"):
        fn = getattr(fem, name)
        assert np.array_equal(fn(ks), np.array([fn(int(k)) for k in ks])), name


def test_sine_vectors_diagonalize_the_pencil():
    fem = assemble_fem(0.0, 2.0 * math.pi, 24)
    Mmat, Kmat = _dense(fem)
    for k in (1, 2, 7):
        s = fem.sine_vector(k)
        lam = fem.discrete_eigenvalue(k)
        mu = fem.mass_eigenvalue(k)
        assert np.max(np.abs(Kmat @ s - lam * (Mmat @ s))) < 1e-12 * lam
        assert np.max(np.abs(Mmat @ s - mu * s)) < 1e-14
        # discrete eigenvalue approaches (k pi / L)^2 from above
        assert lam >= fem.mode_frequency(k) ** 2


def test_assemble_fem_rejects_non_integer_cell_counts():
    # a fractional J would set h = (b - a)/J but store int(J) cells, so the
    # grid would stop short of b
    for J in (32.5, 32.0, "32", True):
        with pytest.raises(ValueError, match="J must be an integer"):
            assemble_fem(0.0, 1.0, J)
    assert assemble_fem(0.0, 1.0, np.int64(32)).J == 32


def test_eigenvalue_convergence():
    lam_exact = math.pi**2
    fem = assemble_fem(0.0, 1.0, 128)
    assert fem.discrete_eigenvalue(1) == pytest.approx(lam_exact, rel=5e-4)


def _gauss_load(fem, k):
    # two-point Gauss rule on every cell against both hat functions
    w = k * math.pi / (fem.b - fem.a)
    x0 = fem.a + fem.h * np.arange(fem.J)
    out = np.zeros(fem.J + 1)
    for s in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)):
        vals = np.sin(w * (x0 + s * fem.h - fem.a)) * (fem.h / 2.0)
        out[:-1] += vals * (1.0 - s)
        out[1:] += vals * s
    return out[1:-1]


def test_mode_loads_match_gauss_quadrature():
    # every mode, multiples of J included, against the quadrature itself
    fem = assemble_fem(0.0, 1.0, 16)
    ks = np.arange(1, 3 * fem.J + 1)
    refs = [_gauss_load(fem, k) for k in ks]
    scale = max(np.max(np.abs(r)) for r in refs)
    loads = fem.mode_load_coeff(ks)[:, None] * fem.sine_vector(ks)
    for load, ref in zip(loads, refs):
        assert np.max(np.abs(load - ref)) < 1e-14 * scale


def test_mode_load_coeff_is_closed_form_on_multiples_of_the_cell_count():
    # the sine vector vanishes at every node for k = J, 2J, so a projection
    # onto it reads rounding noise; th = k pi h/(b-a) is pi and 2 pi there
    fem = assemble_fem(0.0, 1.0, 16)
    lo, hi = 0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)
    for k, th in ((16, math.pi), (32, 2.0 * math.pi)):
        want = fem.h * (lo * math.cos(hi * th) + hi * math.cos(lo * th))
        assert fem.mode_load_coeff(k) == pytest.approx(want, rel=1e-15)


def test_nodal_load_matches_gauss_load_for_sine_data():
    fem = assemble_fem(0.0, 1.0, 64)
    x = np.linspace(0.0, 1.0, 65)
    nodal = fem.nodal_load(np.sin(math.pi * x))
    exact = fem.mode_load_coeff(1) * fem.sine_vector(1)
    # nodal interpolation of the data vs 2-pt Gauss on the exact sine:
    # both converge to the same load, O(h^2) apart
    assert np.max(np.abs(nodal - exact)) < 1e-5


# --- separable fields -------------------------------------------------------


def test_field_algebra_and_evaluation():
    dom = (0.0, 1.0)
    f = SeparableField(dom, ((1, TimeProfile.constant(2.0)), (3, TimeProfile.of((1.0, 1.0)))))
    g = SeparableField(dom, ((1, TimeProfile.constant(-2.0)),))
    s = f + g
    assert len(s.modes) == 1 and s.modes[0][0] == 3
    with pytest.raises(ValueError, match="cannot add fields on different domains"):
        f + SeparableField((0.0, 2.0), ())
    for other in (0, TimeProfile.constant(1.0)):
        with pytest.raises(TypeError, match="unsupported operand"):
            f + other
        with pytest.raises(TypeError, match="unsupported operand"):
            other + f
    x, t = 0.3, 2.0
    assert f.evaluate(x, t) == pytest.approx(
        2.0 * math.sin(math.pi * x) + t * math.sin(3.0 * math.pi * x)
    )
    lap = f.laplacian()
    assert lap.evaluate(x, t) == pytest.approx(
        -(math.pi**2) * 2.0 * math.sin(math.pi * x) - (3.0 * math.pi) ** 2 * t * math.sin(3.0 * math.pi * x)
    )


def test_field_validation():
    with pytest.raises(ValueError, match="modes"):
        # the eigenvalue follows from k and the domain; triples are refused
        SeparableField((0.0, 1.0), ((1, math.pi**2, TimeProfile.constant(1.0)),))
    with pytest.raises(ValueError):
        SeparableField((0.0, 1.0), ((0, TimeProfile.constant(1.0)),))  # k must be >= 1
    for k in (math.inf, math.nan, True, 2.5):
        with pytest.raises(ValueError, match="mode index"):
            SeparableField((0.0, 1.0), ((k, 1.0),))
    with pytest.raises(ValueError):
        SeparableField((0.0, 1.0), ((2, TimeProfile.zero()), (2, TimeProfile.zero())))
    # float() took the string "1.5" and True as amplitudes
    for amp in ("1.5", True, np.bool_(True), None, 1.0 + 0.5j, lambda t: t):
        with pytest.raises(ValueError, match="amplitude of mode 2"):
            SeparableField((0.0, 1.0), ((2, amp),))
    for amp in (3, np.int64(3), np.float32(3.0)):
        assert SeparableField((0.0, 1.0), ((2, amp),)).modes[0][2] == TimeProfile.constant(3.0)


@pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (1.0, 1.0)])
def test_domain_must_be_finite_and_nonempty(a, b):
    # an infinite end gave h = inf, or a field with eigenvalue 0
    with pytest.raises(ValueError, match="domain"):
        assemble_fem(a, b, 8)
    with pytest.raises(ValueError, match="domain"):
        SeparableField((a, b), ((1, 1.0),))


@pytest.mark.parametrize("n", [1.5, 1.0, True, -1])
def test_subdiffusion_depth_must_be_a_nonnegative_integer(n):
    f, u0 = SeparableField((0.0, 1.0), ((2, 1.0),)), SeparableField((0.0, 1.0), ((1, 1.0),))
    with pytest.raises(ValueError, match="n must be"):
        msd_subdiffusion_data(f, u0, n, 0.5)


# --- subdiffusion ------------------------------------------------------------


def _subdiffusion_problem(dom=(0.0, 1.0)):
    u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)),))
    f = SeparableField(dom, ((2, TimeProfile.constant(1.0)),))
    return f, u0


@pytest.mark.parametrize("n", [0, 2])
def test_subdiffusion_modal_equals_full(n):
    # the sine loads are exactly proportional to the eigenvectors, so
    # per-mode marching and the assembled tridiagonal solve must coincide;
    # several modes share one batched march, and a decimal step count
    # leaves the gaps of a uniform mesh equal only up to rounding
    alpha = 0.4
    f, u0 = _subdiffusion_problem()
    three = SeparableField(
        f.domain,
        (
            (1, TimeProfile.of((1.0, 0.5))),
            (2, TimeProfile.constant(1.0)),
            (5, TimeProfile.of((-0.5, 1.0), (2.0, 0.25))),
        ),
    )
    fem = assemble_fem(0.0, 1.0, 16)
    for forcing in (f, three):
        data = msd_subdiffusion_data(forcing, u0, n, alpha)
        # M = 300 reaches past the first Toeplitz block of 256 steps
        for mesh in (build_mesh(1.0, 64, 2.0), build_mesh(1.0, 100), build_mesh(1.0, 300)):
            um = solve_subdiffusion(alpha, n, data, mesh, fem, method="modal").U
            uf = solve_subdiffusion(alpha, n, data, mesh, fem, method="full").U
            assert np.max(np.abs(um - uf)) < 1e-10


def test_modes_on_multiples_of_the_cell_count_drop_out():
    # modes k = J and 2J vanish at every node, and lam_h is 0 for k = 2J,
    # which the increment form of the CQ march divides by; both paths must
    # agree and stay finite
    alpha, J = 0.4, 16
    dom = (0.0, 1.0)
    f = SeparableField(
        dom,
        (
            (1, TimeProfile.of((1.0, 0.5))),
            (J, TimeProfile.constant(1.0)),
            (2 * J, TimeProfile.of((2.0, 1.0))),
        ),
    )
    u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)),))
    fem = assemble_fem(0.0, 1.0, J)
    mesh = build_mesh(1.0, 64, 1.0)
    sub = msd_subdiffusion_data(f, u0, 1, alpha)
    integro = msd_integro_data(f, u0, alpha)
    for solve in (
        lambda method: solve_subdiffusion(alpha, 1, sub, mesh, fem, method=method),
        lambda method: solve_integro(alpha, integro, mesh, fem, method=method),
    ):
        um, uf = solve("modal").U, solve("full").U
        assert np.all(np.isfinite(um)) and np.all(np.isfinite(uf))
        assert np.max(np.abs(um - uf)) < 1e-10


@pytest.mark.parametrize("alpha,n", [(0.25, 0), (0.25, 2), (0.75, 0)])
def test_subdiffusion_oracle(alpha, n):
    # homogeneous single-mode problem: u(x,t) = E_a(-lam t^a) sin kx
    # with the discrete eigenvalue as lam, the time march is the only
    # error source and must track the Mittag-Leffler profile
    dom = (0.0, math.pi)
    u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)),))
    f = SeparableField.zero(dom)
    fem = assemble_fem(dom[0], dom[1], 32)
    r = max(1.0, (2.0 - alpha) / ((n + 1) * alpha))
    mesh = build_mesh(1.0, 1024, r)
    data = msd_subdiffusion_data(f, u0, n, alpha)
    trace = solve_subdiffusion(alpha, n, data, mesh, fem)
    lam = fem.discrete_eigenvalue(1)
    prof = np.concatenate([[1.0], ml_eval(alpha, 1.0, -lam * mesh.nodes[1:] ** alpha)])
    exact = np.outer(prof, fem.sine_vector(1))
    assert field_error(trace, exact) < 5e-4


def test_subdiffusion_depths_consistent():
    # The decomposition carries exact eigenvalue factors while the remainder
    # is marched on the grid, so at fixed J the depths disagree by a spatial
    # consistency term that lam**n amplifies.  Refining the grid must shrink
    # the disagreement quadratically toward a common limit.
    alpha = 0.5
    f, u0 = _subdiffusion_problem()
    mesh = build_mesh(1.0, 512, 2.0)
    spreads = []
    for J in (16, 32, 64):
        fem = assemble_fem(0.0, 1.0, J)
        finals = []
        for n in range(4):
            data = msd_subdiffusion_data(f, u0, n, alpha)
            finals.append(solve_subdiffusion(alpha, n, data, mesh, fem).U[-1])
        spreads.append(max(np.max(np.abs(finals[i] - finals[0])) for i in (1, 2, 3)))
    assert spreads[1] < 0.35 * spreads[0]
    assert spreads[2] < 0.35 * spreads[1]
    assert spreads[2] < 0.05


def test_subdiffusion_callable_forcing_matches_separable():
    alpha = 0.6
    dom = (0.0, 1.0)
    f, u0 = _subdiffusion_problem(dom)

    def f_callable(x, t):
        return np.sin(2.0 * math.pi * x) * np.ones_like(np.asarray(t))

    data_s = msd_subdiffusion_data(f, u0, 0, alpha)
    data_c = msd_subdiffusion_data(f_callable, u0, 0, alpha)
    mesh = build_mesh(1.0, 128, 1.0)
    fem = assemble_fem(0.0, 1.0, 16)
    us = solve_subdiffusion(alpha, 0, data_s, mesh, fem, method="full").U
    uc = solve_subdiffusion(alpha, 0, data_c, mesh, fem).U
    # separable path uses exact Gauss loads, callable path nodal loads,
    # which differ by an O(h^2) quadrature term on this coarse grid
    assert np.max(np.abs(us - uc)) < 5e-3


def _nonseparable(x, t):
    return x * (1.0 - x) * np.exp(-x * t) + np.sqrt(t) * np.cos(3.0 * x)


_TRANSFORM_MESHES = [(100, 1.0), (255, 1.0), (256, 1.0), (257, 1.0)] + [
    (M, r) for r in (2.0, 5.0 / 12.0) for M in (31, 32, 33)
]


@pytest.mark.filterwarnings("ignore:grading r =")
@pytest.mark.parametrize("M,r", _TRANSFORM_MESHES)
@pytest.mark.parametrize("J", [2, 16, 32, 128])
def test_subdiffusion_transformed_loads_match_full(J, M, r):
    # callable forcing runs all J - 1 sine modes through one batched march;
    # the tridiagonal step-by-step solve on the nodal loads is the same
    # scheme.  J = 2 has a single interior node, where the solve has no sweep.
    # The uniform meshes cross the Toeplitz block edge at 256 steps (M = 100
    # has steps equal only up to rounding); the graded ones cross the edge
    # of a block of weight rows at 32
    alpha = 0.6
    u0 = SeparableField((0.0, 1.0), ((1, TimeProfile.constant(1.0)), (3, TimeProfile.constant(-0.5))))
    data = msd_subdiffusion_data(_nonseparable, u0, 0, alpha)
    fem = assemble_fem(0.0, 1.0, J)
    mesh = build_mesh(1.0, M, r)
    modal = solve_subdiffusion(alpha, 0, data, mesh, fem).U
    full = solve_subdiffusion(alpha, 0, data, mesh, fem, method="full").U
    assert np.max(np.abs(modal - full)) <= 1e-12 * np.max(np.abs(full))


def test_callable_forcing_is_sampled_once_on_the_grid():
    dom = (0.0, 1.0)
    u0 = SeparableField.zero(dom)
    fem = assemble_fem(0.0, 1.0, 8)
    mesh = build_mesh(1.0, 16, 2.0)
    shapes = []

    def f(x, t):
        shapes.append(np.broadcast_shapes(np.shape(x), np.shape(t)))
        return 1.0 + 0.0 * x * t

    for method in ("modal", "full"):
        shapes.clear()
        ref = solve_subdiffusion(0.5, 0, msd_subdiffusion_data(f, u0, 0, 0.5), mesh, fem, method=method)
        assert shapes == [(mesh.M, fem.J + 1)]
        # a scalar return is spread over the grid
        scalar = msd_subdiffusion_data(lambda x, t: 1.0, u0, 0, 0.5)
        assert np.array_equal(solve_subdiffusion(0.5, 0, scalar, mesh, fem, method=method).U, ref.U)
        bad = msd_subdiffusion_data(lambda x, t: np.ones(3), u0, 0, 0.5)
        with pytest.raises(ValueError, match=r"f\(x, t\) returned shape \(3,\)"):
            solve_subdiffusion(0.5, 0, bad, mesh, fem, method=method)


def test_fem_on_another_interval_is_rejected():
    # fields on (0, 1) solved on a grid over (0, 2) gave meaningless values
    f, u0 = _subdiffusion_problem()
    fem = assemble_fem(0.0, 2.0, 8)
    mesh = build_mesh(1.0, 16, 1.0)
    for data in (msd_subdiffusion_data(f, u0, 1, 0.5), msd_subdiffusion_data(_nonseparable, u0, 0, 0.5)):
        for method in ("modal", "full"):
            with pytest.raises(ValueError, match="fem is assembled on"):
                solve_subdiffusion(0.5, 0, data, mesh, fem, method=method)
    with pytest.raises(ValueError, match="fem is assembled on"):
        solve_integro(0.5, msd_integro_data(f, u0, 0.5), mesh, fem)
    with pytest.raises(ValueError, match="fem is assembled on"):
        solve_diffusion_wave(1.5, f, u0, u0, mesh, fem)


def test_subdiffusion_initial_value_reproduced():
    alpha = 0.3
    f, u0 = _subdiffusion_problem()
    data = msd_subdiffusion_data(f, u0, 1, alpha)
    mesh = build_mesh(1.0, 16, 1.0)
    fem = assemble_fem(0.0, 1.0, 8)
    trace = solve_subdiffusion(alpha, 1, data, mesh, fem)
    x = fem.interior_nodes
    assert np.allclose(trace.U[0], np.sin(math.pi * x), atol=1e-14)
    # a mode of u0 with amplitude zero changes nothing, bit for bit
    u0_zero_mode = SeparableField(u0.domain, (*((k, amp) for k, _, amp in u0.modes), (3, 0.0)))
    assert u0_zero_mode.modes[-1][2].is_zero
    for n in (0, 1):
        for grid in (mesh, build_mesh(1.0, 16, 2.0)):
            want = solve_subdiffusion(alpha, n, msd_subdiffusion_data(f, u0, n, alpha), grid, fem).U
            got = solve_subdiffusion(alpha, n, msd_subdiffusion_data(f, u0_zero_mode, n, alpha), grid, fem).U
            assert got.tobytes() == want.tobytes()


def test_msd_data_validation():
    f, u0 = _subdiffusion_problem()
    with pytest.raises(ValueError):
        msd_subdiffusion_data(f, u0, -1, 0.5)
    with pytest.raises(ValueError):
        msd_subdiffusion_data(f, u0, 0, 1.5)
    with pytest.raises(ValueError):
        # callable forcing cannot be decomposed analytically
        msd_subdiffusion_data(lambda x, t: x * t, u0, 2, 0.5)
    # no argument carries a domain: rejected before any field algebra
    with pytest.raises(TypeError, match="f or u0"):
        msd_subdiffusion_data(None, None, 1, 0.5)
    with pytest.raises(TypeError, match="f or u0"):
        msd_integro_data(None, None, 0.5)
    with pytest.raises(TypeError, match="f or u0"):
        integro_direct_data(None, 3.0, 0.5)
    with pytest.raises(TypeError, match="u0"):
        msd_subdiffusion_data(lambda x, t: x * t, None, 0, 0.5)
    with pytest.raises(ValueError, match="depth 0"):
        msd_integro_data(lambda x, t: x * t, u0, 0.5)
    # every field on the domain of the first one
    with pytest.raises(ValueError, match=r"u0 lives on \(0.0, 2.0\), expected \(0.0, 1.0\)"):
        msd_subdiffusion_data(f, SeparableField((0.0, 2.0), ((1, 1.0),)), 0, 0.5)
    # alpha outside (0, 1) marched to NaN, or at 0 to a number
    mesh, fem = build_mesh(1.0, 8, 1.0), assemble_fem(0.0, 1.0, 4)
    data = msd_subdiffusion_data(f, u0, 0, 0.5)
    for alpha in (0.0, 1.0, 1.5, math.nan):
        for method in ("modal", "full"):
            with pytest.raises(ValueError, match="alpha"):
                solve_subdiffusion(alpha, 0, data, mesh, fem, method=method)
        for build in (msd_integro_data, integro_direct_data):
            with pytest.raises(ValueError, match="alpha"):
                build(f, u0, alpha)
        with pytest.raises(ValueError, match="alpha"):
            msd_subdiffusion_data(f, u0, 0, alpha)


def _three_mode_data(alpha):
    dom = (0.0, 1.0)
    f = SeparableField(
        dom,
        (
            (1, TimeProfile.of((2.0, 0.0), (-0.5, 0.5))),
            (2, TimeProfile.of((1.0, 1.5))),
            (3, TimeProfile.of((0.25, 0.0), (3.0, 0.5))),
        ),
    )
    u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)), (3, TimeProfile.constant(-2.0))))
    return f, u0


def _assert_fields_close(got, ref):
    # coefficient by coefficient, modes with a zero amplitude ignored
    def terms(field):
        return {
            k: sorted(amp.terms, key=lambda cp: cp[1]) for k, _, amp in field.modes if not amp.is_zero
        }

    a, b = terms(got), terms(ref)
    assert a.keys() == b.keys()
    for k in a:
        assert [p for _, p in a[k]] == pytest.approx([p for _, p in b[k]], rel=1e-15)
        assert [c for c, _ in a[k]] == pytest.approx([c for c, _ in b[k]], rel=1e-13)


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_split_data_matches_closed_forms(alpha):
    # the split builders iterate L; their profiles must equal the closed
    # forms (-lam)^n I^{na} g, sum_i (-lam)^i I^{(i+1)a} g (subdiffusion)
    # and -lam I^{1+a} g, I^1 g (integro) mode by mode
    f, u0 = _three_mode_data(alpha)
    g = f + u0.laplacian()
    for n in range(4):
        data = msd_subdiffusion_data(f, u0, n, alpha)
        forcing = g.map_amplitudes(
            lambda lam, amp: frac_integrate(amp, n * alpha) * (-lam) ** n if n else amp
        )
        recon = g.map_amplitudes(
            lambda lam, amp: sum(
                (frac_integrate(amp, (i + 1) * alpha) * (-lam) ** i for i in range(n)),
                TimeProfile.zero(),
            )
        )
        _assert_fields_close(data.forcing, forcing)
        _assert_fields_close(data.reconstruction, recon)
        assert data.initial is u0

    beta = beta_profile(1.0 + alpha)
    g = f + u0.laplacian().map_amplitudes(lambda lam, amp: beta * amp.terms[0][0])
    data = msd_integro_data(f, u0, alpha)
    _assert_fields_close(
        data.forcing, g.map_amplitudes(lambda lam, amp: frac_integrate(amp, 1.0 + alpha) * (-lam))
    )
    _assert_fields_close(data.reconstruction, g.map_amplitudes(lambda lam, amp: frac_integrate(amp, 1.0)))
    direct = integro_direct_data(f, u0, alpha)
    _assert_fields_close(direct.forcing, g)
    assert not direct.reconstruction.modes


# --- integrodifferential ------------------------------------------------------


def _integro_problem(alpha):
    dom = (0.0, 1.0)
    u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)),))
    f = SeparableField(dom, ((1, TimeProfile.of((1.0, alpha))),))
    return f, u0


def test_integro_modal_equals_full():
    alpha = 0.75
    f, u0 = _integro_problem(alpha)
    dom = f.domain
    u0_multi = SeparableField(
        dom,
        (
            (1, TimeProfile.constant(1.0)),
            (2, TimeProfile.constant(-0.5)),
            (4, TimeProfile.constant(0.25)),
        ),
    )
    f_multi = f + SeparableField(dom, ((3, TimeProfile.of((2.0, 1.0))),))
    fem = assemble_fem(0.0, 1.0, 16)
    # M = 300 reaches past the first Toeplitz block of 256 steps
    for mesh in (build_mesh(1.0, 64, 1.0), build_mesh(1.0, 100), build_mesh(1.0, 300)):
        for ff, uu in ((f, u0), (f_multi, u0_multi)):
            for data in (msd_integro_data(ff, uu, alpha), integro_direct_data(ff, uu, alpha)):
                um = solve_integro(alpha, data, mesh, fem, method="modal").U
                uf = solve_integro(alpha, data, mesh, fem, method="full").U
                assert np.max(np.abs(um - uf)) < 1e-10


def test_full_method_shares_no_marcher_with_modal(monkeypatch):
    # "full" is an independent reference: it must run with the batched
    # L1 march and the Toeplitz march both unavailable, so a fault in
    # either (the far history, say) shows as a full-vs-modal difference
    alpha = 0.5
    f, u0 = _subdiffusion_problem()
    fem = assemble_fem(0.0, 1.0, 8)
    meshes = (build_mesh(1.0, 300), build_mesh(1.0, 40, 2.0))
    sub = msd_subdiffusion_data(f, u0, 1, alpha)
    integro = msd_integro_data(f, u0, alpha)
    modal = [solve_subdiffusion(alpha, 1, sub, mesh, fem).U for mesh in meshes]
    modal.append(solve_integro(alpha, integro, meshes[0], fem).U)

    def unavailable(*args, **kwargs):
        raise AssertionError("method='full' reached a shared marcher")

    for module in (pde1d, l1_scheme, toeplitz):
        for name in ("march_l1", "march"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unavailable)
    full = [solve_subdiffusion(alpha, 1, sub, mesh, fem, method="full").U for mesh in meshes]
    full.append(solve_integro(alpha, integro, meshes[0], fem, method="full").U)
    for um, uf in zip(modal, full):
        assert np.max(np.abs(um - uf)) < 1e-12 * np.max(np.abs(uf))
    with pytest.raises(AssertionError, match="shared marcher"):
        solve_subdiffusion(alpha, 1, sub, meshes[0], fem)


def test_method_names_one_path_each():
    f, u0 = _subdiffusion_problem()
    fem = assemble_fem(0.0, 1.0, 8)
    mesh = build_mesh(1.0, 16)
    for bad in ("auto", "banded", None):
        with pytest.raises(ValueError, match="method"):
            solve_subdiffusion(0.5, 1, msd_subdiffusion_data(f, u0, 1, 0.5), mesh, fem, method=bad)
        with pytest.raises(ValueError, match="method"):
            solve_integro(0.5, msd_integro_data(f, u0, 0.5), mesh, fem, method=bad)


def _cq_cn_steps(alpha, tau, fbar, solve, mass, stiff):
    # the CQ-Crank-Nicolson recursion one step at a time, from V^0 = 0:
    # (M/tau + t w0 K/2) V^m = fbar^m + (M/tau - t w0 K/2) V^{m-1}
    #                          - t K sum_{p=1}^{m-1} w_p W^{m-p},
    # t = tau^a, W^j = (V^j + V^{j-1})/2; mass(v) applies M/tau, stiff(v)
    # K and solve(r) inverts M/tau + t w0 K/2
    M = len(fbar)
    w = build_cq(alpha, M)
    ta = tau**alpha
    V = np.zeros((M + 1,) + fbar.shape[1:], dtype=fbar.dtype)
    half = np.zeros_like(V)
    for m in range(1, M + 1):
        hist = w[1:m] @ half[m - 1 : 0 : -1]
        rhs = fbar[m - 1] + mass(V[m - 1]) - ta * w[0] / 2.0 * stiff(V[m - 1]) - ta * stiff(hist)
        V[m] = solve(rhs)
        half[m] = 0.5 * (V[m] + V[m - 1])
    return V


@pytest.mark.parametrize("M", [1, 255, 256, 257, 1000, 3001])
def test_integro_march_matches_stepwise_recursion(M):
    # the blocked Toeplitz march crosses block boundaries at 256 steps and
    # FFT levels beyond; pin both paths to the step-by-step scheme
    alpha, T = 0.6, 1.3
    dom = (0.0, 1.0)
    f = SeparableField(
        dom,
        (
            (1, TimeProfile.of((1.0, alpha))),
            (3, TimeProfile.of((2.0, 1.0), (-1.0, 0.5))),
            (40, TimeProfile.of((0.5, 0.0), (1.0, 2.0))),
        ),
    )
    zero = SeparableField.zero(dom)
    data = PdeData(forcing=f, reconstruction=zero, initial=zero)
    fem = assemble_fem(0.0, 1.0, 64)
    mesh = build_mesh(T, M, 1.0)
    tau, ta = T / M, (T / M) ** alpha
    w0 = build_cq(alpha, M)[0]
    t = mesh.nodes

    # modal: one scalar recursion per discrete eigenvalue
    ks = [k for k, _, _ in f.modes]
    lam = np.array([fem.discrete_eigenvalue(k) for k in ks])
    amps = np.column_stack(
        [fem.mode_load_coeff(k) / fem.mass_eigenvalue(k) * amp(t) for k, _, amp in f.modes]
    )
    sines = np.array([fem.sine_vector(k) for k in ks])
    ref = _cq_cn_steps(
        alpha,
        tau,
        0.5 * (amps[1:] + amps[:-1]),
        lambda r: r / (1.0 / tau + ta * w0 * lam / 2.0),
        lambda v: v / tau,
        lambda v: lam * v,
    )
    got = solve_integro(alpha, data, mesh, fem, method="modal").V
    assert np.max(np.abs(got - ref @ sines)) <= 1e-12 * np.max(np.abs(ref @ sines))

    # full: the banded system on the Gauss loads
    mass, stiff = _dense(fem)
    A = mass / tau + ta * w0 / 2.0 * stiff
    loads = sum(np.outer(amp(t), fem.mode_load_coeff(k) * fem.sine_vector(k)) for k, _, amp in f.modes)
    ref = _cq_cn_steps(
        alpha,
        tau,
        0.5 * (loads[1:] + loads[:-1]),
        lambda r: np.linalg.solve(A, r),
        lambda v: mass @ v / tau,
        lambda v: stiff @ v,
    )
    got = solve_integro(alpha, data, mesh, fem, method="full").V
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double"
)
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_integro_matches_long_double_recursion(alpha, n):
    # table-6 data at M = 4096: both paths against the step-by-step scheme
    # run in long double on the same weights, eigenvalues and loads
    f, u0 = _integro_problem(alpha)
    data = (msd_integro_data if n else integro_direct_data)(f, u0, alpha)
    fem = assemble_fem(0.0, 1.0, 32)
    M = 4096
    mesh = build_mesh(1.0, M, 1.0)
    tau, ta = 1.0 / M, (1.0 / M) ** alpha
    w0 = build_cq(alpha, M)[0]
    t = mesh.nodes
    ks = [k for k, _, _ in data.forcing.modes]
    lam = np.array([fem.discrete_eigenvalue(k) for k in ks], dtype=np.longdouble)
    amps = np.column_stack(
        [fem.mode_load_coeff(k) / fem.mass_eigenvalue(k) * amp(t) for k, _, amp in data.forcing.modes]
    ).astype(np.longdouble)
    V = _cq_cn_steps(
        alpha,
        tau,
        0.5 * (amps[1:] + amps[:-1]),
        lambda r: r / (1 / np.longdouble(tau) + ta * w0 * lam / 2),
        lambda v: v / np.longdouble(tau),
        lambda v: lam * v,
    )
    ref = V.astype(float) @ np.array([fem.sine_vector(k) for k in ks])
    scale = np.max(np.abs(ref))
    modal = solve_integro(alpha, data, mesh, fem).V
    assert np.max(np.abs(modal - ref)) <= 1e-14 * scale
    full = solve_integro(alpha, data, mesh, fem, method="full").V
    assert np.max(np.abs(full - ref)) <= 5e-14 * scale


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_integro_oracle(alpha):
    # f = 0, u0 = sin(pi x): the mode obeys y' = -lam I^a y, whose
    # solution is E_{1+a,1}(-lam t^{1+a})
    dom = (0.0, 1.0)
    u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)),))
    f = SeparableField.zero(dom)
    fem = assemble_fem(0.0, 1.0, 128)
    mesh = build_mesh(1.0, 2048, 1.0)
    data = msd_integro_data(f, u0, alpha)
    trace = solve_integro(alpha, data, mesh, fem)
    # the decomposition injects exact eigenvalue terms, so the total tracks
    # the continuous mode and the grid enters only through the remainder
    lam = math.pi**2
    gam = 1.0 + alpha
    prof = np.concatenate([[1.0], ml_eval(gam, 1.0, -lam * mesh.nodes[1:] ** gam)])
    exact = np.outer(prof, fem.sine_vector(1))
    assert field_error(trace, exact) < 5e-4


def test_integro_direct_and_msd_agree():
    alpha = 0.5
    f, u0 = _integro_problem(alpha)
    mesh = build_mesh(1.0, 1024, 1.0)
    fem = assemble_fem(0.0, 1.0, 64)
    ud = solve_integro(alpha, integro_direct_data(f, u0, alpha), mesh, fem).U
    um = solve_integro(alpha, msd_integro_data(f, u0, alpha), mesh, fem).U
    assert np.max(np.abs(ud[-1] - um[-1])) < 1e-3


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_integro_callable_forcing_modal_equals_full(alpha):
    # callable f(x, t) at depth 0: all J - 1 sine modes share one Toeplitz
    # march, and the step-by-step nodal solve is the same scheme
    u0 = SeparableField((0.0, 1.0), ((1, 1.0), (3, -0.5)))
    data = integro_direct_data(_nonseparable, u0, alpha)
    fem = assemble_fem(0.0, 1.0, 32)
    for M in (100, 300):
        mesh = build_mesh(1.0, M, 1.0)
        modal = solve_integro(alpha, data, mesh, fem).U
        full = solve_integro(alpha, data, mesh, fem, method="full").U
        assert np.max(np.abs(modal - full)) <= 1e-12 * np.max(np.abs(full))


def test_integro_callable_forcing_matches_separable():
    alpha = 0.5
    f, u0 = _integro_problem(alpha)
    data_s = integro_direct_data(f, u0, alpha)
    data_c = integro_direct_data(lambda x, t: t**alpha * np.sin(math.pi * x), u0, alpha)
    mesh, fem = build_mesh(1.0, 64, 1.0), assemble_fem(0.0, 1.0, 16)
    shapes = []

    def counted(x, t):
        shapes.append(np.broadcast_shapes(np.shape(x), np.shape(t)))
        return data_c.forcing(x, t)

    for method in ("modal", "full"):
        shapes.clear()
        us = solve_integro(alpha, data_s, mesh, fem, method=method).U
        uc = solve_integro(alpha, PdeData(counted, data_c.reconstruction, u0), mesh, fem, method=method).U
        # one call on the whole grid, t = 0 included
        assert shapes == [(mesh.M + 1, fem.J + 1)]
        # exact Gauss loads against nodal loads: an O(h^2) quadrature term
        assert np.max(np.abs(us - uc)) < 5e-3


def test_integro_requires_uniform_mesh():
    alpha = 0.5
    f, u0 = _integro_problem(alpha)
    data = msd_integro_data(f, u0, alpha)
    fem = assemble_fem(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        solve_integro(alpha, data, build_mesh(1.0, 32, 2.0), fem)


def test_decimal_uniform_meshes_are_uniform():
    # a uniform mesh with steps equal only up to rounding is still the
    # uniform mesh the convolution quadrature needs
    alpha = 0.5
    f, u0 = _integro_problem(alpha)
    data = msd_integro_data(f, u0, alpha)
    du0 = SeparableField(f.domain, ((1, TimeProfile.constant(0.5)),))
    fem = assemble_fem(0.0, 1.0, 8)
    for T, M in ((1.0, 100), (0.3, 128)):
        mesh = build_mesh(T, M)
        assert not np.all(mesh.steps == mesh.steps[0])
        assert np.all(np.isfinite(solve_integro(alpha, data, mesh, fem).U))
        wave = solve_diffusion_wave(1.0 + alpha, SeparableField.zero(f.domain), u0, du0, mesh, fem)
        assert np.all(np.isfinite(wave.U))


def test_initial_profile_must_be_constant_in_time():
    dom = (0.0, 1.0)
    f = SeparableField.zero(dom)
    u0 = SeparableField(dom, ((1, TimeProfile.of((1.0, 1.0))),))  # t-dependent
    with pytest.raises(ValueError):
        msd_integro_data(f, u0, 0.5)
    # subdiffusion took it and solved another problem: U[0] = 0 while
    # Lap u0 drove the solve
    for fc in (f, _nonseparable):
        with pytest.raises(ValueError, match="u0 amplitudes must be constant"):
            msd_subdiffusion_data(fc, u0, 0, 0.5)
        with pytest.raises(ValueError, match="u0 amplitudes must be constant"):
            integro_direct_data(fc, u0, 0.5)
    with pytest.raises(ValueError, match="u0 amplitudes must be constant"):
        msd_subdiffusion_data(f, u0, 2, 0.5)


# --- diffusion-wave -----------------------------------------------------------


@pytest.mark.parametrize("gamma", [1.25, 1.5, 1.75])
def test_diffusion_wave_oracle(gamma):
    # u0 = sin(pi x), u_t(0) = 0.5 sin(pi x):
    # u-hat = E_{g,1}(-lam t^g) + 0.5 t E_{g,2}(-lam t^g)
    dom = (0.0, 1.0)
    u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)),))
    du0 = SeparableField(dom, ((1, TimeProfile.constant(0.5)),))
    f = SeparableField.zero(dom)
    fem = assemble_fem(0.0, 1.0, 128)
    mesh = build_mesh(1.0, 2048, 1.0)
    trace = solve_diffusion_wave(gamma, f, u0, du0, mesh, fem)
    lam = math.pi**2
    t = mesh.nodes[1:]
    prof = ml_eval(gamma, 1.0, -lam * t**gamma) + 0.5 * t * ml_eval(gamma, 2.0, -lam * t**gamma)
    prof = np.concatenate([[1.0], prof])
    exact = np.outer(prof, fem.sine_vector(1))
    assert field_error(trace, exact) < 1e-3


def test_diffusion_wave_validation():
    dom = (0.0, 1.0)
    u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)),))
    du0 = SeparableField.zero(dom)
    f = SeparableField.zero(dom)
    fem = assemble_fem(0.0, 1.0, 8)
    mesh = build_mesh(1.0, 16, 1.0)
    with pytest.raises(ValueError):
        solve_diffusion_wave(0.9, f, u0, du0, mesh, fem)
    with pytest.raises(ValueError):
        solve_diffusion_wave(2.0, f, u0, du0, mesh, fem)
    with pytest.raises(TypeError, match="f or u0 or du0"):
        solve_diffusion_wave(1.5, None, None, None, mesh, fem)
    with pytest.raises(TypeError, match="du0"):
        solve_diffusion_wave(1.5, f, u0, 0.5, mesh, fem)
    # a du0 amplitude of t used to run and solve a different problem
    du0_t = SeparableField(dom, ((1, TimeProfile.of((1.0, 1.0))),))
    with pytest.raises(ValueError, match="du0"):
        solve_diffusion_wave(1.5, f, u0, du0_t, mesh, fem)
    # I^{g-1} f and its two-level split need closed-form profiles
    with pytest.raises(TypeError, match="f must be a SeparableField"):
        solve_diffusion_wave(1.5, _nonseparable, u0, du0, mesh, fem)


def _wave_split_data(gamma, f, u0, du0):
    # the depth-2 split by L = Lap I^{1+a} in closed form: remainder forcing
    # lam^2 I^{2+2a} g0 and reconstruction I^1 g0 - lam I^{2+a} g0
    alpha = gamma - 1.0
    beta = beta_profile(gamma)
    g0 = (
        f.map_amplitudes(lambda lam, amp: frac_integrate(amp, alpha))
        + u0.laplacian().map_amplitudes(lambda lam, amp: beta * amp.terms[0][0])
        + du0
    )
    return PdeData(
        forcing=g0.map_amplitudes(lambda lam, amp: frac_integrate(amp, 2.0 + 2.0 * alpha) * lam**2),
        reconstruction=g0.map_amplitudes(
            lambda lam, amp: frac_integrate(amp, 1.0) + frac_integrate(amp, 2.0 + alpha) * (-lam)
        ),
        initial=u0,
    )


def test_diffusion_wave_matches_closed_form_split():
    # solve_diffusion_wave equals the closed-form split run through solve_integro
    gamma = 1.4
    alpha = gamma - 1.0
    f, u0 = _three_mode_data(alpha)
    du0 = SeparableField(f.domain, ((2, TimeProfile.constant(0.5)),))
    data = _wave_split_data(gamma, f, u0, du0)
    fem = assemble_fem(0.0, 1.0, 16)
    mesh = build_mesh(1.0, 128, 1.0)
    got = solve_diffusion_wave(gamma, f, u0, du0, mesh, fem).U
    ref = solve_integro(alpha, data, mesh, fem).U
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


# --- field traces: time coefficients times spatial rows --------------------


def _added_back(data, mesh, fem):
    """The reconstruction at t_1..t_M (0 at t_0) plus the initial data, at
    the interior nodes, from the fields' own evaluate."""
    x = fem.interior_nodes
    out = np.zeros((mesh.M + 1, fem.J - 1))
    out[1:] = data.reconstruction.evaluate(x[None, :], mesh.nodes[1:, None])
    return out + data.initial.evaluate(x, 0.0)


@pytest.mark.parametrize("method", ["modal", "full"])
@pytest.mark.parametrize("model", ["subdiffusion", "integro", "diffusion-wave"])
def test_trace_U_is_V_plus_the_added_back_parts(model, method):
    # on (0, 2 pi) the mode eigenvalues are k^2/4, so no split part grows
    # much beyond |U| and the sum is held to rounding relative to max |U|
    alpha = 0.6
    dom = (0.0, 2.0 * math.pi)
    f = SeparableField(
        dom,
        (
            (1, TimeProfile.of((2.0, 0.0), (-0.5, 0.5))),
            (2, TimeProfile.of((1.0, 1.5))),
            (3, TimeProfile.of((0.25, 0.0), (3.0, 0.5))),
        ),
    )
    u0 = SeparableField(dom, ((1, TimeProfile.constant(1.0)), (3, TimeProfile.constant(-2.0))))
    fem = assemble_fem(*dom, 16)
    mesh = build_mesh(1.0, 300, 1.0)
    if model == "subdiffusion":
        data = msd_subdiffusion_data(f, u0, 3, alpha)
        trace = solve_subdiffusion(alpha, 3, data, mesh, fem, method=method)
    elif model == "integro":
        data = msd_integro_data(f, u0, alpha)
        trace = solve_integro(alpha, data, mesh, fem, method=method)
    else:
        du0 = SeparableField(dom, ((2, TimeProfile.constant(0.5)),))
        data = _wave_split_data(1.0 + alpha, f, u0, du0)
        # the wave model's step-by-step reference is the integro stepper's, run on its data
        if method == "modal":
            trace = solve_diffusion_wave(1.0 + alpha, f, u0, du0, mesh, fem)
        else:
            trace = solve_integro(alpha, data, mesh, fem, method="full")
    assert data.reconstruction.modes and data.initial.modes
    # one remainder column per forcing mode (modal) or node (full), then
    # one per mode of the reconstruction and of the initial data
    nv = fem.J - 1 if method == "full" else len(data.forcing.modes)
    K = nv + len(data.reconstruction.modes) + len(data.initial.modes)
    assert trace.nv == nv
    assert trace.coef.shape == (mesh.M + 1, K) and trace.rows.shape == (K, fem.J - 1)
    U, V = trace.U, trace.V
    assert U is not trace.U  # formed on each access
    assert np.all(V[0] == 0.0)
    dev = np.max(np.abs(U - V - _added_back(data, mesh, fem)))
    assert dev <= 1e-14 * np.max(np.abs(U))


@pytest.mark.parametrize("method", ["modal", "full"])
def test_non_finite_callable_forcing_is_rejected(method):
    # a NaN or inf where a solve reads f(x, t) used to run to a NaN trace; only
    # the integro stepper reads t = 0, where f may be singular for subdiffusion
    fem, mesh = assemble_fem(0.0, 1.0, 8), build_mesh(1.0, 8)
    u0 = SeparableField((0.0, 1.0), ((1, 1.0),))
    sub = lambda f: solve_subdiffusion(0.5, 0, msd_subdiffusion_data(f, u0, 0, 0.5), mesh, fem, method=method)
    integro = lambda f: solve_integro(0.5, integro_direct_data(f, u0, 0.5), mesh, fem, method=method)
    for bad in (np.nan, np.inf):
        for solve in (sub, integro):
            with pytest.raises(ValueError, match=r"forcing f\(x, t\) must be finite, got"):
                solve(lambda x, t: np.where(t > 0.5, bad, x))
    at_zero = lambda x, t: np.where(t == 0.0, np.inf, x)
    assert np.isfinite(sub(at_zero).U).all()
    with pytest.raises(ValueError, match=r"forcing f\(x, t\) must be finite, got inf"):
        integro(at_zero)


def test_unsplit_integro_rejects_forcing_infinite_at_zero():
    # the unsplit CQ stepper reads the forcing at t = 0, where a mode amplitude
    # t^-1/2 is infinite; it used to build and then fail in the first solve with
    # an error that did not name f.  The split models never read f there
    alpha, dom = 0.5, (0.0, 1.0)
    f = SeparableField(dom, ((1, TimeProfile.of((1.0, -0.5))), (2, 1.0)))
    u0 = SeparableField(dom, ((1, 1.0),))
    with pytest.raises(ValueError, match="^forcing f is infinite at t = 0, where the unsplit stepper reads it"):
        integro_direct_data(f, u0, alpha)
    mesh, fem = build_mesh(1.0, 16, 1.0), assemble_fem(0.0, 1.0, 8)
    traces = [
        solve_integro(alpha, msd_integro_data(f, u0, alpha), mesh, fem),
        solve_subdiffusion(alpha, 0, msd_subdiffusion_data(f, u0, 0, alpha), mesh, fem),
        solve_subdiffusion(alpha, 1, msd_subdiffusion_data(f, u0, 1, alpha), build_mesh(1.0, 16, 2.0), fem),
        solve_diffusion_wave(1.2, f, u0, SeparableField.zero(dom), mesh, fem),
    ]
    for trace in traces:
        assert np.isfinite(trace.U).all()
