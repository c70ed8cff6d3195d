import math

import numpy as np
import pytest

from msdfrac import relaxation
from msdfrac import (
    RelaxationProblem,
    TimeProfile,
    build_mesh,
    frac_integrate,
    full_order_depth,
    msd_forcing,
    msd_reconstruction,
    relaxation_exact,
    solve_relaxation,
)


def test_full_order_depth_values():
    assert full_order_depth(0.25) == 6
    assert full_order_depth(0.5) == 2
    assert full_order_depth(0.75) == 1
    assert full_order_depth(0.9) == 1


def test_forcing_iterates_for_constant_f():
    # L^i 1 = (-lam)^i t^{i a} / Gamma(1 + i a)
    prob = RelaxationProblem(alpha=0.5, lam=2.0, T=1.0, f=1.0, n=3)
    g = msd_forcing(prob)
    t = 0.8
    ref = (-2.0) ** 3 * t**1.5 / math.gamma(2.5)
    assert g(t) == pytest.approx(ref, rel=1e-13)
    rec = msd_reconstruction(prob)
    ref_rec = sum(
        (-2.0) ** i * t ** (0.5 * (i + 1)) / math.gamma(0.5 * (i + 1) + 1.0) for i in range(3)
    )
    assert rec(t) == pytest.approx(ref_rec, rel=1e-13)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
@pytest.mark.parametrize("n", [0, 2])
def test_oracle_constant_forcing(alpha, n):
    # the reconstructed solution must approach (1 - E_a(-t^a)) / lam;
    # grading keeps the depth-0 runs at full order
    prob = RelaxationProblem(alpha=alpha, lam=1.0, T=1.0, f=1.0, n=n)
    mesh = build_mesh(1.0, 2048, max(1.0, (2.0 - alpha) / ((n + 1) * alpha)))
    trace = solve_relaxation(prob, mesh)
    ref = relaxation_exact(alpha, 1.0, mesh.nodes[1:])
    err = np.max(np.abs(trace.U[1:] - ref))
    assert err < 1e-4


def test_msd_depths_converge_to_common_solution():
    # n = 0..3 all discretize the same problem; cross differences at
    # the final time shrink to zero with the reference solution
    alpha = 0.4
    finals = []
    for n in range(4):
        prob = RelaxationProblem(alpha=alpha, lam=1.0, T=1.0, f=1.0, n=n)
        trace = solve_relaxation(prob, build_mesh(1.0, 1024, 2.0))
        finals.append(trace.U[-1])
    ref = relaxation_exact(alpha, 1.0, 1.0)
    assert np.max(np.abs(np.asarray(finals) - ref)) < 2e-5
    assert max(finals) - min(finals) < 2e-5


def test_nonconstant_analytic_forcing():
    # f = t^{0.3}: no closed oracle here, but depths must agree
    f = TimeProfile.of((1.0, 0.3))
    vals = []
    for n in (0, 2):
        prob = RelaxationProblem(alpha=0.6, lam=1.0, T=1.0, f=f, n=n)
        trace = solve_relaxation(prob, build_mesh(1.0, 2048, 2.0))
        vals.append(trace.U[-1])
    assert vals[0] == pytest.approx(vals[1], abs=2e-5)


def test_pointwise_forcing_path_warns_and_matches(monkeypatch):
    calls = []
    numeric = relaxation.frac_integrate_numeric

    def counted(*args):
        calls.append(1)
        return numeric(*args)

    monkeypatch.setattr(relaxation, "frac_integrate_numeric", counted)
    prob_a = RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=1.0, n=1)
    prob_p = RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=lambda t: np.ones_like(t), n=1)
    mesh = build_mesh(1.0, 512, 1.0)
    ua = solve_relaxation(prob_a, mesh).U
    with pytest.warns(UserWarning):
        up = solve_relaxation(prob_p, mesh).U
    assert np.max(np.abs(ua - up)) < 1e-4
    # the split is built once: n product integrations for L^n f and one
    # for the reconstruction
    assert len(calls) == 2
    calls.clear()
    with pytest.warns(UserWarning):
        solve_relaxation(RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=prob_p.f, n=3), mesh)
    assert len(calls) == 4


def test_remainder_is_smoother_near_origin():
    # the split-off terms carry the t^a layer; the remainder of depth n
    # starts like t^{(n+1)a}, so early values drop fast with n
    alpha = 0.25
    mesh = build_mesh(1.0, 256, 1.0)
    sizes = []
    for n in (0, 3):
        prob = RelaxationProblem(alpha=alpha, lam=1.0, T=1.0, f=1.0, n=n)
        sizes.append(abs(solve_relaxation(prob, mesh).V[1]))
    assert sizes[1] < 5e-2 * sizes[0]


def test_validation():
    with pytest.raises(ValueError):
        RelaxationProblem(alpha=1.2, lam=1.0, T=1.0, f=1.0)
    for T in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon"):
            RelaxationProblem(alpha=0.5, lam=1.0, T=T, f=1.0)
    # a bool is not a coefficient, and a string names its field
    for lam in (True, "1", math.nan):
        with pytest.raises(ValueError, match="lam"):
            RelaxationProblem(alpha=0.5, lam=lam, T=1.0, f=1.0)
    with pytest.raises(ValueError, match="alpha"):
        RelaxationProblem(alpha="0.5", lam=1.0, T=1.0, f=1.0)
    prob = RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=1.0)
    with pytest.raises(ValueError):
        solve_relaxation(prob, build_mesh(2.0, 16, 1.0))  # horizon mismatch
    # pointwise forcing is split on the nodes of a mesh
    pointwise = RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=np.cos)
    with pytest.raises(ValueError, match="a mesh is required to decompose a pointwise forcing"):
        msd_forcing(pointwise)
    # a negative lam above the degenerate limit is solved, with a warning
    negative = RelaxationProblem(alpha=0.5, lam=-0.5, T=1.0, f=1.0)
    with pytest.warns(UserWarning, match="negative relaxation coefficient is outside the stability theory"):
        assert np.isfinite(solve_relaxation(negative, build_mesh(1.0, 16, 1.0)).U).all()
    # numpy's bare "operands could not be broadcast" named no argument
    bad = RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=lambda t: np.ones(3))
    with pytest.raises(ValueError, match=r"f\(t\) returned shape \(3,\)"):
        solve_relaxation(bad, build_mesh(1.0, 16, 1.0))


def test_reconstruction_identity():
    # U = V + I^a sum_{i<n} L^i f evaluated on the nodes
    prob = RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=1.0, n=2)
    mesh = build_mesh(1.0, 64, 1.5)
    trace = solve_relaxation(prob, mesh)
    rec = msd_reconstruction(prob)
    assert np.allclose(trace.U[1:], trace.V[1:] + rec(mesh.nodes[1:]), atol=1e-15)
    assert trace.U[0] == 0.0


def test_numpy_integer_forcing_is_a_constant():
    # any real number is a constant forcing, numpy integer scalars included
    mesh = build_mesh(1.0, 32, 1.5)
    ref = solve_relaxation(RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=2.0, n=1), mesh)
    for f in (np.int64(2), np.int32(2), 2):
        got = solve_relaxation(RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=f, n=1), mesh)
        assert got.U.tobytes() == ref.U.tobytes()
        assert got.V.tobytes() == ref.V.tobytes()


@pytest.mark.parametrize("f", [True, np.bool_(False), "1.0", None, 1.0 + 0.5j])
def test_non_real_forcing_is_rejected(f):
    with pytest.raises(TypeError, match="forcing f"):
        RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=f)


@pytest.mark.parametrize(
    "field,value", [("lam", math.nan), ("lam", math.inf), ("f", math.nan), ("f", -math.inf)]
)
def test_non_finite_input_is_rejected(field, value):
    # a NaN or infinite coefficient or forcing used to run to NaN traces
    args = dict(alpha=0.5, lam=1.0, T=1.0, f=1.0) | {field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RelaxationProblem(**args)


@pytest.mark.filterwarnings("ignore:forcing is only available pointwise")
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("r", [1.0, 2.0])
def test_non_finite_pointwise_forcing_is_rejected(n, r):
    # a NaN or inf where the solve reads f used to run to a NaN trace.  Only
    # product integration (n > 0) reads t_0, so at n = 0 f may be singular there
    mesh = build_mesh(1.0, 16, r)
    for bad in (np.nan, np.inf):
        prob = RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=lambda t: np.where(t > 0.5, bad, 1.0), n=n)
        with pytest.raises(ValueError, match=r"forcing f\(t\) must be finite, got"):
            solve_relaxation(prob, mesh)
    prob = RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=lambda t: t**-0.5, n=n)
    if n:
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match=r"f\(t\) must be finite, got inf"):
            solve_relaxation(prob, mesh)
    else:
        assert np.isfinite(solve_relaxation(prob, mesh).U).all()


@pytest.mark.parametrize("n", [1.5, 2.0, True, "1", -1])
def test_depth_must_be_a_nonnegative_integer(n):
    # a float depth used to fail inside the solve with a bare TypeError,
    # and True was taken as depth 1
    with pytest.raises(ValueError, match="n must be"):
        RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=1.0, n=n)
    assert RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=1.0, n=np.int64(2)).n == 2
