import math

import numpy as np
import pytest

from msdfrac import (
    RelaxationProblem,
    SeparableField,
    assemble_fem,
    build_mesh,
    msd_subdiffusion_data,
    solve_relaxation_pair,
    solve_subdiffusion_pair,
)


def test_grading_formula():
    mesh = build_mesh(2.0, 8, 3.0)
    m = np.arange(9)
    assert np.allclose(mesh.nodes, 2.0 * (m / 8.0) ** 3.0, rtol=0, atol=0)
    assert mesh.nodes[0] == 0.0
    assert mesh.nodes[-1] == 2.0  # endpoint exact, not just close
    assert np.all(np.diff(mesh.nodes) > 0)
    assert np.allclose(mesh.steps, np.diff(mesh.nodes))


def test_uniform_flag_and_base_step():
    mesh = build_mesh(1.0, 10, 1.0)
    assert mesh.uniform
    assert np.allclose(mesh.steps, 0.1, rtol=1e-14, atol=0)
    graded = build_mesh(1.0, 10, 2.0)
    assert not graded.uniform


@pytest.mark.parametrize("r", [1.0, 1.75, 3.0, 7.0])
@pytest.mark.parametrize("M", [4, 32, 100])
def test_refine_is_bit_exact_nested(M, r):
    # two-mesh comparison relies on exact node sharing, not approximate
    assert np.array_equal(build_mesh(1.0, 2 * M, r).nodes[::2], build_mesh(1.0, M, r).nodes)


def test_validation():
    with pytest.raises(ValueError):
        build_mesh(-1.0, 8)
    with pytest.raises(ValueError):
        build_mesh(1.0, 0)
    with pytest.warns(UserWarning):
        build_mesh(1.0, 8, 0.5)  # r < 1 allowed but outside the theory
    for r in (0.0, -1.0, math.nan, math.inf, "2", True):
        with pytest.raises(ValueError, match="grading exponent"):
            build_mesh(1.0, 8, r)


@pytest.mark.parametrize("M", [2.5, 8.0, "8", True])
def test_step_count_must_be_an_integer(M):
    # a float M once gave nodes beyond T
    with pytest.raises(ValueError, match="M must be an integer"):
        build_mesh(1.0, M)


def test_numpy_integer_step_count_accepted():
    mesh = build_mesh(1.0, np.int64(8))
    assert mesh.M == 8 and type(mesh.M) is int
    assert mesh.nodes[-1] == 1.0


def test_pair_solve_warns_once_for_a_coarsening_grading():
    # the half of a mesh built with r < 1 is built from the same grading,
    # so a pair solve repeats none of the mesh's warning
    dom = (0.0, 1.0)
    f, u0 = SeparableField(dom, ((2, 1.0),)), SeparableField(dom, ((1, 1.0),))
    prob, data = RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=1.0), msd_subdiffusion_data(f, u0, 0, 0.5)
    solves = (
        lambda mesh: solve_relaxation_pair(prob, mesh),
        lambda mesh: solve_subdiffusion_pair(0.5, data, mesh, assemble_fem(0.0, 1.0, 8)),
    )
    for solve in solves:
        with pytest.warns(UserWarning, match="grading r") as caught:
            mesh = build_mesh(1.0, 64, 5.0 / 12.0)
            half, fine = solve(mesh)
        assert len(caught) == 1
        assert half.mesh.nodes.tobytes() == mesh.nodes[::2].tobytes()


@pytest.mark.parametrize("M", [1, 5])
def test_pair_solvers_reject_an_odd_step_count(M):
    # an odd mesh has no half: the pair solvers say so by M, before any
    # nesting check
    dom = (0.0, 1.0)
    f, u0 = SeparableField(dom, ((2, 1.0),)), SeparableField(dom, ((1, 1.0),))
    prob, data = RelaxationProblem(alpha=0.5, lam=1.0, T=1.0, f=1.0), msd_subdiffusion_data(f, u0, 0, 0.5)
    mesh = build_mesh(1.0, M, 2.0)
    with pytest.raises(ValueError, match=f"a mesh has a half only at even M, got M = {M}$"):
        solve_relaxation_pair(prob, mesh)
    with pytest.raises(ValueError, match=f"a mesh has a half only at even M, got M = {M}$"):
        solve_subdiffusion_pair(0.5, data, mesh, assemble_fem(0.0, 1.0, 8))
