"""Solvers for nonlocal-in-time problems with a multiscale splitting.

The package covers scalar fractional relaxation, weakly singular
Volterra equations, and three 1D parabolic-type models, each paired
with a classical time discretization and an optional change of
unknown that separates the leading singular terms of the solution.
``study`` wires the solvers into two-mesh convergence reports.
"""

from .conv_quad import CQWeights, apply_cq, build_cq
from .fracint import (
    TimeProfile,
    as_forcing,
    beta_profile,
    frac_integrate,
    frac_integrate_numeric,
)
from .l1_scheme import L1System, apply_dfrac, build_l1, l1_weight_row, march_l1
from .mesh import GradedMesh, build_mesh, refine
from .mittag_leffler import ml_eval, relaxation_exact
from .pde1d import (
    FieldTrace,
    IntervalFem,
    PdeData,
    SeparableField,
    assemble_fem,
    integro_direct_data,
    msd_integro_data,
    msd_subdiffusion_data,
    solve_diffusion_wave,
    solve_integro,
    solve_subdiffusion,
)
from .relaxation import (
    RelaxationProblem,
    ScalarTrace,
    full_order_depth,
    msd_forcing,
    msd_reconstruction,
    solve_relaxation,
)
from .study import (
    ConvergenceReport,
    StudyError,
    StudyRow,
    StudySpec,
    TABLE_IDS,
    emit_csv,
    make_diffusion_wave_study,
    make_integro_study,
    make_relaxation_study,
    make_subdiffusion_study,
    make_volterra_study,
    parse_csv,
    reproduce_table,
    run_study,
    theory_order,
    two_mesh_error,
)
from .volterra import (
    CollocationTrace,
    VolterraProblem,
    collocation_depth,
    collocation_residual,
    msd_volterra_forcing,
    singular_moment,
    solve_volterra,
)

__version__ = "0.1.0"

__all__ = [
    "CQWeights",
    "CollocationTrace",
    "ConvergenceReport",
    "FieldTrace",
    "GradedMesh",
    "IntervalFem",
    "L1System",
    "PdeData",
    "RelaxationProblem",
    "ScalarTrace",
    "SeparableField",
    "StudyError",
    "StudyRow",
    "StudySpec",
    "TABLE_IDS",
    "TimeProfile",
    "VolterraProblem",
    "apply_cq",
    "apply_dfrac",
    "as_forcing",
    "assemble_fem",
    "beta_profile",
    "build_cq",
    "build_l1",
    "build_mesh",
    "collocation_depth",
    "collocation_residual",
    "emit_csv",
    "frac_integrate",
    "frac_integrate_numeric",
    "full_order_depth",
    "integro_direct_data",
    "l1_weight_row",
    "make_diffusion_wave_study",
    "make_integro_study",
    "make_relaxation_study",
    "make_subdiffusion_study",
    "make_volterra_study",
    "march_l1",
    "ml_eval",
    "msd_forcing",
    "msd_integro_data",
    "msd_reconstruction",
    "msd_subdiffusion_data",
    "msd_volterra_forcing",
    "parse_csv",
    "refine",
    "relaxation_exact",
    "reproduce_table",
    "run_study",
    "singular_moment",
    "solve_diffusion_wave",
    "solve_integro",
    "solve_relaxation",
    "solve_subdiffusion",
    "solve_volterra",
    "theory_order",
    "two_mesh_error",
]
