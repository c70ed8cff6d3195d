"""Solvers for nonlocal-in-time problems with a multiscale splitting.

The package covers scalar fractional relaxation, weakly singular
Volterra equations, and three 1D parabolic-type models, each paired
with a classical time discretization and an optional change of
unknown that separates the leading singular terms of the solution.
``study`` wires the solvers into two-mesh convergence reports.  The
public names are those of each module's ``__all__``.
"""

from . import conv_quad, fracint, l1_scheme, mesh, mittag_leffler, pde1d, relaxation, study, volterra
from .conv_quad import *
from .fracint import *
from .l1_scheme import *
from .mesh import *
from .mittag_leffler import *
from .pde1d import *
from .relaxation import *
from .study import *
from .volterra import *

__version__ = "0.1.0"

_MODULES = (conv_quad, fracint, l1_scheme, mesh, mittag_leffler, pde1d, relaxation, study, volterra)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
