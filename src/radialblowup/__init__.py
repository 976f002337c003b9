"""Radial compressible Euler / Euler-Poisson solver with blowup diagnostics.

Simulates radially symmetric barotropic flow confined to a rigid ball and
checks the finite-time loss of regularity predicted for initial data with a
positive weighted momentum integral H0 = int_0^R r*V0 dr: detection on or
before T = R**3 / (2*H0).

The package root holds what callers of ``run`` use; every other name is
imported from its module.
"""

from .diagnostics import blowup_functional
from .model import FluidState, ModelConfig, RadialGrid
from .poisson import radial_field
from .profiles import build_initial_profile, first_crossing_time
from .solver import NumericsConfig, cfl_dt, rhs_eval, run, step

__version__ = "0.1.0"
