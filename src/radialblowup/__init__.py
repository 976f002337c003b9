"""Radial compressible Euler / Euler-Poisson solver with blowup diagnostics.

Simulates radially symmetric barotropic flow confined to a rigid ball and
checks the finite-time loss of regularity predicted for initial data with a
positive weighted momentum integral H0 = int_0^R r*V0 dr: detection on or
before T = R**3 / (2*H0).
"""

from .characteristics import (
    CrossingError,
    boundary_energy,
    characteristic_solution,
    density_along_characteristic,
    emden_boundary_ode,
    first_crossing_time,
    oracle_velocity,
)
from .diagnostics import (
    DiagnosticsSeries,
    Verdict,
    blowup_functional,
    blowup_time_bound,
    build_report,
    cauchy_schwarz_gap,
    energy_condition,
    lower_envelope,
    riccati_residuals,
    scope_flags,
    total_mass,
)
from .model import (
    FluidState,
    ModelConfig,
    RadialGrid,
    pressure,
    sound_speed,
    validate_initial_data,
    weighted_momentum,
)
from .poisson import FieldProfile, alpha, cumulative_mass_integrand, radial_field
from .profiles import build_initial_profile
from .solver import (
    NumericalBreakdownError,
    NumericsConfig,
    PositivityError,
    RunResult,
    Termination,
    apply_boundary,
    cfl_dt,
    detect_steepening,
    rhs_eval,
    run,
    step,
)

__version__ = "0.1.0"
