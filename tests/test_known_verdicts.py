"""The known false verdicts, each asserting the correct outcome.

Each case is an open item of ROADMAP.md (named in its xfail reason) on the
smallest grid that shows the defect, and is marked ``xfail(strict=True)``:
it fails today, and the change that fixes the defect turns it into an
XPASS, which fails the suite until that change removes the marker.
"""

import numpy as np
import pytest

from radialblowup import ModelConfig, NumericsConfig, RadialGrid, solver
from radialblowup.diagnostics import Verdict, max_velocity_gradient
from radialblowup.model import FluidState, wall_index
from radialblowup.profiles import build_initial_profile

# the acceptance suite's A1 window around the bump's oracle time t* = 1
A1_WINDOW = (0.9, 1.1)


def known(item: int, why: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"item {item}: {why}")


def numerics(**changes) -> NumericsConfig:
    """The acceptance suite's numerics: threshold 20, t_end 2, margin 2."""
    base = dict(cfl=0.4, t_end=2.0, steepening_threshold=20.0, output_stride=10,
                support_margin_cells=2)
    return NumericsConfig(**{**base, **changes})


def model(delta=0, pressure_const=0.0) -> ModelConfig:
    return ModelConfig(dim=3, delta=delta, pressure_const=pressure_const, gamma=1.4)


def bump(n: int, margin: int = 2, **params) -> tuple:
    """The README bump's (rho0, v0) at n cells."""
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    profile = build_initial_profile("polynomial_bump", params, 0, grid, margin)
    return profile.rho0, profile.v0


def fields(n: int, rho, vel, margin: int = 2) -> tuple:
    """rho(r) and vel(r) at the cell centers, zero over the wall margin."""
    r = RadialGrid(n_cells=n, support_radius=1.0).cell_centers
    rho0, v0, wall = rho(r), vel(r), wall_index(n, margin)
    rho0[wall:] = v0[wall:] = 0.0
    return rho0, v0


@known(2, "the slope at the last fluid cell reads the margin's pinned zero")
def test_the_a1_detection_does_not_move_with_the_wall_margin():
    # detects at 0.9563 with margin 2 and 0.8063 with margin 8
    for margin in (2, 8):
        result = solver.run(*bump(1024, margin), model(), numerics(support_margin_cells=margin))
        assert A1_WINDOW[0] <= result.trajectory.t_detect <= A1_WINDOW[1], margin


@known(1, "the envelope H0/(1 - 2 H0 t/R^3) is no lower bound for classical dust")
def test_classical_dust_never_ends_violated():
    # V0 = r(1 - r^4) is classical to t* = 0.25; it ends violated at 0.1767
    data = fields(512, lambda r: (1 - r**2) ** 2, lambda r: r * (1 - r**4))
    result = solver.run(*data, model(), numerics(output_stride=1))
    assert result.report.verdict is not Verdict.VIOLATED


@known(3, "data already past the threshold at t = 0 confirm after one step")
def test_no_confirmation_from_data_past_the_threshold():
    # |V0'(R)| = 21 > 20: confirmed after 1 step, at t = 0.00048
    data = fields(1024, lambda r: (1 - r**2) ** 2, lambda r: r * (1 - r**20))
    grid = RadialGrid(n_cells=1024, support_radius=1.0)
    assert max_velocity_gradient(FluidState(0.0, *data), grid)[0] > 20.0
    result = solver.run(*data, model(), numerics())
    assert result.report.verdict is not Verdict.CONFIRMED


@known(3, "an expansive slope, which only decays, counts as steepening")
def test_no_detection_from_an_expansive_slope():
    # classical to t* = 1/(1 - e^-25), T = 3.027; V0'(0) = +25: confirmed
    # after 1 step at t = 0.000467, slope +24 at r = 0.0015
    data = fields(1024, lambda r: (1 - r**2) ** 2, lambda r: (1 - r) * (1 - np.exp(-r / 0.04)))
    result = solver.run(*data, model(), numerics())
    assert result.trajectory.t_detect >= 0.5


@known(5, "a collapsing time step counts as a detection")
def test_a_collapsed_time_step_confirms_nothing():
    # ends dt_collapsed at t = 0, and confirmed
    result = solver.run(*bump(256), model(), numerics(dt_floor=1.0))
    assert result.report.verdict is not Verdict.CONFIRMED


@known(11, "data that fail the wall's compatibility condition confirm at the wall")
def test_incompatible_pressure_data_confirm_nothing():
    # A2's delta = 0 config confirms at 0.0145, a time that falls with n
    result = solver.run(*bump(1024), model(pressure_const=0.1), numerics())
    assert result.report.verdict is not Verdict.CONFIRMED


@known(16, "cells below the vacuum floor freeze and read as steepening")
def test_the_detection_converges_on_a_steep_density_edge():
    # detects at 0.1412 with 1024 cells and 0.1092 with 4096
    times = {}
    for n in (1024, 4096):
        data = fields(n, lambda r: (1 - r**2) ** 5, lambda r: r * (1 - r))
        times[n] = solver.run(*data, model(pressure_const=1.0), numerics()).trajectory.t_detect
    assert abs(times[1024] - times[4096]) <= 10.0 / 1024


@known(4, "the time step is bounded by the wave speed alone")
def test_data_at_rest_under_a_force_take_a_step():
    # an attractive force on still data: positivity_violated after 0 steps
    result = solver.run(*bump(512, velocity_amplitude=0.0), model(delta=-1), numerics())
    assert result.trajectory.steps >= 1
