"""Explicit finite-volume integrator for the radial flow equations.

Mass is advanced in the r**(N-1)-weighted conservative form, which absorbs
the geometric source exactly and keeps the discrete mass telescoping to
roundoff. Velocity is advanced in primitive form with a local Lax-Friedrichs
advective flux, an interface pressure gradient, and the radial force field;
vacuum cells are skipped. Compact support is enforced by zeroed margin cells
at the outer wall acting as the solid container boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import diagnostics
from .model import (
    FluidState,
    ModelConfig,
    RadialGrid,
    grid_weights,
    pressure,
    sound_speed,
    validate_initial_data,
)
from .poisson import radial_field

NUM_GHOSTS = 2

#: Positivity slack and vacuum floor, both relative to the initial peak density.
POSITIVITY_REL_TOL = 1e-14
VACUUM_FLOOR_REL = 1e-12


class NumericalBreakdownError(ArithmeticError):
    """A tendency turned non-finite; carries the first offending cell index."""

    def __init__(self, cell_index: int, field: str):
        self.cell_index = cell_index
        self.field = field
        super().__init__(f"non-finite {field} tendency at cell {cell_index}")


class PositivityError(ArithmeticError):
    """Density dipped below the allowed roundoff band after a full step."""


class Termination(str, enum.Enum):
    REACHED_T_END = "reached_t_end"
    STEEPENING_DETECTED = "steepening_detected"
    DT_COLLAPSED = "dt_collapsed"
    POSITIVITY_VIOLATED = "positivity_violated"


@dataclass(frozen=True)
class NumericsConfig:
    """Resolution-independent numerical parameters of a run."""

    cfl: float = 0.4
    t_end: float = 1.0
    dt_floor: float = 1e-10
    steepening_threshold: float = 50.0
    output_stride: int = 10
    support_margin_cells: int = 2

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must be in (0, 1]")
        if self.t_end <= 0:
            raise ValueError("t_end must be > 0")
        if self.dt_floor <= 0:
            raise ValueError("dt_floor must be > 0")
        if self.steepening_threshold <= 0:
            raise ValueError("steepening_threshold must be > 0")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")
        if self.support_margin_cells < 1:
            raise ValueError("support_margin_cells must be >= 1")


@dataclass(frozen=True)
class SteepeningDetection:
    """Location and value of a gradient-threshold crossing."""

    cell_index: int
    radius: float
    slope: float


@dataclass(frozen=True)
class Trajectory:
    """Stored snapshots plus how and when the run ended."""

    snapshots: tuple[FluidState, ...]
    termination: Termination
    t_detect: Optional[float]

    def __post_init__(self):
        times = [s.time for s in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")
        detecting = self.termination in (
            Termination.STEEPENING_DETECTED,
            Termination.DT_COLLAPSED,
        )
        if detecting != (self.t_detect is not None):
            raise ValueError("t_detect must be present iff a singularity was flagged")


class RunResult(NamedTuple):
    trajectory: Trajectory
    series: diagnostics.DiagnosticsSeries
    report: diagnostics.RunReport


def mirror_pad(rho: np.ndarray, vel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend fields by NUM_GHOSTS cells: even/odd reflection at the origin,
    zeros beyond the outer wall."""
    g = NUM_GHOSTS
    zeros = np.zeros(g)
    rho_ext = np.concatenate((rho[:g][::-1], rho, zeros))
    vel_ext = np.concatenate((-vel[:g][::-1], vel, zeros))
    return rho_ext, vel_ext


def rhs_eval(
    state: FluidState,
    cfg: ModelConfig,
    grid: RadialGrid,
    num: NumericsConfig,
    rho_floor: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete tendencies (drho/dt, dvel/dt) for one stage evaluation.

    Mass fluxes are hard-zeroed at the origin interface and at every
    interface at or beyond the wall margin, so the discrete mass telescopes
    exactly. Velocity tendencies vanish in vacuum cells.
    """
    dr = grid.cell_width
    weights = grid_weights(grid, cfg.dim)

    # minmod-limited (rho, V) on both sides of the n+1 interfaces, indexed
    # [field, side, interface]; with NUM_GHOSTS = 2 the slopes cover exactly
    # the extended cells 1 .. n+2 that touch an interface
    ext = np.array(mirror_pad(state.rho, state.vel))
    diff = ext[:, 1:] - ext[:, :-1]
    mag = np.abs(diff)
    half_slope = np.where(
        diff[:, :-1] * diff[:, 1:] > 0.0,
        np.copysign(np.minimum(mag[:, :-1], mag[:, 1:]), diff[:, :-1]),
        0.0,
    )
    half_slope *= 0.5
    cells = ext[:, 1:-1]
    faces = np.empty((2, 2, grid.n_cells + 1))
    np.add(cells[:, :-1], half_slope[:, :-1], out=faces[:, 0])
    np.subtract(cells[:, 1:], half_slope[:, 1:], out=faces[:, 1])
    np.maximum(faces[0], 0.0, out=faces[0])
    rho_lr, vel_lr = faces

    # local Lax-Friedrichs fluxes of rho*V and V**2/2 share one dissipation
    # speed max(|V| + c); c is evaluated only when there is pressure
    a = np.abs(vel_lr)
    if cfg.pressure_const > 0.0:
        a += sound_speed(rho_lr, cfg)
    a = np.maximum(a[0], a[1])
    flux = vel_lr[0] * faces[:, 0]
    flux += vel_lr[1] * faces[:, 1]
    flux[0] *= 0.5
    flux[1] *= 0.25
    flux -= 0.5 * a * (faces[:, 1] - faces[:, 0])
    # the mass flux is weighted by x**(N-1) and closed at the origin and wall
    flux[0] *= weights.face_area
    flux[0, 0] = 0.0
    flux[0, grid.n_cells - num.support_margin_cells :] = 0.0
    drho = -(flux[0, 1:] - flux[0, :-1]) / weights.cell_volume
    dvel = -(flux[1, 1:] - flux[1, :-1]) / dr

    if cfg.pressure_const > 0.0:
        rho_face = 0.5 * (rho_lr[0] + rho_lr[1])
        if cfg.gamma > 1.0:
            # pressure force per unit mass as an exact enthalpy gradient,
            # K*g/(g-1) * d(rho**(g-1))/dr: bounded at the vacuum edge
            h_face = (
                cfg.pressure_const
                * cfg.gamma
                / (cfg.gamma - 1.0)
                * rho_face ** (cfg.gamma - 1.0)
            )
            dvel = dvel - (h_face[1:] - h_face[:-1]) / dr
        else:
            p_face = pressure(rho_face, cfg)
            denom = np.where(state.rho > rho_floor, state.rho, 1.0)
            dvel = dvel - (p_face[1:] - p_face[:-1]) / (dr * denom)

    if cfg.delta != 0:
        field = radial_field(np.maximum(state.rho, 0.0), grid, cfg)
        dvel = dvel + field.phi_r

    dvel = np.where(state.rho > rho_floor, dvel, 0.0)

    for name, tendency in (("density", drho), ("velocity", dvel)):
        finite = np.isfinite(tendency)
        if not finite.all():
            raise NumericalBreakdownError(int(np.argmin(finite)), name)
    return drho, dvel


def max_wave_speed(state: FluidState, cfg: ModelConfig) -> float:
    """Fastest signal speed max(|V| + c) over the cells."""
    speed = np.abs(state.vel)
    if cfg.pressure_const > 0.0:
        speed += sound_speed(np.maximum(state.rho, 0.0), cfg)
    return float(np.max(speed))


def _stable_dt(speed, time, num: NumericsConfig, grid: RadialGrid) -> float:
    cap = max(num.t_end - time, 0.0)
    return cap if speed <= 0.0 else min(num.cfl * grid.cell_width / speed, cap)


def cfl_dt(
    state: FluidState, cfg: ModelConfig, num: NumericsConfig, grid: RadialGrid
) -> float:
    """Stable step cfl*dr/max(|V|+c), capped by the time left to t_end."""
    return _stable_dt(max_wave_speed(state, cfg), state.time, num, grid)


def apply_boundary(state: FluidState, num: NumericsConfig) -> FluidState:
    """Zero both fields over the wall margin cells; idempotent."""
    m = num.support_margin_cells
    rho = state.rho.copy()
    vel = state.vel.copy()
    rho[rho.size - m :] = 0.0
    vel[vel.size - m :] = 0.0
    return FluidState(time=state.time, rho=rho, vel=vel)


def step(
    state: FluidState,
    dt: float,
    cfg: ModelConfig,
    grid: RadialGrid,
    num: NumericsConfig,
    rho_floor: float = 0.0,
    positivity_tol: float = 0.0,
) -> FluidState:
    """One two-stage strong-stability-preserving Runge-Kutta step.

    The boundary margin is re-applied after each stage. Raises
    PositivityError when the full step leaves density below -positivity_tol.
    """
    wall = slice(grid.n_cells - num.support_margin_cells, None)
    time = state.time + dt
    # both stages are written into the fresh tendency arrays
    mid = rhs_eval(state, cfg, grid, num, rho_floor)
    for stage, old in zip(mid, (state.rho, state.vel)):
        stage *= dt
        stage += old
        stage[wall] = 0.0
    new = rhs_eval(FluidState(time, *mid), cfg, grid, num, rho_floor)
    for stage, mid_field, old in zip(new, mid, (state.rho, state.vel)):
        stage *= dt
        stage += mid_field
        stage *= 0.5
        stage += 0.5 * old
        stage[wall] = 0.0
    rho_min = float(np.min(new[0]))
    if rho_min < -positivity_tol:
        raise PositivityError(
            f"density {rho_min:.3e} below -{positivity_tol:.3e} at t={time:.6g}"
        )
    return FluidState(time, *new)


def detect_steepening(
    state: FluidState, grid: RadialGrid, num: NumericsConfig, gradient=None
) -> Optional[SteepeningDetection]:
    """Threshold check on max_velocity_gradient, or on ``gradient`` if given."""
    if gradient is None:
        gradient = diagnostics.max_velocity_gradient(state, grid)
    slope, idx = gradient
    if slope > num.steepening_threshold:
        return SteepeningDetection(
            cell_index=idx, radius=float(grid.cell_centers[idx]), slope=slope
        )
    return None


def run(
    rho0: np.ndarray,
    v0: np.ndarray,
    cfg: ModelConfig,
    num: NumericsConfig,
) -> RunResult:
    """Advance the initial data until t_end or a termination event.

    Initial data must be nonnegative with exact zeros over the wall margin.
    Diagnostics and a snapshot are recorded every ``output_stride`` steps and
    at the final state; the report carries the bound comparison and verdict.
    """
    rho0 = np.asarray(rho0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    grid = RadialGrid(n_cells=rho0.size, support_radius=cfg.support_radius)
    check = validate_initial_data(
        rho0, v0, grid, cfg, margin_cells=num.support_margin_cells
    )
    if not check.admissible:
        problems = []
        if not check.rho_nonnegative:
            problems.append("density must be nonnegative")
        if not check.compact_support:
            problems.append("fields must vanish over the wall margin cells")
        raise ValueError("inadmissible initial data: " + "; ".join(problems))

    rho_peak = float(np.max(rho0))
    rho_floor = VACUUM_FLOOR_REL * rho_peak
    pos_tol = POSITIVITY_REL_TOL * rho_peak
    h0 = check.h0
    t_bound = diagnostics.blowup_time_bound(h0, cfg.support_radius) if h0 > 0 else None
    applicable = not diagnostics.scope_flags(h0, cfg)

    state = apply_boundary(FluidState(time=0.0, rho=rho0.copy(), vel=v0.copy()), num)

    snapshots: list[FluidState] = []
    times: list[float] = []
    h_list: list[float] = []
    mass_list: list[float] = []
    energy_list: list[float] = []
    env_list: list[float] = []
    gap_list: list[float] = []
    grad_list: list[float] = []

    def record(s: FluidState, max_gradient: float):
        snapshots.append(s)
        times.append(s.time)
        h_list.append(diagnostics.blowup_functional(s, grid))
        mass_list.append(diagnostics.total_mass(s, grid, cfg))
        energy_list.append(diagnostics.energy_condition(s, grid, cfg))
        if applicable and s.time < t_bound * (1.0 - 1e-12):
            env_list.append(
                float(diagnostics.lower_envelope(s.time, h0, cfg.support_radius))
            )
        else:
            env_list.append(float("nan"))
        gap_list.append(diagnostics.cauchy_schwarz_gap(s, grid))
        grad_list.append(max_gradient)

    gradient = diagnostics.max_velocity_gradient(state, grid)
    record(state, gradient[0])

    termination = Termination.REACHED_T_END
    t_detect: Optional[float] = None
    t_eps = 1e-12 * max(1.0, num.t_end)
    steps = 0
    while state.time < num.t_end - t_eps:
        speed = max_wave_speed(state, cfg)
        if speed > 0.0 and num.cfl * grid.cell_width / speed < num.dt_floor:
            termination = Termination.DT_COLLAPSED
            t_detect = state.time
            break
        dt = _stable_dt(speed, state.time, num, grid)
        try:
            state = step(state, dt, cfg, grid, num, rho_floor, pos_tol)
        except PositivityError:
            termination = Termination.POSITIVITY_VIOLATED
            break
        steps += 1
        gradient = diagnostics.max_velocity_gradient(state, grid)
        detection = detect_steepening(state, grid, num, gradient)
        if detection is not None:
            record(state, gradient[0])
            termination = Termination.STEEPENING_DETECTED
            t_detect = state.time
            break
        if steps % num.output_stride == 0:
            record(state, gradient[0])

    if times[-1] < state.time:
        record(state, gradient[0])

    if len(times) >= 2:
        res = diagnostics.riccati_residuals(h_list, times, cfg.support_radius)
    else:
        res = np.asarray([], dtype=float)
    series = diagnostics.DiagnosticsSeries(
        times=np.asarray(times),
        h_values=np.asarray(h_list),
        mass_values=np.asarray(mass_list),
        energy_values=np.asarray(energy_list),
        riccati_residuals=np.append(res, np.nan),
        envelope_values=np.asarray(env_list),
        cauchy_gaps=np.asarray(gap_list),
        max_gradients=np.asarray(grad_list),
    )
    report = diagnostics.build_report(
        series,
        cfg,
        h0=h0,
        n_cells=grid.n_cells,
        t_final=state.time,
        termination=termination.value,
        t_detect=t_detect,
    )
    trajectory = Trajectory(
        snapshots=tuple(snapshots), termination=termination, t_detect=t_detect
    )
    return RunResult(trajectory=trajectory, series=series, report=report)
