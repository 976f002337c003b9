"""Explicit finite-volume integrator for the radial flow equations.

Mass is advanced in the r**(N-1)-weighted conservative form, which absorbs
the geometric source exactly and keeps the discrete mass telescoping to
roundoff. Velocity is advanced in primitive form with a local Lax-Friedrichs
advective flux, an interface pressure gradient, and the radial force field;
vacuum cells are skipped. Compact support is enforced by zeroed margin cells
at the outer wall acting as the solid container boundary.

A stage, the step's Runge-Kutta combinations and the facts of a state are
compiled C (``_kernel.c``, built on first use), called through the grid and
model's ``_kernel.Plan``: a step is two C calls, its first stage and the
rest. A step returns the facts of the state it made, whose wave speed and
steepest slope ``run`` reads for the next dt and the detection.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import _kernel, diagnostics
from .model import (
    FluidState, ModelConfig, RadialGrid, require_finite, validate_initial_data, wall_index,
)

# not called here: bench/tracer.py wraps these names in this module
from .model import sound_speed  # noqa: F401
from .poisson import radial_field  # noqa: F401

#: Positivity slack and vacuum floor, both relative to the initial peak density.
POSITIVITY_REL_TOL = 1e-14
VACUUM_FLOOR_REL = 1e-12


class NumericalBreakdownError(ArithmeticError):
    """A tendency turned non-finite; carries the first offending cell index."""

    def __init__(self, cell_index: int, field: str):
        self.cell_index = cell_index
        self.field = field
        super().__init__(f"non-finite {field} tendency at cell {cell_index}")


def _breakdown(bad: int, n: int) -> NumericalBreakdownError:
    """The error of a kernel's first non-finite index ``bad`` in a (2, n)
    tendency block: cell ``bad % n`` of the density row, then the velocity row."""
    return NumericalBreakdownError(bad % n, ("density", "velocity")[bad // n])


class PositivityError(ArithmeticError):
    """Density dipped below the allowed roundoff band after a full step."""


class Termination(str, enum.Enum):
    REACHED_T_END = "reached_t_end"
    STEEPENING_DETECTED = "steepening_detected"
    DT_COLLAPSED = "dt_collapsed"
    POSITIVITY_VIOLATED = "positivity_violated"
    NUMERICAL_BREAKDOWN = "numerical_breakdown"


#: The endings that flag a singularity, and so carry a detection time; the
#: numerical failures, which exit 1. Every other ending reached t_end.
DETECTIONS = frozenset({Termination.STEEPENING_DETECTED, Termination.DT_COLLAPSED})
FAILURES = frozenset({Termination.POSITIVITY_VIOLATED, Termination.NUMERICAL_BREAKDOWN})

#: Operational definition of a detected singularity (``DETECTIONS``), in every summary.
BLOWUP_DEFINITION = (
    "velocity gradient steepening beyond threshold, or CFL time step "
    "collapse below dt_floor"
)


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
        require_finite(self)
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if self.dt_floor <= 0:
            raise ValueError(f"dt_floor must be > 0, got {self.dt_floor}")
        if self.steepening_threshold <= 0:
            raise ValueError(f"steepening_threshold must be > 0, got {self.steepening_threshold}")
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        if self.support_margin_cells < 1:
            raise ValueError(f"support_margin_cells must be >= 1, got {self.support_margin_cells}")


@dataclass(frozen=True)
class SteepeningDetection:
    """Location and value of a gradient-threshold crossing."""

    cell_index: int
    radius: float
    slope: float


@dataclass(frozen=True)
class BreakdownSite:
    """Field and first cell of the non-finite tendency that ended a run."""

    field: str
    cell_index: int
    radius: float


@dataclass(frozen=True)
class Trajectory:
    """One snapshot state per requested time, how the run ended, the time of
    its final state and of its detection, the number of steps taken with their
    (smallest, largest) dt, None without steps, and the seconds spent recording
    diagnostics rows and building the series and report from them, which
    equality ignores."""

    snapshots: tuple[FluidState, ...]
    termination: Termination
    t_final: float
    t_detect: Optional[float]
    breakdown: Optional[BreakdownSite] = None
    steps: int = 0
    dt_range: Optional[tuple[float, float]] = None
    diagnostics_s: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if (self.termination in DETECTIONS) != (self.t_detect is not None):
            raise ValueError("t_detect must be present iff a singularity was flagged")
        broken = self.termination is Termination.NUMERICAL_BREAKDOWN
        if broken != (self.breakdown is not None):
            raise ValueError("breakdown must be present iff the run broke down")


class RunResult(NamedTuple):
    """What ``run`` returns. Two results of one config compare equal: their
    states and series compare their arrays by the bits."""

    trajectory: Trajectory
    series: diagnostics.DiagnosticsSeries
    report: diagnostics.RunReport


class StepResult(NamedTuple):
    """The state a step made and what a run reads of it: its wave speed
    max(|V| + c), its ``max_velocity_gradient`` and, with K > 0, its cells
    raised to gamma - 1, which the next step takes back (else None)."""

    state: FluidState
    speed: float
    gradient: tuple[float, int]
    powers: Optional[np.ndarray]


def rhs_eval(
    state: FluidState,
    cfg: ModelConfig,
    grid: RadialGrid,
    num: NumericsConfig,
    rho_floor: float = 0.0,
    powers: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Discrete tendencies of one stage: a (2, n) array of drho/dt and dvel/dt.

    Mass fluxes are hard-zeroed at the origin interface and at every
    interface at or beyond the wall margin, so the discrete mass telescopes
    exactly. Velocity tendencies vanish in vacuum cells. ``powers`` are the
    state's cells raised as a ``StepResult`` holds them; None raises them.

    A wall margin outside [1, n_cells) raises ValueError.
    """
    n = grid.n_cells
    wall = wall_index(n, num.support_margin_cells)
    out, bad = _kernel.plan(grid, cfg).tendencies(state, wall, rho_floor, powers)
    if bad >= 0:
        raise _breakdown(bad, n)
    return out


def max_wave_speed(state: FluidState, cfg: ModelConfig, grid: RadialGrid) -> float:
    """Fastest signal speed max(|V| + c) over the cells."""
    return _kernel.plan(grid, cfg).facts(state)[1]


def _stable_dt(speed, time, cfl_dr: float, t_end: float) -> tuple:
    """The CFL step (cfl*dr)/speed (inf for a still state, NaN for a NaN
    speed), ``cfl_dr`` the product, and that step capped by the time left to
    t_end."""
    cfl_step = math.inf if speed <= 0.0 else cfl_dr / speed
    return cfl_step, min(cfl_step, max(t_end - time, 0.0))


def cfl_dt(
    state: FluidState, cfg: ModelConfig, num: NumericsConfig, grid: RadialGrid
) -> float:
    """Stable step cfl*dr/max(|V|+c), capped by the time left to t_end."""
    speed = max_wave_speed(state, cfg, grid)
    return _stable_dt(speed, state.time, num.cfl * grid.cell_width, num.t_end)[1]


def apply_boundary(state: FluidState, num: NumericsConfig) -> FluidState:
    """Zero both fields over the wall margin cells; idempotent."""
    wall = wall_index(state.n_cells, num.support_margin_cells)
    fields = np.stack([state.rho, state.vel])
    fields[:, wall:] = 0.0
    return FluidState(state.time, *fields)


def step(
    state: FluidState,
    dt: float,
    cfg: ModelConfig,
    grid: RadialGrid,
    num: NumericsConfig,
    rho_floor: float = 0.0,
    positivity_tol: float = 0.0,
    powers: Optional[np.ndarray] = None,
) -> StepResult:
    """One two-stage strong-stability-preserving Runge-Kutta step from
    ``state``, whose raised cells are ``powers`` (None raises them).

    The boundary margin is re-applied after each stage. Raises
    NumericalBreakdownError for a non-finite tendency of either stage, and
    PositivityError when the full step leaves density below -positivity_tol.
    A step allocates one (2, n) block per stage, the second of which holds
    the new state, and with K > 0 two raised rows.
    """
    n = grid.n_cells
    # the first stage, then the rest of the step in one kernel call
    k = rhs_eval(state, cfg, grid, num, rho_floor, powers)
    bad, made, facts, powers = _kernel.plan(grid, cfg).finish_step(
        wall_index(n, num.support_margin_cells), dt, state, k, rho_floor
    )
    if bad >= 0:
        raise _breakdown(bad, n)
    rho_min, speed, gradient = facts
    if rho_min < -positivity_tol:
        raise PositivityError(
            f"density {rho_min:.3e} below -{positivity_tol:.3e} at t={made.time:.6g}"
        )
    return StepResult(made, speed, gradient, powers)


def detect_steepening(
    gradient: tuple[float, int], grid: RadialGrid, num: NumericsConfig
) -> Optional[SteepeningDetection]:
    """Threshold check on a state's ``max_velocity_gradient``."""
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
    snapshot_times: tuple[float, ...] = (),
) -> RunResult:
    """Advance the initial data until t_end or a termination event.

    Initial data must be nonnegative, positive in some cell and exactly zero
    over the wall margin.
    A diagnostics row is recorded at t = 0, every ``output_stride`` steps and
    at the final state. The trajectory holds how and when the run ended, the
    series the rows, and the report the bound comparison and verdict.
    A step that fails the positivity check or produces a non-finite tendency
    ends the run at the last good state, which is the final row.
    For each of ``snapshot_times``, in request order, the trajectory keeps the
    recorded state nearest that time (the earlier one on a tie), and no
    other: no later row is strictly nearer to an infinite or NaN request,
    which so keeps the first. A run holds n cells per snapshot time and one
    small tuple per row, whatever its number of steps.
    """
    rho0 = np.asarray(rho0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    grid = RadialGrid(n_cells=rho0.size, support_radius=cfg.support_radius)
    h0 = validate_initial_data(rho0, v0, grid, margin_cells=num.support_margin_cells)
    scope = diagnostics.bound_scope(h0, cfg)

    rho_peak = float(np.max(rho0))
    rho_floor = VACUUM_FLOOR_REL * rho_peak
    pos_tol = POSITIVITY_REL_TOL * rho_peak

    # a copy with the margin zeroed: validation let -0.0 through, and the
    # margin holds +0.0
    state = apply_boundary(FluidState(time=0.0, rho=rho0, vel=v0), num)

    # rows are (t, H, mass, energy, Cauchy-Schwarz gap, max |dV/dr|)
    rows: list[tuple[float, ...]] = []
    # (|t - wanted|, state) of the nearest recorded state for each wanted time
    nearest: list[Optional[tuple[float, FluidState]]] = [None] * len(snapshot_times)
    clock = time.perf_counter
    diagnostics_s = 0.0

    def record(s: FluidState, max_gradient: float):
        nonlocal diagnostics_s
        began = clock()
        for k, wanted in enumerate(snapshot_times):
            distance = abs(s.time - wanted)
            if nearest[k] is None or distance < nearest[k][0]:
                nearest[k] = (distance, s)
        rows.append((s.time, *diagnostics.row_integrals(s, grid, cfg), max_gradient))
        diagnostics_s += clock() - began

    # the initial state's facts; every later state's come with the step
    plan = _kernel.plan(grid, cfg)
    powers = plan.powers(state)
    _, speed, gradient = plan.facts(state, powers)
    record(state, gradient[0])

    termination = Termination.REACHED_T_END
    breakdown: Optional[BreakdownSite] = None
    # what the loop reads of the grid and numerics, read once
    cfl_dr, t_end, dt_floor, stride = (
        num.cfl * grid.cell_width, num.t_end, num.dt_floor, num.output_stride
    )
    t_stop = t_end - 1e-12 * max(1.0, t_end)
    steps, dt_min, dt_max = 0, math.inf, 0.0
    while state.time < t_stop:
        cfl_step, dt = _stable_dt(speed, state.time, cfl_dr, t_end)
        if cfl_step < dt_floor:
            termination = Termination.DT_COLLAPSED
            break
        try:
            state, speed, gradient, powers = step(
                state, dt, cfg, grid, num, rho_floor, pos_tol, powers
            )
        except PositivityError:
            termination = Termination.POSITIVITY_VIOLATED
            break
        except NumericalBreakdownError as exc:
            termination = Termination.NUMERICAL_BREAKDOWN
            radius = float(grid.cell_centers[exc.cell_index])
            breakdown = BreakdownSite(exc.field, exc.cell_index, radius)
            break
        steps += 1
        dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
        detection = detect_steepening(gradient, grid, num)
        if detection is not None:
            record(state, gradient[0])
            termination = Termination.STEEPENING_DETECTED
            break
        if steps % stride == 0:
            record(state, gradient[0])

    if rows[-1][0] < state.time:
        record(state, gradient[0])
    t_detect = state.time if termination in DETECTIONS else None

    began = clock()
    series = diagnostics.series_from_rows(rows, scope)
    report = diagnostics.build_report(
        series, scope, n_cells=grid.n_cells, t_final=state.time, t_detect=t_detect
    )
    diagnostics_s += clock() - began
    trajectory = Trajectory(
        snapshots=tuple(s for _, s in nearest),
        termination=termination,
        t_final=state.time,
        t_detect=t_detect,
        breakdown=breakdown,
        steps=steps,
        dt_range=(dt_min, dt_max) if steps else None,
        diagnostics_s=diagnostics_s,
    )
    return RunResult(trajectory=trajectory, series=series, report=report)
