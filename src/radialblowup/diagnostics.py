"""Blowup diagnostics evaluated on discrete states and run series.

Tracks the weighted momentum integral H(t) = int_0^R r*V dr, mass, the kinetic
plus pressure energy monitor, the quadratic growth (Riccati) residual
dH/dt - 2*H**2/R**3, the diverging lower envelope for H, and the
Cauchy-Schwarz gap, and condenses a finished run into a verdict report.
The integrals of a row come from one compiled pass (``row_integrals``) that
repeats the summation order of ``np.sum``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import _kernel
from .model import FluidState, ModelConfig, RadialGrid, records_equal, weighted_momentum
from .poisson import alpha

#: Relative envelope slack pinned at 1024 cells; coarser grids get more.
ENVELOPE_REL_TOL_1024 = 1.0e-3

#: A time is before the bound time T when it is below T * BEFORE_BOUND.
BEFORE_BOUND = 1.0 - 1e-12

_PRESSURELESS = ModelConfig()


class Verdict(str, enum.Enum):
    CONFIRMED = "confirmed"
    PENDING = "pending"
    VIOLATED = "violated"
    NOT_APPLICABLE = "not_applicable"


def blowup_functional(state: FluidState, grid: RadialGrid) -> float:
    """Weighted momentum H = int r*V dr by midpoint quadrature: numpy's
    ``weighted_momentum``, from which ``check`` takes H0 without loading the
    kernel."""
    return weighted_momentum(state.vel, grid)


@dataclass(frozen=True)
class BoundScope:
    """What the initial data and the config satisfy of the bound's hypotheses:
    H0, the ball radius, the bound time T = R**3 / (2*H0) (None unless H0 > 0)
    and the names of the failed hypotheses, in a fixed order."""

    h0: float
    radius: float
    t_bound: Optional[float]
    flags: tuple[str, ...]

    @property
    def applicable(self) -> bool:
        """The bound applies iff no hypothesis fails."""
        return not self.flags


def bound_scope(h0: float, cfg: ModelConfig) -> BoundScope:
    """The one rule of the bound's scope, decided from H0 and the config.

    The bound needs a repulsive or absent force (delta >= 0) and H0 > 0; a
    ``ModelConfig`` has gamma > 1.
    """
    failed = (
        ("attractive_force_outside_bound_scope", cfg.delta < 0),
        ("h0_not_positive", not h0 > 0),
    )
    t_bound = blowup_time_bound(h0, cfg.support_radius) if h0 > 0 else None
    return BoundScope(h0, cfg.support_radius, t_bound, tuple(f for f, bad in failed if bad))


def blowup_time_bound(h0: float, radius: float) -> float:
    """Upper bound R**3 / (2*H0) on the classical lifespan; needs H0 > 0."""
    if h0 <= 0:
        raise ValueError("blowup bound requires h0 > 0")
    return radius**3 / (2.0 * h0)


def lower_envelope(t, h0: float, radius: float):
    """Diverging lower barrier -R**3*H0 / (2*H0*t - R**3) for H, on t < bound."""
    if h0 <= 0:
        raise ValueError("envelope requires h0 > 0")
    t_bound = blowup_time_bound(h0, radius)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t >= t_bound):
        raise ValueError(f"envelope defined on 0 <= t < {t_bound}")
    return -(radius**3) * h0 / (2.0 * h0 * t - radius**3)


def riccati_residuals(h_values, times, radius: float) -> np.ndarray:
    """Forward-difference residuals dH/dt - 2*H_mid**2/R**3 between samples.

    Uses the midpoint average of consecutive H samples, which makes the
    residual second-order accurate in the sampling interval.
    """
    h = np.asarray(h_values, dtype=float)
    t = np.asarray(times, dtype=float)
    if h.size < 2 or h.size != t.size:
        raise ValueError("need >= 2 aligned samples")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError("times must be strictly increasing")
    h_mid = 0.5 * (h[1:] + h[:-1])
    return np.diff(h) / dt - 2.0 * h_mid**2 / radius**3


def row_integrals(
    state: FluidState, grid: RadialGrid, cfg: ModelConfig
) -> tuple[float, float, float, float]:
    """H, total mass, energy monitor and Cauchy-Schwarz gap of one state.

    One compiled pass takes the four sums in numpy's pairwise order, so each
    value is the same to the bit as its numpy expression and H is the same
    as ``weighted_momentum``.
    """
    momentum, mass, energy, square = _kernel.plan(grid, cfg).row_sums(state)
    dr, a = grid.cell_width, alpha(cfg.dim)
    h = momentum * dr
    try:
        h_squared = h**2
    except OverflowError:  # |H| above about 1.3e154: its square overflows to inf
        h_squared = np.inf
    gap = square * dr - 4.0 * h_squared / grid.support_radius**2
    return h, a * mass * dr, 2.0 * a * energy * dr, gap


def cauchy_schwarz_gap(state: FluidState, grid: RadialGrid) -> float:
    """Slack int V**2 * 2r dr - 4*H**2/R**2; nonnegative up to roundoff.

    The discrete midpoint quadrature reproduces int r dr exactly, so the
    inequality survives discretization with the same constant.
    """
    # the gap reads only the velocity: any config gives it
    return row_integrals(state, grid, _PRESSURELESS)[3]


def total_mass(state: FluidState, grid: RadialGrid, cfg: ModelConfig) -> float:
    """Discrete mass alpha(N) * sum rho_i * r_i**(N-1) * dr."""
    return row_integrals(state, grid, cfg)[1]


def energy_condition(state: FluidState, grid: RadialGrid, cfg: ModelConfig) -> float:
    """Monitor 2*int (rho*V**2 + 2*p) dx; informational, never feeds the verdict."""
    return row_integrals(state, grid, cfg)[2]


def max_velocity_gradient(state: FluidState, grid: RadialGrid) -> tuple[float, int]:
    """Largest |dV/dr| by central differences and the cell index attaining it.

    The first such cell on a tie; a NaN slope counts as the largest. A state
    of another length than the grid's raises ValueError.
    """
    # the slope reads only the velocity: any config gives it
    return _kernel.plan(grid, _PRESSURELESS).facts(state)[2]


def _column(name: str):
    """A series field written as the ``series.tsv`` column ``name``."""
    return field(metadata={"column": name})


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Per-stride time series of the run diagnostics, one column per field.

    All arrays share the length of ``times``; each field names its
    ``series.tsv`` column, in the file's column order. ``riccati_residuals``
    pads its final slot with NaN (forward differences leave one fewer value),
    and ``envelope_values`` is NaN wherever the envelope is undefined. Two
    series are equal when their columns have the same bits.
    """

    times: np.ndarray = _column("t")
    h_values: np.ndarray = _column("H")
    mass_values: np.ndarray = _column("mass")
    energy_values: np.ndarray = _column("energy_lhs")
    riccati_residuals: np.ndarray = _column("riccati_residual")
    envelope_values: np.ndarray = _column("envelope")
    cauchy_gaps: np.ndarray = _column("cauchy_gap")
    max_gradients: np.ndarray = _column("max_abs_dVdr")

    __eq__ = records_equal

    def __post_init__(self):
        for f in fields(self)[1:]:
            if getattr(self, f.name).size != self.times.size:
                raise ValueError(f"{f.name} length differs from times")


def envelope_rel_tol(n_cells: int) -> float:
    """Relative slack for the discrete envelope check; 1e-3 at 1024 cells."""
    return ENVELOPE_REL_TOL_1024 * max(1.0, 1024.0 / n_cells)


def envelope_column(times: np.ndarray, scope: BoundScope) -> np.ndarray:
    """The lower envelope at each of ``times`` before the bound time, where the
    bound applies; NaN at the other times."""
    envelope = np.full(times.size, np.nan)
    if scope.applicable:
        defined = times < scope.t_bound * BEFORE_BOUND
        envelope[defined] = lower_envelope(times[defined], scope.h0, scope.radius)
    return envelope


def series_from_rows(rows: list[tuple[float, ...]], scope: BoundScope) -> DiagnosticsSeries:
    """The series of a run's recorded rows, each (t, H, mass, energy,
    Cauchy-Schwarz gap, max |dV/dr|): those columns, the Riccati residuals
    and the envelope column of the run's ``scope``."""
    times, h, mass, energy, gap, max_gradient = map(np.asarray, zip(*rows))
    if times.size >= 2:
        res = riccati_residuals(h, times, scope.radius)
    else:
        res = np.asarray([], dtype=float)
    return DiagnosticsSeries(
        times, h, mass, energy, np.append(res, np.nan),
        envelope_column(times, scope), gap, max_gradient,
    )


@dataclass(frozen=True)
class RunReport:
    """What ``build_report`` decides of a finished run: the verdict, the
    bound's scope, the envelope check with its tolerance, and the mass drift.
    How and when the run ended is the ``Trajectory``'s."""

    verdict: Verdict
    scope: BoundScope
    envelope_ok: Optional[bool]
    envelope_tolerance: float
    mass_drift_rel: float


def build_report(
    series: DiagnosticsSeries,
    scope: BoundScope,
    *,
    n_cells: int,
    t_final: float,
    t_detect: Optional[float],
) -> RunReport:
    """Fold a finished run's diagnostics into a verdict.

    The falsification alarm (verdict ``violated``) fires when the bound
    hypotheses hold and either (a) the run passed the bound time with no
    detected singularity, or (b) the H series drops below the lower envelope
    beyond tolerance before the detection, where ``envelope_column`` of the
    series' times, not its own column, is defined.
    """
    applicable, t_bound = scope.applicable, scope.t_bound
    tol = envelope_rel_tol(n_cells)

    envelope = envelope_column(series.times, scope)
    checked = ~np.isnan(envelope)
    if t_detect is not None:
        checked &= series.times < t_detect
    held = np.all(series.h_values[checked] >= envelope[checked] * (1.0 - tol))
    envelope_ok = bool(held) if applicable else None

    mass0 = series.mass_values[0] if series.mass_values.size else 0.0
    if mass0 > 0:
        drift = float(np.max(np.abs(series.mass_values - mass0)) / mass0)
    else:
        drift = 0.0

    if not applicable:
        verdict = Verdict.NOT_APPLICABLE
    elif envelope_ok is False:
        verdict = Verdict.VIOLATED
    elif t_detect is not None:
        verdict = Verdict.CONFIRMED if t_detect <= t_bound else Verdict.VIOLATED
    elif t_final >= t_bound * BEFORE_BOUND:
        # regularity survived to the bound time with no detected singularity
        verdict = Verdict.VIOLATED
    else:
        verdict = Verdict.PENDING

    return RunReport(verdict, scope, envelope_ok, tol, drift)
