"""Blowup diagnostics evaluated on discrete states and run series.

Tracks the weighted momentum integral H(t) = int_0^R r*V dr, mass, the kinetic
plus pressure energy monitor, the quadratic growth (Riccati) residual
dH/dt - 2*H**2/R**3, the diverging lower envelope for H, and the
Cauchy-Schwarz gap, and condenses a finished run into a verdict report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .model import FluidState, ModelConfig, RadialGrid, grid_weights, pressure
from .model import weighted_momentum
from .poisson import alpha

#: Operational definition of a detected singularity, recorded in every report.
BLOWUP_DEFINITION = (
    "velocity gradient steepening beyond threshold, or CFL time step "
    "collapse below dt_floor"
)

#: Relative envelope slack pinned at 1024 cells; coarser grids get more.
ENVELOPE_REL_TOL_1024 = 1.0e-3


class Verdict(str, enum.Enum):
    CONFIRMED = "confirmed"
    PENDING = "pending"
    VIOLATED = "violated"
    NOT_APPLICABLE = "not_applicable"


def blowup_functional(state: FluidState, grid: RadialGrid) -> float:
    """Weighted momentum H = int r*V dr by midpoint quadrature."""
    return weighted_momentum(state.vel, grid)


def scope_flags(h0: float, cfg: ModelConfig) -> tuple[str, ...]:
    """The failed hypotheses of the blowup bound; it applies iff there are none.

    The bound needs a repulsive or absent force (delta >= 0), a pressureless
    fluid or gamma > 1, and H0 > 0.
    """
    flags = []
    if cfg.delta < 0:
        flags.append("attractive_force_outside_bound_scope")
    if not cfg.eos_in_scope:
        flags.append("isothermal_eos_outside_bound_scope")
    if not h0 > 0:
        flags.append("h0_not_positive")
    return tuple(flags)


def blowup_time_bound(h0: float, radius: float) -> float:
    """Upper bound R**3 / (2*H0) on the classical lifespan; needs H0 > 0."""
    if h0 <= 0:
        raise ValueError("blowup bound requires h0 > 0")
    return radius**3 / (2.0 * h0)


def lower_envelope(t, h0: float, radius: float):
    """Diverging lower barrier -R**3*H0 / (2*H0*t - R**3) for H, on t < bound."""
    if h0 <= 0:
        raise ValueError("envelope requires h0 > 0")
    t = np.asarray(t, dtype=float)
    t_bound = blowup_time_bound(h0, radius)
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


def cauchy_schwarz_gap(state: FluidState, grid: RadialGrid) -> float:
    """Slack int V**2 * 2r dr - 4*H**2/R**2; nonnegative up to roundoff.

    The discrete midpoint quadrature reproduces int r dr exactly, so the
    inequality survives discretization with the same constant.
    """
    r = grid.cell_centers
    lhs = float(np.sum(state.vel**2 * 2.0 * r) * grid.cell_width)
    h = blowup_functional(state, grid)
    return lhs - 4.0 * h**2 / grid.support_radius**2


def total_mass(state: FluidState, grid: RadialGrid, cfg: ModelConfig) -> float:
    """Discrete mass alpha(N) * sum rho_i * r_i**(N-1) * dr."""
    weight = grid_weights(grid, cfg.dim).center
    return float(alpha(cfg.dim) * np.sum(state.rho * weight) * grid.cell_width)


def energy_condition(state: FluidState, grid: RadialGrid, cfg: ModelConfig) -> float:
    """Monitor 2*int (rho*V**2 + 2*p) dx; informational, never feeds the verdict."""
    integrand = state.rho * state.vel**2
    if cfg.pressure_const > 0.0:
        integrand += 2.0 * pressure(np.maximum(state.rho, 0.0), cfg)
    weight = grid_weights(grid, cfg.dim).center
    return float(2.0 * alpha(cfg.dim) * np.sum(integrand * weight) * grid.cell_width)


def max_velocity_gradient(state: FluidState, grid: RadialGrid) -> tuple[float, int]:
    """Largest |dV/dr| by central differences and the cell index attaining it."""
    v = state.vel
    if v.size < 3:
        return 0.0, 0
    slopes = np.abs(v[2:] - v[:-2]) / (2.0 * grid.cell_width)
    k = int(np.argmax(slopes))
    return float(slopes[k]), k + 1


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Per-stride time series of the run diagnostics, one column per field.

    All arrays share the length of ``times``; the field order is the column
    order of ``series.tsv``. ``riccati_residuals`` pads its final slot with
    NaN (forward differences leave one fewer value), and ``envelope_values``
    is NaN wherever the envelope is undefined.
    """

    times: np.ndarray
    h_values: np.ndarray
    mass_values: np.ndarray
    energy_values: np.ndarray
    riccati_residuals: np.ndarray
    envelope_values: np.ndarray
    cauchy_gaps: np.ndarray
    max_gradients: np.ndarray

    def __post_init__(self):
        for f in fields(self)[1:]:
            if getattr(self, f.name).size != self.times.size:
                raise ValueError(f"{f.name} length differs from times")


def envelope_rel_tol(n_cells: int) -> float:
    """Relative slack for the discrete envelope check; 1e-3 at 1024 cells."""
    return ENVELOPE_REL_TOL_1024 * max(1.0, 1024.0 / n_cells)


def check_envelope(
    times,
    h_values,
    h0: float,
    radius: float,
    rel_tol: float,
    t_cut: Optional[float] = None,
) -> bool:
    """True when H_k >= envelope(t_k) * (1 - rel_tol) on every checked sample.

    Samples at or past ``t_cut`` (typically the detection time) or past the
    bound time are excluded; the envelope is undefined there.
    """
    times = np.asarray(times, dtype=float)
    h = np.asarray(h_values, dtype=float)
    hi = blowup_time_bound(h0, radius) * (1.0 - 1e-12)
    if t_cut is not None:
        hi = min(hi, t_cut)
    mask = times < hi
    if not np.any(mask):
        return True
    env = lower_envelope(times[mask], h0, radius)
    return bool(np.all(h[mask] >= env * (1.0 - rel_tol)))


@dataclass(frozen=True)
class RunReport:
    """Condensed outcome of one run: bound, detection, verdict, tolerances."""

    verdict: Verdict
    bound_applicable: bool
    t_bound: Optional[float]
    t_detect: Optional[float]
    h0: float
    t_final: float
    termination: str
    envelope_ok: Optional[bool]
    envelope_tolerance: float
    mass_drift_rel: float
    scope_flags: tuple[str, ...]
    blowup_definition: str = BLOWUP_DEFINITION


def build_report(
    series: DiagnosticsSeries,
    cfg: ModelConfig,
    *,
    h0: float,
    n_cells: int,
    t_final: float,
    termination: str,
    t_detect: Optional[float],
) -> RunReport:
    """Fold a finished run's diagnostics into a verdict.

    The falsification alarm (verdict ``violated``) fires when the bound
    hypotheses hold and either (a) the run passed the bound time with no
    detected singularity, or (b) the H series drops below the lower envelope
    beyond tolerance on pre-detection samples.
    """
    radius = cfg.support_radius
    flags = scope_flags(h0, cfg)
    applicable = not flags
    t_bound = blowup_time_bound(h0, radius) if h0 > 0 else None
    tol = envelope_rel_tol(n_cells)

    envelope_ok: Optional[bool] = None
    if applicable:
        envelope_ok = check_envelope(
            series.times, series.h_values, h0, radius, tol, t_cut=t_detect
        )

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
    elif t_final >= t_bound * (1.0 - 1e-12):
        # regularity survived to the bound time with no detected singularity
        verdict = Verdict.VIOLATED
    else:
        verdict = Verdict.PENDING

    return RunReport(
        verdict=verdict,
        bound_applicable=applicable,
        t_bound=t_bound,
        t_detect=t_detect,
        h0=h0,
        t_final=t_final,
        termination=termination,
        envelope_ok=envelope_ok,
        envelope_tolerance=tol,
        mass_drift_rel=drift,
        scope_flags=flags,
    )
