"""Test oracle: the stepping kernel as it was before the fused rewrite.

A verbatim copy of the unfused ``rhs_eval`` and ``step`` with the helpers
they call (per-field limiting, boundary copies, Poisson prefix sums), of
the numpy diagnostics row (mass, energy monitor and Cauchy-Schwarz gap,
each summed by ``np.sum``), of the numpy ``max_velocity_gradient``,
with the barotropic ``pressure`` law they read, and of the Python table
writer that the compiled ``format_rows`` replaced. It is never run by the
package; property tests compare the production code against it bit for
bit, and the tables byte for byte. It is the scheme's specification, so a
scheme change is made here too: the dissipation speed takes its sound
speeds from the two cells beside each interface, not from the face
densities, and the face enthalpy is reconstructed from the cells'
rho**(gamma - 1), not raised from the face densities.
"""

from __future__ import annotations

import numpy as np

from radialblowup.model import (
    FluidState,
    ModelConfig,
    RadialGrid,
    sound_speed,
    weighted_momentum,
)
from radialblowup.poisson import FieldProfile, alpha
from radialblowup.solver import NumericalBreakdownError, NumericsConfig, PositivityError

NUM_GHOSTS = 2


def pressure(rho, cfg: ModelConfig):
    """Barotropic pressure p = K * rho**gamma; raises on negative density."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("pressure undefined for negative density")
    return cfg.pressure_const * rho**cfg.gamma


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def mirror_pad(rho: np.ndarray, vel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend fields by NUM_GHOSTS cells: even/odd reflection at the origin,
    zeros beyond the outer wall."""
    g = NUM_GHOSTS
    zeros = np.zeros(g)
    rho_ext = np.concatenate((rho[:g][::-1], rho, zeros))
    vel_ext = np.concatenate((-vel[:g][::-1], vel, zeros))
    return rho_ext, vel_ext


def _interface_states(ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minmod-limited left/right states at the n+1 interfaces of the interior."""
    slope = np.zeros_like(ext)
    slope[1:-1] = _minmod(ext[1:-1] - ext[:-2], ext[2:] - ext[1:-1])
    g = NUM_GHOSTS
    # interface j sits between extended cells (g-1+j, g+j), j = 0..n
    left = ext[g - 1 : -g] + 0.5 * slope[g - 1 : -g]
    right = ext[g : ext.size - g + 1] - 0.5 * slope[g : ext.size - g + 1]
    return left, right


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
    n = grid.n_cells
    dr = grid.cell_width
    x = grid.interfaces
    r = grid.cell_centers
    dim = cfg.dim

    rho_ext, vel_ext = mirror_pad(state.rho, state.vel)
    rho_l, rho_r = _interface_states(rho_ext)
    vel_l, vel_r = _interface_states(vel_ext)
    rho_l = np.maximum(rho_l, 0.0)
    rho_r = np.maximum(rho_r, 0.0)

    # the dissipation speed takes the sound speeds of the two cells beside
    # each interface: extended cells 1 .. n + 2, the ghosts included
    c_ext = sound_speed(np.maximum(rho_ext[1:-1], 0.0), cfg)
    a = np.maximum(np.abs(vel_l) + c_ext[:-1], np.abs(vel_r) + c_ext[1:])

    # mass flux rho*V with local Lax-Friedrichs dissipation, weighted by x**(N-1)
    f_mass = 0.5 * (rho_l * vel_l + rho_r * vel_r) - 0.5 * a * (rho_r - rho_l)
    flux = x ** (dim - 1) * f_mass
    flux[0] = 0.0
    flux[n - num.support_margin_cells :] = 0.0
    drho = -(flux[1:] - flux[:-1]) / (r ** (dim - 1) * dr)

    # velocity advection flux V**2/2 with the same dissipation speed
    g_adv = 0.25 * (vel_l**2 + vel_r**2) - 0.5 * a * (vel_r - vel_l)
    dvel = -(g_adv[1:] - g_adv[:-1]) / dr

    if cfg.pressure_const > 0.0:
        # pressure force per unit mass as an exact enthalpy gradient,
        # K*g/(g-1) * d(rho**(g-1))/dr: bounded at the vacuum edge. The face
        # values are reconstructed from the cells' rho**(g-1), padded like
        # rho (0**(g-1) = 0 past the wall)
        h = np.maximum(state.rho, 0.0) ** (cfg.gamma - 1.0)
        g = NUM_GHOSTS
        h_l, h_r = _interface_states(np.concatenate((h[:g][::-1], h, np.zeros(g))))
        h_face = (
            cfg.pressure_const
            * cfg.gamma
            / (cfg.gamma - 1.0)
            * (0.5 * (np.maximum(h_l, 0.0) + np.maximum(h_r, 0.0)))
        )
        dvel = dvel - (h_face[1:] - h_face[:-1]) / dr

    if cfg.delta != 0:
        field = radial_field(np.maximum(state.rho, 0.0), grid, cfg)
        dvel = dvel + field.phi_r

    dvel = np.where(state.rho > rho_floor, dvel, 0.0)

    for name, tendency in (("density", drho), ("velocity", dvel)):
        bad = ~np.isfinite(tendency)
        if bad.any():
            raise NumericalBreakdownError(int(np.argmax(bad)), name)
    return drho, dvel


def max_wave_speed(state: FluidState, cfg: ModelConfig) -> float:
    """Fastest signal speed max(|V| + c) over the cells."""
    return float(
        np.max(np.abs(state.vel) + sound_speed(np.maximum(state.rho, 0.0), cfg))
    )


def cfl_dt(
    state: FluidState, cfg: ModelConfig, num: NumericsConfig, grid: RadialGrid
) -> float:
    """Stable step cfl*dr/max(|V|+c), capped by the time left to t_end."""
    cap = max(num.t_end - state.time, 0.0)
    speed = max_wave_speed(state, cfg)
    if speed <= 0.0:
        return cap
    return min(num.cfl * grid.cell_width / speed, cap)


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
    k1_rho, k1_vel = rhs_eval(state, cfg, grid, num, rho_floor)
    mid = apply_boundary(
        FluidState(
            time=state.time + dt,
            rho=state.rho + dt * k1_rho,
            vel=state.vel + dt * k1_vel,
        ),
        num,
    )
    k2_rho, k2_vel = rhs_eval(mid, cfg, grid, num, rho_floor)
    new = apply_boundary(
        FluidState(
            time=state.time + dt,
            rho=0.5 * state.rho + 0.5 * (mid.rho + dt * k2_rho),
            vel=0.5 * state.vel + 0.5 * (mid.vel + dt * k2_vel),
        ),
        num,
    )
    rho_min = float(np.min(new.rho))
    if rho_min < -positivity_tol:
        raise PositivityError(
            f"density {rho_min:.3e} below -{positivity_tol:.3e} at t={new.time:.6g}"
        )
    return new


def cumulative_mass_integrand(rho: np.ndarray, grid: RadialGrid, dim: int) -> np.ndarray:
    """Running integral of rho * s**(dim-1) up to each cell center.

    Density is treated as constant per cell while the geometric weight
    s**(dim-1) is integrated exactly, so the near-origin cells carry no
    relative error from the weight's curvature. The contribution of the
    half cell [0, r_0] extrapolates rho as the first cell's constant.
    """
    x = grid.interfaces
    r = grid.cell_centers
    full = (x[1:] ** dim - x[:-1] ** dim) / dim
    half = (r**dim - x[:-1] ** dim) / dim
    lead = np.concatenate(([0.0], np.cumsum(rho * full)[:-1]))
    return lead + rho * half


def radial_field(rho: np.ndarray, grid: RadialGrid, cfg: ModelConfig) -> FieldProfile:
    """Force field phi_r from the density; zero profile when delta = 0.

    The cumulative integral is accumulated once in O(n) by prefix sums.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.n_cells,):
        raise ValueError(
            f"rho has shape {rho.shape}, grid expects ({grid.n_cells},)"
        )
    if np.any(rho < 0):
        raise ValueError("radial field undefined for negative density")

    cumulative = cumulative_mass_integrand(rho, grid, cfg.dim)
    if cfg.delta == 0:
        return FieldProfile(phi_r=np.zeros_like(rho), cumulative=cumulative)
    r = grid.cell_centers
    phi_r = alpha(cfg.dim) * cfg.delta * cumulative / r ** (cfg.dim - 1)
    return FieldProfile(phi_r=phi_r, cumulative=cumulative)


def total_mass(state: FluidState, grid: RadialGrid, cfg: ModelConfig) -> float:
    """Discrete mass alpha(N) * sum rho_i * r_i**(N-1) * dr."""
    r = grid.cell_centers
    return float(
        alpha(cfg.dim) * np.sum(state.rho * r ** (cfg.dim - 1)) * grid.cell_width
    )


def energy_condition_lhs(state: FluidState, grid: RadialGrid, cfg: ModelConfig) -> float:
    """Monitor 2*int (rho*V**2 + 2*p) dx."""
    r = grid.cell_centers
    integrand = state.rho * state.vel**2
    if cfg.pressure_const > 0.0:
        integrand += 2.0 * pressure(np.maximum(state.rho, 0.0), cfg)
    return float(
        2.0 * alpha(cfg.dim) * np.sum(integrand * r ** (cfg.dim - 1)) * grid.cell_width
    )


def cauchy_schwarz_gap(state: FluidState, grid: RadialGrid) -> float:
    """Slack int V**2 * 2r dr - 4*H**2/R**2."""
    r = grid.cell_centers
    lhs = float(np.sum(state.vel**2 * 2.0 * r) * grid.cell_width)
    h = weighted_momentum(state.vel, grid)
    return lhs - 4.0 * h**2 / grid.support_radius**2


def max_velocity_gradient(state: FluidState, grid: RadialGrid) -> tuple[float, int]:
    """Largest |dV/dr| by central differences and the cell index attaining it."""
    v = state.vel
    if v.size < 3:
        return 0.0, 0
    slopes = np.abs(v[2:] - v[:-2]) / (2.0 * grid.cell_width)
    k = int(np.argmax(slopes))
    return float(slopes[k]), k + 1


def write_table(path, header: list[str], columns: list) -> None:
    """The header lines, then each row of the float64 columns with every
    value to 17 significant digits, written a block of rows at a time."""
    # %-formatting of plain floats gives the digits of f"{v:.17g}" in half
    # the time; blocks keep the text and the floats of a whole table from
    # being held at once
    row = "\t".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as out:
        out.write("".join(line + "\n" for line in header))
        for lo in range(0, len(columns[0]), 1024):
            block = zip(*(column[lo : lo + 1024].tolist() for column in columns))
            out.write("".join(row % values for values in block))
