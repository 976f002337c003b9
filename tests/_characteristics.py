"""Test oracle: semi-analytic reference solutions for verifying the solver.

Covers pressureless, force-free transport along straight characteristics
and the second-order boundary ODE R'' = delta * M / R**(dim-1) for the
support edge. The package never runs it; the first crossing time it checks
against is the package's ``profiles.first_crossing_time``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from radialblowup.model import ModelConfig, RadialGrid
from radialblowup.profiles import first_crossing_time


class CrossingError(ValueError):
    """Raised when the characteristic map is queried at or past first crossing."""


@dataclass(frozen=True)
class CharField:
    """Characteristic map at one time: seed radii, mapped radii, carried velocities."""

    r0: np.ndarray
    positions: np.ndarray
    values: np.ndarray

    def velocity_at(self, r_query: np.ndarray) -> np.ndarray:
        """Transported velocity at given radii by monotone interpolation."""
        return np.interp(r_query, self.positions, self.values)


def characteristic_solution(
    v0: Callable[[np.ndarray], np.ndarray],
    t: float,
    r0_samples: np.ndarray,
    dv0: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> CharField:
    """Transport the profile along straight characteristics: r = r0 + t*V0(r0).

    Valid for pressureless, force-free flow strictly before first crossing;
    raises CrossingError when the map stops being invertible.
    """
    r0 = np.asarray(r0_samples, dtype=float)
    if t < 0:
        raise ValueError("t must be >= 0")
    radius = float(r0[-1]) if r0.size else 0.0
    if radius > 0:
        t_star = first_crossing_time(v0, radius, dv0)
        if t_star is not None and t >= t_star:
            raise CrossingError(
                f"characteristic map not invertible at t={t} (first crossing at {t_star})"
            )
    values = np.asarray(v0(r0), dtype=float)
    positions = r0 + t * values
    if np.any(np.diff(positions) <= 0):
        raise CrossingError(f"characteristics crossed by t={t}")
    return CharField(r0=r0, positions=positions, values=values)


def oracle_velocity(
    v0: Callable[[np.ndarray], np.ndarray],
    t: float,
    grid: RadialGrid,
    dv0: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    n_samples: int = 8192,
) -> np.ndarray:
    """Transported velocity evaluated on the grid's cell centers."""
    r0 = np.linspace(0.0, grid.support_radius, n_samples)
    field = characteristic_solution(v0, t, r0, dv0)
    return field.velocity_at(grid.cell_centers)


@dataclass(frozen=True)
class BoundaryTrajectory:
    """Sampled solution of the support-boundary ODE."""

    times: np.ndarray
    radius: np.ndarray
    rate: np.ndarray
    collapsed: bool


def boundary_energy(radius, rate, mass: float, cfg: ModelConfig):
    """Conserved energy of the boundary ODE (dim != 2).

    E = rate**2 / 2 + delta * M / ((dim - 2) * R**(dim-2)) for dim = 3,
    and E = rate**2 / 2 - delta * M * R in one dimension.
    """
    radius = np.asarray(radius, dtype=float)
    rate = np.asarray(rate, dtype=float)
    kin = 0.5 * rate**2
    if cfg.dim == 1:
        return kin - cfg.delta * mass * radius
    if cfg.dim == 2:
        return kin - cfg.delta * mass * np.log(radius)
    return kin + cfg.delta * mass / radius


def emden_boundary_ode(
    r0: float,
    mass: float,
    cfg: ModelConfig,
    t_span: tuple[float, float] = (0.0, 1.0),
    dt: float = 1e-4,
    rate0: float = 0.0,
) -> BoundaryTrajectory:
    """Integrate R'' = delta * M / R**(dim-1) with classic fixed-step RK4.

    ``mass`` is the user-supplied constant M (it is not tied to a flow state
    here). Starts from R(0) = r0 with rate R'(0) = rate0. An attractive run
    terminates with ``collapsed=True`` once R would reach zero.
    """
    if r0 <= 0:
        raise ValueError("r0 must be > 0")
    if mass < 0:
        raise ValueError("mass must be >= 0")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    t0, t1 = t_span
    if t1 <= t0:
        raise ValueError("t_span must be increasing")

    def accel(radius):
        return cfg.delta * mass / radius ** (cfg.dim - 1)

    n_steps = int(np.ceil((t1 - t0) / dt))
    times = [t0]
    radii = [float(r0)]
    rates = [float(rate0)]
    r, v, t = float(r0), float(rate0), t0
    collapsed = False
    for _ in range(n_steps):
        h = min(dt, t1 - t)
        k1r, k1v = v, accel(r)
        r2 = r + 0.5 * h * k1r
        if r2 <= 0:
            collapsed = True
            break
        k2r, k2v = v + 0.5 * h * k1v, accel(r2)
        r3 = r + 0.5 * h * k2r
        if r3 <= 0:
            collapsed = True
            break
        k3r, k3v = v + 0.5 * h * k2v, accel(r3)
        r4 = r + h * k3r
        if r4 <= 0:
            collapsed = True
            break
        k4r, k4v = v + h * k3v, accel(r4)
        r_new = r + h / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
        if r_new <= 0:
            collapsed = True
            break
        v = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        r, t = r_new, t + h
        times.append(t)
        radii.append(r)
        rates.append(v)
    return BoundaryTrajectory(
        times=np.asarray(times),
        radius=np.asarray(radii),
        rate=np.asarray(rates),
        collapsed=collapsed,
    )
