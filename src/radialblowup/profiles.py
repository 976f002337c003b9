"""Initial-data families: compactly supported bumps with known structure.

Every builder returns fields with exact zeros over the outer wall margin;
the polynomial bump also returns callables for its velocity profile and
derivative, from which ``first_crossing_time`` gives its shock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import RadialGrid, wall_index

# each family's parameters and their defaults
_AMPLITUDES = {"velocity_amplitude": 1.0, "density_amplitude": 1.0}
FAMILY_PARAMS = {
    "polynomial_bump": _AMPLITUDES,
    "gaussian_truncated": {**_AMPLITUDES, "width": 0.25},
    "random_smooth": {**_AMPLITUDES, "modes": 3},
}
# the samples of V0' on [0, R] that first_crossing_time takes, ten times as
# many of V0 when it differences the profile
_CROSSING_SAMPLES = 4096


@dataclass(frozen=True)
class InitialProfile:
    rho0: np.ndarray
    v0: np.ndarray
    v_of_r: Optional[Callable[[np.ndarray], np.ndarray]]
    dv_dr: Optional[Callable[[np.ndarray], np.ndarray]]


def _zero_margin(fields: list[np.ndarray], n_cells: int, margin: int) -> None:
    wall = wall_index(n_cells, margin)
    for f in fields:
        f[wall:] = 0.0


def polynomial_bump(
    grid: RadialGrid,
    margin: int,
    velocity_amplitude: float,
    density_amplitude: float,
) -> InitialProfile:
    """V0 = a*r*(1 - r/R), rho0 = b*(1 - (r/R)**2)**2.

    For R = 1 and unit amplitude the momentum integral is 1/12 up to
    quadrature error, so the lifespan bound evaluates to about 6.
    """
    R = grid.support_radius
    r = grid.cell_centers
    v0 = velocity_amplitude * r * (1.0 - r / R)
    rho0 = density_amplitude * (1.0 - (r / R) ** 2) ** 2
    _zero_margin([rho0, v0], grid.n_cells, margin)

    def v_of_r(s):
        s = np.asarray(s, dtype=float)
        return velocity_amplitude * s * (1.0 - s / R)

    def dv_dr(s):
        s = np.asarray(s, dtype=float)
        return velocity_amplitude * (1.0 - 2.0 * s / R)

    return InitialProfile(rho0=rho0, v0=v0, v_of_r=v_of_r, dv_dr=dv_dr)


def gaussian_truncated(
    grid: RadialGrid,
    margin: int,
    velocity_amplitude: float,
    density_amplitude: float,
    width: float,
) -> InitialProfile:
    """Gaussian-enveloped fields, hard-truncated to zero over the margin."""
    R = grid.support_radius
    r = grid.cell_centers
    w = width * R
    v0 = velocity_amplitude * (r / R) * np.exp(-((r / w) ** 2))
    rho0 = density_amplitude * np.exp(-((r / w) ** 2))
    _zero_margin([rho0, v0], grid.n_cells, margin)
    return InitialProfile(rho0=rho0, v0=v0, v_of_r=None, dv_dr=None)


def random_smooth(
    grid: RadialGrid,
    margin: int,
    seed: int,
    velocity_amplitude: float,
    density_amplitude: float,
    modes: int,
) -> InitialProfile:
    """Seeded low-mode random fields under a compact polynomial envelope.

    Reproducible: the same seed yields bit-identical fields.
    """
    rng = np.random.default_rng(seed)
    R = grid.support_radius
    r = grid.cell_centers
    envelope = (1.0 - (r / R) ** 2) ** 2

    k = np.arange(1, modes + 1)
    cv = rng.uniform(-1.0, 1.0, modes) / k
    cd = rng.uniform(-1.0, 1.0, modes) / k
    phases = np.sin(np.pi * np.outer(k, r) / R)  # (modes, n)

    v0 = velocity_amplitude * envelope * (r / R) * (cv @ phases)
    # bounded mode sum keeps the density strictly positive inside the support
    wiggle = (cd @ phases) / (2.0 * np.sum(np.abs(cd)) + 1e-300)
    rho0 = density_amplitude * envelope * (1.0 + wiggle)
    _zero_margin([rho0, v0], grid.n_cells, margin)
    return InitialProfile(rho0=rho0, v0=v0, v_of_r=None, dv_dr=None)


def _derivative_samples(
    v0: Callable[[np.ndarray], np.ndarray],
    radius: float,
    dv0: Optional[Callable[[np.ndarray], np.ndarray]],
) -> np.ndarray:
    """Sample V0' on a refined grid: analytic when given, else central differences."""
    if dv0 is not None:
        r = np.linspace(0.0, radius, _CROSSING_SAMPLES)
        return np.asarray(dv0(r), dtype=float)
    # central differences on a 10x refined sampling of the profile
    r = np.linspace(0.0, radius, 10 * _CROSSING_SAMPLES)
    v = np.asarray(v0(r), dtype=float)
    return np.gradient(v, r)


def first_crossing_time(
    v0: Callable[[np.ndarray], np.ndarray],
    radius: float,
    dv0: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Optional[float]:
    """Time of first characteristic crossing, -1 / min V0'; None if V0' >= 0."""
    slopes = _derivative_samples(v0, radius, dv0)
    if not np.all(np.isfinite(slopes)):
        raise ValueError("velocity profile has non-finite derivative samples")
    smin = float(np.min(slopes))
    if smin >= 0.0:
        return None
    return -1.0 / smin


def family_params(family: str, params) -> dict:
    """The family's parameters with its defaults filled in; an unknown family,
    a parameter the family does not take, or a density amplitude, width or
    modes not > 0 raises: a fluid with no density is all vacuum."""
    if family not in FAMILY_PARAMS:
        raise ValueError(
            f"initial.family must be one of {tuple(FAMILY_PARAMS)}, got '{family}'"
        )
    unknown = set(params) - set(FAMILY_PARAMS[family])
    if unknown:
        raise ValueError(
            f"initial.{sorted(unknown)[0]} does not apply to family '{family}'"
        )
    full = {**FAMILY_PARAMS[family], **params}
    for key in ("density_amplitude", "width", "modes"):
        if key in full and not full[key] > 0:  # NaN too
            raise ValueError(f"initial.{key} must be > 0, got {full[key]!r}")
    return full


def build_initial_profile(
    family: str,
    params: dict,
    seed: int,
    grid: RadialGrid,
    margin: int,
) -> InitialProfile:
    """Dispatch to the named family; a bad family, parameter or margin raises."""
    params = family_params(family, params)
    if family == "polynomial_bump":
        return polynomial_bump(grid, margin, **params)
    if family == "gaussian_truncated":
        return gaussian_truncated(grid, margin, **params)
    return random_smooth(grid, margin, seed=seed, **params)
