"""Radial force field induced by the density through the cumulative-mass integral.

The field at radius r is  phi_r(r) = alpha(N) * delta / r**(N-1) * C(r)  with
C(r) the running integral of rho(s) * s**(N-1) from 0 to r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, RadialGrid, grid_weights

_ALPHA = {1: 1.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def alpha(dim: int) -> float:
    """Geometric constant of the radial field: 1, 2*pi, 4*pi for dim 1, 2, 3."""
    try:
        return _ALPHA[dim]
    except KeyError:
        raise ValueError(f"unsupported dimension {dim}; must be 1, 2 or 3") from None


@dataclass(frozen=True)
class FieldProfile:
    """Radial force per unit mass and the cumulative integrand behind it."""

    phi_r: np.ndarray
    cumulative: np.ndarray


def cumulative_mass_integrand(rho: np.ndarray, grid: RadialGrid, dim: int) -> np.ndarray:
    """Running integral of rho * s**(dim-1) up to each cell center.

    Density is treated as constant per cell while the geometric weight
    s**(dim-1) is integrated exactly, so the near-origin cells carry no
    relative error from the weight's curvature. The contribution of the
    half cell [0, r_0] extrapolates rho as the first cell's constant.
    """
    weights = grid_weights(grid, dim)
    lead = np.concatenate(([0.0], np.cumsum(rho * weights.shell)[:-1]))
    return lead + rho * weights.inner_shell


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
    phi_r = alpha(cfg.dim) * cfg.delta * cumulative / grid_weights(grid, cfg.dim).center
    return FieldProfile(phi_r=phi_r, cumulative=cumulative)
