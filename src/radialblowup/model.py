"""Physical model for radially symmetric compressible flow in a rigid ball.

Holds the barotropic equation of state, the cell-centered radial grid,
immutable flow states, and admissibility checks for initial data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

SUPPORTED_DIMS = (1, 2, 3)


@dataclass(frozen=True)
class ModelConfig:
    """Physical parameters: dimension, force sign, EOS, and ball radius.

    ``delta`` selects the self-induced radial force: +1 repulsive, 0 none
    (plain gas dynamics), -1 attractive (accepted for exploratory runs but
    outside the scope of the blowup-bound verdict). The pressure law is
    ``p = pressure_const * rho**gamma``; ``pressure_const = 0`` is the
    pressureless (dust) case.
    """

    dim: int = 3
    delta: int = 0
    pressure_const: float = 0.0
    gamma: float = 1.4
    support_radius: float = 1.0

    def __post_init__(self):
        if self.dim not in SUPPORTED_DIMS:
            raise ValueError(f"dim must be one of {SUPPORTED_DIMS}, got {self.dim}")
        if self.delta not in (-1, 0, 1):
            raise ValueError(f"delta must be -1, 0 or +1, got {self.delta}")
        if self.pressure_const < 0:
            raise ValueError("pressure_const must be >= 0")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.support_radius <= 0:
            raise ValueError("support_radius must be > 0")

    @property
    def eos_in_scope(self) -> bool:
        """True when the EOS satisfies the bound hypotheses (K = 0 or gamma > 1)."""
        return self.pressure_const == 0.0 or self.gamma > 1.0


@dataclass(frozen=True)
class RadialGrid:
    """Uniform cell-centered grid on (0, R).

    Centers sit at r_i = (i + 1/2) * dr, so no cell touches the coordinate
    singularity at r = 0 and the outermost center stays strictly inside R.
    """

    n_cells: int
    support_radius: float

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValueError("n_cells must be at least 8")
        if self.support_radius <= 0:
            raise ValueError("support_radius must be > 0")

    @property
    def cell_width(self) -> float:
        return self.support_radius / self.n_cells

    @cached_property
    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.cell_width

    @cached_property
    def interfaces(self) -> np.ndarray:
        return np.arange(self.n_cells + 1) * self.cell_width


class GridWeights(NamedTuple):
    """Read-only geometric weights of a grid in dimension N."""

    face_area: np.ndarray  # x**(N-1) at the interfaces
    center: np.ndarray  # r**(N-1) at the cell centers
    cell_volume: np.ndarray  # r**(N-1) * dr
    shell: np.ndarray  # exact cell volumes (x[1:]**N - x[:-1]**N) / N
    inner_shell: np.ndarray  # (r**N - x[:-1]**N) / N, interface to center


@lru_cache(maxsize=32)
def grid_weights(grid: RadialGrid, dim: int) -> GridWeights:
    """The weights of (grid, dim), computed once and shared by every caller."""
    x, r = grid.interfaces, grid.cell_centers
    weights = GridWeights(
        x ** (dim - 1), r ** (dim - 1), r ** (dim - 1) * grid.cell_width,
        (x[1:] ** dim - x[:-1] ** dim) / dim, (r**dim - x[:-1] ** dim) / dim,
    )
    for w in weights:
        w.setflags(write=False)
    return weights


@dataclass(frozen=True)
class FluidState:
    """Density and radial velocity on a grid at one instant.

    Treated as immutable value data: stepping produces new states. Density
    may carry roundoff-level negatives transiently; hard nonnegativity is
    enforced by validation and the solver's positivity check.
    """

    time: float
    rho: np.ndarray
    vel: np.ndarray

    def __post_init__(self):
        if self.rho.ndim != 1 or self.vel.ndim != 1:
            raise ValueError("rho and vel must be one-dimensional")
        if self.rho.shape != self.vel.shape:
            raise ValueError(
                f"rho and vel shapes differ: {self.rho.shape} vs {self.vel.shape}"
            )
        if self.time < 0:
            raise ValueError("time must be >= 0")

    @property
    def n_cells(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the initial-data admissibility checks."""

    rho_nonnegative: bool
    compact_support: bool
    h0: float
    h0_positive: bool

    @property
    def admissible(self) -> bool:
        """Data may be evolved (fields well formed); bound verdicts need more."""
        return self.rho_nonnegative and self.compact_support


def pressure(rho, cfg: ModelConfig):
    """Barotropic pressure p = K * rho**gamma; raises on negative density."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("pressure undefined for negative density")
    return cfg.pressure_const * rho**cfg.gamma


def sound_speed(rho, cfg: ModelConfig):
    """Speed of sound c = sqrt(K * gamma * rho**(gamma - 1)).

    Zero for pressureless flow; constant sqrt(K) in the isothermal case.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("sound speed undefined for negative density")
    if cfg.pressure_const == 0.0:
        return np.zeros_like(rho)
    return np.sqrt(cfg.pressure_const * cfg.gamma * rho ** (cfg.gamma - 1.0))


def weighted_momentum(v0: np.ndarray, grid: RadialGrid) -> float:
    """The weighted momentum integral over [0, R] of r * V dr (midpoint rule)."""
    return float(np.sum(grid.cell_centers * v0) * grid.cell_width)


def validate_initial_data(
    rho0: np.ndarray,
    v0: np.ndarray,
    grid: RadialGrid,
    margin_cells: int = 2,
) -> ValidationReport:
    """Check admissibility of initial fields and evaluate the momentum integral.

    The report carries: a nonnegativity flag for the density, a compact-support
    flag (both fields exactly zero over the outermost ``margin_cells`` cells),
    the quadrature value of the weighted momentum integral H0 = int r*V0 dr,
    and its sign flag.
    """
    rho0 = np.asarray(rho0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    for name, field in (("rho0", rho0), ("v0", v0)):
        if field.shape != (grid.n_cells,):
            raise ValueError(
                f"{name} has shape {field.shape}, grid expects ({grid.n_cells},)"
            )
    if margin_cells < 1 or margin_cells >= grid.n_cells:
        raise ValueError("margin_cells must be in [1, n_cells)")

    tail = slice(grid.n_cells - margin_cells, grid.n_cells)
    compact = bool(np.all(rho0[tail] == 0.0) and np.all(v0[tail] == 0.0))
    h0 = weighted_momentum(v0, grid)
    return ValidationReport(
        rho_nonnegative=bool(np.all(rho0 >= 0.0)),
        compact_support=compact,
        h0=h0,
        h0_positive=h0 > 0.0,
    )
