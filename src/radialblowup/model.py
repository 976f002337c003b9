"""Physical model for radially symmetric compressible flow in a rigid ball.

Holds the barotropic equation of state, the cell-centered radial grid,
immutable flow states, and admissibility checks for initial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

SUPPORTED_DIMS = (1, 2, 3)


def require_finite(config) -> None:
    """Refuse NaN and +-inf in each float field of a config dataclass, before
    its range checks: NaN fails every comparison, and inf passes a lower bound."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


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
        require_finite(self)
        if self.pressure_const < 0:
            raise ValueError(f"pressure_const must be >= 0, got {self.pressure_const}")
        if self.gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if self.support_radius <= 0:
            raise ValueError(f"support_radius must be > 0, got {self.support_radius}")


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
            raise ValueError(f"n_cells must be at least 8, got {self.n_cells}")
        require_finite(self)
        if self.support_radius <= 0:
            raise ValueError(f"support_radius must be > 0, got {self.support_radius}")

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
    shell: np.ndarray  # exact cell volumes (x[1:]**N - x[:-1]**N) / N
    inner_shell: np.ndarray  # (r**N - x[:-1]**N) / N, interface to center


@lru_cache(maxsize=32)
def grid_weights(grid: RadialGrid, dim: int) -> GridWeights:
    """The weights of (grid, dim), computed once and shared by every caller."""
    x, r = grid.interfaces, grid.cell_centers
    weights = GridWeights(
        x ** (dim - 1), r ** (dim - 1), (x[1:] ** dim - x[:-1] ** dim) / dim, (r**dim - x[:-1] ** dim) / dim,
    )
    for w in weights:
        w.setflags(write=False)
    return weights


_FLOAT64 = np.dtype(np.float64)


def records_equal(record, other) -> bool:
    """``==`` of two records of one dataclass: each field by ``==``, an array
    field by its dtype, shape and bytes, so a NaN equals itself and -0.0
    differs from 0.0. The dataclass's own ``==`` compares the fields in a
    tuple, which raises for an array of more than one value."""
    if type(other) is not type(record):
        return NotImplemented
    for f in fields(record):
        a, b = getattr(record, f.name), getattr(other, f.name)
        if isinstance(a, np.ndarray):
            same = (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                    and a.tobytes() == b.tobytes())
        else:
            same = a == b
        if not same:
            return False
    return True


def _in_layout(array) -> bool:
    """A C-contiguous float64 ndarray, which np.ascontiguousarray returns as it is."""
    return type(array) is np.ndarray and array.dtype is _FLOAT64 and array.flags.c_contiguous


@dataclass(frozen=True)
class FluidState:
    """Density and radial velocity on a grid at one instant.

    Treated as immutable value data: stepping produces new states. Density
    may carry roundoff-level negatives transiently; hard nonnegativity is
    enforced by validation and the solver's positivity check. Both fields are
    held as C-contiguous float64, the kernel's layout, copied only if need be.
    Two states are equal when their times are and their fields have the same
    bits.
    """

    time: float
    rho: np.ndarray
    vel: np.ndarray

    __eq__ = records_equal

    @classmethod
    def of_block(cls, time: float, block: np.ndarray) -> FluidState:
        """The state whose fields are the rows of ``block``, a fresh (2, n)
        C-contiguous float64 array such as a kernel's output, taken as they
        are: such rows pass the layout checks by construction, so only the
        time is checked. The kernel still checks each array it is given."""
        if time < 0:
            raise ValueError("time must be >= 0")
        state = object.__new__(cls)
        held = state.__dict__
        # rows by index: iterating an array builds them several times slower
        held["time"], held["rho"], held["vel"] = time, block[0], block[1]
        return state

    def __post_init__(self):
        rho, vel = self.rho, self.vel
        if rho.ndim != 1 or vel.ndim != 1:
            raise ValueError("rho and vel must be one-dimensional")
        # a field already in the layout is kept without the call
        if not _in_layout(rho):
            object.__setattr__(self, "rho", np.ascontiguousarray(rho, dtype=np.float64))
        if not _in_layout(vel):
            object.__setattr__(self, "vel", np.ascontiguousarray(vel, dtype=np.float64))
        if self.rho.shape != self.vel.shape:
            raise ValueError(
                f"rho and vel shapes differ: {self.rho.shape} vs {self.vel.shape}"
            )
        if self.time < 0:
            raise ValueError("time must be >= 0")

    @property
    def n_cells(self) -> int:
        return self.rho.shape[0]


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


def wall_index(n_cells: int, margin_cells: int) -> int:
    """The first of the ``margin_cells`` wall cells, which must be in [1, n_cells)."""
    if margin_cells < 1 or margin_cells >= n_cells:
        raise ValueError("margin_cells must be in [1, n_cells)")
    return n_cells - margin_cells


def validate_initial_data(
    rho0: np.ndarray, v0: np.ndarray, grid: RadialGrid, margin_cells: int
) -> float:
    """Refuse inadmissible initial fields; return the momentum integral H0.

    Both fields must be finite, the density nonnegative and positive in some
    cell, and both fields exactly zero over the outermost ``margin_cells``
    cells. H0 and R**3, of which the bound time R**3 / (2*H0) is made, must be
    finite too. Otherwise ValueError names each rule that fails. All-vacuum
    data are refused: the vacuum cells hold V, and so H, at rest.
    H0 = int r*V0 dr is the quadrature value.
    """
    rho0 = np.asarray(rho0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    for name, field in (("rho0", rho0), ("v0", v0)):
        if field.shape != (grid.n_cells,):
            raise ValueError(
                f"{name} has shape {field.shape}, grid expects ({grid.n_cells},)"
            )
    wall = wall_index(grid.n_cells, margin_cells)
    v_finite = np.all(np.isfinite(v0))
    problems = []
    if not np.all(np.isfinite(rho0)):
        problems.append("density must be finite")
    if np.any(rho0 < 0.0):
        problems.append("density must be nonnegative")
    if not np.any(rho0 > 0.0):
        problems.append("density must be positive in some cell")
    if not v_finite:
        problems.append("velocity must be finite")
    if not (np.all(rho0[wall:] == 0.0) and np.all(v0[wall:] == 0.0)):
        problems.append("fields must vanish over the wall margin cells")
    h0 = math.nan
    if v_finite:
        with np.errstate(over="ignore"):  # an overflow is refused below, not warned of
            h0 = weighted_momentum(v0, grid)
        if not math.isfinite(h0):
            problems.append("H0 must be finite")
    try:
        grid.support_radius**3
    except OverflowError:
        problems.append("the support radius must have a finite cube")
    if problems:
        raise ValueError("inadmissible initial data: " + "; ".join(problems))
    return h0
