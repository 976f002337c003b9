"""Brute-force check of the kernel's stage against the numpy oracle.

Draws about 10**4 seeded states and compares, bit for bit, what the kernel's
``facts``, ``tendencies`` and the two ``rk_stage`` calls of a step make of
each with ``tests/_reference_kernel.py``: the state's facts (its least
density, wave speed and steepest slope with its cell), the tendencies or the
first non-finite cell, the new state, and the facts of it that a step
returns, with its raised cells. The states cover n = 2 .. 19 cells,
where the edge faces 0, 1, n - 1 and n (whose stencils reach a ghost) meet
or are every face, with every wall in [0, n], and n = 64, 257 and 512 with
the walls 0, 1, n - 2 and n; every law (dust, isothermal, gamma 1.4, 5/3
and 2), force sign and dimension; vacuum patches, densities of -1e-18 and
-0.0, and cells of inf, -inf and NaN. Prints the count and the time, and the
first mismatches, if any, and exits 1 then. Run it with the package
importable:

    PYTHONPATH=src python tests/stage_differential.py [--seed N]
"""

import argparse
import sys
import time
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

import _reference_kernel as ref
from radialblowup import FluidState, ModelConfig, RadialGrid, _kernel
from radialblowup.solver import NumericalBreakdownError, VACUUM_FLOOR_REL

SMALL = range(2, 20)
LARGE = (64, 257, 512)
# (K, gamma): dust, isothermal, and three laws with gamma > 1
LAWS = ((0.0, 1.4), (0.5, 1.0), (1.0, 1.4), (0.5, 5.0 / 3.0), (1.0, 2.0))


class SmallGrid(RadialGrid):
    """A ``RadialGrid`` of any n >= 2 cells: the grid itself refuses n < 8,
    and the kernel takes 2 or more."""

    def __post_init__(self):
        pass


def walls(n: int) -> list:
    """Every wall for a small grid, else the two at each end."""
    return list(range(n + 1)) if n in SMALL else [0, 1, n - 2, n]


def near_ties(rng, n: int, width: float) -> np.ndarray:
    """Velocities whose differences |v[i + 2] - v[i]| are every difference
    that gives one slope once divided by ``width``, and the one below them:
    at a width above 1 several differences round to the same slope, and the
    first cell with the largest slope need not hold the largest difference.
    Most often where the slope's mantissa is near 1 and the difference's
    near 2: there a difference moves by about half a unit of the slope."""
    a = width * 2.0 ** int(rng.integers(0, 4)) * rng.uniform(1.0, 1.05)
    slope = a / width
    lo = hi = a
    while np.nextafter(lo, 0.0) / width == slope:
        lo = np.nextafter(lo, 0.0)
    while np.nextafter(hi, np.inf) / width == slope:
        hi = np.nextafter(hi, np.inf)
    levels = [np.nextafter(lo, 0.0), lo]
    while levels[-1] < hi:
        levels.append(np.nextafter(levels[-1], np.inf))
    v = np.zeros(n)
    # v[i] = 0 at even i, a level at odd i: every difference is 0 or a level
    for i in range(1, n, 4):
        v[i] = rng.choice(levels)
    return v


def draw_state(rng, n: int, wall: int) -> FluidState:
    """Random fields, some with vacuum patches, roundoff-level negative or
    negative-zero densities, velocity differences that tie once divided by
    the slope width 2 dr, non-finite cells, or zeros from the wall on."""
    rho = rng.uniform(0.0, 2.0, n)
    vel = rng.normal(0.0, 1.0, n)
    for _ in range(rng.integers(0, 3)):
        lo = int(rng.integers(0, n))
        rho[lo : lo + int(rng.integers(1, n // 2 + 2))] = 0.0
    if rng.random() < 0.5:
        rho[rng.integers(0, n, 2)] = rng.choice((-1e-18, -0.0), 2)
    if rng.random() < 0.3:
        vel[rng.random(n) < 0.3] = -0.0
    if rng.random() < 0.1:
        # a lower difference before the largest whose slope rounds the same
        vel[:] = near_ties(rng, n, 2.0 / n)
    if rng.random() < 0.15:
        field = rho if rng.random() < 0.5 else vel
        field[rng.integers(0, n)] = rng.choice((np.inf, -np.inf, np.nan))
    if rng.random() < 0.5:
        rho[wall:] = 0.0
        vel[wall:] = 0.0
    return FluidState(0.0, rho, vel)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class Breakdown(NamedTuple):
    """The first non-finite tendency of a stage."""

    cell: int
    field: str


def _both_break(a, b) -> bool:
    """Both the same Breakdown: a Breakdown and an array never match."""
    return isinstance(a, Breakdown) and isinstance(b, Breakdown) and a == b


def _oracle(fn):
    """What the oracle returns, or the Breakdown it raises."""
    try:
        return fn()
    except NumericalBreakdownError as exc:
        return Breakdown(exc.cell_index, exc.field)


def _kernel_tendencies(plan, state, wall, rho_floor):
    """The kernel's (2, n) tendencies, or their Breakdown."""
    out, bad = plan.tendencies(state, wall, rho_floor)
    n = state.n_cells
    return out if bad < 0 else Breakdown(bad % n, ("density", "velocity")[bad // n])


def facts_mismatch(state, facts, cfg, grid) -> str:
    """What ``facts`` (``Plan.facts``'s tuple) get wrong of ``state``, or the
    empty string: the least density, wave speed, steepest slope and its cell,
    bit for bit against numpy on the state's fields."""
    lowest, speed, (slope, cell) = facts
    # the least density as np.minimum folds it from the first cell: the
    # first NaN, else the least, of equal zeros the last. np.min reduces in
    # SIMD blocks, and which zero it returns depends on n mod 8 and the CPU
    expected = (
        np.minimum.accumulate(state.rho)[-1], ref.max_wave_speed(state, cfg),
        *ref.max_velocity_gradient(state, grid),
    )
    for name, got, want in zip(FACTS, (lowest, speed, slope, cell), expected):
        if not _same(got, want):
            return f"{name} {got!r}, oracle {want!r}"
    return ""


def made_mismatch(returned, cfg, grid) -> str:
    """What a second stage got wrong of the state it made, in what it
    ``returned`` (``Plan.rk_stage``'s tuple), or the empty string: its facts,
    and the cells raised to gamma - 1 (None unless K > 0 and gamma > 1)."""
    made, *facts, powers = returned
    wrong = facts_mismatch(made, facts, cfg, grid)
    if wrong:
        return wrong
    raises = cfg.pressure_const > 0.0 and cfg.gamma > 1.0
    if raises != (powers is not None) or raises and not _same(
        powers, np.maximum(made.rho, 0.0) ** (cfg.gamma - 1.0)
    ):
        return "raised cells differ"
    return ""


# the facts of a state a step makes, in the order of the comparison
FACTS = ("least density", "wave speed", "steepest slope", "its cell")


def mismatch(plan, state, cfg, grid, wall, dt) -> str:
    """What the kernel gets wrong of a stage and a step from ``state`` with
    cells from ``wall`` on closed, or the empty string."""
    n = grid.n_cells
    wrong = facts_mismatch(state, plan.facts(state), cfg, grid)
    if wrong:
        return f"facts: {wrong}"
    # a second stage whose new state is ``state`` itself, its NaN, infinite
    # and negative-zero cells kept: (-0.0 * dt + x) * 0.5 + 0.5 * x is x
    # unless x halves to a subnormal, with the cells from the wall on zeroed
    returned = plan.rk_stage(
        wall, dt, state, np.stack([state.rho, state.vel]), np.full((2, n), -0.0)
    )
    wrong = made_mismatch(returned, cfg, grid)
    if wrong:
        return f"state: {wrong}"
    num = SimpleNamespace(support_margin_cells=n - wall)
    finite = state.rho[np.isfinite(state.rho)]
    rho_floor = VACUUM_FLOOR_REL * float(np.max(finite, initial=0.0))
    first = _kernel_tendencies(plan, state, wall, rho_floor)
    expected = _oracle(lambda: ref.rhs_eval(state, cfg, grid, num, rho_floor))
    if isinstance(expected, Breakdown) or isinstance(first, Breakdown):
        return "" if _both_break(first, expected) else f"stage {first!r}, oracle {expected!r}"
    if not (_same(first[0], expected[0]) and _same(first[1], expected[1])):
        return "tendencies differ"
    # the step: the oracle's positivity check never raises with an infinite slack
    new_state = _oracle(lambda: ref.step(state, dt, cfg, grid, num, rho_floor, np.inf))
    plan.rk_stage(wall, dt, state, None, first)
    second = _kernel_tendencies(plan, FluidState.of_block(dt, first), wall, rho_floor)
    if isinstance(new_state, Breakdown) or isinstance(second, Breakdown):
        return "" if _both_break(second, new_state) else f"step {second!r}, oracle {new_state!r}"
    returned = plan.rk_stage(wall, dt, state, first, second)
    made = returned[0]
    if not (_same(made.rho, new_state.rho) and _same(made.vel, new_state.vel)):
        return "step differs"
    wrong = made_mismatch(returned, cfg, grid)
    return f"step: {wrong}" if wrong else ""


def cases(seed: int, sizes, repeats: int):
    """(plan, state, cfg, grid, wall, dt) for each size, law, force sign and
    wall, ``repeats`` states each, the dimension drawn."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        grid = SmallGrid(n_cells=n, support_radius=1.0)
        for k, gamma in LAWS:
            for delta in (-1, 0, 1):
                cfg = ModelConfig(
                    dim=int(rng.integers(1, 4)), delta=delta, pressure_const=k, gamma=gamma
                )
                plan = _kernel.plan(grid, cfg)
                for wall in walls(n):
                    for _ in range(repeats):
                        dt = float(rng.uniform(1e-4, 1e-2))
                        yield plan, draw_state(rng, n, wall), cfg, grid, wall, dt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args(argv).seed
    count = bad = 0
    start = time.perf_counter()
    with np.errstate(all="ignore"):
        for plan, state, cfg, grid, wall, dt in cases(seed, [*SMALL, *LARGE], 3):
            count += 1
            wrong = mismatch(plan, state, cfg, grid, wall, dt)
            if wrong:
                bad += 1
                if bad <= 20:
                    print(f"n={grid.n_cells} wall={wall} {cfg}: {wrong}")
    print(
        f"facts, tendencies, rk_stage and the new state's facts against the oracle: {count} states "
        f"of seed {seed}, "
        f"{bad} mismatches, {time.perf_counter() - start:.1f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
