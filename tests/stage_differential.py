"""Brute-force check of the kernel's stage against the numpy oracle.

Draws about 10**4 seeded states and compares, bit for bit, what the kernel's
``facts``, ``tendencies`` and ``finish_step`` (a step's first stage, then the
rest of it) make of each with ``tests/_reference_kernel.py``: the state's
facts (its least density, wave speed and steepest slope with its cell), the
tendencies or the first non-finite cell, the stage's state, the new state or
the second stage's first non-finite cell, and the facts of the new state
that a step returns, with its raised cells. ``finish_step`` raises the
cells through ``_kernel.power``, which the check swaps for the oracle's
``np.maximum(rho, 0)**(gamma - 1)``, and it must call it twice for each
pressure law, on the stage's densities and the new state's, and never for
dust. A tenth of the steps are 1e300 long, so that the first stage's
state overflows and the second stage breaks down. The states cover n = 2 ..
19 cells, where the edge faces 0, 1, n - 1 and n (whose stencils reach a ghost) meet
or are every face, with every wall in [0, n], and n = 64, 257 and 512 with
the walls 0, 1, n - 2 and n; every law (dust, and pressure with gamma 1.4,
5/3 and 2), force sign and dimension; vacuum patches, densities of -1e-18 and
-0.0, and cells of inf, -inf and NaN. Each state is stepped again by a plan
that splits every pass between two threads, which must make the same
bytes. Prints the count and the time, and the first mismatches, if any,
and exits 1 then. Run it with the package importable:

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
# (K, gamma): dust and three pressure laws
LAWS = ((0.0, 1.4), (1.0, 1.4), (0.5, 5.0 / 3.0), (1.0, 2.0))


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
    # SIMD blocks, and which zero it returns depends on n mod 8 and the CPU:
    # numpy 2.4's AVX-512 code returns the zero of cell n - 7 when n is one
    # more than a multiple of 8
    expected = (
        np.minimum.accumulate(state.rho)[-1], ref.max_wave_speed(state, cfg),
        *ref.max_velocity_gradient(state, grid),
    )
    for name, got, want in zip(FACTS, (lowest, speed, slope, cell), expected):
        if not _same(got, want):
            return f"{name} {got!r}, oracle {want!r}"
    return ""


def made_mismatch(made, facts, powers, cfg, grid) -> str:
    """What ``finish_step`` got wrong of the state it ``made``, in the
    ``facts`` and ``powers`` it returned, or the empty string: its facts, and
    the cells raised to gamma - 1 (None for dust)."""
    wrong = facts_mismatch(made, facts, cfg, grid)
    if wrong:
        return wrong
    raises = cfg.pressure_const > 0.0
    if raises != (powers is not None) or raises and not _same(
        powers, np.maximum(made.rho, 0.0) ** (cfg.gamma - 1.0)
    ):
        return "raised cells differ"
    return ""


# the facts of a state a step makes, in the order of the comparison
FACTS = ("least density", "wave speed", "steepest slope", "its cell")


def oracle_power(calls: list):
    """A stand-in for ``_kernel.power`` that computes the oracle's
    ``np.maximum(rho, 0.0) ** exponent`` and records a copy of each row it
    raises, with the exponent, in ``calls``."""

    def power(rho, exponent):
        calls.append((rho.copy(), exponent))
        return np.maximum(rho, 0.0) ** exponent

    return power


def finish(plan, wall, dt, state, k, rho_floor):
    """``plan.finish_step`` with ``_kernel.power`` swapped for the oracle's:
    what it returns, and the rows the kernel raised."""
    calls, kept = [], _kernel.power
    _kernel.power = oracle_power(calls)
    try:
        return plan.finish_step(wall, dt, state, k, rho_floor), calls
    finally:
        _kernel.power = kept


def plan_bytes(plan, state, wall: int, dt: float, rho_floor: float) -> list:
    """Every byte a plan makes of a state: its facts; a stage's first
    non-finite index and its tendencies; and the rest of a step from them:
    its first non-finite index, the stage's state it leaves in the
    tendencies' block, and the new state, its facts and raised cells."""

    def facts_bytes(facts):
        lowest, speed, (slope, cell) = facts
        return np.array([lowest, speed, slope]).tobytes(), cell

    made = [facts_bytes(plan.facts(state))]
    k, bad = plan.tendencies(state, wall, rho_floor)
    made += [bad, k.tobytes() if bad < 0 else None]
    if bad < 0:
        bad, new, facts, powers = plan.finish_step(wall, dt, state, k, rho_floor)
        made += [bad, k.tobytes()]
        if bad < 0:
            made += [new.rho.tobytes(), new.vel.tobytes(), facts_bytes(facts),
                     None if powers is None else powers.tobytes()]
    return made


#: The last grid and model's plan that splits its passes between two threads
_split = {}


def mismatch(plan, state, cfg, grid, wall, dt) -> str:
    """What the kernel gets wrong of a stage and a step from ``state`` with
    cells from ``wall`` on closed, or the empty string."""
    n = grid.n_cells
    finite = state.rho[np.isfinite(state.rho)]
    rho_floor = VACUUM_FLOOR_REL * float(np.max(finite, initial=0.0))
    key = (n, cfg)
    if key not in _split:
        _split.clear()
        _split[key] = _kernel.Plan(grid, cfg, 2)
    if plan_bytes(plan, state, wall, dt, rho_floor) != plan_bytes(
        _split[key], state, wall, dt, rho_floor
    ):
        return "two threads make other bytes than one"
    wrong = facts_mismatch(state, plan.facts(state), cfg, grid)
    if wrong:
        return f"facts: {wrong}"
    num = SimpleNamespace(support_margin_cells=n - wall)
    first = _kernel_tendencies(plan, state, wall, rho_floor)
    expected = _oracle(lambda: ref.rhs_eval(state, cfg, grid, num, rho_floor))
    if isinstance(expected, Breakdown) or isinstance(first, Breakdown):
        return "" if _both_break(first, expected) else f"stage {first!r}, oracle {expected!r}"
    if not (_same(first[0], expected[0]) and _same(first[1], expected[1])):
        return "tendencies differ"
    # the stage's state as the oracle's step makes it
    stage = ref.apply_boundary(
        FluidState(dt, state.rho + dt * expected[0], state.vel + dt * expected[1]), num
    )
    # the step: the oracle's positivity check never raises with an infinite slack
    new_state = _oracle(lambda: ref.step(state, dt, cfg, grid, num, rho_floor, np.inf))
    (bad, made, facts, powers), raised = finish(plan, wall, dt, state, first, rho_floor)
    if not (_same(first[0], stage.rho) and _same(first[1], stage.vel)):
        return "the stage's state differs"
    raises = cfg.pressure_const > 0.0
    rows = [row for row, _ in raised]
    if raises != bool(raised) or any(e != cfg.gamma - 1.0 for _, e in raised) or (
        raises and not _same(rows[0], stage.rho)
    ):
        return "finish_step raised other cells than the stage's"
    second = Breakdown(bad % n, ("density", "velocity")[bad // n]) if bad >= 0 else made
    if isinstance(new_state, Breakdown) or isinstance(second, Breakdown):
        if facts is not None or powers is not None or len(raised) > raises:
            return "finish_step went on past a breakdown"
        return "" if _both_break(second, new_state) else f"step {second!r}, oracle {new_state!r}"
    if not (_same(made.rho, new_state.rho) and _same(made.vel, new_state.vel)):
        return "step differs"
    if made.time != dt or raises and (len(rows) != 2 or not _same(rows[1], made.rho)):
        return "finish_step raised other cells than the new state's"
    wrong = made_mismatch(made, facts, powers, cfg, grid)
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
                        dt = 1e300 if rng.random() < 0.1 else float(rng.uniform(1e-4, 1e-2))
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
        f"facts, tendencies, finish_step and the new state's facts against the oracle, "
        f"and two threads against one: {count} states "
        f"of seed {seed}, "
        f"{bad} mismatches, {time.perf_counter() - start:.1f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
