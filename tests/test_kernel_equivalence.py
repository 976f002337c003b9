"""The compiled kernel reproduces the numpy one bit for bit.

Random states cover every dimension, force sign, pressure law and wall
margin, with vacuum patches and roundoff-level negative densities. The
exponents gamma - 1 include 0 (isothermal) and 0.5, which numpy's ``**``
computes as a square root. Results are compared as raw bytes, so even the
sign of a zero must match. The tables the compiled ``format_rows`` writes
match the Python writer's byte for byte, and so does its exact 17-digit path
on the values it takes.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_kernel as ref
import stage_differential
from format_rows_differential import TIE_DECADES, tie_range
from radialblowup import _kernel, cli, diagnostics
from radialblowup import (
    FluidState,
    ModelConfig,
    NumericsConfig,
    RadialGrid,
    blowup_functional,
    cfl_dt,
    radial_field,
    rhs_eval,
    step,
)
from radialblowup.diagnostics import cauchy_schwarz_gap, energy_condition, total_mass
from radialblowup.model import sound_speed, weighted_momentum
from radialblowup.poisson import cumulative_mass_integrand
from radialblowup.solver import (
    POSITIVITY_REL_TOL,
    VACUUM_FLOOR_REL,
    max_wave_speed,
)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and a.tobytes() == b.tobytes()


@st.composite
def cases(draw):
    n = draw(st.integers(8, 300))
    cfg = ModelConfig(
        dim=draw(st.integers(1, 3)),
        delta=draw(st.sampled_from((-1, 0, 1))),
        pressure_const=draw(st.sampled_from((0.0, 0.5, 1.0))),
        gamma=draw(st.sampled_from((1.0, 1.4, 1.5, 5.0 / 3.0))),
    )
    num = NumericsConfig(support_margin_cells=draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = rng.uniform(0.0, 2.0, n)
    vel = rng.normal(0.0, 1.0, n)
    for _ in range(draw(st.integers(0, 3))):
        lo = int(rng.integers(0, n))
        rho[lo : lo + int(rng.integers(1, n // 2 + 2))] = 0.0
    if draw(st.booleans()):
        rho[rng.integers(0, n, 3)] = -1e-16
    if draw(st.booleans()):
        # admissible data; otherwise the step itself must clear the margin
        rho[n - num.support_margin_cells :] = 0.0
        vel[n - num.support_margin_cells :] = 0.0
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    return FluidState(time=0.0, rho=rho, vel=vel), cfg, grid, num


def _outcome(fn):
    """Return value, or the exception's type and attributes."""
    try:
        with np.errstate(all="ignore"):
            return fn()
    except ArithmeticError as exc:
        return type(exc), str(exc), getattr(exc, "cell_index", None)


def _floors(state):
    peak = float(np.max(state.rho))
    return VACUUM_FLOOR_REL * peak, POSITIVITY_REL_TOL * peak


@settings(max_examples=150, deadline=None)
@given(cases())
def test_tendencies_and_step_match_reference(case):
    state, cfg, grid, num = case
    rho_floor, pos_tol = _floors(state)

    new = rhs_eval(state, cfg, grid, num, rho_floor)
    old = ref.rhs_eval(state, cfg, grid, num, rho_floor)
    assert _same(new[0], old[0]) and _same(new[1], old[1])

    assert max_wave_speed(state, cfg, grid) == ref.max_wave_speed(state, cfg)
    dt = cfl_dt(state, cfg, num, grid)
    assert dt == ref.cfl_dt(state, cfg, num, grid)

    stepped = _outcome(lambda: step(state, dt, cfg, grid, num, rho_floor, pos_tol))
    expected = _outcome(
        lambda: ref.step(state, dt, cfg, grid, num, rho_floor, pos_tol)
    )
    if isinstance(expected, FluidState):
        assert stepped.time == expected.time
        assert _same(stepped.rho, expected.rho) and _same(stepped.vel, expected.vel)
    else:
        assert stepped == expected


@pytest.mark.parametrize("n", range(2, 10))
def test_edge_faces_match_reference_at_every_wall(n):
    # the faces whose stencil reaches a ghost, 0, 1, n - 1 and n, or every
    # face below 4 cells, and where they meet, at every wall in [0, n] and
    # for every law: a run's grid has 8 or more cells and a wall in [1, n),
    # so these states go to the plan on a grid of any size
    with np.errstate(all="ignore"):
        for case in stage_differential.cases(n, [n], repeats=2):
            assert stage_differential.mismatch(*case) == ""


@st.composite
def pressure_cases(draw):
    state, cfg, grid, num = draw(cases())
    cfg = dataclasses.replace(
        cfg,
        pressure_const=draw(st.sampled_from((0.5, 1.0))),
        gamma=draw(st.sampled_from((1.0, 1.4, 2.0))),
    )
    return state, cfg, grid, num


@settings(max_examples=60, deadline=None)
@given(pressure_cases())
def test_a_stage_reuses_the_cell_powers_only_for_their_state(case):
    # a stage takes its sound speeds from the cells raised to gamma - 1,
    # which the wave speed of the same state has raised already; the
    # diagnostics row raises them to gamma and another state's wave speed
    # raises other cells, and the stage must then raise its own
    state, cfg, grid, num = case
    rho_floor, _ = _floors(state)
    other = FluidState(time=0.0, rho=state.rho * 0.5 + 0.25, vel=state.vel)

    def tendencies(before):
        fresh = _kernel.Plan(grid, cfg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernel, "plan", lambda grid, cfg: fresh)
            before()
            return rhs_eval(state, cfg, grid, num, rho_floor)

    expected = tendencies(lambda: None)
    for before in (
        lambda: max_wave_speed(state, cfg, grid),
        lambda: (max_wave_speed(state, cfg, grid), diagnostics.row_integrals(state, grid, cfg)),
        lambda: max_wave_speed(other, cfg, grid),
    ):
        assert _same(tendencies(before), expected)


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from(("rho", "vel")), st.sampled_from((np.nan, np.inf)),
       st.integers(0, 10**6))
def test_breakdown_reports_the_same_cell(case, field, value, where):
    state, cfg, grid, num = case
    rho_floor, _ = _floors(state)
    rho, vel = state.rho.copy(), state.vel.copy()
    (rho if field == "rho" else vel)[where % grid.n_cells] = value
    bad = FluidState(time=0.0, rho=rho, vel=vel)
    new = _outcome(lambda: rhs_eval(bad, cfg, grid, num, rho_floor))
    old = _outcome(lambda: ref.rhs_eval(bad, cfg, grid, num, rho_floor))
    if isinstance(old, tuple) and isinstance(old[0], type):
        assert new == old
    else:
        assert _same(new[0], old[0]) and _same(new[1], old[1])
    # the wave speed propagates a NaN as np.max does
    assert _same(_outcome(lambda: max_wave_speed(bad, cfg, grid)),
                 _outcome(lambda: ref.max_wave_speed(bad, cfg)))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_padding_field_and_diagnostics_match_reference(case):
    state, cfg, grid, num = case
    rho = np.maximum(state.rho, 0.0)
    assert _same(cumulative_mass_integrand(rho, grid, cfg.dim),
                 ref.cumulative_mass_integrand(rho, grid, cfg.dim))
    assert _same(radial_field(rho, grid, cfg).phi_r,
                 ref.radial_field(rho, grid, cfg).phi_r)
    assert _same(total_mass(state, grid, cfg), ref.total_mass(state, grid, cfg))
    assert _same(energy_condition(state, grid, cfg),
                 ref.energy_condition_lhs(state, grid, cfg))


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(0, 2**32 - 1))
def test_signed_zeros_match_reference(case, seed):
    # -0.0 densities and velocities: the face clip and the dissipation speed
    # must pick the same zero as np.maximum
    state, cfg, grid, num = case
    rng = np.random.default_rng(seed)
    rho, vel = state.rho.copy(), state.vel.copy()
    rho[rho == 0.0] = -0.0
    vel[rng.random(grid.n_cells) < 0.3] = -0.0
    signed = FluidState(time=0.0, rho=rho, vel=vel)
    rho_floor, _ = _floors(signed)
    new = rhs_eval(signed, cfg, grid, num, rho_floor)
    old = ref.rhs_eval(signed, cfg, grid, num, rho_floor)
    assert _same(new[0], old[0]) and _same(new[1], old[1])


@st.composite
def velocity_profiles(draw):
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(("random", "constant", "ties", "nan")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "constant":
        vel = np.full(n, draw(st.sampled_from((0.0, -0.0, 1.5))))
    elif kind == "ties":
        # steps of equal height: several cells share the largest slope
        vel = np.repeat(rng.integers(-2, 3, n // 2 + 1).astype(float), 2)[:n]
    else:
        vel = rng.normal(0.0, 1.0, n)
        if kind == "nan" and n:
            vel[rng.integers(0, n, draw(st.integers(1, 3)))] = np.nan
    return FluidState(time=0.0, rho=np.zeros(n), vel=vel)


@settings(max_examples=200, deadline=None)
@given(velocity_profiles(), st.sampled_from((1.0, 0.3)))
def test_max_velocity_gradient_matches_reference(state, radius):
    # the first cell on a tie and the first NaN, as np.argmax picks them
    grid = RadialGrid(n_cells=max(state.n_cells, 8), support_radius=radius)
    expected = ref.max_velocity_gradient(state, grid)
    value, cell = diagnostics.max_velocity_gradient(state, grid)
    assert cell == expected[1] and type(cell) is int
    assert _same(value, expected[0]) and type(value) is float


# block edges of numpy's pairwise sum: 8 accumulators up to 128 terms, and
# above that halves split at a multiple of 8 (136 splits at 64, 8193 at 4096)
ROW_SIZES = (8, 9, 15, 16, 127, 128, 129, 136, 255, 257, 1000, 8192, 8193)


@st.composite
def row_cases(draw):
    n = draw(st.one_of(st.sampled_from(ROW_SIZES), st.integers(8, 20_000)))
    cfg = ModelConfig(
        dim=draw(st.integers(1, 3)),
        pressure_const=draw(st.sampled_from((0.0, 0.5, 1.0))),
        gamma=draw(st.sampled_from((1.0, 1.4, 5.0 / 3.0))),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = rng.uniform(0.0, 2.0, n)
    vel = rng.normal(0.0, 1.0, n)
    kind = draw(st.sampled_from(("random", "negative_zero", "nan", "inf", "vacuum")))
    if kind == "negative_zero":
        # all -0.0: the sums are +0.0, as an add reduction starts from 0.0
        rho[:] = -0.0
        vel[:] = -0.0
    elif kind in ("nan", "inf"):
        # NaN and +-inf (whose sum is the default NaN) in separate cases: IEEE
        # 754 leaves open which NaN an add of two returns, and compilers may
        # swap the operands, so a sum meeting NaNs of both signs has no
        # fixed sign bit; the output files print either as nan
        values = (np.nan,) if kind == "nan" else (np.inf, -np.inf)
        for field in (rho, vel):
            cells = rng.integers(0, n, draw(st.integers(0, 2)))
            field[cells] = rng.choice(values, cells.size)
    elif kind == "vacuum":
        for _ in range(draw(st.integers(1, 3))):
            lo = int(rng.integers(0, n))
            rho[lo : lo + int(rng.integers(1, n // 2 + 2))] = 0.0
    grid = RadialGrid(n_cells=n, support_radius=draw(st.sampled_from((1.0, 0.3))))
    return FluidState(time=0.0, rho=rho, vel=vel), grid, cfg


@settings(max_examples=200, deadline=None)
@given(row_cases())
def test_diagnostics_row_matches_numpy_sums(case):
    state, grid, cfg = case
    with np.errstate(all="ignore"):
        expected = (
            weighted_momentum(state.vel, grid),
            ref.total_mass(state, grid, cfg),
            ref.energy_condition_lhs(state, grid, cfg),
            ref.cauchy_schwarz_gap(state, grid),
        )
        # H stays numpy: the public functional is weighted_momentum itself
        public = (
            blowup_functional(state, grid),
            total_mass(state, grid, cfg),
            energy_condition(state, grid, cfg),
            cauchy_schwarz_gap(state, grid),
        )
    assert _same(diagnostics.row_integrals(state, grid, cfg), expected)
    assert _same(public, expected)


# NaNs told apart by their payload, so a reduction must return the first one
NANS = tuple(np.array([0x7FF8000000000001 + k], dtype=np.int64).view(np.float64)[0]
             for k in range(3))


@st.composite
def reduction_cases(draw):
    # lengths on both sides of the 4 and 8 lanes of the compiled reductions
    n = draw(st.one_of(st.integers(8, 40), st.integers(250, 270), st.integers(8, 5000)))
    kind = draw(st.sampled_from(("random", "ties", "zeros", "nan", "inf")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, 1.0, n)
    if kind == "ties":
        # several cells share the extreme value, and slopes repeat
        values = rng.integers(-2, 3, n).astype(float)
    elif kind == "zeros":
        # extremes of 0.0 and -0.0: the chained rule keeps the last one
        signed = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        values = np.where(rng.random(n) < 0.3, np.abs(values), signed)
    elif kind == "nan":
        for payload in NANS[: draw(st.integers(1, 3))]:
            values[rng.integers(0, n)] = payload
    elif kind == "inf":
        values[rng.integers(0, n, 2)] = rng.choice((np.inf, -np.inf), 2)
    return values


def _chained(op, values):
    """np.maximum or np.minimum chained from the first value: the first NaN,
    else the extreme value, the last of equal ones."""
    result = values[0]
    for value in values[1:]:
        if not (result != result or op(result, value)):
            result = value
    return result


@settings(max_examples=200, deadline=None)
@given(reduction_cases(), st.sampled_from((0.0, 1.0)))
def test_reductions_keep_numpy_rules(values, pressure):
    n = values.size
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    cfg = ModelConfig(dim=3, pressure_const=pressure, gamma=1.4)
    zeros = np.zeros(n)
    # the wave speed: the first NaN speed, else the largest
    state = FluidState(time=0.0, rho=np.abs(values), vel=values)
    with np.errstate(all="ignore"):
        speeds = np.abs(values) + (sound_speed(np.abs(values), cfg) if pressure else 0.0)
    assert _same(max_wave_speed(state, cfg, grid), _chained(float.__gt__, speeds.tolist()))
    # the velocity gradient: the first NaN slope, else the first largest
    with np.errstate(all="ignore"):
        expected = ref.max_velocity_gradient(FluidState(0.0, zeros, values), grid)
    value, cell = diagnostics.max_velocity_gradient(FluidState(0.0, zeros, values), grid)
    assert cell == expected[1] and _same(value, expected[0])
    # the step's new density minimum, from its second stage: the first NaN,
    # else the smallest
    wall = n - 1
    plan = _kernel.plan(grid, cfg)
    # (-0.0 * dt + mid) * 0.5 + 0.5 * -0.0 is mid * 0.5, down to the sign of
    # a zero and a NaN
    mid = np.stack([values, zeros])
    k = np.stack([np.full(n, -0.0), zeros])
    new_rho = values * 0.5
    new_rho[wall:] = 0.0
    made, lowest = plan.rk_stage(wall, 0.5, FluidState(0.0, np.full(n, -0.0), zeros), mid, k)
    assert _same(k[0], new_rho) and made.rho.base is k and made.time == 0.5
    assert _same(lowest, _chained(float.__lt__, new_rho.tolist()))
    # the first stage writes old + dt * k and takes no minimum
    assert plan.rk_stage(wall, 0.5, FluidState(0.0, values, zeros), None, k) is None


# (K, gamma): dust and the isothermal law, whose wave speed a step's second
# stage finds, and gamma 1.4, whose speed needs the raised cells
FACT_LAWS = ((0.0, 1.4), (1.0, 1.0), (1.0, 1.4))


def _made(plan, values, wall=None):
    """The state a second stage makes whose fields are ``values``, as far as
    (-0.0 * dt + x) * 0.5 + 0.5 * x is x, zeroed from ``wall`` on, and its
    least density."""
    n = values.size
    old = FluidState(0.0, values, values)
    return plan.rk_stage(n if wall is None else wall, 0.5, old, np.stack([values, values]),
                         np.full((2, n), -0.0))


@settings(max_examples=200, deadline=None)
@given(reduction_cases(), st.sampled_from(FACT_LAWS))
def test_the_facts_of_a_made_state_keep_numpy_rules(values, law):
    # the least density, wave speed and steepest slope that a second stage
    # finds of the state it makes, against numpy on that state's fields
    n = values.size
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    cfg = ModelConfig(dim=3, pressure_const=law[0], gamma=law[1])
    made, lowest = _made(_kernel.plan(grid, cfg), values)
    rho, vel = made.rho, made.vel
    with np.errstate(all="ignore"):
        speeds = np.abs(vel) + sound_speed(np.maximum(rho, 0.0), cfg)
        expected = ref.max_velocity_gradient(made, grid)
    assert _same(lowest, _chained(float.__lt__, rho.tolist()))
    assert _same(max_wave_speed(made, cfg, grid), _chained(float.__gt__, speeds.tolist()))
    value, cell = diagnostics.max_velocity_gradient(made, grid)
    assert cell == expected[1] and _same(value, expected[0]) and type(cell) is int
    # the same fields in a state built anew go through the entries
    anew = FluidState(made.time, rho, vel)
    assert _same(max_wave_speed(anew, cfg, grid), max_wave_speed(made, cfg, grid))
    assert _same(diagnostics.max_velocity_gradient(anew, grid), (value, cell))


# (width, scale of random velocities, or 0 for near ties): near ties at
# several widths, slopes that overflow to inf, and slopes that underflow
SLOPE_CASES = ((1.9, 0), (3.0, 0), (7.5, 0), (0.1, 0), (1e-300, 0), (5e-324, 0),
               (1e-300, 1e10), (1e300, 1e-10))


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 300), st.integers(0, 2**32 - 1), st.sampled_from(SLOPE_CASES))
def test_slopes_equal_after_the_division_take_the_first_cell(n, seed, case):
    # the largest difference and one division give np.argmax of the slopes
    # only with the first cell whose slope rounds to the largest: a lower
    # difference there, or an overflow to inf, or an underflow
    width, scale = case
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) * scale if scale else stage_differential.near_ties(rng, n, width)
    with np.errstate(all="ignore"):
        slopes = np.abs(v[2:] - v[:-2]) / width
    k = int(np.argmax(slopes))
    slope, cell = _kernel.load().max_slope(v, width)
    assert cell == k + 1 and _same(slope, slopes[k])
    # and so does a second stage, on a grid whose 2 dr is the width
    if 0.1 <= width <= 7.5 and n >= 8:
        grid = RadialGrid(n_cells=n, support_radius=width * n / 2.0)
        made, _ = _made(_kernel.plan(grid, ModelConfig(pressure_const=0.0)), v)
        if 2.0 * grid.cell_width == width:
            assert diagnostics.max_velocity_gradient(made, grid) == (float(slopes[k]), k + 1)


@pytest.mark.parametrize("width", [0.0, -0.0, -0.5, math.inf, -math.inf, math.nan])
def test_a_slope_width_of_any_sign_divides_every_difference(width):
    # where the division does not round monotonically upwards, the kernel
    # divides each difference as numpy does
    v = np.array([0.0, 1.0, -2.0, 3.0, 0.0, -1e308, 1e308, math.inf, 2.0, 2.0])
    for values in (v, np.zeros(10), v[::-1].copy()):
        with np.errstate(all="ignore"):
            slopes = np.abs(values[2:] - values[:-2]) / width
        k = int(np.argmax(slopes))
        slope, cell = _kernel.load().max_slope(values, width)
        assert cell == k + 1 and _same(slope, slopes[k])


def test_facts_at_their_edges():
    # ties take the first cell, a NaN velocity the first NaN, and a least
    # density of zeros the sign of the last zero, the margin's +0.0 included
    n = 16
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    plan = _kernel.plan(grid, ModelConfig(pressure_const=0.0))
    v = np.zeros(n)
    v[[5, 9, 13]] = 1.0
    made, _ = _made(plan, v)
    assert diagnostics.max_velocity_gradient(made, grid) == (1.0 / (2.0 * grid.cell_width), 4)
    first, second = NANS[:2]
    v[[7, 11]] = first, second
    made, _ = _made(plan, v)
    slope, cell = diagnostics.max_velocity_gradient(made, grid)
    assert cell == 6 and _same(slope, abs(first))
    assert _same(max_wave_speed(made, ModelConfig(pressure_const=0.0), grid), abs(first))
    zeros = np.full(n, -0.0)
    for wall, sign in ((n, -0.0), (n - 2, 0.0), (0, 0.0)):
        assert _same(_made(plan, zeros, wall)[1], sign)


def _bits(*patterns: int) -> list:
    """The float64 values of raw 64-bit patterns."""
    return np.array(patterns, dtype=np.uint64).view(np.float64).tolist()


def _around(value: float, reach: int = 3) -> list:
    """``value`` and its ``reach`` neighbours each side, of both signs."""
    bits = int(np.float64(value).view(np.uint64))
    near = _bits(*range(bits - reach, bits + reach + 1))
    return near + [-x for x in near]


# NaN of both signs and with payloads, the infinities, the zeros, the
# subnormals, the extreme normals, and the neighbours of the points where
# %g switches between fixed and exponent notation or adds a digit
SPECIAL = np.array(
    _bits(
        0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001,
        0x7FF4000000000000, 0x7FFFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
        0x0000000000000000, 0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
        0x0010000000000000, 0x8010000000000000, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
    )
    + [x for p in (1e-5, 1e-4, 1e16, 1e17, 1.0, 0.1) for x in _around(p)]
)


@st.composite
def tables(draw):
    """Float64 columns of raw bit patterns, some of their values special, for
    row counts around the writer's 1024-row blocks and 1 to 8 columns."""
    rows = draw(st.sampled_from((0, 1, 1023, 1024, 1025, 2049)))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.frombuffer(rng.bytes(8 * rows * k), dtype=np.float64).copy()
    share = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    picked = rng.random(values.size) < share
    values[picked] = rng.choice(SPECIAL, int(picked.sum()))
    # drawn values first, so a failure shrinks to them
    first = draw(st.lists(st.sampled_from(SPECIAL.tolist()), max_size=min(8, values.size)))
    values[: len(first)] = first
    return list(values.reshape(k, rows))


@settings(max_examples=60, deadline=None)
@given(tables())
def test_tables_match_the_python_writer_byte_for_byte(tmp_path_factory, columns):
    where = tmp_path_factory.mktemp("tables")
    header = ["\t".join(f"c{j}" for j in range(len(columns))), "# time = 0.5"]
    cli._write_table(where / "compiled.tsv", header, columns)
    ref.write_table(where / "python.tsv", header, columns)
    assert (where / "compiled.tsv").read_bytes() == (where / "python.tsv").read_bytes()


@st.composite
def exact_path_values(draw):
    """Values of both signs for the exact 17-digit path of ``format_rows``,
    1e-11 <= |x| < 1e17, and its borders: a uniform binary exponent with a
    random mantissa; dyadic m * 2**-j, and among them exact ties halfway
    between two 17-digit decimals; up to 2000 ulps around 10**k for
    k = -12 .. 17, where the decimal exponent needs its correction and a
    carry of the rounding to the next power of ten would show; and the
    neighbours of 1e-11 and 1e17, the ends of the range, and of 1e-5, where
    %g switches to an exponent."""
    kind = draw(st.sampled_from(("binade", "dyadic", "tie", "power of ten", "edge")))
    if kind == "binade":
        value = math.ldexp(draw(st.integers(2**52, 2**53 - 1)), draw(st.integers(-89, 4)))
    elif kind == "dyadic":
        value = math.ldexp(draw(st.integers(1, 2**53 - 1)), -draw(st.integers(0, 90)))
    elif kind == "tie":
        j, lo, hi = tie_range(draw(st.sampled_from(TIE_DECADES)))
        value = math.ldexp(2 * draw(st.integers(lo, hi - 1)) + 1, -j)
    else:
        near = 10.0 ** draw(st.integers(-12, 17)) if kind == "power of ten" else draw(
            st.sampled_from((1e-11, 1e17, 1e-5))
        )
        reach = 2000 if kind == "power of ten" else 8
        steps = draw(st.integers(-reach, reach))
        value = _bits(int(np.float64(near).view(np.uint64)) + steps)[0]
    return draw(st.sampled_from((1.0, -1.0))) * value


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_path_values(), min_size=1, max_size=64))
@example([1.00000762939453125])
def test_exact_17_digit_path_matches_percent_g(values):
    expected = "".join("%.17g\n" % x for x in values).encode()
    assert _kernel.format_rows([np.array(values)]) == expected
