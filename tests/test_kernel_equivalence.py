"""The compiled kernel reproduces the numpy one bit for bit.

Random states cover every dimension, force sign, pressure law and wall
margin, with vacuum patches and roundoff-level negative densities. The
exponents gamma - 1 include 0.5, which numpy's ``**`` computes as a square
root, and 1, an exact power. Results are compared as raw bytes, so even the
sign of a zero must match.

Every test runs once per kernel build this CPU can run: here on the library
the loader picks, which runs its widest clone, and, through a star import of
this module, in ``test_kernel_avx2_clone`` and ``test_kernel_default_clone``
on the other builds. A test added here runs on every build with no other
edit. ``test_format_rows`` checks ``format_rows``, which has no clones.
"""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_kernel as ref
import stage_differential
from radialblowup import _kernel, diagnostics, model
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
    NumericalBreakdownError,
    StepResult,
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
        gamma=draw(st.sampled_from((1.4, 1.5, 5.0 / 3.0, 2.0))),
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

    stepped = _outcome(lambda: step(state, dt, cfg, grid, num, rho_floor, pos_tol).state)
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


def _step_bytes(result):
    """A step's outcome with its arrays and floats as bytes, or the error."""
    if not isinstance(result, StepResult):
        return result
    made, speed, (slope, cell), powers = result
    raised = None if powers is None else powers.tobytes()
    return made.rho.tobytes(), made.vel.tobytes(), np.array([speed, slope]).tobytes(), cell, raised


@settings(max_examples=60, deadline=None)
@given(cases())
def test_a_plan_keeps_no_state_and_a_step_repeats_its_bytes(case):
    # no plan holds a state: one a step made dies with its caller's last
    # reference, after the next step from it and a diagnostics row of
    # each. A step of one state gives the same bytes after another state's
    # step and a diagnostics row, as the benchmark repeats it, and with the
    # raised cells the step before it returned or raised anew
    state, cfg, grid, num = case
    rho_floor, _ = _floors(state)
    other = FluidState(time=0.0, rho=state.rho * 0.5 + 0.25, vel=state.vel)

    def stepped(s, powers=None):
        return _outcome(lambda: step(s, 1e-4, cfg, grid, num, rho_floor, np.inf, powers))

    first = stepped(state)
    stepped(other)
    with np.errstate(all="ignore"):
        diagnostics.row_integrals(other, grid, cfg)
    assert _step_bytes(stepped(state)) == _step_bytes(first)
    if not isinstance(first, StepResult):
        return
    anew = _step_bytes(stepped(first.state))
    second = stepped(first.state, first.powers)
    assert _step_bytes(second) == anew
    made = [weakref.ref(first.state)]
    with np.errstate(all="ignore"):
        diagnostics.row_integrals(first.state, grid, cfg)
        if isinstance(second, StepResult):
            made.append(weakref.ref(second.state))
            diagnostics.row_integrals(second.state, grid, cfg)
    del first, second
    assert all(kept() is None for kept in made)


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
def force_cases(draw):
    # the force's running sum from its first cell, peeled off the loop: a
    # first density of either zero, a negative one (whose summands are
    # +0.0), +inf or NaN, and a NaN in a later cell, on 2 to 8 cells, where
    # the sum is short, and on 64
    n = draw(st.one_of(st.integers(2, 8), st.just(64)))
    k, gamma = draw(st.sampled_from(stage_differential.LAWS))
    cfg = ModelConfig(dim=draw(st.integers(1, 3)), delta=draw(st.sampled_from((-1, 1))),
                      pressure_const=k, gamma=gamma)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = rng.uniform(0.0, 2.0, n)
    vel = rng.normal(0.0, 1.0, n)
    rho[0] = draw(st.sampled_from((-0.0, 0.0, -1e-18, -0.5, np.inf, np.nan)))
    if draw(st.booleans()):
        rho[rng.integers(1, n)] = np.nan
    grid = stage_differential.SmallGrid(n_cells=n, support_radius=1.0)
    num = NumericsConfig(support_margin_cells=draw(st.integers(1, min(3, n - 1))))
    return FluidState(time=0.0, rho=rho, vel=vel), cfg, grid, num


@settings(max_examples=200, deadline=None)
@given(force_cases())
def test_the_force_matches_reference_from_its_first_cell(case):
    state, cfg, grid, num = case
    finite = state.rho[np.isfinite(state.rho)]
    rho_floor = VACUUM_FLOOR_REL * float(np.max(finite, initial=0.0))
    new = _outcome(lambda: rhs_eval(state, cfg, grid, num, rho_floor))
    old = _outcome(lambda: ref.rhs_eval(state, cfg, grid, num, rho_floor))
    if isinstance(old, tuple) and isinstance(old[0], type):
        assert new == old
    else:
        assert _same(new[0], old[0]) and _same(new[1], old[1])


@st.composite
def velocity_profiles(draw):
    n = draw(st.integers(8, 40))
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
    grid = RadialGrid(n_cells=state.n_cells, support_radius=radius)
    expected = ref.max_velocity_gradient(state, grid)
    value, cell = diagnostics.max_velocity_gradient(state, grid)
    assert cell == expected[1] and type(cell) is int
    assert _same(value, expected[0]) and type(value) is float


@pytest.mark.parametrize("n", [7, 9, 64])
def test_a_state_whose_length_is_not_the_grids_is_refused(n):
    # the facts of a state read it on its grid's plan: a state of another
    # length raises ValueError, where the gradient once used that grid's width
    grid = RadialGrid(n_cells=8, support_radius=1.0)
    state = FluidState(0.0, np.zeros(n), np.linspace(0.0, 1.0, n))
    for read in (lambda: diagnostics.max_velocity_gradient(state, grid),
                 lambda: max_wave_speed(state, ModelConfig(), grid),
                 lambda: _kernel.plan(grid, ModelConfig(pressure_const=1.0)).facts(state)):
        with pytest.raises(ValueError, match="must be a C-contiguous float64 array"):
            read()


# block edges of numpy's pairwise sum: 8 accumulators up to 128 terms, and
# above that halves split at a multiple of 8 (136 splits at 64, 8193 at 4096)
ROW_SIZES = (8, 9, 15, 16, 127, 128, 129, 136, 255, 257, 1000, 8192, 8193)


@st.composite
def row_cases(draw):
    n = draw(st.one_of(st.sampled_from(ROW_SIZES), st.integers(8, 20_000)))
    cfg = ModelConfig(
        dim=draw(st.integers(1, 3)),
        pressure_const=draw(st.sampled_from((0.0, 0.5, 1.0))),
        gamma=draw(st.sampled_from((1.4, 5.0 / 3.0, 2.0))),
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


# (K, gamma): dust, whose wave speed is max |V|, and gamma 1.4 and 2, whose
# speeds need the raised cells
FACT_LAWS = ((0.0, 1.4), (1.0, 1.4), (1.0, 2.0))


def _facts_of(state, cfg, grid):
    """What numpy's reductions give of a state, as ``Plan.facts`` returns
    them: the least density as np.minimum folds it from the first cell, the
    wave speed as np.maximum does, both first NaN, else the extreme value,
    the last of equal ones; and the steepest slope and cell of the oracle."""
    with np.errstate(all="ignore"):
        speeds = np.abs(state.vel) + sound_speed(np.maximum(state.rho, 0.0), cfg)
        gradient = ref.max_velocity_gradient(state, grid)
    return (_chained(float.__lt__, state.rho.tolist()), _chained(float.__gt__, speeds.tolist()),
            gradient)


def _same_facts(got, want) -> bool:
    """Two facts the same to the bit, their cell an int."""
    (lowest, speed, (slope, cell)), (lowest2, speed2, (slope2, cell2)) = got, want
    return (_same([lowest, speed, slope], [lowest2, speed2, slope2]) and cell == cell2
            and type(cell) is int)


@settings(max_examples=200, deadline=None)
@given(reduction_cases(), st.sampled_from(FACT_LAWS))
def test_reductions_keep_numpy_rules(values, law):
    n = values.size
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    cfg = ModelConfig(dim=3, pressure_const=law[0], gamma=law[1])
    plan = _kernel.plan(grid, cfg)
    zeros = np.zeros(n)
    # the facts of any state, its NaN and negative cells included: the
    # first NaN, else the least density and the largest speed, and the
    # first NaN slope, else the first largest
    for state in (FluidState(0.0, values, values), FluidState(0.0, np.abs(values), values),
                  FluidState(0.0, zeros, values)):
        assert _same_facts(plan.facts(state), _facts_of(state, cfg, grid))
    # raised cells are read as the caller passes them: a negative cell's
    # sound speed is NaN, as numpy's sqrt gives it
    if cfg.pressure_const > 0.0:
        with np.errstate(all="ignore"):
            speeds = np.abs(values) + np.sqrt(cfg.pressure_const * cfg.gamma * values)
        speed = plan.facts(FluidState(0.0, zeros, values), values)[1]
        assert _same(speed, _chained(float.__gt__, speeds.tolist()))


@settings(max_examples=150, deadline=None)
@given(cases(), st.sampled_from((1e-4, 1e-2, 0.5)))
def test_the_facts_of_a_made_state_keep_numpy_rules(case, dt):
    # the least density, wave speed and steepest slope that finish_step
    # finds of the state it makes, against numpy on that state's fields,
    # with the cells it raised; past a breakdown it returns neither
    state, cfg, grid, num = case
    rho_floor, _ = _floors(state)
    plan = _kernel.plan(grid, cfg)
    wall = model.wall_index(grid.n_cells, num.support_margin_cells)
    with np.errstate(all="ignore"):
        k, bad = plan.tendencies(state, wall, rho_floor)
        if bad >= 0:
            return
        bad, made, facts, powers = plan.finish_step(wall, dt, state, k, rho_floor)
    if bad >= 0:
        assert facts is None and powers is None
        return
    assert made.time == dt and made.rho.base is made.vel.base is not k
    assert _same_facts(facts, _facts_of(made, cfg, grid))
    if cfg.pressure_const > 0.0:
        assert _same(powers, np.maximum(made.rho, 0.0) ** (cfg.gamma - 1.0))
    else:
        assert powers is None
    # the facts entry gives the same of the same fields, with the raised
    # cells the step returned or raised anew, and so do the public readers
    assert _same_facts(plan.facts(made, powers), facts)
    assert _same_facts(plan.facts(made), facts)
    assert _same(max_wave_speed(made, cfg, grid), facts[1])
    assert _same(diagnostics.max_velocity_gradient(made, grid), facts[2])


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from((1e300, 1e308)))
def test_a_second_stage_breakdown_reports_the_oracles_cell(case, dt):
    # a step so long that its first stage's state overflows: the second
    # stage's first non-finite tendency ends it, in the cell and field the
    # oracle's step names, unless the first stage broke down already
    state, cfg, grid, num = case
    rho_floor, pos_tol = _floors(state)
    stepped = _outcome(lambda: step(state, dt, cfg, grid, num, rho_floor, pos_tol).state)
    expected = _outcome(lambda: ref.step(state, dt, cfg, grid, num, rho_floor, pos_tol))
    if isinstance(expected, FluidState):
        assert _same(stepped.rho, expected.rho) and _same(stepped.vel, expected.vel)
    else:
        assert stepped == expected


@pytest.mark.parametrize("pressure_const, gamma", [(0.0, 1.4), (1.0, 1.4)])
def test_a_smooth_state_breaks_down_in_the_second_stage(pressure_const, gamma):
    # the first stage of a smooth state is finite, and its state 1e300 on
    # overflows: the breakdown is the second stage's, where the oracle has it
    n = 64
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    cfg = ModelConfig(dim=3, delta=1, pressure_const=pressure_const, gamma=gamma)
    num = NumericsConfig()
    r = grid.cell_centers
    state = ref.apply_boundary(FluidState(0.0, (1.0 - r**2) ** 2, r * (1.0 - r)), num)
    rho_floor, pos_tol = _floors(state)
    assert all(np.all(np.isfinite(k)) for k in ref.rhs_eval(state, cfg, grid, num, rho_floor))
    expected = _outcome(lambda: ref.step(state, 1e300, cfg, grid, num, rho_floor, pos_tol))
    assert expected[0] is NumericalBreakdownError
    assert _outcome(lambda: step(state, 1e300, cfg, grid, num, rho_floor, pos_tol)) == expected


# (width, scale of random velocities, or 0 for near ties): near ties at
# several widths, slopes that overflow to inf, and slopes that underflow
SLOPE_CASES = ((1.9, 0), (3.0, 0), (7.5, 0), (0.1, 0), (1e-90, 1e300), (1e100, 1e-215))


@settings(max_examples=200, deadline=None)
@given(st.integers(8, 300), st.integers(0, 2**32 - 1), st.sampled_from(SLOPE_CASES))
def test_slopes_equal_after_the_division_take_the_first_cell(n, seed, case):
    # the largest difference and one division give np.argmax of the slopes
    # only with the first cell whose slope rounds to the largest: a lower
    # difference there, or an overflow to inf, or an underflow. A second
    # facts pass finds it on a grid whose 2 dr is the width
    grid = RadialGrid(n_cells=n, support_radius=case[0] * n / 2.0)
    width, scale = 2.0 * grid.cell_width, case[1]
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) * scale if scale else stage_differential.near_ties(rng, n, width)
    with np.errstate(all="ignore"):
        slopes = np.abs(v[2:] - v[:-2]) / width
    k = int(np.argmax(slopes))
    plan = _kernel.plan(grid, ModelConfig(pressure_const=0.0))
    slope, cell = plan.facts(FluidState(0.0, v, v))[2]
    assert cell == k + 1 and _same(slope, slopes[k])


@pytest.mark.parametrize("width", [0.0, -0.0, -0.5, math.inf, -math.inf, math.nan])
def test_a_slope_width_of_any_sign_is_refused_by_the_stage(width):
    # the slope divides by 2 dr, which rounds monotonically upwards only for
    # 0 < 2 dr <= DBL_MAX: a stage refuses any other dr, so no width of
    # another sign, no zero and no infinity reaches the division
    grid = RadialGrid(n_cells=16, support_radius=1.0)
    w = model.grid_weights(grid, 3)
    arrays = (grid.cell_centers, w.face_area, w.shell, w.inner_shell, w.center)
    with pytest.raises(ValueError, match=r"^stage: dr must be in \(0, DBL_MAX / 2\]$"):
        _kernel.load().stage(width / 2.0, 0.0, 1.4, 0.0, *arrays, 1)


def test_facts_at_their_edges():
    # ties take the first cell, a NaN velocity the first NaN, and a least
    # density of zeros the sign of the last zero, the margin's +0.0 included
    n = 16
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    plan = _kernel.plan(grid, ModelConfig(pressure_const=0.0))
    v = np.zeros(n)
    v[[5, 9, 13]] = 1.0
    assert plan.facts(FluidState(0.0, v, v))[2] == (1.0 / (2.0 * grid.cell_width), 4)
    first, second = NANS[:2]
    v[[7, 11]] = first, second
    _, speed, (slope, cell) = plan.facts(FluidState(0.0, v, v))
    assert cell == 6 and _same(slope, abs(first))
    assert _same(speed, abs(first))
    for wall, sign in ((n, -0.0), (n - 2, 0.0), (0, 0.0)):
        zeros = np.full(n, -0.0)
        zeros[wall:] = 0.0
        assert _same(plan.facts(FluidState(0.0, zeros, zeros))[0], sign)


def _split_cases(n, walls, repeats, seed):
    """(grid, cfg, state, wall, dt) for every law of the stage differential,
    force sign and wall: random states, half of them with a NaN, an inf, a
    -0.0 or a vacuum cell just before, at or just after the split at n // 2."""
    rng = np.random.default_rng(seed)
    grid = stage_differential.SmallGrid(n_cells=n, support_radius=1.0)
    for k, gamma in stage_differential.LAWS:
        for delta in (-1, 0, 1):
            cfg = ModelConfig(dim=int(rng.integers(1, 4)), delta=delta, pressure_const=k,
                              gamma=gamma)
            for wall in walls:
                for _ in range(repeats):
                    state = stage_differential.draw_state(rng, n, wall)
                    if rng.random() < 0.5:
                        field = state.rho if rng.random() < 0.5 else state.vel
                        cell = min(max(n // 2 + int(rng.integers(-1, 2)), 0), n - 1)
                        field[cell] = rng.choice((np.nan, np.inf, -np.inf, -0.0, 0.0))
                    dt = 1e300 if rng.random() < 0.1 else float(rng.uniform(1e-4, 1e-2))
                    yield grid, cfg, state, wall, dt


@pytest.mark.parametrize("n", [*range(2, 20), 64, 257, 512, 4096])
def test_one_thread_and_two_make_the_same_bytes(n):
    # a stage that splits its passes at n // 2 between the calling thread
    # and the helper gives the bytes of one thread: facts, tendencies, the
    # first non-finite cell, and a step's rest, at every wall of a small
    # grid (where the edge faces meet the split) and at both ends of a large
    walls = stage_differential.walls(n)
    repeats = 2 if n < 4096 else 1
    plans = {}
    for grid, cfg, state, wall, dt in _split_cases(n, walls, repeats, seed=n):
        if cfg not in plans:
            plans = {cfg: [_kernel.Plan(grid, cfg, threads) for threads in (1, 2)]}
        one, two = plans[cfg]
        finite = state.rho[np.isfinite(state.rho)]
        rho_floor = VACUUM_FLOOR_REL * float(np.max(finite, initial=0.0))
        with np.errstate(all="ignore"):
            made = [stage_differential.plan_bytes(plan, state, wall, dt, rho_floor)
                    for plan in (one, two)]
        assert made[0] == made[1], (cfg, wall)


def test_a_stage_takes_one_thread_or_two():
    grid = RadialGrid(n_cells=16, support_radius=1.0)
    w = model.grid_weights(grid, 3)
    arrays = (grid.cell_centers, w.face_area, w.shell, w.inner_shell, w.center)
    for threads in (0, 3, -1):
        with pytest.raises(ValueError, match=rf"^stage: threads must be 1 or 2, got {threads}$"):
            _kernel.load().stage(0.0625, 0.0, 1.4, 0.0, *arrays, threads)
