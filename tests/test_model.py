import dataclasses
import math

import numpy as np
import pytest

from _reference_kernel import pressure
from radialblowup import FluidState, ModelConfig, NumericsConfig, RadialGrid
from radialblowup.model import sound_speed, validate_initial_data, weighted_momentum


def test_pressure_examples():
    assert pressure(0.0, ModelConfig(pressure_const=2.0, gamma=1.4)) == 0.0
    assert pressure(5.0, ModelConfig(pressure_const=0.0, gamma=1.4)) == 0.0
    assert pressure(3.0, ModelConfig(pressure_const=1.0, gamma=2.0)) == pytest.approx(9.0)


def test_pressure_rejects_negative_density():
    with pytest.raises(ValueError, match="negative"):
        pressure(-1.0, ModelConfig(pressure_const=1.0))


def test_sound_speed_examples():
    assert sound_speed(7.0, ModelConfig(pressure_const=0.0)) == 0.0
    assert sound_speed(1.0, ModelConfig(pressure_const=1.0, gamma=2.0)) == pytest.approx(
        np.sqrt(2.0)
    )
    assert sound_speed(0.0, ModelConfig(pressure_const=1.0, gamma=1.4)) == 0.0


def test_pressure_monotone_in_density():
    rng = np.random.default_rng(7)
    for gamma in (1.0, 1.4, 2.0, 3.0):
        for pressure_const in (0.0, 0.3, 2.0):
            cfg = ModelConfig(pressure_const=pressure_const, gamma=gamma)
            lo = rng.uniform(0.0, 5.0, 200)
            hi = lo + rng.uniform(0.0, 5.0, 200)
            assert np.all(pressure(hi, cfg) >= pressure(lo, cfg))


def test_sound_speed_pressure_identity():
    # c(rho)**2 * rho == gamma * p(rho) for rho > 0
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.01, 10.0, 500)
    for gamma in (1.0, 1.4, 2.5):
        cfg = ModelConfig(pressure_const=0.7, gamma=gamma)
        np.testing.assert_allclose(
            sound_speed(rho, cfg) ** 2 * rho, gamma * pressure(rho, cfg), rtol=1e-12
        )


def test_model_config_invariants():
    with pytest.raises(ValueError, match="dim"):
        ModelConfig(dim=4)
    with pytest.raises(ValueError, match="delta"):
        ModelConfig(delta=2)
    with pytest.raises(ValueError, match="pressure_const"):
        ModelConfig(pressure_const=-0.1)
    with pytest.raises(ValueError, match="gamma"):
        ModelConfig(gamma=0.9)
    with pytest.raises(ValueError, match="support_radius"):
        ModelConfig(support_radius=0.0)


# each config with the other fields it needs, and every float field of it
_REQUIRED = {ModelConfig: {}, NumericsConfig: {}, RadialGrid: {"n_cells": 64}}
_FLOAT_FIELDS = [
    (cls, f.name) for cls in _REQUIRED for f in dataclasses.fields(cls) if f.type == "float"
]


@pytest.mark.parametrize(
    "cls, name", _FLOAT_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in _FLOAT_FIELDS]
)
def test_every_float_field_rejects_nan(cls, name):
    # each float is checked finite before its range: an infinite t_end would
    # make the end-time tolerance infinite (no step runs), an infinite
    # dt_floor would end a run at once as a collapse
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            cls(**_REQUIRED[cls], **{name: value})


def test_t_end_must_be_finite():
    # an infinite t_end would make the end-time tolerance infinite: no step runs
    with pytest.raises(ValueError, match="^t_end must be finite, got inf$"):
        NumericsConfig(t_end=math.inf)


def test_grid_geometry():
    grid = RadialGrid(n_cells=64, support_radius=2.0)
    r = grid.cell_centers
    assert grid.cell_width == pytest.approx(2.0 / 64)
    np.testing.assert_allclose(r, (np.arange(64) + 0.5) * grid.cell_width)
    assert r[0] > 0.0
    assert r[-1] < 2.0
    assert np.all(np.diff(r) > 0)
    np.testing.assert_allclose(np.diff(r), grid.cell_width)
    with pytest.raises(ValueError):
        RadialGrid(n_cells=4, support_radius=1.0)


def test_fluid_state_holds_c_contiguous_float64_fields():
    # the kernel's layout, whatever the caller passes; a field that has it is kept
    ints = np.arange(8)
    strided = np.linspace(0.0, 1.0, 16)[::2]
    state = FluidState(0.0, ints, strided)
    for field, given in ((state.rho, ints), (state.vel, strided)):
        assert field.dtype == np.float64 and field.flags.c_contiguous
        np.testing.assert_array_equal(field, given)
    kept = np.ones(8)
    assert FluidState(0.0, kept, kept).rho is kept


def test_states_compare_by_time_and_bits():
    # equal arrays in different objects: the dataclass's own == raised here
    assert FluidState(0.0, np.ones(3), np.zeros(3)) == FluidState(0.0, np.ones(3), np.zeros(3))
    nan = np.array([np.nan, 1.0])
    assert FluidState(0.0, nan, nan) == FluidState(0.0, nan.copy(), nan.copy())
    state = FluidState(0.5, np.ones(3), np.zeros(3))
    for other in (
        FluidState(0.25, np.ones(3), np.zeros(3)),
        FluidState(0.5, np.ones(3), np.full(3, -0.0)),
        FluidState(0.5, np.ones(4), np.zeros(4)),
    ):
        assert state != other and not state == other
    flipped = np.ones(3)
    flipped.view(np.uint64)[1] ^= 1
    assert state != FluidState(0.5, flipped, np.zeros(3))
    assert state.__eq__((0.5, state.rho, state.vel)) is NotImplemented


def test_a_block_state_is_its_rows():
    # no copy and no layout check; the time is still checked
    block = np.stack([np.linspace(0.0, 1.0, 8), np.linspace(-1.0, 1.0, 8)])
    state = FluidState.of_block(0.25, block)
    assert state.rho.base is block and state.vel.base is block
    assert state == FluidState(0.25, block[0], block[1])
    assert type(state.time) is float and state.n_cells == 8
    with pytest.raises(ValueError, match="^time must be >= 0$"):
        FluidState.of_block(-1e-300, block)


@pytest.fixture
def grid():
    return RadialGrid(n_cells=256, support_radius=1.0)


def test_validate_trivial_data(grid):
    # a fluid at rest
    zeros = np.zeros(grid.n_cells)
    rho0 = np.ones(grid.n_cells)
    rho0[-2:] = 0.0
    h0 = validate_initial_data(rho0, zeros, grid, margin_cells=2)
    assert h0 == 0.0
    assert not h0 > 0.0


def test_validate_momentum_integral(grid):
    # int_0^1 r * r(1-r)**3 dr = 1/60, and the sign flips with the velocity;
    # the admissible data vanish over the margin, where V0 is below 1e-7
    r = grid.cell_centers
    v0 = r * (1.0 - r) ** 3
    v0[-2:] = 0.0
    rho0 = (1.0 - r**2) ** 2
    rho0[-2:] = 0.0
    h0 = validate_initial_data(rho0, v0, grid, margin_cells=2)
    assert h0 == pytest.approx(1.0 / 60.0, rel=1e-4)
    assert h0 > 0.0

    flipped = validate_initial_data(rho0, -v0, grid, margin_cells=2)
    assert flipped == pytest.approx(-1.0 / 60.0, rel=1e-4)
    assert flipped < 0.0


def test_validate_flags(grid):
    # each failed rule is named, both of them joined in a fixed order
    prefix = "^inadmissible initial data: "
    nonnegative = "density must be nonnegative"
    positive = "density must be positive in some cell"
    margin = "fields must vanish over the wall margin cells"
    r = grid.cell_centers
    rho0 = np.ones(grid.n_cells)
    v0 = r.copy()
    with pytest.raises(ValueError, match=f"{prefix}{margin}$"):
        validate_initial_data(rho0, v0, grid, margin_cells=2)  # nothing vanishes at the wall

    rho_bad = rho0.copy()
    rho_bad[5] = -1e-9
    with pytest.raises(ValueError, match=f"{prefix}{nonnegative}; {margin}$"):
        validate_initial_data(rho_bad, v0, grid, margin_cells=2)

    rho_bad[-2:] = 0.0
    v0[-2:] = 0.0
    with pytest.raises(ValueError, match=f"{prefix}{nonnegative}$"):
        validate_initial_data(rho_bad, v0, grid, margin_cells=2)

    # all vacuum: the vacuum cells would hold V, and H, at rest
    vacuum = np.zeros(grid.n_cells)
    with pytest.raises(ValueError, match=f"{prefix}{positive}$"):
        validate_initial_data(vacuum, v0, grid, margin_cells=2)
    negative = vacuum.copy()
    negative[:-2] = -1.0
    with pytest.raises(ValueError, match=f"{prefix}{nonnegative}; {positive}$"):
        validate_initial_data(negative, v0, grid, margin_cells=2)

    # a non-finite value is named by its field; NaN is not called negative
    rho_ok = vacuum.copy()
    rho_ok[:-2] = 1.0
    for value in (np.inf, np.nan):
        rho_bad, v_bad = rho_ok.copy(), v0.copy()
        rho_bad[5] = v_bad[5] = value
        with pytest.raises(ValueError, match=f"{prefix}density must be finite$"):
            validate_initial_data(rho_bad, v0, grid, margin_cells=2)
        with pytest.raises(ValueError, match=f"{prefix}velocity must be finite$"):
            validate_initial_data(rho_ok, v_bad, grid, margin_cells=2)

    # finite fields whose H0 overflows, and a radius whose cube does, with no warning
    with pytest.raises(ValueError, match=f"{prefix}H0 must be finite$"):
        validate_initial_data(rho_ok, np.where(rho_ok > 0, 1.7e308, 0.0), grid, margin_cells=2)
    huge = RadialGrid(n_cells=grid.n_cells, support_radius=1e103)
    with pytest.raises(ValueError, match=f"{prefix}the support radius must have a finite cube$"):
        validate_initial_data(rho_ok, vacuum, huge, margin_cells=2)


def test_validate_shape_mismatch(grid):
    with pytest.raises(ValueError, match="shape"):
        validate_initial_data(np.zeros(10), np.zeros(grid.n_cells), grid, margin_cells=2)


def test_momentum_quadrature_second_order():
    # refinement of the midpoint rule against the closed form 1/12
    errs = []
    for n in (128, 256, 512):
        grid = RadialGrid(n_cells=n, support_radius=1.0)
        r = grid.cell_centers
        errs.append(abs(weighted_momentum(r * (1.0 - r), grid) - 1.0 / 12.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)
