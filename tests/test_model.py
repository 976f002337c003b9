import numpy as np
import pytest

from radialblowup import (
    ModelConfig,
    RadialGrid,
    pressure,
    sound_speed,
    validate_initial_data,
    weighted_momentum,
)


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
    assert ModelConfig(pressure_const=0.0, gamma=1.0).eos_in_scope
    assert ModelConfig(pressure_const=0.1, gamma=1.4).eos_in_scope
    assert not ModelConfig(pressure_const=0.1, gamma=1.0).eos_in_scope


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


@pytest.fixture
def grid():
    return RadialGrid(n_cells=256, support_radius=1.0)


def test_validate_trivial_data(grid):
    zeros = np.zeros(grid.n_cells)
    report = validate_initial_data(zeros, zeros, grid)
    assert report.rho_nonnegative and report.compact_support
    assert report.h0 == 0.0
    assert not report.h0_positive


def test_validate_momentum_integral(grid):
    # int_0^1 r * r(1-r) dr = 1/12, and the sign flips with the velocity
    r = grid.cell_centers
    v0 = r * (1.0 - r)
    rho0 = np.zeros_like(v0)
    report = validate_initial_data(rho0, v0, grid)
    assert report.h0 == pytest.approx(1.0 / 12.0, rel=1e-4)
    assert report.h0_positive

    flipped = validate_initial_data(rho0, -v0, grid)
    assert flipped.h0 == pytest.approx(-1.0 / 12.0, rel=1e-4)
    assert not flipped.h0_positive


def test_validate_flags(grid):
    r = grid.cell_centers
    rho0 = np.ones(grid.n_cells)
    v0 = r.copy()
    report = validate_initial_data(rho0, v0, grid, margin_cells=2)
    assert not report.compact_support  # nothing vanishes at the wall

    rho_bad = rho0.copy()
    rho_bad[5] = -1e-9
    rho_bad[-2:] = 0.0
    v0[-2:] = 0.0
    report = validate_initial_data(rho_bad, v0, grid)
    assert not report.rho_nonnegative


def test_validate_shape_mismatch(grid):
    with pytest.raises(ValueError, match="shape"):
        validate_initial_data(np.zeros(10), np.zeros(grid.n_cells), grid)


def test_momentum_quadrature_second_order():
    # refinement of the midpoint rule against the closed form 1/12
    errs = []
    for n in (128, 256, 512):
        grid = RadialGrid(n_cells=n, support_radius=1.0)
        r = grid.cell_centers
        errs.append(abs(weighted_momentum(r * (1.0 - r), grid) - 1.0 / 12.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)
