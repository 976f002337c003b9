import numpy as np
import pytest

from radialblowup import ModelConfig, RadialGrid, radial_field
from radialblowup.poisson import alpha


def test_alpha_table():
    assert alpha(1) == 1.0
    assert alpha(2) == pytest.approx(2.0 * np.pi)
    assert alpha(3) == pytest.approx(4.0 * np.pi)


@pytest.mark.parametrize("dim", [0, 4, -1])
def test_alpha_rejects_unsupported_dimension(dim):
    with pytest.raises(ValueError, match="dimension"):
        alpha(dim)


def test_zero_force_cases():
    grid = RadialGrid(n_cells=128, support_radius=1.0)
    rho = np.exp(-grid.cell_centers)

    off = radial_field(rho, grid, ModelConfig(dim=3, delta=0))
    assert np.all(off.phi_r == 0.0)

    vacuum = radial_field(np.zeros(128), grid, ModelConfig(dim=3, delta=1))
    assert np.all(vacuum.phi_r == 0.0)
    assert np.all(vacuum.cumulative == 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_uniform_density_closed_form(dim):
    # constant rho gives phi_r = alpha * delta * rho * r / dim, here exactly
    grid = RadialGrid(n_cells=256, support_radius=2.0)
    rho = np.full(256, 0.7)
    prof = radial_field(rho, grid, ModelConfig(dim=dim, delta=1, support_radius=2.0))
    exact = alpha(dim) * 0.7 * grid.cell_centers / dim
    np.testing.assert_allclose(prof.phi_r, exact, rtol=1e-12)


def test_attractive_sign():
    grid = RadialGrid(n_cells=64, support_radius=1.0)
    rho = np.ones(64)
    prof = radial_field(rho, grid, ModelConfig(dim=3, delta=-1))
    assert np.all(prof.phi_r < 0.0)


def test_cumulative_monotone_for_random_density():
    rng = np.random.default_rng(3)
    grid = RadialGrid(n_cells=200, support_radius=1.0)
    for _ in range(20):
        rho = rng.uniform(0.0, 4.0, 200)
        prof = radial_field(rho, grid, ModelConfig(dim=3, delta=1))
        assert np.all(np.diff(prof.cumulative) >= 0.0)
        assert np.all(prof.phi_r >= 0.0)


def test_field_linear_in_density():
    rng = np.random.default_rng(5)
    grid = RadialGrid(n_cells=100, support_radius=1.0)
    cfg = ModelConfig(dim=2, delta=1)
    rho = rng.uniform(0.0, 1.0, 100)
    base = radial_field(rho, grid, cfg)
    for c in (0.0, 0.5, 3.0):
        scaled = radial_field(c * rho, grid, cfg)
        np.testing.assert_allclose(scaled.phi_r, c * base.phi_r, atol=1e-15)


def test_quadratic_density_second_order():
    # rho = s**2 in three dimensions: phi_r = 4*pi*delta*r**3/5 exactly
    errs = {}
    for n in (128, 256, 512):
        grid = RadialGrid(n_cells=n, support_radius=1.0)
        rho = grid.cell_centers**2
        prof = radial_field(rho, grid, ModelConfig(dim=3, delta=1))
        exact = 4.0 * np.pi * grid.cell_centers**3 / 5.0
        errs[n] = np.max(np.abs(prof.phi_r - exact)) / np.max(np.abs(exact))
    assert errs[128] / errs[256] == pytest.approx(4.0, rel=0.15)
    assert errs[256] / errs[512] == pytest.approx(4.0, rel=0.15)


def test_rejects_negative_density_and_bad_shape():
    grid = RadialGrid(n_cells=32, support_radius=1.0)
    cfg = ModelConfig(dim=3, delta=1)
    with pytest.raises(ValueError, match="negative"):
        radial_field(np.full(32, -1.0), grid, cfg)
    with pytest.raises(ValueError, match="shape"):
        radial_field(np.ones(16), grid, cfg)
