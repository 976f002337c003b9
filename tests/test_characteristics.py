import numpy as np
import pytest

from _characteristics import (
    CrossingError,
    boundary_energy,
    characteristic_solution,
    emden_boundary_ode,
)
from radialblowup import ModelConfig, first_crossing_time


def bump_v(r):
    r = np.asarray(r, dtype=float)
    return r * (1.0 - r)


def bump_dv(r):
    return 1.0 - 2.0 * np.asarray(r, dtype=float)


class TestCharacteristicMap:
    def test_identity_at_t0(self):
        r0 = np.linspace(0.0, 1.0, 50)
        field = characteristic_solution(bump_v, 0.0, r0, bump_dv)
        np.testing.assert_array_equal(field.positions, r0)
        np.testing.assert_array_equal(field.values, bump_v(r0))

    def test_uniform_translation(self):
        r0 = np.linspace(0.0, 1.0, 50)
        field = characteristic_solution(lambda r: np.full_like(r, 0.3), 0.7, r0)
        np.testing.assert_allclose(field.positions, r0 + 0.21)

    def test_bump_map_at_half_time(self):
        r0 = np.linspace(0.0, 1.0, 101)
        field = characteristic_solution(bump_v, 0.5, r0, bump_dv)
        np.testing.assert_allclose(field.positions, r0 + 0.5 * r0 * (1.0 - r0))
        assert np.all(np.diff(field.positions) > 0)

    def test_transported_velocity_unchanged(self):
        r0 = np.linspace(0.0, 1.0, 64)
        v_seed = bump_v(r0)
        for t in (0.1, 0.4, 0.8):
            field = characteristic_solution(bump_v, t, r0, bump_dv)
            np.testing.assert_array_equal(field.values, v_seed)

    def test_monotone_until_crossing(self):
        r0 = np.linspace(0.0, 1.0, 512)
        for t in (0.25, 0.5, 0.9, 0.99):
            field = characteristic_solution(bump_v, t, r0, bump_dv)
            assert np.all(np.diff(field.positions) > 0)

    def test_crossing_error_at_shock_time(self):
        r0 = np.linspace(0.0, 1.0, 64)
        with pytest.raises(CrossingError):
            characteristic_solution(bump_v, 1.0, r0, bump_dv)
        with pytest.raises(CrossingError):
            characteristic_solution(bump_v, 1.5, r0, bump_dv)


class TestFirstCrossing:
    def test_bump_crossing_time(self):
        assert first_crossing_time(bump_v, 1.0, bump_dv) == pytest.approx(1.0)

    def test_numeric_derivative_agrees(self):
        t_numeric = first_crossing_time(bump_v, 1.0)
        assert t_numeric == pytest.approx(1.0, rel=1e-3)

    def test_nondecreasing_profile_never_crosses(self):
        assert first_crossing_time(lambda r: 2.0 * np.asarray(r), 1.0) is None

    def test_uniform_compression(self):
        assert first_crossing_time(
            lambda r: -np.asarray(r), 1.0, lambda r: np.full_like(np.asarray(r), -1.0)
        ) == pytest.approx(1.0)

    def test_scaling_law(self):
        # speeding the profile up by c divides the crossing time by c
        rng = np.random.default_rng(13)
        for c in rng.uniform(0.2, 5.0, 10):
            scaled = first_crossing_time(
                lambda r, c=c: c * bump_v(r), 1.0, lambda r, c=c: c * bump_dv(r)
            )
            assert scaled == pytest.approx(1.0 / c, rel=1e-12)

    def test_nonfinite_derivative_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            first_crossing_time(
                bump_v, 1.0, lambda r: np.where(np.asarray(r) > 0.5, np.nan, -1.0)
            )


class TestBoundaryOde:
    def test_no_force_is_constant(self):
        traj = emden_boundary_ode(1.0, 1.0, ModelConfig(dim=3, delta=0), (0.0, 1.0), 1e-3)
        assert np.all(traj.radius == 1.0)
        assert np.all(traj.rate == 0.0)
        assert not traj.collapsed

    def test_one_dimensional_constant_acceleration(self):
        # R'' = M, from rest: R = R0 + M t**2 / 2, exact for the integrator
        traj = emden_boundary_ode(1.0, 2.0, ModelConfig(dim=1, delta=1), (0.0, 1.0), 1e-3)
        np.testing.assert_allclose(traj.radius, 1.0 + traj.times**2, atol=1e-12)

    def test_repulsive_energy_conservation(self):
        cfg = ModelConfig(dim=3, delta=1)
        traj = emden_boundary_ode(1.0, 1.0, cfg, (0.0, 0.5), 1e-3)
        energy = boundary_energy(traj.radius, traj.rate, 1.0, cfg)
        assert np.max(np.abs(energy - energy[0])) <= 1e-10 * abs(energy[0])

    def test_energy_drift_scales_at_integrator_order(self):
        # classic RK4: energy drift shrinks ~16x per halving of dt
        cfg = ModelConfig(dim=3, delta=1)
        drift = {}
        for dt in (0.02, 0.01):
            traj = emden_boundary_ode(1.0, 1.0, cfg, (0.0, 1.0), dt)
            energy = boundary_energy(traj.radius, traj.rate, 1.0, cfg)
            drift[dt] = np.max(np.abs(energy - energy[0]))
        assert 10.0 <= drift[0.02] / drift[0.01] <= 24.0

    def test_attractive_collapse_flag(self):
        cfg = ModelConfig(dim=3, delta=-1)
        traj = emden_boundary_ode(1.0, 10.0, cfg, (0.0, 2.0), 1e-4)
        assert traj.collapsed
        # free-fall time from rest: (pi/2) * sqrt(R0**3 / (2 M))
        assert traj.times[-1] == pytest.approx(np.pi / 2 * np.sqrt(1.0 / 20.0), abs=2e-3)

    def test_rejects_bad_parameters(self):
        cfg = ModelConfig(dim=3, delta=1)
        with pytest.raises(ValueError):
            emden_boundary_ode(0.0, 1.0, cfg)
        with pytest.raises(ValueError):
            emden_boundary_ode(1.0, -1.0, cfg)
        with pytest.raises(ValueError):
            emden_boundary_ode(1.0, 1.0, cfg, (1.0, 0.5))
