from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialblowup import (
    FluidState,
    ModelConfig,
    NumericalBreakdownError,
    NumericsConfig,
    PositivityError,
    RadialGrid,
    Termination,
    apply_boundary,
    build_initial_profile,
    cfl_dt,
    detect_steepening,
    oracle_velocity,
    radial_field,
    rhs_eval,
    run,
    step,
)
from radialblowup import diagnostics, solver
from radialblowup.solver import mirror_pad


@pytest.fixture
def grid():
    return RadialGrid(n_cells=128, support_radius=1.0)


@pytest.fixture
def num():
    return NumericsConfig(cfl=0.4, t_end=1.0, steepening_threshold=50.0)


def margin_zeroed(fields, margin=2):
    for f in fields:
        f[-margin:] = 0.0
    return fields


class TestRhsEval:
    def test_vacuum_fixed_point(self, grid, num):
        state = FluidState(0.0, np.zeros(128), np.zeros(128))
        for cfg in (ModelConfig(delta=0), ModelConfig(delta=1)):
            drho, dvel = rhs_eval(state, cfg, grid, num)
            assert np.all(drho == 0.0)
            assert np.all(dvel == 0.0)

    def test_uniform_velocity_pure_advection(self, grid, num):
        # constant V and rho: the velocity tendency vanishes away from the
        # edges, while mass follows the exact geometric drain -2*rho*V/r
        cfg = ModelConfig(dim=3, delta=0, pressure_const=0.0)
        rho, vel = margin_zeroed([np.ones(128), np.full(128, 0.3)])
        state = FluidState(0.0, rho, vel)
        drho, dvel = rhs_eval(state, cfg, grid, num)
        interior = slice(3, 128 - 5)
        assert np.all(dvel[interior] == 0.0)
        r = grid.cell_centers[interior]
        np.testing.assert_allclose(drho[interior], -2.0 * 0.3 / r, rtol=1e-13)

    def test_static_bump_accelerates_outward(self, grid, num):
        # V=0, K=0, delta=1: the velocity tendency is exactly the force field
        cfg = ModelConfig(dim=3, delta=1, pressure_const=0.0)
        r = grid.cell_centers
        rho, vel = margin_zeroed([(1.0 - r**2) ** 2, np.zeros(128)])
        state = FluidState(0.0, rho, vel)
        drho, dvel = rhs_eval(state, cfg, grid, num, rho_floor=0.0)
        field = radial_field(rho, grid, cfg)
        support = rho > 0.0
        np.testing.assert_array_equal(dvel[support], field.phi_r[support])
        assert np.all(dvel >= 0.0)
        assert np.all(drho == 0.0)  # nothing moves yet

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_velocity_raises_breakdown(self, grid, num):
        cfg = ModelConfig()
        vel = np.zeros(128)
        vel[10] = np.inf
        state = FluidState(0.0, np.ones(128), vel)
        with pytest.raises(NumericalBreakdownError) as info:
            rhs_eval(state, cfg, grid, num)
        assert 0 <= info.value.cell_index < 128


class TestCflDt:
    def test_zero_wave_speed_returns_cap(self, grid):
        num = NumericsConfig(t_end=2.5)
        state = FluidState(0.0, np.ones(128), np.zeros(128))
        assert cfl_dt(state, ModelConfig(pressure_const=0.0), num, grid) == 2.5

    def test_formula(self):
        grid = RadialGrid(n_cells=100, support_radius=1.0)  # dr = 0.01
        num = NumericsConfig(cfl=0.5, t_end=100.0)
        vel = np.zeros(100)
        vel[3] = 2.0
        state = FluidState(0.0, np.zeros(100), vel)
        assert cfl_dt(state, ModelConfig(pressure_const=0.0), num, grid) == pytest.approx(
            0.0025
        )

    def test_halves_when_speed_doubles(self, grid):
        num = NumericsConfig(cfl=0.4, t_end=100.0)
        cfg = ModelConfig(pressure_const=0.0)
        state = FluidState(0.0, np.zeros(128), np.full(128, 0.5))
        fast = FluidState(0.0, np.zeros(128), np.full(128, 1.0))
        assert cfl_dt(fast, cfg, num, grid) == pytest.approx(
            0.5 * cfl_dt(state, cfg, num, grid)
        )

    def test_capped_by_remaining_time(self, grid):
        num = NumericsConfig(cfl=0.4, t_end=1.0)
        state = FluidState(0.999, np.zeros(128), np.full(128, 1e-6))
        assert cfl_dt(state, ModelConfig(), num, grid) == pytest.approx(0.001)


class TestBoundary:
    def test_margin_zeroed(self, grid, num):
        state = FluidState(0.0, np.ones(128), np.ones(128))
        out = apply_boundary(state, num)
        assert np.all(out.rho[-2:] == 0.0)
        assert np.all(out.vel[-2:] == 0.0)

    def test_idempotent(self, grid, num):
        state = apply_boundary(FluidState(0.0, np.ones(128), np.ones(128)), num)
        again = apply_boundary(state, num)
        np.testing.assert_array_equal(state.rho, again.rho)
        np.testing.assert_array_equal(state.vel, again.vel)

    def test_mirror_ghosts(self):
        rho = np.asarray([1.0, 2.0, 3.0, 0.0, 0.0])
        vel = np.asarray([0.5, -0.25, 1.0, 0.0, 0.0])
        rho_ext, vel_ext = mirror_pad(rho, vel)
        # density extends evenly, velocity as negated copies
        np.testing.assert_array_equal(rho_ext[:2], [2.0, 1.0])
        np.testing.assert_array_equal(vel_ext[:2], [0.25, -0.5])
        np.testing.assert_array_equal(rho_ext[-2:], [0.0, 0.0])
        np.testing.assert_array_equal(vel_ext[-2:], [0.0, 0.0])


class TestStep:
    def test_vacuum_fixed_point(self, grid, num):
        state = FluidState(0.0, np.zeros(128), np.zeros(128))
        out = step(state, 0.01, ModelConfig(delta=1), grid, num)
        assert np.all(out.rho == 0.0)
        assert np.all(out.vel == 0.0)

    def test_zero_dt_is_identity(self, grid, num):
        r = grid.cell_centers
        rho, vel = margin_zeroed([(1.0 - r**2) ** 2, r * (1.0 - r)])
        state = FluidState(0.0, rho, vel)
        out = step(state, 0.0, ModelConfig(pressure_const=0.1), grid, num)
        np.testing.assert_array_equal(out.rho, state.rho)
        np.testing.assert_array_equal(out.vel, state.vel)

    def test_oversized_step_trips_positivity(self, grid, num):
        # dt far beyond the stability limit empties cells below zero
        cfg = ModelConfig(pressure_const=0.0)
        r = grid.cell_centers
        rho, vel = margin_zeroed([(1.0 - r**2) ** 2, np.full(128, 1.0)])
        vel[-2:] = 0.0
        state = FluidState(0.0, rho, vel)
        with pytest.raises(PositivityError):
            step(state, 0.5, cfg, grid, num, positivity_tol=1e-14)


class TestDetectSteepening:
    def test_quiescent(self, grid, num):
        state = FluidState(0.0, np.ones(128), np.zeros(128))
        assert detect_steepening(state, grid, num) is None

    def test_linear_profile_slope(self, grid):
        num = NumericsConfig(steepening_threshold=2.9)
        state = FluidState(0.0, np.ones(128), 3.0 * grid.cell_centers)
        hit = detect_steepening(state, grid, num)
        assert hit is not None
        assert hit.slope == pytest.approx(3.0)
        below = NumericsConfig(steepening_threshold=3.1)
        assert detect_steepening(state, grid, below) is None


class TestRun:
    def test_trivial_data_reaches_horizon(self):
        cfg = ModelConfig()
        num = NumericsConfig(t_end=0.5)
        res = run(np.zeros(64), np.zeros(64), cfg, num)
        assert res.trajectory.termination is Termination.REACHED_T_END
        assert res.trajectory.t_detect is None
        assert res.report.t_final == pytest.approx(0.5)
        assert not res.report.bound_applicable

    def test_rejects_inadmissible_data(self):
        cfg = ModelConfig()
        num = NumericsConfig()
        bad_rho = np.full(64, -1.0)
        bad_rho[-2:] = 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            run(bad_rho, np.zeros(64), cfg, num)
        with pytest.raises(ValueError, match="margin"):
            run(np.ones(64), np.ones(64), cfg, num)

    def test_pressureless_transport_matches_oracle(self):
        grid = RadialGrid(n_cells=256, support_radius=1.0)
        cfg = ModelConfig(dim=3, delta=0, pressure_const=0.0)
        num = NumericsConfig(cfl=0.4, t_end=0.3, steepening_threshold=1e9)
        prof = build_initial_profile("polynomial_bump", {}, 0, grid, 2)
        res = run(prof.rho0, prof.v0, cfg, num, snapshot_times=(0.3,))
        (final,) = res.trajectory.snapshots
        assert final.time == res.report.t_final
        expected = oracle_velocity(prof.v_of_r, 0.3, grid, prof.dv_dr)
        err = np.sum(np.abs(final.vel - expected) * grid.cell_centers) * grid.cell_width
        assert err < 2e-4

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mass_conserved_with_force_and_pressure(self, monkeypatch, dim):
        # density is checked on every stepped state, a superset of the rows
        rho_mins = []

        def watched(*args, _step=solver.step, **kwargs):
            out = _step(*args, **kwargs)
            rho_mins.append(out.rho.min())
            return out

        monkeypatch.setattr(solver, "step", watched)
        grid = RadialGrid(n_cells=128, support_radius=1.0)
        cfg = ModelConfig(dim=dim, delta=1, pressure_const=0.05, gamma=2.0)
        num = NumericsConfig(cfl=0.4, t_end=0.4, steepening_threshold=1e9)
        prof = build_initial_profile("random_smooth", {"modes": 4}, 42, grid, 2)
        res = run(prof.rho0, prof.v0, cfg, num)
        assert res.report.mass_drift_rel <= 1e-10
        assert res.report.t_final == pytest.approx(0.4)
        assert len(rho_mins) >= res.series.times.size - 1
        assert min(rho_mins) >= -1e-14

    def test_isothermal_runs_but_is_out_of_scope(self):
        # gamma = 1 with pressure evolves fine yet never reaches a verdict
        grid = RadialGrid(n_cells=128, support_radius=1.0)
        cfg = ModelConfig(dim=3, delta=0, pressure_const=0.1, gamma=1.0)
        num = NumericsConfig(cfl=0.4, t_end=0.3, steepening_threshold=1e9)
        prof = build_initial_profile("gaussian_truncated", {"width": 0.3}, 0, grid, 2)
        res = run(prof.rho0, prof.v0, cfg, num)
        assert res.trajectory.termination is Termination.REACHED_T_END
        assert res.report.verdict.value == "not_applicable"
        assert "isothermal_eos_outside_bound_scope" in res.report.scope_flags

    def test_dt_collapse_flagged_as_detection(self):
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        cfg = ModelConfig(pressure_const=0.0)
        num = NumericsConfig(cfl=0.4, t_end=1.0, dt_floor=1.0, steepening_threshold=1e9)
        prof = build_initial_profile("polynomial_bump", {}, 0, grid, 2)
        res = run(prof.rho0, prof.v0, cfg, num)
        assert res.trajectory.termination is Termination.DT_COLLAPSED
        assert res.trajectory.t_detect == 0.0

    def test_bump_detection_window_at_reference_threshold(self):
        # threshold 50 * max|V0'| / R at 1024 cells: the gradient blowup of
        # the pressureless bump is caught within 10% of the oracle time 1.0
        grid = RadialGrid(n_cells=1024, support_radius=1.0)
        cfg = ModelConfig(dim=3, delta=0, pressure_const=0.0)
        num = NumericsConfig(cfl=0.4, t_end=2.0, steepening_threshold=50.0)
        prof = build_initial_profile("polynomial_bump", {}, 0, grid, 2)
        res = run(prof.rho0, prof.v0, cfg, num)
        assert res.trajectory.termination is Termination.STEEPENING_DETECTED
        assert 0.9 <= res.trajectory.t_detect <= 1.1

    def test_repulsion_accelerates_detection(self):
        # same dust bump with the outward force: still detects within the
        # bound, no later than the force-free run (threshold sized for the
        # gradients a 256-cell grid can resolve)
        grid = RadialGrid(n_cells=256, support_radius=1.0)
        num = NumericsConfig(cfl=0.4, t_end=4.0, steepening_threshold=10.0)
        prof = build_initial_profile("polynomial_bump", {}, 0, grid, 2)
        detect = {}
        for delta in (0, 1):
            cfg = ModelConfig(dim=3, delta=delta, pressure_const=0.0)
            res = run(prof.rho0, prof.v0, cfg, num)
            assert res.trajectory.termination is Termination.STEEPENING_DETECTED
            assert res.report.verdict.value == "confirmed"
            detect[delta] = res.trajectory.t_detect
        assert detect[1] <= detect[0] <= 6.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(-1.0, 1.0),
                st.sampled_from([0.0, 0.1, 0.2]),
            ),
            max_size=6,
        )
    )
    def test_snapshots_are_the_rows_nearest_each_requested_time(self, snapshot_times):
        # unsorted, duplicated, negative and past-t_end requests each get the
        # recorded row nearest them, in request order
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        cfg = ModelConfig(pressure_const=0.0)
        num = NumericsConfig(cfl=0.4, t_end=0.2, output_stride=3, steepening_threshold=1e9)
        prof = build_initial_profile("polynomial_bump", {}, 0, grid, 2)
        res = run(prof.rho0, prof.v0, cfg, num, snapshot_times=tuple(snapshot_times))
        assert len(res.trajectory.snapshots) == len(snapshot_times)
        times = res.series.times
        for wanted, state in zip(snapshot_times, res.trajectory.snapshots):
            assert state.time == times[np.argmin(np.abs(times - wanted))]

    @pytest.mark.parametrize("pressure_const", [0.0, 1.0])
    def test_each_value_computed_once_per_step(self, monkeypatch, pressure_const):
        calls = Counter()
        for module, name in ((solver, "step"), (solver, "max_wave_speed"),
                             (solver, "sound_speed"), (solver, "rhs_eval"),
                             (diagnostics, "max_velocity_gradient")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        cfg = ModelConfig(dim=3, delta=1, pressure_const=pressure_const)
        num = NumericsConfig(t_end=0.05, output_stride=1, steepening_threshold=1e9)
        prof = build_initial_profile("gaussian_truncated", {}, 0, grid, 2)
        run(prof.rho0, prof.v0, cfg, num)
        steps = calls["step"]
        assert steps > 0 and calls["rhs_eval"] == 2 * steps
        assert calls["max_wave_speed"] == steps
        # the initial row plus one gradient per step, shared by detection and rows
        assert calls["max_velocity_gradient"] == steps + 1
        # one sound speed per stage and one per step, none without pressure
        expected = 3 * steps if pressure_const > 0 else 0
        assert calls["sound_speed"] == expected
