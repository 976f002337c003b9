import hashlib
import math
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _characteristics import oracle_velocity
from radialblowup import (
    FluidState,
    ModelConfig,
    NumericsConfig,
    RadialGrid,
    build_initial_profile,
    cfl_dt,
    radial_field,
    rhs_eval,
    run,
    step,
)
from radialblowup import _kernel, diagnostics, model, poisson, solver
from radialblowup.solver import (
    NumericalBreakdownError,
    PositivityError,
    Termination,
    apply_boundary,
    detect_steepening,
)


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

    def test_nan_speed_gives_a_nan_step_and_no_collapse(self, grid, monkeypatch):
        # a NaN max(|V| + c) passes the dt_floor test, which any finite step
        # would fail here, and the NaN step ends the run in a breakdown; a NaN
        # in the initial data is refused, so the run's NaN speed is patched in
        num = NumericsConfig(dt_floor=1.0)
        cfg = ModelConfig(pressure_const=0.0)
        rho, vel = np.ones(128), np.zeros(128)
        rho[-2:] = 0.0
        nan_vel = vel.copy()
        nan_vel[10] = np.nan
        assert np.isnan(cfl_dt(FluidState(0.0, rho, nan_vel), cfg, num, grid))
        monkeypatch.setattr(solver, "max_wave_speed", lambda *args: math.nan)
        result = run(rho, vel, cfg, num)
        assert result.trajectory.termination is Termination.NUMERICAL_BREAKDOWN
        assert result.trajectory.steps == 0

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

    def test_run_writes_positive_zeros_over_the_margin(self, grid, num):
        # validation accepts -0.0 in the margin; the run's copy holds +0.0
        profile = build_initial_profile("polynomial_bump", {}, 0, grid, 2)
        rho0, v0 = profile.rho0.copy(), profile.v0.copy()
        rho0[-2:] = v0[-2:] = -0.0
        result = run(rho0, v0, ModelConfig(), replace(num, t_end=0.01), (0.0,))
        (first,) = result.trajectory.snapshots
        assert first.time == 0.0
        assert not np.signbit(first.rho[-2:]).any()
        assert not np.signbit(first.vel[-2:]).any()
        assert np.signbit(rho0[-2:]).all()  # the caller's arrays are not written

    @pytest.mark.parametrize("pressure_const", [0.0, 1.0])
    @pytest.mark.parametrize("margin", [0, 8, 12])
    def test_a_margin_outside_the_grid_is_rejected(self, margin, pressure_const):
        # on 8 cells the margin must be in [1, 8), the rule of
        # validate_initial_data; NumericsConfig alone rejects only 0, so the
        # margin is set past its check
        grid = RadialGrid(n_cells=8, support_radius=1.0)
        num = NumericsConfig()
        object.__setattr__(num, "support_margin_cells", margin)
        cfg = ModelConfig(pressure_const=pressure_const)
        state = FluidState(0.0, np.ones(8), np.ones(8))
        message = r"margin_cells must be in \[1, n_cells\)"
        with pytest.raises(ValueError, match=message):
            rhs_eval(state, cfg, grid, num)
        with pytest.raises(ValueError, match=message):
            step(state, 1e-3, cfg, grid, num)
        with pytest.raises(ValueError, match=message):
            apply_boundary(state, num)


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

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        modes=st.integers(1, 6),
        dim=st.integers(1, 3),
        delta=st.sampled_from((-1, 0, 1)),
        pressure_const=st.sampled_from((0.0, 0.5)),
    )
    def test_mass_telescopes_on_random_data(self, seed, modes, dim, delta, pressure_const):
        grid = RadialGrid(n_cells=300, support_radius=1.0)
        cfg = ModelConfig(dim=dim, delta=delta, pressure_const=pressure_const)
        num = NumericsConfig(cfl=0.4, t_end=10.0)
        prof = build_initial_profile("random_smooth", {"modes": modes}, seed, grid, 2)
        state = FluidState(0.0, prof.rho0, prof.v0)
        peak = float(np.max(state.rho))
        floors = (solver.VACUUM_FLOOR_REL * peak, solver.POSITIVITY_REL_TOL * peak)
        mass0 = diagnostics.total_mass(state, grid, cfg)
        for _ in range(20):
            # cfl_dt sees only |V| + c, not the force, so near-rest data would
            # step far past stability: take speeds below 1 as 1
            dt = min(cfl_dt(state, cfg, num, grid), num.cfl * grid.cell_width)
            state = step(state, dt, cfg, grid, num, *floors)
        drift = abs(diagnostics.total_mass(state, grid, cfg) - mass0) / mass0
        assert drift <= 1e-12


class TestDetectSteepening:
    def test_quiescent(self, grid, num):
        state = FluidState(0.0, np.ones(128), np.zeros(128))
        gradient = diagnostics.max_velocity_gradient(state, grid)
        assert detect_steepening(gradient, grid, num) is None

    def test_linear_profile_slope(self, grid):
        num = NumericsConfig(steepening_threshold=2.9)
        state = FluidState(0.0, np.ones(128), 3.0 * grid.cell_centers)
        gradient = diagnostics.max_velocity_gradient(state, grid)
        hit = detect_steepening(gradient, grid, num)
        assert hit is not None
        assert hit.slope == pytest.approx(3.0)
        below = NumericsConfig(steepening_threshold=3.1)
        assert detect_steepening(gradient, grid, below) is None


def test_detections_failures_and_reaching_t_end_partition_the_endings():
    parts = (solver.DETECTIONS, solver.FAILURES, {Termination.REACHED_T_END})
    assert sum(map(len, parts)) == len(Termination)
    assert set().union(*parts) == set(Termination)


class TestRun:
    def test_trivial_data_reaches_horizon(self):
        # a fluid at rest
        cfg = ModelConfig()
        num = NumericsConfig(t_end=0.5)
        rho0 = np.ones(64)
        rho0[-2:] = 0.0
        res = run(rho0, np.zeros(64), cfg, num)
        assert res.trajectory.termination is Termination.REACHED_T_END
        assert res.trajectory.t_detect is None
        assert res.trajectory.t_final == pytest.approx(0.5)
        assert not res.report.scope.applicable

    def test_rejects_inadmissible_data(self):
        cfg = ModelConfig()
        num = NumericsConfig()
        bad_rho = np.full(64, -1.0)
        bad_rho[-2:] = 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            run(bad_rho, np.zeros(64), cfg, num)
        with pytest.raises(ValueError, match="margin"):
            run(np.ones(64), np.ones(64), cfg, num)
        with pytest.raises(ValueError, match="positive in some cell"):
            run(np.zeros(64), np.zeros(64), cfg, num)

    def test_pressureless_transport_matches_oracle(self):
        grid = RadialGrid(n_cells=256, support_radius=1.0)
        cfg = ModelConfig(dim=3, delta=0, pressure_const=0.0)
        num = NumericsConfig(cfl=0.4, t_end=0.3, steepening_threshold=1e9)
        prof = build_initial_profile("polynomial_bump", {}, 0, grid, 2)
        res = run(prof.rho0, prof.v0, cfg, num, snapshot_times=(0.3,))
        (final,) = res.trajectory.snapshots
        assert final.time == res.trajectory.t_final
        expected = oracle_velocity(prof.v_of_r, 0.3, grid, prof.dv_dr)
        err = np.sum(np.abs(final.vel - expected) * grid.cell_centers) * grid.cell_width
        assert err < 2e-4

    def test_two_runs_of_one_config_compare_equal(self):
        # the records compare their arrays bit for bit, and the trajectory
        # ignores diagnostics_s; one flipped bit makes them unequal
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        cfg = ModelConfig(delta=1, pressure_const=0.5, gamma=2.0)
        num = NumericsConfig(t_end=0.1, output_stride=3)
        prof = build_initial_profile("polynomial_bump", {}, 0, grid, 2)
        first, second = (run(prof.rho0, prof.v0, cfg, num, snapshot_times=(0.05,))
                         for _ in range(2))
        assert first == second and not first != second
        assert first.trajectory == replace(second.trajectory, diagnostics_s=-1.0)
        (state,) = first.trajectory.snapshots
        flipped = state.rho.copy()
        flipped.view(np.uint64)[10] ^= 1
        changed = replace(first.trajectory, snapshots=(replace(state, rho=flipped),))
        assert changed != second.trajectory and first != first._replace(trajectory=changed)
        h = first.series.h_values.copy()
        h.view(np.uint64)[-1] ^= 1 << 63
        assert replace(first.series, h_values=h) != second.series

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
        assert res.trajectory.t_final == pytest.approx(0.4)
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
        assert "isothermal_eos_outside_bound_scope" in res.report.scope.flags

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
    # inf and 1e300 are the same float distance from every row, so each
    # takes the first; and requests asked for more than once
    @example([math.inf, 0.1])
    @example([1e300, -math.inf])
    @example([0.1, 0.1, 0.05, 0.1])
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

    @pytest.mark.parametrize(
        "pressure_const, gamma",
        [(0.0, 1.4), (1.0, 1.4), (1.0, 1.0)],
        ids=["0.0", "1.0", "1.0-isothermal"],
    )
    def test_each_value_computed_once_per_step(self, monkeypatch, pressure_const, gamma):
        calls = Counter()
        for module, name in ((solver, "step"), (solver, "max_wave_speed"),
                             (solver, "rhs_eval"), (_kernel, "power"),
                             (solver, "sound_speed"), (model, "sound_speed"),
                             (solver, "radial_field"), (poisson, "radial_field"),
                             (diagnostics, "max_velocity_gradient")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                if _name == "power":
                    calls["raised"] += args[0].size
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        # every C entry a plan method or max_slope calls, through load(), and
        # apart from them the stage a plan builds
        lib = _kernel.load()

        class CountedLibrary:
            def __getattr__(self, name):
                def entry(*args, _fn=getattr(lib, name)):
                    calls["stage" if name == "stage" else "C"] += 1
                    return _fn(*args)

                return entry

        monkeypatch.setattr(_kernel, "load", CountedLibrary)
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        cfg = ModelConfig(dim=3, delta=1, pressure_const=pressure_const, gamma=gamma)
        # t_end 0.2 gives the dust case 5 steps, not 1
        num = NumericsConfig(t_end=0.2, output_stride=1, steepening_threshold=1e9)
        prof = build_initial_profile("gaussian_truncated", {}, 0, grid, 2)
        rows = run(prof.rho0, prof.v0, cfg, num).series.times.size
        steps = calls["step"]
        assert steps > 0 and calls["rhs_eval"] == 2 * steps
        assert calls["max_wave_speed"] == steps
        # the initial row plus one gradient per step, shared by detection and rows
        assert calls["max_velocity_gradient"] == steps + 1
        # the numpy EOS and force field are oracles: the run path is compiled
        assert calls["sound_speed"] == calls["radial_field"] == 0
        # numpy's ** raises the n cells for the wave speed, which the first
        # stage reuses, and for the second stage; and the n cells of each
        # diagnostics row. None without pressure, and none for gamma = 1,
        # whose powers are 1 and max(rho, 0)
        assert rows == steps + 1
        if pressure_const > 0 and gamma > 1:
            n = grid.n_cells
            assert calls["raised"] == 2 * n * steps + n * rows
            assert calls["power"] == 2 * steps + rows
        else:
            assert calls["power"] == calls["raised"] == 0
        # a step calls two stages of one call each and two Runge-Kutta
        # stages; the second finds the new state's slope and, unless its
        # cells must be raised first (pressure and gamma > 1), its wave
        # speed, so only the initial state's wave speed and slope are calls
        # of their own there. A row calls its sums
        speeds = steps if pressure_const > 0 and gamma > 1 else 1
        assert calls["C"] == 4 * steps + speeds + 1 + rows
        # the run's one plan builds its stage once, never per step
        assert calls["stage"] == 1


def _digest(result) -> tuple:
    """The bytes of a run's series, how it ended and when it detected."""
    series = result.series
    columns = (series.times, series.h_values, series.mass_values, series.max_gradients)
    data = b"".join(np.ascontiguousarray(c).tobytes() for c in columns)
    return hashlib.sha256(data).hexdigest(), result.trajectory.termination, result.trajectory.t_detect


class TestThreads:
    """A plan's scratch is written by every C call, and a C call releases
    the GIL, so each thread plans for itself."""

    @staticmethod
    def _in_threads(count: int, target) -> None:
        """Run ``target(k)`` in ``count`` threads at once, switching often."""
        threads = [threading.Thread(target=target, args=(k,)) for k in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

    def test_each_thread_gets_its_own_plan(self):
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        cfg = ModelConfig(pressure_const=1.0)
        all_alive = threading.Barrier(2, timeout=60)
        plans = {}

        def ask(k):
            first = _kernel.plan(grid, cfg)
            all_alive.wait()
            plans[k] = (first, _kernel.plan(grid, cfg))

        self._in_threads(2, ask)
        (a, a_again), (b, b_again) = plans[0], plans[1]
        assert a is a_again and b is b_again
        assert a is not b

    def test_threads_reproduce_the_sequential_run(self):
        # gauss_eulerpoisson_2048's model at 256 cells, in more threads than
        # cores: with one plan shared, the threads read each other's
        # pressure scratch and end elsewhere
        grid = RadialGrid(n_cells=256, support_radius=1.0)
        cfg = ModelConfig(dim=3, delta=1, pressure_const=1.0, gamma=1.4)
        num = NumericsConfig(t_end=2.0, steepening_threshold=50.0, output_stride=10)
        prof = build_initial_profile("gaussian_truncated", {"width": 0.25}, 0, grid, 2)
        sequential = _digest(run(prof.rho0, prof.v0, cfg, num))
        start = threading.Barrier(4, timeout=60)
        threaded = [None] * 4

        def go(k):
            start.wait()
            threaded[k] = _digest(run(prof.rho0, prof.v0, cfg, num))

        self._in_threads(4, go)
        assert sequential[1] is Termination.STEEPENING_DETECTED
        assert threaded == [sequential] * 4
