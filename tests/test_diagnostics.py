import itertools

import numpy as np
import pytest

from radialblowup import FluidState, ModelConfig, RadialGrid, blowup_functional
from radialblowup.diagnostics import (
    DiagnosticsSeries,
    Verdict,
    blowup_time_bound,
    bound_scope,
    build_report,
    cauchy_schwarz_gap,
    energy_condition,
    envelope_column,
    lower_envelope,
    riccati_residuals,
    total_mass,
)


@pytest.fixture
def grid():
    return RadialGrid(n_cells=512, support_radius=1.0)


def state_of(grid, rho, vel, t=0.0):
    return FluidState(time=t, rho=np.asarray(rho, float), vel=np.asarray(vel, float))


class TestMomentumFunctional:
    def test_zero_velocity(self, grid):
        s = state_of(grid, np.zeros(512), np.zeros(512))
        assert blowup_functional(s, grid) == 0.0

    def test_polynomial_bump(self, grid):
        r = grid.cell_centers
        s = state_of(grid, np.zeros(512), r * (1.0 - r))
        assert blowup_functional(s, grid) == pytest.approx(1.0 / 12.0, rel=1e-5)

    def test_unit_velocity(self, grid):
        # int_0^R r dr = R**2/2, exact under the midpoint rule
        s = state_of(grid, np.zeros(512), np.ones(512))
        assert blowup_functional(s, grid) == pytest.approx(0.5, abs=1e-14)


class TestBlowupBound:
    def test_formula(self):
        assert blowup_time_bound(1.0 / 12.0, 1.0) == pytest.approx(6.0)
        assert blowup_time_bound(1.0, 2.0) == pytest.approx(4.0)

    def test_inapplicable(self):
        with pytest.raises(ValueError):
            blowup_time_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            blowup_time_bound(-0.5, 1.0)


class TestEnvelope:
    def test_initial_value(self):
        assert lower_envelope(0.0, 0.25, 1.0) == pytest.approx(0.25)

    def test_halfway_value(self):
        # R=1, H0=1/12, t=3: -(1/12)/(1/2 - 1) = 1/6
        assert lower_envelope(3.0, 1.0 / 12.0, 1.0) == pytest.approx(1.0 / 6.0)

    def test_monotone_divergence(self):
        h0, radius = 1.0 / 12.0, 1.0
        t_bound = blowup_time_bound(h0, radius)
        ts = t_bound * (1.0 - 10.0 ** -np.arange(1, 13, dtype=float))
        values = lower_envelope(ts, h0, radius)
        assert np.all(np.diff(values) > 0)
        assert values[-1] > 1e10 * h0

    def test_domain_error_past_bound(self):
        with pytest.raises(ValueError):
            lower_envelope(6.0, 1.0 / 12.0, 1.0)

    def test_scalar_matches_array_to_the_bit(self):
        h0, radius = 1.0 / 12.0, 0.9
        ts = np.linspace(0.0, 0.99 * blowup_time_bound(h0, radius), 64)
        scalars = [lower_envelope(float(t), h0, radius) for t in ts]
        assert np.array(scalars).tobytes() == lower_envelope(ts, h0, radius).tobytes()

    def test_domain_error_before_zero(self):
        with pytest.raises(ValueError):
            lower_envelope(-1e-9, 1.0 / 12.0, 1.0)
        with pytest.raises(ValueError):
            lower_envelope(np.array([0.0, -1e-9]), 1.0 / 12.0, 1.0)


class TestRiccatiResiduals:
    def test_trivial_series(self):
        times = np.linspace(0.0, 1.0, 11)
        res = riccati_residuals(np.zeros(11), times, 1.0)
        np.testing.assert_array_equal(res, np.zeros(10))

    def test_envelope_is_equality_case_second_order(self):
        # the envelope solves dH/dt = 2 H**2 / R**3 exactly, so the residual
        # vanishes at second order in the sampling interval
        h0, radius = 1.0 / 12.0, 1.0
        worst = {}
        for dt in (0.01, 0.005):
            times = np.arange(0.0, 3.0 + dt / 2, dt)
            h = lower_envelope(times, h0, radius)
            worst[dt] = np.max(np.abs(riccati_residuals(h, times, radius)))
        assert worst[0.01] / worst[0.005] == pytest.approx(4.0, rel=0.2)

    def test_decreasing_positive_series_flags_negative(self):
        times = np.linspace(0.0, 1.0, 6)
        h = np.linspace(1.0, 0.5, 6)
        assert np.all(riccati_residuals(h, times, 1.0) < 0.0)

    def test_rejects_non_monotone_times(self):
        with pytest.raises(ValueError):
            riccati_residuals(np.ones(3), np.asarray([0.0, 0.5, 0.5]), 1.0)


class TestCauchySchwarzGap:
    def test_zero_velocity(self, grid):
        s = state_of(grid, np.zeros(512), np.zeros(512))
        assert cauchy_schwarz_gap(s, grid) == 0.0

    def test_constant_velocity_is_equality_case(self, grid):
        c = 1.7
        s = state_of(grid, np.zeros(512), np.full(512, c))
        assert abs(cauchy_schwarz_gap(s, grid)) <= 1e-10 * c**2

    def test_bump_gap_closed_form(self, grid):
        # int V^2 2r dr = 1/30, 4H^2/R^2 = 1/36, gap = 1/180
        r = grid.cell_centers
        s = state_of(grid, np.zeros(512), r * (1.0 - r))
        assert cauchy_schwarz_gap(s, grid) == pytest.approx(1.0 / 180.0, rel=1e-4)
        assert cauchy_schwarz_gap(s, grid) > 0.0

    def test_nonnegative_for_random_velocity(self, grid):
        rng = np.random.default_rng(17)
        for _ in range(30):
            s = state_of(grid, np.zeros(512), rng.normal(0.0, 2.0, 512))
            assert cauchy_schwarz_gap(s, grid) >= -1e-13


class TestMassAndEnergy:
    def test_vacuum_mass(self, grid):
        s = state_of(grid, np.zeros(512), np.zeros(512))
        assert total_mass(s, grid, ModelConfig(dim=3)) == 0.0

    def test_uniform_ball_mass(self, grid):
        s = state_of(grid, np.full(512, 0.9), np.zeros(512))
        expected = 4.0 * np.pi * 0.9 / 3.0
        assert total_mass(s, grid, ModelConfig(dim=3)) == pytest.approx(expected, rel=1e-5)

    def test_unit_line_mass(self, grid):
        # alpha(1) = 1: the mass of a unit-density column on [0,1] is 1
        s = state_of(grid, np.ones(512), np.zeros(512))
        assert total_mass(s, grid, ModelConfig(dim=1)) == pytest.approx(1.0, rel=1e-12)

    def test_energy_condition_vacuum(self, grid):
        s = state_of(grid, np.zeros(512), np.zeros(512))
        cond = energy_condition(s, grid, ModelConfig(dim=3))
        assert cond == 0.0

    def test_energy_condition_static_dust(self, grid):
        s = state_of(grid, np.ones(512), np.zeros(512))
        cond = energy_condition(s, grid, ModelConfig(dim=3, pressure_const=0.0))
        assert cond == 0.0

    def test_energy_condition_generic(self, grid):
        r = grid.cell_centers
        s = state_of(grid, 1.0 - r**2, r * (1.0 - r))
        cond = energy_condition(s, grid, ModelConfig(dim=3, pressure_const=0.1, gamma=1.4))
        assert np.isfinite(cond) and cond > 0.0


def synthetic_series(times, h, radius=1.0):
    n = times.size
    res = np.append(riccati_residuals(h, times, radius), np.nan) if n > 1 else np.full(n, np.nan)
    return DiagnosticsSeries(
        times=times,
        h_values=h,
        mass_values=np.ones(n),
        energy_values=np.zeros(n),
        riccati_residuals=res,
        envelope_values=np.full(n, np.nan),
        cauchy_gaps=np.zeros(n),
        max_gradients=np.zeros(n),
    )


class TestVerdicts:
    h0 = 1.0 / 12.0  # bound time 6.0

    def envelope_series(self, t_max, factor=1.0):
        times = np.linspace(0.0, t_max, 40)
        h = factor * lower_envelope(times, self.h0, 1.0)
        return synthetic_series(times, h)

    def test_confirmed_on_detection_before_bound(self):
        series = self.envelope_series(1.0, factor=1.01)
        report = build_report(
            series, bound_scope(self.h0, ModelConfig()), n_cells=1024,
            t_final=1.0, t_detect=1.0,
        )
        assert report.verdict is Verdict.CONFIRMED
        assert report.scope.t_bound == pytest.approx(6.0)

    def test_pending_when_horizon_short(self):
        series = self.envelope_series(1.0, factor=1.01)
        report = build_report(
            series, bound_scope(self.h0, ModelConfig()), n_cells=1024,
            t_final=1.0, t_detect=None,
        )
        assert report.verdict is Verdict.PENDING

    def test_violated_when_bound_passed_without_detection(self):
        times = np.linspace(0.0, 6.5, 30)
        h = np.full(30, self.h0)  # H froze: envelope overtakes it
        report = build_report(
            synthetic_series(times, h), bound_scope(self.h0, ModelConfig()), n_cells=1024,
            t_final=6.5, t_detect=None,
        )
        assert report.verdict is Verdict.VIOLATED

    def test_violated_on_envelope_break(self):
        # decreasing positive H drops below the envelope long before the bound
        times = np.linspace(0.0, 2.0, 50)
        h = np.linspace(self.h0, 0.5 * self.h0, 50)
        report = build_report(
            synthetic_series(times, h), bound_scope(self.h0, ModelConfig()), n_cells=1024,
            t_final=2.0, t_detect=None,
        )
        assert report.verdict is Verdict.VIOLATED
        assert report.envelope_ok is False

    @pytest.mark.parametrize("detect", ["none", "at_edge", "after_edge"])
    def test_the_check_leaves_out_exactly_the_nan_envelope_samples(self, detect):
        # samples one ulp either side of T * (1 - 1e-12): the envelope column is
        # defined below it, and build_report checks H there and nowhere else
        edge = blowup_time_bound(self.h0, 1.0) * (1.0 - 1e-12)
        below, above = np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)
        times = np.array([0.0, 3.0, below, edge, above])
        envelope = envelope_column(times, bound_scope(self.h0, ModelConfig()))
        assert np.isnan(envelope).tolist() == [False, False, False, True, True]
        t_detect = {"none": None, "at_edge": edge, "after_edge": above}[detect]
        checked = []
        for k in range(times.size):
            # H on the envelope where it is defined, and below it at sample k
            h = np.where(np.isnan(envelope), 0.0, envelope)
            h[k] = -1.0
            report = build_report(
                synthetic_series(times, h), bound_scope(self.h0, ModelConfig()), n_cells=1024,
                t_final=times[-1], t_detect=t_detect,
            )
            checked.append(report.envelope_ok is False)
        assert checked == (~np.isnan(envelope)).tolist()

    def test_not_applicable_cases(self):
        series = self.envelope_series(1.0, factor=1.01)
        for cfg, h0 in (
            (ModelConfig(delta=-1), self.h0),          # attractive force
            (ModelConfig(), -1.0),                     # wrong-signed momentum
        ):
            report = build_report(
                series, bound_scope(h0, cfg), n_cells=1024,
                t_final=1.0, t_detect=None,
            )
            assert report.verdict is Verdict.NOT_APPLICABLE

    def test_violated_only_under_invariant_conditions(self):
        # the alarm requires applicability; the same data with delta=-1 stays silent
        times = np.linspace(0.0, 6.5, 30)
        h = np.full(30, self.h0)
        report = build_report(
            synthetic_series(times, h), bound_scope(self.h0, ModelConfig(delta=-1)),
            n_cells=1024, t_final=6.5, t_detect=None,
        )
        assert report.verdict is Verdict.NOT_APPLICABLE
        assert "attractive_force_outside_bound_scope" in report.scope.flags



def readme_verdict(applicable, envelope_ok, t_detect, t_final, t_bound):
    """The verdict table of the README, row by row."""
    if not applicable:
        return Verdict.NOT_APPLICABLE
    if not envelope_ok:
        return Verdict.VIOLATED
    if t_detect is not None:
        return Verdict.CONFIRMED if t_detect <= t_bound else Verdict.VIOLATED
    return Verdict.VIOLATED if t_final >= t_bound else Verdict.PENDING


def test_verdict_and_scope_table_is_exhaustive():
    # delta x (K, gamma) x sign of H0 x detection x horizon x envelope
    radius = 1.0
    eos_cases = ((0.0, 1.4), (0.1, 1.4), (0.1, 2.0))
    cases = itertools.product(
        (-1, 0, 1), eos_cases, (0.25, -0.25), ("none", "at_bound", "after_bound"),
        ("before_bound", "at_bound"), (True, False),
    )
    seen = set()
    for delta, (k, gamma), h0, detect, horizon, envelope_holds in cases:
        cfg = ModelConfig(delta=delta, pressure_const=k, gamma=gamma)
        t_ref = radius**3 / (2.0 * abs(h0))  # the bound time when h0 > 0
        t_detect = {"none": None, "at_bound": t_ref, "after_bound": 1.5 * t_ref}[detect]
        t_final = t_ref if horizon == "at_bound" else 0.5 * t_ref
        times = np.array([0.0, 0.25 * t_ref])
        # H on the envelope, or half of it from t = 0 on (before any detection)
        h = np.full(2, h0) if h0 < 0 else lower_envelope(times, h0, radius)
        h = h if envelope_holds else 0.5 * h
        report = build_report(
            synthetic_series(times, h, radius), bound_scope(h0, cfg), n_cells=1024,
            t_final=t_final, t_detect=t_detect,
        )

        expected_flags = tuple(
            flag for flag, failed in (
                ("attractive_force_outside_bound_scope", delta < 0),
                ("h0_not_positive", h0 <= 0),
            ) if failed
        )
        case = (delta, k, gamma, h0, detect, horizon, envelope_holds)
        assert (report.scope.h0, report.scope.radius) == (h0, radius), case
        assert report.scope.flags == expected_flags, case
        assert report.scope.applicable == (expected_flags == ()), case
        applicable = report.scope.applicable
        assert report.scope.t_bound == (t_ref if h0 > 0 else None), case
        assert report.envelope_ok == (envelope_holds if applicable else None), case
        expected = readme_verdict(
            applicable, envelope_holds, t_detect, t_final, report.scope.t_bound
        )
        assert report.verdict is expected, case
        seen.add(report.verdict)
    assert seen == set(Verdict)


def test_series_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length"):
        DiagnosticsSeries(
            times=np.zeros(3),
            h_values=np.zeros(3),
            mass_values=np.zeros(2),
            energy_values=np.zeros(3),
            riccati_residuals=np.zeros(3),
            envelope_values=np.zeros(3),
            cauchy_gaps=np.zeros(3),
            max_gradients=np.zeros(3),
        )
