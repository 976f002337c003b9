"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured values and its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
The heavyweight runs execute once per session through the CLI layer and are
shared across criteria.
"""

import time

import numpy as np
import pytest

from _characteristics import boundary_energy, emden_boundary_ode, oracle_velocity
from _helpers import read_series, read_snapshot, read_summary
from radialblowup import FluidState, ModelConfig, RadialGrid, first_crossing_time, radial_field
from radialblowup.diagnostics import (
    DiagnosticsSeries,
    Verdict,
    bound_scope,
    build_report,
    cauchy_schwarz_gap,
    riccati_residuals,
)
from radialblowup.poisson import alpha
from radialblowup.cli import execute, exit_status, parse_config

RADIUS = 1.0
BUMP_V = lambda r: np.asarray(r) * (1.0 - np.asarray(r))
BUMP_DV = lambda r: 1.0 - 2.0 * np.asarray(r)


def base_config(n_cells, t_end, *, delta=0, pressure_const=0.0, threshold=20.0,
                cfl=0.4, dt_floor=1e-10, snapshot=None):
    snap = f"snapshot_times = {snapshot}\n" if snapshot is not None else ""
    return parse_config(
        f"""
[model]
dim = 3
delta = {delta}
pressure_const = {pressure_const}
gamma = 1.4
support_radius = 1

[numerics]
n_cells = {n_cells}
cfl = {cfl}
t_end = {t_end}
dt_floor = {dt_floor}
steepening_threshold = {threshold}
output_stride = 10
support_margin_cells = 2
{snap}
[initial]
family = polynomial_bump
velocity_amplitude = 1
density_amplitude = 1
"""
    )


def run_via_cli(config, out_dir):
    t0 = time.perf_counter()
    code = execute(config, output_dir=str(out_dir))
    elapsed = time.perf_counter() - t0
    run_dir = out_dir / "run-0000"
    return {
        "exit": code,
        "elapsed": elapsed,
        "summary": read_summary(run_dir),
        "series": read_series(run_dir),
        "dir": run_dir,
    }


@pytest.fixture(scope="session")
def acc_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def a1(acc_root):
    return run_via_cli(base_config(1024, 2.0), acc_root / "a1")


@pytest.fixture(scope="session")
def a2(acc_root):
    out = {}
    for delta in (0, 1):
        out[delta] = run_via_cli(
            base_config(1024, 2.0, delta=delta, pressure_const=0.1),
            acc_root / f"a2-delta{delta}",
        )
    return out


@pytest.fixture(scope="session")
def refine(acc_root):
    out = {}
    for n in (128, 256, 512, 1024):
        out[n] = run_via_cli(
            base_config(n, 0.5, threshold=1e9, snapshot=0.5),
            acc_root / f"refine-{n}",
        )
    return out


@pytest.fixture(scope="session")
def blinded(acc_root):
    # detector disabled and horizon past the bound: the alarm must ring
    return run_via_cli(
        base_config(256, 6.2, threshold=1e9, cfl=0.3, dt_floor=1e-14),
        acc_root / "blinded",
    )


def all_outcomes(a1, a2, refine, blinded):
    return [a1, a2[0], a2[1], *refine.values(), blinded]


def report_line(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_a1_pressureless_bound_confirmation(a1):
    t_star = first_crossing_time(BUMP_V, RADIUS, BUMP_DV)
    t_detect = float(a1["summary"]["t_detect"])
    t_bound = float(a1["summary"]["t_bound"])
    verdict = a1["summary"]["verdict"]
    ok = (
        a1["exit"] == 0
        and t_star == pytest.approx(1.0, rel=1e-12)
        and 0.9 <= t_detect <= 1.1
        and t_bound == pytest.approx(6.0, rel=1e-3)
        and verdict == Verdict.CONFIRMED.value
        and t_detect <= t_bound
        and a1["elapsed"] < 10.0
    )
    report_line(
        "A1",
        ok,
        f"oracle t*={t_star:.6f}, t_detect={t_detect:.4f} in [0.9, 1.1], "
        f"T_bound={t_bound:.4f}~6, verdict={verdict}, {a1['elapsed']:.2f}s < 10s",
    )
    assert ok


def test_a2_bound_confirmation_with_pressure(a2):
    details, ok = [], True
    for delta, outcome in a2.items():
        verdict = outcome["summary"]["verdict"]
        t_end = float(outcome["summary"]["t_end"])
        t_bound = float(outcome["summary"]["t_bound"])
        good = outcome["exit"] == 0 and outcome["elapsed"] < 30.0
        if verdict == Verdict.PENDING.value:
            good &= t_end < t_bound
        else:
            good &= verdict == Verdict.CONFIRMED.value
        ok &= good
        details.append(f"delta={delta}: verdict={verdict}, {outcome['elapsed']:.2f}s")
    report_line("A2", ok, "; ".join(details) + " (violated must not occur)")
    assert ok


def test_a3_envelope_tracking(a1, a2):
    ok = True
    details = []
    for tag, outcome in (("a1", a1), ("a2d0", a2[0]), ("a2d1", a2[1])):
        s = outcome["series"]
        summary = outcome["summary"]
        t_detect = float(summary["t_detect"]) if summary["t_detect"] != "n/a" else np.inf
        pre = s["t"] < t_detect
        env = s["envelope"][pre]
        h = s["H"][pre]
        assert not np.any(np.isnan(env))
        worst = np.min(h - env * (1.0 - 1e-3))
        ok &= bool(np.all(h >= env * (1.0 - 1e-3)))
        # the tracked momentum must also be nondecreasing while smooth
        ok &= bool(np.all(np.diff(h) >= -1e-6 * np.max(np.abs(h))))
        details.append(f"{tag}: {pre.sum()} strides, worst slack {worst:.2e}")
    report_line("A3", ok, "; ".join(details) + " (tol 1e-3 * envelope)")
    assert ok


def test_a4_riccati_residual_refinement(refine):
    h0_exact = 1.0 / 12.0  # closed-form momentum integral of the profile
    tols, mins = {}, {}
    for n in (256, 512):
        s = refine[n]["series"]
        dr = RADIUS / n
        tols[n] = 0.5 * h0_exact * dr / RADIUS
        smooth = s["max_abs_dVdr"] <= 1.5 * s["max_abs_dVdr"][0]
        pair = smooth[:-1] & smooth[1:]
        mins[n] = float(np.min(s["riccati_residual"][:-1][pair]))
    ok = (
        mins[256] >= -tols[256]
        and mins[512] >= -tols[512]
        and tols[256] >= 2.0 * tols[512] * (1.0 - 1e-12)
    )
    report_line(
        "A4",
        ok,
        f"smooth-phase min residual {mins[256]:.2e} >= -{tols[256]:.2e} (n=256), "
        f"{mins[512]:.2e} >= -{tols[512]:.2e} (n=512); tol halves on refinement",
    )
    assert ok


def test_a5_mass_conservation(a1, a2, refine, blinded):
    worst = 0.0
    for outcome in all_outcomes(a1, a2, refine, blinded):
        mass = outcome["series"]["mass"]
        drift = np.max(np.abs(mass - mass[0])) / mass[0]
        worst = max(worst, float(drift))
        assert float(outcome["summary"]["mass_drift_rel"]) <= 1e-10
    ok = worst <= 1e-10
    report_line("A5", ok, f"worst relative mass drift {worst:.2e} <= 1e-10")
    assert ok


def test_a6_oracle_convergence(refine):
    errs = {}
    for n, outcome in refine.items():
        grid = RadialGrid(n_cells=n, support_radius=RADIUS)
        snap = read_snapshot(outcome["dir"] / "snapshot-0.5.tsv")
        expected = oracle_velocity(BUMP_V, 0.5, grid, BUMP_DV)
        errs[n] = float(
            np.sum(np.abs(snap["V"] - expected) * grid.cell_centers) * grid.cell_width
        )
    ns = sorted(errs)
    slope = -np.polyfit(np.log2(ns), np.log2([errs[n] for n in ns]), 1)[0]
    ok = slope >= 0.8
    report_line(
        "A6",
        ok,
        "L1(r dr) errors "
        + ", ".join(f"n={n}: {errs[n]:.2e}" for n in ns)
        + f"; observed order {slope:.2f} >= 0.8",
    )
    assert ok


def test_a7_cauchy_schwarz_chain(a1, a2, refine, blinded):
    worst = np.inf
    ok = True
    count = 0
    for outcome in all_outcomes(a1, a2, refine, blinded):
        s = outcome["series"]
        quad = s["cauchy_gap"] + 4.0 * s["H"] ** 2 / RADIUS**2  # int V^2 2r dr
        slack = s["cauchy_gap"] + 1e-8 * (1.0 + quad)
        ok &= bool(np.all(slack >= 0.0))
        worst = min(worst, float(np.min(slack)))
        count += s["t"].size

    grid = RadialGrid(n_cells=1024, support_radius=RADIUS)
    c = 1.7
    const_state = FluidState(0.0, np.zeros(1024), np.full(1024, c))
    gap = cauchy_schwarz_gap(const_state, grid)
    equality_ok = abs(gap) <= 1e-10 * c**2 * RADIUS**2
    ok &= equality_ok
    report_line(
        "A7",
        ok,
        f"{count} diagnostics rows, worst slack {worst:.2e} >= 0; "
        f"constant-velocity equality gap {gap:.2e} <= {1e-10 * c**2:.1e}",
    )
    assert ok


def test_a8_radial_field_closed_forms():
    worst_uniform = 0.0
    for dim in (1, 2, 3):
        grid = RadialGrid(n_cells=1024, support_radius=RADIUS)
        rho = np.full(1024, 0.7)
        prof = radial_field(rho, grid, ModelConfig(dim=dim, delta=1))
        exact = alpha(dim) * 0.7 * grid.cell_centers / dim
        worst_uniform = max(
            worst_uniform, float(np.max(np.abs(prof.phi_r - exact) / np.abs(exact)))
        )

    errs = {}
    for n in (256, 512, 1024):
        grid = RadialGrid(n_cells=n, support_radius=RADIUS)
        rho = grid.cell_centers**2
        prof = radial_field(rho, grid, ModelConfig(dim=3, delta=1))
        exact = 4.0 * np.pi * grid.cell_centers**3 / 5.0
        errs[n] = float(np.max(np.abs(prof.phi_r - exact)) / np.max(np.abs(exact)))
    orders = [np.log2(errs[256] / errs[512]), np.log2(errs[512] / errs[1024])]
    ok = worst_uniform <= 1e-3 and min(orders) >= 1.9
    report_line(
        "A8",
        ok,
        f"uniform closed form max rel err {worst_uniform:.2e} <= 1e-3 (dims 1-3); "
        f"refinement orders {orders[0]:.2f}, {orders[1]:.2f} >= 1.9",
    )
    assert ok


def test_a9_boundary_ode_energy():
    cfg = ModelConfig(dim=3, delta=1)
    traj = emden_boundary_ode(1.0, 1.0, cfg, (0.0, 1.0), 1e-4)
    energy = boundary_energy(traj.radius, traj.rate, 1.0, cfg)
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))

    still = emden_boundary_ode(1.0, 1.0, ModelConfig(dim=3, delta=0), (0.0, 1.0), 1e-3)
    constant = bool(np.all(still.radius == 1.0))
    ok = drift <= 1e-8 and constant
    report_line(
        "A9",
        ok,
        f"repulsive energy drift {drift:.2e} <= 1e-8 at dt=1e-4; "
        f"zero-force radius exactly constant: {constant}",
    )
    assert ok


def test_a10_falsification_wiring(blinded):
    # (i) an injected decreasing positive momentum series must trip the alarm
    h0 = 1.0 / 12.0
    times = np.linspace(0.0, 2.0, 50)
    h = np.linspace(h0, 0.4 * h0, 50)
    series = DiagnosticsSeries(
        times=times,
        h_values=h,
        mass_values=np.ones(50),
        energy_values=np.zeros(50),
        riccati_residuals=np.append(riccati_residuals(h, times, RADIUS), np.nan),
        envelope_values=np.full(50, np.nan),
        cauchy_gaps=np.zeros(50),
        max_gradients=np.zeros(50),
    )
    report = build_report(
        series, bound_scope(h0, ModelConfig()), n_cells=1024,
        t_final=2.0, t_detect=None,
    )
    injected_ok = report.verdict is Verdict.VIOLATED
    status_ok = exit_status([{"verdict": report.verdict.value}]) == 2

    # (ii) end to end: a blinded detector past the bound time must exit 2
    e2e_ok = (
        blinded["exit"] == 2
        and blinded["summary"]["verdict"] == Verdict.VIOLATED.value
    )
    ok = injected_ok and status_ok and e2e_ok
    report_line(
        "A10",
        ok,
        f"injected decreasing-H verdict={report.verdict.value}, exit={exit_status([{'verdict': report.verdict.value}])}; "
        f"blinded-detector run exit={blinded['exit']} verdict={blinded['summary']['verdict']}",
    )
    assert ok
