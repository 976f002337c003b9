"""Per-layer numbers: microbenchmarks on fixed states and metrics from spans.

The layers are the package modules: solver, model, poisson, diagnostics,
profiles and cli. Span names written by ``tracer.py`` are
"<layer>.<function>"; a span's self time is its duration minus the
durations of its child spans in the same process.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

MICRO_SIZES = (256, 1024, 4096, 16384)
DIAG_SIZES = (256, 4096)
MICRO_REPEATS = 5
# a timed loop runs at least this long, so timer resolution does not matter
MICRO_LOOP_S = 0.02

def _model_configs(rb):
    """The two rhs configurations: dust (delta=0, K=0) and eulerpoisson."""
    return {
        "dust": rb.ModelConfig(dim=3, delta=0, pressure_const=0.0, gamma=1.4),
        "eulerpoisson": rb.ModelConfig(dim=3, delta=1, pressure_const=1.0, gamma=1.4),
    }


def _state(rb, variant: str, n: int, amplitude: float):
    """Initial state of the workload that exercises each configuration."""
    grid = rb.RadialGrid(n_cells=n, support_radius=1.0)
    family = "polynomial_bump" if variant == "dust" else "gaussian_truncated"
    profile = rb.build_initial_profile(
        family, {"velocity_amplitude": amplitude}, 0, grid, 2
    )
    return grid, rb.FluidState(time=0.0, rho=profile.rho0, vel=profile.v0)


def _seconds_per_call(fn) -> float:
    """Median over repeats of the mean time of one call in a timed loop."""
    for _ in range(3):
        fn()
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= MICRO_LOOP_S:
            break
        calls *= 2
    samples = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _peak_bytes(fn) -> int:
    """Peak bytes allocated during one call, counted by tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def microbenchmarks(amplitude: float) -> dict:
    """ns/cell of rhs_eval, step and radial_field, and us per diagnostics row."""
    import numpy as np
    import radialblowup as rb
    from radialblowup import diagnostics

    num = rb.NumericsConfig()
    out = {}
    for variant, cfg in _model_configs(rb).items():
        for n in MICRO_SIZES:
            grid, state = _state(rb, variant, n, amplitude)
            peak = float(np.max(state.rho))
            rho_floor = rb.solver.VACUUM_FLOOR_REL * peak
            pos_tol = rb.solver.POSITIVITY_REL_TOL * peak
            dt = rb.cfl_dt(state, cfg, num, grid)
            tag = f"n{n}.{variant}"

            def rhs():
                rb.rhs_eval(state, cfg, grid, num, rho_floor)

            def step():
                rb.step(state, dt, cfg, grid, num, rho_floor, pos_tol)

            out[f"solver.rhs_eval.ns_per_cell.{tag}"] = _seconds_per_call(rhs) * 1e9 / n
            out[f"solver.step.ns_per_cell.{tag}"] = _seconds_per_call(step) * 1e9 / n
            out[f"solver.rhs_eval.peak_bytes.{tag}"] = _peak_bytes(rhs)

    cfg = _model_configs(rb)["eulerpoisson"]
    for n in MICRO_SIZES:
        grid, state = _state(rb, "eulerpoisson", n, amplitude)
        out[f"poisson.radial_field.ns_per_cell.n{n}"] = (
            _seconds_per_call(lambda: rb.radial_field(state.rho, grid, cfg)) * 1e9 / n
        )

    cfg = _model_configs(rb)["dust"]
    for n in DIAG_SIZES:
        grid, state = _state(rb, "dust", n, amplitude)
        h0 = rb.blowup_functional(state, grid)

        def row():
            # the calls solver.run makes to record one diagnostics row
            diagnostics.blowup_functional(state, grid)
            diagnostics.total_mass(state, grid, cfg)
            diagnostics.energy_condition(state, grid, cfg)
            diagnostics.lower_envelope(state.time, h0, grid.support_radius)
            diagnostics.cauchy_schwarz_gap(state, grid)
            diagnostics.max_velocity_gradient(state, grid)

        out[f"diagnostics.row_us.n{n}"] = _seconds_per_call(row) * 1e6
    return out


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def span_metrics(spans: list[dict]) -> dict:
    """Counts and self times of one traced command, keyed by metric name."""
    child_ns: dict = defaultdict(int)
    steps_under: Counter = Counter()
    for s in spans:
        parent = s["parent"]
        if parent is None:
            continue
        parent = tuple(parent)
        if parent[0] == s["id"][0]:
            child_ns[parent] += s["end_ns"] - s["start_ns"]
        if s["name"] == "solver.step":
            steps_under[parent] += 1

    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    total_s: dict = defaultdict(float)
    for s in spans:
        duration = s["end_ns"] - s["start_ns"]
        calls[s["name"]] += 1
        total_s[s["name"]] += duration * 1e-9
        self_s[s["name"]] += (duration - child_ns[tuple(s["id"])]) * 1e-9

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    runs = [s for s in spans if s["name"] == "solver.run"]
    steps = calls["solver.step"]
    rhs_calls = calls["solver.rhs_eval"]
    return {
        "solver.steps": steps,
        "solver.cell_steps": sum(
            s["attrs"]["n_cells"] * steps_under[tuple(s["id"])] for s in runs
        ),
        "solver.rhs_eval.calls": rhs_calls,
        "solver.max_wave_speed.calls_per_step": calls["solver.max_wave_speed"] / steps,
        "solver.self_s": layer_self("solver"),
        "model.sound_speed.calls_per_rhs_eval": calls["model.sound_speed"] / rhs_calls,
        "model.sound_speed.self_s": self_s["model.sound_speed"],
        "poisson.self_s": layer_self("poisson"),
        "diagnostics.rows": calls["diagnostics.cauchy_schwarz_gap"],
        "diagnostics.self_s": layer_self("diagnostics"),
        # of the largest run; bytes are computed as states x (rho, V) x n x 8
        "solver.states_kept": max(s["attrs"]["states"] for s in runs),
        "solver.trajectory_bytes": max(
            s["attrs"]["states"] * 2 * s["attrs"]["n_cells"] * 8 for s in runs
        ),
        "profiles.build_s": total_s["profiles.build_initial_profile"],
        "cli.parse_s": total_s["cli.parse_config_file"],
        "cli.write_s": self_s["cli.run_single"],
    }
