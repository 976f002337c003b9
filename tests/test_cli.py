import os
import re
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import read_series, read_snapshot, read_summary
from radialblowup import ModelConfig, NumericsConfig, RadialGrid, build_initial_profile
from radialblowup import _kernel, cli, model, profiles, solver
from radialblowup.cli import (
    ConfigError,
    ExperimentConfig,
    ProfileConfig,
    config_hash,
    execute,
    exit_status,
    expand_sweep,
    main,
    parse_config,
    resolved_config_text,
    run_single,
)

MINIMAL = "[model]\ndim = 3\n"


@pytest.fixture
def inline_pool(monkeypatch):
    """A stand-in for the process pool that runs each task inline and starts
    no process; records each pool's size and the run_ids in submission order."""
    record = {"sizes": [], "run_ids": []}

    class InlinePool:
        def __init__(self, max_workers):
            record["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            record["run_ids"].append(task[0])
            future = Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    return record


SMALL_RUN = """
[model]
dim = 3
delta = 0
pressure_const = 0
gamma = 1.4
support_radius = 1

[numerics]
n_cells = 64
t_end = 0.2
steepening_threshold = 1e9
output_stride = 5
snapshot_times = 0.1

[initial]
family = polynomial_bump
"""


class TestParsing:
    def test_defaults_filled(self):
        config = parse_config(MINIMAL)
        assert config.numerics.cfl == 0.4
        assert config.numerics.steepening_threshold == 50.0
        assert config.numerics.support_margin_cells == 2
        assert config.n_cells == 256
        assert config.initial.family == "polynomial_bump"
        assert config.initial.params == {
            "velocity_amplitude": 1.0,
            "density_amplitude": 1.0,
        }
        assert config.seed == 0
        assert config.sweep is None
        assert config.output_dir == "runs"

    def test_semantic_violation_names_field(self):
        with pytest.raises(ConfigError, match="gamma must be >= 1"):
            parse_config("[model]\ngamma = 0.5\n")
        with pytest.raises(ConfigError, match="cfl"):
            parse_config("[numerics]\ncfl = 1.5\n")
        with pytest.raises(ConfigError, match=r"support_margin_cells = 8 .*n_cells = 8"):
            parse_config("[numerics]\nn_cells = 8\nsupport_margin_cells = 8\n")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "pressure_const", "-1.0"),
            ("model", "gamma", "0.5"),
            ("model", "support_radius", "0.0"),
            ("numerics", "cfl", "1.5"),
            ("numerics", "t_end", "0.0"),
            ("numerics", "dt_floor", "-1.0"),
            ("numerics", "steepening_threshold", "0.0"),
            ("numerics", "output_stride", "0"),
            ("numerics", "support_margin_cells", "0"),
        ],
    )
    def test_rejected_value_is_named(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must .*, got {re.escape(value)}$"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    def test_duplicate_key_reports_both_lines(self):
        text = "[model]\ngamma = 1.4\ndim = 3\ngamma = 2.0\n"
        with pytest.raises(ConfigError, match=r"lines 2 and 4"):
            parse_config(text)

    def test_unknown_key_rejected_in_strict_mode(self):
        with pytest.raises(ConfigError, match="unknown key 'omega'"):
            parse_config("[model]\nomega = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[plotting]\nstyle = dark\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[model]\nwhat is this\n")
        with pytest.raises(ConfigError, match="outside of any"):
            parse_config("dim = 3\n")

    def test_bad_literal_carries_location(self):
        with pytest.raises(ConfigError, match="line 2.*dim"):
            parse_config("[model]\ndim = three\n")

    def test_empty_sweep_list_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config("[sweep]\ndelta =\n")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n[model]\n; note\ndim = 2\n"
        assert parse_config(text).model.dim == 2

    def test_family_parameter_mismatch_caught_at_parse(self):
        with pytest.raises(ConfigError, match="width does not apply"):
            parse_config("[initial]\nfamily = polynomial_bump\nwidth = 0.2\n")

    @pytest.mark.parametrize(
        "family, default", [("gaussian_truncated", "width = 0.25"), ("random_smooth", "modes = 3")]
    )
    def test_a_family_default_omitted_or_given_is_one_experiment(self, family, default):
        text = f"[initial]\nfamily = {family}\n"
        omitted, given = parse_config(text), parse_config(f"{text}{default}\n")
        assert omitted == given
        assert config_hash(resolved_config_text(omitted)) == config_hash(
            resolved_config_text(given)
        )


class TestRoundTrip:
    def test_resolved_config_reparses_equal(self):
        config = parse_config(SMALL_RUN)
        text = resolved_config_text(config)
        assert parse_config(text) == config

    def test_round_trip_with_awkward_floats(self):
        config = parse_config("[numerics]\ncfl = 0.1\nt_end = 0.30000000000000004\n")
        assert parse_config(resolved_config_text(config)) == config


def finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


MODEL_FIELDS = {
    "dim": st.sampled_from((1, 2, 3)),
    "delta": st.sampled_from((-1, 0, 1)),
    "pressure_const": finite(0.0),
    "gamma": finite(1.0),
    "support_radius": finite(0.0, exclude_min=True),
}
NUMERICS_FIELDS = {
    "cfl": finite(0.0, 1.0, exclude_min=True),
    "t_end": finite(0.0, exclude_min=True),
    "dt_floor": finite(0.0, exclude_min=True),
    "steepening_threshold": finite(0.0, exclude_min=True),
    "output_stride": st.integers(1, 10**6),
    "support_margin_cells": st.integers(1, 10**6),
}
AMPLITUDES = {"velocity_amplitude": finite(), "density_amplitude": finite()}
PROFILE_PARAMS = {
    "polynomial_bump": AMPLITUDES,
    "gaussian_truncated": {**AMPLITUDES, "width": finite(0.0, exclude_min=True)},
    "random_smooth": {**AMPLITUDES, "modes": st.integers(1, 64)},
}


@st.composite
def experiment_configs(draw):
    family = draw(st.sampled_from(sorted(PROFILE_PARAMS)))
    params = draw(st.fixed_dictionaries(PROFILE_PARAMS[family]))
    n_cells = draw(st.integers(8, 10**6))
    # a config holds only a wall margin that fits its grid
    margin = st.integers(1, n_cells - 1)
    numerics = draw(st.fixed_dictionaries({**NUMERICS_FIELDS, "support_margin_cells": margin}))
    return ExperimentConfig(
        model=ModelConfig(**draw(st.fixed_dictionaries(MODEL_FIELDS))),
        numerics=NumericsConfig(**numerics),
        n_cells=n_cells,
        # a config names each snapshot file once
        snapshot_times=tuple(
            draw(st.lists(finite(0.0), max_size=4, unique_by=cli.snapshot_name))
        ),
        initial=ProfileConfig(family, params),
        seed=draw(st.integers(0, 2**63)),
        sweep=None,
    )


class TestRoundTripProperty:
    def test_strategies_cover_every_field(self):
        assert set(MODEL_FIELDS) == {f.name for f in fields(ModelConfig)}
        assert set(NUMERICS_FIELDS) == {f.name for f in fields(NumericsConfig)}
        assert {k: set(v) for k, v in PROFILE_PARAMS.items()} == {
            k: set(v) for k, v in profiles.FAMILY_PARAMS.items()
        }

    @settings(max_examples=200, deadline=None)
    @given(experiment_configs())
    def test_resolved_config_reparses_equal(self, config):
        assert parse_config(resolved_config_text(config)) == config


class TestSweep:
    def test_no_sweep_single_run(self):
        runs = expand_sweep(parse_config(MINIMAL))
        assert len(runs) == 1
        assert runs[0][0] == "run-0000"

    def test_cartesian_product(self):
        text = MINIMAL + "[sweep]\ndelta = 0, 1\nn_cells = 64, 128\n"
        runs = expand_sweep(parse_config(text))
        assert len(runs) == 4
        combos = {(cfg.model.delta, cfg.n_cells) for _, cfg in runs}
        assert combos == {(0, 64), (0, 128), (1, 64), (1, 128)}
        assert all(cfg.sweep is None for _, cfg in runs)

    def test_invalid_sweep_value_exits_one(self):
        # every entry is checked when the config is parsed, before any run
        with pytest.raises(ConfigError, match="^sweep: gamma must be >= 1"):
            parse_config(MINIMAL + "[sweep]\ngamma = 1.4, 0.5\n")

    def test_rejected_sweep_value_is_named(self):
        with pytest.raises(ConfigError, match=r"^sweep: gamma must be >= 1, got 0\.5$"):
            parse_config(MINIMAL + "[sweep]\ngamma = 0.5, 1.4\n")


class TestProfiles:
    def test_polynomial_bump_momentum(self):
        grid = RadialGrid(n_cells=256, support_radius=1.0)
        prof = build_initial_profile("polynomial_bump", {}, 0, grid, 2)
        h0 = float(np.sum(grid.cell_centers * prof.v0) * grid.cell_width)
        assert h0 == pytest.approx(1.0 / 12.0, rel=1e-3)
        assert np.all(prof.rho0[-2:] == 0.0)
        assert np.all(prof.v0[-2:] == 0.0)

    def test_zero_amplitude_is_trivial(self):
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        prof = build_initial_profile(
            "polynomial_bump", {"velocity_amplitude": 0.0, "density_amplitude": 0.0},
            0, grid, 2,
        )
        assert np.all(prof.v0 == 0.0)
        assert np.all(prof.rho0 == 0.0)

    def test_random_smooth_reproducible(self):
        grid = RadialGrid(n_cells=128, support_radius=1.0)
        a = build_initial_profile("random_smooth", {}, 1234, grid, 2)
        b = build_initial_profile("random_smooth", {}, 1234, grid, 2)
        np.testing.assert_array_equal(a.rho0, b.rho0)
        np.testing.assert_array_equal(a.v0, b.v0)
        c = build_initial_profile("random_smooth", {}, 99, grid, 2)
        assert not np.array_equal(a.v0, c.v0)
        assert np.all(a.rho0 >= 0.0)

    def test_gaussian_truncated_margin(self):
        grid = RadialGrid(n_cells=128, support_radius=1.0)
        prof = build_initial_profile("gaussian_truncated", {"width": 0.3}, 0, grid, 2)
        assert np.all(prof.rho0[-2:] == 0.0)
        assert np.all(prof.rho0[:-2] > 0.0)

    @pytest.mark.parametrize("family", sorted(profiles.FAMILY_PARAMS))
    @pytest.mark.parametrize("margin", [0, 8, 10])
    def test_a_margin_outside_the_grid_is_rejected(self, family, margin):
        # on 8 cells the margin must be in [1, 8), the rule of wall_index:
        # margin 0 zeroed no cell, 8 every cell and 10 the last two
        grid = RadialGrid(n_cells=8, support_radius=1.0)
        with pytest.raises(ValueError, match=r"margin_cells must be in \[1, n_cells\)"):
            build_initial_profile(family, {}, 0, grid, margin)

    def test_unknown_family_and_params(self):
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        with pytest.raises(ValueError, match="family"):
            build_initial_profile("sombrero", {}, 0, grid, 2)
        with pytest.raises(ValueError, match="width"):
            build_initial_profile("polynomial_bump", {"width": 0.1}, 0, grid, 2)

    def test_a_nan_width_is_rejected(self):
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        with pytest.raises(ValueError, match=r"initial\.width must be > 0, got nan"):
            build_initial_profile("gaussian_truncated", {"width": float("nan")}, 0, grid, 2)


class TestExecute:
    def test_single_run_outputs(self, tmp_path):
        config = parse_config(SMALL_RUN)
        code = execute(config, output_dir=str(tmp_path / "out"))
        assert code == 0
        run_dir = tmp_path / "out" / "run-0000"
        for name in ("series.tsv", "summary.txt", "resolved-config.txt", "meta.txt"):
            assert (run_dir / name).exists()
        assert (tmp_path / "out" / "index.tsv").exists()

        summary = read_summary(run_dir)
        assert summary["verdict"] == "pending"  # horizon far below the bound
        assert summary["termination"] == "reached_t_end"
        series = read_series(run_dir)
        assert set(series) == {
            "t", "H", "mass", "energy_lhs", "riccati_residual",
            "envelope", "cauchy_gap", "max_abs_dVdr",
        }
        assert series["t"][0] == 0.0
        assert series["t"][-1] == pytest.approx(0.2)

        snap = read_snapshot(run_dir / "snapshot-0.1.tsv")
        assert set(snap) == {"r", "rho", "V"}
        assert snap["r"].size == 64

        # the emitted resolved config re-parses to the run's experiment
        emitted = (run_dir / "resolved-config.txt").read_text()
        assert parse_config(emitted) == config

    def test_seventeen_digit_floats(self, tmp_path):
        config = parse_config(SMALL_RUN)
        execute(config, output_dir=str(tmp_path / "out"))
        line = (tmp_path / "out" / "run-0000" / "series.tsv").read_text().splitlines()[1]
        mantissas = [f.split("e")[0].replace("-", "").replace(".", "") for f in line.split("\t")]
        assert any(len(m.rstrip("0")) > 10 for m in mantissas)

    def test_byte_identical_reruns(self, tmp_path):
        config = parse_config(SMALL_RUN)
        execute(config, output_dir=str(tmp_path / "a"))
        execute(config, output_dir=str(tmp_path / "b"))
        for name in ("summary.txt", "series.tsv", "resolved-config.txt", "snapshot-0.1.tsv"):
            first = (tmp_path / "a" / "run-0000" / name).read_bytes()
            second = (tmp_path / "b" / "run-0000" / name).read_bytes()
            assert first == second, name

    def test_sweep_parallel_workers(self, tmp_path):
        text = SMALL_RUN + "\n[sweep]\ndelta = 0, 1\nn_cells = 32, 64\n"
        config = parse_config(text)
        code = execute(config, output_dir=str(tmp_path / "sweep"), jobs=2)
        assert code == 0
        index = (tmp_path / "sweep" / "index.tsv").read_text().splitlines()
        assert len(index) == 5  # header + 4 runs
        for i in range(4):
            assert (tmp_path / "sweep" / f"run-{i:04d}" / "summary.txt").exists()

    def test_exit_status_contract(self):
        ok = {"verdict": "confirmed"}
        pend = {"verdict": "pending"}
        na = {"verdict": "not_applicable"}
        bad = {"verdict": "violated"}
        fail = {"failed": True}
        assert exit_status([ok, pend, na]) == 0
        assert exit_status([ok, bad]) == 2
        assert exit_status([ok, fail]) == 1
        assert exit_status([fail, bad]) == 2  # the alarm outranks failures

    def test_positivity_failure_exits_one(self, tmp_path, monkeypatch):
        def negative_density(*args, **kwargs):
            raise solver.PositivityError("density below the roundoff band")

        monkeypatch.setattr(solver, "step", negative_density)
        code = execute(parse_config(SMALL_RUN), output_dir=str(tmp_path / "out"))
        assert code == 1
        summary = read_summary(tmp_path / "out" / "run-0000")
        assert summary["termination"] == "positivity_violated"
        assert summary["verdict"] == "pending"
        # the alarm still outranks a numerical failure
        failed = {"verdict": "pending", "termination": "positivity_violated"}
        assert exit_status([failed, {"verdict": "violated"}]) == 2

    def test_numerical_breakdown_ends_the_run(self, tmp_path, monkeypatch, capsys):
        taken = []

        def breaks_on_fourth(*args, _step=solver.step, **kwargs):
            if len(taken) == 3:
                raise solver.NumericalBreakdownError(17, "velocity")
            taken.append(_step(*args, **kwargs))
            return taken[-1]

        monkeypatch.setattr(solver, "step", breaks_on_fourth)
        code = execute(parse_config(SMALL_RUN), output_dir=str(tmp_path / "out"))
        assert code == 1
        run_dir = tmp_path / "out" / "run-0000"
        summary = read_summary(run_dir)
        assert summary["termination"] == "numerical_breakdown"
        # the last row is the last good state
        assert float(summary["t_final"]) == taken[-1].time
        assert read_series(run_dir)["t"][-1] == taken[-1].time
        assert (run_dir / "snapshot-0.1.tsv").exists()
        err = capsys.readouterr().err
        r = RadialGrid(n_cells=64, support_radius=1.0).cell_centers[17]
        assert (
            f"warning: run-0000: non-finite velocity tendency at cell 17 "
            f"(r = {r:.6g}) at t = {taken[-1].time:.6g}"
        ) in err
        assert "Traceback" not in err
        assert exit_status([{"termination": "numerical_breakdown"}]) == 1

    def test_jobs_below_one_exits_one(self, tmp_path, capsys):
        for jobs in (0, -3):
            code = execute(parse_config(SMALL_RUN), output_dir=str(tmp_path), jobs=jobs)
            assert code == 1
            assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "run-0000").exists()

    def test_pool_is_no_larger_than_the_sweep(self, tmp_path, inline_pool):
        text = SMALL_RUN + "\n[sweep]\ndelta = 0, 1\n"
        code = execute(parse_config(text), output_dir=str(tmp_path), jobs=5000)
        assert code == 0
        assert inline_pool["sizes"] == [2]
        assert len((tmp_path / "index.tsv").read_text().splitlines()) == 3

    def test_pool_takes_the_largest_runs_first(self, tmp_path, inline_pool, monkeypatch):
        # sweep order: (delta 0, 16 cells), (0, 32), (1, 16), (1, 32)
        config = parse_config(SMALL_RUN + "\n[sweep]\ndelta = 0, 1\nn_cells = 16, 32\n")
        assert execute(config, output_dir=str(tmp_path / "pool"), jobs=2) == 0
        assert inline_pool["run_ids"] == ["run-0001", "run-0003", "run-0000", "run-0002"]
        index = (tmp_path / "pool" / "index.tsv").read_text().splitlines()[1:]
        assert [line.split("\t")[0] for line in index] == [f"run-{i:04d}" for i in range(4)]

        # one job keeps the sweep order
        ran = []

        def recorded(run_id, *args, _run_single=cli.run_single):
            ran.append(run_id)
            return _run_single(run_id, *args)

        monkeypatch.setattr(cli, "run_single", recorded)
        assert execute(config, output_dir=str(tmp_path / "serial"), jobs=1) == 0
        assert ran == [f"run-{i:04d}" for i in range(4)]

    def test_meta_reports_steps_dt_range_and_peak_memory(self, tmp_path):
        execute(parse_config(SMALL_RUN), output_dir=str(tmp_path))
        text = (tmp_path / "run-0000" / "meta.txt").read_text()
        meta = dict(line.split(": ", 1) for line in text.splitlines())
        assert set(meta) == {
            "started_unix", "elapsed_seconds", "steps", "dt_min", "dt_max", "peak_rss_kb",
            "kernel_target", "kernel_load_s", "build_s", "run_s", "diagnostics_s", "write_s",
        }
        assert meta["kernel_target"] == _kernel.target()
        assert 0.0 <= float(meta["kernel_load_s"]) <= float(meta["elapsed_seconds"]) + 1e-3
        # disjoint phases of the run on the clock of elapsed_seconds (printed to 1 ms)
        phases = [float(meta[key]) for key in ("build_s", "run_s", "write_s")]
        assert min(phases) >= 0.0
        assert sum(phases) <= float(meta["elapsed_seconds"]) + 1e-3
        # the diagnostics part of run_s, on the same clock
        assert 0.0 < float(meta["diagnostics_s"]) <= float(meta["run_s"])
        steps, dt_min, dt_max = int(meta["steps"]), float(meta["dt_min"]), float(meta["dt_max"])
        t_final = float(read_summary(tmp_path / "run-0000")["t_final"])
        assert 0.0 < dt_min <= dt_max
        assert steps * dt_min <= t_final <= steps * dt_max
        # KiB on every platform: more than the interpreter, less than 4 GiB
        assert 10_000 < int(meta["peak_rss_kb"]) < 4 * 1024**2

    def test_initial_data_validated_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return model.validate_initial_data(*args, **kwargs)

        monkeypatch.setattr(cli, "validate_initial_data", counted)
        monkeypatch.setattr(solver, "validate_initial_data", counted)
        run_single("run-0000", parse_config(SMALL_RUN), str(tmp_path))
        assert len(calls) == 1


def test_readme_config_reference_lists_every_key_with_its_default():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text(encoding="utf-8").split("## Config reference\n\n", 1)[1]
    rows = {}
    for line in table.split("\n\n", 1)[0].splitlines()[2:]:
        section, keys, default, _ = (cell.strip() for cell in line.strip()[1:-1].split("|", 3))
        rows.update({(section, key): default for key in keys.split(", ")})
    assert set(rows) == {(section, key) for section in cli._SCHEMA for key in cli._SCHEMA[section]}

    empty = parse_config("")
    defaults = {
        **{("model", key): value for key, value in cli._items(empty.model)},
        ("numerics", "n_cells"): empty.n_cells,
        **{("numerics", key): value for key, value in cli._items(empty.numerics)},
        ("numerics", "snapshot_times"): "(none)",
        ("initial", "family"): empty.initial.family,
        ("initial", "seed"): empty.seed,
        **{
            ("initial", key): value
            for params in profiles.FAMILY_PARAMS.values()
            for key, value in params.items()
        },
        **{("sweep", key): "-" for key in cli._SCHEMA["sweep"]},
        ("output", "dir"): empty.output_dir,
    }
    shown = {key: f"{v:g}" if isinstance(v, float) else str(v) for key, v in defaults.items()}
    assert rows == shown


def test_cli_import_leaves_out_the_pool_and_the_compiler_runner():
    # check and run never build a pool, and a cached kernel needs no compiler
    code = (
        "import sys, radialblowup.cli; "
        "print([m for m in ('concurrent.futures.process', 'subprocess') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestMain:
    def test_run_command(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN)
        code = main(["run", str(cfg_file), "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "run-0000" / "summary.txt").exists()

    def test_run_refuses_sweep_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN + "\n[sweep]\ndelta = 0, 1\n")
        assert main(["run", str(cfg_file)]) == 1
        assert "sweep" in capsys.readouterr().err

    def test_check_command(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN)
        assert main(["check", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "h0=" in out and "bound_applicable=True" in out

    @pytest.mark.parametrize("delta", [0, -1, 1])
    def test_check_agrees_with_run_report(self, tmp_path, capsys, delta):
        # each family and law, and a wrong-signed momentum: check prints what
        # the run's summary holds
        laws = ((0, 1.4), (0.1, 1), (0.1, 2))
        cases = [(family, *law, "") for family in profiles.FAMILY_PARAMS for law in laws]
        cases.append(("polynomial_bump", 0, 1.4, "velocity_amplitude = -1"))
        for n, (family, k, gamma, initial) in enumerate(cases):
            text = (
                SMALL_RUN.replace("delta = 0", f"delta = {delta}")
                .replace("pressure_const = 0\n", f"pressure_const = {k}\n")
                .replace("gamma = 1.4", f"gamma = {gamma}")
                .replace("family = polynomial_bump", f"family = {family}\n{initial}")
            )
            cfg_file = tmp_path / f"exp-{n}.cfg"
            cfg_file.write_text(text)
            assert main(["check", str(cfg_file)]) == 0
            printed = dict(
                item.split("=", 1) for item in capsys.readouterr().out.split()[1:]
            )
            main(["run", str(cfg_file), "--output-dir", str(tmp_path / f"out-{n}")])
            summary = read_summary(tmp_path / f"out-{n}" / "run-0000")
            case = (delta, family, k, gamma, initial)
            assert printed["h0"] == f"{float(summary['h0']):.6g}", case
            t_bound = summary["t_bound"]
            if t_bound != "n/a":
                t_bound = f"{float(t_bound):.6g}"
            applicable = str(summary["bound_applicable"] == "true")
            assert printed["t_bound"] == t_bound, case
            assert printed["bound_applicable"] == applicable, case
            assert printed["scope_flags"] == summary["scope_flags"], case
            expected = delta >= 0 and not (k > 0 and gamma == 1) and float(summary["h0"]) > 0
            assert printed["bound_applicable"] == str(expected), case

    def test_check_refuses_inadmissible_data_as_run_does(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            SMALL_RUN.replace("family = polynomial_bump",
                              "family = polynomial_bump\ndensity_amplitude = -1")
        )
        message = "error: inadmissible initial data: density must be nonnegative"
        assert main(["check", str(cfg_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"
        assert main(["run", str(cfg_file), "--output-dir", str(tmp_path / "out")]) == 1
        assert message.partition(" ")[2] in capsys.readouterr().err
        index = (tmp_path / "out" / "index.tsv").read_text().splitlines()
        assert index[1].split("\t")[:2] == ["run-0000", "failed"]

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("[model]\ngamma = 0.2\n")
        assert main(["check", str(cfg_file)]) == 1
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, line",
        [
            ("numerics", "t_end = nan"),
            ("model", "gamma = nan"),
            ("model", "support_radius = inf"),
            ("numerics", "snapshot_times = nan"),
            ("numerics", "snapshot_times = 0.1, -inf"),
            ("initial", "velocity_amplitude = nan"),
            ("sweep", "gamma = 1.4, nan"),
        ],
    )
    def test_non_finite_number_exits_one(self, tmp_path, capsys, section, line):
        key = line.partition(" =")[0]
        text = f"[{section}]\n{line}\n"
        with pytest.raises(ConfigError, match=rf"^line 2: {section}\.{key}: .*not a finite"):
            parse_config(text)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(text)
        command = "sweep" if section == "sweep" else "run"
        out = tmp_path / "out"
        assert main([command, str(cfg_file), "--output-dir", str(out)]) == 1
        assert f"line 2: {section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_no_strict_flag(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("[model]\nomega = 2\n")
        assert main(["check", str(cfg_file)]) == 1

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("check", ["--no-strict"]),
            ("run", ["--strict"]),
            ("check", ["--output-dir", "out"]),
            ("check", ["--jobs", "2"]),
        ],
        ids=["check-no-strict", "run-strict", "check-output-dir", "check-jobs"],
    )
    def test_flags_no_command_reads_are_refused(self, tmp_path, command, flags):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN)
        with pytest.raises(SystemExit) as refused:
            main([command, str(cfg_file), *flags])
        assert refused.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("[sweep]\ngamma = 0.5", r"sweep: gamma must be >= 1"),
            ("[sweep]\ndelta = 2", r"sweep: delta must be -1, 0 or \+1, got 2"),
            ("[sweep]\npressure_const = -1", r"sweep: pressure_const must be >= 0"),
            ("[sweep]\nn_cells = 4", r"sweep: numerics\.n_cells must be at least 8"),
            ("[sweep]\nn_cells = 7", r"sweep: numerics\.n_cells must be at least 8, got 7"),
            ("family = random_smooth\nmodes = 0", r"initial\.modes must be > 0, got 0"),
            ("family = gaussian_truncated\nwidth = 0", r"initial\.width must be > 0, got 0\.0"),
            ("family = random_smooth\nseed = -1", r"initial\.seed must be >= 0, got -1"),
        ],
        ids=[
            "sweep-gamma", "sweep-delta", "sweep-pressure", "sweep-n_cells", "sweep-n_cells-7",
            "modes", "width", "seed",
        ],
    )
    def test_a_bad_sweep_entry_or_initial_value_exits_one_before_any_run(
        self, tmp_path, capsys, edit, message
    ):
        out = tmp_path / "out"
        text = SMALL_RUN + f"\n[output]\ndir = {out}\n"
        if edit.startswith("[sweep]"):
            text += f"\n{edit}\n"
        else:
            text = text.replace("family = polynomial_bump", edit)
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(text)
        for command in ("check", "run", "sweep"):
            assert main([command, str(cfg_file)]) == 1
            printed = capsys.readouterr()
            assert re.search(message, printed.err) and "Traceback" not in printed.err
            assert printed.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_margin_that_does_not_fit_a_swept_grid_exits_one(self, tmp_path, capsys, command):
        text = SMALL_RUN.replace("n_cells = 64", "n_cells = 32\nsupport_margin_cells = 10")
        text += "\n[sweep]\nn_cells = 8, 32\n"
        with pytest.raises(
            ConfigError, match=r"numerics\.support_margin_cells = 10 .*n_cells = 8"
        ):
            parse_config(text)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "out"
        where = ["--output-dir", str(out)] if command == "sweep" else []
        assert main([command, str(cfg_file), *where]) == 1
        printed = capsys.readouterr()
        assert "numerics.support_margin_cells" in printed.err and "n_cells = 8" in printed.err
        # rejected before any run starts: nothing checked, run or written
        assert printed.out == "" and "Traceback" not in printed.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "times, message",
        [
            ("0.05000001, 0.05000002", r"0\.05000001 and 0\.05000002 .*snapshot-0\.05\.tsv"),
            ("0.1, -1", r"-1\.0 is negative"),
            ("-0", r"-0\.0 is negative"),
        ],
        ids=["same-file", "negative", "negative-zero"],
    )
    def test_snapshot_times_that_would_lose_a_file_exit_one(
        self, tmp_path, capsys, times, message
    ):
        text = SMALL_RUN.replace("snapshot_times = 0.1", f"snapshot_times = {times}")
        with pytest.raises(ConfigError, match=rf"numerics\.snapshot_times: {message}"):
            parse_config(text)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(cfg_file), "--output-dir", str(out)]) == 1
        assert "numerics.snapshot_times" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_command(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN + "\n[sweep]\nn_cells = 32, 64\n")
        code = main(
            ["sweep", str(cfg_file), "--output-dir", str(tmp_path / "out"), "--jobs", "2"]
        )
        assert code == 0
        assert (tmp_path / "out" / "run-0001" / "summary.txt").exists()

    def test_wrong_signed_momentum_warns_and_proceeds(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            SMALL_RUN.replace("family = polynomial_bump",
                              "family = polynomial_bump\nvelocity_amplitude = -1")
        )
        code = main(["run", str(cfg_file), "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert "not positive" in capsys.readouterr().err
        summary = read_summary(tmp_path / "out" / "run-0000")
        assert summary["verdict"] == "not_applicable"
        assert "h0_not_positive" in summary["scope_flags"]
