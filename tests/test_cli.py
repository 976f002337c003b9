from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import read_series, read_snapshot, read_summary
from radialblowup import ModelConfig, NumericsConfig, RadialGrid, build_initial_profile
from radialblowup import cli, model, profiles, solver
from radialblowup.cli import (
    ConfigError,
    ExperimentConfig,
    ProfileConfig,
    execute,
    exit_status,
    expand_sweep,
    main,
    parse_config,
    resolved_config_text,
    run_single,
)

MINIMAL = "[model]\ndim = 3\n"

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

    def test_duplicate_key_reports_both_lines(self):
        text = "[model]\ngamma = 1.4\ndim = 3\ngamma = 2.0\n"
        with pytest.raises(ConfigError, match=r"lines 2 and 4"):
            parse_config(text)

    def test_unknown_key_rejected_in_strict_mode(self):
        with pytest.raises(ConfigError, match="unknown key 'omega'"):
            parse_config("[model]\nomega = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[plotting]\nstyle = dark\n")

    def test_non_strict_ignores_unknowns(self, capsys):
        config = parse_config("[model]\nomega = 1\ndim = 2\n", strict=False)
        assert config.model.dim == 2
        assert "ignoring unknown key" in capsys.readouterr().err

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
    return ExperimentConfig(
        model=ModelConfig(**draw(st.fixed_dictionaries(MODEL_FIELDS))),
        numerics=NumericsConfig(**draw(st.fixed_dictionaries(NUMERICS_FIELDS))),
        n_cells=draw(st.integers(8, 10**6)),
        snapshot_times=tuple(draw(st.lists(finite(0.0), max_size=4))),
        initial=ProfileConfig(family, params),
        seed=draw(st.integers(0, 2**63)),
        sweep=None,
    )


class TestRoundTripProperty:
    def test_strategies_cover_every_field(self):
        assert set(MODEL_FIELDS) == {f.name for f in fields(ModelConfig)}
        assert set(NUMERICS_FIELDS) == {f.name for f in fields(NumericsConfig)}
        assert {k: set(v) for k, v in PROFILE_PARAMS.items()} == profiles.FAMILY_PARAMS

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

    def test_invalid_sweep_value_exits_one(self, tmp_path, capsys):
        config = parse_config(MINIMAL + "[sweep]\ngamma = 1.4, 0.5\n")
        assert execute(config, output_dir=str(tmp_path / "out")) == 1
        assert "gamma" in capsys.readouterr().err


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

    def test_unknown_family_and_params(self):
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        with pytest.raises(ValueError, match="family"):
            build_initial_profile("sombrero", {}, 0, grid, 2)
        with pytest.raises(ValueError, match="width"):
            build_initial_profile("polynomial_bump", {"width": 0.1}, 0, grid, 2)


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

    def test_initial_data_validated_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return model.validate_initial_data(*args, **kwargs)

        monkeypatch.setattr(cli, "validate_initial_data", counted)
        monkeypatch.setattr(solver, "validate_initial_data", counted)
        run_single("run-0000", parse_config(SMALL_RUN), str(tmp_path))
        assert len(calls) == 1


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

    @pytest.mark.parametrize("delta", [0, -1])
    def test_check_agrees_with_run_report(self, tmp_path, capsys, delta):
        # one in-scope and one out-of-scope config with the same positive H0
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN.replace("delta = 0", f"delta = {delta}"))
        assert main(["check", str(cfg_file)]) == 0
        printed = dict(
            item.split("=", 1) for item in capsys.readouterr().out.split()[1:]
        )
        main(["run", str(cfg_file), "--output-dir", str(tmp_path / "out")])
        summary = read_summary(tmp_path / "out" / "run-0000")
        assert printed["bound_applicable"] == str(summary["bound_applicable"] == "true")
        assert printed["bound_applicable"] == str(delta == 0)
        assert printed["t_bound"] == f"{float(summary['t_bound']):.6g}"

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
        assert main(["check", str(cfg_file), "--no-strict"]) == 0

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
