import ast
import hashlib
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import read_series, read_snapshot, read_summary
from test_golden import DUST, GOLDEN_256_SHA256, GOLDEN_RUN
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
from radialblowup.diagnostics import DiagnosticsSeries, Verdict, bound_scope

MINIMAL = "[model]\ndim = 3\n"


def logged_runs(log: Path) -> list[tuple[int, str]]:
    """The (pid, run_id) lines that ``log_run_single`` appended, in order."""
    if not log.exists():
        return []
    return [(int(pid), run_id) for pid, run_id in map(str.split, log.read_text().splitlines())]


def wait_until(ready, timeout: float = 30.0) -> None:
    """Poll ``ready`` until it holds; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not ready():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.002)


def log_run_single(monkeypatch, log: Path, before=None, run=None) -> None:
    """Make ``cli.run_single`` append 'pid run_id' to ``log`` in whichever
    process calls it, forked or not, then call ``before(run_id, first)``,
    ``first`` telling whether it is that process's first run, then ``run``
    (the real ``run_single`` by default)."""
    run = run or cli.run_single

    def logged(run_id, *args):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()} {run_id}\n")
        if before is not None:
            pids = [pid for pid, _ in logged_runs(log)]
            before(run_id, pids.count(os.getpid()) == 1)
        return run(run_id, *args)

    monkeypatch.setattr(cli, "run_single", logged)


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
        with pytest.raises(ConfigError, match="gamma must be > 1"):
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
            ("model", "gamma", "1.0"),
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
    "gamma": finite(1.0, exclude_min=True),
    # a radius that a grid of up to 10**6 cells takes: one whose least
    # weight underflows is refused
    "support_radius": finite(1e-90),
}
NUMERICS_FIELDS = {
    "cfl": finite(0.0, 1.0, exclude_min=True),
    "t_end": finite(0.0, exclude_min=True),
    "dt_floor": finite(0.0, exclude_min=True),
    "steepening_threshold": finite(0.0, exclude_min=True),
    "output_stride": st.integers(1, 10**6),
    "support_margin_cells": st.integers(1, 10**6),
}
AMPLITUDES = {
    "velocity_amplitude": finite(),
    "density_amplitude": finite(0.0, exclude_min=True),
}
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
        with pytest.raises(ConfigError, match="^sweep: gamma must be > 1"):
            parse_config(MINIMAL + "[sweep]\ngamma = 1.4, 0.5\n")

    def test_rejected_sweep_value_is_named(self):
        with pytest.raises(ConfigError, match=r"^sweep: gamma must be > 1, got 0\.5$"):
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
        # a fluid at rest; no density at all is vacuum, which is refused
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        prof = build_initial_profile(
            "polynomial_bump", {"velocity_amplitude": 0.0}, 0, grid, 2
        )
        assert np.all(prof.v0 == 0.0)
        assert np.all(prof.rho0[:-2] > 0.0)
        with pytest.raises(ValueError, match=r"^initial\.density_amplitude must be > 0, got 0\.0$"):
            build_initial_profile("polynomial_bump", {"density_amplitude": 0.0}, 0, grid, 2)

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

    @pytest.mark.parametrize("family", sorted(profiles.FAMILY_PARAMS))
    @pytest.mark.parametrize("amplitude", [-1.0, -1e-300, float("nan")])
    def test_a_negative_or_nan_density_amplitude_is_rejected(self, family, amplitude):
        grid = RadialGrid(n_cells=64, support_radius=1.0)
        with pytest.raises(
            ValueError, match=rf"^initial\.density_amplitude must be > 0, got {amplitude!r}$"
        ):
            build_initial_profile(family, {"density_amplitude": amplitude}, 0, grid, 2)


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

    def test_a_sweep_into_an_earlier_directory_leaves_only_its_own_runs(self, tmp_path, capsys):
        # a 3-run sweep, then a 2-run sweep, then a refused run, into one
        # directory: each leaves the run directories it wrote and no other
        # that holds a summary, so the directories match index.tsv. Other
        # names, and a run-NNNN directory without a summary, stay
        out = tmp_path / "out"
        kept = [out / "run-0007", out / "run-12", out / "00000001", out / "notes"]
        for path in kept:
            path.mkdir(parents=True)
            summary = path.name in ("run-12", "00000001")
            (path / "summary.txt" if summary else path / "notes.txt").write_text("")
        refused = SMALL_RUN.replace("family = polynomial_bump",
                                    "family = gaussian_truncated\nwidth = 1e-5")
        for text, written in ((SMALL_RUN + "\n[sweep]\nn_cells = 32, 48, 64\n", 3),
                              (SMALL_RUN + "\n[sweep]\nn_cells = 32, 64\n", 2), (refused, 0)):
            code = execute(parse_config(text), output_dir=str(out))
            assert code == (0 if written else 1)
            runs = [f"run-{i:04d}" for i in range(written)]
            assert sorted(p.name for p in out.glob("run-????")) == sorted([*runs, "run-0007"])
            rows = (out / "index.tsv").read_text().splitlines()[1:]
            assert [row.split("\t")[0] for row in rows] == (runs or ["run-0000"])
        assert rows == ["\t".join(["run-0000", "failed"] + ["-"] * 5)]
        assert all(path.exists() for path in kept)
        capsys.readouterr()

    def test_a_cold_cache_compiles_the_kernel_once_per_pooled_sweep(self, tmp_path, monkeypatch):
        # the sweep loads the kernel before its pool forks the workers, which
        # inherit it: on an empty cache each would compile it otherwise. The
        # compiles of every process are counted in one file
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        compiles = tmp_path / "compiles"

        def counted(command, _compile=_kernel._compile):
            with open(compiles, "a", encoding="utf-8") as log:
                log.write(f"{os.getpid()}\n")
            return _compile(command)

        monkeypatch.setattr(_kernel, "_compile", counted)
        _kernel.load.cache_clear()
        try:
            config = parse_config(SMALL_RUN + "\n[sweep]\ndelta = 0, 1\n")
            assert execute(config, output_dir=str(tmp_path / "sweep"), jobs=2) == 0
        finally:
            _kernel.load.cache_clear()
        assert compiles.read_text().splitlines() == [str(os.getpid())]

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

    def test_cli_names_no_ending(self):
        # which endings fail is solver.FAILURES alone: cli names neither the
        # enum nor any of its members or their values
        names = {"Termination", *(t.name for t in solver.Termination)}
        values = {t.value for t in solver.Termination}
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            assert getattr(node, "id", getattr(node, "attr", None)) not in names, node.lineno
            if isinstance(node, ast.alias):
                assert node.name not in names
            if isinstance(node, ast.Constant):
                assert node.value not in values, node.lineno

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
        assert float(summary["t_final"]) == taken[-1].state.time
        assert read_series(run_dir)["t"][-1] == taken[-1].state.time
        assert (run_dir / "snapshot-0.1.tsv").exists()
        err = capsys.readouterr().err
        r = RadialGrid(n_cells=64, support_radius=1.0).cell_centers[17]
        assert (
            f"warning: run-0000: non-finite velocity tendency at cell 17 "
            f"(r = {r:.6g}) at t = {taken[-1].state.time:.6g}"
        ) in err
        assert "Traceback" not in err
        assert exit_status([{"termination": "numerical_breakdown"}]) == 1

    @pytest.mark.parametrize("termination", [t.value for t in solver.Termination])
    def test_summary_and_index_take_the_ending_from_the_trajectory(
        self, tmp_path, monkeypatch, termination
    ):
        # each of the five endings; a failure comes on the seventh step, so
        # with a row every fifth step the last good state is a row of its own
        text = {
            "steepening_detected": SMALL_RUN.replace("= 1e9", "= 1.9"),
            "dt_collapsed": SMALL_RUN.replace("= 1e9", "= 1e9\ndt_floor = 1"),
        }.get(termination, SMALL_RUN)
        error = {
            "positivity_violated": solver.PositivityError("density below the band"),
            "numerical_breakdown": solver.NumericalBreakdownError(17, "velocity"),
        }.get(termination)
        taken = []

        def fails_on_seventh(*args, _step=solver.step, **kwargs):
            if error is not None and len(taken) == 6:
                raise error
            taken.append(_step(*args, **kwargs))
            return taken[-1]

        results = []

        def recorded(*args, _run=cli.run, **kwargs):
            results.append(_run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(solver, "step", fails_on_seventh)
        monkeypatch.setattr(cli, "run", recorded)
        code = execute(parse_config(text), output_dir=str(tmp_path))
        # the numerical failures exit 1; every other ending here confirms or is pending
        assert code == (1 if termination in ("positivity_violated", "numerical_breakdown") else 0)
        ((trajectory, series, _),) = results
        assert trajectory.termination.value == termination
        ending = {
            "termination": termination,
            "t_detect": cli._fmt(trajectory.t_detect),
            "t_final": cli._fmt(trajectory.t_final),
        }
        summary = read_summary(tmp_path / "run-0000")
        assert {key: summary[key] for key in ending} == ending
        header, row = (tmp_path / "index.tsv").read_text().splitlines()
        index = dict(zip(header.split("\t"), row.split("\t")))
        # the index row is the summary's lines of its columns
        assert index == {key: summary[key] for key in index}
        assert (index["termination"], index["t_detect"]) == (termination, ending["t_detect"])
        assert series.times[-1] == trajectory.t_final
        if error is not None:
            assert trajectory.t_final == taken[-1].state.time

    def test_jobs_below_one_exits_one(self, tmp_path, capsys):
        for jobs in (0, -3):
            code = execute(parse_config(SMALL_RUN), output_dir=str(tmp_path), jobs=jobs)
            assert code == 1
            assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "run-0000").exists()

    def test_pool_is_no_larger_than_the_sweep(self, tmp_path, monkeypatch):
        # 2 runs at --jobs 5000: the caller and one child run one run each.
        # Each waits in its first run until both have one, so neither takes
        # both; os.fork refuses a fourth call, so a pool sized by --jobs
        # alone fails here without starting thousands of processes
        forks = []

        def fork(_fork=os.fork):
            forks.append(1)
            if len(forks) > 3:
                raise OSError("more forks than the test allows")
            return _fork()

        monkeypatch.setattr(os, "fork", fork)
        log = tmp_path / "log"
        log_run_single(monkeypatch, log, lambda run_id, first: first and wait_until(
            lambda: len(logged_runs(log)) >= 2))
        text = SMALL_RUN + "\n[sweep]\ndelta = 0, 1\n"
        code = execute(parse_config(text), output_dir=str(tmp_path / "out"), jobs=5000)
        assert code == 0
        assert len(forks) == 1
        pids = {pid for pid, _ in logged_runs(log)}
        assert len(pids) == 2 and os.getpid() in pids
        assert sorted(run_id for _, run_id in logged_runs(log)) == ["run-0000", "run-0001"]
        assert len((tmp_path / "out" / "index.tsv").read_text().splitlines()) == 3

    def test_pool_takes_the_largest_runs_first(self, tmp_path, monkeypatch):
        # sweep order: delta, then gamma, then n_cells = 16, 32; the 32-cell
        # runs are the odd ones. The caller and one child each claim one run;
        # the child then waits in it until the caller has run the other six,
        # so the log holds every later claim in the order claimed
        config = parse_config(
            SMALL_RUN + "\n[sweep]\ndelta = 0, 1\ngamma = 1.4, 2\nn_cells = 16, 32\n"
        )
        log = tmp_path / "log"

        def before(run_id, first):
            if first:
                wanted = 2 if os.getpid() == parent else 8
                wait_until(lambda: len(logged_runs(log)) >= wanted)

        parent = os.getpid()
        log_run_single(monkeypatch, log, before)
        assert execute(config, output_dir=str(tmp_path / "pool"), jobs=2) == 0
        claims = logged_runs(log)
        assert {run_id for _, run_id in claims[:2]} == {"run-0001", "run-0003"}
        assert claims[2:] == [
            (parent, f"run-{i:04d}") for i in (5, 7, 0, 2, 4, 6)
        ]
        index = (tmp_path / "pool" / "index.tsv").read_text().splitlines()[1:]
        assert [line.split("\t")[0] for line in index] == [f"run-{i:04d}" for i in range(8)]

        # one job keeps the sweep order, in the caller alone
        log.unlink()
        log_run_single(monkeypatch, log, run=run_single)
        assert execute(config, output_dir=str(tmp_path / "serial"), jobs=1) == 0
        assert logged_runs(log) == [(parent, f"run-{i:04d}") for i in range(8)]

    @pytest.mark.parametrize(
        "initial, kind, code",
        [
            # h0 < 0 for each run: a warning line, and the runs are written
            ("family = polynomial_bump\nvelocity_amplitude = -0.7\n", "warning", 0),
            # a density that underflows to 0 on every grid: an error line, no run
            ("family = gaussian_truncated\nwidth = 1e-5\n", "error", 1),
        ],
        ids=["warning", "error"],
    )
    def test_every_jobs_prints_the_same_lines_in_run_id_order(
        self, tmp_path, capsys, initial, kind, code
    ):
        # the children report their runs' lines, which the caller prints
        text = SMALL_RUN.replace("family = polynomial_bump\n", initial)
        config = parse_config(text + "\n[sweep]\nn_cells = 64, 128, 256\n")
        err = {}
        for jobs in (1, 2, 3):
            assert execute(config, output_dir=str(tmp_path / f"jobs{jobs}"), jobs=jobs) == code
            err[jobs] = capsys.readouterr().err
        assert err[3] == err[2] == err[1]
        lines = err[1].splitlines()
        assert [line.split(": ", 2)[:2] for line in lines] == [
            [kind, f"run-{i:04d}"] for i in range(3)
        ]
        written = artifacts(tmp_path / "jobs1")
        assert artifacts(tmp_path / "jobs2") == artifacts(tmp_path / "jobs3") == written
        runs = {name.split("/")[0] for name in written if name.startswith("run-")}
        assert runs == ({"run-0000", "run-0001", "run-0002"} if code == 0 else set())

    def test_a_pooled_sweep_runs_every_run_once_however_large_its_outcomes(
        self, tmp_path, monkeypatch
    ):
        # 200 runs at --jobs 4, each outcome carrying 2 KiB: the caller waits
        # in its first run until the children have run the other 199, whose
        # outcomes (about 400 KiB) no pipe buffer would hold meanwhile
        gammas = ", ".join(str(1 + (i + 1) / 100) for i in range(200))
        config = parse_config(SMALL_RUN + f"\n[sweep]\ngamma = {gammas}\n")
        log = tmp_path / "log"
        parent = os.getpid()

        def stub(run_id, cfg, out_root):
            return {"run_id": run_id, "verdict": "confirmed", "termination": "reached_t_end",
                    "t_detect": None, "t_bound": 1.0, "h0": cfg.model.gamma,
                    "config_hash": "0" * 12, "lines": [], "padding": "x" * 2048}

        def before(run_id, first):
            if first and os.getpid() == parent:
                wait_until(lambda: len(logged_runs(log)) == 200)

        log_run_single(monkeypatch, log, before, run=stub)
        assert execute(config, output_dir=str(tmp_path / "out"), jobs=4) == 0
        claims = logged_runs(log)
        assert sorted(run_id for _, run_id in claims) == [f"run-{i:04d}" for i in range(200)]
        pids = [pid for pid, _ in claims]
        assert pids.count(parent) == 1 and len(set(pids)) <= 4
        rows = (tmp_path / "out" / "index.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[:2] for row in rows] == [
            [f"run-{i:04d}", "confirmed"] for i in range(200)
        ]

    def test_a_queue_longer_than_a_pipe_buffer_hands_out_each_task_once(
        self, tmp_path, monkeypatch
    ):
        # 20,000 tasks: 80 KB of queue, more than a pipe filled before the
        # fork could hold (64 KiB on Linux, 16 KiB on macOS)
        log = tmp_path / "log"
        log_run_single(monkeypatch, log, run=lambda run_id, *_: {"run_id": run_id, "lines": []})
        config = parse_config(SMALL_RUN)
        tasks = [(f"run-{i:05d}", config, str(tmp_path)) for i in range(20000)]
        outcomes = cli._forked(tasks, 3)
        assert [o["run_id"] for o in outcomes] == [task[0] for task in tasks]
        assert sorted(run_id for _, run_id in logged_runs(log)) == [task[0] for task in tasks]

    def test_a_killed_worker_fails_its_run_alone(self, tmp_path, monkeypatch, capsys):
        # the child is SIGKILLed in the first run it takes, while the caller
        # waits in its own first run; the caller then runs the other two
        log = tmp_path / "log"
        parent = os.getpid()

        def before(run_id, first):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            if first:
                wait_until(lambda: len({pid for pid, _ in logged_runs(log)}) == 2)

        log_run_single(monkeypatch, log, before)
        config = parse_config(SMALL_RUN + "\n[sweep]\nn_cells = 16, 32, 48, 64\n")
        started = time.monotonic()
        code = execute(config, output_dir=str(tmp_path / "out"), jobs=2)
        assert time.monotonic() - started < 60
        assert code == 1
        [(child, killed)] = [(pid, run_id) for pid, run_id in logged_runs(log) if pid != parent]
        assert capsys.readouterr().err == (
            f"error: {killed}: its worker process ended without reporting the run\n"
        )
        rows = dict(
            row.split("\t", 1)
            for row in (tmp_path / "out" / "index.tsv").read_text().splitlines()[1:]
        )
        assert rows[killed] == "\t".join(["failed"] + ["-"] * 5)
        others = {f"run-{i:04d}" for i in range(4)} - {killed}
        assert {run_id for run_id, row in rows.items() if row.split("\t")[0] != "failed"} == others
        assert {path.name for path in (tmp_path / "out").glob("run-*")} == others
        with pytest.raises(ChildProcessError):  # reaped: no zombie, no running child
            os.waitpid(child, os.WNOHANG)

    def test_an_interrupted_sweep_leaves_the_rest_of_its_queue(self, tmp_path, monkeypatch):
        # the caller is interrupted in its first run while the child waits in
        # its own; the child then finds the queue empty, takes none of the
        # four runs left and is reaped before the interrupt reaches the caller
        log, interrupted = tmp_path / "log", tmp_path / "interrupted"
        parent = os.getpid()

        def before(run_id, first):
            wait_until(lambda: len(logged_runs(log)) >= 2)
            if os.getpid() == parent:
                interrupted.touch()
                raise KeyboardInterrupt
            wait_until(interrupted.exists)
            time.sleep(1.0)  # the caller moves the queue to its end meanwhile

        log_run_single(monkeypatch, log, before)
        config = parse_config(SMALL_RUN + "\n[sweep]\nn_cells = 16, 24, 32, 40, 48, 56\n")
        with pytest.raises(KeyboardInterrupt):
            execute(config, output_dir=str(tmp_path / "out"), jobs=2)
        claims = logged_runs(log)
        assert len(claims) == 2
        [child] = {pid for pid, _ in claims} - {parent}
        with pytest.raises(ChildProcessError):
            os.waitpid(child, os.WNOHANG)
        assert not (tmp_path / "out" / "index.tsv").exists()

    def test_meta_reports_steps_dt_range_and_peak_memory(self, tmp_path):
        execute(parse_config(SMALL_RUN), output_dir=str(tmp_path))
        text = (tmp_path / "run-0000" / "meta.txt").read_text()
        meta = dict(line.split(": ", 1) for line in text.splitlines())
        assert set(meta) == {
            "started_unix", "elapsed_seconds", "steps", "dt_min", "dt_max", "peak_rss_kb",
            "kernel_target", "kernel_threads", "kernel_load_s", "build_s", "run_s",
            "diagnostics_s", "write_s",
        }
        assert meta["kernel_target"] == _kernel.target()
        assert meta["kernel_threads"] == str(_kernel.threads(64)) == "1"  # 64 cells never split
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

    def test_a_state_answering_several_snapshot_times_is_formatted_once(
        self, tmp_path, monkeypatch
    ):
        # the run ends at t = 0.2, before 0.5 and 0.9: its final state answers both
        text = SMALL_RUN.replace("snapshot_times = 0.1", "snapshot_times = 0.5, 0.1, 0.9")
        widths = []

        def counted(columns, _format=_kernel.format_rows):
            widths.append(len(columns))
            return _format(columns)

        monkeypatch.setattr(_kernel, "format_rows", counted)
        run_single("run-0000", parse_config(text), str(tmp_path))
        # one 64-row block for each of the two states, beside the series' blocks
        assert widths.count(3) == 2
        run_dir = tmp_path / "run-0000"
        final = (run_dir / "snapshot-0.5.tsv").read_bytes()
        assert (run_dir / "snapshot-0.9.tsv").read_bytes() == final
        t_final = read_summary(run_dir)["t_final"]
        assert final.splitlines()[1] == f"# time = {t_final}".encode()
        assert (run_dir / "snapshot-0.1.tsv").read_bytes() != final

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


def test_readme_outputs_name_every_artifact_key(tmp_path):
    # every key a run writes, and every ending and scope flag, is named in
    # backticks in the README's Outputs and Verdicts sections
    readme = Path(__file__).resolve().parents[1] / "README.md"
    sections = readme.read_text(encoding="utf-8").split("\n## ")
    text = "\n".join(s for s in sections if s.startswith(("Outputs\n", "Verdicts\n")))
    assert execute(parse_config(SMALL_RUN), output_dir=str(tmp_path), jobs=1) == 0

    def keys(path):
        return [line.split(": ", 1)[0] for line in path.read_text().splitlines()]

    run_dir = tmp_path / "run-0000"
    index_columns = (tmp_path / "index.tsv").read_text().splitlines()[0].split("\t")
    every_flag = bound_scope(-1.0, ModelConfig(delta=-1))
    pinned = {
        "summary.txt": keys(run_dir / "summary.txt"),
        "meta.txt": keys(run_dir / "meta.txt"),
        "series.tsv": [f.metadata["column"] for f in fields(DiagnosticsSeries)],
        "index.tsv": index_columns,
        "Termination": [ending.value for ending in solver.Termination],
        "Verdict": [verdict.value for verdict in Verdict],
        "BoundScope": list(every_flag.flags),
    }
    assert len(pinned["BoundScope"]) == 2
    missing = {
        source: [key for key in names if f"`{key}`" not in text]
        for source, names in pinned.items()
    }
    assert missing == {source: [] for source in pinned}


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    # every python block of the README, each in a fresh namespace, from an
    # empty working directory
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out


def test_readme_quick_start_runs_as_written(tmp_path):
    # the Quick start's two config documents, the bump and the bump with its
    # [sweep] appended, and its three commands as the console runs them from
    # an empty working directory: each exits 0 with the numbers README states
    readme = Path(__file__).resolve().parents[1] / "README.md"
    quick = readme.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    quick = quick.split("\n## ", 1)[0]
    bump, sweep = re.findall(r"^```ini\n(.*?)^```$", quick, flags=re.S | re.M)
    (tmp_path / "bump.cfg").write_text(bump)
    (tmp_path / "sweep.cfg").write_text(bump + "\n" + sweep)
    (commands,) = re.findall(r"^```sh\n(.*?)^```$", quick, flags=re.S | re.M)
    printed = []
    for line in commands.splitlines():
        program, *args = shlex.split(line, comments=True)
        assert program == "radialblowup"
        proc, out, err = run_console(*args, cwd=tmp_path)
        assert (proc.returncode, err) == (0, "")
        printed.append(out)
    assert len(printed) == 3 and "bound_applicable=True" in printed[0]
    summary = read_summary(tmp_path / "out" / "run-0000")
    assert summary["verdict"] == "confirmed"
    assert round(float(summary["t_detect"]), 3) == 0.956
    assert round(float(summary["t_bound"])) == 6
    rows = (tmp_path / "ladder" / "index.tsv").read_text().splitlines()[1:]
    assert [row.split("\t")[1] for row in rows] == ["confirmed"] * 3


def test_cli_import_leaves_out_the_pool_and_the_compiler_runner(tmp_path):
    # a cached kernel needs no compiler, and a pooled sweep forks its workers
    # itself: neither multiprocessing nor concurrent.futures is loaded
    (tmp_path / "sweep.cfg").write_text(SMALL_RUN + "\n[sweep]\ndelta = 0, 1\n")
    code = (
        "import sys, radialblowup.cli as cli; "
        "print('subprocess' in sys.modules); "
        "code = cli.main(['sweep', 'sweep.cfg', '--jobs', '2', '--output-dir', 'out']); "
        "print(code, [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.splitlines() == ["False", "0 []"]


@pytest.mark.parametrize("chosen, kept", [(None, "1"), ("3", "3")])
def test_the_import_asks_one_openblas_thread_unless_the_caller_chose(chosen, kept):
    # the package calls no BLAS routine: a fresh interpreter that imports it
    # runs OpenBLAS on one thread, and keeps a count its caller set
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if chosen is not None:
        env["OPENBLAS_NUM_THREADS"] = chosen
    code = "import os, radialblowup; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == kept


class TestMain:
    def test_run_command(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN)
        code = main(["run", str(cfg_file), "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "run-0000" / "summary.txt").exists()

    def test_a_run_into_an_earlier_run_directory_leaves_only_its_own_snapshots(self, tmp_path):
        # the earlier config's snapshot goes; a file the run does not write stays
        run_dir = tmp_path / "out" / "run-0000"
        run_dir.mkdir(parents=True)
        (run_dir / "notes.txt").write_text("kept")
        for times in ("0.1", "0.15"):
            cfg_file = tmp_path / f"exp-{times}.cfg"
            cfg_file.write_text(SMALL_RUN.replace("snapshot_times = 0.1", f"snapshot_times = {times}"))
            assert main(["run", str(cfg_file), "--output-dir", str(run_dir.parent)]) == 0
        assert [p.name for p in run_dir.glob("snapshot-*")] == ["snapshot-0.15.tsv"]
        assert (run_dir / "notes.txt").read_text() == "kept"

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
        laws = ((0, 1.4), (0.1, 2))
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
            expected = delta >= 0 and float(summary["h0"]) > 0
            assert printed["bound_applicable"] == str(expected), case

    def test_check_refuses_inadmissible_data_as_run_does(self, tmp_path, capsys):
        # a negative density, or none at all, is refused at parse time, with
        # its key, by every command, and nothing is written
        cfg_file = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        for amplitude in ("-1", "0"):
            cfg_file.write_text(
                SMALL_RUN.replace("family = polynomial_bump",
                                  f"family = polynomial_bump\ndensity_amplitude = {amplitude}")
            )
            message = f"error: initial.density_amplitude must be > 0, got {float(amplitude)!r}\n"
            for command in ("check", "run", "sweep"):
                where = [] if command == "check" else ["--output-dir", str(out)]
                assert main([command, str(cfg_file), *where]) == 1
                assert capsys.readouterr() == ("", message)
        assert not out.exists()

    def test_a_radius_too_small_for_its_cells_is_refused_with_its_key(self, tmp_path, capsys):
        # cells whose weights underflow once ended run in a ZeroDivisionError
        # (1e-170) or a breakdown at t = 0 (1e-120) with an index.tsv left,
        # and check printed h0=0: now every command refuses the config at
        # parse time, naming the key, and writes nothing. A sweep entry of
        # too many cells for its radius is refused as well
        cfg_file = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        for radius, sweep in (("1e-170", ""), ("1e-120", ""), ("1e-100", "n_cells = 64, 128")):
            text = SMALL_RUN.replace("support_radius = 1", f"support_radius = {radius}")
            cells = 64
            if sweep:
                text += f"\n[sweep]\n{sweep}\n"
                cells = 128
            cfg_file.write_text(text)
            message = (
                f"error: {'sweep: ' if sweep else ''}model.support_radius = {float(radius)!r} "
                f"is too small for {cells} cells: their least weight (dr/2)**3/3 must be a "
                "normal double\n"
            )
            for command in ("check", "run", "sweep"):
                where = [] if command == "check" else ["--output-dir", str(out)]
                assert main([command, str(cfg_file), *where]) == 1
                assert capsys.readouterr() == ("", message)
        assert not out.exists()

    @pytest.mark.parametrize("command, jobs", [("run", 1), ("sweep", 2)])
    def test_data_refused_at_run_time_leave_one_error_line_and_no_run_directory(
        self, tmp_path, capsys, command, jobs
    ):
        # each passes the parse-time rules: a gaussian narrower than a cell,
        # whose density underflows to 0 on the grid; a finite velocity whose
        # H0 overflows; a radius whose cube overflows. The sweep's two runs
        # go through the process pool
        bump = "family = polynomial_bump"
        cases = {
            "density must be positive in some cell": [
                ("n_cells = 64", "n_cells = 256"),
                (bump, "family = gaussian_truncated\nwidth = 1e-5"),
            ],
            "H0 must be finite": [(bump, "family = random_smooth\nvelocity_amplitude = 1.7e308")],
            "the support radius must have a finite cube": [
                ("support_radius = 1", "support_radius = 1e103"),
            ],
        }
        run_ids = ["run-0000"] + (["run-0001"] if command == "sweep" else [])
        for rule, edits in cases.items():
            text = SMALL_RUN
            for old, new in edits:
                text = text.replace(old, new)
            if command == "sweep":
                text += "\n[sweep]\ndelta = 0, 1\n"
            cfg_file = tmp_path / "exp.cfg"
            cfg_file.write_text(text)
            reason = f"inadmissible initial data: {rule}"
            assert main(["check", str(cfg_file)]) == 1
            assert capsys.readouterr() == ("", f"error: {reason}\n")
            out = tmp_path / rule
            assert main([command, str(cfg_file), "--output-dir", str(out), "--jobs", str(jobs)]) == 1
            assert capsys.readouterr() == ("", "".join(f"error: {r}: {reason}\n" for r in run_ids))
            assert [path.name for path in out.iterdir()] == ["index.tsv"]
            rows = (out / "index.tsv").read_text().splitlines()[1:]
            assert rows == ["\t".join([r, "failed"] + ["-"] * 5) for r in run_ids]

    def test_a_velocity_whose_h_squared_overflows_still_ends_as_its_summary_says(
        self, tmp_path, capsys
    ):
        # H0 is about 8e298: h**2 of the Cauchy-Schwarz gap overflows, which
        # once raised OverflowError and ended in a traceback and a failed row
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            SMALL_RUN.replace("family = polynomial_bump",
                              "family = polynomial_bump\nvelocity_amplitude = 1e300")
        )
        out = tmp_path / "out"
        code = main(["run", str(cfg_file), "--output-dir", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        summary = read_summary(out / "run-0000")
        row = (out / "index.tsv").read_text().splitlines()[1].split("\t")
        assert row[:3] == ["run-0000", summary["verdict"], summary["termination"]]
        assert row[1] != "failed"
        assert code == exit_status(
            [{"verdict": summary["verdict"], "termination": summary["termination"]}]
        )

    def test_an_output_directory_that_is_a_file_gives_one_error_line_per_run(
        self, tmp_path, capsys
    ):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(cfg_file), "--output-dir", str(taken)]) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        run_line, index_line = printed.err.splitlines()
        assert run_line.startswith("error: run-0000: [Errno ")
        assert str(taken / "run-0000") in run_line
        assert index_line.startswith("error: cannot write to output directory: ")
        assert taken.read_text() == ""

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
            ("[sweep]\ngamma = 0.5", r"sweep: gamma must be > 1"),
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


def run_console(*args: str, cwd=None) -> tuple:
    """``python -m radialblowup.cli`` in its own session, from ``cwd`` (this
    process's working directory by default), with stdout and stderr on
    pipes: (process, stdout, stderr). PYTHONUNBUFFERED is unset, so
    stdout is block-buffered and a line left unflushed at ``os._exit`` would
    be lost. A process left holding the pipes is killed with its group."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    with subprocess.Popen(
        [sys.executable, "-m", "radialblowup.cli", *args], cwd=cwd, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return proc, out, err


def artifacts(root) -> dict:
    """The bytes of every file under ``root`` but meta.txt (wall-clock data),
    by relative path."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file() and path.name != "meta.txt"
    }


SWEEP_OF_FOUR = SMALL_RUN + "\n[sweep]\nn_cells = 32, 64\ndelta = 0, 1\n"


class TestConsole:
    """The command line, ``python -m radialblowup.cli``, ends with ``os._exit``
    after ``main``: all that ``main`` prints, writes and returns must arrive."""

    def test_check_prints_every_line_and_exits_0(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SWEEP_OF_FOUR)
        proc, out, err = run_console("check", str(cfg_file))
        assert main(["check", str(cfg_file)]) == 0
        assert (proc.returncode, out, err) == (0, capsys.readouterr().out, "")
        assert len(out.splitlines()) == 4

    def test_a_bad_config_exits_1_with_its_one_error_line(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("[model]\ngamma = 0.2\n")
        out_dir = tmp_path / "out"
        proc, out, err = run_console("run", str(cfg_file), "--output-dir", str(out_dir))
        assert (proc.returncode, out) == (1, "")
        assert re.fullmatch(r"error: model\.gamma must be > 1, got 0\.2\n", err)
        assert not out_dir.exists()

    def test_a_violated_run_exits_2_with_the_artifacts_of_main(self, tmp_path):
        # the 256-cell golden bump, whose verdict is violated
        cfg_file = tmp_path / "golden.cfg"
        cfg_file.write_text(GOLDEN_RUN.format(n_cells=256, stride=3, **DUST))
        proc, out, err = run_console("run", str(cfg_file), "--output-dir", str(tmp_path / "cli"))
        assert (proc.returncode, out, err) == (2, "", "")
        assert main(["run", str(cfg_file), "--output-dir", str(tmp_path / "main")]) == 2
        written = artifacts(tmp_path / "cli")
        assert written == artifacts(tmp_path / "main")
        # the golden digests were taken of a run named "golden"
        summary = written["run-0000/summary.txt"]
        written["run-0000/summary.txt"] = summary.replace(b"run-0000", b"golden", 1)
        digests = {
            name: hashlib.sha256(written[f"run-0000/{name}"]).hexdigest()
            for name in GOLDEN_256_SHA256
        }
        assert digests == GOLDEN_256_SHA256

    def test_a_pooled_sweep_exits_0_and_leaves_no_process(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SWEEP_OF_FOUR)
        proc, out, err = run_console(
            "sweep", str(cfg_file), "--jobs", "2", "--output-dir", str(tmp_path / "cli")
        )
        assert (proc.returncode, out, err) == (0, "", "")
        # the children are reaped before main returns, and no helper process
        # is started: nothing of the command may be left once it has ended
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            pass
        else:
            os.killpg(proc.pid, signal.SIGKILL)
            pytest.fail("a process of the sweep outlived it")
        args = ["sweep", str(cfg_file), "--jobs", "2", "--output-dir", str(tmp_path / "main")]
        assert main(args) == 0
        written = artifacts(tmp_path / "cli")
        assert written == artifacts(tmp_path / "main")
        assert [line.split("\t")[0] for line in written["index.tsv"].decode().splitlines()] == [
            "run_id", "run-0000", "run-0001", "run-0002", "run-0003",
        ]


class TestConsoleContract:
    @pytest.fixture
    def exit_refused(self, monkeypatch):
        """``os._exit`` fails in this process; a forked pool worker, which
        leaves through it, still may."""
        real_exit, pid = os._exit, os.getpid()

        def refused(code):
            if os.getpid() != pid:
                real_exit(code)
            raise AssertionError(f"os._exit({code}) in the calling process")

        monkeypatch.setattr(os, "_exit", refused)

    @pytest.mark.parametrize(
        "command, text, where",
        [
            ("run", SMALL_RUN, True),
            ("sweep", SWEEP_OF_FOUR, True),
            ("check", SMALL_RUN, False),
        ],
    )
    def test_main_returns_its_code(self, tmp_path, exit_refused, command, text, where):
        # bench/tracer.py calls main and writes its spans after it returns
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(text)
        args = [command, str(cfg_file)]
        if where:
            args += ["--output-dir", str(tmp_path / "out"), "--jobs", "2"]
        assert main(args) == 0

    def test_console_flushes_both_streams_then_ends_the_process(self, monkeypatch):
        events = []

        class Stream:
            def __init__(self, name):
                self.name = name

            def flush(self):
                events.append(f"flush {self.name}")

        class Ended(Exception):
            pass

        def ended(code):
            events.append(f"exit {code}")
            raise Ended

        monkeypatch.setattr(cli, "main", lambda: events.append("main") or 3)
        monkeypatch.setattr(sys, "stdout", Stream("stdout"))
        monkeypatch.setattr(sys, "stderr", Stream("stderr"))
        monkeypatch.setattr(os, "_exit", ended)
        with pytest.raises(Ended):
            cli.console()
        assert events == ["main", "flush stdout", "flush stderr", "exit 3"]

    def test_console_exits_as_main_would_when_main_raises_or_a_flush_fails(
        self, monkeypatch, capsys
    ):
        def refused(code):
            raise AssertionError(f"os._exit({code})")

        monkeypatch.setattr(os, "_exit", refused)
        # argparse's usage error leaves console as it left main
        monkeypatch.setattr(sys, "argv", ["radialblowup", "frobnicate"])
        with pytest.raises(SystemExit) as exited:
            cli.console()
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

        # a flush that fails is left to the interpreter's own exit to report
        class Full:
            def flush(self):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "main", lambda: 0)
        monkeypatch.setattr(sys, "stdout", Full())
        with pytest.raises(SystemExit) as exited:
            cli.console()
        assert exited.value.code == 0


# 4096 cells, at or above _kernel.SPLIT_CELLS, for 26 steps
SPLIT_RUN = SMALL_RUN.replace("n_cells = 64", "n_cells = 4096").replace(
    "t_end = 0.2", "t_end = 0.01"
)


def kernel_threads(run_dir) -> str:
    """The ``kernel_threads`` line of a run's meta.txt."""
    lines = Path(run_dir, "meta.txt").read_text().splitlines()
    meta = dict(line.split(": ", 1) for line in lines)
    return meta["kernel_threads"]


class TestKernelThreads:
    """A run steps on two threads where ``_kernel.threads`` says so, and
    writes the bytes of one thread wherever it runs."""

    def test_a_sweep_forked_after_a_split_step_writes_what_one_process_writes(self, tmp_path):
        # the helper runs in this process when the sweep forks: the kernel
        # stops it first, and each process starts its own
        grid = RadialGrid(n_cells=4096, support_radius=1.0)
        r = grid.cell_centers
        state = model.FluidState(0.0, (1.0 - r**2) ** 2, r * (1.0 - r))
        _, bad = _kernel.Plan(grid, ModelConfig(), 2).tendencies(state, 4094, 0.0)
        assert bad == -1
        config = parse_config(SPLIT_RUN + "\n[sweep]\ndelta = 0, 1\n")
        assert execute(config, output_dir=str(tmp_path / "two"), jobs=2) == 0
        assert execute(config, output_dir=str(tmp_path / "one"), jobs=1) == 0
        assert artifacts(tmp_path / "two") == artifacts(tmp_path / "one")
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        for jobs in ("one", "two"):
            split = cpus >= (2 if jobs == "one" else 4)
            for run in ("run-0000", "run-0001"):
                assert kernel_threads(tmp_path / jobs / run) == ("2" if split else "1")

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_a_run_on_one_cpu_writes_the_bytes_of_a_run_on_all(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SPLIT_RUN)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        one_cpu = (
            f"import os, sys; os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}}); "
            "from radialblowup.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        for launcher, out in ((["-c", one_cpu], "one"), (["-m", "radialblowup.cli"], "all")):
            subprocess.run([sys.executable, *launcher, "run", str(cfg_file), "--output-dir",
                            str(tmp_path / out)], env=env, check=True, timeout=60)
        assert artifacts(tmp_path / "one") == artifacts(tmp_path / "all")
        assert kernel_threads(tmp_path / "one" / "run-0000") == "1"
        assert kernel_threads(tmp_path / "all" / "run-0000") == str(_kernel.threads(4096))
