"""Experiment runner: config ingestion, sweeps, and flat-file artifact output.

Configs are strict INI-style documents with sections [model], [numerics],
[initial], [sweep] and [output]. All floating-point output is emitted with
17 significant digits; wall-clock metadata is segregated into meta.txt so
summary and series files are byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

from . import _kernel
from .diagnostics import Verdict, bound_scope
from .model import ModelConfig, RadialGrid, validate_initial_data, wall_index
from .profiles import FAMILY_PARAMS, build_initial_profile, family_params
from .solver import NumericsConfig, RunResult, Termination, run


class ConfigError(ValueError):
    """Config document rejected; message carries line information when known."""


def _fmt(value) -> str:
    """Render a value for output files: floats to 17 significant digits, None
    as n/a, a tuple of names comma-joined (none when empty)."""
    if value is None:
        return "n/a"
    if isinstance(value, tuple):
        return ",".join(value) or "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def snapshot_name(time: float) -> str:
    """The file name of the snapshot requested at ``time``."""
    return f"snapshot-{time:.6g}.tsv"


@dataclass(frozen=True)
class ProfileConfig:
    family: str
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "params", family_params(self.family, self.params))


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    numerics: NumericsConfig
    n_cells: int
    snapshot_times: tuple
    initial: ProfileConfig
    seed: int
    sweep: Optional[dict]
    # invocation context, not part of the experiment's identity
    output_dir: str = field(compare=False, default="runs")

    def __post_init__(self):
        try:  # the grid's own rule, named by its config key
            RadialGrid(self.n_cells, self.model.support_radius)
        except ValueError as exc:
            raise ValueError(f"numerics.{exc}") from None
        if self.seed < 0:
            raise ValueError(f"initial.seed must be >= 0, got {self.seed}")
        # one file per time: a second time with the same name would overwrite it
        written: dict = {}
        for t in self.snapshot_times:
            name = snapshot_name(t)
            if math.copysign(1.0, t) < 0:  # -0 too: it would name snapshot--0.tsv
                raise ConfigError(f"numerics.snapshot_times: {t!r} is negative")
            if name in written:
                raise ConfigError(
                    f"numerics.snapshot_times: {written[name]!r} and {t!r} would both "
                    f"be written to {name}"
                )
            written[name] = t
        margin = self.numerics.support_margin_cells
        try:
            wall_index(self.n_cells, margin)
        except ValueError:
            raise ConfigError(
                f"numerics.support_margin_cells = {margin} does not fit "
                f"n_cells = {self.n_cells}: it must be in [1, n_cells)"
            ) from None
        if self.sweep is not None:
            for key, values in self.sweep.items():
                if len(values) == 0:
                    raise ValueError(f"sweep.{key} must be a non-empty list")
            # every entry passes the checks of a config
            try:
                expand_sweep(self)
            except ValueError as exc:
                raise ConfigError(f"sweep: {exc}") from None


def _items(obj) -> list[tuple[str, object]]:
    """(name, value) of each field of a config dataclass, in declaration order."""
    return [(f.name, getattr(obj, f.name)) for f in fields(obj)]


# a key's kind is the type of its field's default; a 1-tuple is a comma list
_MODEL = {f.name: type(f.default) for f in fields(ModelConfig)}
_NUMERICS = {
    "n_cells": int,
    **{f.name: type(f.default) for f in fields(NumericsConfig)},
    "snapshot_times": (float,),
}
_SWEEPABLE = ("delta", "pressure_const", "gamma", "n_cells")
_SCHEMA = {
    "model": _MODEL,
    "numerics": _NUMERICS,
    "initial": {
        "family": str,
        "seed": int,
        **{k: type(v) for params in FAMILY_PARAMS.values() for k, v in params.items()},
    },
    "sweep": {key: ((_MODEL | _NUMERICS)[key],) for key in _SWEEPABLE},
    "output": {"dir": str},
}


def _convert(raw: str, kind, where: str):
    """Parse one INI value; every float, in a list too, must be finite."""
    try:
        if isinstance(kind, tuple):
            value = tuple(kind[0](s.strip()) for s in raw.split(",") if s.strip())
        else:
            value = kind(raw)
    except ValueError:
        label = f"{kind[0].__name__}_list" if isinstance(kind, tuple) else kind.__name__
        raise ConfigError(f"{where}: cannot parse '{raw}' as {label}") from None
    items = value if isinstance(kind, tuple) else (value,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in items):
        raise ConfigError(f"{where}: '{raw}' is not a finite number")
    return value


def _scan(text: str) -> dict:
    """Tokenize the document into {section: {key: (raw, line)}}; an unknown
    section or key raises."""
    sections: dict = {}
    seen: dict = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            sections.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in section [{section}]")
        if (section, key) in seen:
            first = seen[(section, key)]
            raise ConfigError(
                f"duplicate key '{key}' in section [{section}] "
                f"(lines {first} and {lineno})"
            )
        seen[(section, key)] = lineno
        sections.setdefault(section, {})[key] = (raw, lineno)
    return sections


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config document, every sweep entry too.

    Unknown sections or keys are rejected, and duplicate keys with both
    their line numbers. Semantic violations name the offending field.
    """
    sections = _scan(text)

    def values(section: str) -> dict:
        out = {}
        for key, (raw, lineno) in sections.get(section, {}).items():
            out[key] = _convert(raw, _SCHEMA[section][key], f"line {lineno}: {section}.{key}")
        return out

    model_kw = values("model")
    try:
        model = ModelConfig(**model_kw)
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from None

    num_kw = values("numerics")
    n_cells = num_kw.pop("n_cells", 256)
    snapshot_times = num_kw.pop("snapshot_times", ())
    try:
        numerics = NumericsConfig(**num_kw)
    except ValueError as exc:
        raise ConfigError(f"numerics.{exc}") from None

    init_kw = values("initial")
    family = init_kw.pop("family", "polynomial_bump")
    seed = init_kw.pop("seed", 0)
    try:
        initial = ProfileConfig(family=family, params=init_kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    sweep = values("sweep") or None
    output_dir = values("output").get("dir", "runs")

    try:
        return ExperimentConfig(
            model=model,
            numerics=numerics,
            n_cells=n_cells,
            snapshot_times=tuple(snapshot_times),
            initial=initial,
            seed=seed,
            sweep=sweep,
            output_dir=output_dir,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config_file(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def resolved_config_text(config: ExperimentConfig) -> str:
    """Render a sweep-free config that re-parses to the same ExperimentConfig."""
    if config.sweep is not None:
        raise ValueError("resolved configs must be sweep-free")
    lines = ["[model]"]
    lines += [f"{k} = {_fmt(v)}" for k, v in _items(config.model)]
    lines += ["", "[numerics]", f"n_cells = {config.n_cells}"]
    lines += [f"{k} = {_fmt(v)}" for k, v in _items(config.numerics)]
    if config.snapshot_times:
        joined = ", ".join(_fmt(t) for t in config.snapshot_times)
        lines.append(f"snapshot_times = {joined}")
    lines += [
        "",
        "[initial]",
        f"family = {config.initial.family}",
        f"seed = {config.seed}",
    ]
    for key in sorted(config.initial.params):
        lines.append(f"{key} = {_fmt(config.initial.params[key])}")
    lines.append("")
    return "\n".join(lines)


def config_hash(resolved_text: str) -> str:
    """The short digest of a config's ``resolved_config_text``."""
    return _kernel.sha256_hex(resolved_text.encode("utf-8"))[:12]


def expand_sweep(config: ExperimentConfig) -> list[tuple[str, ExperimentConfig]]:
    """Materialize the cartesian product of sweep lists as (run_id, config) pairs."""
    if config.sweep is None:
        return [("run-0000", replace(config, sweep=None))]
    keys = [k for k in _SWEEPABLE if k in config.sweep]
    combos = list(itertools.product(*(config.sweep[k] for k in keys)))
    runs = []
    for index, combo in enumerate(combos):
        model_kw = {}
        n_cells = config.n_cells
        for key, value in zip(keys, combo):
            if key == "n_cells":
                n_cells = value
            else:
                model_kw[key] = value
        model = replace(config.model, **model_kw)
        runs.append(
            (
                f"run-{index:04d}",
                replace(config, model=model, n_cells=n_cells, sweep=None),
            )
        )
    return runs


def build_run_fields(config: ExperimentConfig):
    """Grid plus initial fields for one resolved run."""
    grid = RadialGrid(n_cells=config.n_cells, support_radius=config.model.support_radius)
    profile = build_initial_profile(
        config.initial.family,
        config.initial.params,
        config.seed,
        grid,
        config.numerics.support_margin_cells,
    )
    return grid, profile


def _write_table(path: Path, header: list[str], columns: list) -> None:
    """The header lines, then each row of the float64 columns with every
    value to 17 significant digits, written a block of rows at a time."""
    # %-formatting of plain floats gives the digits of f"{v:.17g}" in half
    # the time; blocks keep the text and the floats of a whole table from
    # being held at once
    row = "\t".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as out:
        out.write("".join(line + "\n" for line in header))
        for lo in range(0, len(columns[0]), 1024):
            block = zip(*(column[lo : lo + 1024].tolist() for column in columns))
            out.write("".join(row % values for values in block))


def _write_series(path: Path, result: RunResult) -> None:
    _write_table(
        path,
        ["t\tH\tmass\tenergy_lhs\triccati_residual\tenvelope\tcauchy_gap\tmax_abs_dVdr"],
        [getattr(result.series, f.name) for f in fields(result.series)],
    )


def _write_summary(
    path: Path, run_id: str, config: ExperimentConfig, digest: str, result: RunResult
) -> None:
    r = result.report
    pairs = [
        ("run_id", run_id),
        ("config_hash", digest),
        ("verdict", r.verdict.value),
        ("bound_applicable", r.scope.applicable),
        ("t_bound", r.scope.t_bound),
        ("t_detect", r.t_detect),
        ("h0", r.scope.h0),
        ("t_final", r.t_final),
        ("termination", r.termination),
        ("envelope_ok", r.envelope_ok),
        ("envelope_tolerance_rel", r.envelope_tolerance),
        ("mass_drift_rel", r.mass_drift_rel),
        ("scope_flags", r.scope.flags),
        ("blowup_definition", r.blowup_definition),
        ("n_cells", config.n_cells),
        *_items(config.model),
        ("family", config.initial.family),
        ("seed", config.seed),
        *_items(config.numerics),
    ]
    path.write_text(
        "\n".join(f"{k}: {_fmt(v)}" for k, v in pairs) + "\n", encoding="utf-8"
    )


def _write_snapshots(run_dir: Path, config: ExperimentConfig, result: RunResult, grid) -> None:
    for wanted, state in zip(config.snapshot_times, result.trajectory.snapshots):
        _write_table(
            run_dir / snapshot_name(wanted),
            ["r\trho\tV", f"# time = {state.time:.17g}"],
            [grid.cell_centers, state.rho, state.vel],
        )


def run_single(run_id: str, config: ExperimentConfig, out_root: str) -> dict:
    """Execute one resolved run and write its artifact files."""
    # elapsed_seconds and the phase times are read off one monotonic clock
    started, t_begin = time.time(), time.perf_counter()
    run_dir = Path(out_root) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    t_build = time.perf_counter()
    grid, profile = build_run_fields(config)
    # the kernel is compiled or opened once per process: later runs wait 0 s
    t_load = time.perf_counter()
    kernel_target = _kernel.target()
    t_run = time.perf_counter()
    result = run(
        profile.rho0, profile.v0, config.model, config.numerics,
        config.snapshot_times,
    )
    t_ran = time.perf_counter()
    rep = result.report
    if "h0_not_positive" in rep.scope.flags:
        print(
            f"warning: {run_id}: h0 = {rep.scope.h0:.6g} is not positive; "
            "bound verdict will be not_applicable",
            file=sys.stderr,
        )
    broke = result.trajectory.breakdown
    if broke is not None:
        print(
            f"warning: {run_id}: non-finite {broke.field} tendency at cell "
            f"{broke.cell_index} (r = {broke.radius:.6g}) at t = {rep.t_final:.6g}",
            file=sys.stderr,
        )
    t_write = time.perf_counter()
    resolved = resolved_config_text(config)
    digest = config_hash(resolved)
    _write_series(run_dir / "series.tsv", result)
    _write_summary(run_dir / "summary.txt", run_id, config, digest, result)
    (run_dir / "resolved-config.txt").write_text(resolved, encoding="utf-8")
    _write_snapshots(run_dir, config, result, grid)
    t_end = time.perf_counter()
    trajectory = result.trajectory
    dt_min, dt_max = trajectory.dt_range or (None, None)
    # the peak of this process so far: in KiB on Linux, in bytes on macOS
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak_rss //= 1024
    (run_dir / "meta.txt").write_text(
        f"started_unix: {started:.3f}\nelapsed_seconds: {t_end - t_begin:.3f}\n"
        f"steps: {trajectory.steps}\ndt_min: {_fmt(dt_min)}\ndt_max: {_fmt(dt_max)}\n"
        f"peak_rss_kb: {peak_rss}\nkernel_target: {kernel_target}\n"
        f"kernel_load_s: {t_run - t_load:.6f}\nbuild_s: {t_load - t_build:.6f}\n"
        f"run_s: {t_ran - t_run:.6f}\ndiagnostics_s: {trajectory.diagnostics_s:.6f}\n"
        f"write_s: {t_end - t_write:.6f}\n",
        encoding="utf-8",
    )
    return {
        "run_id": run_id,
        "verdict": rep.verdict.value,
        "termination": rep.termination,
        "t_detect": rep.t_detect,
        "t_bound": rep.scope.t_bound,
        "h0": rep.scope.h0,
        "config_hash": digest,
    }


def ProcessPoolExecutor(max_workers: int):
    """A process pool, whose module is imported only when a sweep builds one."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _run_entry(args: tuple) -> dict:
    return run_single(*args)


def exit_status(outcomes: list[dict]) -> int:
    """Exit-code contract: 2 if any verdict is violated, 1 on any runtime
    failure (a crashed run, a positivity violation or a numerical breakdown),
    0 otherwise."""
    if any(o.get("verdict") == Verdict.VIOLATED.value for o in outcomes):
        return 2
    failures = (Termination.POSITIVITY_VIOLATED.value, Termination.NUMERICAL_BREAKDOWN.value)
    if any(o.get("failed") or o.get("termination") in failures for o in outcomes):
        return 1
    return 0


def execute(
    config: ExperimentConfig, output_dir: Optional[str] = None, jobs: int = 1
) -> int:
    """Run every sweep entry, write the summary index, and return the exit code.

    The pool has ``min(jobs, number of runs)`` workers and takes the runs
    with the most cells first; ``jobs`` below 1 is an error."""
    if jobs < 1:
        print(f"error: --jobs must be at least 1, got {jobs}", file=sys.stderr)
        return 1
    out_root = output_dir if output_dir is not None else config.output_dir
    tasks = [(run_id, cfg, out_root) for run_id, cfg in expand_sweep(config)]

    outcomes: list[dict] = []
    with contextlib.ExitStack() as stack:
        if jobs > 1 and len(tasks) > 1:
            # the largest runs first, so no worker is left with two long ones last
            tasks.sort(key=lambda task: task[1].n_cells, reverse=True)
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=min(jobs, len(tasks))))
            results = [pool.submit(_run_entry, task).result for task in tasks]
        else:
            results = [functools.partial(_run_entry, task) for task in tasks]
        for task, result in zip(tasks, results):
            try:
                outcomes.append(result())
            except Exception:
                traceback.print_exc()
                outcomes.append({"run_id": task[0], "failed": True})

    columns = ("run_id", "verdict", "termination", "t_detect", "t_bound", "h0", "config_hash")
    index_lines = ["\t".join(columns)]
    for o in sorted(outcomes, key=lambda d: d["run_id"]):
        if o.get("failed"):
            index_lines.append("\t".join([o["run_id"], "failed"] + ["-"] * (len(columns) - 2)))
        else:
            index_lines.append("\t".join(_fmt(o[k]) for k in columns))
    try:
        root = Path(out_root)
        root.mkdir(parents=True, exist_ok=True)
        (root / "index.tsv").write_text("\n".join(index_lines) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write to output directory: {exc}", file=sys.stderr)
        return 1
    return exit_status(outcomes)


def check(config: ExperimentConfig) -> int:
    """Validate the config and initial data without stepping; print findings.

    Inadmissible initial data raise ValueError, as in ``run``."""
    for run_id, resolved in expand_sweep(config):
        grid, profile = build_run_fields(resolved)
        h0 = validate_initial_data(
            profile.rho0, profile.v0, grid, resolved.numerics.support_margin_cells
        )
        scope = bound_scope(h0, resolved.model)
        t_bound = "n/a" if scope.t_bound is None else f"{scope.t_bound:.6g}"
        print(
            f"{run_id}: n_cells={resolved.n_cells} delta={resolved.model.delta} "
            f"pressure_const={resolved.model.pressure_const:g} "
            f"gamma={resolved.model.gamma:g} family={resolved.initial.family} "
            f"h0={scope.h0:.6g} t_bound={t_bound} bound_applicable={scope.applicable} "
            f"scope_flags={_fmt(scope.flags)}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="radialblowup",
        description=(
            "Radial compressible flow solver with finite-time blowup diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute a single-run config"),
        ("sweep", "execute every entry of a parameter sweep"),
        ("check", "validate a config without running"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the config document")
        if name != "check":
            p.add_argument("--output-dir", default=None, help="override [output] dir")
            p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    args = parser.parse_args(argv)

    try:
        config = parse_config_file(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "check":
        try:
            return check(config)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.command == "run" and config.sweep is not None:
        print(
            "error: config contains a [sweep] section; use the sweep command",
            file=sys.stderr,
        )
        return 1
    return execute(config, output_dir=args.output_dir, jobs=args.jobs)


if __name__ == "__main__":
    raise SystemExit(main())
