"""Experiment runner: config ingestion, sweeps, and flat-file artifact output.

Configs are strict INI-style documents with sections [model], [numerics],
[initial], [sweep] and [output]. All floating-point output is emitted with
17 significant digits; wall-clock metadata is segregated into meta.txt so
summary and series files are byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

from .diagnostics import Verdict, blowup_time_bound, scope_flags
from .model import ModelConfig, RadialGrid, validate_initial_data
from .profiles import build_initial_profile, check_family
from .solver import NumericsConfig, RunResult, Termination, run


class ConfigError(ValueError):
    """Config document rejected; message carries line information when known."""


def _fmt(value) -> str:
    """Render a value for output files; floats get 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass(frozen=True)
class ProfileConfig:
    family: str
    params: dict

    def __post_init__(self):
        check_family(self.family, self.params)


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
        if self.n_cells < 8:
            raise ValueError("numerics.n_cells must be at least 8")
        if self.sweep is not None:
            for key, values in self.sweep.items():
                if len(values) == 0:
                    raise ValueError(f"sweep.{key} must be a non-empty list")


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
        "velocity_amplitude": float,
        "density_amplitude": float,
        "width": float,
        "modes": int,
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


def _scan(text: str, strict: bool) -> dict:
    """Tokenize the document into {section: {key: (raw, line)}} with strictness."""
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
                if strict:
                    raise ConfigError(f"line {lineno}: unknown section [{section}]")
                print(
                    f"warning: ignoring unknown section [{section}] (line {lineno})",
                    file=sys.stderr,
                )
                section = "__ignored__"
            sections.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if section == "__ignored__":
            continue
        if key not in _SCHEMA[section]:
            if strict:
                raise ConfigError(
                    f"line {lineno}: unknown key '{key}' in section [{section}]"
                )
            print(
                f"warning: ignoring unknown key '{key}' in [{section}] (line {lineno})",
                file=sys.stderr,
            )
            continue
        if (section, key) in seen:
            first = seen[(section, key)]
            raise ConfigError(
                f"duplicate key '{key}' in section [{section}] "
                f"(lines {first} and {lineno})"
            )
        seen[(section, key)] = lineno
        sections.setdefault(section, {})[key] = (raw, lineno)
    sections.pop("__ignored__", None)
    return sections


def parse_config(text: str, strict: bool = True) -> ExperimentConfig:
    """Parse and fully validate a config document.

    Unknown sections or keys are rejected in strict mode; duplicate keys are
    always rejected, reporting both their line numbers. Semantic violations
    name the offending field.
    """
    sections = _scan(text, strict)

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
    if "velocity_amplitude" not in init_kw:
        init_kw["velocity_amplitude"] = 1.0
    if "density_amplitude" not in init_kw:
        init_kw["density_amplitude"] = 1.0
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


def parse_config_file(path, strict: bool = True) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"), strict=strict)


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


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(
        resolved_config_text(config).encode("utf-8")
    ).hexdigest()[:12]


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


def _write_series(path: Path, result: RunResult) -> None:
    cols = [getattr(result.series, f.name) for f in fields(result.series)]
    lines = ["t\tH\tmass\tenergy_lhs\triccati_residual\tenvelope\tcauchy_gap\tmax_abs_dVdr"]
    for row in zip(*cols):
        lines.append("\t".join(f"{v:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_summary(path: Path, run_id: str, config: ExperimentConfig, result: RunResult) -> None:
    r = result.report
    pairs = [
        ("run_id", run_id),
        ("config_hash", config_hash(config)),
        ("verdict", r.verdict.value),
        ("bound_applicable", r.bound_applicable),
        ("t_bound", r.t_bound if r.t_bound is not None else "n/a"),
        ("t_detect", r.t_detect if r.t_detect is not None else "n/a"),
        ("h0", r.h0),
        ("t_final", r.t_final),
        ("termination", r.termination),
        ("envelope_ok", r.envelope_ok if r.envelope_ok is not None else "n/a"),
        ("envelope_tolerance_rel", r.envelope_tolerance),
        ("mass_drift_rel", r.mass_drift_rel),
        ("scope_flags", ",".join(r.scope_flags) if r.scope_flags else "none"),
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
    r = grid.cell_centers
    for wanted, state in zip(config.snapshot_times, result.trajectory.snapshots):
        name = f"snapshot-{wanted:.6g}.tsv"
        lines = ["r\trho\tV", f"# time = {state.time:.17g}"]
        for i in range(grid.n_cells):
            lines.append(f"{r[i]:.17g}\t{state.rho[i]:.17g}\t{state.vel[i]:.17g}")
        (run_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_single(run_id: str, config: ExperimentConfig, out_root: str) -> dict:
    """Execute one resolved run and write its artifact files."""
    t_start = time.time()
    run_dir = Path(out_root) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    grid, profile = build_run_fields(config)
    result = run(
        profile.rho0, profile.v0, config.model, config.numerics,
        config.snapshot_times,
    )
    rep = result.report
    if "h0_not_positive" in rep.scope_flags:
        print(
            f"warning: {run_id}: h0 = {rep.h0:.6g} is not positive; "
            "bound verdict will be not_applicable",
            file=sys.stderr,
        )
    _write_series(run_dir / "series.tsv", result)
    _write_summary(run_dir / "summary.txt", run_id, config, result)
    (run_dir / "resolved-config.txt").write_text(
        resolved_config_text(config), encoding="utf-8"
    )
    _write_snapshots(run_dir, config, result, grid)
    elapsed = time.time() - t_start
    (run_dir / "meta.txt").write_text(
        f"started_unix: {t_start:.3f}\nelapsed_seconds: {elapsed:.3f}\n",
        encoding="utf-8",
    )
    return {
        "run_id": run_id,
        "verdict": rep.verdict.value,
        "termination": rep.termination,
        "t_detect": rep.t_detect,
        "t_bound": rep.t_bound,
        "h0": rep.h0,
        "config_hash": config_hash(config),
    }


def _run_entry(args: tuple) -> dict:
    return run_single(*args)


def exit_status(outcomes: list[dict]) -> int:
    """Exit-code contract: 2 if any verdict is violated, 1 on any runtime
    failure (a crashed run or a positivity violation), 0 otherwise."""
    if any(o.get("verdict") == Verdict.VIOLATED.value for o in outcomes):
        return 2
    positivity = Termination.POSITIVITY_VIOLATED.value
    if any(o.get("failed") or o.get("termination") == positivity for o in outcomes):
        return 1
    return 0


def execute(
    config: ExperimentConfig, output_dir: Optional[str] = None, jobs: int = 1
) -> int:
    """Run every sweep entry, write the summary index, and return the exit code."""
    out_root = output_dir if output_dir is not None else config.output_dir
    try:
        runs = expand_sweep(replace(config, output_dir=out_root))
    except ValueError as exc:
        print(f"error: invalid sweep entry: {exc}", file=sys.stderr)
        return 1
    tasks = [(run_id, cfg, out_root) for run_id, cfg in runs]

    outcomes: list[dict] = []
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_entry, task) for task in tasks]
            for task, future in zip(tasks, futures):
                try:
                    outcomes.append(future.result())
                except Exception:
                    traceback.print_exc()
                    outcomes.append({"run_id": task[0], "failed": True})
    else:
        for task in tasks:
            try:
                outcomes.append(_run_entry(task))
            except Exception:
                traceback.print_exc()
                outcomes.append({"run_id": task[0], "failed": True})

    index_lines = ["run_id\tverdict\ttermination\tt_detect\tt_bound\th0\tconfig_hash"]
    for o in sorted(outcomes, key=lambda d: d["run_id"]):
        if o.get("failed"):
            index_lines.append(f"{o['run_id']}\tfailed\t-\t-\t-\t-\t-")
            continue
        t_detect = "n/a" if o["t_detect"] is None else f"{o['t_detect']:.17g}"
        t_bound = "n/a" if o["t_bound"] is None else f"{o['t_bound']:.17g}"
        index_lines.append(
            f"{o['run_id']}\t{o['verdict']}\t{o['termination']}\t"
            f"{t_detect}\t{t_bound}\t{o['h0']:.17g}\t{o['config_hash']}"
        )
    try:
        root = Path(out_root)
        root.mkdir(parents=True, exist_ok=True)
        (root / "index.tsv").write_text("\n".join(index_lines) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write to output directory: {exc}", file=sys.stderr)
        return 1
    return exit_status(outcomes)


def check(config: ExperimentConfig) -> int:
    """Validate the config and initial data without stepping; print findings."""
    for run_id, resolved in expand_sweep(config):
        grid, profile = build_run_fields(resolved)
        report = validate_initial_data(
            profile.rho0, profile.v0, grid,
            margin_cells=resolved.numerics.support_margin_cells,
        )
        applicable = not scope_flags(report.h0, resolved.model)
        t_bound = (
            f"{blowup_time_bound(report.h0, resolved.model.support_radius):.6g}"
            if report.h0_positive
            else "n/a"
        )
        print(
            f"{run_id}: n_cells={resolved.n_cells} delta={resolved.model.delta} "
            f"pressure_const={resolved.model.pressure_const:g} "
            f"gamma={resolved.model.gamma:g} family={resolved.initial.family} "
            f"h0={report.h0:.6g} t_bound={t_bound} bound_applicable={applicable}"
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
        p.add_argument("--output-dir", default=None, help="override [output] dir")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
        p.add_argument(
            "--strict",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="reject unknown config keys (default on)",
        )
    args = parser.parse_args(argv)

    try:
        config = parse_config_file(args.config, strict=args.strict)
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
