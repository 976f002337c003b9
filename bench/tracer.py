"""Run the radialblowup CLI with a span recorded around each call into a module.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python bench/tracer.py SPANS_FILE run|sweep|check CONFIG [CLI options]

The program itself is not changed: before ``cli.main`` runs, the module
attributes the run path looks up at call time are replaced by timing
wrappers. ``solver`` imports ``radial_field`` and ``sound_speed`` by name,
so those are wrapped in the ``solver`` namespace; ``solver`` reaches the
diagnostics through the ``diagnostics`` module, so those are wrapped there.

Spans stay in memory and are written as JSON lines when the command ends.
Sweep workers forked by the process pool inherit the wrappers; each writes
its own spans to ``SPANS_FILE.<pid>`` after every run, and the parent folds
those files into ``SPANS_FILE``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# (module, attribute, span name): span names are "<layer>.<function>"
WRAPPED = (
    ("cli", "execute", "cli.execute"),
    ("cli", "parse_config_file", "cli.parse_config_file"),
    ("cli", "run_single", "cli.run_single"),
    ("cli", "build_initial_profile", "profiles.build_initial_profile"),
    ("cli", "validate_initial_data", "model.validate_initial_data"),
    ("cli", "run", "solver.run"),
    ("solver", "validate_initial_data", "model.validate_initial_data"),
    ("solver", "apply_boundary", "solver.apply_boundary"),
    ("solver", "max_wave_speed", "solver.max_wave_speed"),
    ("solver", "cfl_dt", "solver.cfl_dt"),
    ("solver", "step", "solver.step"),
    ("solver", "rhs_eval", "solver.rhs_eval"),
    ("solver", "detect_steepening", "solver.detect_steepening"),
    ("solver", "sound_speed", "model.sound_speed"),
    ("solver", "radial_field", "poisson.radial_field"),
    ("diagnostics", "blowup_functional", "diagnostics.blowup_functional"),
    ("diagnostics", "blowup_time_bound", "diagnostics.blowup_time_bound"),
    ("diagnostics", "total_mass", "diagnostics.total_mass"),
    ("diagnostics", "energy_condition", "diagnostics.energy_condition"),
    ("diagnostics", "lower_envelope", "diagnostics.lower_envelope"),
    ("diagnostics", "cauchy_schwarz_gap", "diagnostics.cauchy_schwarz_gap"),
    ("diagnostics", "max_velocity_gradient", "diagnostics.max_velocity_gradient"),
    ("diagnostics", "riccati_residuals", "diagnostics.riccati_residuals"),
    ("diagnostics", "build_report", "diagnostics.build_report"),
)


class Tracer:
    """In-memory span recorder for one process and the workers it forks.

    A span is (id, parent, name, start_ns, end_ns, attrs). An id is
    [pid, sequence number]; ``parent`` is the id of the enclosing span, which
    after a fork may belong to the parent process.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.root_pid = self.pid
        self.spans: list = []
        self.stack: list = []
        self.seq = 0

    def _own_process(self) -> None:
        if os.getpid() != self.pid:
            # forked worker: spans recorded before the fork belong to the parent
            self.pid = os.getpid()
            self.spans = []

    def wrap(self, fn, name: str, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._own_process()
            self.seq += 1
            span_id = [self.pid, self.seq]
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                attrs = attrs_of(args, result) if attrs_of and result is not None else None
                self.spans.append((span_id, parent, name, start, end, attrs))

        return traced

    def lines(self) -> str:
        out = []
        for span_id, parent, name, start, end, attrs in self.spans:
            record = {"id": span_id, "parent": parent, "name": name,
                      "start_ns": start, "end_ns": end}
            if attrs:
                record["attrs"] = attrs
            out.append(json.dumps(record) + "\n")
        return "".join(out)


def _run_attrs(args, result) -> dict:
    # solver.run(rho0, v0, cfg, num) -> RunResult
    return {"n_cells": int(len(args[0])),
            "states": len(result.trajectory.snapshots)}


def install(tracer: Tracer, spans_path: Path) -> None:
    """Replace every attribute in WRAPPED by its traced version."""
    from radialblowup import cli, diagnostics, solver

    modules = {"cli": cli, "solver": solver, "diagnostics": diagnostics}
    for module_name, attr, span_name in WRAPPED:
        module = modules[module_name]
        attrs_of = _run_attrs if span_name == "solver.run" else None
        setattr(module, attr, tracer.wrap(getattr(module, attr), span_name, attrs_of))

    run_single = cli.run_single

    @functools.wraps(run_single)
    def run_single_then_flush(*args, **kwargs):
        try:
            return run_single(*args, **kwargs)
        finally:
            if os.getpid() != tracer.root_pid:
                # pool workers leave through os._exit, so write after each run
                with open(f"{spans_path}.{os.getpid()}", "a", encoding="utf-8") as fh:
                    fh.write(tracer.lines())
                tracer.spans = []

    cli.run_single = run_single_then_flush


def write_spans(tracer: Tracer, spans_path: Path) -> None:
    with open(spans_path, "w", encoding="utf-8") as out:
        out.write(tracer.lines())
        for part in sorted(spans_path.parent.glob(spans_path.name + ".*")):
            out.write(part.read_text(encoding="utf-8"))
            part.unlink()


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    spans_path = Path(argv[0])
    tracer = Tracer()
    install(tracer, spans_path)
    from radialblowup import cli

    try:
        return cli.main(argv[1:])
    finally:
        write_spans(tracer, spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
