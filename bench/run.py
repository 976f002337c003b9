"""radialblowup benchmark: time to a verdict through the real CLI.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` every invocation runs untraced and the end-to-end
metrics are printed, times scaled to a reference machine pace by a run of
``calibrate.py`` before each invocation; with ``--trace 1`` the per-layer metrics are printed
(microbenchmarks, spans of traced invocations, and ``trace.overhead_s``).
Either way every invocation's outputs are gated, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Metric names and units come from
``BENCHMARK.json``. Workload choices are explained in ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

INVOCATION_TIMEOUT_S = 120
MIN_TIMED = 3
SETUP_REPEATS = 11
# Reported times are scaled to the machine pace at which calibrate.py takes
# this long: its median wall time on a 2-vCPU Xeon at 2.1 GHz
CAL_REF_S = 0.35
# seeds move the velocity amplitude by at most this share: distinct inputs,
# near-identical work
AMPLITUDE_JITTER = 0.005
# A1's detection window and A5's mass-drift limit
ORACLE_WINDOW = (0.9, 1.1)
MASS_DRIFT_MAX = 1e-10

# numpy's BLAS/OpenMP pools get one thread each; the sweep's pool is the
# only parallelism measured
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


@dataclass(frozen=True)
class Workload:
    command: str
    jobs: int
    config: str  # INI text with {amplitude} left to fill from the seed
    runs: int


WORKLOADS = {
    "bump_dust_4096": Workload(
        command="run",
        jobs=1,
        runs=1,
        config="""\
[model]
dim = 3
delta = 0
pressure_const = 0
gamma = 1.4
support_radius = 1

[numerics]
n_cells = 4096
cfl = 0.4
t_end = 2
steepening_threshold = 20
output_stride = 10
snapshot_times = 0.5, 1.0

[initial]
family = polynomial_bump
velocity_amplitude = {amplitude}
density_amplitude = 1
""",
    ),
    "gauss_eulerpoisson_2048": Workload(
        command="run",
        jobs=1,
        runs=1,
        config="""\
[model]
dim = 3
delta = 1
pressure_const = 1
gamma = 1.4
support_radius = 1

[numerics]
n_cells = 2048
cfl = 0.4
t_end = 2
steepening_threshold = 50
output_stride = 10

[initial]
family = gaussian_truncated
width = 0.25
velocity_amplitude = {amplitude}
density_amplitude = 1
""",
    ),
    "ladder_sweep_j2": Workload(
        command="sweep",
        jobs=2,
        runs=6,
        config="""\
[model]
dim = 3
delta = 0
pressure_const = 0
gamma = 1.4
support_radius = 1

[numerics]
cfl = 0.4
t_end = 2
steepening_threshold = 20
output_stride = 1
snapshot_times = 0.25, 0.5, 0.75

[initial]
family = polynomial_bump
velocity_amplitude = {amplitude}
density_amplitude = 1

[sweep]
n_cells = 512, 1024, 2048
delta = 0, 1
""",
    ),
}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    out_dir: Path
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def invoke(args: list[str], out_dir: Path, env: dict) -> Invocation:
    """Run one command to exit through ``measure.py``; see there for what
    CPU time and peak RSS cover."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stdout_path, stderr_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", str(BENCH / "measure.py"),
         str(stdout_path), str(stderr_path), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True,
    )

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(INVOCATION_TIMEOUT_S, kill_group)
    timer.start()
    try:
        report, _ = proc.communicate()
    finally:
        timer.cancel()
    try:
        measured = json.loads(report)
    except ValueError:
        measured = {"wall_s": float("nan"), "cpu_s": float("nan"),
                    "peak_rss_kb": float("nan"), "exit_code": proc.returncode or -1}

    def text(path: Path) -> str:
        return path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""

    return Invocation(
        wall_s=measured["wall_s"],
        cpu_s=measured["cpu_s"],
        peak_rss_mb=measured["peak_rss_kb"] / 1024.0,
        exit_code=measured["exit_code"],
        out_dir=out_dir,
        stdout=text(stdout_path),
        stderr=text(stderr_path),
    )


def read_kv(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def oracle_crossing_time(amplitude: float) -> float:
    """First characteristic crossing of the bump: the A1 oracle."""
    import radialblowup as rb

    grid = rb.RadialGrid(n_cells=16, support_radius=1.0)
    profile = rb.build_initial_profile(
        "polynomial_bump", {"velocity_amplitude": amplitude}, 0, grid, 2
    )
    return rb.first_crossing_time(profile.v_of_r, 1.0, profile.dv_dr)


def gate_run_outputs(inv: Invocation, workload: Workload, t_star: float) -> list[str]:
    """Reasons the invocation's artifacts fail the gates; empty when they pass."""
    problems = []
    if inv.exit_code != 0:
        problems.append(f"exit code {inv.exit_code}")
    run_dirs = sorted(inv.out_dir.glob("run-*"))
    if len(run_dirs) != workload.runs:
        problems.append(f"{len(run_dirs)} run directories, expected {workload.runs}")
    for run_dir in run_dirs:
        try:
            summary = read_kv(run_dir / "summary.txt")
        except OSError as exc:
            problems.append(f"{run_dir.name}: {exc}")
            continue
        if summary.get("verdict") != "confirmed":
            problems.append(f"{run_dir.name}: verdict {summary.get('verdict')}")
        if summary.get("termination") != "steepening_detected":
            problems.append(f"{run_dir.name}: termination {summary.get('termination')}")
        try:
            drift = float(summary["mass_drift_rel"])
            t_detect = float(summary["t_detect"])
        except (KeyError, ValueError):
            problems.append(f"{run_dir.name}: unreadable mass_drift_rel or t_detect")
            continue
        if not drift <= MASS_DRIFT_MAX:
            problems.append(f"{run_dir.name}: mass_drift_rel {drift:.3e}")
        oracle_applies = (
            summary.get("family") == "polynomial_bump"
            and summary.get("delta") == "0"
            and float(summary.get("pressure_const", "nan")) == 0.0
        )
        lo, hi = ORACLE_WINDOW
        if oracle_applies and not lo * t_star <= t_detect <= hi * t_star:
            problems.append(
                f"{run_dir.name}: t_detect {t_detect:.6g} outside "
                f"[{lo}, {hi}] x oracle {t_star:.6g}"
            )
    return problems


def gate_check_output(inv: Invocation, workload: Workload) -> list[str]:
    problems = []
    if inv.exit_code != 0:
        problems.append(f"check exit code {inv.exit_code}")
    lines = [ln for ln in inv.stdout.splitlines() if ln.startswith("run-")]
    if len(lines) != workload.runs or not all("bound_applicable=True" in ln for ln in lines):
        problems.append("check did not report every run with an applicable bound")
    return problems


def digests(out_dir: Path) -> list[str]:
    lines = []
    for run_dir in sorted(out_dir.glob("run-*")):
        for name in ("summary.txt", "series.tsv"):
            path = run_dir / name
            if path.exists():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{run_dir.name}/{name} sha256 {digest}")
    return lines


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    at_or_below = len(ordered) - 10
    if at_or_below < 1:
        return None
    return int(100 * at_or_below / len(ordered)), ordered[at_or_below - 1]


class Bench:
    """One benchmark run: a workload, its seeded inputs and its tallies."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.amplitude = 1.0 + random.Random(seed).uniform(
            -AMPLITUDE_JITTER, AMPLITUDE_JITTER
        )
        self.t_star = oracle_crossing_time(self.amplitude)
        self.env = child_env()
        self.dir = WORK / f"{name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "workload.cfg"
        self.config.write_text(
            self.workload.config.format(amplitude=repr(self.amplitude)), encoding="utf-8"
        )
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def _args(self, command: str, out_dir: Path, traced_spans: Path | None = None):
        launcher = (
            ["-m", "radialblowup.cli"]
            if traced_spans is None
            else [str(BENCH / "tracer.py"), str(traced_spans)]
        )
        args = [sys.executable, *launcher, command, str(self.config)]
        if command != "check":
            args += ["--output-dir", str(out_dir), "--jobs", str(self.workload.jobs)]
        return args

    def _tally(self, inv: Invocation, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED invocation {inv.out_dir.name}: " + "; ".join(problems))
            for line in inv.stderr.splitlines()[-5:]:
                print(f"  stderr: {line}")

    def _next_dir(self) -> Path:
        self.count += 1
        return self.dir / f"inv-{self.count:03d}"

    def workload_invocation(self, spans: Path | None = None, keep: bool = False) -> Invocation:
        out_dir = self._next_dir()
        inv = invoke(self._args(self.workload.command, out_dir, spans), out_dir, self.env)
        self._tally(inv, gate_run_outputs(inv, self.workload, self.t_star))
        if not keep:
            shutil.rmtree(out_dir, ignore_errors=True)
        return inv

    def setup_invocation(self) -> Invocation:
        out_dir = self._next_dir()
        inv = invoke(self._args("check", out_dir), out_dir, self.env)
        self._tally(inv, gate_check_output(inv, self.workload))
        shutil.rmtree(out_dir, ignore_errors=True)
        return inv

    def traced_invocation(self, spans: Path, keep: bool = False):
        from layers import read_spans, span_metrics

        inv = self.workload_invocation(spans, keep=keep)
        return inv, span_metrics(read_spans(spans))

    def calibration(self) -> float:
        """Wall time of one run of calibrate.py, the machine's current pace."""
        out_dir = self._next_dir()
        inv = invoke([sys.executable, str(BENCH / "calibrate.py")], out_dir, self.env)
        shutil.rmtree(out_dir, ignore_errors=True)
        if inv.exit_code != 0:
            raise RuntimeError(f"calibrate.py exited with {inv.exit_code}: {inv.stderr}")
        return inv.wall_s

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def describe(name: str, values: list[float], unit: str, kind: str) -> str:
    tail = tail_percentile(values)
    tail_text = (
        f"p{tail[0]} {tail[1]:.6g}" if tail else "tail percentile n/a (needs > 10 samples)"
    )
    return (
        f"{name:<18} {kind:<18} median {statistics.median(values):.6g} {unit}, "
        f"{tail_text}, max {max(values):.6g}, samples {len(values)}"
    )


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Samples of every end-to-end metric, at reference pace and as measured."""
    # untimed first invocation: warms caches and counts steps exactly
    inv, traced = bench.traced_invocation(WORK / f"spans-{bench.name}.jsonl", keep=True)
    cell_steps = traced["solver.cell_steps"]
    print(f"# {bench.name}: {traced['solver.steps']} steps, {cell_steps} cell-steps "
          f"(counted in an untimed traced invocation)")
    for line in digests(inv.out_dir):
        print(f"# digest {line}")
    shutil.rmtree(inv.out_dir, ignore_errors=True)

    # Each timed invocation is paired with a run of calibrate.py just before
    # it; set-up checks are spread over the run and share that pairing.
    setup: list[tuple[float, float]] = []
    samples: list[tuple[Invocation, float]] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        timing = len(samples) < MIN_TIMED or elapsed < seconds
        setup_due = len(setup) < min(SETUP_REPEATS, 1 + SETUP_REPEATS * elapsed / seconds)
        if not timing and len(setup) >= SETUP_REPEATS:
            break
        cal = bench.calibration()
        if timing:
            samples.append((bench.workload_invocation(), cal))
        if setup_due or not timing:
            setup.append((bench.setup_invocation().wall_s, cal))

    walls = [inv.wall_s for inv, _ in samples]
    raw = {
        "wall_s": walls,
        "cpu_s": [inv.cpu_s for inv, _ in samples],
        "cell_steps_per_s": [cell_steps / w for w in walls],
        "peak_rss_mb": [inv.peak_rss_mb for inv, _ in samples],
        "setup_s": [s for s, _ in setup],
        "calibration_s": [cal for _, cal in samples],
    }
    at_reference = {
        "wall_s": [inv.wall_s * CAL_REF_S / cal for inv, cal in samples],
        "cpu_s": [inv.cpu_s * CAL_REF_S / cal for inv, cal in samples],
        "cell_steps_per_s": [cell_steps * cal / (inv.wall_s * CAL_REF_S)
                             for inv, cal in samples],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": [s * CAL_REF_S / cal for s, cal in setup],
    }
    return at_reference, raw


def per_layer(bench: Bench, seconds: float) -> dict:
    """Microbenchmarks, span metrics and the untraced/traced comparison."""
    from layers import microbenchmarks

    start = time.perf_counter()
    metrics = microbenchmarks(bench.amplitude)
    spans = WORK / f"spans-{bench.name}.jsonl"
    bench.workload_invocation()  # warm-up
    untraced: list[Invocation] = []
    traced: list[dict] = []
    traced_walls: list[float] = []
    busy, critical, written = [], [], []
    # untraced and traced invocations alternate, so both see the same machine
    while len(traced) < MIN_TIMED or time.perf_counter() - start < seconds:
        inv = bench.workload_invocation(keep=True)
        untraced.append(inv)
        elapsed = [
            float(read_kv(meta)["elapsed_seconds"])
            for meta in sorted(inv.out_dir.glob("run-*/meta.txt"))
        ]
        busy.append(sum(elapsed))
        critical.append(max(elapsed, default=0.0))
        written.append(sum(p.stat().st_size for p in inv.out_dir.rglob("*") if p.is_file()
                           and p.name not in ("stdout.txt", "stderr.txt")))
        shutil.rmtree(inv.out_dir, ignore_errors=True)
        inv, from_spans = bench.traced_invocation(spans)
        traced.append(from_spans)
        traced_walls.append(inv.wall_s)

    for key in traced[0]:
        metrics[key] = statistics.median(t[key] for t in traced)
    wall = statistics.median(i.wall_s for i in untraced)
    metrics["cli.bytes_written"] = statistics.median(written)
    metrics["cli.sweep.busy_s"] = statistics.median(busy)
    metrics["cli.sweep.critical_path_s"] = statistics.median(critical)
    metrics["cli.sweep.parallel_eff"] = metrics["cli.sweep.busy_s"] / (
        bench.workload.jobs * wall
    )
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall
    print(f"# untraced wall median {wall:.6g} s over {len(untraced)}, traced "
          f"{statistics.median(traced_walls):.6g} s over {len(traced_walls)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "radialblowup" / "cli.py").is_file():
        print(f"error: no radialblowup sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(BENCH)]

    bench = Bench(args.workload, args.seed)
    print(f"# workload {args.workload} seed {args.seed}: velocity_amplitude "
          f"{bench.amplitude!r}, oracle first crossing {bench.t_star:.6g}")
    try:
        if args.trace:
            measured = per_layer(bench, args.seconds)
            wanted = spec["per_layer"]
        else:
            series, raw = end_to_end(bench, args.seconds)
            wanted = spec["end_to_end"]
            print(describe("calibration_s", raw["calibration_s"], "s", "as measured"))
            for m in wanted:
                print(describe(m["name"], raw[m["name"]], m["unit"], "as measured"))
                if series[m["name"]] is not raw[m["name"]]:
                    print(describe(m["name"], series[m["name"]], m["unit"],
                                   "at reference speed"))
            measured = {name: statistics.median(values) for name, values in series.items()}
    finally:
        bench.close()

    failed_frac = bench.failed / bench.attempted
    print(f"failed_frac        {failed_frac:.6g} (failed {bench.failed} of "
          f"{bench.attempted} invocations)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        if args.trace:
            print(f"{m['name']:<44} {measured[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
