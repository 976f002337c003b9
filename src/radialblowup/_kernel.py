"""Build, cache and load the compiled kernel in ``_kernel.c``, and plan its calls.

The kernel is a CPython extension module, compiled once per source, compile
command and interpreter ABI and kept in ``$XDG_CACHE_HOME/radialblowup``
(``~/.cache/radialblowup`` when the variable is unset or not absolute); the
file name carries the interpreter's extension suffix. It is loaded on first
use, so commands that never step a state never compile it. Every entry runs
with the GIL held; a stage built for two threads (``threads``) splits each
pass of an entry that steps a state with one helper thread, which never
touches Python. Every entry but ``format_rows`` and ``kernel_target``
takes the ``struct stage`` that the kernel's ``stage`` builds for a ``Plan``
when the process asks for another grid and model than its last, and owns in
a capsule with the arrays it reads; the methods of that ``Plan`` are their
only callers, and pass each call every array it reads, the raised cells
among them. This is the one module that calls the kernel, and the one that
raises the cells with numpy's ``**``: before a C call, or in the one it
hands ``finish_step``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from .model import FluidState, ModelConfig, RadialGrid, grid_weights
from .poisson import alpha

# SHA-256 from CPython's built-in module (_sha2 from 3.12, _sha256 before), so
# no command loads OpenSSL's libcrypto, about 3.6 MB resident, for two short
# digests; hashlib only on builds that leave it out, such as FIPS builds
# configured --with-builtin-hashlib-hashes=blake2
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

SOURCE = Path(__file__).with_name("_kernel.c")
# no contraction into fused multiply-adds: it changes the bits of the results;
# without trapping math and errno the loops vectorize, with the same values;
# no -pthread: the interpreter that loads the module provides the helper
# thread's pthread calls
COMPILE = (
    "cc", "-O3", "-fPIC", "-shared", "-fno-trapping-math", "-fno-math-errno",
    "-ffp-contract=off",
)

#: The fewest cells whose passes split between two threads. The helper
#: spins through the Python between kernel calls, so a split run spends
#: about twice its stepping time in CPU; below this the wall time it saves
#: is too small for that (one thread against two, in CHANGES.md)
SPLIT_CELLS = 4096

#: The processes of one command that step at once: a pooled sweep sets it
#: (``sharing``) while its runs step
_processes = 1


@contextlib.contextmanager
def sharing(processes: int):
    """Within the block, ``processes`` processes of this command step at
    once, and ``threads`` divides the CPUs among them."""
    global _processes
    kept, _processes = _processes, processes
    try:
        yield
    finally:
        _processes = kept


def threads(n_cells: int) -> int:
    """The threads that step a grid of ``n_cells`` here, the one rule of the
    split: 2 when the CPUs this process may use (its affinity, else the CPU
    count), divided among the processes ``sharing`` names, are at least 2
    each and ``n_cells`` is at least ``SPLIT_CELLS``; else 1. Either count
    gives the same bits."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # macOS has no affinity
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 * _processes and n_cells >= SPLIT_CELLS else 1


class Plan:
    """A grid and model's ``struct stage`` for ``threads`` threads, one per
    process, which keeps it until it asks for another (``plan``). Its
    methods alone call the entries that take it, and look up ``load`` and
    ``power`` anew each time: tests swap them. ``facts`` is the one
    reduction over a state. A plan keeps no state: what a call reads arrives
    as an argument, and the cells raised for it, which ``powers`` returns,
    are a value the caller may pass on."""

    def __init__(self, grid: RadialGrid, cfg: ModelConfig, threads: int = 1):
        weights = grid_weights(grid, cfg.dim)
        self._stage = load().stage(
            grid.cell_width, cfg.pressure_const, cfg.gamma, alpha(cfg.dim) * cfg.delta,
            grid.cell_centers, weights.face_area, weights.shell, weights.inner_shell,
            weights.center, threads,
        )
        self.threads = threads
        self._block, self._gamma = (2, grid.n_cells), cfg.gamma
        self._raises = cfg.pressure_const > 0.0

    def powers(self, state):
        """max(state.rho, 0)**(gamma - 1), the cells a stage and ``facts``
        read, in a new row; None for dust (K = 0)."""
        return power(state.rho, self._gamma - 1.0) if self._raises else None

    def tendencies(self, state, wall: int, rho_floor: float, powers=None):
        """A stage's (2, n) tendencies and the first non-finite index in them,
        or -1; ``powers`` are the state's, raised here when None."""
        powers = self.powers(state) if powers is None else powers
        out = np.empty(self._block)
        return out, load().tendencies(self._stage, wall, state.rho, state.vel, powers,
                                      rho_floor, out)

    def finish_step(self, wall: int, dt: float, state, k, rho_floor: float):
        """The rest of a step from ``state`` after its first stage's (2, n)
        tendencies ``k``, which become the stage's state: the first
        non-finite index of the second stage's tendencies or -1, the new
        state at ``state.time + dt``, and its ``facts`` and ``powers``, both
        None past a non-finite tendency. The kernel calls ``power``."""
        out = np.empty(self._block)
        bad, facts, powers = load().finish_step(
            self._stage, wall, dt, state.rho, state.vel, k, rho_floor, out, power
        )
        return bad, FluidState.of_block(state.time + dt, out), facts, powers

    def facts(self, state, powers=None) -> tuple[float, float, tuple[float, int]]:
        """The least density, the wave speed max(|V| + c) and the steepest
        slope |V[i + 1] - V[i - 1]| / (2 dr) with its cell i, each NaN first
        as numpy's reductions give them; ``powers`` as for ``tendencies``."""
        powers = self.powers(state) if powers is None else powers
        return load().facts(self._stage, state.rho, state.vel, powers)

    def row_sums(self, state) -> tuple[float, float, float, float]:
        """The four sums of a diagnostics row; see ``row_sums`` in the C source."""
        powers = power(state.rho, self._gamma) if self._raises else None
        return load().row_sums(self._stage, state.rho, state.vel, powers)


#: The process's last plan, with the grid and model it was asked for
_last = (None, None, None)


def plan(grid: RadialGrid, cfg: ModelConfig) -> Plan:
    """The plan of (grid, cfg) for the ``threads`` of its grid: the last one
    again when the same two objects ask (the run path, with no ``==``) or
    two equal to them, and the thread count is the same, else a new one in
    its place. Threads share it, as each kernel call holds the GIL; a race
    on the slot costs a rebuild, never another grid's plan."""
    global _last
    last_grid, last_cfg, last = _last
    if grid is last_grid and cfg is last_cfg:
        return last
    count = threads(grid.n_cells)
    if grid != last_grid or cfg != last_cfg or last.threads != count:
        _last = (None, None, None)  # the old plan goes before the new one is built
        last = Plan(grid, cfg, count)
    _last = (grid, cfg, last)
    return last


def format_rows(columns: list) -> bytes:
    """The rows of 1 to 8 float64 columns of 1 to 1024 values each, a line
    of tab-separated values per row, each value the text of ``'%.17g' % value``."""
    return load().format_rows(np.column_stack(columns))


def power(rho: np.ndarray, exponent: float) -> np.ndarray:
    """max(rho, 0)**exponent in a new row: the one pow of a run left to
    numpy, whose SIMD ``**`` differs from libm's ``pow`` in the last bit."""
    row = np.maximum(rho, 0.0)
    row **= exponent
    return row


def sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``: the kernel's cache key and ``cli``'s
    config hash."""
    return _sha256(data).hexdigest()


class KernelCompileError(RuntimeError):
    """The kernel could not be compiled."""


def _compile(command: list[str]):
    """The finished compiler process (``subprocess.CompletedProcess``)."""
    # imported here: check and a run with a cached kernel never load it
    import subprocess

    return subprocess.run(command, capture_output=True, text=True)


def _include_dirs() -> list[str]:
    """The directories of this interpreter's C headers: ``Python.h`` first,
    then ``pyconfig.h`` where a distribution keeps it apart."""
    import sysconfig

    paths = sysconfig.get_paths()
    return list(dict.fromkeys((paths["include"], paths["platinclude"])))


def extension_flags() -> list[str]:
    """The flags that build ``SOURCE`` as an extension of this interpreter:
    its include directories and, on macOS, the lookup of the interpreter's
    symbols when the module is loaded."""
    include = _include_dirs()
    if not Path(include[0], "Python.h").is_file():
        raise KernelCompileError(
            f"no Python.h in {include[0]}: compiling the kernel needs Python's "
            "development headers (a python3-dev or python3-devel package)"
        )
    flags = [f"-I{path}" for path in include]
    if sys.platform == "darwin":
        flags += ["-undefined", "dynamic_lookup"]
    return flags


def _build(target: Path) -> None:
    """Compile to a temporary file beside ``target``, then move it into place,
    so processes racing on a cold cache each see a whole module."""
    flags = extension_flags()
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    command = [*COMPILE, *flags, "-o", tmp, str(SOURCE), "-lm"]
    try:
        try:
            done = _compile(command)
        except OSError as exc:
            raise KernelCompileError(f"cannot run `{' '.join(command)}`: {exc}") from None
        if done.returncode != 0:
            raise KernelCompileError(
                f"`{' '.join(command)}` failed with exit code {done.returncode}:\n"
                f"{done.stderr}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


#: The builds of this interpreter's ABI a cache keeps, the newest by the time
#: they were built: checkouts of other sources that share the cache keep
#: theirs, and a source that comes back loads without a compile.
KEPT_BUILDS = 4


def _evict(directory: Path, target: Path, suffix: str) -> None:
    """Remove this ABI's builds past the ``KEPT_BUILDS`` newest, ``target``
    always kept, and the plain ``kernel-<hash>.so`` of earlier versions.
    Other interpreters' builds and a ``*.so.tmp`` being written are left.
    Another process may remove the same files first."""
    ours = re.compile(rf"kernel-.*{re.escape(suffix)}")
    plain = re.compile(r"kernel-[0-9a-f]{16}\.so")
    builds, stale = [], []
    for path in directory.iterdir():
        if path == target:
            continue
        if plain.fullmatch(path.name):
            stale.append(path)
        elif ours.fullmatch(path.name):
            try:
                builds.append((path.stat().st_mtime_ns, path))
            except FileNotFoundError:
                pass
    builds.sort(reverse=True)
    for path in stale + [path for _, path in builds[KEPT_BUILDS - 1 :]]:
        path.unlink(missing_ok=True)


@functools.cache
def load():
    """The kernel module, compiled into the cache first if it is not there."""
    from importlib.machinery import EXTENSION_SUFFIXES
    from importlib.util import module_from_spec, spec_from_file_location

    key = sha256_hex(SOURCE.read_bytes() + " ".join(COMPILE).encode())[:16]
    cache = os.environ.get("XDG_CACHE_HOME", "")  # the XDG spec ignores a relative path
    directory = Path(cache if os.path.isabs(cache) else Path.home() / ".cache") / "radialblowup"
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    suffix = EXTENSION_SUFFIXES[0]  # this ABI's, such as .cpython-311-x86_64-linux-gnu.so
    target = directory / f"kernel-{key}{suffix}"
    if not target.exists():
        _build(target)
        _evict(directory, target, suffix)
    # the file suffix makes the spec's loader an ExtensionFileLoader
    spec = spec_from_file_location("kernel", target)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target() -> str:
    """The kernel clone that runs in this process: ``avx512f``, ``avx2`` or ``default``."""
    return load().kernel_target()
