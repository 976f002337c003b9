"""Build, cache and load the compiled kernel in ``_kernel.c``, and plan its calls.

The kernel is a CPython extension module, compiled once per source, compile
command and interpreter ABI and kept in ``$XDG_CACHE_HOME/radialblowup``
(``~/.cache/radialblowup`` when the variable is unset); the file name carries
the interpreter's extension suffix. It is loaded on first use, so commands
that never step a state never compile it. Every entry but ``max_slope``,
``format_rows`` and ``kernel_target`` takes the ``struct stage`` that the
kernel's ``stage`` builds for a ``Plan``, once per grid, model and thread,
and owns in a capsule with the arrays it reads; the methods of that ``Plan``
are their only callers. This is the one module that calls the kernel, and
the one that raises the cells with numpy's ``**`` before a C call.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import tempfile
import threading
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
# without trapping math and errno the loops vectorize, with the same values
COMPILE = (
    "cc", "-O3", "-fPIC", "-shared", "-fno-trapping-math", "-fno-math-errno",
    "-ffp-contract=off",
)


class Plan:
    """A grid and model's ``struct stage``, for the thread that builds it. Its
    methods alone call the entries that take it, each after numpy's ``**``
    has raised the cells it reads, and look up ``load`` and ``power`` anew
    each time: tests swap them.

    With pressure and gamma > 1, a stage takes its sound speeds and face
    enthalpies from the cells raised to gamma - 1, the row ``max_speed`` has
    just raised when the stage's state is the one it was given: the plan
    keeps that state until the row is raised for another, or to gamma by
    ``row_sums``. A state's fields are never written after it is built, so
    the same object has the same powers. For gamma = 1 nothing is raised.

    The same rule keeps what a step's second stage finds of the state it
    makes: its wave speed, which ``max_speed`` returns for that state unless
    the cells must be raised first, and its steepest slope, which
    ``max_slope`` returns for it."""

    def __init__(self, grid: RadialGrid, cfg: ModelConfig):
        n, weights = grid.n_cells, grid_weights(grid, cfg.dim)
        # the n-cell row numpy's ** raises, None unless K > 0 and gamma > 1
        self._cell = np.empty(n) if cfg.pressure_const > 0.0 and cfg.gamma > 1.0 else None
        self._stage = load().stage(
            grid.cell_width, cfg.pressure_const, cfg.gamma, alpha(cfg.dim) * cfg.delta,
            grid.cell_centers, weights.face_area, weights.shell, weights.inner_shell,
            weights.center, self._cell,
        )
        self._block, self._gamma = (2, n), cfg.gamma
        # the state whose cells the scratch holds raised to gamma - 1, or None
        self._cell_state = None
        # the state the last second stage made, its wave speed and its
        # steepest slope and cell at the slope width 2 dr
        self._made = self._speed = self._slope = None
        self._width = 2.0 * grid.cell_width

    def tendencies(self, state, wall: int, rho_floor: float) -> tuple[np.ndarray, int]:
        """A stage's (2, n) tendencies and the first non-finite index in them, or -1."""
        if self._cell is not None:
            self._cell_powers(state)
        out = np.empty(self._block)
        return out, load().tendencies(self._stage, wall, state.rho, state.vel, rho_floor, out)

    def rk_stage(self, wall: int, dt: float, state, mid, k):
        """A Runge-Kutta stage from ``state`` in place on the (2, n) tendencies
        ``k``; ``mid`` is the first stage's, None in that stage, which returns
        None. The second returns the new state, ``k``'s rows at
        ``state.time + dt``, and its least density."""
        facts = load().rk_stage(self._stage, wall, dt, state.rho, state.vel, mid, k)
        if facts is None:
            return None
        lowest, self._speed, self._slope = facts
        self._made = FluidState.of_block(state.time + dt, k)
        return self._made, lowest

    def max_speed(self, state) -> float:
        """max(|V| + c) over the cells."""
        if self._cell is not None:
            self._cell_powers(state)
        elif state is self._made:
            return self._speed
        return load().max_speed(self._stage, state.vel)

    def row_sums(self, state) -> tuple[float, float, float, float]:
        """The four sums of a diagnostics row; see ``row_sums`` in the C source."""
        if self._cell is not None:
            self._cell_state = None
            power(self._cell, self._gamma, state.rho)
        return load().row_sums(self._stage, state.rho, state.vel)

    def _cell_powers(self, state) -> None:
        """max(state.rho, 0)**(gamma - 1) into the cell scratch, unless it
        holds them already."""
        if self._cell_state is not state:
            power(self._cell, self._gamma - 1.0, state.rho)
            self._cell_state = state


class _Thread(threading.local):
    """What each thread keeps to itself: its plans, whose scratch every call
    writes while the C call has released the GIL, and the last plan asked
    for."""

    def __init__(self):
        self.plans = functools.lru_cache(maxsize=8)(Plan)
        self.last = (None, None, None)


_thread = _Thread()


def plan(grid: RadialGrid, cfg: ModelConfig) -> Plan:
    """The plan of (grid, cfg) in this thread, built once: the last one again
    when the same two objects ask, else one of the eight most recent."""
    local = _thread
    last_grid, last_cfg, last = local.last
    if grid is last_grid and cfg is last_cfg:
        return last
    found = local.plans(grid, cfg)
    local.last = (grid, cfg, found)
    return found


def max_slope(state, width: float) -> tuple[float, int]:
    """The largest |vel[i + 1] - vel[i - 1]| / width of a state of 3 or more
    cells and its cell i: the first maximum, or the first NaN. The thread's
    last plan answers for the state its last step made, at its width 2 dr."""
    last = _thread.last[2]
    if last is not None and state is last._made and width == last._width:
        return last._slope
    return load().max_slope(state.vel, width)


def format_rows(columns: list) -> bytes:
    """The rows of 1 to 8 float64 columns of 1 to 1024 values each, a line
    of tab-separated values per row, each value the text of ``'%.17g' % value``."""
    return load().format_rows(np.column_stack(columns))


def power(scratch: np.ndarray, exponent: float, rho: np.ndarray) -> None:
    """max(rho, 0)**exponent into a plan's ``scratch``: the one pow of a run
    left to numpy, whose SIMD ``**`` differs from libm's ``pow`` in the last
    bit."""
    np.maximum(rho, 0.0, out=scratch)
    scratch **= exponent


def sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``: the kernel's cache key and ``cli``'s
    config hash."""
    return _sha256(data).hexdigest()


class KernelCompileError(RuntimeError):
    """The kernel could not be compiled."""


def _compile(command: list[str]):
    """The finished compiler process (``subprocess.CompletedProcess``)."""
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
    directory = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "radialblowup"
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
