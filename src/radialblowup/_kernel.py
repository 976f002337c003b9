"""Build, cache and load the compiled kernel in ``_kernel.c``, and plan its calls.

The shared library is compiled once per source and compile command and kept
in ``$XDG_CACHE_HOME/radialblowup`` (``~/.cache/radialblowup`` when the
variable is unset); a build removes the libraries of other versions. It is
loaded on first use, so commands that never step a state never compile it.
Every entry but ``max_slope`` and ``kernel_target`` takes the address of the
``struct stage`` that ``plan`` builds once per grid, model and thread, and the
methods of that ``Plan`` are their only callers; this is the one module that
speaks ctypes, and the one that raises the cells with numpy's ``**`` before a
C call.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np

from .model import ModelConfig, RadialGrid, grid_weights
from .poisson import alpha

SOURCE = Path(__file__).with_name("_kernel.c")
# no contraction into fused multiply-adds: it changes the bits of the results;
# without trapping math and errno the loops vectorize, with the same values
COMPILE = (
    "cc", "-O3", "-fPIC", "-shared", "-fno-trapping-math", "-fno-math-errno",
    "-ffp-contract=off",
)

_P, _I64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


class Stage(ctypes.Structure):
    """``struct stage`` of ``_kernel.c``: a grid and model's weights, law and
    scratch."""

    _fields_ = [
        ("n", _I64), ("per_density", _I64),
        ("dr", _F64), ("sound_coef", _F64), ("grad_coef", _F64), ("field_coef", _F64),
        ("pressure_const", _F64),
        ("face_area", _P), ("cell_volume", _P), ("shell", _P), ("inner_shell", _P),
        ("center", _P), ("r", _P), ("work", _P), ("cell", _P),
    ]


_SIGNATURES = {
    "tendencies": ([_P, _I64, _P, _P, _F64, _P], _I64),
    "rk_stage": ([_P, _I64, _F64, _P, _P, _P, _P], _F64),
    "max_speed": ([_P, _P], _F64),
    "max_slope": ([_I64, _P, _F64, ctypes.POINTER(_F64)], _I64),
    "row_sums": ([_P, _P, _P, _P], None),
    "kernel_target": ([], ctypes.c_char_p),
}
_FLOAT64 = np.dtype(np.float64)
_from_buffer = ctypes.c_double.from_buffer
_ROW = _F64 * 4


def address(array: np.ndarray, shape: tuple[int, ...]) -> int:
    """Address of the data of a C-contiguous float64 array of ``shape``."""
    if array.shape == shape and array.dtype == _FLOAT64:
        try:
            # a third of the cost of array.ctypes.data; needs a writable,
            # C-contiguous buffer
            return ctypes.addressof(_from_buffer(array))
        except TypeError:
            if array.flags.c_contiguous:
                return array.ctypes.data
    raise ValueError(
        f"kernel input of shape {array.shape} and dtype {array.dtype}: expected a "
        f"C-contiguous float64 array of shape {shape}"
    )


class Plan:
    """A grid and model's ``struct stage`` and the arrays it points into, for
    the thread that builds it. Its methods alone call the entries that take
    it, each after numpy's ``**`` has raised the cells it reads, and look up
    ``load`` and ``power`` anew each time: tests swap them.

    With pressure, a stage takes its sound speeds and face enthalpies from
    the cells raised to gamma - 1, the row ``max_speed`` has just raised when
    the stage's state is the one it was given: the plan keeps that state
    until the row is raised for another, or to gamma by ``row_sums``. A
    state's fields are never written after it is built, so the same object
    has the same powers."""

    def __init__(self, grid: RadialGrid, cfg: ModelConfig):
        n = grid.n_cells
        weights = grid_weights(grid, cfg.dim)
        # the ghost-extended fields, the fluxes, the force sums, the wave
        # speeds and, with pressure, the cells' sound speeds and the face
        # means; see WORK in the C source
        work = np.empty((5 if cfg.pressure_const > 0.0 else 4, n + 4))
        cell = np.empty(n) if cfg.pressure_const > 0.0 else None
        if cfg.gamma > 1.0:
            # pressure force per unit mass as an exact enthalpy gradient,
            # K*g/(g-1) * d(rho**(g-1))/dr: bounded at the vacuum edge
            grad_coef = cfg.pressure_const * cfg.gamma / (cfg.gamma - 1.0)
        else:
            grad_coef = cfg.pressure_const
        arrays = dict(weights._asdict(), r=grid.cell_centers, work=work, cell=cell)
        stage = Stage(
            n=n,
            per_density=not cfg.gamma > 1.0,
            dr=grid.cell_width,
            sound_coef=cfg.pressure_const * cfg.gamma,
            grad_coef=grad_coef,
            field_coef=alpha(cfg.dim) * cfg.delta,
            pressure_const=cfg.pressure_const,
            **{k: None if a is None else a.ctypes.data for k, a in arrays.items()},
        )
        self._cells, self._block, self._gamma = (n,), (2, n), cfg.gamma
        self._cell = cell  # the n-cell scratch, None for K = 0
        # the state whose cells the scratch holds raised to gamma - 1, or None
        self._cell_state = None
        self._at = ctypes.addressof(stage)
        self._keep = (stage, arrays)  # alive as long as the plan
        self._memo = _thread.memo  # of the thread the plan belongs to

    def tendencies(self, state, wall: int, rho_floor: float) -> tuple[np.ndarray, int]:
        """A stage's (2, n) tendencies and the first non-finite index in them, or -1."""
        memo = self._memo
        rho_at, vel_at = _fields_at(memo, state, self._cells)
        if self._cell is not None:
            self._cell_powers(state)
        out = np.empty(self._block)
        out_at = _remember(memo, out, self._block, address(out, self._block))
        return out, load().tendencies(self._at, wall, rho_at, vel_at, rho_floor, out_at)

    def rk_stage(self, wall: int, dt: float, state, mid, k) -> float:
        """A Runge-Kutta stage from ``state`` in place on the (2, n) tendencies
        ``k``; ``mid`` is the first stage's, None in that stage. Returns the
        least density of the second stage, NaN in the first."""
        memo, block = self._memo, self._block
        rho_at, vel_at = _fields_at(memo, state, self._cells)
        mid_at = None if mid is None else _block_at(memo, mid, block)
        return load().rk_stage(
            self._at, wall, dt, rho_at, vel_at, mid_at, _block_at(memo, k, block)
        )

    def max_speed(self, state) -> float:
        """max(|V| + c) over the cells."""
        if self._cell is not None:
            self._cell_powers(state)
        return load().max_speed(self._at, _fields_at(self._memo, state, self._cells)[1])

    def row_sums(self, state) -> list[float]:
        """The four sums of a diagnostics row; see ``row_sums`` in the C source."""
        rho_at, vel_at = _fields_at(self._memo, state, self._cells)
        if self._cell is not None:
            self._cell_state = None
            power(self._cell, self._gamma, state.rho)
        out = _ROW()
        load().row_sums(self._at, rho_at, vel_at, out)
        return out[:]

    def _cell_powers(self, state) -> None:
        """max(state.rho, 0)**(gamma - 1) into the cell scratch, unless it
        holds them already."""
        if self._cell_state is not state:
            power(self._cell, self._gamma - 1.0, state.rho)
            self._cell_state = state


class _Thread(threading.local):
    """What each thread keeps to itself: its plans, whose scratch every call
    writes while the C call has released the GIL; the last plan asked for;
    and the memo of the states and blocks it last passed to the kernel."""

    def __init__(self):
        self.plans = functools.lru_cache(maxsize=8)(Plan)
        self.last = (None, None, None)
        # id(state or block) -> (weak reference to it, the shape it was
        # checked for, its address or the addresses of its rho and vel)
        self.memo: dict = {}


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


# The memo holds the addresses of the last _MEMO_SLOTS states and (2, n)
# blocks a thread passed, so that a step takes each once: its state, the
# two tendency blocks and the stage and new states built on them. An entry
# serves the object it was taken for, which its weak reference proves is
# still alive, at the shape it was checked for: an array's data stays where
# it is while the array lives (only numpy's refcheck=False resize moves it),
# and a state's fields never change.
_MEMO_SLOTS = 8


def _remember(memo: dict, key, shape: tuple, value):
    """Keep ``value`` for the live object ``key`` at ``shape``, forgetting the
    oldest entry."""
    memo[id(key)] = (weakref.ref(key), shape, value)
    if len(memo) > _MEMO_SLOTS:
        del memo[next(iter(memo))]
    return value


def _block_at(memo: dict, block: np.ndarray, shape: tuple[int, int]) -> int:
    """``address(block, shape)``, from the memo if it is there."""
    hit = memo.get(id(block))
    if hit is not None and hit[0]() is block and hit[1] == shape:
        return hit[2]
    return _remember(memo, block, shape, address(block, shape))


def _fields_at(memo: dict, state, cells: tuple[int]) -> tuple[int, int]:
    """The addresses of a state's rho and vel, each of shape ``cells``, from
    the memo if they are there."""
    hit = memo.get(id(state))
    if hit is not None and hit[0]() is state and hit[1] == cells:
        return hit[2]
    at = (address(state.rho, cells), address(state.vel, cells))
    return _remember(memo, state, cells, at)


def max_slope(state, width: float) -> tuple[float, int]:
    """The largest |vel[i + 1] - vel[i - 1]| / width of a state of 3 or more
    cells and its cell i: the first maximum, or the first NaN."""
    n = state.vel.size
    slope = _F64()
    vel_at = _fields_at(_thread.memo, state, (n,))[1]
    k = load().max_slope(n, vel_at, width, slope)
    return slope.value, k + 1


def power(scratch: np.ndarray, exponent: float, rho: np.ndarray) -> None:
    """max(rho, 0)**exponent into a plan's ``scratch``: the one pow of a run
    left to numpy, whose SIMD ``**`` differs from libm's ``pow`` in the last
    bit."""
    np.maximum(rho, 0.0, out=scratch)
    scratch **= exponent


class KernelCompileError(RuntimeError):
    """The kernel could not be compiled."""


def _compile(command: list[str]):
    """The finished compiler process (``subprocess.CompletedProcess``)."""
    import subprocess

    return subprocess.run(command, capture_output=True, text=True)


def _build(target: Path) -> None:
    """Compile to a temporary file beside ``target``, then move it into place,
    so processes racing on a cold cache each see a whole library."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    command = [*COMPILE, "-o", tmp, str(SOURCE), "-lm"]
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


@functools.cache
def load() -> ctypes.CDLL:
    """The kernel library, compiled into the cache first if it is not there."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(COMPILE).encode()).hexdigest()[:16]
    directory = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    directory /= "radialblowup"
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    target = directory / f"kernel-{key}.so"
    if not target.exists():
        _build(target)
        for old in directory.glob("kernel-*.so"):
            if old != target:
                old.unlink(missing_ok=True)
    return _open(target)


def _open(path: Path) -> ctypes.CDLL:
    """The library at ``path``, with the signatures of its entries set."""
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


def target() -> str:
    """The kernel clone that runs in this process: ``avx512f``, ``avx2`` or ``default``."""
    return load().kernel_target().decode()
