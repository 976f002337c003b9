"""The compiled kernel is an extension module built once per source and
interpreter ABI into the user cache, it builds and owns each ``struct
stage`` with the arrays the stage reads, its entries take nothing but the
stage and arrays they were built for, on x86-64 ELF with glibc the loader
picks the widest clone the CPU has, and only ``_kernel`` calls it."""

import ast
import datetime
import gc
import os
import re
import shutil
import stat
import subprocess
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

from _helpers import cpu_clones
from radialblowup import FluidState, ModelConfig, RadialGrid, _kernel, diagnostics, model, solver

PACKAGE = Path(_kernel.__file__).parent


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty cache directory and no library loaded in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel.load.cache_clear()
    yield tmp_path / "radialblowup"
    _kernel.load.cache_clear()


@pytest.fixture
def stub_source(tmp_path, monkeypatch):
    """An extension module with no entries: it builds in a fraction of the
    kernel's time."""
    stub = tmp_path / "stub.c"
    stub.write_text(
        "#include <Python.h>\n"
        "static struct PyModuleDef stub = {PyModuleDef_HEAD_INIT, \"kernel\", NULL, 0,\n"
        "                                  NULL, NULL, NULL, NULL, NULL};\n"
        "PyMODINIT_FUNC PyInit_kernel(void) { return PyModuleDef_Init(&stub); }\n"
    )
    monkeypatch.setattr(_kernel, "SOURCE", stub)


def test_second_load_reuses_the_cached_library(fresh_cache, stub_source, monkeypatch):
    commands = []

    def counted(command, _compile=_kernel._compile):
        commands.append(command)
        return _compile(command)

    monkeypatch.setattr(_kernel, "_compile", counted)
    _kernel.load()
    assert len(commands) == 1
    _kernel.load.cache_clear()
    lib = _kernel.load()
    assert len(commands) == 1
    (library,) = fresh_cache.iterdir()
    assert lib.__file__ == str(library)
    # the interpreter's ABI is in the name: another interpreter builds its own
    assert library.name.startswith("kernel-") and library.name.endswith(EXTENSION_SUFFIXES[0])
    assert stat.S_IMODE(fresh_cache.stat().st_mode) == 0o700


def test_failing_compiler_names_the_command(fresh_cache, monkeypatch):
    def fails(command):
        return subprocess.CompletedProcess(command, 1, "", "_kernel.c:1: error: boom")

    monkeypatch.setattr(_kernel, "_compile", fails)
    with pytest.raises(_kernel.KernelCompileError) as info:
        _kernel.load()
    message = str(info.value)
    assert " ".join(_kernel.COMPILE) in message
    assert "error: boom" in message
    # nothing half-built is left behind for the next load
    assert list(fresh_cache.iterdir()) == []


def test_missing_compiler_names_the_command(fresh_cache, monkeypatch):
    def missing(command):
        raise FileNotFoundError(2, "No such file or directory", command[0])

    monkeypatch.setattr(_kernel, "_compile", missing)
    with pytest.raises(_kernel.KernelCompileError) as info:
        _kernel.load()
    assert f"cannot run `{' '.join(_kernel.COMPILE)}" in str(info.value)


def test_missing_python_headers_are_named(fresh_cache, tmp_path, monkeypatch):
    empty = tmp_path / "include"
    empty.mkdir()
    monkeypatch.setattr(_kernel, "_include_dirs", lambda: [str(empty)])
    with pytest.raises(_kernel.KernelCompileError) as info:
        _kernel.load()
    message = str(info.value)
    assert str(empty) in message and "development headers" in message
    assert list(fresh_cache.iterdir()) == []


def test_a_build_removes_older_libraries(fresh_cache, stub_source):
    # builds for this interpreter's ABI past the newest KEPT_BUILDS (the new
    # one among them) and the ctypes libraries of earlier versions go; a build
    # in progress, a build for another interpreter and any other name stay
    fresh_cache.mkdir(mode=0o700)
    suffix = EXTENSION_SUFFIXES[0]
    builds = [fresh_cache / f"kernel-{k:016x}{suffix}" for k in range(_kernel.KEPT_BUILDS + 1)]
    partial = fresh_cache / "tmpbuild.so.tmp"
    other_abi = fresh_cache / "kernel-0000000000000000.cpython-399-other.so"
    plain = fresh_cache / "kernel-0123456789abcdef.so"
    other = fresh_cache / "kernel-01234567.so"
    for path in (*builds, partial, other_abi, plain, other):
        path.write_bytes(b"old")
    # built a day apart, the first the newest
    for age, path in enumerate(builds):
        stamp = path.stat().st_mtime - 86400 * (age + 1)
        os.utime(path, (stamp, stamp))
    _kernel.load()
    names = {p.name for p in fresh_cache.iterdir()}
    kept = _kernel.KEPT_BUILDS - 1
    assert {p.name for p in builds[:kept]} <= names
    assert not {p.name for p in builds[kept:]} & names and plain.name not in names
    assert {partial.name, other_abi.name, other.name} <= names


def test_two_sources_that_share_a_cache_keep_their_builds(fresh_cache, tmp_path, monkeypatch):
    # two checkouts whose kernels differ, loaded in turn from one cache: the
    # second build leaves the first, which then loads without a compile
    commands = []

    def counted(command, _compile=_kernel._compile):
        commands.append(command)
        return _compile(command)

    monkeypatch.setattr(_kernel, "_compile", counted)
    sources = []
    for name in ("a", "b"):
        source = tmp_path / f"{name}.c"
        source.write_text(
            f"/* checkout {name} */\n#include <Python.h>\n"
            "static struct PyModuleDef stub = {PyModuleDef_HEAD_INIT, \"kernel\", NULL, 0,\n"
            "                                  NULL, NULL, NULL, NULL, NULL};\n"
            "PyMODINIT_FUNC PyInit_kernel(void) { return PyModuleDef_Init(&stub); }\n"
        )
        sources.append(source)
    for source in (*sources, sources[0]):
        monkeypatch.setattr(_kernel, "SOURCE", source)
        _kernel.load.cache_clear()
        _kernel.load()
    assert len(commands) == 2
    assert len(list(fresh_cache.iterdir())) == 2


def _wrong(array: np.ndarray, short: bool) -> list:
    """Stand-ins for ``array`` that no entry may accept: another length (2
    cells when ``short``), float32, not contiguous, a list and None; each
    array of them holds the values of ``array``."""
    longer = np.resize(array, (*array.shape[:-1], array.shape[-1] + 1))
    length = array[..., :2] if short else longer
    return [
        length, array.astype(np.float32), np.repeat(array, 2, axis=-1)[..., ::2],
        array.tolist(), None,
    ]


@pytest.mark.parametrize("pressure_const", [0.0, 1.0])
def test_each_entry_rejects_what_it_was_not_built_for(pressure_const):
    # anything but a C-contiguous float64 array of the plan's length, and a
    # read-only output, raises ValueError before a value is written
    n = 16
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    stage = _kernel.plan(grid, ModelConfig(pressure_const=pressure_const, gamma=1.4))._stage
    lib, wall = _kernel.load(), n - 1
    rho, vel, mid = np.linspace(1.0, 0.0, n), np.linspace(0.0, 1.0, n), np.ones((2, n))
    # each entry, its arguments, the places of its arrays and of its output
    entries = {
        "tendencies": (lib.tendencies, [stage, wall, rho, vel, 0.0, None], (2, 3), 5),
        "rk_stage": (lib.rk_stage, [stage, wall, 0.1, rho, vel, mid, None], (3, 4, 5), 6),
        "max_speed": (lib.max_speed, [stage, vel], (1,), None),
        "row_sums": (lib.row_sums, [stage, rho, vel], (1, 2), None),
        "max_slope": (lib.max_slope, [vel, 0.1], (0,), None),
        "format_rows": (lib.format_rows, [np.ones((n, 8))], (0,), None),
    }
    for name, (entry, args, inputs, output) in entries.items():
        if output is not None:
            args[output] = np.full((2, n), 7.0)
        entry(*args)  # the right arrays pass
        for place in (*inputs, output):
            if place is None:
                continue
            if place == output:
                read_only = np.full((2, n), 7.0)
                read_only.flags.writeable = False
                wrong = [*_wrong(np.full((2, n), 7.0), False), read_only, np.full(n, 7.0)]
            else:
                wrong = _wrong(args[place], short=name == "max_slope")
            for stand_in in wrong:
                if stand_in is None and args[place] is mid:
                    continue  # the first Runge-Kutta stage has no mid
                called = list(args)
                if output is not None:
                    called[output] = np.full((2, n), 7.0)
                called[place] = stand_in
                with pytest.raises(ValueError):
                    entry(*called)
                # nothing written, into the output or a rejected one
                if output is not None and isinstance(called[output], np.ndarray):
                    assert np.all(called[output] == 7.0), (name, place)
    out = np.full((2, n), 7.0)
    for bad_wall in (-1, n + 1):
        with pytest.raises(ValueError, match="wall"):
            lib.tendencies(stage, bad_wall, rho, vel, 0.0, out)
        with pytest.raises(ValueError, match="wall"):
            lib.rk_stage(stage, bad_wall, 0.1, rho, vel, None, out)
    assert np.all(out == 7.0)
    # a table block has 1 to 1024 rows of 1 to 8 columns
    for shape in ((0, 8), (1025, 8), (n, 0), (n, 9), (n,), (2, n, 8)):
        with pytest.raises(ValueError, match="block"):
            lib.format_rows(np.ones(shape))
    # nothing but a capsule of stage() is a stage: not the bytes of a struct
    # stage, not another module's capsule, not None
    for not_a_stage in (bytes(120), datetime.datetime_CAPI, None):
        for name, (entry, args, _, output) in entries.items():
            if name in ("max_slope", "format_rows"):
                continue
            called = [not_a_stage, *args[1:]]
            if output is not None:
                called[output] = np.full((2, n), 7.0)
            with pytest.raises(ValueError, match="stage"):
                entry(*called)
            if output is not None:
                assert np.all(called[output] == 7.0), name


def test_each_entry_takes_its_count_of_arguments():
    # one argument too few or too many raises TypeError naming the entry,
    # before anything is written
    n = 16
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    w, lib = model.grid_weights(grid, 3), _kernel.load()
    stage = _kernel.plan(grid, ModelConfig(pressure_const=1.0, gamma=1.4))._stage
    rho, vel, out = np.linspace(1.0, 0.0, n), np.linspace(0.0, 1.0, n), np.full((2, n), 7.0)
    calls = {
        "stage": [
            0.0625, 1.0, 1.4, 0.0, grid.cell_centers, w.face_area, w.shell, w.inner_shell,
            w.center, np.empty(n),
        ],
        "tendencies": [stage, n - 1, rho, vel, 0.0, out],
        "rk_stage": [stage, n - 1, 0.1, rho, vel, None, out],
        "max_speed": [stage, vel],
        "max_slope": [vel, 0.1],
        "row_sums": [stage, rho, vel],
        "format_rows": [np.ones((n, 8))],
        "kernel_target": [],
    }
    for name, args in calls.items():
        # one more, and one fewer where there is one to drop
        for called in [[*args, out]] + [args[:-1]] * bool(args):
            message = f"^{name} takes {len(args)} arguments, got {len(called)}$"
            with pytest.raises(TypeError, match=message):
                getattr(lib, name)(*called)
    assert np.all(out == 7.0)
    for name, args in calls.items():
        getattr(lib, name)(*args)  # the right count passes


@pytest.mark.parametrize("pressure_const, gamma", [(1.0, 1.4), (0.0, 1.4), (1.0, 1.0)])
def test_stage_takes_only_the_arrays_of_its_grid(pressure_const, gamma):
    # every array is checked when the stage is built: a weight of another
    # length, float32 or not contiguous, and with K > 0 and gamma > 1 a
    # missing or read-only cell row, raise ValueError
    grid = RadialGrid(n_cells=16, support_radius=1.0)
    w, lib = model.grid_weights(grid, 3), _kernel.load()
    # the arrays stage() takes after its four numbers, in order
    good = dict(
        r=grid.cell_centers, face_area=w.face_area, shell=w.shell,
        inner_shell=w.inner_shell, center=w.center, cell=np.empty(16),
    )

    def build(**swap):
        return lib.stage(0.0625, pressure_const, gamma, 0.0, *{**good, **swap}.values())

    build()
    for name, array in good.items():
        if name == "cell":
            continue
        for stand_in in _wrong(array, short=False):
            # another length of r is another n, which the weights then miss
            with pytest.raises(ValueError, match=None if name == "r" else f": {name} must"):
                build(**{name: stand_in})
    with pytest.raises(ValueError, match="r must"):
        build(r=good["r"][:1])
    read_only = np.empty(grid.n_cells)
    read_only.flags.writeable = False
    for cell in (None, read_only, np.empty(grid.n_cells + 1)):
        if pressure_const > 0.0 and gamma > 1.0:
            with pytest.raises(ValueError, match="cell"):
                build(cell=cell)
        else:
            build(cell=cell)  # no row is raised: the argument is not read


def test_a_plan_outlives_its_grid_and_weights():
    # the stage holds the buffers it reads: dropping every other reference to
    # the grid's weights and centers, and reusing their memory, changes no bit
    n = 64
    cfg = ModelConfig(delta=1, pressure_const=1.0, gamma=1.4)
    r = (np.arange(n) + 0.5) / n
    state = FluidState(0.0, (1.0 - r**2) ** 2, r * (1.0 - r))
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    kept = _kernel.Plan(grid, cfg)
    model.grid_weights.cache_clear()
    del grid
    gc.collect()
    # NaN in the memory those arrays held, had the stage let it go
    junk = [np.full(size, np.nan) for size in (n, n + 1) for _ in range(16)]
    fresh = _kernel.Plan(RadialGrid(n_cells=n, support_radius=1.0), cfg)
    assert kept.max_speed(state) == fresh.max_speed(state)
    wall = n - 2
    assert kept.tendencies(state, wall, 1e-12)[0].tobytes() == (
        fresh.tendencies(state, wall, 1e-12)[0].tobytes()
    )
    assert kept.row_sums(state) == fresh.row_sums(state)
    del junk


@pytest.mark.parametrize("pressure_const, gamma", [(0.0, 1.4), (1.0, 1.0), (1.0, 1.4)])
def test_a_step_answers_for_the_state_it_made(monkeypatch, pressure_const, gamma):
    # the wave speed and slope of the state a step made come from its second
    # stage, with no C call, for that state object alone: the same arrays in
    # a state built anew go through the entries and give the same values.
    # With pressure and gamma > 1 the speed needs the raised cells, and
    # max_speed's entry still runs
    n = 64
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    cfg = ModelConfig(dim=3, delta=1, pressure_const=pressure_const, gamma=gamma)
    r = grid.cell_centers
    state = FluidState(0.0, (1.0 - r**2) ** 2, r * (1.0 - r))
    made = solver.step(state, 1e-3, cfg, grid, solver.NumericsConfig())
    lib, called = _kernel.load(), []

    class Counted:
        def __getattr__(self, name):
            called.append(name)
            return getattr(lib, name)

    monkeypatch.setattr(_kernel, "load", Counted)
    speed = solver.max_wave_speed(made, cfg, grid)
    gradient = diagnostics.max_velocity_gradient(made, grid)
    assert called == ([] if pressure_const == 0.0 or gamma == 1.0 else ["max_speed"])
    anew = FluidState(made.time, made.rho, made.vel)
    called.clear()
    assert np.float64(solver.max_wave_speed(anew, cfg, grid)).tobytes() == (
        np.float64(speed).tobytes()
    )
    assert diagnostics.max_velocity_gradient(anew, grid) == gradient
    assert called == ["max_speed", "max_slope"]


def test_the_library_runs_the_avx2_clones_where_the_cpu_has_avx2():
    assert _kernel.target() == cpu_clones()[0]


def test_the_avx2_clones_of_the_loops_hold_256_bit_code():
    # a static function without the clone attribute, called from a wide
    # clone, would run its loops as baseline code
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("objdump is not installed")
    listing = subprocess.run(
        [objdump, "-d", _kernel.load().__file__], check=True, capture_output=True, text=True
    ).stdout
    # no contraction into fused multiply-adds, which every wide target has
    assert re.search(r"\svfn?m(add|sub)", listing) is None
    wide: dict[tuple[str, str], int] = {}
    ymm_in_avx512f: dict[str, int] = {}
    key = None
    for line in listing.splitlines():
        head = re.match(r"[0-9a-f]+ <(\w+)\.(avx512f|avx2)[.\w]*>:", line)
        if head:
            key = head.group(1), head.group(2)
            wide[key] = 0
        elif re.match(r"[0-9a-f]+ <", line):
            key = None
        elif key is not None and ("zmm" if key[1] == "avx512f" else "ymm") in line:
            wide[key] += 1
        elif key is not None and key[1] == "avx512f" and "ymm" in line:
            ymm_in_avx512f[key[0]] = ymm_in_avx512f.get(key[0], 0) + 1
    if not wide:
        pytest.skip("the kernel has no wide clones on this platform")
    loops = (
        "face_means", "sound_speeds", "fluxes", "cells", "rk_stage", "max_speed", "block_sums"
    )
    # extreme, max_slope and step_facts work in 32-byte vectors, ymm in both
    # clones
    for loop in loops + ("extreme", "max_slope", "step_facts"):
        assert wide.get((loop, "avx2"), 0) > 0, loop
    for loop in loops:
        assert wide.get((loop, "avx512f"), 0) > 0, loop
    assert ymm_in_avx512f.get("step_facts", 0) > 0


def _tree(name: str) -> ast.AST:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def _imported_modules(tree: ast.AST) -> set:
    """The top-level names of the modules a source imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_kernel_module_calls_the_library():
    # the ABI and numpy's ** between the C calls are _kernel's alone: the run
    # path reaches the kernel through a plan's methods and max_slope
    for path in sorted(PACKAGE.glob("*.py")):
        assert "ctypes" not in _imported_modules(_tree(path.name)), path.name
    for name in ("solver.py", "diagnostics.py"):
        tree = _tree(name)
        assert "_kernel" not in _imported_modules(tree), name
        used = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "_kernel"
        }
        assert used <= {"plan", "max_slope"}, name
