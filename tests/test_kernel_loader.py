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
import sys
import weakref
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


@pytest.mark.parametrize("value", ["relative/cache", ""])
def test_a_relative_or_empty_cache_home_falls_back_to_the_home_cache(
    value, tmp_path, monkeypatch, stub_source
):
    # the XDG base-directory spec calls a relative path invalid: the cache
    # must not move with the working directory
    home = tmp_path / "home"
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", value)
    monkeypatch.chdir(tmp_path)
    _kernel.load.cache_clear()
    try:
        library = Path(_kernel.load().__file__)
    finally:
        _kernel.load.cache_clear()
    assert library.parent == home / ".cache" / "radialblowup"
    assert not (tmp_path / "relative").exists()


def _wrong(array: np.ndarray) -> list:
    """Stand-ins for ``array`` that no entry may accept: another length,
    float32, not contiguous, a list and None; each array of them holds the
    values of ``array``."""
    return [
        np.resize(array, (*array.shape[:-1], array.shape[-1] + 1)), array.astype(np.float32),
        np.repeat(array, 2, axis=-1)[..., ::2], array.tolist(), None,
    ]


@pytest.mark.parametrize("pressure_const", [0.0, 1.0])
def test_each_entry_rejects_what_it_was_not_built_for(pressure_const):
    # anything but a C-contiguous float64 array of the plan's length, and a
    # read-only output, raises ValueError before a value is written. The
    # raised cells are read, and checked, only with K > 0
    n = 16
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    stage = _kernel.plan(grid, ModelConfig(pressure_const=pressure_const, gamma=1.4))._stage
    lib, wall = _kernel.load(), n - 1
    rho, vel = np.linspace(1.0, 0.0, n), np.linspace(0.0, 1.0, n)
    cell, raised = rho**0.4, pressure_const > 0.0
    # each entry, its arguments, the places of its arrays and of its
    # outputs: finish_step writes its k as well as its out
    entries = {
        "tendencies": (
            lib.tendencies, [stage, wall, rho, vel, cell, 0.0, None], (2, 3, 4)[: 2 + raised],
            (6,),
        ),
        "finish_step": (
            lib.finish_step, [stage, wall, 0.1, rho, vel, None, 0.0, None, _kernel.power],
            (3, 4), (5, 7),
        ),
        "facts": (lib.facts, [stage, rho, vel, cell], (1, 2, 3)[: 2 + raised], ()),
        "row_sums": (lib.row_sums, [stage, rho, vel, cell], (1, 2, 3)[: 2 + raised], ()),
        "format_rows": (lib.format_rows, [np.ones((n, 8))], (0,), ()),
    }

    def fresh(args, outputs):
        """``args`` with a block of 7.0 for each output."""
        called = list(args)
        for place in outputs:
            called[place] = np.full((2, n), 7.0)
        return called

    for name, (entry, args, inputs, outputs) in entries.items():
        entry(*fresh(args, outputs))  # the right arrays pass
        for place in (*inputs, *outputs):
            if place in outputs:
                read_only = np.full((2, n), 7.0)
                read_only.flags.writeable = False
                wrong = [*_wrong(np.full((2, n), 7.0)), read_only, np.full(n, 7.0)]
            else:
                wrong = _wrong(args[place])
            for stand_in in wrong:
                called = fresh(args, outputs)
                called[place] = stand_in
                with pytest.raises(ValueError):
                    entry(*called)
                # nothing written, into an output or a rejected one
                for output in outputs:
                    if isinstance(called[output], np.ndarray):
                        assert np.all(called[output] == 7.0), (name, place)
    out, k = np.full((2, n), 7.0), np.full((2, n), 7.0)
    for bad_wall in (-1, n + 1):
        with pytest.raises(ValueError, match="wall"):
            lib.tendencies(stage, bad_wall, rho, vel, cell, 0.0, out)
        with pytest.raises(ValueError, match="wall"):
            lib.finish_step(stage, bad_wall, 0.1, rho, vel, k, 0.0, out, _kernel.power)
    assert np.all(out == 7.0) and np.all(k == 7.0)
    # a table block has 1 to 1024 rows of 1 to 8 columns
    for shape in ((0, 8), (1025, 8), (n, 0), (n, 9), (n,), (2, n, 8)):
        with pytest.raises(ValueError, match="block"):
            lib.format_rows(np.ones(shape))
    # nothing but a capsule of stage() is a stage: not the bytes of a struct
    # stage, not another module's capsule, not None
    for not_a_stage in (bytes(120), datetime.datetime_CAPI, None):
        for name, (entry, args, _, outputs) in entries.items():
            if name == "format_rows":
                continue
            called = fresh([not_a_stage, *args[1:]], outputs)
            with pytest.raises(ValueError, match="stage"):
                entry(*called)
            for output in outputs:
                assert np.all(called[output] == 7.0), name


def test_each_entry_takes_its_count_of_arguments():
    # one argument too few or too many raises TypeError naming the entry,
    # before anything is written
    n = 16
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    w, lib = model.grid_weights(grid, 3), _kernel.load()
    stage = _kernel.plan(grid, ModelConfig(pressure_const=1.0, gamma=1.4))._stage
    rho, vel, out = np.linspace(1.0, 0.0, n), np.linspace(0.0, 1.0, n), np.full((2, n), 7.0)
    k = np.full((2, n), 7.0)
    calls = {
        "stage": [
            0.0625, 1.0, 1.4, 0.0, grid.cell_centers, w.face_area, w.shell, w.inner_shell,
            w.center, 1,
        ],
        "tendencies": [stage, n - 1, rho, vel, rho, 0.0, out],
        "finish_step": [stage, n - 1, 0.1, rho, vel, k, 0.0, out, _kernel.power],
        "facts": [stage, rho, vel, rho],
        "row_sums": [stage, rho, vel, rho],
        "format_rows": [np.ones((n, 8))],
        "kernel_target": [],
    }
    for name, args in calls.items():
        # one more, and one fewer where there is one to drop
        for called in [[*args, out]] + [args[:-1]] * bool(args):
            message = f"^{name} takes {len(args)} arguments, got {len(called)}$"
            with pytest.raises(TypeError, match=message):
                getattr(lib, name)(*called)
    assert np.all(out == 7.0) and np.all(k == 7.0)
    for name, args in calls.items():
        getattr(lib, name)(*args)  # the right count passes


@pytest.mark.parametrize("pressure_const, gamma", [(1.0, 1.4), (0.0, 1.4)])
def test_stage_takes_only_the_arrays_of_its_grid(pressure_const, gamma):
    # every array is checked when the stage is built: a weight of another
    # length, float32 or not contiguous raises ValueError; the raised cells
    # are no part of a stage, but an argument of each call that reads them
    grid = RadialGrid(n_cells=16, support_radius=1.0)
    w, lib = model.grid_weights(grid, 3), _kernel.load()
    # the arrays stage() takes after its four numbers, in order
    good = dict(
        r=grid.cell_centers, face_area=w.face_area, shell=w.shell,
        inner_shell=w.inner_shell, center=w.center,
    )

    def build(**swap):
        return lib.stage(0.0625, pressure_const, gamma, 0.0, *{**good, **swap}.values(), 1)

    stage = build()
    for name, array in good.items():
        for stand_in in _wrong(array):
            # another length of r is another n, which the weights then miss
            with pytest.raises(ValueError, match=None if name == "r" else f": {name} must"):
                build(**{name: stand_in})
    with pytest.raises(ValueError, match="r must"):
        build(r=good["r"][:1])
    # the largest dr a stage takes, whose slope width 2 dr is DBL_MAX, and
    # the next double above it
    half = sys.float_info.max / 2.0
    build_dr = lib.stage(half, pressure_const, gamma, 0.0, *good.values(), 1)
    with pytest.raises(ValueError, match="dr must be"):
        lib.stage(np.nextafter(half, np.inf), pressure_const, gamma, 0.0, *good.values(), 1)
    vel = np.zeros(grid.n_cells)
    for cell in (None, np.empty(grid.n_cells + 1)):
        if pressure_const > 0.0:
            with pytest.raises(ValueError, match="cell"):
                lib.facts(stage, vel, vel, cell)
        else:
            lib.facts(stage, vel, vel, cell)  # no row is raised: the argument is not read
    assert lib.facts(build_dr, vel, vel, np.ones(grid.n_cells))[2] == (0.0, 1)


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
    assert kept.facts(state) == fresh.facts(state)
    wall = n - 2
    assert kept.tendencies(state, wall, 1e-12)[0].tobytes() == (
        fresh.tendencies(state, wall, 1e-12)[0].tobytes()
    )
    assert kept.row_sums(state) == fresh.row_sums(state)
    del junk


@pytest.mark.parametrize("pressure_const, gamma", [(0.0, 1.4), (1.0, 1.4)])
def test_a_step_answers_for_the_state_it_made(monkeypatch, pressure_const, gamma):
    # a step returns the facts of the state it made, which finish_step finds,
    # and they are what the facts entry gives for that state. With pressure
    # the speed needs the raised cells: finish_step raises them through the
    # numpy power it is handed and returns them too
    n = 64
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    cfg = ModelConfig(dim=3, delta=1, pressure_const=pressure_const, gamma=gamma)
    r = grid.cell_centers
    state = FluidState(0.0, (1.0 - r**2) ** 2, r * (1.0 - r))
    _kernel.plan(grid, cfg)  # its stage built before the count
    lib, called = _kernel.load(), []

    class Counted:
        def __getattr__(self, name):
            called.append(name)
            return getattr(lib, name)

    monkeypatch.setattr(_kernel, "load", Counted)
    made, speed, gradient, powers = solver.step(state, 1e-3, cfg, grid, solver.NumericsConfig())
    raised = pressure_const > 0.0
    assert called == ["tendencies", "finish_step"]
    if raised:
        assert powers.tobytes() == (np.maximum(made.rho, 0.0) ** (gamma - 1.0)).tobytes()
    else:
        assert powers is None
    _, fresh_speed, fresh_gradient = _kernel.plan(grid, cfg).facts(made)
    assert np.float64(fresh_speed).tobytes() == np.float64(speed).tobytes()
    assert fresh_gradient == gradient
    assert np.float64(solver.max_wave_speed(made, cfg, grid)).tobytes() == (
        np.float64(speed).tobytes()
    )
    assert diagnostics.max_velocity_gradient(made, grid) == gradient


@pytest.mark.parametrize("pressure_const, gamma", [(0.0, 1.4), (1.0, 1.4)])
def test_finish_step_raises_the_cells_through_the_power_it_is_handed(pressure_const, gamma):
    # for K > 0 alone, finish_step calls the power it is handed
    # with gamma - 1 on the stage's densities, then the new state's, and
    # returns the second row itself; it holds neither once it returns. What
    # that power raises, or a row of another length, reaches the caller
    n = 64
    grid = RadialGrid(n_cells=n, support_radius=1.0)
    cfg = ModelConfig(dim=3, delta=1, pressure_const=pressure_const, gamma=gamma)
    r = grid.cell_centers
    state = FluidState(0.0, (1.0 - r**2) ** 2, r * (1.0 - r))
    plan, wall = _kernel.plan(grid, cfg), n - 2
    stage, lib = plan._stage, _kernel.load()
    seen = []

    def power(rho, exponent):
        row = _kernel.power(rho, exponent)
        seen.append((rho.copy(), exponent, weakref.ref(row)))
        return row

    k, _ = plan.tendencies(state, wall, 0.0)
    out = np.empty((2, n))
    bad, facts, raised = lib.finish_step(stage, wall, 1e-3, state.rho, state.vel, k, 0.0, out, power)
    assert bad == -1 and facts == plan.facts(FluidState(0.0, out[0], out[1]))
    if not pressure_const > 0.0:
        assert seen == [] and raised is None
        return
    (first, e1, held1), (second, e2, held2) = seen
    assert e1 == e2 == gamma - 1.0
    assert first.tobytes() == k[0].tobytes() and second.tobytes() == out[0].tobytes()
    assert held2() is raised and held1() is None
    del raised
    assert held2() is None

    def fails(rho, exponent):
        raise ZeroDivisionError("from the power")

    with pytest.raises(ZeroDivisionError, match="from the power"):
        lib.finish_step(stage, wall, 1e-3, state.rho, state.vel, k, 0.0, out, fails)
    for wrong in (lambda rho, e: np.ones(n + 1), lambda rho, e: None):
        with pytest.raises(ValueError, match="cell must be"):
            lib.finish_step(stage, wall, 1e-3, state.rho, state.vel, k, 0.0, out, wrong)


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
    loops = ("face_means", "sound_speeds", "fluxes", "cells", "combine", "block_sums")
    # the facts' lanes, inlined into part, work in 32-byte vectors, ymm in
    # both clones
    for loop in loops + ("part",):
        assert wide.get((loop, "avx2"), 0) > 0, loop
    for loop in loops:
        assert wide.get((loop, "avx512f"), 0) > 0, loop
    assert ymm_in_avx512f.get("part", 0) > 0


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
    # path reaches the kernel through a plan's methods
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
        assert used <= {"plan"}, name
