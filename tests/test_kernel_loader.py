"""The compiled kernel is built once per source into the user cache, its
ctypes mirror of ``struct stage`` has the C layout, on x86-64 ELF with glibc
the loader picks the widest clone the CPU has, and only ``_kernel`` calls it."""

import ast
import ctypes
import re
import shutil
import stat
import subprocess
from pathlib import Path

import pytest

from _helpers import cpu_clones
from radialblowup import _kernel

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
    """A source that defines every entry ``_open`` looks up, and nothing else:
    it builds in a fraction of the kernel's time."""
    stub = tmp_path / "stub.c"
    entries = (f"int {name}(void) {{ return 0; }}\n" for name in _kernel._SIGNATURES)
    stub.write_text("".join(entries))
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
    assert lib.tendencies.restype is _kernel.ctypes.c_int64
    (library,) = fresh_cache.iterdir()
    assert library.name.startswith("kernel-") and library.suffix == ".so"
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


def test_a_build_removes_older_libraries(fresh_cache, stub_source):
    fresh_cache.mkdir(mode=0o700)
    stale = fresh_cache / "kernel-0000000000000000.so"
    partial = fresh_cache / "tmpbuild.so.tmp"
    stale.write_bytes(b"old")
    partial.write_bytes(b"another process is building")
    _kernel.load()
    names = sorted(p.name for p in fresh_cache.iterdir())
    assert stale.name not in names and partial.name in names
    (library,) = (name for name in names if name.endswith(".so"))
    assert library.startswith("kernel-") and library != stale.name


def test_stage_mirror_matches_the_c_struct(tmp_path):
    # a probe that includes the kernel prints the size and field offsets of
    # struct stage; a field on one side only shifts them or fails to compile
    names = [name for name, _ in _kernel.Stage._fields_]
    prints = "".join(
        f'    printf("%zu\\n", offsetof(struct stage, {name}));\n' for name in names
    )
    probe = tmp_path / "probe.c"
    probe.write_text(
        "#include <stddef.h>\n#include <stdio.h>\n"
        f'#include "{_kernel.SOURCE}"\n'
        "int main(void)\n{\n"
        '    printf("%zu\\n", sizeof(struct stage));\n'
        f"{prints}    return 0;\n}}\n"
    )
    binary = tmp_path / "probe"
    # the layout does not depend on the optimization level; -O0 builds fast
    compile_flags = [
        "-O0" if flag == "-O3" else flag for flag in _kernel.COMPILE if flag != "-shared"
    ]
    subprocess.run([*compile_flags, "-o", str(binary), str(probe), "-lm"], check=True)
    size, *offsets = map(int, subprocess.run(
        [str(binary)], check=True, capture_output=True, text=True
    ).stdout.split())
    assert size == ctypes.sizeof(_kernel.Stage)
    assert offsets == [getattr(_kernel.Stage, name).offset for name in names]


def test_the_library_runs_the_avx2_clones_where_the_cpu_has_avx2():
    assert _kernel.target() == cpu_clones()[0]


def test_the_avx2_clones_of_the_loops_hold_256_bit_code():
    # a static function without the clone attribute, called from a wide
    # clone, would run its loops as baseline code
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("objdump is not installed")
    listing = subprocess.run(
        [objdump, "-d", _kernel.load()._name], check=True, capture_output=True, text=True
    ).stdout
    # no contraction into fused multiply-adds, which every wide target has
    assert re.search(r"\svfn?m(add|sub)", listing) is None
    wide: dict[tuple[str, str], int] = {}
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
    if not wide:
        pytest.skip("the kernel has no wide clones on this platform")
    loops = (
        "face_means", "sound_speeds", "fluxes", "cells", "rk_stage", "max_speed", "block_sums"
    )
    # extreme and max_slope work in 32-byte vectors, ymm in both clones
    for loop in loops + ("extreme", "max_slope"):
        assert wide.get((loop, "avx2"), 0) > 0, loop
    for loop in loops:
        assert wide.get((loop, "avx512f"), 0) > 0, loop


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
        imports_ctypes = "ctypes" in _imported_modules(_tree(path.name))
        assert imports_ctypes == (path.name == "_kernel.py"), path.name
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
