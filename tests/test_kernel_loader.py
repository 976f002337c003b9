"""The compiled kernel is built once per source into the user cache, its
ctypes mirror of ``struct stage`` has the C layout, and on x86-64 ELF with
glibc the loader picks its AVX2 clones."""

import ctypes
import platform
import re
import shutil
import stat
import subprocess

import pytest

from radialblowup import _kernel


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty cache directory and no library loaded in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel.load.cache_clear()
    yield tmp_path / "radialblowup"
    _kernel.load.cache_clear()


def test_second_load_reuses_the_cached_library(fresh_cache, monkeypatch):
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


def test_a_build_removes_older_libraries(fresh_cache):
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
    compile_flags = [flag for flag in _kernel.COMPILE if flag != "-shared"]
    subprocess.run([*compile_flags, "-o", str(binary), str(probe), "-lm"], check=True)
    size, *offsets = map(int, subprocess.run(
        [str(binary)], check=True, capture_output=True, text=True
    ).stdout.split())
    assert size == ctypes.sizeof(_kernel.Stage)
    assert offsets == [getattr(_kernel.Stage, name).offset for name in names]


def _cpu_has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo") as info:
            return any(line.startswith("flags") and " avx2" in line for line in info)
    except OSError:
        return False


def test_the_library_runs_the_avx2_clones_where_the_cpu_has_avx2():
    clones = (
        platform.machine() == "x86_64"
        and platform.system() == "Linux"
        and platform.libc_ver()[0] == "glibc"
    )
    assert _kernel.target() == ("avx2" if clones and _cpu_has_avx2() else "default")


def test_the_avx2_clones_of_the_loops_hold_256_bit_code():
    # a static function without the clone attribute, called from an avx2
    # clone, would run its loops as baseline code
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("objdump is not installed")
    listing = subprocess.run(
        [objdump, "-d", _kernel.load()._name], check=True, capture_output=True, text=True
    ).stdout
    wide: dict[str, int] = {}
    name = None
    for line in listing.splitlines():
        head = re.match(r"[0-9a-f]+ <(\w+)\.avx2[.\w]*>:", line)
        if head:
            name = head.group(1)
            wide[name] = 0
        elif re.match(r"[0-9a-f]+ <", line):
            name = None
        elif name is not None and "ymm" in line:
            wide[name] += 1
    if not wide:
        pytest.skip("the kernel has no avx2 clones on this platform")
    for loop in ("face_densities", "fluxes", "cells", "rk_stage",
                 "max_speed", "extreme", "max_slope", "block_sums"):
        assert wide.get(loop, 0) > 0, loop
