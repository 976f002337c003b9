"""The compiled kernel is built once per source into the user cache, and its
ctypes mirror of ``struct stage`` has the C layout."""

import ctypes
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
    assert "cc -O2 -fPIC -shared -ffp-contract=off" in message
    assert "error: boom" in message
    # nothing half-built is left behind for the next load
    assert list(fresh_cache.iterdir()) == []


def test_missing_compiler_names_the_command(fresh_cache, monkeypatch):
    def missing(command):
        raise FileNotFoundError(2, "No such file or directory", command[0])

    monkeypatch.setattr(_kernel, "_compile", missing)
    with pytest.raises(_kernel.KernelCompileError, match="cannot run `cc -O2"):
        _kernel.load()


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
