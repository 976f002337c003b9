"""Shared helpers for tests: reading run artifacts back, and the kernel
clones this machine runs."""

import importlib.util
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

from radialblowup import _kernel


def read_summary(run_dir) -> dict:
    out = {}
    for line in Path(run_dir, "summary.txt").read_text().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def read_series(run_dir) -> dict:
    path = Path(run_dir, "series.tsv")
    data = np.genfromtxt(path, delimiter="\t", names=True)
    data = np.atleast_1d(data)
    return {name: np.asarray(data[name], dtype=float) for name in data.dtype.names}


def read_snapshot(path) -> dict:
    data = np.genfromtxt(path, delimiter="\t", names=True)
    return {name: np.asarray(data[name], dtype=float) for name in data.dtype.names}


def summary_float(summary: dict, key: str) -> float:
    return float(summary[key])


def cpu_clones() -> tuple:
    """The kernel clones this process can run, widest first: on x86-64 Linux
    with glibc, the targets of ``CLONE_TARGETS`` in ``_kernel.c`` that
    ``/proc/cpuinfo`` lists, then ``default``."""
    if (platform.machine(), platform.system(), platform.libc_ver()[0]) != (
        "x86_64", "Linux", "glibc"
    ):
        return ("default",)
    try:
        with open("/proc/cpuinfo") as info:
            flags = next(line.split() for line in info if line.startswith("flags"))
    except (OSError, StopIteration):
        flags = []
    return tuple(t for t in ("avx512f", "avx2") if t in flags) + ("default",)


def swap_in_clone(tmp_path_factory, name: str, *flags: str):
    """Fixture body: compile ``_kernel.c`` again with ``flags``, check that the
    build runs clone ``name``, and return it from ``_kernel.load`` until the
    fixture ends. Skipped where the CPU cannot run that clone."""
    if name not in cpu_clones():
        pytest.skip(f"this machine cannot run the {name} clone")
    path = tmp_path_factory.mktemp(f"{name}-clone") / "kernel.so"
    command = [
        *_kernel.COMPILE, *flags, *_kernel.extension_flags(), "-o", str(path),
        str(_kernel.SOURCE), "-lm",
    ]
    subprocess.run(command, check=True)
    spec = importlib.util.spec_from_file_location("kernel", path)
    lib = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lib)
    assert lib.kernel_target() == name
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "load", lambda: lib)
        yield lib
