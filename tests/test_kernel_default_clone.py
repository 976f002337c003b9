"""The baseline clone of the kernel matches the numpy oracle as well.

On x86-64 ELF with glibc the kernel holds an AVX2 and a baseline clone of
each entry, and the loader runs the AVX2 one wherever the CPU has it, so
the other tests exercise only that clone there. This module compiles the
same source again with the clone guard off (``-U__ELF__``), as it builds on
macOS, arm64 or musl, and runs the oracle cases of
``test_kernel_equivalence`` against that library: tendencies, stepped
states, wave speed, gradient, breakdown cells and row sums.
"""

import subprocess

import pytest

from radialblowup import _kernel

# collected again in this module, where the fixture below swaps the library
from test_kernel_equivalence import (  # noqa: F401
    test_breakdown_reports_the_same_cell,
    test_diagnostics_row_matches_numpy_sums,
    test_max_velocity_gradient_matches_reference,
    test_padding_field_and_diagnostics_match_reference,
    test_reductions_keep_numpy_rules,
    test_signed_zeros_match_reference,
    test_tendencies_and_step_match_reference,
)


@pytest.fixture(scope="module", autouse=True)
def default_clone(tmp_path_factory):
    """The guard-off build, returned by ``_kernel.load`` in this module."""
    path = tmp_path_factory.mktemp("default-clone") / "kernel.so"
    command = [*_kernel.COMPILE, "-U__ELF__", "-o", str(path), str(_kernel.SOURCE), "-lm"]
    subprocess.run(command, check=True)
    lib = _kernel._open(path)
    assert lib.kernel_target() == b"default"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "load", lambda: lib)
        yield lib
