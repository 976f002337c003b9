"""The baseline clone of the kernel matches the numpy oracle as well.

On x86-64 ELF with glibc the kernel holds an AVX-512, an AVX2 and a
baseline clone of each entry, and the loader runs the widest one the CPU
has, so ``test_kernel_equivalence`` exercises only that clone there. This
module compiles the same source again with the clone guard off
(``-U__ELF__``), as it builds on macOS, arm64 or musl, and runs every test
of ``test_kernel_equivalence`` against that library. It is skipped where
the loaded library is that build already. ``test_kernel_avx2_clone`` does
the same for the AVX2 clone.
"""

import pytest

from _helpers import swap_in_clone

# every test of the module, collected again here, where the fixture below
# swaps the library: a test added there runs here with no list to keep
from test_kernel_equivalence import *  # noqa: F401,F403


@pytest.fixture(scope="module", autouse=True)
def default_clone(tmp_path_factory):
    """The guard-off build, returned by ``_kernel.load`` in this module."""
    yield from swap_in_clone(tmp_path_factory, "default", "-U__ELF__")
