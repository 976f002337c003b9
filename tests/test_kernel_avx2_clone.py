"""The AVX2 clone of the kernel matches the numpy oracle as well.

Where the CPU has AVX-512 the loader runs the avx512f clones, and the avx2
ones would never run in tier-1. This module compiles the kernel with a
clone list of avx2 alone (``-D'CLONE_TARGETS(X)=X(avx2)'``), whose loader
picks the avx2 clones wherever the CPU has AVX2, and runs every test of
``test_kernel_equivalence`` against that library. It is skipped where the
CPU has no AVX2 clone, or where the loaded library already runs it.
"""

import pytest

from _helpers import swap_in_clone

# every test of the module, collected again here, where the fixture below
# swaps the library: a test added there runs here with no list to keep
from test_kernel_equivalence import *  # noqa: F401,F403


@pytest.fixture(scope="module", autouse=True)
def avx2_clone(tmp_path_factory):
    """The avx2-only build, returned by ``_kernel.load`` in this module."""
    yield from swap_in_clone(tmp_path_factory, "avx2", "-DCLONE_TARGETS(X)=X(avx2)")
