"""The AVX2 clone of the kernel matches the numpy oracle as well.

Where the CPU has AVX-512 the loader runs the avx512f clones, and the avx2
ones would never run in tier-1. This module compiles the kernel with a
clone list of avx2 alone (``-D'CLONE_TARGETS(X)=X(avx2)'``), whose loader
picks the avx2 clones wherever the CPU has AVX2, and runs the oracle cases
of ``test_kernel_equivalence`` against that library. It is skipped where
the CPU or the platform has no AVX2 clone.
"""

import pytest

from _helpers import swap_in_clone

# collected again in this module, where the fixture below swaps the library
from test_kernel_equivalence import (  # noqa: F401
    test_breakdown_reports_the_same_cell,
    test_diagnostics_row_matches_numpy_sums,
    test_a_slope_width_of_any_sign_divides_every_difference,
    test_edge_faces_match_reference_at_every_wall,
    test_facts_at_their_edges,
    test_max_velocity_gradient_matches_reference,
    test_padding_field_and_diagnostics_match_reference,
    test_reductions_keep_numpy_rules,
    test_signed_zeros_match_reference,
    test_slopes_equal_after_the_division_take_the_first_cell,
    test_tendencies_and_step_match_reference,
    test_the_facts_of_a_made_state_keep_numpy_rules,
)


@pytest.fixture(scope="module", autouse=True)
def avx2_clone(tmp_path_factory):
    """The avx2-only build, returned by ``_kernel.load`` in this module."""
    yield from swap_in_clone(tmp_path_factory, "avx2", "-DCLONE_TARGETS(X)=X(avx2)")
