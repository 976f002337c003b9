"""The baseline clone of the kernel matches the numpy oracle as well.

On x86-64 ELF with glibc the kernel holds an AVX-512, an AVX2 and a
baseline clone of each entry, and the loader runs the widest one the CPU
has, so ``test_kernel_equivalence`` exercises only that clone there. This
module compiles the same source again with the clone guard off
(``-U__ELF__``), as it builds on macOS, arm64 or musl, and runs the oracle
cases of ``test_kernel_equivalence`` against that library: tendencies,
stepped states, wave speed, gradient, breakdown cells, row sums and the
reductions, and the facts a step finds of the state it makes.
``test_kernel_avx2_clone`` does the same for the AVX2 clone.
"""

import pytest

from _helpers import swap_in_clone

# collected again in this module, where the fixture below swaps the library
from test_kernel_equivalence import (  # noqa: F401
    test_breakdown_reports_the_same_cell,
    test_diagnostics_row_matches_numpy_sums,
    test_a_second_stage_breakdown_reports_the_oracles_cell,
    test_a_smooth_state_breaks_down_in_the_second_stage,
    test_a_slope_width_of_any_sign_is_refused_by_the_stage,
    test_a_state_whose_length_is_not_the_grids_is_refused,
    test_edge_faces_match_reference_at_every_wall,
    test_facts_at_their_edges,
    test_the_force_matches_reference_from_its_first_cell,
    test_max_velocity_gradient_matches_reference,
    test_padding_field_and_diagnostics_match_reference,
    test_reductions_keep_numpy_rules,
    test_signed_zeros_match_reference,
    test_slopes_equal_after_the_division_take_the_first_cell,
    test_tendencies_and_step_match_reference,
    test_the_facts_of_a_made_state_keep_numpy_rules,
)


@pytest.fixture(scope="module", autouse=True)
def default_clone(tmp_path_factory):
    """The guard-off build, returned by ``_kernel.load`` in this module."""
    yield from swap_in_clone(tmp_path_factory, "default", "-U__ELF__")
