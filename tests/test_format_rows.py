"""The compiled ``format_rows`` writes the Python writer's text byte for byte.

The tables it writes match the oracle's ``write_table``, and its exact
17-digit path matches ``'%.17g' % x`` on the values it takes, its ties and
its borders. ``format_rows`` is no ``CLONED`` function of the kernel, so
these tests run once, on the library the loader picks;
``format_rows_differential.py`` runs the brute-force version of the second.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_kernel as ref
from format_rows_differential import TIE_DECADES, tie_range
from radialblowup import _kernel, cli


def _bits(*patterns: int) -> list:
    """The float64 values of raw 64-bit patterns."""
    return np.array(patterns, dtype=np.uint64).view(np.float64).tolist()


def _around(value: float, reach: int = 3) -> list:
    """``value`` and its ``reach`` neighbours each side, of both signs."""
    bits = int(np.float64(value).view(np.uint64))
    near = _bits(*range(bits - reach, bits + reach + 1))
    return near + [-x for x in near]


# NaN of both signs and with payloads, the infinities, the zeros, the
# subnormals, the extreme normals, and the neighbours of the points where
# %g switches between fixed and exponent notation or adds a digit
SPECIAL = np.array(
    _bits(
        0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001,
        0x7FF4000000000000, 0x7FFFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
        0x0000000000000000, 0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
        0x0010000000000000, 0x8010000000000000, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
    )
    + [x for p in (1e-5, 1e-4, 1e16, 1e17, 1.0, 0.1) for x in _around(p)]
)


@st.composite
def tables(draw):
    """Float64 columns of raw bit patterns, some of their values special, for
    row counts around the writer's 1024-row blocks and 1 to 8 columns."""
    rows = draw(st.sampled_from((0, 1, 1023, 1024, 1025, 2049)))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.frombuffer(rng.bytes(8 * rows * k), dtype=np.float64).copy()
    share = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    picked = rng.random(values.size) < share
    values[picked] = rng.choice(SPECIAL, int(picked.sum()))
    # drawn values first, so a failure shrinks to them
    first = draw(st.lists(st.sampled_from(SPECIAL.tolist()), max_size=min(8, values.size)))
    values[: len(first)] = first
    return list(values.reshape(k, rows))


@settings(max_examples=60, deadline=None)
@given(tables())
def test_tables_match_the_python_writer_byte_for_byte(tmp_path_factory, columns):
    where = tmp_path_factory.mktemp("tables")
    header = ["\t".join(f"c{j}" for j in range(len(columns))), "# time = 0.5"]
    cli._write_table(where / "compiled.tsv", header, columns)
    ref.write_table(where / "python.tsv", header, columns)
    assert (where / "compiled.tsv").read_bytes() == (where / "python.tsv").read_bytes()


@st.composite
def exact_path_values(draw):
    """Values of both signs for the exact 17-digit path of ``format_rows``,
    1e-11 <= |x| < 1e17, and its borders: a uniform binary exponent with a
    random mantissa; dyadic m * 2**-j, and among them exact ties halfway
    between two 17-digit decimals; up to 2000 ulps around 10**k for
    k = -12 .. 17, where the decimal exponent needs its correction and a
    carry of the rounding to the next power of ten would show; and the
    neighbours of 1e-11 and 1e17, the ends of the range, and of 1e-5, where
    %g switches to an exponent."""
    kind = draw(st.sampled_from(("binade", "dyadic", "tie", "power of ten", "edge")))
    if kind == "binade":
        value = math.ldexp(draw(st.integers(2**52, 2**53 - 1)), draw(st.integers(-89, 4)))
    elif kind == "dyadic":
        value = math.ldexp(draw(st.integers(1, 2**53 - 1)), -draw(st.integers(0, 90)))
    elif kind == "tie":
        j, lo, hi = tie_range(draw(st.sampled_from(TIE_DECADES)))
        value = math.ldexp(2 * draw(st.integers(lo, hi - 1)) + 1, -j)
    else:
        near = 10.0 ** draw(st.integers(-12, 17)) if kind == "power of ten" else draw(
            st.sampled_from((1e-11, 1e17, 1e-5))
        )
        reach = 2000 if kind == "power of ten" else 8
        steps = draw(st.integers(-reach, reach))
        value = _bits(int(np.float64(near).view(np.uint64)) + steps)[0]
    return draw(st.sampled_from((1.0, -1.0))) * value


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_path_values(), min_size=1, max_size=64))
@example([1.00000762939453125])
def test_exact_17_digit_path_matches_percent_g(values):
    expected = "".join("%.17g\n" % x for x in values).encode()
    assert _kernel.format_rows([np.array(values)]) == expected
