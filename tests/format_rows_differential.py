"""Brute-force check of the kernel's ``format_rows`` against ``'%.17g' % x``.

Draws about a million seeded values of both signs around the exact 17-digit
path of ``format_rows`` (1e-11 <= |x| < 1e17): a uniform binary exponent
with a random mantissa; dyadic m * 2**-j; exact ties halfway between two
17-digit decimals; 2000 ulps each side of 10**k for k = -12 .. 17; and 2000
ulps each side of 1e-11, 1e17 and 1e-5. Prints the count and the time, and
the first mismatches, if any, and exits 1 then. Run it with the package
importable:

    PYTHONPATH=src python tests/format_rows_differential.py [--seed N]
"""

import argparse
import math
import sys
import time
from fractions import Fraction

import numpy as np

from radialblowup import _kernel

ROWS, COLUMNS = 1024, 8


def around(value: float, reach: int) -> np.ndarray:
    """``value`` and its ``reach`` neighbours each side."""
    bits = int(np.float64(value).view(np.uint64))
    return np.arange(bits - reach, bits + reach + 1, dtype=np.uint64).view(np.float64)


# the decades 10**a that hold exact ties of 17 digits below 2**53
TIE_DECADES = range(-8, 16)


def tie_range(a: int) -> tuple:
    """(j, lo, hi): for h in [lo, hi), (2h + 1) / 2**j lies in [10**a,
    10**(a + 1)) with a + 1 + j = 18 significant digits, the last a 5, so it
    is halfway between two 17-digit decimals; 2h + 1 < 2**53, so it is a
    float."""
    j = 17 - a
    lo, hi = Fraction(10) ** a * 2**j, min(Fraction(10) ** (a + 1) * 2**j, Fraction(2**53))
    return j, math.ceil((lo - 1) / 2), math.ceil((hi - 1) / 2)


def ties(rng, count: int) -> np.ndarray:
    parts = []
    for a in TIE_DECADES:
        j, lo, hi = tie_range(a)
        half = rng.integers(lo, hi, count // len(TIE_DECADES))
        parts.append(np.ldexp((2 * half + 1).astype(np.float64), -j))
    return np.concatenate(parts)


def values(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    binade = np.ldexp(
        rng.integers(2**52, 2**53, 500_000).astype(np.float64), rng.integers(-89, 5, 500_000)
    )
    dyadic = np.ldexp(
        rng.integers(1, 2**53, 200_000).astype(np.float64), -rng.integers(0, 91, 200_000)
    )
    near = [around(10.0**k, 2000) for k in range(-12, 18)]
    near += [around(edge, 2000) for edge in (1e-11, 1e17, 1e-5)]
    drawn = np.concatenate([binade, dyadic, ties(rng, 200_000), *near])
    return drawn * rng.choice([-1.0, 1.0], drawn.size)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args(argv).seed
    drawn = values(seed)
    # whole blocks: the last one padded with 1.0
    block = ROWS * COLUMNS
    table = np.ones(-(-drawn.size // block) * block)
    table[: drawn.size] = drawn
    row = "\t".join(["%.17g"] * COLUMNS) + "\n"
    kernel = _kernel.load()
    bad, took = 0, 0.0
    for lo in range(0, table.size, block):
        part = table[lo : lo + block]
        start = time.perf_counter()
        got = kernel.format_rows(part.reshape(ROWS, COLUMNS))
        took += time.perf_counter() - start
        want = (row * ROWS % tuple(part.tolist())).encode()
        if got != want:
            for x, a, b in zip(part.tolist(), got.split(), want.split()):
                if a != b:
                    bad += 1
                    if bad <= 20:
                        print(f"{x!r}: format_rows {a.decode()}, '%.17g' {b.decode()}")
    print(
        f"format_rows against '%.17g': {drawn.size} values of seed {seed}, "
        f"{bad} mismatches, {took:.3f} s in format_rows"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
