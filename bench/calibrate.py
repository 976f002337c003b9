"""Fixed reference work that measures how fast the machine is right now.

A 1-D minmod/Lax-Friedrichs Burgers solver in numpy, run for a fixed number
of SSP-RK2 steps: the same kind of work as radialblowup's stepping loop
(short numpy calls on arrays of a few thousand cells, a fresh interpreter
and a numpy import), but no code of the package. ``run.py`` times one run of
this script before each timed invocation and divides by it.

Do not change this file: every time the benchmark reports is scaled by it,
so a change here changes all of them.
"""

import numpy as np

N_CELLS = 2048
STEPS = 1500


def minmod(a, b):
    return np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def rhs(u, dx):
    ext = np.concatenate((u[:2][::-1], u, np.zeros(2)))
    slope = np.zeros_like(ext)
    slope[1:-1] = minmod(ext[1:-1] - ext[:-2], ext[2:] - ext[1:-1])
    left = ext[1:-2] + 0.5 * slope[1:-2]
    right = ext[2:-1] - 0.5 * slope[2:-1]
    speed = np.maximum(np.abs(left), np.abs(right))
    flux = 0.25 * (left**2 + right**2) - 0.5 * speed * (right - left)
    return -(flux[1:] - flux[:-1]) / dx


def main():
    dx = 1.0 / N_CELLS
    x = (np.arange(N_CELLS) + 0.5) * dx
    u = np.sin(np.pi * x) * (1.0 - x)
    for _ in range(STEPS):
        dt = 0.4 * dx / max(float(np.max(np.abs(u))), 1e-12)
        mid = u + dt * rhs(u, dx)
        u = 0.5 * u + 0.5 * (mid + dt * rhs(mid, dx))
    print(float(np.sum(u)))


if __name__ == "__main__":
    main()
