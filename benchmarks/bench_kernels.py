"""Best-of-repeat times of the numpy kernels on fixed inputs.

Prints one row per kernel and input size. The CCF quadrature is timed at
65x65 (reference users) and at the preset geometry, 551x551 with user 2
at 2 m in user 1's direction, for T=200 (today's rule) and T=800 (a
converged rule at that size).

Usage: python3 benchmarks/bench_kernels.py [--repeat N] [--number N]
"""

import argparse
import math
import timeit

import numpy as np

from nfcap import _kernels

WAVELENGTH = 299792458.0 / 2.4e9


def _distance_args(m_axis=301):
    pitch = WAVELENGTH / 2.0
    r = 10.0
    theta = math.pi / 3
    phi = 2 * math.pi / 3
    dir_x = math.sin(phi) * math.cos(theta)
    dir_z = math.cos(phi)
    return m_axis, m_axis, r, pitch / r, dir_x, dir_z


def _quad_args(m_axis=65, nodes=200, same_direction=False, r2=5.0):
    r1 = 10.0
    eps = (WAVELENGTH / 2.0) / r1
    t = np.arange(1, nodes + 1)
    delta = np.cos((2 * t - 1) * np.pi / (2 * nodes))
    w = np.sqrt(1.0 - delta**2)
    x = m_axis * eps / 2 * delta
    z = m_axis * eps / 2 * delta
    k0 = 2 * np.pi / WAVELENGTH
    theta1, phi1 = math.pi / 3, 2 * math.pi / 3
    theta2, phi2 = (theta1, phi1) if same_direction else (2 * math.pi / 3, math.pi / 3)
    px1 = math.sin(phi1) * math.cos(theta1)
    oz1 = math.cos(phi1)
    px2 = math.sin(phi2) * math.cos(theta2)
    oz2 = math.cos(phi2)
    return x, z, w, r1 / r2, r1, r2, k0, px1, oz1, px2, oz2


def _workloads():
    dist_args = _distance_args()
    dists = _kernels.element_distances(*dist_args)
    quad = [
        (f"ccf_quadrature_sum {label}", _kernels.ccf_quadrature_sum, args)
        for label, args in (
            ("65 T=200", _quad_args()),
            ("551 sd T=200", _quad_args(551, 200, True, 2.0)),
            ("551 sd T=800", _quad_args(551, 800, True, 2.0)),
        )
    ]
    return [
        ("element_distances 301x301", _kernels.element_distances, dist_args),
        ("nf_entries 301x301", _kernels.nf_entries, (dists, 1.2e-4, WAVELENGTH)),
        *quad,
        ("mc_grid_best 400x400x64", _kernels.mc_grid_best,
         (0.8, 0.3, 0.05 - 0.02j, 400, 400, 64)),
    ]


def _best_seconds(func, args, repeat, number):
    timer = timeit.Timer(lambda: func(*args))
    return min(timer.repeat(repeat=repeat, number=number)) / number


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions per kernel (default 5)")
    parser.add_argument("--number", type=int, default=3,
                        help="calls per repetition (default 3)")
    args = parser.parse_args()

    header = f"{'kernel':<32} {'time':>12}"
    print(header)
    print("-" * len(header))
    for name, func, call_args in _workloads():
        seconds = _best_seconds(func, call_args, args.repeat, args.number)
        print(f"{name:<32} {seconds * 1e3:>10.3f}ms")


if __name__ == "__main__":
    main()
