"""Best-of-repeat times of the numpy kernels on fixed inputs.

Prints one row per kernel and input size. The CCF quadrature is timed at
65x65 (reference users) and at the preset geometry, 551x551 with user 2
at 2 m in user 1's direction, for T=200 (today's rule) and T=800 (a
converged rule at that size). The numba and speedup columns are filled
only when numba is installed; without it they print "-" and only the
numpy kernels run.

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
    dists = _kernels._distances_np(*dist_args)
    entry_args = (dists, 1.2e-4, WAVELENGTH)
    grid_args = (0.8, 0.3, 0.05, -0.02, 400, 400, 64)
    quad = [
        (f"ccf_quadrature_sum {label}", _kernels._quad_sum_np,
         getattr(_kernels, "_quad_sum_nb", None), args)
        for label, args in (
            ("65 T=200", _quad_args()),
            ("551 sd T=200", _quad_args(551, 200, True, 2.0)),
            ("551 sd T=800", _quad_args(551, 800, True, 2.0)),
        )
    ]
    return [
        ("element_distances 301x301", _kernels._distances_np,
         getattr(_kernels, "_distances_nb", None), dist_args),
        ("nf_entries 301x301", _kernels._nf_entries_np,
         getattr(_kernels, "_nf_entries_nb", None), entry_args),
        *quad,
        ("mc_grid_best 400x400x64", _kernels._mc_grid_np,
         getattr(_kernels, "_mc_grid_nb", None), grid_args),
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

    print(f"numba available: {_kernels.HAVE_NUMBA}")
    print(f"dispatching backend: {_kernels.active_backend()}")
    print()
    header = f"{'kernel':<32} {'numpy':>12} {'numba':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))

    for name, np_func, nb_func, call_args in _workloads():
        if _kernels.HAVE_NUMBA and nb_func is not None:
            nb_func(*call_args)  # trigger JIT compilation outside the timing
        t_np = _best_seconds(np_func, call_args, args.repeat, args.number)
        if _kernels.HAVE_NUMBA and nb_func is not None:
            t_nb = _best_seconds(nb_func, call_args, args.repeat, args.number)
            ratio = t_np / t_nb if t_nb > 0 else float("inf")
            print(f"{name:<32} {t_np * 1e3:>10.3f}ms {t_nb * 1e3:>10.3f}ms "
                  f"{ratio:>8.2f}x")
        else:
            print(f"{name:<32} {t_np * 1e3:>10.3f}ms {'-':>12} {'-':>9}")

    # consistency spot check so a speedup never comes from a wrong answer
    quad_args = _quad_args()
    ref = _kernels._quad_sum_np(*quad_args)
    if _kernels.HAVE_NUMBA:
        alt = _kernels._quad_sum_nb(*quad_args)
        rel = abs(ref - alt) / abs(ref)
        print()
        print(f"quadrature agreement: relative difference {rel:.3e}")


if __name__ == "__main__":
    main()
