"""Best-of-repeat times of the numpy kernels on fixed inputs.

Prints one row per kernel and input size. The CCF quadrature is timed at
65x65 (reference users) and at the preset geometry, 551x551 with user 2
at 2 m in user 1's direction, for T=200 (today's rule) and T=800 (a
converged rule at that size). The exact CCF element sum, which the NF
sweeps take instead of the T=200 rule up to 200^2 elements, is timed on
the reference users at 65x65, 151x151 and 199x199; the CCF rows also
print the time per integrand evaluation (T^2 for the rule, m^2 for the
element sum), which shows the crossover. The dense log-determinant oracle, which
forms the lower triangle of I + sum_k snr_k h_k h_k^H in block columns
and factors them with the in-place blocked Cholesky kernel, is timed at
the two sizes the verify paths use: 33x33 (``nfcap verify``) and 65x65
(``mac --verify`` on the reference array), on the reference users at
SNR 1000. Its rows also print the peak of the memory numpy allocates in
one call, as traced by ``tracemalloc``, in units of 16 M^2 bytes (one
complex M x M matrix): about 0.5 for the lower triangle alone.

Usage: python3 benchmarks/bench_kernels.py [--repeat N] [--number N]
"""

import argparse
import math
import timeit
import tracemalloc

import numpy as np

from nfcap import _kernels
from nfcap.geometry import ArrayGeometry, UserLocation, nf_channel_vector
from nfcap.oracles import logdet_capacity_oracle

FREQUENCY_HZ = 2.4e9
WAVELENGTH = 299792458.0 / FREQUENCY_HZ


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


def _element_args(m_axis):
    x, z, w, *rest = _quad_args(m_axis)
    return (m_axis, m_axis, (WAVELENGTH / 2.0) / 10.0, *rest)


def _logdet_args(m_axis):
    geom = ArrayGeometry.from_frequency(m_x=m_axis, m_z=m_axis, frequency_hz=FREQUENCY_HZ)
    users = (UserLocation(range_r=10.0, azimuth_theta=math.pi / 3,
                          elevation_phi=2 * math.pi / 3),
             UserLocation(range_r=5.0, azimuth_theta=2 * math.pi / 3,
                          elevation_phi=math.pi / 3))
    return [nf_channel_vector(geom, u) for u in users], [1000.0, 1000.0]


def _workloads():
    dist_args = _distance_args()
    dists = _kernels.element_distances(*dist_args)
    quad = [
        (f"ccf_quadrature_sum {label}", _kernels.ccf_quadrature_sum, args,
         len(args[0]) * len(args[1]))
        for label, args in (
            ("65 T=200", _quad_args()),
            ("551 sd T=200", _quad_args(551, 200, True, 2.0)),
            ("551 sd T=800", _quad_args(551, 800, True, 2.0)),
        )
    ]
    elements = [
        (f"ccf_element_sum {m}x{m}", _kernels.ccf_element_sum, _element_args(m), m * m)
        for m in (65, 151, 199)
    ]
    return [
        ("element_distances 301x301", _kernels.element_distances, dist_args, None),
        ("nf_entries 301x301", _kernels.nf_entries, (dists, 1.2e-4, WAVELENGTH), None),
        *quad,
        *elements,
        ("mc_grid_best 400x400x64", _kernels.mc_grid_best,
         (0.8, 0.3, 0.05 - 0.02j, 400, 400, 64), None),
        *[(f"logdet_capacity_oracle {m}x{m}", logdet_capacity_oracle, _logdet_args(m),
           None) for m in (33, 65)],
    ]


def _best_seconds(func, args, repeat, number):
    timer = timeit.Timer(lambda: func(*args))
    return min(timer.repeat(repeat=repeat, number=number)) / number


def _traced_peak(func, args):
    "Peak bytes that tracemalloc sees allocated during one call."
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions per kernel (default 5)")
    parser.add_argument("--number", type=int, default=3,
                        help="calls per repetition (default 3)")
    args = parser.parse_args()

    header = f"{'kernel':<32} {'time':>12} {'per eval':>12} {'peak/16M^2':>11}"
    print(header)
    print("-" * len(header))
    for name, func, call_args, evals in _workloads():
        seconds = _best_seconds(func, call_args, args.repeat, args.number)
        per_eval = f"{seconds / evals * 1e9:>10.1f}ns" if evals else " " * 12
        peak = ""
        if func is logdet_capacity_oracle:
            order = len(call_args[0][0])
            peak = f"{_traced_peak(func, call_args) / (16 * order**2):>11.3f}"
        print(f"{name:<32} {seconds * 1e3:>10.3f}ms {per_eval} {peak}".rstrip())


if __name__ == "__main__":
    main()
