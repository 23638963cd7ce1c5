"""Fixed-size kernel probes, run in a fresh interpreter.

    python3 perfbench/probes.py RECORD

Times each probe a few times on fixed inputs and writes the median
seconds and the operation count of each to RECORD as JSON. The sizes are
the ones later changes are sized against: the CCF quadrature at T=200
(today's rule) and T=800 (a converged rule at 551 elements per axis), the
multicast beam grid of the verify paths, a 551x551 NF channel vector, and
the dense log-det oracle at 65x65.
"""

import json
import math
import statistics
import sys
import time

import numpy as np

from nfcap import (
    ArrayGeometry,
    UserLocation,
    logdet_capacity_oracle,
    nf_channel_vector,
)
from nfcap import _kernels


def _median_seconds(func, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _quadrature_args(geom, u1, u2, nodes):
    # the node set nfcap.stats.nf_ccf_quadrature builds
    t = np.arange(1, nodes + 1)
    delta = np.cos((2 * t - 1) * np.pi / (2 * nodes))
    eps1 = geom.pitch_d / u1.range_r
    return (geom.m_x * eps1 / 2 * delta, geom.m_z * eps1 / 2 * delta,
            np.sqrt(1.0 - delta**2), u1.range_r / u2.range_r, u1.range_r,
            u2.range_r, 2 * np.pi / geom.wavelength,
            u1.dir_x, u1.dir_z, u2.dir_x, u2.dir_z)


def run() -> dict[str, tuple[float, str]]:
    u1 = UserLocation(10.0, math.pi / 3, 2 * math.pi / 3)
    u2 = UserLocation(5.0, 2 * math.pi / 3, math.pi / 3)
    g551 = ArrayGeometry.from_frequency(551, 551, 2.4e9)
    g65 = ArrayGeometry.from_frequency(65, 65, 2.4e9)
    out = {}
    for nodes, repeats in ((200, 15), (800, 5)):
        args = _quadrature_args(g551, u1, u2, nodes)
        key = f"probe.kernels.ccf_quadrature_sum.T{nodes}"
        out[key + ".s"] = (_median_seconds(
            lambda: _kernels.ccf_quadrature_sum(*args), repeats), "s")
        out[key + ".evals"] = (nodes * nodes, "count")

    key = "probe.kernels.mc_grid_best.400x400x64"
    out[key + ".s"] = (_median_seconds(
        lambda: _kernels.mc_grid_best(1.0, 0.7, 0.2 + 0.1j, 400, 400, 64), 3), "s")
    out[key + ".cells"] = (400 * 400 * 64, "count")

    key = "probe.geometry.nf_channel_vector.551"
    out[key + ".s"] = (_median_seconds(lambda: nf_channel_vector(g551, u1), 5), "s")
    out[key + ".elements"] = (g551.m_total, "count")

    vectors = [nf_channel_vector(g65, u1), nf_channel_vector(g65, u2)]
    key = "probe.oracles.logdet_capacity_oracle.65"
    out[key + ".s"] = (_median_seconds(
        lambda: logdet_capacity_oracle(vectors, [1000.0, 1000.0]), 3), "s")
    out[key + ".bytes"] = (2 * 16 * g65.m_total**2, "B")
    return out


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(run(), handle)
