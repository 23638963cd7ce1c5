"""Best-of-repeat times of the numpy kernels on fixed inputs.

Prints one row per kernel and input size. The CCF quadrature is timed at
65x65 (reference users) and at the preset geometry, 551x551 with user 2
at 2 m in user 1's direction, for T=200 (today's rule) and T=800 (a
converged rule at that size). The exact CCF element sum, which the NF
sweeps take instead of the T=200 rule up to 200^2 elements, is timed on
the reference users at 65x65, 151x151 and 199x199; the CCF rows also
print the time per integrand evaluation (T^2 for the rule, m^2 for the
element sum), which shows the crossover. The uplink log-determinant
oracle, one QR of the (M + 2) x 2
stack of I_2 over the two scaled channels, is timed at 33x33 and at
65x65 (the reference array and the largest that the verify paths take),
on the reference users at SNR 1000. The numpy element oracles that the
channel checks of the verify paths run are timed on the reference users:
the gain at 65x65, and the correlation at 65x65 and at 551x551 (the
largest preset array); their "per eval" is per array element. The
multicast oracle, the convex dual that the verify paths run, is timed
on the log-determinant's 65x65 vectors at power 1000 and unit noise,
beside the 400x400x64 primal beam-grid scan that it replaced. The two
``r2 sweep ccf 551`` rows time the T=200 correlations of the 60 channels
of the ``mc-vs-r2`` preset's NF sweep, 551x551 with user 2 in its own
direction: one ``nf_ccf_batch`` call per channel, and the one call
around their shared user 1 that the runners make. The ``r2 sweep ccf
65 x200`` row times, in that one call, the element sums of a 200-point
``r2_m`` sweep of the default scenario (65x65, user 2 from 2 m to 20 m),
like the one of the benchmark's ``sweeps-nf-65`` workload, and the ``r2
sweep stats 65 x200`` row the statistics of that sweep as its runner
takes them (``sweeps._stats``): the range guard, both gains and the one
correlation call. The "per eval" of the r2 rows is per channel and rule
node or element.
The two ``nf_ccf_batch 1 channel`` rows time the fixed cost of one
kernel call, which every -vs-M array size and every single-point command
pays: one channel of the reference users, as the 3x3 element sum and as
the T=2 rule at 551x551.
The four ``ff sweep 2500`` rows time one FF run of the default scenario
(65x65) over 2500 points of each swept variable, with the target the FF
sweeps of the benchmark give it: array side (channel), SNR (mac), power
(bc) and user 2's range (mc). Their time is per run and their "per
eval" per point; the run evaluates each formula once on the arrays of
all its points into one float64 table. The ``csv_text`` rows write the
13-column table of the ``snr_db`` (mac) run as CSV text, all 2500 rows
and its first row alone, and the ``ff sweep 2500 snr_db mac csv`` row
times that run and its CSV text together, from the formulas to the
text; their "per eval" is per value.

Usage: python3 benchmarks/bench_kernels.py [--repeat N] [--number N]
"""

import argparse
import math
import timeit
from dataclasses import replace

import numpy as np

from nfcap import _kernels, sweeps
from nfcap.config import SweepSpec, default_scenario
from nfcap.geometry import ArrayGeometry, UserLocation, nf_channel_vector
from nfcap.oracles import (
    ccf_sum_oracle,
    gain_sum_oracle,
    logdet_capacity_oracle,
    mc_beam_grid_oracle,
)
from nfcap.stats import nf_ccf_batch

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
    "ccf_element_sums arguments of the reference pair: a list of one channel."
    _, _, _, ups, r1, r2, k0, px1, oz1, px2, oz2 = _quad_args(m_axis)
    return (m_axis, m_axis, (WAVELENGTH / 2.0) / 10.0, r1, k0, px1, oz1,
            [(ups, r2, px2, oz2)])


def _reference_pair(m_axis):
    "The m_axis x m_axis array and the reference users."
    geom = ArrayGeometry.from_frequency(m_x=m_axis, m_z=m_axis, frequency_hz=FREQUENCY_HZ)
    users = (UserLocation(range_r=10.0, azimuth_theta=math.pi / 3,
                          elevation_phi=2 * math.pi / 3),
             UserLocation(range_r=5.0, azimuth_theta=2 * math.pi / 3,
                          elevation_phi=math.pi / 3))
    return geom, users


def _logdet_args(m_axis):
    geom, users = _reference_pair(m_axis)
    return [nf_channel_vector(geom, u) for u in users], [1000.0, 1000.0]


def _element_oracle_rows():
    small, (u1, u2) = _reference_pair(65)
    large, _ = _reference_pair(551)
    return [
        ("gain_sum_oracle 65x65", gain_sum_oracle, (small, u1), small.m_total),
        ("ccf_sum_oracle 65x65", ccf_sum_oracle, (small, u1, u2), small.m_total),
        ("ccf_sum_oracle 551x551", ccf_sum_oracle, (large, u1, u2), large.m_total),
    ]


def _per_channel_ccf(geom, u1, seconds, nodes_T):
    "The correlation of user 1 with each of ``seconds``, one call a channel."
    for u2 in seconds:
        nf_ccf_batch(geom, u1, [u2], nodes_T)


def _r2_sweep_rows():
    _, _, grid, side = sweeps.PRESETS["mc-vs-r2"]
    base = default_scenario()
    geom = replace(base.geometry, m_x=side, m_z=side)
    u1, u2 = base.users
    seconds = [replace(u2, range_r=r) for r in grid]
    nodes = base.quadrature_nodes
    small = base.geometry
    grid = tuple(np.linspace(2.0, 20.0, 200).tolist())
    near = [replace(u2, range_r=r) for r in grid]
    sweep = replace(base, sweep=SweepSpec("r2_m", grid, "mc"))
    geom_65, (u1_65, u2_65) = sweeps._swept(sweep, "r2_m", np.array(grid))[:2]
    return [
        *[(f"r2 sweep ccf {side} x{len(seconds)} {label}", func,
           (geom, u1, seconds, nodes), len(seconds) * nodes**2)
          for label, func in (("per channel", _per_channel_ccf), ("batched", nf_ccf_batch))],
        (f"r2 sweep ccf {small.m_x} x{len(near)} batched", nf_ccf_batch,
         (small, u1, near), len(near) * small.m_total),
        (f"r2 sweep stats {small.m_x} x{len(grid)}", sweeps._stats,
         (sweep, geom_65, u1_65, [u2_65]), len(grid) * small.m_total),
    ]


def _one_channel_rows():
    "One nf_ccf_batch call of the reference pair: the element sum at 3x3, T=2 at 551x551."
    rows = []
    for m, label, nodes in ((3, "elements", None), (551, "T=2", 2)):
        geom, (u1, u2) = _reference_pair(m)
        rows.append((f"nf_ccf_batch 1 channel {m}x{m} {label}", nf_ccf_batch,
                     (geom, u1, [u2], nodes), None))
    return rows


FF_SWEEP_POINTS = 2500
# (swept variable, target, grid) of each FF sweep: odd array sides from
# 3 to 9999, SNR and power from 0 to 80 dB, user 2 from 2 m to 60 m
FF_SWEEPS = (
    ("m_per_axis", "channel", tuple(float(m) for m in range(3, 4 * FF_SWEEP_POINTS, 4))),
    ("snr_db", "mac", tuple(np.linspace(0.0, 80.0, FF_SWEEP_POINTS).tolist())),
    ("power_db", "bc", tuple(np.linspace(0.0, 80.0, FF_SWEEP_POINTS).tolist())),
    ("r2_m", "mc", tuple(np.linspace(2.0, 60.0, FF_SWEEP_POINTS).tolist())),
)


def _ff_sweep_rows():
    "One FF run of each swept variable over 2500 points, as ``nfcap sweep`` runs it."
    base = replace(default_scenario(), channel_model="FF")
    return [
        (f"ff sweep {len(grid)} {variable} {target}", sweeps._run,
         (replace(base, sweep=SweepSpec(variable, grid, target)), False, target), len(grid))
        for variable, target, grid in FF_SWEEPS
    ]


def _run_csv(scenario, target):
    "The CSV text of one run, from its formulas to the text."
    return sweeps.csv_text(sweeps._run(scenario, False, target))


def _csv_rows():
    """``sweeps.csv_text`` on the 13-column table of the 2500-point FF
    ``snr_db`` run of ``_ff_sweep_rows`` and on its first row alone, and
    that run and its CSV text together."""
    base = replace(default_scenario(), channel_model="FF")
    variable, target, grid = FF_SWEEPS[1]
    scenario = replace(base, sweep=SweepSpec(variable, grid, target))
    result = sweeps._run(scenario, False, target)
    first = replace(result, table=result.table[:1])
    return [
        *[(f"csv_text {len(r.table)}x{len(r.columns)}", sweeps.csv_text, (r,),
           r.table.size) for r in (result, first)],
        (f"ff sweep {len(grid)} {variable} {target} csv", _run_csv, (scenario, target),
         result.table.size),
    ]


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
        (f"ccf_element_sum {m}x{m}", _kernels.ccf_element_sums, _element_args(m), m * m)
        for m in (65, 151, 199)
    ]
    return [
        ("element_distances 301x301", _kernels.element_distances, dist_args, None),
        ("nf_entries 301x301", _kernels.nf_entries, (dists, 1.2e-4, WAVELENGTH), None),
        *quad,
        *elements,
        ("mc_grid_best 400x400x64", _kernels.mc_grid_best,
         (0.8, 0.3, 0.05 - 0.02j, 400, 400, 64), None),
        ("mc_beam_grid_oracle 65x65", mc_beam_grid_oracle,
         (*_logdet_args(65)[0], (1.0, 1.0), 1000.0), None),
        *[(f"logdet_capacity_oracle {m}x{m}", logdet_capacity_oracle, _logdet_args(m),
           None) for m in (33, 65)],
        *_element_oracle_rows(),
        *_one_channel_rows(),
        *_r2_sweep_rows(),
        *_ff_sweep_rows(),
        *_csv_rows(),
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

    header = f"{'kernel':<36} {'time':>12} {'per eval':>12}"
    print(header)
    print("-" * len(header))
    for name, func, call_args, evals in _workloads():
        seconds = _best_seconds(func, call_args, args.repeat, args.number)
        per_eval = f"{seconds / evals * 1e9:>10.1f}ns" if evals else ""
        print(f"{name:<36} {seconds * 1e3:>10.3f}ms {per_eval}".rstrip())


if __name__ == "__main__":
    main()
