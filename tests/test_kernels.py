"""Numpy kernels of the hot loops, called through their public names."""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import long_double_ccf_sums
import nfcap._kernels as kernels
from nfcap.geometry import ArrayGeometry, UserLocation, epsilon, nf_channel_vector


def test_mc_grid_best_finds_single_user_optimum():
    "With the second channel dead the scan must put everything on beam 1."
    best, a, b, psi = kernels.mc_grid_best(0.9, 0.0, 0j, 50, 50, 8)
    assert best == pytest.approx(0.0, abs=1e-15)
    assert a >= 0.0


def test_dispatchers_run_through_public_wrappers():
    dists = kernels.element_distances(5, 5, 10.0, 0.006, 0.2, -0.1)
    entries = kernels.nf_entries(dists, 1e-4, 0.125)
    assert entries.shape == dists.shape
    assert np.all(np.isfinite(entries.real))
    total = kernels.ccf_quadrature_sum(
        np.array([0.1, -0.1]),
        np.array([0.2, -0.2]),
        np.array([1.0, 1.0]),
        2.0,
        10.0,
        5.0,
        50.0,
        0.1,
        0.2,
        -0.1,
        -0.2,
    )
    assert isinstance(total, complex)
    assert math.isfinite(total.real) and math.isfinite(total.imag)


def test_ccf_element_sum_is_inner_product_and_norms():
    """S and N_k are h1^H h2 and |h_k|^2 of the NF channel vectors over
    their common factors A sqrt(Psi1 Psi2) / (4 pi r1 r2) and
    A Psi_k / (4 pi r_k^2)."""
    geom = ArrayGeometry.from_frequency(m_x=17, m_z=41, frequency_hz=2.4e9)
    u1 = UserLocation(10.0, math.pi / 3, 2 * math.pi / 3)
    u2 = UserLocation(4.0, 2 * math.pi / 3, math.pi / 3)
    h1, h2 = (nf_channel_vector(geom, u) for u in (u1, u2))
    s, n1, n2 = kernels.ccf_element_sums(
        17, 41, geom.pitch_d / 10.0, 10.0, 2 * np.pi / geom.wavelength,
        u1.dir_x, u1.dir_z, [(2.5, 4.0, u2.dir_x, u2.dir_z)],
    )[0]
    area = geom.element_area
    cross = area * math.sqrt(u1.dir_y * u2.dir_y) / (4 * np.pi * 10.0 * 4.0)
    assert s * cross == pytest.approx(complex(np.vdot(h1, h2)), rel=1e-12)
    for n, h, u in ((n1, h1, u1), (n2, h2, u2)):
        own = area * u.dir_y / (4 * np.pi * u.range_r**2)
        assert n * own == pytest.approx(float(np.vdot(h, h).real), rel=1e-12)


def test_ccf_coefficients_round_once_from_the_exact_values():
    """The column-plus-row coefficients of Q2' = rho^2 Q2 and of
    k0 r1 (Q1 - Q2') / 2 against exact rationals of the double arguments,
    for user 2 jittered around the reference pair: each within an ulp of
    its exact value. The x^2 + z^2 term of the phase, k0 r1 (1 - (rho
    ups)^2) / 2, is a cancellation of order 1e-16 k0 r1; it is held to
    1e-18 k0 r1, where float64 arithmetic misses it by about 1e-16 k0 r1."""
    rng = np.random.default_rng(7)
    r1, k0, px1, oz1 = 10.0, 2 * math.pi / 0.125, 0.43, -0.5
    seconds = [(r1 / r2, r2, px2, oz2) for r2, px2, oz2 in zip(
        rng.uniform(2.0, 20.0, 20), rng.uniform(-0.5, 0.5, 20), rng.uniform(-0.5, 0.5, 20))]
    coef, scales = kernels._coefficients(r1, k0, px1, oz1, seconds)
    # user 1's Q1 first, then each channel's Q2', then each one's half phase
    assert coef[0].tolist() == [1.0, 2 * px1, 2 * oz1, 1.0]
    q2s, phases = coef[1:1 + len(seconds)], coef[1 + len(seconds):]
    assert len(phases) == len(scales) == len(seconds)
    half = Fraction(k0) * Fraction(r1) / 2
    for (ups, r2, px2, oz2), q2, phase, scale in zip(seconds, q2s, phases, scales):
        rho = Fraction(r2) / Fraction(r1)
        a = (rho * Fraction(ups)) ** 2
        b = 2 * rho * rho * Fraction(ups)
        want_q2 = (a, b * Fraction(px2), b * Fraction(oz2), rho * rho)
        want_phase = tuple(half * v for v in (1 - a, 2 * Fraction(px1) - b * Fraction(px2),
                                              2 * Fraction(oz1) - b * Fraction(oz2),
                                              1 - rho * rho))
        for got, want in zip((*q2, *phase[1:]), (*want_q2, *want_phase[1:])):
            assert abs(Fraction(float(got)) - want) <= Fraction(math.ulp(float(want)))
        assert abs(Fraction(float(phase[0])) - want_phase[0]) <= Fraction(1e-18) * half
        assert scale == pytest.approx(float(rho) ** 1.5, rel=1e-15)


def test_quadrature_work_planes_are_cache_line_aligned():
    planes = kernels._aligned_planes(8, 81, 200)
    starts = sorted(p.ctypes.data for p in planes)
    assert all(p.shape == (81, 200) and p.flags.c_contiguous for p in planes)
    assert all(start % 64 == 0 for start in starts)
    assert all(b - a >= 81 * 200 * 8 for a, b in zip(starts, starts[1:]))


def _rule(m_axis, u1, u2, nodes=200):
    "Nodes, weights and kernel arguments of the T x T rule, as the stats build them."
    geom = ArrayGeometry.from_frequency(m_x=m_axis, m_z=m_axis, frequency_hz=2.4e9)
    t = np.arange(1, nodes + 1)
    delta = np.cos((2 * t - 1) * np.pi / (2 * nodes))
    x = m_axis * epsilon(geom, u1) / 2 * delta
    args = (u1.range_r / u2.range_r, u1.range_r, u2.range_r, 2 * np.pi / geom.wavelength,
            u1.dir_x, u1.dir_z, u2.dir_x, u2.dir_z)
    return x, np.sqrt(1.0 - delta**2), args


_U1 = UserLocation(10.0, math.pi / 3, 2 * math.pi / 3)
# second users: reference (dd), co-directional (sd) and co-located
_SECONDS = [
    UserLocation(5.0, 2 * math.pi / 3, math.pi / 3),
    UserLocation(2.0, math.pi / 3, 2 * math.pi / 3),
    _U1,
]


@pytest.mark.parametrize("m_axis", [65, 199])
@pytest.mark.parametrize("u2", _SECONDS, ids=["reference", "co-directional", "co-located"])
def test_element_sum_rho_matches_long_double(m_axis, u2):
    """The element-sum correlation against the same sums in long double.
    The reference pair at 65 x 65 is the default scenario, a null of the
    correlation (rho = 3.5e-8). The bound is the rho that an error of
    2e-15 of sum (Q1 Q2)^-3/4 in S makes, plus 1e-14 relative for the
    norms. At the null that bound is 2.0e-11 of rho; the kernel is
    within 1.8e-12 of it, and a kernel that subtracts the two phases
    k0 r1 sqrt(Q1) and k0 r2 sqrt(Q2) and corrects the rounding of that
    subtraction by TwoSum within 4.7e-12."""
    geom = ArrayGeometry.from_frequency(m_x=m_axis, m_z=m_axis, frequency_hz=2.4e9)
    eps1 = epsilon(geom, _U1)
    _, _, args = _rule(m_axis, _U1, u2)
    ups, r1, r2, k0, px1, oz1, px2, oz2 = args
    s, n1, n2 = kernels.ccf_element_sums(m_axis, m_axis, eps1, r1, k0, px1, oz1,
                                         [(ups, r2, px2, oz2)])[0]
    x = (np.arange(m_axis) - (m_axis - 1) // 2) * eps1
    ones = np.ones(m_axis)
    want_s, scale, want_n1, want_n2 = long_double_ccf_sums(x, x, ones, ones, *args)
    want = abs(want_s) ** 2 / (want_n1 * want_n2)
    rho = abs(s) ** 2 / (n1 * n2)
    bound = 1e-14 * want + 2 * math.sqrt(want) * 2e-15 * scale / math.sqrt(want_n1 * want_n2)
    assert abs(rho - want) <= bound


@pytest.mark.parametrize(("m_axis", "blocks", "group"), [(551, 3, 2), (199, 3, 2), (65, 1, 7)],
                         ids=["rule-551", "elements-199", "elements-65"])
def test_batched_correlation_sums_are_the_one_channel_bits(m_axis, blocks, group):
    """User 1 with 1, G - 1, G, G + 1 and 2G + 1 second users in one
    pass, G the channels of one group, in both orders: every channel's
    sums are the bits of its one-channel call, whatever else shares the
    pass or its group. The T = 200 rule at 551 x 551 runs 200 rows of
    nodes, 81 a block, and the element sum at 199 x 199 199 rows, 82 a
    block: 2 channels a group. The element sum at 65 x 65 is one block
    of 65 rows, 7 channels a group. The second users are the reference,
    co-directional and co-located users, then users drawn from 2 m to
    20 m."""
    geom = ArrayGeometry.from_frequency(m_x=m_axis, m_z=m_axis, frequency_hz=2.4e9)
    x, w, (_, r1, _, k0, px1, oz1, _, _) = _rule(m_axis, _U1, _U1)
    if m_axis == 551:
        cols = rows = len(x)

        def alone(ups, r2, px2, oz2):
            return kernels.ccf_quadrature_sum(x, x, w, ups, r1, r2, k0, px1, oz1, px2, oz2)

        def batch(seconds):
            return kernels.ccf_quadrature_sums(x, x, w, r1, k0, px1, oz1, seconds)
    else:
        cols = rows = m_axis
        eps1 = epsilon(geom, _U1)

        def alone(*second):
            return batch([second])[0]

        def batch(seconds):
            return kernels.ccf_element_sums(m_axis, m_axis, eps1, r1, k0, px1, oz1, seconds)
    block = max(1, kernels._QUAD_BLOCK_NODES // cols)
    assert -(-rows // block) == blocks
    assert max(1, kernels._GROUP_NODES // (min(block, rows) * cols)) == group
    rng = np.random.default_rng(29)
    users = _SECONDS + [UserLocation(r, theta, phi) for r, theta, phi in zip(
        rng.uniform(2.0, 20.0, 2 * group), rng.uniform(0.3, 2.8, 2 * group),
        rng.uniform(0.3, 2.8, 2 * group))]
    seconds = [(r1 / u.range_r, u.range_r, u.dir_x, u.dir_z) for u in users]
    expected = [alone(*second) for second in seconds]
    for count in (1, group - 1, group, group + 1, 2 * group + 1):
        assert batch(seconds[:count]) == expected[:count]
        assert batch(seconds[:count][::-1]) == expected[:count][::-1]


@pytest.mark.parametrize("ph, k0", [
    (0.0, 0.0),
    (math.pi / 2, 1.0),
    (math.pi, 1.0),
    (1e9 + math.pi, 1.0),
], ids=["zero", "half-pi", "pi", "1e9+pi"])
def test_rule_phasor_is_finite_at_the_tangent_poles(ph, k0):
    """One node, and one element, at the origin, where Q1 = Q2 = 1: S is
    the phasor of ph = k0 r1 - k0 r2 alone. With r1 = 2 r2 the
    subtraction is exact, and so is the kernel's half phase
    (k0 r1 / 2) (1 - 1/4) / (1 + 1/2) on these cases. At the double
    nearest pi, tan(ph / 2) is about 1.6e16."""
    r2 = ph if ph else 1.0
    args = (2.0, 2 * r2, r2, k0, 0.1, 0.2, -0.1, 0.3)
    rule = kernels.ccf_quadrature_sum(np.zeros(1), np.zeros(1), np.ones(1), *args)
    elements, n1, n2 = kernels.ccf_element_sums(1, 1, 0.01, 2 * r2, k0, 0.1, 0.2,
                                                [(2.0, r2, -0.1, 0.3)])[0]
    assert k0 * (2 * r2) - k0 * r2 == ph
    for s in (rule, elements):
        assert math.isfinite(s.real) and math.isfinite(s.imag)
        assert abs(s - complex(math.cos(ph), math.sin(ph))) <= 1e-15
    assert n1 == 1.0 and n2 == pytest.approx(1.0, abs=1e-15)


def test_kernel_benchmark_rows_each_run_once():
    "Every row of benchmarks/bench_kernels.py runs, so a renamed seam fails here."
    path = Path(__file__).parent.parent / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for _, func, args, _ in bench._workloads():
        func(*args)
