"""Properties of the two-user capacity formulas over their whole domain,
drawn by hypothesis: gains g >= 0 (zero included), squared correlation
rho in [0, 1] (both ends included), SNRs >= 0, power P > 0 and noise
variances > 0, with magnitudes kept where no formula overflows.

Slack is 1e-12 relative: each formula is a few roundings of a log2, so
two expressions that agree in exact arithmetic agree to a few ulps.
Every capacity is also drawn at a link budget scaled by a factor f in
[1, 100] (both SNRs, or P), and may not fall.

The formulas take arrays, and each element must be the bits that the
scalar expressions they replaced give on it: these are copied below and
compared with ==, on drawn arrays that include every branch edge.
"""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfcap.broadcast import (
    BcConfig,
    bc_asymptotics,
    bc_capacity_two_user,
    bc_power_allocation_two_user,
    linear_precoder_sum_rate,
)
from nfcap.geometry import ArrayGeometry, UserLocation
from nfcap.mac import (
    MacConfig,
    linear_combiner_sum_rate,
    mac_asymptotics,
    mac_capacity_two_user,
    sic_rates_two_user,
)
from nfcap.multicast import mc_asymptotics, mc_capacity_two_user, mc_upper_bound
from nfcap.stats import asymptotic_gains, ff_gain_closed

REL = 1e-12


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


gains = st.one_of(st.just(0.0), _log_uniform(-8.0, 1.0))
rhos = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
snrs = st.one_of(st.just(0.0), _log_uniform(-2.0, 5.0))
powers = _log_uniform(-2.0, 5.0)
noises = _log_uniform(-3.0, 3.0)
factors = st.floats(1.0, 100.0)

PROPERTIES = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def _le(a: float, b: float) -> bool:
    return a <= b + REL * max(1.0, abs(b))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=REL)


@PROPERTIES
@given(gains, gains, rhos, snrs, snrs, factors)
def test_uplink_capacity_bounds_combiners_and_splits_into_corners(g1, g2, rho, s1, s2, f):
    cap = mac_capacity_two_user(g1, g2, rho, s1, s2)
    assert _le(cap, mac_capacity_two_user(g1, g2, rho, f * s1, f * s2))
    r_opt, r_mrc, r_zf = (
        linear_combiner_sum_rate(scheme, g1, g2, rho, s1, s2)
        for scheme in ("opt", "mrc", "zf")
    )
    assert _le(r_opt, cap)
    assert _le(max(r_mrc, r_zf), r_opt)
    for order in ("u1_first", "u2_first"):
        corner = sic_rates_two_user(g1, g2, rho, s1, s2, order)
        assert _close(corner.r1 + corner.r2, cap)
    assert _close(mac_capacity_two_user(g2, g1, rho, s2, s1), cap)


@PROPERTIES
@given(gains, gains, rhos, powers, noises, noises, factors)
# evaluated as (x - a) + b, the split loses x = P a b (1 - rho) to
# cancellation here and p1 + p2 misses P by 8.7e-8 relative
@example(1e-8, 1e-8, 0.3, 1e-2, 1.0, 1.0, 1.0)
def test_downlink_split_spends_the_budget_and_ignores_user_order(g1, g2, rho, p, v1, v2, f):
    cfg = BcConfig(p, (v1, v2))
    alloc = bc_power_allocation_two_user(g1, g2, rho, cfg)
    if g1 > 0.0 or g2 > 0.0:
        assert math.isclose(sum(alloc.p_per_user), p, rel_tol=REL)
    cap = bc_capacity_two_user(g1, g2, rho, cfg)
    swapped = BcConfig(p, (v2, v1))
    assert _close(bc_capacity_two_user(g2, g1, rho, swapped), cap)
    assert _le(cap, bc_capacity_two_user(g1, g2, rho, BcConfig(f * p, (v1, v2))))


@PROPERTIES
@given(gains, gains, rhos, powers, noises, noises, factors)
def test_multicast_stays_below_its_bound_and_ignores_user_order(g1, g2, rho, p, v1, v2, f):
    cap = mc_capacity_two_user(g1, g2, rho, v1, v2, p)
    assert _le(cap, mc_upper_bound((g1, g2), (v1, v2), p))
    assert _close(mc_capacity_two_user(g2, g1, rho, v2, v1, p), cap)
    assert _le(cap, mc_capacity_two_user(g1, g2, rho, v1, v2, f * p))


# ---------------------------------------------------------------------------
# bit identity: each formula on arrays against the scalar expressions it
# replaced, copied here, element by element


def _clamp(rho):
    return min(max(rho, 0.0), 1.0)


def _scalar_mac(g1, g2, rho, s1, s2):
    rho = _clamp(rho)
    return math.log2(1.0 + s1 * g1 + s2 * g2 + s1 * s2 * g1 * g2 * (1.0 - rho))


def _scalar_sic(g1, g2, rho, s1, s2, order):
    rho = _clamp(rho)
    x1, x2 = s1 * g1, s2 * g2
    cross = s1 * s2 * g1 * g2 * (1.0 - rho)
    if order == "u1_first":
        r1 = math.log2(1.0 + (x1 + cross) / (1.0 + x2))
        r2 = math.log2(1.0 + x2)
    else:
        r1 = math.log2(1.0 + x1)
        r2 = math.log2(1.0 + (x2 + cross) / (1.0 + x1))
    return max(0.0, r1), max(0.0, r2)


def _scalar_combiner(scheme, g1, g2, rho, s1, s2):
    z = _clamp(rho)

    def loss(x):
        if scheme == "opt":
            return x * z / (1.0 + x)
        if scheme == "mrc":
            return x * z / (1.0 + x * z)
        return z

    x1, x2 = s1 * g1, s2 * g2
    total = 0.0
    for own, other in ((x1, x2), (x2, x1)):
        total += math.log2(1.0 + own * (1.0 - loss(other)))
    return total


def _scalar_bc_split(g1, g2, rho, power, var1, var2):
    "(p1, p2, det) of the dual-uplink split, branch by branch."
    rho = _clamp(rho)
    a, b = g1 / var1, g2 / var2
    to1 = (power, 0.0, 1.0 + power * a)
    to2 = (0.0, power, 1.0 + power * b)
    if a <= 0.0 and b <= 0.0:
        return 0.0, 0.0, 1.0
    if b <= 0.0:
        return to1
    if a <= 0.0:
        return to2
    if 1.0 - rho < 1e-9:
        return to1 if a >= b else to2
    one_minus = 1.0 - rho
    x = power * a * b * one_minus
    k1 = (x + (b - a)) / (2.0 * a * one_minus)
    k2 = (x + (a - b)) / (2.0 * b * one_minus)
    if k1 <= 0.0:
        return to1
    if k2 <= 0.0:
        return to2
    return k2 / a, k1 / b, 1.0 + k1 + k2 + k1 * k2 * one_minus


def _scalar_precoder(scheme, g1, g2, rho, hats):
    z = _clamp(rho)

    def loss(x):
        return x * z / (1.0 + x * z) if scheme == "mrt" else z

    total = 0.0
    for gain, own, other in ((g1, hats[0], hats[1]), (g2, hats[1], hats[0])):
        total += math.log2(1.0 + own * gain * (1.0 - loss(other * gain)))
    return total


def _scalar_mc(g1, g2, rho, var1, var2, power):
    rho = _clamp(rho)
    if g1 <= 0.0 or g2 <= 0.0:
        return 0.0
    a, b = g1 / var1, g2 / var2
    if a <= rho * b:
        eta = a
    elif b <= rho * a:
        eta = b
    else:
        s1, s2, r1, r2 = map(math.sqrt, (var1, var2, g1, g2))
        gap = s2 * r1 - s1 * r2
        chi = gap * gap + 2.0 * s1 * s2 * r1 * r2 * (1.0 - rho) / (1.0 + math.sqrt(rho))
        eta = g1 * g2 * (1.0 - rho) / chi
    return math.log2(1.0 + power * eta)


def _scalar_mc_bound(gains, noise_vars, power):
    total = 0.0
    for g, var in zip(gains, noise_vars):
        total += g / var
    return math.log2(1.0 + power * total / len(gains))


_EDGE = 1.0 - 1e-9
# (g1, g2, rho, link value): vanishing gains, rho at 0 and 1, 1 - rho at
# and on either side of the downlink's 1e-9 switch, k1 = 0 and k2 = 0 of
# the downlink at unit noise and P = 1, and a = rho b (and b = rho a) of
# the multicast at unit noise
EDGES = st.sampled_from([
    (0.0, 0.0, 0.3, 1.0), (0.0, 0.5, 0.3, 1.0), (0.5, 0.0, 0.3, 1.0),
    (0.5, 2.0, 0.0, 10.0), (0.5, 2.0, 1.0, 10.0), (2.0, 2.0, 1.0, 10.0),
    (0.5, 2.0, _EDGE, 10.0), (0.5, 2.0, math.nextafter(_EDGE, 0.0), 10.0),
    (0.5, 2.0, math.nextafter(_EDGE, 1.0), 10.0), (2.0, 0.5, 1.0 - 2e-9, 10.0),
    (2.0, 1.0, 0.5, 1.0), (1.0, 2.0, 0.5, 1.0),
])
POINTS = st.lists(st.one_of(EDGES, st.tuples(gains, gains, rhos, powers)),
                  min_size=1, max_size=12)
NOISE_PAIRS = st.one_of(st.just((1.0, 1.0)), st.tuples(noises, noises))
BITS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def _columns(points):
    return [np.array(column) for column in zip(*points)]


@BITS
@given(POINTS, st.lists(snrs, min_size=12, max_size=12))
def test_uplink_arrays_are_the_scalar_bits(points, second_snrs):
    g1, g2, rho, s1 = _columns(points)
    s2 = np.array(second_snrs[: len(points)])
    rows = list(zip(*(a.tolist() for a in (g1, g2, rho, s1, s2))))
    assert mac_capacity_two_user(g1, g2, rho, s1, s2).tolist() == [
        _scalar_mac(*row) for row in rows]
    for order in ("u1_first", "u2_first"):
        pair = sic_rates_two_user(g1, g2, rho, s1, s2, order)
        assert list(zip(pair.r1.tolist(), pair.r2.tolist())) == [
            _scalar_sic(*row, order) for row in rows]
    for scheme in ("opt", "mrc", "zf"):
        assert linear_combiner_sum_rate(scheme, g1, g2, rho, s1, s2).tolist() == [
            _scalar_combiner(scheme, *row) for row in rows]


@BITS
@given(POINTS, NOISE_PAIRS)
def test_downlink_arrays_are_the_scalar_bits(points, noise):
    g1, g2, rho, power = _columns(points)
    cfg = BcConfig(power, noise)
    rows = list(zip(*(a.tolist() for a in (g1, g2, rho, power))))
    splits = [_scalar_bc_split(*row, *noise) for row in rows]
    assert bc_capacity_two_user(g1, g2, rho, cfg).tolist() == [
        math.log2(det) for _, _, det in splits]
    alloc = bc_power_allocation_two_user(g1, g2, rho, cfg)
    assert [p.tolist() for p in alloc.p_per_user] == [
        [max(0.0, split[k]) for split in splits] for k in (0, 1)]
    hats = (power / 2.0 / noise[0], power / 2.0 / noise[1])
    for scheme in ("mrt", "zf"):
        assert linear_precoder_sum_rate(scheme, g1, g2, rho, hats).tolist() == [
            _scalar_precoder(scheme, g, h, r, (p / 2.0 / noise[0], p / 2.0 / noise[1]))
            for g, h, r, p in rows]


@BITS
@given(POINTS, NOISE_PAIRS)
def test_multicast_arrays_are_the_scalar_bits(points, noise):
    g1, g2, rho, power = _columns(points)
    rows = list(zip(*(a.tolist() for a in (g1, g2, rho, power))))
    assert mc_capacity_two_user(g1, g2, rho, *noise, power).tolist() == [
        _scalar_mc(g, h, r, *noise, p) for g, h, r, p in rows]
    assert mc_upper_bound((g1, g2), noise, power).tolist() == [
        _scalar_mc_bound((g, h), noise, p) for g, h, _, p in rows]


@BITS
@given(st.lists(st.floats(1.0, 1e4), min_size=1, max_size=8),
       st.lists(st.integers(0, 300), min_size=1, max_size=8), snrs, powers)
# ranges whose square by libm's pow (Python's **) is not r * r
@example([12.082034244170387, 53.28179081746751], [0, 4], 100.0, 10.0)
def test_limits_over_ranges_sizes_and_link_values_are_the_scalar_bits(
    ranges, halves, snr, power
):
    """Each kind's large-array limit, over an array of user 2's ranges,
    of array sizes or of link values, is the scalar capacity at each
    point's own limit statistics: the planar NF gain xi/2 (or the
    single-column one at m = 1) with rho = 0, or the FF gains
    M A Psi / (4 pi r^2) with rho = 1 for a shared direction."""
    u1 = UserLocation(10.0, math.pi / 3, 2 * math.pi / 3)
    base = ArrayGeometry.from_frequency(9, 9, 2.4e9)
    sizes = np.array([2.0 * h + 1.0 for h in halves])
    r2 = np.array(ranges)
    snrs_ = np.linspace(snr, 2 * snr + 1.0, len(ranges))
    powers_ = np.linspace(power, 2 * power, len(halves))

    def ff_gain(m, u, r):
        return m * m * base.element_area * u.dir_y / (4 * np.pi * r**2)

    for same in (False, True):
        u2 = UserLocation(5.0, *((u1.azimuth_theta, u1.elevation_phi) if same
                                 else (2 * math.pi / 3, math.pi / 3)))
        rho_ff = 1.0 if same else 0.0
        far = replace(u2, range_r=r2)
        ff = [(ff_gain(9, u1, 10.0), ff_gain(9, u2, r), rho_ff) for r in ranges]
        assert ff_gain_closed(base, far).tolist() == [g2 for _, g2, _ in ff]
        got = mac_asymptotics(base, (u1, far), MacConfig((snrs_, snrs_)), "ff")
        assert got.tolist() == [
            _scalar_mac(*stats, s, s) for stats, s in zip(ff, snrs_.tolist())]
        grown = replace(base, m_x=sizes, m_z=sizes)
        ff = [(ff_gain(int(m), u1, 10.0), ff_gain(int(m), u2, 5.0), rho_ff)
              for m in sizes.tolist()]
        got = bc_asymptotics(grown, (u1, u2), BcConfig(powers_, (1.0, 1.0)), "ff")
        assert got.tolist() == [
            math.log2(_scalar_bc_split(*stats, p, 1.0, 1.0)[2])
            for stats, p in zip(ff, powers_.tolist())]
        got = mc_asymptotics(grown, (u1, u2), BcConfig(powers_, (1.0, 1.0)), "nf")
        column = asymptotic_gains(replace(base, m_x=1), (u1, u2))
        planar = base.occupation_ratio / 2
        nf = [(*(column if m == 1 else (planar, planar)), 0.0) for m in sizes.tolist()]
        assert np.asarray(got).tolist() == [
            _scalar_mc(*stats, 1.0, 1.0, p) for stats, p in zip(nf, powers_.tolist())]


def test_floats_in_give_floats_out():
    cfg = BcConfig(1000.0, (1.0, 1.0))
    corner = sic_rates_two_user(0.5, 0.2, 0.3, 10.0, 10.0, "u1_first")
    values = [
        mac_capacity_two_user(0.5, 0.2, 0.3, 10.0, 10.0),
        corner.r1, corner.r2,
        linear_combiner_sum_rate("opt", 0.5, 0.2, 0.3, 10.0, 10.0),
        bc_capacity_two_user(0.5, 0.2, 0.3, cfg),
        *bc_power_allocation_two_user(0.5, 0.2, 0.3, cfg).p_per_user,
        linear_precoder_sum_rate("zf", 0.5, 0.2, 0.3, (10.0, 10.0)),
        mc_capacity_two_user(0.5, 0.2, 0.3, 1.0, 1.0, 1000.0),
        mc_capacity_two_user(0.0, 0.2, 0.3, 1.0, 1.0, 1000.0),
        mc_upper_bound((0.5, 0.2), (1.0, 1.0), 1000.0),
    ]
    assert [type(v) for v in values] == [float] * len(values)
    assert isinstance(bc_power_allocation_two_user(0.5, 0.0, 0.3, cfg).note, str)


def test_failing_property_reports_a_failure_not_an_internal_error(tmp_path):
    """A property that fails is reported as one failed test under the
    repository's warning filters. The hypothesis plugin touches a
    deprecated mypy_extensions name while reporting it, which the
    "error" filter alone turns into an INTERNALERROR that ends the run.
    """
    (tmp_path / "test_prop.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
         "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed" in out
    assert "INTERNALERROR" not in out
