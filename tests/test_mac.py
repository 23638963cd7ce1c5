"""Uplink sum capacity, successive-decoding corners, rate regions,
linear combiners, and large-array limits.
"""

import math

import pytest

from conftest import REF_SNR, random_instance, region_contains, synth_pair
from nfcap.geometry import ArrayGeometry, UserLocation
from nfcap.mac import (
    MacConfig,
    RatePoint,
    RateRegion,
    linear_combiner_sum_rate,
    mac_asymptotics,
    mac_capacity_two_user,
    mac_region_two_user,
    sic_rates_two_user,
)
from nfcap.oracles import logdet_capacity_oracle
from nfcap.stats import (
    asymptotic_gains,
    ff_gain_closed,
    nf_ccf_quadrature,
    nf_gain_closed,
    ula_gain_closed,
)

UPA_LIMIT_BITS = 14.64664903308479


def test_two_user_capacity_formula(rng):
    "log2 of the 2x2 determinant expansion, against the dense oracle."
    for _ in range(50):
        g1, g2, rho, s1, s2 = random_instance(rng)
        h1, h2 = synth_pair(g1, g2, rho)
        closed = mac_capacity_two_user(g1, g2, rho, s1, s2)
        oracle = logdet_capacity_oracle([h1, h2], [s1, s2])
        assert closed == pytest.approx(oracle, abs=1e-9)


def test_capacity_monotone_in_each_argument():
    base = mac_capacity_two_user(0.1, 0.2, 0.3, 10.0, 20.0)
    assert mac_capacity_two_user(0.2, 0.2, 0.3, 10.0, 20.0) > base
    assert mac_capacity_two_user(0.1, 0.2, 0.9, 10.0, 20.0) < base
    assert mac_capacity_two_user(0.1, 0.2, 0.3, 20.0, 20.0) > base


def test_capacity_input_validation():
    with pytest.raises(ValueError):
        mac_capacity_two_user(-0.1, 0.2, 0.3, 10.0, 10.0)
    with pytest.raises(ValueError):
        mac_capacity_two_user(0.1, 0.2, 1.5, 10.0, 10.0)
    with pytest.raises(ValueError):
        sic_rates_two_user(0.1, 0.2, 0.3, 10.0, 10.0, "u3_first")


def test_capacity_overflow_raises_instead_of_inf():
    with pytest.raises(ValueError, match="not finite"):
        mac_capacity_two_user(1e200, 1e200, 0.0, 1.0, 1.0)
    # large but finite arguments keep their value
    assert mac_capacity_two_user(1e150, 1e150, 1.0, 1.0, 1.0) == pytest.approx(
        math.log2(1.0 + 2e150), rel=1e-15
    )


def test_sic_corners_sum_to_capacity(rng):
    for _ in range(100):
        g1, g2, rho, s1, s2 = random_instance(rng)
        cap = mac_capacity_two_user(g1, g2, rho, s1, s2)
        for order in ("u1_first", "u2_first"):
            pair = sic_rates_two_user(g1, g2, rho, s1, s2, order)
            assert pair.r1 + pair.r2 == pytest.approx(cap, abs=1e-9)


def test_sic_clean_user_gets_single_user_rate():
    g1, g2, rho, s1, s2 = 0.3, 0.7, 0.4, 100.0, 50.0
    first = sic_rates_two_user(g1, g2, rho, s1, s2, "u1_first")
    assert first.r2 == pytest.approx(math.log2(1 + s2 * g2), rel=1e-12)
    second = sic_rates_two_user(g1, g2, rho, s1, s2, "u2_first")
    assert second.r1 == pytest.approx(math.log2(1 + s1 * g1), rel=1e-12)


def test_rate_point_and_region_containers():
    pt = RatePoint(r1=1.0, r2=2.0)
    assert pt.r1 + pt.r2 == 3.0
    assert (pt.r1, pt.r2) == (1.0, 2.0)
    with pytest.raises(ValueError):
        RatePoint(r1=-0.5, r2=1.0)
    with pytest.raises(ValueError):
        RateRegion(vertices=(pt, pt), kind="pentagon")


def test_region_pentagon_walk_and_membership():
    region = mac_region_two_user(0.4, 0.6, 0.5, 30.0, 20.0)
    assert region.kind == "pentagon"
    origin = region.vertices[0]
    assert (origin.r1, origin.r2) == (0.0, 0.0)
    assert region.vertices[1].r2 == 0.0
    assert region.vertices[-1].r1 == 0.0
    r1_max = math.log2(1 + 30.0 * 0.4)
    r2_max = math.log2(1 + 20.0 * 0.6)
    assert region.vertices[1].r1 == pytest.approx(r1_max, rel=1e-12)
    assert region.vertices[-1].r2 == pytest.approx(r2_max, rel=1e-12)
    cap = mac_capacity_two_user(0.4, 0.6, 0.5, 30.0, 20.0)
    assert max(v.r1 + v.r2 for v in region.vertices) == pytest.approx(cap, abs=1e-9)
    assert region_contains(region, r1_max / 2, r2_max / 2)
    assert not region_contains(region, r1_max, r2_max)


def test_region_uncorrelated_is_rectangle():
    region = mac_region_two_user(0.4, 0.6, 0.0, 30.0, 20.0)
    assert region.kind == "rectangle"
    corner = max(region.vertices, key=lambda v: v.r1 + v.r2)
    assert corner.r1 == pytest.approx(math.log2(1 + 30.0 * 0.4), rel=1e-12)
    assert corner.r2 == pytest.approx(math.log2(1 + 20.0 * 0.6), rel=1e-12)


def test_time_sharing_face_is_linear():
    "Corner-to-corner samples keep the sum rate pinned at capacity."
    region = mac_region_two_user(0.4, 0.6, 0.5, 30.0, 20.0, time_share_samples=51)
    cap = mac_capacity_two_user(0.4, 0.6, 0.5, 30.0, 20.0)
    face = [v for v in region.vertices if abs(v.r1 + v.r2 - cap) < 1e-9]
    assert len(face) >= 51


def test_combiner_ordering(rng):
    "Capacity dominates the MMSE combiner, which dominates MRC and ZF."
    for _ in range(50):
        g1, g2, rho, s1, s2 = random_instance(rng)
        cap = mac_capacity_two_user(g1, g2, rho, s1, s2)
        r_opt = linear_combiner_sum_rate("opt", g1, g2, rho, s1, s2)
        r_mrc = linear_combiner_sum_rate("mrc", g1, g2, rho, s1, s2)
        r_zf = linear_combiner_sum_rate("zf", g1, g2, rho, s1, s2)
        assert cap >= r_opt - 1e-12
        assert r_opt >= r_mrc - 1e-12
        assert r_opt >= r_zf - 1e-12


def test_combiners_meet_capacity_when_uncorrelated(rng):
    "Without interference leakage all three schemes are optimal."
    for _ in range(20):
        g1, g2, _, s1, s2 = random_instance(rng)
        cap = mac_capacity_two_user(g1, g2, 0.0, s1, s2)
        for scheme in ("opt", "mrc", "zf"):
            rate = linear_combiner_sum_rate(scheme, g1, g2, 0.0, s1, s2)
            assert rate == pytest.approx(cap, abs=1e-9)


def test_combiner_scheme_validation():
    with pytest.raises(ValueError):
        linear_combiner_sum_rate("mmse", 0.1, 0.2, 0.3, 10.0, 10.0)


def test_upa_asymptote_reference_value(ref_geometry, user1, user2_dd):
    "The NF limit: the capacity at the saturated planar gains, rho = 0."
    gains = asymptotic_gains(ref_geometry, [user1, user2_dd])
    limit = mac_capacity_two_user(*gains, 0.0, REF_SNR, REF_SNR)
    assert limit == pytest.approx(UPA_LIMIT_BITS, rel=1e-12)
    cfg = MacConfig((REF_SNR, REF_SNR))
    assert mac_asymptotics(ref_geometry, [user1, user2_dd], cfg, "NF") == limit
    direct = 2 * math.log2(1 + REF_SNR / (2 * math.pi))
    assert limit == pytest.approx(direct, rel=1e-12)


def _paper_form(c_asym: float) -> float:
    "The paper's high-SNR FF limit: log2(2^C - 1) of the capacity C."
    return math.log2(2.0**c_asym - 1.0)


def test_ff_asymptote_static_dynamic_gap(ref_geometry, user1, user2_dd, user2_sd):
    """The FF limit is the capacity at the FF gains, with rho = 1 for users
    sharing a direction ("static") and 0 otherwise ("dynamic"); the
    paper's forms are log2(2^C - 1) of it, and dynamic exceeds static."""
    cfg = MacConfig(snr_per_user=(REF_SNR, REF_SNR))
    q = ref_geometry.m_total * ref_geometry.element_area / (4 * math.pi)
    t1 = REF_SNR * user1.dir_y / user1.range_r**2
    for u2, rho in ((user2_dd, 0.0), (user2_sd, 1.0)):
        t2 = REF_SNR * u2.dir_y / u2.range_r**2
        static = math.log2(q * (t1 + t2))
        dynamic = math.log2(q * (t1 + t2) + q**2 * t1 * t2)
        gains = [ff_gain_closed(ref_geometry, u) for u in (user1, u2)]
        assert _paper_form(mac_capacity_two_user(*gains, 1.0, REF_SNR, REF_SNR)) \
            == pytest.approx(static, rel=1e-12)
        assert _paper_form(mac_capacity_two_user(*gains, 0.0, REF_SNR, REF_SNR)) \
            == pytest.approx(dynamic, rel=1e-12)
        assert dynamic > static
        c_asym = mac_asymptotics(ref_geometry, [user1, u2], cfg, "ff")
        assert c_asym == mac_capacity_two_user(*gains, rho, REF_SNR, REF_SNR)


def test_ula_asymptote_approached_by_closed_gain():
    users = [
        UserLocation(range_r=10.0, azimuth_theta=1.0, elevation_phi=1.2),
        UserLocation(range_r=5.0, azimuth_theta=2.0, elevation_phi=1.4),
    ]
    geom = ArrayGeometry.from_frequency(m_x=1, m_z=10_000_001, frequency_hz=2.4e9)
    limit = mac_capacity_two_user(
        *asymptotic_gains(geom, users), 0.0, REF_SNR, REF_SNR
    )
    direct = sum(
        math.log2(1 + REF_SNR * ula_gain_closed(geom, u)) for u in users
    )
    assert limit == pytest.approx(direct, abs=0.05)


def test_asymptotics_variant_validation(ref_geometry, user1, user2_dd):
    """The large-array limit of either model takes exactly two users."""
    users = [user1, user2_dd, user1]
    for model in ("nf", "ff"):
        with pytest.raises(ValueError, match="exactly two users"):
            mac_asymptotics(ref_geometry, users, MacConfig((10.0, 10.0, 10.0)), model)
        with pytest.raises(ValueError, match="exactly two users"):
            mac_asymptotics(ref_geometry, users, MacConfig((10.0, 10.0)), model)
        with pytest.raises(ValueError, match="exactly two users"):
            mac_asymptotics(ref_geometry, users[:2], MacConfig((10.0,) * 3), model)
    with pytest.raises(ValueError, match="model must be"):
        mac_asymptotics(ref_geometry, users[:2], MacConfig((10.0, 10.0)), "xf")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "documented saturation claim: capacity movement under 0.05 bits "
        "between one and four million elements; measured 0.269 bits for "
        "the reference users, whose gains are still 11 percent short of "
        "the limit at that aperture"
    ),
)
def test_nf_capacity_saturates_between_apertures(user1, user2_dd):
    caps = []
    for m_axis in (1001, 2001):
        geom = ArrayGeometry.from_frequency(
            m_x=m_axis, m_z=m_axis, frequency_hz=2.4e9
        )
        g1 = nf_gain_closed(geom, user1)
        g2 = nf_gain_closed(geom, user2_dd)
        rho = nf_ccf_quadrature(geom, user1, user2_dd, 200).value
        caps.append(mac_capacity_two_user(g1, g2, rho, REF_SNR, REF_SNR))
    assert abs(caps[1] - caps[0]) < 0.05


def test_ff_capacity_keeps_growing_between_apertures(user1, user2_dd):
    "Planar-wave capacity gains at least 1.9 bits per element quadrupling."
    from nfcap.stats import ff_ccf_closed, ff_gain_closed

    caps = []
    for m_axis in (1001, 2001):
        geom = ArrayGeometry.from_frequency(
            m_x=m_axis, m_z=m_axis, frequency_hz=2.4e9
        )
        g1 = ff_gain_closed(geom, user1)
        g2 = ff_gain_closed(geom, user2_dd)
        rho = ff_ccf_closed(geom, user1, user2_dd)
        caps.append(mac_capacity_two_user(g1, g2, rho, REF_SNR, REF_SNR))
    assert caps[1] - caps[0] >= 1.9
