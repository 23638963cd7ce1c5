"""Downlink power allocation, sum capacity, covariance recovery, rate
regions, and transmit precoding.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import REF_POWER, synth_pair
from nfcap.broadcast import (
    BcConfig,
    CovariancePair,
    PowerAllocation,
    bc_asymptotics,
    bc_capacity_two_user,
    bc_covariance_recovery,
    bc_power_allocation_two_user,
    bc_region_two_user,
    linear_precoder_sum_rate,
)
from nfcap.geometry import ArrayGeometry, UserLocation, nf_channel_vector
from nfcap.mac import FfAsymptote, RatePoint, sic_rates_two_user
from nfcap.oracles import bc_power_grid_oracle
from nfcap.stats import asymptotic_gains, ccf_exact, gain_exact, ula_gain_closed

UPA_LIMIT_BITS = 12.664609261026872


def _random_bc_instance(rng):
    g1, g2 = 10.0 ** rng.uniform(-8, 0, size=2)
    rho = rng.uniform(0.0, 1.0)
    power = 10.0 ** rng.uniform(0.0, 4.0)
    v1, v2 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
    return g1, g2, rho, BcConfig(power, (v1, v2))


def test_config_and_allocation_containers():
    cfg = BcConfig(total_power_P=10.0, noise_var_per_user=(1.0, 2.0))
    assert cfg.num_users == 2
    with pytest.raises(ValueError):
        BcConfig(total_power_P=0.0, noise_var_per_user=(1.0,))
    with pytest.raises(ValueError):
        BcConfig(total_power_P=5.0, noise_var_per_user=(1.0, -1.0))
    alloc = PowerAllocation(p_per_user=(3.0, 7.0))
    assert alloc.total == 10.0
    with pytest.raises(ValueError):
        PowerAllocation(p_per_user=(-0.5, 1.0))


def test_symmetric_instance_splits_evenly():
    cfg = BcConfig(total_power_P=8.0, noise_var_per_user=(1.0, 1.0))
    alloc = bc_power_allocation_two_user(0.25, 0.25, 0.3, cfg)
    assert alloc.p_per_user[0] == pytest.approx(4.0, rel=1e-12)
    assert alloc.p_per_user[1] == pytest.approx(4.0, rel=1e-12)
    assert alloc.total == pytest.approx(8.0, rel=1e-12)


def test_vanishing_user_gets_no_power():
    cfg = BcConfig(total_power_P=5.0, noise_var_per_user=(1.0, 1.0))
    alloc = bc_power_allocation_two_user(0.4, 0.0, 0.0, cfg)
    assert alloc.p_per_user == (5.0, 0.0)
    assert "user 2" in alloc.note
    cap = bc_capacity_two_user(0.4, 0.0, 0.0, cfg)
    assert cap == pytest.approx(math.log2(1 + 5.0 * 0.4), rel=1e-12)


def test_fully_correlated_falls_back_to_best_user():
    cfg = BcConfig(total_power_P=5.0, noise_var_per_user=(1.0, 2.0))
    alloc = bc_power_allocation_two_user(0.4, 0.9, 1.0, cfg)
    assert alloc.p_per_user == (0.0, 5.0)
    assert alloc.note != ""
    cap = bc_capacity_two_user(0.4, 0.9, 1.0, cfg)
    assert cap == pytest.approx(math.log2(1 + 5.0 * 0.45), rel=1e-12)


def test_allocation_beats_power_grid(rng):
    for _ in range(40):
        g1, g2, rho, cfg = _random_bc_instance(rng)
        closed = bc_capacity_two_user(g1, g2, rho, cfg)
        grid, _ = bc_power_grid_oracle(g1, g2, rho, cfg, points=20_000)
        assert closed >= grid - 1e-6


def test_reference_allocation_matches_fine_grid(ref_geometry, user1, user2_dd):
    h1 = nf_channel_vector(ref_geometry, user1)
    h2 = nf_channel_vector(ref_geometry, user2_dd)
    g1, g2 = gain_exact(h1), gain_exact(h2)
    rho = ccf_exact(h1, h2)
    cfg = BcConfig(total_power_P=REF_POWER, noise_var_per_user=(1.0, 1.0))
    closed = bc_capacity_two_user(g1, g2, rho, cfg)
    grid, grid_alloc = bc_power_grid_oracle(g1, g2, rho, cfg, points=100_000)
    assert closed >= grid - 1e-6
    alloc = bc_power_allocation_two_user(g1, g2, rho, cfg)
    assert alloc.p_per_user[0] == pytest.approx(
        grid_alloc.p_per_user[0], abs=cfg.total_power_P * 1e-3
    )


def test_swap_users_swaps_allocation(rng):
    for _ in range(20):
        g1, g2, rho, cfg = _random_bc_instance(rng)
        fwd = bc_power_allocation_two_user(g1, g2, rho, cfg)
        swapped_cfg = BcConfig(
            cfg.total_power_P,
            (cfg.noise_var_per_user[1], cfg.noise_var_per_user[0]),
        )
        rev = bc_power_allocation_two_user(g2, g1, rho, swapped_cfg)
        assert fwd.p_per_user[0] == pytest.approx(rev.p_per_user[1], abs=1e-9)
        cap_fwd = bc_capacity_two_user(g1, g2, rho, cfg)
        cap_rev = bc_capacity_two_user(g2, g1, rho, swapped_cfg)
        assert cap_fwd == pytest.approx(cap_rev, abs=1e-12)


def test_capacity_at_least_best_single_user(rng):
    for _ in range(40):
        g1, g2, rho, cfg = _random_bc_instance(rng)
        cap = bc_capacity_two_user(g1, g2, rho, cfg)
        a = g1 / cfg.noise_var_per_user[0]
        b = g2 / cfg.noise_var_per_user[1]
        single = math.log2(1 + cfg.total_power_P * max(a, b))
        assert cap >= single - 1e-9


def test_covariance_pair_container_checks():
    v = np.array([1.0 + 1j, 0.5 - 0.25j])
    pair = CovariancePair(1.0, v, 0.5, v)
    outer = np.outer(v, v.conj())
    assert pair.total_power == pytest.approx(1.5 * np.trace(outer).real, rel=1e-12)
    np.testing.assert_allclose(pair.sigma2, 0.5 * outer, rtol=1e-15)
    with pytest.raises(ValueError):
        CovariancePair(1.0, v, 0.5, np.ones(3))
    with pytest.raises(ValueError):
        CovariancePair(1.0, outer, 0.5, v)
    for bad_scale in (-1e-3, math.inf, math.nan):
        with pytest.raises(ValueError):
            CovariancePair(bad_scale, v, 0.5, v)
    with pytest.raises(ValueError):
        CovariancePair(1.0, np.array([1.0, math.nan]), 0.5, v)
    with pytest.raises(ValueError):
        pair.quad(3, v)


def test_recovery_rejects_parallel_channels_with_both_users_on():
    h = np.array([1.0 + 0j, 0.0])
    cfg = BcConfig(total_power_P=2e17, noise_var_per_user=(1.0, 1.0))
    with pytest.raises(ValueError, match="no signal"):
        bc_covariance_recovery(h, h, PowerAllocation((1.0, 1e17)), cfg)


def test_covariance_factors_match_dense_forms(rng):
    """quad and total_power agree with the dense matrices they stand for."""
    for _ in range(10):
        m = int(rng.integers(2, 12))
        h1, h2 = (rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(2))
        cfg = BcConfig(10.0 ** rng.uniform(0, 3), tuple(10.0 ** rng.uniform(-1, 1, 2)))
        alloc = PowerAllocation(tuple(rng.uniform(0.1, 1.0, 2) * cfg.total_power_P / 2))
        pair = bc_covariance_recovery(h1, h2, alloc, cfg)
        dense = (pair.sigma1, pair.sigma2)
        trace = sum(float(np.trace(sigma).real) for sigma in dense)
        assert pair.total_power == pytest.approx(trace, rel=1e-12)
        for k, sigma in zip((1, 2), dense):
            for h in (h1, h2, rng.normal(size=m) + 1j * rng.normal(size=m)):
                assert pair.quad(k, h) == pytest.approx(
                    float(np.vdot(h, sigma @ h).real), rel=1e-12
                )


def test_covariance_recovery_memory_is_linear(ref_geometry, user1, user2_dd):
    """At 65x65 the recovery keeps factors only; two dense covariances
    would need 2 * 16 * 4225^2 bytes, about 571 MB."""
    h1 = nf_channel_vector(ref_geometry, user1)
    h2 = nf_channel_vector(ref_geometry, user2_dd)
    cfg = BcConfig(total_power_P=REF_POWER, noise_var_per_user=(1.0, 1.0))
    alloc = bc_power_allocation_two_user(gain_exact(h1), gain_exact(h2), ccf_exact(h1, h2), cfg)
    tracemalloc.start()
    try:
        pair = bc_covariance_recovery(h1, h2, alloc, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert pair.total_power == pytest.approx(alloc.total, abs=1e-6 * REF_POWER)


def test_recovery_with_idle_user_two_is_matched_beam(rng):
    h1, h2 = synth_pair(0.3, 0.6, 0.4, m=6)
    cfg = BcConfig(total_power_P=4.0, noise_var_per_user=(1.0, 1.0))
    alloc = PowerAllocation(p_per_user=(4.0, 0.0))
    pair = bc_covariance_recovery(h1, h2, alloc, cfg)
    g1 = float(np.vdot(h1, h1).real)
    expected = 4.0 * np.outer(h1, h1.conj()) / g1
    np.testing.assert_allclose(pair.sigma1, expected, atol=1e-12)
    np.testing.assert_allclose(pair.sigma2, np.zeros_like(pair.sigma2), atol=0)


def test_recovery_orthogonal_channels_gives_single_user_rates():
    h1, h2 = synth_pair(0.5, 0.8, 0.0, m=5)
    cfg = BcConfig(total_power_P=6.0, noise_var_per_user=(1.5, 0.5))
    alloc = PowerAllocation(p_per_user=(2.0, 4.0))
    pair = bc_covariance_recovery(h1, h2, alloc, cfg)
    r1 = math.log2(1 + np.vdot(h1, pair.sigma1 @ h1).real / 1.5)
    r2 = math.log2(1 + np.vdot(h2, pair.sigma2 @ h2).real / 0.5)
    assert r1 == pytest.approx(math.log2(1 + 2.0 * 0.5 / 1.5), rel=1e-12)
    assert r2 == pytest.approx(math.log2(1 + 4.0 * 0.8 / 0.5), rel=1e-12)


def test_recovery_duality_and_power_conservation(rng):
    """Recovered covariances hit the dual uplink decode corner, stay
    rank one and positive semidefinite, and spend exactly the budget.
    """
    for _ in range(25):
        m = int(rng.integers(3, 10))
        g1, g2 = 10.0 ** rng.uniform(-3, 0, size=2)
        rho = rng.uniform(0.0, 0.999)
        h1, h2 = synth_pair(g1, g2, rho, m=m)
        v1, v2 = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
        cfg = BcConfig(10.0 ** rng.uniform(0, 3), (v1, v2))
        alloc = bc_power_allocation_two_user(g1, g2, rho, cfg)
        pair = bc_covariance_recovery(h1, h2, alloc, cfg)

        assert pair.total_power == pytest.approx(
            alloc.total, abs=1e-6 * cfg.total_power_P
        )
        for sigma in (pair.sigma1, pair.sigma2):
            eigs = np.linalg.eigvalsh(sigma)
            trace = float(np.trace(sigma).real)
            assert eigs.min() >= -1e-9 * max(trace, 1e-30)
            assert (eigs > 1e-9 * max(eigs.max(), 1e-30)).sum() <= 1

        e1 = h1 / math.sqrt(v1)
        e2 = h2 / math.sqrt(v2)
        q11 = float(np.vdot(e1, pair.sigma1 @ e1).real)
        q21 = float(np.vdot(e2, pair.sigma1 @ e2).real)
        q22 = float(np.vdot(e2, pair.sigma2 @ e2).real)
        r1_dl = math.log2(1 + q11)
        r2_dl = math.log2(1 + q22 / (1 + q21))
        dual = sic_rates_two_user(
            g1 / v1, g2 / v2, rho, alloc.p_per_user[0], alloc.p_per_user[1],
            "u1_first",
        )
        assert r1_dl == pytest.approx(dual.r1, abs=1e-9)
        assert r2_dl == pytest.approx(dual.r2, abs=1e-9)


def test_region_near_orthogonal_is_almost_rectangular(small_geometry, user1, user2_dd):
    h1 = nf_channel_vector(small_geometry, user1)
    h2 = nf_channel_vector(small_geometry, user2_dd)
    cfg = BcConfig(total_power_P=REF_POWER, noise_var_per_user=(1.0, 1.0))
    region = bc_region_two_user(h1, h2, cfg, power_splits=51)
    assert region.kind == "hull"
    assert region.vertices[0].as_tuple() == (0.0, 0.0)
    assert region.vertices[1].r2 == 0.0
    assert region.vertices[-1].r1 == 0.0
    g1 = gain_exact(h1)
    g2 = gain_exact(h2)
    inner = RatePoint(
        0.999 * math.log2(1 + REF_POWER / 2 * g1),
        0.999 * math.log2(1 + REF_POWER / 2 * g2),
    )
    assert region.contains(inner)


def test_region_hull_contains_sampled_corners(rng):
    h1, h2 = synth_pair(0.4, 0.7, 0.5, m=6)
    cfg = BcConfig(total_power_P=12.0, noise_var_per_user=(1.0, 2.0))
    region = bc_region_two_user(h1, h2, cfg, power_splits=41)
    for split in (0.25, 0.5, 0.75):
        p1 = split * 12.0
        p2 = 12.0 - p1
        corner = sic_rates_two_user(0.4, 0.7 / 2.0, 0.5, p1, p2, "u1_first")
        assert region.contains(
            RatePoint(corner.r1 - 1e-9, corner.r2 - 1e-9), slack=1e-6
        )


def test_region_is_convex_walk(rng):
    h1, h2 = synth_pair(0.4, 0.7, 0.5, m=6)
    cfg = BcConfig(total_power_P=12.0, noise_var_per_user=(1.0, 2.0))
    region = bc_region_two_user(h1, h2, cfg, power_splits=41)
    pts = [v.as_tuple() for v in region.vertices[1:]]
    for (x0, y0), (x1, y1), (x2, y2) in zip(pts, pts[1:], pts[2:]):
        cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        assert cross >= -1e-9


def test_precoder_rates_and_limits(rng):
    snr_hats = (6.0, 4.0)
    full = linear_precoder_sum_rate("mrt", 0.5, 0.7, 0.0, snr_hats)
    expected = math.log2(1 + 6.0 * 0.5) + math.log2(1 + 4.0 * 0.7)
    assert full == pytest.approx(expected, rel=1e-12)
    assert linear_precoder_sum_rate("zf", 0.5, 0.7, 0.0, snr_hats) == pytest.approx(
        expected, rel=1e-12
    )
    assert linear_precoder_sum_rate("zf", 0.5, 0.7, 1.0, snr_hats) == 0.0
    with pytest.raises(ValueError):
        linear_precoder_sum_rate("svd", 0.5, 0.7, 0.5, snr_hats)


def test_reference_precoders_land_close_to_capacity(ref_geometry, user1, user2_dd):
    h1 = nf_channel_vector(ref_geometry, user1)
    h2 = nf_channel_vector(ref_geometry, user2_dd)
    g1, g2 = gain_exact(h1), gain_exact(h2)
    rho = ccf_exact(h1, h2)
    cfg = BcConfig(total_power_P=REF_POWER, noise_var_per_user=(1.0, 1.0))
    cap = bc_capacity_two_user(g1, g2, rho, cfg)
    snr_hats = (REF_POWER / 2, REF_POWER / 2)
    for scheme in ("mrt", "zf"):
        ratio = linear_precoder_sum_rate(scheme, g1, g2, rho, snr_hats) / cap
        assert 0.9 < ratio <= 1.0


def test_upa_asymptote_reference_value(ref_geometry, user1, user2_dd):
    cfg = BcConfig(total_power_P=REF_POWER, noise_var_per_user=(1.0, 1.0))
    gains = asymptotic_gains(ref_geometry, [user1, user2_dd])
    limit = bc_capacity_two_user(*gains, 0.0, cfg)
    assert limit == pytest.approx(UPA_LIMIT_BITS, rel=1e-12)


def test_ff_asymptote_gap_positive_across_sizes(user1, user2_dd):
    cfg = BcConfig(total_power_P=REF_POWER, noise_var_per_user=(1.0, 1.0))
    # about a thousand and a million elements
    for m_x, m_z in ((1, 1001), (1001, 999)):
        geom = ArrayGeometry.from_frequency(m_x=m_x, m_z=m_z, frequency_hz=2.4e9)
        asym = bc_asymptotics(geom, [user1, user2_dd], cfg)
        assert isinstance(asym, FfAsymptote)
        assert asym.dynamic > asym.static
        assert asym.gap > 0.0
    with pytest.raises(ValueError, match="exactly two users"):
        bc_asymptotics(geom, [user1, user2_dd, user1], BcConfig(1.0, (1.0,) * 3))


def test_ula_asymptote_close_at_ten_million_elements():
    users = [
        UserLocation(range_r=10.0, azimuth_theta=1.0, elevation_phi=1.2),
        UserLocation(range_r=5.0, azimuth_theta=2.0, elevation_phi=1.4),
    ]
    cfg = BcConfig(total_power_P=REF_POWER, noise_var_per_user=(1.0, 1.0))
    geom = ArrayGeometry.from_frequency(m_x=1, m_z=10_000_001, frequency_hz=2.4e9)
    limit = bc_capacity_two_user(*asymptotic_gains(geom, users), 0.0, cfg)
    g1 = ula_gain_closed(geom, users[0])
    g2 = ula_gain_closed(geom, users[1])
    finite = bc_capacity_two_user(g1, g2, 0.0, cfg)
    assert limit == pytest.approx(finite, abs=0.05)
