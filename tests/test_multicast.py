"""Single-stream multicast: min-rate evaluation, the closed-form
two-user beam and capacity with its three-branch case split, the
K-user upper bound, and large-array limits.
"""

import math

import numpy as np
import pytest

from conftest import REF_POWER, synth_pair
from nfcap.broadcast import BcConfig
from nfcap.geometry import ArrayGeometry, UserLocation, nf_channel_vector
from nfcap.multicast import (
    Beamformer,
    mc_asymptotics,
    mc_beamformer_two_user,
    mc_capacity_two_user,
    mc_rate_given_beamformer,
    mc_upper_bound,
)
from nfcap.oracles import mc_beam_grid_oracle
from nfcap.stats import (
    asymptotic_gains,
    ccf_exact,
    ff_gain_closed,
    gain_exact,
    ula_gain_closed,
)

UPA_LIMIT_BITS = 6.332304630513436


def test_beamformer_requires_unit_norm():
    with pytest.raises(ValueError):
        Beamformer(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Beamformer(np.array([], dtype=complex))
    w = Beamformer(np.array([3.0, 4.0]) / 5.0)
    assert len(w) == 2


def test_rate_zero_when_beam_orthogonal_to_a_user():
    h1 = np.array([1.0 + 0j, 0.0])
    h2 = np.array([0.0, 2.0 + 0j])
    w = Beamformer(np.array([1.0 + 0j, 0.0]))
    rate = mc_rate_given_beamformer(w, [h1, h2], [1.0, 1.0], 100.0)
    assert rate == 0.0
    alone = mc_rate_given_beamformer(w, [h1], [1.0], 100.0)
    assert alone == pytest.approx(math.log2(101.0), rel=1e-12)


def test_rate_validation():
    w = Beamformer(np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        mc_rate_given_beamformer(w, [], [], 1.0)
    with pytest.raises(ValueError):
        mc_rate_given_beamformer(w, [np.array([1.0 + 0j])], [1.0], -1.0)
    with pytest.raises(ValueError):
        mc_rate_given_beamformer(w, [np.array([1.0 + 0j, 0j])], [1.0], 1.0)


def test_identical_channels_give_matched_beam():
    h = np.array([0.6 + 0.3j, -0.2 + 0.1j, 0.4 + 0j])
    w = mc_beamformer_two_user(h, 2.0 * h, 1.0, 1.0)
    g = float(np.vdot(h, h).real)
    np.testing.assert_allclose(
        np.abs(np.vdot(h, w.weights)) ** 2, g, rtol=1e-12
    )
    cap = mc_capacity_two_user(g, 4.0 * g, 1.0, 1.0, 1.0, 10.0)
    assert cap == pytest.approx(math.log2(1 + 10.0 * g), rel=1e-12)


def test_dominated_user_pins_the_rate():
    cap = mc_capacity_two_user(0.001, 0.9, 0.5, 1.0, 1.0, 50.0)
    assert cap == pytest.approx(math.log2(1 + 50.0 * 0.001), rel=1e-12)
    h1, h2 = synth_pair(0.001, 0.9, 0.5, m=4)
    w = mc_beamformer_two_user(h1, h2, 1.0, 1.0)
    np.testing.assert_allclose(
        w.weights, h1 / np.linalg.norm(h1), atol=1e-12
    )


def test_balanced_branch_equalizes_both_users(rng):
    for _ in range(30):
        g1, g2 = 10.0 ** rng.uniform(-4, 0, size=2)
        rho = rng.uniform(0.0, 0.98)
        v1, v2 = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
        if g1 / v1 <= rho * g2 / v2 or g2 / v2 <= rho * g1 / v1:
            continue
        h1, h2 = synth_pair(g1, g2, rho, m=6)
        w = mc_beamformer_two_user(h1, h2, v1, v2)
        snr1 = abs(np.vdot(h1, w.weights)) ** 2 / v1
        snr2 = abs(np.vdot(h2, w.weights)) ** 2 / v2
        assert snr1 == pytest.approx(snr2, rel=1e-9)


def test_beam_properties_and_capacity_consistency(rng):
    for _ in range(40):
        g1, g2 = 10.0 ** rng.uniform(-4, 0, size=2)
        rho = rng.uniform(0.0, 1.0)
        v1, v2 = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
        power = 10.0 ** rng.uniform(0, 3)
        m = int(rng.integers(2, 9))
        h1, h2 = synth_pair(g1, g2, rho, m=m)
        w = mc_beamformer_two_user(h1, h2, v1, v2)

        assert np.linalg.norm(w.weights) == pytest.approx(1.0, abs=1e-12)
        basis, _ = np.linalg.qr(np.stack([h1, h2], axis=1))
        residual = w.weights - basis @ (basis.conj().T @ w.weights)
        assert np.linalg.norm(residual) < 1e-12

        cap = mc_capacity_two_user(g1, g2, rho, v1, v2, power)
        achieved = mc_rate_given_beamformer(w, [h1, h2], [v1, v2], power)
        assert achieved == pytest.approx(cap, abs=1e-9)


def test_capacity_never_exceeds_mean_bound(rng):
    for _ in range(60):
        g1, g2 = 10.0 ** rng.uniform(-4, 0, size=2)
        rho = rng.uniform(0.0, 1.0)
        v1, v2 = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
        power = 10.0 ** rng.uniform(0, 3)
        cap = mc_capacity_two_user(g1, g2, rho, v1, v2, power)
        bound = mc_upper_bound([g1, g2], [v1, v2], power)
        assert cap <= bound + 1e-12


def test_branch_boundary_is_continuous():
    g2, rho, power = 0.8, 0.4, 200.0
    pivot = rho * g2
    below = mc_capacity_two_user(pivot * (1 - 1e-12), g2, rho, 1.0, 1.0, power)
    above = mc_capacity_two_user(pivot * (1 + 1e-12), g2, rho, 1.0, 1.0, power)
    at = mc_capacity_two_user(pivot, g2, rho, 1.0, 1.0, power)
    assert below == pytest.approx(at, abs=1e-9)
    assert above == pytest.approx(at, abs=1e-9)
    assert at == pytest.approx(math.log2(1 + power * pivot), rel=1e-12)


def test_capacity_nondecreasing_in_correlation():
    prev = -1.0
    for rho in np.linspace(0.0, 1.0, 101):
        cap = mc_capacity_two_user(0.3, 0.7, float(rho), 1.0, 2.0, 100.0)
        assert cap >= prev - 1e-12
        prev = cap


def test_reference_capacity_beats_beam_grid(ref_geometry, user1, user2_dd):
    h1 = nf_channel_vector(ref_geometry, user1)
    h2 = nf_channel_vector(ref_geometry, user2_dd)
    g1, g2 = gain_exact(h1), gain_exact(h2)
    rho = ccf_exact(h1, h2)
    cap = mc_capacity_two_user(g1, g2, rho, 1.0, 1.0, REF_POWER)
    dual = mc_beam_grid_oracle(h1, h2, (1.0, 1.0), REF_POWER)
    assert cap == pytest.approx(dual, abs=1e-9)
    assert cap <= mc_upper_bound([g1, g2], [1.0, 1.0], REF_POWER) + 1e-12


def test_upa_asymptote_reference_value(ref_geometry, user1, user2_dd):
    gains = asymptotic_gains(ref_geometry, [user1, user2_dd])
    limit = mc_capacity_two_user(*gains, 0.0, 1.0, 1.0, REF_POWER)
    assert limit == pytest.approx(UPA_LIMIT_BITS, rel=1e-12)
    cfg = BcConfig(total_power_P=REF_POWER, noise_var_per_user=(1.0, 1.0))
    assert mc_asymptotics(ref_geometry, [user1, user2_dd], cfg, "nf") == limit
    direct = mc_capacity_two_user(
        1.0 / (2.0 * math.pi), 1.0 / (2.0 * math.pi), 0.0, 1.0, 1.0, REF_POWER
    )
    assert limit == pytest.approx(direct, rel=1e-12)


def test_ula_asymptote_close_at_ten_million_elements():
    users = [
        UserLocation(range_r=10.0, azimuth_theta=1.0, elevation_phi=1.2),
        UserLocation(range_r=5.0, azimuth_theta=2.0, elevation_phi=1.4),
    ]
    geom = ArrayGeometry.from_frequency(m_x=1, m_z=10_000_001, frequency_hz=2.4e9)
    limit = mc_capacity_two_user(
        *asymptotic_gains(geom, users), 0.0, 1.0, 1.0, REF_POWER
    )
    g1 = ula_gain_closed(geom, users[0])
    g2 = ula_gain_closed(geom, users[1])
    finite = mc_capacity_two_user(g1, g2, 0.0, 1.0, 1.0, REF_POWER)
    assert limit == pytest.approx(finite, abs=0.05)


def _paper_forms(geom, users, cfg):
    """The paper's FF multicast forms, log2(2^C - 1) of the capacity C at
    the FF gains with rho = 1 ("static") and rho = 0 ("dynamic")."""
    gains = [ff_gain_closed(geom, u) for u in users]
    (var1, var2), power = cfg.noise_var_per_user, cfg.total_power_P
    return tuple(
        math.log2(2.0 ** mc_capacity_two_user(*gains, rho, var1, var2, power) - 1.0)
        for rho in (1.0, 0.0)
    )


def test_ff_asymptote_gap_lies_in_unit_interval(user1, user2_dd):
    """static = log2(q / max beta) and dynamic = log2(q / (beta1 + beta2)),
    q = M P A / (4 pi) and beta_k = r_k^2 var_k / proj_k; the limit of
    distinct directions is the rho = 0 capacity."""
    cfg = BcConfig(total_power_P=REF_POWER, noise_var_per_user=(1.0, 1.0))
    users = [user1, user2_dd]
    # about a thousand and a million elements
    for m_x, m_z in ((1, 1001), (1001, 999)):
        geom = ArrayGeometry.from_frequency(m_x=m_x, m_z=m_z, frequency_hz=2.4e9)
        q = geom.m_total * REF_POWER * geom.element_area / (4 * math.pi)
        b1, b2 = (u.range_r**2 / u.dir_y for u in users)
        static, dynamic = _paper_forms(geom, users, cfg)
        assert static == pytest.approx(math.log2(q / max(b1, b2)), rel=1e-12)
        assert dynamic == pytest.approx(math.log2(q / (b1 + b2)), rel=1e-12)
        assert 0.0 < static - dynamic <= 1.0
        assert mc_asymptotics(geom, users, cfg, "ff") == mc_capacity_two_user(
            *(ff_gain_closed(geom, u) for u in users), 0.0, 1.0, 1.0, REF_POWER)


def test_ff_asymptote_equidistant_gap_is_one_bit(ref_geometry, user1):
    "Users that share one range and direction: static - dynamic = 1 bit."
    twin = UserLocation(
        range_r=user1.range_r,
        azimuth_theta=user1.azimuth_theta,
        elevation_phi=user1.elevation_phi,
    )
    cfg = BcConfig(total_power_P=REF_POWER, noise_var_per_user=(1.0, 1.0))
    static, dynamic = _paper_forms(ref_geometry, [user1, twin], cfg)
    assert static - dynamic == pytest.approx(1.0, abs=1e-12)
    c_asym = mc_asymptotics(ref_geometry, [user1, twin], cfg, "ff")
    assert math.log2(2.0**c_asym - 1.0) == static


def test_asymptotics_validation(ref_geometry, user1, user2_dd):
    """The large-array limit of either model takes exactly two users."""
    users = [user1, user2_dd, user1]
    for model in ("nf", "ff"):
        with pytest.raises(ValueError, match="exactly two users"):
            mc_asymptotics(ref_geometry, users, BcConfig(10.0, (1.0, 1.0, 1.0)), model)
        with pytest.raises(ValueError, match="exactly two users"):
            mc_asymptotics(ref_geometry, users, BcConfig(10.0, (1.0, 1.0)), model)
        with pytest.raises(ValueError, match="exactly two users"):
            mc_asymptotics(ref_geometry, users[:2], BcConfig(10.0, (1.0,) * 3), model)
