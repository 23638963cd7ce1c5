"""Brute-force oracle sanity: the reference computations themselves
must be right before they are trusted to judge any closed form, so
each one is pinned here on cases with hand-checkable answers.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import REF_POWER, REF_SNR, synth_pair
from nfcap import _kernels
from nfcap.broadcast import BcConfig
from nfcap.geometry import nf_channel_vector
from nfcap.mac import MacConfig, mac_capacity_general
from nfcap.oracles import (
    bc_power_grid_oracle,
    bc_simplex_grid_oracle,
    ccf_sum_oracle,
    gain_sum_oracle,
    logdet_capacity_oracle,
    mc_beam_grid_oracle,
    sic_rates_oracle,
)
from nfcap.stats import ccf_exact, ff_ccf_closed, ff_gain_closed, gain_exact, gram_matrix


def test_logdet_edge_cases():
    assert logdet_capacity_oracle([], []) == 0.0
    h = np.array([0.5 + 0.5j, -0.25 + 0j, 0.1j])
    g = float(np.vdot(h, h).real)
    single = logdet_capacity_oracle([h], [40.0])
    assert single == pytest.approx(math.log2(1 + 40.0 * g), rel=1e-12)
    with pytest.raises(ValueError):
        logdet_capacity_oracle([h], [40.0, 1.0])
    with pytest.raises(ValueError):
        logdet_capacity_oracle([h], [-1.0])
    with pytest.raises(ValueError):
        logdet_capacity_oracle([np.ones(10_001, dtype=complex)], [1.0])


def test_logdet_dense_agrees_with_gram_at_reference_size(
    ref_geometry, user1, user2_dd
):
    h1 = nf_channel_vector(ref_geometry, user1)
    h2 = nf_channel_vector(ref_geometry, user2_dd)
    dense = logdet_capacity_oracle([h1, h2], [REF_SNR, REF_SNR])
    gram = mac_capacity_general(gram_matrix([h1, h2]), MacConfig((REF_SNR, REF_SNR)))
    assert dense == pytest.approx(gram, abs=1e-9)


def test_sic_oracle_rates_sum_to_capacity(rng):
    h1, h2 = synth_pair(0.4, 0.9, 0.35, m=5)
    snrs = [25.0, 60.0]
    cap = logdet_capacity_oracle([h1, h2], snrs)
    for order in ((0, 1), (1, 0)):
        rates = sic_rates_oracle([h1, h2], snrs, order)
        assert sum(rates) == pytest.approx(cap, abs=1e-12)
        clean_user = order[-1]
        h_clean = (h1, h2)[clean_user]
        g_clean = float(np.vdot(h_clean, h_clean).real)
        assert rates[clean_user] == pytest.approx(
            math.log2(1 + snrs[clean_user] * g_clean), rel=1e-12
        )
    with pytest.raises(ValueError):
        sic_rates_oracle([h1, h2], snrs, (0, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_logdet_rejects_nonfinite_snr(bad):
    h = np.array([0.5 + 0.5j, -0.25 + 0j, 0.1j])
    with pytest.raises(ValueError, match="snrs"):
        logdet_capacity_oracle([h], [bad])
    with pytest.raises(ValueError, match="snrs"):
        logdet_capacity_oracle([h, h], [1.0, bad])


@pytest.mark.parametrize("snrs", [[1.0], [1.0, 2.0, 3.0]])
def test_sic_rejects_snr_count_mismatch(snrs):
    h1, h2 = synth_pair(0.4, 0.9, 0.35, m=5)
    with pytest.raises(ValueError, match="snrs"):
        sic_rates_oracle([h1, h2], snrs, (0, 1))


def test_logdet_memory_is_one_lower_triangle(rng):
    """At the verify size (33x33 elements) the oracle holds the lower
    triangle of the M x M matrix and one block column of temporaries,
    not the whole matrix."""
    m = 33 * 33
    h1, h2 = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    tracemalloc.start()
    try:
        logdet_capacity_oracle([h1, h2], [REF_SNR, REF_SNR])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 16 * m * m


@pytest.mark.parametrize("k", [2, 3])
def test_sic_factors_each_suffix_once(rng, monkeypatch, k):
    "K factorisations per decoding order: one per non-empty suffix."
    m = 6
    channels = list(rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)))
    snrs = [10.0 * (i + 1) for i in range(k)]
    calls = []
    real_logdet = _kernels.hpd_logdet

    def counting(blocks):
        calls.append(len(blocks[0]))
        return real_logdet(blocks)

    monkeypatch.setattr(_kernels, "hpd_logdet", counting)
    for order in ((0, 1), (1, 0)) if k == 2 else ((2, 0, 1), (0, 1, 2)):
        calls.clear()
        rates = sic_rates_oracle(channels, snrs, order)
        assert calls == [m] * k
        assert sum(rates) == pytest.approx(
            logdet_capacity_oracle(channels, snrs), abs=1e-12
        )


@pytest.mark.parametrize(
    "g1, g2, rho, name",
    [
        (math.nan, 0.5, 0.3, "g1"),
        (-1.0, 0.5, 0.3, "g1"),
        (math.inf, 0.5, 0.3, "g1"),
        (0.5, math.nan, 0.3, "g2"),
        (0.5, 0.5, 2.0, "rho"),
        (0.5, 0.5, math.nan, "rho"),
    ],
)
def test_bc_grid_rejects_bad_gains_and_correlation(g1, g2, rho, name):
    "A gain must be finite and nonnegative and rho lie in [0, 1]; ValueError names it."
    cfg = BcConfig(total_power_P=10.0, noise_var_per_user=(1.0, 1.0))
    with pytest.raises(ValueError, match=name):
        bc_power_grid_oracle(g1, g2, rho, cfg, points=11)


def test_bc_grid_symmetric_split():
    cfg = BcConfig(total_power_P=10.0, noise_var_per_user=(1.0, 1.0))
    best, alloc = bc_power_grid_oracle(0.3, 0.3, 0.2, cfg, points=5001)
    assert alloc.p_per_user[0] == pytest.approx(5.0, abs=10.0 / 5000)
    assert best <= math.log2(
        1 + 5.0 * 0.3 + 5.0 * 0.3 + 25.0 * 0.09 * 0.8
    ) + 1e-12


def test_bc_grid_dead_user_takes_nothing():
    cfg = BcConfig(total_power_P=10.0, noise_var_per_user=(1.0, 1.0))
    best, alloc = bc_power_grid_oracle(0.3, 0.0, 0.0, cfg, points=2001)
    assert alloc.p_per_user == (10.0, 0.0)
    assert best == pytest.approx(math.log2(1 + 10.0 * 0.3), rel=1e-12)


def test_bc_simplex_grid_identical_channels_split_invariant():
    h = np.array([0.4 + 0.1j, -0.3 + 0.2j])
    g = float(np.vdot(h, h).real)
    cfg = BcConfig(total_power_P=9.0, noise_var_per_user=(2.0, 2.0, 2.0))
    best, alloc = bc_simplex_grid_oracle([h, h, h], cfg, steps=30)
    assert best == pytest.approx(math.log2(1 + 9.0 * g / 2.0), rel=1e-12)
    assert sum(alloc.p_per_user) == pytest.approx(9.0, rel=1e-12)
    with pytest.raises(ValueError):
        bc_simplex_grid_oracle([h, h], cfg, steps=10)


def test_mc_grid_identical_channels_find_matched_beam():
    h = np.array([0.5 + 0.2j, 0.1 - 0.3j, 0.25 + 0j])
    g = float(np.vdot(h, h).real)
    best, w = mc_beam_grid_oracle(h, 3.0 * h, (1.0, 1.0), 20.0)
    assert best == pytest.approx(math.log2(1 + 20.0 * g), abs=1e-6)
    assert abs(np.vdot(h, w.weights)) ** 2 == pytest.approx(g, rel=1e-6)


def test_mc_grid_orthogonal_channels_balance():
    h1 = np.array([1.0 + 0j, 0.0])
    h2 = np.array([0.0, 1.0 + 0j])
    best, _ = mc_beam_grid_oracle(h1, h2, (1.0, 1.0), 30.0)
    assert best == pytest.approx(math.log2(1 + 15.0), abs=1e-3)


def _grid_values(g1, g2, ip, a, b, psi):
    """min_k |h_k^H w|^2 / |w|^2 of w = a hb1 + b e^{j psi} hb2, complex."""
    e = np.exp(1j * psi)
    norm2 = a * a * g1 + b * b * g2 + 2 * a * b * (e * ip).real
    v1 = a * g1 + b * e * ip
    v2 = a * np.conj(ip) + b * e * g2
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.minimum(np.abs(v1) ** 2, np.abs(v2) ** 2) / norm2
    return np.where(norm2 > 1e-300, vals, 0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("slot", [0, 1])
def test_mc_grid_rejects_bad_noise_variance(bad, slot):
    "Each noise variance must be finite and positive; ValueError names it."
    h1 = np.array([1.0 + 0.0j, 0.5j])
    h2 = np.array([0.3 + 0.0j, 1.0 + 0.0j])
    noise = [1.0, 1.0]
    noise[slot] = bad
    with pytest.raises(ValueError, match=rf"noise_vars\[{slot}\]"):
        mc_beam_grid_oracle(h1, h2, noise, 10.0, grid_spec=(20, 20, 4))


def test_mc_grid_kernel_matches_complex_brute_force(rng):
    """The real-arithmetic scan finds the best value of a plain complex
    evaluation of every cell; the argmax may move among tied cells (same
    a/b ratio), so the returned cell is checked by re-evaluating it."""
    n_a, n_b, n_psi = 41, 41, 16
    a = np.linspace(0.0, 1.0, n_a)[None, :, None]
    b = np.linspace(0.0, 1.0, n_b)[None, None, :]
    psi = (2.0 * np.pi * np.arange(n_psi) / n_psi)[:, None, None]
    cases = [(1.0, 1.0, 0.0), (0.3, 2.0, 0.3 * 2.0), (1e-4, 1.0, 0.0)]
    for _ in range(20):
        g1, g2 = 10.0 ** rng.uniform(-4, 1, size=2)
        rho = rng.choice([rng.uniform(0.0, 1.0), 1.0])
        cases.append((g1, g2, rho * g1 * g2))
    for g1, g2, ip_abs2 in cases:
        ip = math.sqrt(ip_abs2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        brute = float(_grid_values(g1, g2, ip, a, b, psi).max())
        best, a_best, b_best, psi_best = _kernels.mc_grid_best(
            g1, g2, ip, n_a, n_b, n_psi
        )
        assert best == pytest.approx(brute, rel=1e-12)
        again = float(_grid_values(g1, g2, ip, a_best, b_best, psi_best))
        assert again == pytest.approx(best, rel=1e-12)


def test_element_sums_match_vector_forms_nf(small_geometry, user1, user2_dd):
    h1 = nf_channel_vector(small_geometry, user1)
    h2 = nf_channel_vector(small_geometry, user2_dd)
    g_sum = gain_sum_oracle(small_geometry, user1)
    assert g_sum == pytest.approx(gain_exact(h1), rel=1e-12)
    ccf_sum = ccf_sum_oracle(small_geometry, user1, user2_dd)
    assert ccf_sum == pytest.approx(ccf_exact(h1, h2), rel=1e-12)
    self_ccf = ccf_sum_oracle(small_geometry, user1, user1)
    assert self_ccf == pytest.approx(1.0, abs=1e-12)


def test_element_sums_match_closed_forms_ff(small_geometry, user1, user2_dd):
    g_sum = gain_sum_oracle(small_geometry, user1, model="ff")
    assert g_sum == pytest.approx(ff_gain_closed(small_geometry, user1), rel=1e-12)
    ccf_sum = ccf_sum_oracle(small_geometry, user1, user2_dd, model="ff")
    closed = ff_ccf_closed(small_geometry, user1, user2_dd)
    assert ccf_sum == pytest.approx(closed, abs=1e-9)
    with pytest.raises(ValueError):
        gain_sum_oracle(small_geometry, user1, model="fresnel")


def test_element_sums_are_deterministic(small_geometry, user1, user2_dd):
    a = ccf_sum_oracle(small_geometry, user1, user2_dd)
    b = ccf_sum_oracle(small_geometry, user1, user2_dd)
    assert a == b
    assert gain_sum_oracle(small_geometry, user1) == gain_sum_oracle(
        small_geometry, user1
    )


def test_grid_oracles_are_deterministic():
    h1, h2 = synth_pair(0.5, 0.8, 0.4, m=4)
    cfg = BcConfig(total_power_P=REF_POWER, noise_var_per_user=(1.0, 1.0))
    a = bc_power_grid_oracle(0.5, 0.8, 0.4, cfg, points=2001)
    b = bc_power_grid_oracle(0.5, 0.8, 0.4, cfg, points=2001)
    assert a[0] == b[0] and a[1].p_per_user == b[1].p_per_user
    r1, w1 = mc_beam_grid_oracle(h1, h2, (1.0, 1.0), 10.0, grid_spec=(50, 50, 16))
    r2, w2 = mc_beam_grid_oracle(h1, h2, (1.0, 1.0), 10.0, grid_spec=(50, 50, 16))
    assert r1 == r2
    np.testing.assert_array_equal(w1.weights, w2.weights)
