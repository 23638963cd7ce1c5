"""Array layout, user placement, per-element channel synthesis, and the
rejection of non-finite channels by every routine that takes them."""

import math
import warnings

import numpy as np
import pytest

from nfcap.broadcast import (
    BcConfig,
    PowerAllocation,
    bc_covariance_recovery,
)
from nfcap.geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    UserLocation,
    epsilon,
    ff_channel_vector,
    green_amplitude_ratio,
    nf_channel_vector,
)
from nfcap.multicast import Beamformer, mc_beamformer_two_user, mc_rate_given_beamformer
from nfcap.oracles import logdet_capacity_oracle, mc_beam_grid_oracle
from nfcap.stats import ccf_exact, gain_exact, gram_matrix

WAVELENGTH = 0.12491352416666666
ELEMENT_AREA = 0.0012416782059496913


def test_from_frequency_reference_constants(ref_geometry):
    assert ref_geometry.wavelength == pytest.approx(WAVELENGTH, rel=1e-15)
    assert ref_geometry.pitch_d == pytest.approx(WAVELENGTH / 2, rel=1e-15)
    assert ref_geometry.element_area == pytest.approx(ELEMENT_AREA, rel=1e-14)
    assert ref_geometry.m_total == 65 * 65
    assert ref_geometry.occupation_ratio == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert SPEED_OF_LIGHT == 299792458.0


def test_geometry_rejects_even_or_nonpositive_counts():
    with pytest.raises(ValueError):
        ArrayGeometry.from_frequency(m_x=64, m_z=65, frequency_hz=2.4e9)
    with pytest.raises(ValueError):
        ArrayGeometry.from_frequency(m_x=65, m_z=0, frequency_hz=2.4e9)


def test_geometry_rejects_overlapping_elements():
    lam = 0.125
    with pytest.raises(ValueError):
        ArrayGeometry(
            m_x=3, m_z=3, pitch_d=lam / 2, wavelength=lam, element_side=lam
        )


def test_user_location_direction_cosines(user1):
    phi, theta = user1.elevation_phi, user1.azimuth_theta
    assert user1.dir_x == pytest.approx(math.sin(phi) * math.cos(theta), abs=1e-15)
    assert user1.dir_y == pytest.approx(math.sin(phi) * math.sin(theta), abs=1e-15)
    assert user1.dir_z == pytest.approx(math.cos(phi), abs=1e-15)
    norm = user1.dir_x**2 + user1.dir_y**2 + user1.dir_z**2
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_user_location_rejects_boundary_angles():
    with pytest.raises(ValueError):
        UserLocation(range_r=5.0, azimuth_theta=0.0, elevation_phi=1.0)
    with pytest.raises(ValueError):
        UserLocation(range_r=5.0, azimuth_theta=1.0, elevation_phi=math.pi)
    with pytest.raises(ValueError):
        UserLocation(range_r=-2.0, azimuth_theta=1.0, elevation_phi=1.0)


def test_epsilon_and_limit(ref_geometry, user1):
    eps = epsilon(ref_geometry, user1)
    assert eps == pytest.approx(ref_geometry.pitch_d / 10.0, rel=1e-15)
    too_close = UserLocation(
        range_r=ref_geometry.pitch_d / 2, azimuth_theta=1.0, elevation_phi=1.0
    )
    with pytest.raises(ValueError):
        epsilon(ref_geometry, too_close)


def test_nf_entries_match_direct_construction(ref_geometry, user1):
    "Each entry: amplitude from the exact distance, phase at 2 pi d / lambda."
    vec = nf_channel_vector(ref_geometry, user1)
    assert vec.dtype == np.complex128 and vec.shape == (ref_geometry.m_total,)
    area = ref_geometry.element_area
    lam = ref_geometry.wavelength
    r = user1.range_r
    d = ref_geometry.pitch_d
    x, y, z = (r * c for c in (user1.dir_x, user1.dir_y, user1.dir_z))
    for mx, mz in ((0, 0), (32, 32), (-32, 11), (5, -17)):
        dist = math.sqrt((x - mx * d) ** 2 + y**2 + (z - mz * d) ** 2)
        amp = math.sqrt(area * r * user1.dir_y / (4 * math.pi * dist**3))
        expected = amp * np.exp(-2j * math.pi * dist / lam)
        idx = (mx + 32) * 65 + (mz + 32)
        assert vec[idx] == pytest.approx(expected, rel=1e-12)


def test_ff_entries_share_magnitude_and_ramp_phase(ref_geometry, user1):
    vec = ff_channel_vector(ref_geometry, user1)
    assert vec.dtype == np.complex128 and vec.shape == (ref_geometry.m_total,)
    mags = np.abs(vec)
    assert mags.max() == pytest.approx(mags.min(), rel=1e-14)
    amp = math.sqrt(
        ref_geometry.element_area
        * user1.dir_y
        / (4 * math.pi * user1.range_r**2)
    )
    assert mags[0] == pytest.approx(amp, rel=1e-14)
    lam = ref_geometry.wavelength
    d = ref_geometry.pitch_d
    mx, mz = 9, -20
    idx = (mx + 32) * 65 + (mz + 32)
    # the ramp alone: the common phase of the range is left out
    phase = 2 * math.pi / lam * d * (mx * user1.dir_x + mz * user1.dir_z)
    expected = amp * np.exp(1j * phase)
    assert vec[idx] == pytest.approx(expected, rel=1e-12)
    assert vec[(ref_geometry.m_total - 1) // 2] == pytest.approx(amp, rel=1e-14)


def test_nf_approaches_ff_at_long_range(ref_geometry):
    "Far away the exact spherical model collapses onto the planar one."
    far = UserLocation(range_r=1.0e5, azimuth_theta=1.1, elevation_phi=1.3)
    nf = nf_channel_vector(ref_geometry, far)
    ff = ff_channel_vector(ref_geometry, far)
    corr = abs(np.vdot(nf, ff)) ** 2 / (
        np.vdot(nf, nf).real * np.vdot(ff, ff).real
    )
    assert corr > 1.0 - 1e-6


_BC = BcConfig(10.0, (1.0, 1.0))
_CHANNEL_ROUTINES = {
    "gram_matrix": lambda h1, h2: gram_matrix([h1, h2]),
    "gain_exact": lambda h1, h2: gain_exact(h1) + gain_exact(h2),
    "ccf_exact": ccf_exact,
    "bc_covariance_recovery": lambda h1, h2: bc_covariance_recovery(
        h1, h2, PowerAllocation((4.0, 6.0)), _BC),
    "mc_beamformer_two_user": lambda h1, h2: mc_beamformer_two_user(h1, h2, 1.0, 1.0),
    "mc_rate_given_beamformer": lambda h1, h2: mc_rate_given_beamformer(
        Beamformer(np.array([1.0, 0.0, 0.0])), [h1, h2], (1.0, 1.0), 10.0),
    "logdet_capacity_oracle": lambda h1, h2: logdet_capacity_oracle(
        [h1, h2], [10.0, 10.0]),
    "mc_beam_grid_oracle": lambda h1, h2: mc_beam_grid_oracle(
        h1, h2, (1.0, 1.0), 10.0),
}


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, complex(0.0, -math.inf)], ids=["nan", "inf", "imag-inf"]
)
@pytest.mark.parametrize("routine", sorted(_CHANNEL_ROUTINES))
def test_channel_vector_rejects_nonfinite(routine, bad):
    """A NaN or infinite entry in either channel raises ValueError, and
    nothing warns on the way."""
    call = _CHANNEL_ROUTINES[routine]
    good = (np.array([1.0, 0.5j, 0.2]), np.array([0.3, 1.0, -0.4j]))
    call(*good)
    for slot in (0, 1):
        channels = list(good)
        channels[slot] = channels[slot].copy()
        channels[slot][1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                call(*channels)


def test_green_amplitude_ratio_values():
    "Unity at one radian per unit distance, 0.9753 at one wavelength."
    lam = WAVELENGTH
    k0 = 2 * math.pi / lam
    assert green_amplitude_ratio(1.0 / k0, lam) == pytest.approx(1.0, abs=1e-15)
    assert green_amplitude_ratio(lam, lam) == pytest.approx(
        0.9753113279803334, rel=1e-13
    )
    far_value = green_amplitude_ratio(100.0 * lam, lam)
    assert 1.0 - 1e-5 < far_value < 1.0
