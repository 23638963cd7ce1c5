"""Shared fixtures: the reference two-user evaluation setup (2.4 GHz,
65x65 half-wavelength planar array, users at 10 m and 5 m) and a
builder for synthetic channel pairs with prescribed gains and
correlation.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from nfcap.geometry import ArrayGeometry, UserLocation

REF_FREQ_HZ = 2.4e9
REF_SNR = 1000.0
REF_POWER = 1000.0
# A 17 x 17 scenario whose multicast capacity the best beam of a
# 400 x 400 x 64 beam grid misses by 2.9e-3 bits
MC_BLIND_SPOT_INI = Path(__file__).parent / "data" / "mc_blind_spot.ini"


@pytest.fixture(scope="session")
def ref_geometry() -> ArrayGeometry:
    return ArrayGeometry.from_frequency(m_x=65, m_z=65, frequency_hz=REF_FREQ_HZ)


@pytest.fixture(scope="session")
def small_geometry() -> ArrayGeometry:
    return ArrayGeometry.from_frequency(m_x=33, m_z=33, frequency_hz=REF_FREQ_HZ)


@pytest.fixture(scope="session")
def user1() -> UserLocation:
    return UserLocation(
        range_r=10.0, azimuth_theta=math.pi / 3, elevation_phi=2 * math.pi / 3
    )


@pytest.fixture(scope="session")
def user2_dd() -> UserLocation:
    "Second user, different direction from the first."
    return UserLocation(
        range_r=5.0, azimuth_theta=2 * math.pi / 3, elevation_phi=math.pi / 3
    )


@pytest.fixture(scope="session")
def user2_sd() -> UserLocation:
    "Second user, same direction as the first but at half the range."
    return UserLocation(
        range_r=5.0, azimuth_theta=math.pi / 3, elevation_phi=2 * math.pi / 3
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)


def synth_pair(g1: float, g2: float, rho: float, m: int = 8):
    """Two m-dimensional channel vectors with exact gains g1, g2 and
    squared correlation rho: h1 along e0, h2 tilted into the e0/e1
    plane by the requested amount.
    """
    h1 = np.zeros(m, dtype=np.complex128)
    h2 = np.zeros(m, dtype=np.complex128)
    h1[0] = math.sqrt(g1)
    h2[0] = math.sqrt(g2) * math.sqrt(rho)
    h2[1] = math.sqrt(g2) * math.sqrt(1.0 - rho)
    return h1, h2


def random_instance(rng: np.random.Generator):
    "Random gains in [1e-8, 1], correlation in [0, 1], SNRs in [0, 40] dB."
    g1, g2 = 10.0 ** rng.uniform(-8, 0, size=2)
    rho = rng.uniform(0.0, 1.0)
    snr1, snr2 = 10.0 ** (rng.uniform(0.0, 40.0, size=2) / 10.0)
    return g1, g2, rho, snr1, snr2


def long_double_ccf_sums(x, z, wx, wz, ups, r1, r2, k0, px1, oz1, px2, oz2):
    """The NF CCF double sum over the nodes (x, z) with weights wx wz,
    S = sum wx wz (Q1 Q2)^-3/4 exp(j (k0 r1 sqrt(Q1) - k0 r2 sqrt(Q2))),
    in np.longdouble from the same double arguments the kernels take.

    Returns S, its scale sum wx wz (Q1 Q2)^-3/4 and the norms
    N_k = sum Q_k^-3/2, as Python floats. The x87 long double carries 64
    bits, so each phase of a few hundred radians rounds by about 1e-17,
    against about 3e-14 in float64.
    """
    ld = np.longdouble
    assert np.finfo(ld).eps < 1e-18, "the reference needs an extended long double"
    X, Z = np.asarray(x, ld)[:, None], np.asarray(z, ld)[None, :]
    ups, r1, r2, k0, px1, oz1, px2, oz2 = (ld(v) for v in (ups, r1, r2, k0, px1, oz1,
                                                            px2, oz2))
    sq = X * X + Z * Z
    q1 = sq - 2 * px1 * X - 2 * oz1 * Z + 1
    q2 = ups * ups * sq - 2 * ups * px2 * X - 2 * ups * oz2 * Z + 1
    root = np.sqrt(q1 * q2)
    amp = np.outer(np.asarray(wx, ld), np.asarray(wz, ld)) / (root * np.sqrt(root))
    phase = k0 * r1 * np.sqrt(q1) - k0 * r2 * np.sqrt(q2)
    s = complex(float(np.sum(amp * np.cos(phase))), float(np.sum(amp * np.sin(phase))))
    n1, n2 = (float(np.sum(1 / (q * np.sqrt(q)))) for q in (q1, q2))
    return s, float(np.sum(amp)), n1, n2
