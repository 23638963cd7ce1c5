"""The shared input checks: the channel coercer, the scalar checks, and
the formula and oracle entry points that now reject non-finite input.
"""

import math

import numpy as np
import pytest

from nfcap import _checks
from nfcap.broadcast import linear_precoder_sum_rate
from nfcap.geometry import ArrayGeometry, nf_channel_vector
from nfcap.oracles import mc_beam_grid_oracle
from nfcap.stats import ccf_exact, gain_exact


def test_channel_vectors_keep_channel_entries_uncopied(user1, user2_dd):
    geom = ArrayGeometry.from_frequency(m_x=9, m_z=9, frequency_hz=2.4e9)
    h1 = nf_channel_vector(geom, user1)
    h2 = nf_channel_vector(geom, user2_dd)
    v1, v2 = _checks.channel_vectors([h1, h2])
    assert np.shares_memory(v1, h1.entries) and np.shares_memory(v2, h2.entries)
    assert gain_exact(h1) == float(np.vdot(h1.entries, h1.entries).real)
    inner = abs(np.vdot(h1.entries, h2.entries)) ** 2
    assert ccf_exact(h1, h2) == float(inner / (gain_exact(h1) * gain_exact(h2)))


def test_channel_vectors_coerce_and_name_the_bad_channel():
    (v,) = _checks.channel_vectors([[[1.0, 2.0]]])
    assert v.dtype == np.complex128 and v.shape == (2,)
    assert _checks.channel_vectors([]) == []
    with pytest.raises(ValueError, match=r"h2 must not be empty"):
        _checks.channel_vectors([np.ones(2), np.ones(0)], ("h1", "h2"))
    with pytest.raises(ValueError, match=r"channels\[1\] has 3 entries, channels\[0\] has 2"):
        _checks.channel_vectors([np.ones(2), np.ones(3)])


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_scalar_checks_name_argument_and_value(bad):
    with pytest.raises(ValueError, match=rf"gamma1 must be finite and nonnegative, got {bad}"):
        _checks.nonneg("gamma1", bad)
    with pytest.raises(ValueError, match=rf"sigma2 must be finite and positive, got {bad}"):
        _checks.positive("sigma2", bad)
    with pytest.raises(ValueError, match="correlation rho"):
        _checks.rho(bad)
    with pytest.raises(ValueError, match="sigma1"):
        _checks.positive("sigma1", 0.0)
    assert _checks.nonneg("g", 0.0) == 0.0
    assert _checks.rho(-1e-13) == 0.0 and _checks.rho(1.0 + 1e-13) == 1.0


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_nonfinite_snr_and_power_are_rejected(bad):
    with pytest.raises(ValueError, match=r"per_user_snr_hat\[0\]"):
        linear_precoder_sum_rate("mrt", 1.0, 1.0, 0.2, (bad, 1.0))
    h1 = np.array([1.0 + 0j, 0.0])
    h2 = np.array([0.6 + 0j, 0.8])
    with pytest.raises(ValueError, match="P must be finite"):
        mc_beam_grid_oracle(h1, h2, (1.0, 1.0), bad, (5, 5, 4))
