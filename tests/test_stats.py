"""Channel gain and correlation: exact vector statistics, closed-form
approximations, the correlation quadrature, and the planar-wave special
cases.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import long_double_ccf_sums
from nfcap import _kernels, sweeps
from nfcap.geometry import (
    ArrayGeometry,
    UserLocation,
    ff_channel_vector,
    nf_channel_vector,
)
from nfcap.oracles import ccf_sum_oracle
from nfcap.stats import (
    CcfEstimate,
    asymptotic_gains,
    asymptotic_nf_gain,
    asymptotic_stats,
    asymptotic_ula_gain,
    ccf_exact,
    ff_ccf_closed,
    ff_gain_closed,
    gain_exact,
    gram_matrix,
    gram_stats,
    nf_ccf_batch,
    nf_ccf_quadrature,
    nf_gain_closed,
    ula_gain_closed,
)

# Values computed once from this implementation and pinned so that any
# behavioral drift in the kernels or formulas shows up as a diff here.
GAIN_EXACT_U1 = 0.0031408136545481844
GAIN_CLOSED_U1 = 0.003140814135542447
GAIN_EXACT_U2 = 0.012553099345194106
GAIN_CLOSED_U2 = 0.012552999941342702
CCF_EXACT_DD = 3.531213697596689e-08
CCF_EXACT_SD = 0.007818897717861798
CCF_QUAD_DD = 1.3019432940659078e-08
CCF_QUAD_SD = 0.0077942593569787
SELF_PAIR_RAW = 1.0000412204274964
ULA_EXACT_1001 = 0.00030136481074486505
ULA_CLOSED_1001 = 0.00030136479808008366


def test_gain_exact_reference_values(ref_geometry, user1, user2_dd):
    h1 = nf_channel_vector(ref_geometry, user1)
    h2 = nf_channel_vector(ref_geometry, user2_dd)
    assert gain_exact(h1) == pytest.approx(GAIN_EXACT_U1, rel=1e-12)
    assert gain_exact(h2) == pytest.approx(GAIN_EXACT_U2, rel=1e-12)


def test_same_direction_user_has_identical_exact_gain(
    ref_geometry, user2_dd, user2_sd
):
    "Gain depends on range and direction only; both second users sit at 5 m."
    g_dd = gain_exact(nf_channel_vector(ref_geometry, user2_dd))
    g_sd = gain_exact(nf_channel_vector(ref_geometry, user2_sd))
    assert g_dd == pytest.approx(g_sd, rel=1e-12)


def test_nf_gain_closed_matches_exact_below_one_percent(
    ref_geometry, user1, user2_dd
):
    c1 = nf_gain_closed(ref_geometry, user1)
    c2 = nf_gain_closed(ref_geometry, user2_dd)
    assert c1 == pytest.approx(GAIN_CLOSED_U1, rel=1e-12)
    assert c2 == pytest.approx(GAIN_CLOSED_U2, rel=1e-12)
    assert abs(c1 - GAIN_EXACT_U1) / GAIN_EXACT_U1 < 0.01
    assert abs(c2 - GAIN_EXACT_U2) / GAIN_EXACT_U2 < 0.01


def test_nf_gain_closed_of_an_array_is_each_value_alone(ref_geometry, user2_dd):
    """An array of ranges, and an array of sizes, give each element the
    bits of a call with it alone: 20000 ranges from 0.2 m to 60 m on the
    65 x 65 array, where squares by ``**`` missed by an ulp on 5, and
    every odd side from 1 to 999 at 5 m."""
    ranges = np.random.default_rng(29).uniform(0.2, 60.0, 20000)
    gains = nf_gain_closed(ref_geometry, replace(user2_dd, range_r=ranges))
    assert gains.tolist() == [nf_gain_closed(ref_geometry, replace(user2_dd, range_r=r))
                              for r in ranges.tolist()]
    sides = np.arange(1, 1000, 2)
    gains = nf_gain_closed(replace(ref_geometry, m_x=sides * 1.0, m_z=sides * 1.0), user2_dd)
    assert gains.tolist() == [nf_gain_closed(replace(ref_geometry, m_x=m, m_z=m), user2_dd)
                              for m in sides.tolist()]


def test_nf_gain_closed_error_shrinks_with_range(ref_geometry, user1, user2_dd):
    "Worst relative error over both users at least halves when r doubles."

    def worst(scale):
        errs = []
        for u in (user1, user2_dd):
            far = UserLocation(
                range_r=u.range_r * scale,
                azimuth_theta=u.azimuth_theta,
                elevation_phi=u.elevation_phi,
            )
            exact = gain_exact(nf_channel_vector(ref_geometry, far))
            closed = nf_gain_closed(ref_geometry, far)
            errs.append(abs(closed - exact) / exact)
        return max(errs)

    assert worst(1.0) >= 2.0 * worst(2.0)


def test_ccf_exact_reference_values(ref_geometry, user1, user2_dd, user2_sd):
    h1 = nf_channel_vector(ref_geometry, user1)
    assert ccf_exact(h1, nf_channel_vector(ref_geometry, user2_dd)) == pytest.approx(
        CCF_EXACT_DD, rel=1e-9
    )
    assert ccf_exact(h1, nf_channel_vector(ref_geometry, user2_sd)) == pytest.approx(
        CCF_EXACT_SD, rel=1e-12
    )
    assert ccf_exact(h1, h1) == pytest.approx(1.0, rel=1e-12)


def test_nf_ccf_quadrature_reference_values(ref_geometry, user1, user2_dd, user2_sd):
    est_dd = nf_ccf_quadrature(ref_geometry, user1, user2_dd, 200)
    est_sd = nf_ccf_quadrature(ref_geometry, user1, user2_sd, 200)
    assert isinstance(est_dd, CcfEstimate)
    assert est_dd.value == pytest.approx(CCF_QUAD_DD, rel=1e-9)
    assert est_sd.value == pytest.approx(CCF_QUAD_SD, rel=1e-12)
    assert abs(est_dd.value - CCF_EXACT_DD) < 1e-3
    assert abs(est_sd.value - CCF_EXACT_SD) < 1e-3


def test_nf_ccf_quadrature_self_pair_clamps_to_one(ref_geometry, user1):
    est = nf_ccf_quadrature(ref_geometry, user1, user1, 200)
    assert est.raw == pytest.approx(SELF_PAIR_RAW, rel=1e-12)
    assert est.raw > 1.0
    assert est.value == 1.0


_U1 = (10.0, math.pi / 3, 2 * math.pi / 3)


@pytest.mark.parametrize("nodes", [200, 800])
@pytest.mark.parametrize("m_axis", [65, 551])
@pytest.mark.parametrize(
    "user2",
    [
        pytest.param((2.0, 2 * math.pi / 3, math.pi / 3), id="different-direction"),
        pytest.param((2.0, math.pi / 3, 2 * math.pi / 3), id="same-direction"),
        # the reference pair: at 65x65 the sum cancels by about 1e4
        pytest.param((5.0, 2 * math.pi / 3, math.pi / 3), id="reference-pair"),
        pytest.param(_U1, id="co-located"),
    ],
)
def test_quadrature_kernel_matches_two_exponential_form(
    monkeypatch, nodes, m_axis, user2
):
    """The rule's double sum of the two exponentials against the same sum
    in long double, from the arguments that nf_ccf_quadrature passes the
    kernel, to 2e-15 of sum w w' (Q1 Q2)^-3/4."""
    geom = ArrayGeometry.from_frequency(m_x=m_axis, m_z=m_axis, frequency_hz=2.4e9)
    u1, u2 = UserLocation(*_U1), UserLocation(*user2)
    calls = []  # in the argument order of ccf_quadrature_sum
    batch = _kernels.ccf_quadrature_sums

    def recording(x, z, w, r1, k0, px1, oz1, seconds):
        calls.extend((x, z, w, ups, r1, r2, k0, px1, oz1, px2, oz2)
                     for ups, r2, px2, oz2 in seconds)
        return batch(x, z, w, r1, k0, px1, oz1, seconds)

    monkeypatch.setattr(_kernels, "ccf_quadrature_sums", recording)
    est = nf_ccf_quadrature(geom, u1, u2, nodes)
    (args,) = calls
    x, z, w, ups, r1, r2, k0, *dirs = args
    want, scale, _, _ = long_double_ccf_sums(x, z, w, w, ups, r1, r2, k0, *dirs)

    def miss(k):
        return abs(_kernels.ccf_quadrature_sum(x, z, w, ups, r1, r2, k, *dirs) - want)

    # float64 rounding of the sum is up to 9e-16 of its scale on these cases
    assert miss(k0) <= 2e-15 * scale
    if u2 == u1:
        assert est.raw > 1.0 and est.value == 1.0
    else:
        # negative control: k0 off by 1e-12 moves S by 4e-14 of the scale
        # or more; co-located users have no phase for k0 to move
        assert miss(k0 * (1 + 1e-12)) > 2e-15 * scale


@pytest.mark.parametrize(
    ("m_x", "m_z"),
    [(9, 9), (33, 33), (65, 65), (151, 151), (17, 41), (1, 257)],
)
@pytest.mark.parametrize(
    "user2",
    [
        pytest.param((5.0, 2 * math.pi / 3, math.pi / 3), id="reference-dd"),
        pytest.param((5.0, math.pi / 3, 2 * math.pi / 3), id="reference-sd"),
        pytest.param(_U1, id="co-located"),
    ],
)
def test_nf_ccf_elements_matches_exact_vectors(m_x, m_z, user2):
    "The element sum is ccf_exact of the two NF channel vectors."
    geom = ArrayGeometry.from_frequency(m_x=m_x, m_z=m_z, frequency_hz=2.4e9)
    u1, u2 = UserLocation(*_U1), UserLocation(*user2)
    exact = ccf_exact(nf_channel_vector(geom, u1), nf_channel_vector(geom, u2))
    est = nf_ccf_batch(geom, u1, [u2])[0]
    assert isinstance(est, CcfEstimate)
    assert est.value == pytest.approx(min(exact, 1.0), rel=1e-10)
    assert est.raw == pytest.approx(exact, rel=1e-10)
    assert est.value <= 1.0


_ANGLES = st.floats(0.1, math.pi - 0.1)
_ODD_SIDES = st.integers(0, 32).map(lambda k: 2 * k + 1)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    _ODD_SIDES,
    _ODD_SIDES,
    st.floats(0.0, 1.0),
    st.floats(-2.0, 2.0),
    st.sampled_from(["co-located", "co-directional", "apart"]),
    st.tuples(_ANGLES, _ANGLES, _ANGLES, _ANGLES),
)
def test_nf_ccf_elements_holds_at_the_domain_edges(m_x, m_z, reach, log_ratio, pair,
                                                   angles):
    """The element sum against the element oracle, on arrays of up to 65
    per axis, with r2 / r1 from 1e-2 to 1e2 and the farther user from 10 m
    out to the largest range that the NF model takes: within the
    tolerance that ``--verify`` holds it to. Co-located users give a raw
    correlation of 1 to rounding."""
    geom = ArrayGeometry.from_frequency(m_x=m_x, m_z=m_z, frequency_hz=2.4e9)
    edge = sweeps._MAX_PHASE_ROUNDING / sweeps._phase_rounding(geom, 1.0) * (1 - 1e-12)
    far = 10.0 ** (1.0 + reach * (math.log10(edge) - 1.0))
    near = far / 10.0 ** abs(log_ratio)
    az1, el1, az2, el2 = angles
    if pair == "co-located":
        u1 = u2 = UserLocation(far, az1, el1)
    else:
        r1, r2 = (far, near) if log_ratio < 0 else (near, far)
        u1 = UserLocation(r1, az1, el1)
        u2 = UserLocation(r2, *((az1, el1) if pair == "co-directional" else (az2, el2)))
    assert sweeps._nf_range_refusal(geom, (u1, u2)) == ""
    est = nf_ccf_batch(geom, u1, [u2])[0]
    oracle = ccf_sum_oracle(geom, u1, u2)
    assert abs(est.value - oracle) <= sweeps._ccf_elements_tolerance(geom, (u1, u2), oracle)
    if pair == "co-located":
        assert est.raw == pytest.approx(1.0, abs=4 * np.finfo(float).eps)


def test_nf_ccf_elements_rejects_user_inside_pitch(ref_geometry, user1):
    too_close = UserLocation(range_r=0.01, azimuth_theta=1.0, elevation_phi=1.0)
    with pytest.raises(ValueError, match="pitch"):
        nf_ccf_batch(ref_geometry, user1, [too_close])


def test_nf_ccf_quadrature_rejects_tiny_node_count(ref_geometry, user1, user2_dd):
    with pytest.raises(ValueError):
        nf_ccf_quadrature(ref_geometry, user1, user2_dd, 1)


def test_ff_gain_closed_equals_exact_planar_norm(ref_geometry, user1, user2_dd):
    for u in (user1, user2_dd):
        closed = ff_gain_closed(ref_geometry, u)
        exact = gain_exact(ff_channel_vector(ref_geometry, u))
        assert closed == pytest.approx(exact, rel=1e-12)
        direct = (
            ref_geometry.m_total
            * ref_geometry.element_area
            * u.dir_y
            / (4 * math.pi * u.range_r**2)
        )
        assert closed == pytest.approx(direct, rel=1e-14)


def test_ff_ccf_same_direction_is_exactly_one(ref_geometry, user1, user2_sd):
    assert ff_ccf_closed(ref_geometry, user1, user2_sd) == 1.0


def test_ff_ccf_generic_matches_exact_inner_product(ref_geometry, user1, user2_dd):
    closed = ff_ccf_closed(ref_geometry, user1, user2_dd)
    exact = ccf_exact(
        ff_channel_vector(ref_geometry, user1),
        ff_channel_vector(ref_geometry, user2_dd),
    )
    assert closed == pytest.approx(exact, rel=1e-9)


def test_ff_ccf_of_exact_vectors_holds_at_far_range(ref_geometry, user1, user2_dd):
    """At r1 = 1e50 m the exact FF vectors still give the closed-form
    correlation: their phases carry the ramp, not the common range."""
    far = UserLocation(1e50, user1.azimuth_theta, user1.elevation_phi)
    exact = ccf_exact(
        ff_channel_vector(ref_geometry, far),
        ff_channel_vector(ref_geometry, user2_dd),
    )
    assert exact == pytest.approx(ff_ccf_closed(ref_geometry, far, user2_dd), rel=1e-9)


@pytest.mark.parametrize("range_m", [1e77, 1e78, 1e80, 1e102])
def test_ff_ccf_of_exact_vectors_holds_past_gain_product_underflow(range_m, user1, user2_dd):
    """With both users at range_m, |h1^H h2|^2 and g1 g2 fall below the
    smallest normal double; the Gram reductions still give the closed
    form, with no warning."""
    geom = ArrayGeometry.from_frequency(m_x=9, m_z=9, frequency_hz=2.4e9)
    h1, h2 = (ff_channel_vector(geom, replace(u, range_r=range_m)) for u in (user1, user2_dd))
    closed = ff_ccf_closed(geom, user1, user2_dd)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ccf_exact(h1, h2) == pytest.approx(closed, rel=1e-12)
        assert gram_stats(gram_matrix([h1, h2]))[2] == pytest.approx(closed, rel=1e-12)


def test_asymptotic_stats_of_each_model(ref_geometry, user1, user2_dd, user2_sd):
    """NF: the saturated gains with rho = 0. FF: the FF gains at the
    array's M, with rho = 1 for users sharing a direction, else 0."""
    for u2 in (user2_dd, user2_sd):
        users = [user1, u2]
        nf = asymptotic_stats(ref_geometry, users, "NF")
        assert nf == (*asymptotic_gains(ref_geometry, users), 0.0)
        ff = asymptotic_stats(ref_geometry, users, "ff")
        assert ff[:2] == tuple(ff_gain_closed(ref_geometry, u) for u in users)
        assert ff[2] == (1.0 if u2 is user2_sd else 0.0)
    with pytest.raises(ValueError, match="exactly two users"):
        asymptotic_stats(ref_geometry, [user1, user2_dd, user1], "ff")
    with pytest.raises(ValueError, match="model must be"):
        asymptotic_stats(ref_geometry, [user1, user2_dd], "xf")


def test_ff_ccf_single_axis_degenerate_matches_exact(small_geometry):
    """When exactly one direction-cosine difference vanishes the closed
    form is still the per-axis product and matches the exact FF inner
    product; the published M^2 form would be off by m^2 on the other axis.
    """
    u1 = UserLocation(range_r=10.0, azimuth_theta=math.pi / 3, elevation_phi=math.pi / 2)
    same_dir_x = UserLocation(
        range_r=5.0,
        azimuth_theta=math.acos(0.5 / math.sin(math.pi / 3)),
        elevation_phi=math.pi / 3,
    )
    assert abs(u1.dir_x - same_dir_x.dir_x) < 1e-15
    assert abs(u1.dir_z - same_dir_x.dir_z) > 1e-3
    same_elevation = UserLocation(
        range_r=5.0, azimuth_theta=2 * math.pi / 3, elevation_phi=math.pi / 2
    )
    assert u1.dir_z == same_elevation.dir_z
    assert abs(u1.dir_x - same_elevation.dir_x) > 1e-3
    h1 = ff_channel_vector(small_geometry, u1)
    for u2 in (same_dir_x, same_elevation):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = ff_ccf_closed(small_geometry, u1, u2)
        exact = ccf_exact(h1, ff_channel_vector(small_geometry, u2))
        assert closed == pytest.approx(exact, rel=1e-12)


def test_ula_gain_closed_reference_value():
    geom = ArrayGeometry.from_frequency(m_x=1, m_z=1001, frequency_hz=2.4e9)
    u = UserLocation(range_r=10.0, azimuth_theta=math.pi / 2, elevation_phi=math.pi / 2)
    closed = ula_gain_closed(geom, u)
    assert closed == pytest.approx(ULA_CLOSED_1001, rel=1e-12)
    exact = gain_exact(nf_channel_vector(geom, u))
    assert exact == pytest.approx(ULA_EXACT_1001, rel=1e-12)
    assert abs(closed - exact) / exact < 1e-6


def test_ula_gain_closed_matches_element_sum_off_broadside():
    """The axial cosine of a column array is dir_z = cos(phi), not
    cos(theta): users with sin(theta) != sin(phi) tell the two apart."""
    geom = ArrayGeometry.from_frequency(m_x=1, m_z=257, frequency_hz=2.4e9)
    for r, theta, phi in ((4.0, 1.3, 0.6), (2.0, 0.4, 2.5), (10.0, 1.0, 1.2)):
        u = UserLocation(range_r=r, azimuth_theta=theta, elevation_phi=phi)
        exact = gain_exact(nf_channel_vector(geom, u))
        assert ula_gain_closed(geom, u) == pytest.approx(exact, rel=1e-5)


def test_ula_gain_closed_requires_single_column():
    geom = ArrayGeometry.from_frequency(m_x=3, m_z=1001, frequency_hz=2.4e9)
    u = UserLocation(range_r=10.0, azimuth_theta=1.2, elevation_phi=1.3)
    with pytest.raises(ValueError):
        ula_gain_closed(geom, u)


def test_asymptotic_nf_gain_is_half_occupation():
    assert asymptotic_nf_gain(1.0 / math.pi) == pytest.approx(
        0.5 / math.pi, rel=1e-15
    )


def test_asymptotic_gains_one_per_user():
    users = [UserLocation(range_r=r, azimuth_theta=1.0, elevation_phi=1.2)
             for r in (10.0, 5.0, 2.0)]
    column = ArrayGeometry.from_frequency(m_x=1, m_z=101, frequency_hz=2.4e9)
    assert asymptotic_gains(column, users) == tuple(
        asymptotic_ula_gain(column, u) for u in users)
    plane = ArrayGeometry.from_frequency(m_x=3, m_z=101, frequency_hz=2.4e9)
    assert asymptotic_gains(plane, users) == pytest.approx((0.5 / math.pi,) * 3)


def test_asymptotic_ula_gain_is_large_count_limit():
    u = UserLocation(range_r=10.0, azimuth_theta=1.0, elevation_phi=1.2)
    limit = None
    prev = None
    for m in (100_001, 1_000_001, 10_000_001):
        geom = ArrayGeometry.from_frequency(m_x=1, m_z=m, frequency_hz=2.4e9)
        val = ula_gain_closed(geom, u)
        limit = asymptotic_ula_gain(geom, u)
        if prev is not None:
            assert abs(val - limit) < abs(prev - limit)
        prev = val
    assert prev == pytest.approx(limit, rel=1e-3)
