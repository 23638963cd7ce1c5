"""Properties of the two-user capacity formulas over their whole domain,
drawn by hypothesis: gains g >= 0 (zero included), squared correlation
rho in [0, 1] (both ends included), SNRs >= 0, power P > 0 and noise
variances > 0, with magnitudes kept where no formula overflows.

Slack is 1e-12 relative: each formula is a few roundings of a log2, so
two expressions that agree in exact arithmetic agree to a few ulps.
Every capacity is also drawn at a link budget scaled by a factor f in
[1, 100] (both SNRs, or P), and may not fall.
"""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfcap.broadcast import BcConfig, bc_capacity_two_user, bc_power_allocation_two_user
from nfcap.mac import linear_combiner_sum_rate, mac_capacity_two_user, sic_rates_two_user
from nfcap.multicast import mc_capacity_two_user, mc_upper_bound

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
