"""Uplink (multiple-access) capacity: SIC corner rates, sum capacity,
achievable regions, linear combiners, and the large-array limit.

The formulas take the per-user effective gains ``g1, g2``, the squared
channel correlation ``rho``, and per-user transmit SNRs, each a float or
a numpy array. Arrays broadcast against each other and the result is an
array of one value per element, the bits the same floats would give; a
call on floats alone returns floats. The large-array limit of either
field model is the two-user sum capacity at the limit statistics of
:func:`nfcap.stats.asymptotic_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _checks
from .geometry import ArrayGeometry, UserLocation
from .stats import asymptotic_stats

__all__ = [
    "MacConfig",
    "RatePoint",
    "RateRegion",
    "sic_rates_two_user",
    "mac_capacity_two_user",
    "mac_region_two_user",
    "linear_combiner_sum_rate",
    "mac_asymptotics",
]


@dataclass(frozen=True)
class MacConfig:
    """Per-user transmit SNRs for an uplink instance.

    ``snr_per_user[k]`` is the ratio of user k's transmit power to the
    receiver noise variance (linear scale, not dB).
    """

    snr_per_user: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.snr_per_user) == 0:
            raise ValueError("snr_per_user must not be empty")
        cleaned = tuple(
            _checks.nonneg(f"snr_per_user[{k}]", v)
            for k, v in enumerate(self.snr_per_user)
        )
        object.__setattr__(self, "snr_per_user", cleaned)

    @property
    def num_users(self) -> int:
        return len(self.snr_per_user)


@dataclass(frozen=True)
class RatePoint:
    """An achievable rate pair in bits per channel use."""

    r1: float
    r2: float

    def __post_init__(self) -> None:
        for name in ("r1", "r2"):
            value = _checks.checked(
                getattr(self, name), lambda v: np.isfinite(v) & (v >= -1e-9),
                f"{name} must be a nonnegative rate",
            )
            object.__setattr__(self, name, _checks.result(np.maximum(value, 0.0)))


@dataclass(frozen=True)
class RateRegion:
    """Boundary description of a two-user rate region.

    ``vertices`` walks the outer boundary from the r1 axis to the r2
    axis, starting and ending at the axis intercepts, with (0, 0) first.
    ``kind`` records the region shape: "pentagon" for a region with a
    dominant face between two distinct corners, "rectangle" when the two
    corners coincide and the region degenerates to a box, and "hull" for
    a numerically assembled convex envelope.
    """

    vertices: tuple[RatePoint, ...]
    kind: str

    _KINDS = ("pentagon", "rectangle", "hull")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        if len(self.vertices) < 3:
            raise ValueError("a rate region needs at least 3 boundary vertices")
        object.__setattr__(self, "vertices", tuple(self.vertices))


def sic_rates_two_user(
    g1: float,
    g2: float,
    rho: float,
    gamma1: float,
    gamma2: float,
    order: str,
) -> RatePoint:
    """Rate pair achieved by successive decoding at one region corner.

    ``order`` selects which user is decoded first. The first-decoded
    user sees the other user as interference; the remaining user is
    decoded interference free. With ``order="u1_first"``:

        R1 = log2(1 + (g1*gamma1 + gamma1*gamma2*g1*g2*(1 - rho)) / (1 + gamma2*g2))
        R2 = log2(1 + gamma2*g2)

    and the labels swap for ``order="u2_first"``. Both corners sum to
    the two-user sum capacity.
    """
    g1 = _checks.nonneg("g1", g1)
    g2 = _checks.nonneg("g2", g2)
    gamma1 = _checks.nonneg("gamma1", gamma1)
    gamma2 = _checks.nonneg("gamma2", gamma2)
    rho = _checks.rho(rho)
    key = order.lower()
    if key not in ("u1_first", "u2_first"):
        raise ValueError(f"order must be 'u1_first' or 'u2_first', got {order!r}")
    with np.errstate(all="ignore"):
        x1, x2 = gamma1 * g1, gamma2 * g2
        cross = gamma1 * gamma2 * g1 * g2 * (1.0 - rho)
        if key == "u1_first":
            r1 = _checks.log2(1.0 + (x1 + cross) / (1.0 + x2))
            r2 = _checks.log2(1.0 + x2)
        else:
            r1 = _checks.log2(1.0 + x1)
            r2 = _checks.log2(1.0 + (x2 + cross) / (1.0 + x1))
    return RatePoint(r1, r2)


def mac_capacity_two_user(
    g1: float,
    g2: float,
    rho: float,
    gamma1: float,
    gamma2: float,
) -> float:
    """Two-user uplink sum capacity in bits per channel use.

    Closed form of log2 det(I + sum_k gamma_k h_k h_k^H) for two
    channels whose squared normalized inner product is ``rho``:

        C = log2(1 + gamma1*g1 + gamma2*g2 + gamma1*gamma2*g1*g2*(1 - rho))
    """
    g1 = _checks.nonneg("g1", g1)
    g2 = _checks.nonneg("g2", g2)
    gamma1 = _checks.nonneg("gamma1", gamma1)
    gamma2 = _checks.nonneg("gamma2", gamma2)
    rho = _checks.rho(rho)
    with np.errstate(all="ignore"):
        arg = (
            1.0
            + gamma1 * g1
            + gamma2 * g2
            + gamma1 * gamma2 * g1 * g2 * (1.0 - rho)
        )
    bad = ~np.isfinite(arg)
    if bad.any():
        g1, g2, gamma1, gamma2, rho = _checks.first(bad, g1, g2, gamma1, gamma2, rho)
        raise ValueError(
            "uplink capacity overflows: 1 + gamma1*g1 + gamma2*g2 + "
            f"gamma1*gamma2*g1*g2*(1 - rho) is not finite for g=({g1}, {g2}), "
            f"gamma=({gamma1}, {gamma2}), rho={rho}"
        )
    return _checks.log2(arg)


def mac_region_two_user(
    g1: float,
    g2: float,
    rho: float,
    gamma1: float,
    gamma2: float,
    time_share_samples: int = 101,
) -> RateRegion:
    """Capacity region boundary for the two-user uplink.

    The boundary walk is (0, 0), the r1-axis intercept, the dominant
    face sampled by time sharing between the two SIC corners, then the
    r2-axis intercept. When the corners coincide (orthogonal channels or
    a degenerate user) the pentagon collapses and ``kind`` reports
    "rectangle".
    """
    if time_share_samples < 2:
        raise ValueError(
            f"time_share_samples must be at least 2, got {time_share_samples}"
        )
    corner_a = sic_rates_two_user(g1, g2, rho, gamma1, gamma2, "u2_first")
    corner_b = sic_rates_two_user(g1, g2, rho, gamma1, gamma2, "u1_first")
    r1_max = corner_a.r1
    r2_max = corner_b.r2

    coincide = (
        abs(corner_a.r1 - corner_b.r1) <= 1e-12
        and abs(corner_a.r2 - corner_b.r2) <= 1e-12
    )
    vertices: list[RatePoint] = [RatePoint(0.0, 0.0), RatePoint(r1_max, 0.0)]
    if coincide:
        kind = "rectangle"
        vertices.append(corner_a)
    else:
        kind = "pentagon"
        for i in range(time_share_samples):
            tau = i / (time_share_samples - 1)
            vertices.append(
                RatePoint(
                    (1.0 - tau) * corner_a.r1 + tau * corner_b.r1,
                    (1.0 - tau) * corner_a.r2 + tau * corner_b.r2,
                )
            )
    vertices.append(RatePoint(0.0, r2_max))

    deduped: list[RatePoint] = []
    for v in vertices:
        if deduped and abs(v.r1 - deduped[-1].r1) <= 1e-15 and abs(
            v.r2 - deduped[-1].r2
        ) <= 1e-15:
            continue
        deduped.append(v)
    return RateRegion(tuple(deduped), kind)


def linear_combiner_sum_rate(
    scheme: str,
    g1: float,
    g2: float,
    rho: float,
    gamma1: float,
    gamma2: float,
) -> float:
    """Achievable uplink sum rate with per-user linear receive combining.

    Each user k is detected with SINR gamma_k*g_k*(1 - f) where the loss
    factor f depends on the other user's received strength x and on the
    correlation z = rho:

        "opt": f = x z / (1 + x)    (MMSE combiner)
        "mrc": f = x z / (1 + x z)  (matched filter)
        "zf":  f = z                (zero forcing projection)

    All three coincide with the interference-free sum when rho = 0.
    """
    g1 = _checks.nonneg("g1", g1)
    g2 = _checks.nonneg("g2", g2)
    gamma1 = _checks.nonneg("gamma1", gamma1)
    gamma2 = _checks.nonneg("gamma2", gamma2)
    z = _checks.rho(rho)
    key = scheme.lower()
    if key not in ("opt", "mrc", "zf"):
        raise ValueError(f"scheme must be 'opt', 'mrc', or 'zf', got {scheme!r}")

    def loss(x_other):
        if key == "opt":
            return x_other * z / (1.0 + x_other)
        if key == "mrc":
            return x_other * z / (1.0 + x_other * z)
        return z

    total = 0.0
    with np.errstate(all="ignore"):
        x1, x2 = gamma1 * g1, gamma2 * g2
        for own, other in ((x1, x2), (x2, x1)):
            total += _checks.log2(1.0 + own * (1.0 - loss(other)))
    return total


def mac_asymptotics(
    geom: ArrayGeometry, users: Sequence[UserLocation], cfg: MacConfig, model: str
) -> float:
    """Large-array uplink capacity of two users: the sum capacity at the
    :func:`nfcap.stats.asymptotic_stats` of ``model``.

    In the far field that is the capacity at the ``geom.m_total`` = M
    elements of ``geom``, which keeps growing like log M. The paper's
    high-SNR form, log2(M A / (4 pi) (t1 + t2)) for users sharing one
    direction with the cross term M^2 A^2 t1 t2 / (16 pi^2) added inside
    the logarithm for distinct ones (t_k = snr_k proj_k / r_k^2), is
    log2(2^C - 1) of this value C.
    """
    if cfg.num_users != 2:
        raise ValueError("the large-array limit is defined for exactly two users")
    return mac_capacity_two_user(*asymptotic_stats(geom, users, model),
                                 *cfg.snr_per_user)
