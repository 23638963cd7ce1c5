"""Uplink (multiple-access) capacity: SIC corner rates, sum capacity,
achievable regions, linear combiners, and the far-field large-array
limit.

Two-user scalar formulas take the per-user effective gains ``g1, g2``,
the squared channel correlation ``rho``, and per-user transmit SNRs.
General-K routines operate on explicit channel vectors through the Gram
matrix, so they remain exact for any correlation structure. The
near-field large-array limit is the two-user capacity at the saturated
gains of :func:`nfcap.stats.asymptotic_gains` with rho = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _checks
from .geometry import ArrayGeometry, ChannelVector, UserLocation

__all__ = [
    "MacConfig",
    "RatePoint",
    "RateRegion",
    "FfAsymptote",
    "sic_rates_two_user",
    "mac_capacity_two_user",
    "mac_capacity_general",
    "mac_corner_rates_general",
    "mac_region_two_user",
    "linear_combiner_sum_rate",
    "mac_asymptotics",
]

_LOG2 = math.log(2.0)


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
        for name, value in (("r1", self.r1), ("r2", self.r2)):
            if not math.isfinite(value) or value < -1e-9:
                raise ValueError(f"{name} must be a nonnegative rate, got {value}")
        object.__setattr__(self, "r1", max(0.0, float(self.r1)))
        object.__setattr__(self, "r2", max(0.0, float(self.r2)))

    @property
    def sum_rate(self) -> float:
        return self.r1 + self.r2

    def as_tuple(self) -> tuple[float, float]:
        return (self.r1, self.r2)


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

    @property
    def sum_capacity(self) -> float:
        return max(v.sum_rate for v in self.vertices)

    def contains(self, point: RatePoint, slack: float = 1e-9) -> bool:
        """Check membership by comparing against every boundary facet.

        The vertex walk runs counterclockwise from (0, 0) along the r1
        axis and back down the r2 axis, so interior points lie on the
        left of every directed edge; a point belongs iff no edge sees it
        on the right by more than ``slack``.
        """
        pts = [v.as_tuple() for v in self.vertices]
        x, y = point.r1, point.r2
        if x < -slack or y < -slack:
            return False
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
            if cross < -slack:
                return False
        return True


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
    x1, x2 = gamma1 * g1, gamma2 * g2
    cross = gamma1 * gamma2 * g1 * g2 * (1.0 - rho)
    if key == "u1_first":
        r1 = math.log2(1.0 + (x1 + cross) / (1.0 + x2))
        r2 = math.log2(1.0 + x2)
    else:
        r1 = math.log2(1.0 + x1)
        r2 = math.log2(1.0 + (x2 + cross) / (1.0 + x1))
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
    arg = (
        1.0
        + gamma1 * g1
        + gamma2 * g2
        + gamma1 * gamma2 * g1 * g2 * (1.0 - rho)
    )
    if not math.isfinite(arg):
        raise ValueError(
            "uplink capacity overflows: 1 + gamma1*g1 + gamma2*g2 + "
            f"gamma1*gamma2*g1*g2*(1 - rho) is not finite for g=({g1}, {g2}), "
            f"gamma=({gamma1}, {gamma2}), rho={rho}"
        )
    return math.log2(arg)


def _channel_matrix(channels: Sequence[ChannelVector | np.ndarray]) -> np.ndarray:
    if len(channels) == 0:
        raise ValueError("channels must not be empty")
    return np.stack(_checks.channel_vectors(channels), axis=1)


def _gram_logdet_bits(gram: np.ndarray) -> float:
    """log2 det(I + G) for a Hermitian PSD Gram matrix G (K x K)."""
    k = gram.shape[0]
    mat = np.eye(k, dtype=np.complex128) + gram
    # Cholesky keeps this exact for the well-conditioned PSD case and
    # fails loudly (LinAlgError) if numerical asymmetry creeps in.
    chol = np.linalg.cholesky((mat + mat.conj().T) / 2.0)
    return float(2.0 * np.sum(np.log(np.abs(np.diag(chol)))) / _LOG2)


def mac_capacity_general(
    channels: Sequence[ChannelVector | np.ndarray],
    cfg: MacConfig,
) -> float:
    """Uplink sum capacity for K users from explicit channel vectors.

    Evaluates log2 det(I_K + H~^H H~) where column k of H~ is
    sqrt(snr_k) h_k. Working with the K x K Gram matrix instead of the
    M x M covariance keeps the cost independent of the array size.
    """
    mat = _channel_matrix(channels)
    if mat.shape[1] != cfg.num_users:
        raise ValueError(
            f"got {mat.shape[1]} channels but {cfg.num_users} SNR entries"
        )
    scaled = mat * np.sqrt(np.asarray(cfg.snr_per_user, dtype=np.float64))
    gram = scaled.conj().T @ scaled
    return _gram_logdet_bits(gram)


def mac_corner_rates_general(
    channels: Sequence[ChannelVector | np.ndarray],
    cfg: MacConfig,
    order: Sequence[int],
) -> tuple[float, ...]:
    """Per-user SIC rates for an arbitrary decode order, K users.

    ``order`` is a permutation of 0..K-1 giving the decode sequence;
    ``order[0]`` is decoded first (treating everyone later in the
    sequence as interference) and ``order[-1]`` is decoded last,
    interference free. Entry k of the result is user k's rate, computed
    as a difference of log-determinants over the not-yet-decoded sets,
    so the rates sum to the sum capacity for every order.
    """
    mat = _channel_matrix(channels)
    k = mat.shape[1]
    if cfg.num_users != k:
        raise ValueError(
            f"got {k} channels but {cfg.num_users} SNR entries"
        )
    if sorted(order) != list(range(k)):
        raise ValueError(
            f"order must be a permutation of 0..{k - 1}, got {tuple(order)}"
        )
    scaled = mat * np.sqrt(np.asarray(cfg.snr_per_user, dtype=np.float64))
    gram = scaled.conj().T @ scaled

    def remaining_capacity(users: Sequence[int]) -> float:
        if len(users) == 0:
            return 0.0
        idx = np.asarray(users, dtype=np.intp)
        return _gram_logdet_bits(gram[np.ix_(idx, idx)])

    rates = [0.0] * k
    seq = list(order)
    for i, user in enumerate(seq):
        rates[user] = remaining_capacity(seq[i:]) - remaining_capacity(seq[i + 1:])
    return tuple(max(0.0, r) for r in rates)


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

    def loss(x_other: float) -> float:
        if key == "opt":
            return x_other * z / (1.0 + x_other)
        if key == "mrc":
            return x_other * z / (1.0 + x_other * z)
        return z

    x1, x2 = gamma1 * g1, gamma2 * g2
    total = 0.0
    for own, other in ((x1, x2), (x2, x1)):
        total += math.log2(1.0 + own * (1.0 - loss(other)))
    return total


@dataclass(frozen=True)
class FfAsymptote:
    """Large-array far-field capacity at a given element count.

    ``static`` is the value when both users share one direction (their
    channels stay fully correlated at every array size), ``dynamic`` the
    value for distinct directions, and ``gap`` the distance
    |dynamic - static| between them. Uplink and downlink gain from
    distinct directions (dynamic >= static); multicast gains from a
    shared one (static >= dynamic).
    """

    static: float
    dynamic: float
    gap: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gap", abs(self.dynamic - self.static))


def mac_asymptotics(
    geom: ArrayGeometry, users: Sequence[UserLocation], cfg: MacConfig
) -> FfAsymptote:
    """Large-array far-field uplink capacity of two users at the
    ``geom.m_total`` = M elements of ``geom``.

    The far-field gains keep growing linearly in M, so capacity grows
    like log M without saturating. With t_k = snr_k proj_k / r_k^2,
    static = log2(M A / (4 pi) (t1 + t2)) and dynamic adds the cross
    term M^2 A^2 t1 t2 / (16 pi^2) inside the logarithm.
    """
    if len(users) != 2 or cfg.num_users != 2:
        raise ValueError("the far-field limit is defined for exactly two users")
    m_total = geom.m_total
    area = geom.element_area
    s1, s2 = cfg.snr_per_user
    u1, u2 = users
    t1 = s1 * u1.dir_y / u1.range_r**2
    t2 = s2 * u2.dir_y / u2.range_r**2
    base = m_total * area / (4.0 * math.pi) * (t1 + t2)
    extra = (
        m_total**2
        * area**2
        * s1
        * s2
        * u1.dir_y
        * u2.dir_y
        / (16.0 * math.pi**2 * u1.range_r**2 * u2.range_r**2)
    )
    return FfAsymptote(static=math.log2(base), dynamic=math.log2(base + extra))
