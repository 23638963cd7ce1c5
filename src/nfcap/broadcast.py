"""Downlink (broadcast) capacity through uplink-downlink duality.

The sum capacity of the two-user downlink under a total power budget
equals the capacity of a dual uplink with a joint power constraint. The
optimal dual power split has a closed form. This module provides that
split, the resulting capacity, recovery of the downlink transmit
covariance matrices, region sampling, linear transmit precoders, and
the large-array limit: the two-user capacity at the limit statistics
of :func:`nfcap.stats.asymptotic_stats`, for either field model.

The two-user routines, the region sampler among them, take channel
gains ``g1, g2`` and the squared correlation ``rho``. The closed forms
take each of them, and the power budget of a :class:`BcConfig`, as a
float or a numpy array: arrays broadcast and give one value per
element, the bits the same floats would give, and a call on floats
alone returns floats. The covariance recovery takes the two channel
vectors and normalizes them by the per-user noise variances internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _checks
from .geometry import ArrayGeometry, UserLocation
from .mac import RatePoint, RateRegion, sic_rates_two_user
from .stats import asymptotic_stats, gram_matrix

__all__ = [
    "BcConfig",
    "PowerAllocation",
    "CovariancePair",
    "bc_power_allocation_two_user",
    "bc_capacity_two_user",
    "bc_covariance_recovery",
    "bc_region_two_user",
    "linear_precoder_sum_rate",
    "bc_asymptotics",
]

@dataclass(frozen=True)
class BcConfig:
    """Total transmit power and per-user noise variances for a downlink.

    ``total_power_P`` is the sum-power budget in linear units, or an
    array of budgets. ``noise_var_per_user[k]`` is user k's receiver
    noise variance.
    """

    total_power_P: float
    noise_var_per_user: tuple[float, ...]

    def __post_init__(self) -> None:
        _checks.positive("total_power_P", self.total_power_P)
        if len(self.noise_var_per_user) == 0:
            raise ValueError("noise_var_per_user must not be empty")
        cleaned = tuple(
            _checks.positive(f"noise_var_per_user[{k}]", v)
            for k, v in enumerate(self.noise_var_per_user)
        )
        object.__setattr__(self, "noise_var_per_user", cleaned)

    @property
    def num_users(self) -> int:
        return len(self.noise_var_per_user)


@dataclass(frozen=True)
class PowerAllocation:
    """Nonnegative per-user powers under a sum budget.

    ``note`` carries solver metadata, such as the fallback applied when
    the channels are fully correlated.
    """

    p_per_user: tuple[float, ...]
    note: str = ""

    def __post_init__(self) -> None:
        powers = (
            _checks.checked(p, lambda v: np.isfinite(v) & (v >= -1e-12),
                            f"p_per_user[{k}] must be nonnegative")
            for k, p in enumerate(self.p_per_user)
        )
        object.__setattr__(
            self,
            "p_per_user",
            tuple(_checks.result(np.maximum(p, 0.0)) for p in powers),
        )

    @property
    def total(self) -> float:
        return sum(self.p_per_user)


@dataclass(frozen=True)
class CovariancePair:
    """Rank-one downlink transmit covariances for two users, in factor form.

    User k's covariance is Sigma_k = scale_k * beam_k beam_k^H, so it is
    Hermitian and positive semidefinite by construction and costs O(M)
    memory. ``sigma1`` and ``sigma2`` build the dense M x M matrices on
    demand, for inspection at small M.
    """

    scale1: float
    beam1: np.ndarray
    scale2: float
    beam2: np.ndarray

    def __post_init__(self) -> None:
        for k in (1, 2):
            scale = float(getattr(self, f"scale{k}"))
            if not math.isfinite(scale) or scale < 0.0:
                raise ValueError(f"scale{k} must be finite and nonnegative, got {scale}")
            beam = np.asarray(getattr(self, f"beam{k}"), dtype=np.complex128)
            if beam.ndim != 1 or not np.all(np.isfinite(beam)):
                raise ValueError(f"beam{k} must be a finite 1-D vector")
            object.__setattr__(self, f"scale{k}", scale)
            object.__setattr__(self, f"beam{k}", beam)
        if self.beam1.size != self.beam2.size:
            raise ValueError(
                f"beam sizes differ: {self.beam1.size} vs {self.beam2.size}"
            )

    @property
    def total_power(self) -> float:
        """trace(Sigma1) + trace(Sigma2)."""
        return self.scale1 * float(np.vdot(self.beam1, self.beam1).real) + (
            self.scale2 * float(np.vdot(self.beam2, self.beam2).real)
        )

    def quad(self, k: int, h: np.ndarray) -> float:
        """h^H Sigma_k h = scale_k |beam_k^H h|^2 for user k in {1, 2}."""
        if k not in (1, 2):
            raise ValueError(f"user index must be 1 or 2, got {k}")
        beam = self.beam1 if k == 1 else self.beam2
        scale = self.scale1 if k == 1 else self.scale2
        return scale * float(abs(np.vdot(beam, h))) ** 2

    @property
    def sigma1(self) -> np.ndarray:
        return self.scale1 * np.outer(self.beam1, self.beam1.conj())

    @property
    def sigma2(self) -> np.ndarray:
        return self.scale2 * np.outer(self.beam2, self.beam2.conj())


_BC_NOTES = (
    "",
    "both channels vanish",
    "user 2 channel vanishes",
    "user 1 channel vanishes",
    "fully correlated channels, single-user fallback",
)


def _bc_case_split(g1, g2, rho, cfg: BcConfig):
    """Resolve the two-user downlink's branches, element by element.

    Returns (p1, p2, det, case): the optimal dual-uplink power split,
    det = 2^C for the sum capacity C, and the index in _BC_NOTES of the
    fallback the split took. Every branch is evaluated on every element
    and each element takes the first whose condition holds.
    """
    g1 = _checks.nonneg("g1", g1)
    g2 = _checks.nonneg("g2", g2)
    rho = _checks.rho(rho)
    if cfg.num_users != 2:
        raise ValueError(
            f"two-user routine needs 2 noise variances, got {cfg.num_users}"
        )
    power = np.asarray(cfg.total_power_P)
    with np.errstate(all="ignore"):
        a = np.asarray(g1) / cfg.noise_var_per_user[0]
        b = np.asarray(g2) / cfg.noise_var_per_user[1]
        one_minus = 1.0 - rho
        # b - a before the sum: it is exact when a and b are within a
        # factor of two, where (x - a) + b would lose x to cancellation
        x = power * a * b * one_minus
        k1 = (x + (b - a)) / (2.0 * a * one_minus)
        k2 = (x + (a - b)) / (2.0 * b * one_minus)
        to1 = (power, 0.0, 1.0 + power * a)
        to2 = (0.0, power, 1.0 + power * b)
        inner = (k2 / a, k1 / b, 1.0 + k1 + k2 + k1 * k2 * one_minus)
    correlated = one_minus < 1e-9
    # (condition, (p1, p2, det), note), in the order the branches are tried
    branches = (
        ((a <= 0.0) & (b <= 0.0), (0.0, 0.0, 1.0), 1),
        (b <= 0.0, to1, 2),
        (a <= 0.0, to2, 3),
        (correlated & (a >= b), to1, 4),
        (correlated, to2, 4),
        (k1 <= 0.0, to1, 0),
        (k2 <= 0.0, to2, 0),
        (True, inner, 0),
    )
    taken = len(branches) - 1
    for k in reversed(range(taken)):
        taken = np.where(branches[k][0], k, taken)
    out = [np.choose(taken, [split[j] for _, split, _ in branches]) for j in range(3)]
    case = np.choose(taken, [note for *_, note in branches])
    return tuple(_checks.result(v) for v in (*out, case))


def bc_power_allocation_two_user(
    g1: float, g2: float, rho: float, cfg: BcConfig
) -> PowerAllocation:
    """Optimal dual-uplink power split for the two-user downlink.

    With a = g1/var1 and b = g2/var2, the split is governed by

        kappa1 = (P a b (1 - rho) - a + b) / (2 a (1 - rho))
        kappa2 = (P a b (1 - rho) + a - b) / (2 b (1 - rho))

    kappa1 <= 0 puts all power on user 1, kappa2 <= 0 all on user 2,
    and otherwise the split is (kappa2 / a, kappa1 / b), which always
    sums to P. Fully correlated channels (1 - rho below 1e-9) degenerate
    to a scalar channel; all power then goes to the user with the larger
    noise-weighted gain and the fallback is recorded in ``note``: one
    string, or an array of one per element.
    """
    p1, p2, _, case = _bc_case_split(g1, g2, rho, cfg)
    note = _BC_NOTES[case] if np.ndim(case) == 0 else np.array(_BC_NOTES)[case]
    return PowerAllocation((p1, p2), note=note)


def bc_capacity_two_user(g1: float, g2: float, rho: float, cfg: BcConfig) -> float:
    """Two-user downlink sum capacity in bits per channel use.

    Piecewise closed form matching the optimal power split: the
    boundary branches give single-user capacities log2(1 + P g_k /
    var_k), the interior branch gives

        C = log2(1 + kappa1 + kappa2 + kappa1 kappa2 (1 - rho)).
    """
    _, _, det, _ = _bc_case_split(g1, g2, rho, cfg)
    return _checks.log2(det)


def bc_covariance_recovery(
    h1: np.ndarray,
    h2: np.ndarray,
    alloc: PowerAllocation,
    cfg: BcConfig,
) -> CovariancePair:
    """Downlink covariances achieving the dual-uplink rates.

    Channels are noise-normalized first. With user 2 encoded without
    knowledge of user 1's signal,

        Lambda  = I - p2 hb2 hb2^H / (1 + p2 g2n)
        Sigma1  = p1 Lambda hb1 hb1^H Lambda / (hb1^H Lambda hb1)
        Sigma2  = p2 (1 + hb2^H Sigma1 hb2) / g2n * hb2 hb2^H

    where hb_k = h_k / sigma_k and g_kn = ||hb_k||^2. The pair is rank
    one each, uses exactly p1 + p2 total power, and reproduces the
    dual-uplink rate pair in which user 2 is decoded free of
    interference. Both covariances are returned as factors (beam
    Lambda hb1, resp. hb2, and a scale), so nothing of size M^2 is built.
    """
    if len(alloc.p_per_user) != 2 or cfg.num_users != 2:
        raise ValueError("covariance recovery is defined for exactly two users")
    v1, v2 = _checks.channel_vectors([h1, h2], ("h1", "h2"))
    p1, p2 = alloc.p_per_user
    if p1 <= 0.0 and p2 <= 0.0:
        return CovariancePair(0.0, v1, 0.0, v2)
    s1, s2 = cfg.noise_var_per_user
    hb1 = v1 / math.sqrt(s1)
    hb2 = v2 / math.sqrt(s2)
    gram = gram_matrix([hb1, hb2])
    g1n, g2n = float(gram[0, 0].real), float(gram[1, 1].real)
    if (p1 > 0.0 and g1n <= 0.0) or (p2 > 0.0 and g2n <= 0.0):
        raise ValueError("cannot allocate power to a zero channel")

    beam1 = hb1
    scale1 = 0.0
    if p1 > 0.0:
        if p2 > 0.0:
            beam1 = hb1 - hb2 * (p2 * gram[1, 0] / (1.0 + p2 * g2n))
        quad = float(np.vdot(hb1, beam1).real)
        if not quad > 0.0:
            raise ValueError(
                "user 1 keeps no signal once user 2's beam is projected out: "
                f"hb1^H Lambda hb1 = {quad!r}"
            )
        scale1 = p1 / quad
    scale2 = 0.0
    if p2 > 0.0:
        seen = scale1 * abs(np.vdot(beam1, hb2)) ** 2
        scale2 = p2 * (1.0 + seen) / g2n
    return CovariancePair(scale1, beam1, scale2, hb2)


def bc_region_two_user(
    g1: float,
    g2: float,
    rho: float,
    cfg: BcConfig,
    power_splits: int = 101,
) -> RateRegion:
    """Downlink rate region sampled through the dual uplink.

    Sweeps p1 over a uniform grid with p2 = P - p1, collects both
    successive-decoding corner points of each dual uplink, and returns
    the convex hull of all sampled pairs walked from the r1 axis to the
    r2 axis. ``kind`` is "hull".
    """
    if power_splits < 2:
        raise ValueError(f"power_splits must be at least 2, got {power_splits}")
    if cfg.num_users != 2:
        raise ValueError("region construction needs exactly two noise variances")
    s1, s2 = cfg.noise_var_per_user
    power = cfg.total_power_P

    p1 = power * np.arange(power_splits) / (power_splits - 1)
    gamma1, gamma2 = p1 / s1, (power - p1) / s2
    a, b = (sic_rates_two_user(g1, g2, rho, gamma1, gamma2, order)
            for order in ("u1_first", "u2_first"))
    # both corners of each split in turn
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    for a1, a2, b1, b2 in zip(a.r1.tolist(), a.r2.tolist(), b.r1.tolist(), b.r2.tolist()):
        points += [(a1, a2), (b1, b2)]
    points.append((math.log2(1.0 + power * g1 / s1), 0.0))
    points.append((0.0, math.log2(1.0 + power * g2 / s2)))

    hull = _upper_right_hull(points)
    vertices = [RatePoint(0.0, 0.0)]
    vertices.extend(RatePoint(x, y) for x, y in hull)
    if vertices[-1].r1 > 1e-15:
        vertices.append(RatePoint(0.0, vertices[-1].r2))
    return RateRegion(tuple(vertices), "hull")


def _upper_right_hull(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Pareto-dominant convex boundary, walked from the r1 axis upward.

    Returns hull vertices ordered by decreasing first coordinate,
    starting at (max r1, 0) and ending at the point with the largest r2.
    Collinear and dominated points are dropped.
    """
    best_x = max(p[0] for p in points)
    best_y = max(p[1] for p in points)
    pool = list(points) + [(best_x, 0.0), (0.0, best_y)]
    # Upper convex hull in left-to-right order via the monotone chain.
    pool.sort(key=lambda p: (p[0], p[1]))
    upper: list[tuple[float, float]] = []
    for p in pool:
        while len(upper) >= 2:
            (x0, y0), (x1, y1) = upper[-2], upper[-1]
            cross = (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0)
            if cross >= -1e-15:
                upper.pop()
            else:
                break
        if upper and abs(p[0] - upper[-1][0]) <= 1e-15 and abs(p[1] - upper[-1][1]) <= 1e-15:
            continue
        upper.append(p)
    # The monotone chain keeps the lower-left start; trim any leading
    # points dominated by the first true boundary vertex.
    while len(upper) >= 2 and upper[0][1] <= upper[1][1] and upper[0][0] <= upper[1][0]:
        upper.pop(0)
    upper.reverse()
    if upper and upper[0][1] > 1e-15:
        upper.insert(0, (upper[0][0], 0.0))
    return upper


def linear_precoder_sum_rate(
    scheme: str,
    g1: float,
    g2: float,
    rho: float,
    per_user_snr_hat: Sequence[float],
) -> float:
    """Achievable downlink sum rate with linear transmit precoding.

    Under matched ("mrt") or zero-forcing ("zf") beams and per-user
    transmit SNRs gamma_hat_k, each user's rate is
    log2(1 + gamma_hat_k g_k (1 - f)) where the loss f evaluates at
    x = gamma_hat_other * g_k (own gain, other user's power) and z = rho:

        "mrt": f = x z / (1 + x z)
        "zf":  f = z

    Both schemes meet the interference-free sum at rho = 0, and zero
    forcing collapses to zero rate at rho = 1.
    """
    key = scheme.lower()
    if key not in ("mrt", "zf"):
        raise ValueError(f"scheme must be 'mrt' or 'zf', got {scheme!r}")
    g1 = _checks.nonneg("g1", g1)
    g2 = _checks.nonneg("g2", g2)
    z = _checks.rho(rho)
    snrs = tuple(
        _checks.nonneg(f"per_user_snr_hat[{k}]", s)
        for k, s in enumerate(per_user_snr_hat)
    )
    if len(snrs) != 2:
        raise ValueError(f"per_user_snr_hat must have 2 entries, got {len(snrs)}")

    def loss(x):
        if key == "mrt":
            return x * z / (1.0 + x * z)
        return z

    total = 0.0
    with np.errstate(all="ignore"):
        for own_gain, own_snr, other_snr in ((g1, snrs[0], snrs[1]),
                                             (g2, snrs[1], snrs[0])):
            x = other_snr * own_gain
            total += _checks.log2(1.0 + own_snr * own_gain * (1.0 - loss(x)))
    return total


def bc_asymptotics(
    geom: ArrayGeometry, users: Sequence[UserLocation], cfg: BcConfig, model: str
) -> float:
    """Large-array downlink capacity of two users: the sum capacity at
    the :func:`nfcap.stats.asymptotic_stats` of ``model``.

    In the far field that is the capacity at the ``geom.m_total`` = M
    elements of ``geom``, which keeps growing like log M. With q = M P A
    / (4 pi) and beta_k = r_k^2 var_k / proj_k, the paper's high-SNR
    forms, log2(q / min_k beta_k) for users sharing one direction and
    log2((q + beta_1 + beta_2)^2 / (4 beta_1 beta_2) - 1) for distinct
    ones, are log2(2^C - 1) of this value C wherever water-filling keeps
    both users on; the second form does not hold where it switches one off.
    """
    if cfg.num_users != 2:
        raise ValueError("the large-array limit is defined for exactly two users")
    return bc_capacity_two_user(*asymptotic_stats(geom, users, model), cfg)
