"""Multicast capacity: a single data stream beamformed to every user at
once, so the rate is set by the weakest link.

For two users the optimal beamformer and the capacity have closed
forms with a three-way case split: when one user is weak enough the
beam points straight at that user, otherwise the beam balances both
users inside their channel span. Routines here also cover min-rate
evaluation for arbitrary beamformers, the K-user capacity upper bound,
and the large-array limit: the two-user capacity at the limit
statistics of :func:`nfcap.stats.asymptotic_stats`, for either field
model.

Noise arguments are variances throughout, written sigma1, sigma2 with
the squared symbol dropped from the names. The capacity and the bound
take each gain, the correlation and the power as a float or a numpy
array: arrays broadcast and give one value per element, the bits the
same floats would give, and a call on floats alone returns floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _checks
from .geometry import ArrayGeometry, UserLocation
from .broadcast import BcConfig
from .stats import asymptotic_stats, gram_matrix, gram_stats

__all__ = [
    "Beamformer",
    "mc_rate_given_beamformer",
    "mc_beamformer_two_user",
    "mc_capacity_two_user",
    "mc_upper_bound",
    "mc_asymptotics",
]


@dataclass(frozen=True)
class Beamformer:
    """Unit-norm complex beamforming vector."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.weights, dtype=np.complex128).ravel()
        if arr.size == 0:
            raise ValueError("weights must not be empty")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"beamformer norm must be 1 within 1e-12, got {norm!r}")
        object.__setattr__(self, "weights", arr)

    def __len__(self) -> int:
        return int(self.weights.size)


def mc_rate_given_beamformer(
    w: Beamformer,
    channels: Sequence[np.ndarray],
    noise_vars: Sequence[float],
    P: float,
) -> float:
    """Multicast rate of a fixed unit-norm beam: the common stream must
    be decodable by every user, so

        R = log2(1 + P * min_k |h_k^H w|^2 / var_k).
    """
    _checks.nonneg("P", P)
    if len(channels) == 0 or len(channels) != len(noise_vars):
        raise ValueError("channels and noise_vars must be equal-length and nonempty")
    weights = w.weights
    worst = math.inf
    vecs = _checks.channel_vectors(channels)
    for k, (vec, var) in enumerate(zip(vecs, noise_vars)):
        if vec.size != weights.size:
            raise ValueError(
                f"channels[{k}] has {vec.size} entries, beamformer has {weights.size}"
            )
        var = _checks.positive(f"noise_vars[{k}]", var)
        worst = min(worst, abs(np.vdot(vec, weights)) ** 2 / var)
    return math.log2(1.0 + P * worst)


def _mc_case_split(g1, g2, rho, var1, var2):
    """Resolve the three-branch optimum, element by element.

    Returns (branch, eta, mu1, mu2) where branch 1 or 2 means a pure
    matched beam to that user and branch 3 the balanced interior
    solution with effective gain eta = g1 g2 (1 - rho) / chi. Every
    branch is evaluated on every element and each element takes the
    first whose condition holds.
    """
    with np.errstate(all="ignore"):
        a = np.asarray(g1) / var1
        b = np.asarray(g2) / var2
        s1 = np.sqrt(var1)
        s2 = np.sqrt(var2)
        root = s1 * s2 * np.sqrt(g1 * g2 * rho)
        # chi's second form (mc_capacity_two_user); sqrt(g1) sqrt(g2)
        # stays normal where g1 g2 underflows
        r1, r2 = np.sqrt(g1), np.sqrt(g2)
        gap = s2 * r1 - s1 * r2
        chi = gap * gap + 2.0 * s1 * s2 * r1 * r2 * (1.0 - rho) / (1.0 + np.sqrt(rho))
        eta = g1 * g2 * (1.0 - rho) / chi
        mu1 = (var1 * g2 - root) / chi
        mu2 = (var2 * g1 - root) / chi
        first, second = a <= rho * b, b <= rho * a

    def branch(one, two, three):
        return _checks.result(np.where(first, one, np.where(second, two, three)))

    return branch(1, 2, 3), branch(a, b, eta), branch(1.0, 0.0, mu1), branch(0.0, 1.0, mu2)


def mc_beamformer_two_user(
    h1: np.ndarray,
    h2: np.ndarray,
    sigma1: float,
    sigma2: float,
) -> Beamformer:
    """Capacity-achieving multicast beam for two users.

    When one noise-weighted gain is dominated (g1/var1 <= rho g2/var2
    or the mirror), the beam is the matched filter of the dominated
    user. Otherwise the optimum lies in span{h1, h2}:

        w = (mu1 / (s1 sqrt(eta))) h1 + (mu2 / (s2 sqrt(eta))) e^{-j angle(h1^H h2)} h2

    with s_k the noise standard deviations, weights mu1 + mu2 = 1, and
    eta chosen so that both users see the same rate and the norm is 1.
    """
    var1 = _checks.positive("sigma1", sigma1)
    var2 = _checks.positive("sigma2", sigma2)
    v1, v2 = _checks.channel_vectors([h1, h2], ("h1", "h2"))
    gram = gram_matrix([v1, v2])
    g1, g2, rho = gram_stats(gram)
    if g1 <= 0.0 or g2 <= 0.0:
        raise ValueError("both channels must be nonzero")
    branch, eta, mu1, mu2 = _mc_case_split(g1, g2, rho, var1, var2)
    if branch == 1:
        weights = v1 / math.sqrt(g1)
    elif branch == 2:
        weights = v2 / math.sqrt(g2)
    else:
        phase = np.exp(-1j * np.angle(gram[0, 1]))
        s1 = math.sqrt(var1)
        s2 = math.sqrt(var2)
        scale = math.sqrt(eta)
        weights = (mu1 / (s1 * scale)) * v1 + (mu2 / (s2 * scale)) * phase * v2
        weights = weights / np.linalg.norm(weights)
    return Beamformer(weights)


def mc_capacity_two_user(
    g1: float, g2: float, rho: float, sigma1: float, sigma2: float, P: float
) -> float:
    """Two-user multicast capacity in bits per channel use.

    The three branches mirror the beamformer cases: a dominated user
    pins the rate at its own matched-filter capacity, otherwise

        C = log2(1 + P g1 g2 (1 - rho) / chi),
        chi = var2 g1 + var1 g2 - 2 s1 s2 sqrt(g1 g2 rho)
            = (s2 sqrt(g1) - s1 sqrt(g2))^2
              + 2 s1 s2 sqrt(g1 g2) (1 - rho) / (1 + sqrt(rho)),

    the second form being the one evaluated: the first cancels as rho
    approaches 1 with g1 / var1 close to g2 / var2.
    """
    g1 = _checks.nonneg("g1", g1)
    g2 = _checks.nonneg("g2", g2)
    rho = _checks.rho(rho)
    _checks.nonneg("P", P)
    var1 = _checks.positive("sigma1", sigma1)
    var2 = _checks.positive("sigma2", sigma2)
    _, eta, _, _ = _mc_case_split(g1, g2, rho, var1, var2)
    with np.errstate(all="ignore"):
        cap = _checks.log2(1.0 + P * eta)
    return _checks.result(np.where((g1 <= 0.0) | (g2 <= 0.0), 0.0, cap))


def mc_upper_bound(
    gains: Sequence[float], noise_vars: Sequence[float], P: float
) -> float:
    """Capacity upper bound for K-user multicast.

    Averaging the K single-user mutual informations bounds the common
    rate: C <= log2(1 + (P / K) sum_k g_k / var_k).
    """
    if len(gains) == 0 or len(gains) != len(noise_vars):
        raise ValueError("gains and noise_vars must be equal-length and nonempty")
    _checks.nonneg("P", P)
    total = 0.0
    with np.errstate(all="ignore"):
        for k, (g, var) in enumerate(zip(gains, noise_vars)):
            total += (_checks.nonneg(f"gains[{k}]", g)
                      / _checks.positive(f"noise_vars[{k}]", var))
        return _checks.log2(1.0 + P * total / len(gains))


def mc_asymptotics(
    geom: ArrayGeometry, users: Sequence[UserLocation], cfg: BcConfig, model: str
) -> float:
    """Large-array multicast capacity of two users: the capacity at the
    :func:`nfcap.stats.asymptotic_stats` of ``model``.

    In the far field that is the capacity at the ``geom.m_total`` = M
    elements of ``geom``, which keeps growing like log M. With q = M P A
    / (4 pi) and beta_k = r_k^2 var_k / proj_k, the paper's high-SNR
    forms, log2(q / max_k beta_k) for users sharing one direction and
    log2(q / (beta_1 + beta_2)) for distinct ones, are log2(2^C - 1) of
    this value C.
    """
    if cfg.num_users != 2:
        raise ValueError("the large-array limit is defined for exactly two users")
    (var1, var2), power = cfg.noise_var_per_user, cfg.total_power_P
    return mc_capacity_two_user(*asymptotic_stats(geom, users, model),
                                var1, var2, power)
