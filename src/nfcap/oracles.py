"""Brute-force reference computations for cross-checking closed forms.

Everything here recomputes a quantity from first principles: uplink
log-determinants from the channel vectors themselves, an exhaustive grid
over power splits, the multicast capacity as the minimum of its convex
dual over one real variable, and gains and correlation from every
element's entry, each one numpy evaluation of this module's own
distance law over the array's index grid. A log-determinant
log2 det(I_M + C C^H), with C the M x K matrix of columns
sqrt(snr_k) h_k, is evaluated through Sylvester's identity
det(I_M + C C^H) = det(I_K + C^H C) as the squared diagonal of the R
factor of the stacked (K + M) x K matrix [I_K; C], one Householder QR;
C^H C is never formed. None of the capacity or channel formula
modules are imported; the only imports from the package are plain data
containers and the shared input checks, so a bug in a closed form cannot
leak into its own check.

The routines are written for clarity, not speed. An element oracle costs
about 0.2 ms per user at 65 x 65 elements and tens of milliseconds at
551 x 551.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _checks
from .broadcast import BcConfig, PowerAllocation
from .geometry import ArrayGeometry, UserLocation

__all__ = [
    "logdet_capacity_oracle",
    "sic_rates_oracle",
    "bc_power_grid_oracle",
    "mc_beam_grid_oracle",
    "gain_sum_oracle",
    "ccf_sum_oracle",
    "pair_sum_oracle",
]

_LOG2 = math.log(2.0)
# Points per scan of the multicast dual, and rescans after the first;
# each narrows the bracket by 2/63, twelve to below a double's spacing.
_MC_DUAL_POINTS = 64
_MC_DUAL_ROUNDS = 12


def logdet_capacity_oracle(
    channels: Sequence[np.ndarray],
    snrs: Sequence[float],
) -> float:
    """Sum capacity log2 det(I_M + sum_k snr_k h_k h_k^H), by one QR.

    With C the M x K matrix of columns sqrt(snr_k) h_k, Sylvester's
    identity gives det(I_M + C C^H) = det(I_K + C^H C) = det(R^H R) for
    R the K x K factor of the Householder QR of [I_K; C], so the
    capacity is 2 sum_i ln |R_ii| / ln 2. The QR holds (M + K) K entries
    and never forms C^H C or C C^H, and nothing here is shared with the
    formula path (no ``gram_matrix``, no ``gram_stats``).
    """
    if len(channels) != len(snrs):
        raise ValueError("channels and snrs must have equal length")
    for k, snr in enumerate(snrs):
        _checks.nonneg(f"snrs[{k}]", snr)
    vecs = _checks.channel_vectors(channels)
    if not vecs:
        return 0.0
    cols = np.stack([math.sqrt(snr) * vec for vec, snr in zip(vecs, snrs)], axis=1)
    r = np.linalg.qr(np.vstack([np.eye(len(vecs)), cols]), mode="r")
    return 2.0 * float(np.sum(np.log(np.abs(r.diagonal())))) / _LOG2


def sic_rates_oracle(
    channels: Sequence[np.ndarray],
    snrs: Sequence[float],
    order: Sequence[int],
) -> tuple[float, ...]:
    """Successive-decoding rates from log-determinant differences.

    ``order[0]`` is decoded first against all later users as
    interference. User ``order[i]``'s rate is the capacity of the
    not-yet-decoded set starting at i minus the capacity of the set
    starting at i + 1. Each of these K suffix capacities is evaluated
    once by :func:`logdet_capacity_oracle`; the empty set has capacity 0.
    """
    k = len(channels)
    if len(snrs) != k:
        raise ValueError(f"got {len(snrs)} snrs for {k} channels")
    if sorted(order) != list(range(k)):
        raise ValueError(f"order must be a permutation of 0..{k - 1}")
    seq = list(order)
    caps = [
        logdet_capacity_oracle(
            [channels[j] for j in seq[i:]], [snrs[j] for j in seq[i:]]
        )
        for i in range(k)
    ]
    caps.append(0.0)
    rates = [0.0] * k
    for i, user in enumerate(seq):
        rates[user] = caps[i] - caps[i + 1]
    return tuple(rates)


def bc_power_grid_oracle(
    g1: float,
    g2: float,
    rho: float,
    cfg: BcConfig,
    points: int = 100_000,
) -> tuple[float, PowerAllocation]:
    """Exhaustive dual-uplink power search for the two-user downlink.

    Scans p1 over a uniform grid of ``points`` values in [0, P] with
    p2 = P - p1 and returns the best objective

        log2(1 + p1 a + p2 b + p1 p2 a b (1 - rho)),

    a = g1/var1, b = g2/var2, together with the winning split.
    """
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
    if cfg.num_users != 2:
        raise ValueError("grid oracle needs exactly two noise variances")
    g1 = _checks.nonneg("g1", g1)
    g2 = _checks.nonneg("g2", g2)
    rho = _checks.rho(rho)
    power = cfg.total_power_P
    a = g1 / cfg.noise_var_per_user[0]
    b = g2 / cfg.noise_var_per_user[1]
    p1 = np.linspace(0.0, power, points)
    p2 = power - p1
    objective = np.log2(1.0 + p1 * a + p2 * b + p1 * p2 * a * b * (1.0 - rho))
    idx = int(np.argmax(objective))
    split = (float(p1[idx]), float(p2[idx]))
    return float(objective[idx]), PowerAllocation(split)


def mc_beam_grid_oracle(
    h1: np.ndarray,
    h2: np.ndarray,
    noise_vars: Sequence[float],
    P: float,
) -> float:
    """Two-user multicast capacity log2(1 + P min f) from its exact dual.

    For each lam in [0, 1], f(lam), the larger eigenvalue of
    lam hb1 hb1^H + (1 - lam) hb2 hb2^H with hb_k the noise-normalized
    channels, bounds max over unit w of min_k |hb_k^H w|^2 from above;
    the joint numerical range of two Hermitian forms is convex, so the
    least f equals it. With g_k = |hb_k|^2, c = |hb1^H hb2|^2, x = lam g1
    and y = (1 - lam) g2, the form

        f(lam) = (x + y + sqrt((x - y)^2 + 4 lam (1 - lam) c)) / 2

    does not cancel where x = y. f is convex, so a scan of [0, 1] and
    rescans of the two cells around each best point bracket its
    minimiser. log1p keeps the precision of rates far below one bit.
    """
    if len(noise_vars) != 2:
        raise ValueError("mc grid oracle needs exactly two noise variances")
    var1, var2 = (
        _checks.positive(f"noise_vars[{k}]", v) for k, v in enumerate(noise_vars)
    )
    _checks.nonneg("P", P)
    v1, v2 = _checks.channel_vectors([h1, h2], ("h1", "h2"))
    hb1, hb2 = v1 / math.sqrt(var1), v2 / math.sqrt(var2)
    g1, g2 = (float(np.vdot(hb, hb).real) for hb in (hb1, hb2))
    if g1 <= 0.0 or g2 <= 0.0:
        raise ValueError("both channels must be nonzero")
    c = abs(complex(np.vdot(hb1, hb2))) ** 2
    lo, hi, best = 0.0, 1.0, math.inf
    for _ in range(_MC_DUAL_ROUNDS + 1):
        lam = np.linspace(lo, hi, _MC_DUAL_POINTS)
        x, y = lam * g1, (1.0 - lam) * g2
        f = (x + y + np.sqrt((x - y) ** 2 + 4.0 * lam * (1.0 - lam) * c)) / 2.0
        i = int(np.argmin(f))
        best = min(best, float(f[i]))
        lo, hi = lam[max(i - 1, 0)], lam[min(i + 1, _MC_DUAL_POINTS - 1)]
    return math.log1p(P * best) / _LOG2


def _element_sum(
    geom: ArrayGeometry, user: UserLocation, model: str = "nf"
) -> tuple[np.ndarray, float]:
    """Channel entries over the (m_x, m_z) index grid, and their squared
    norm, in one numpy evaluation from this module's own distance law.

    ``model`` picks the propagation law: "nf" uses the exact per-element
    distance in both amplitude and phase, "ff" uses a common amplitude
    with the first-order phase ramp across the aperture. The FF entries
    leave out the common phase of the range r, which cancels in the
    correlation and which the gain does not read: added to the ramp, it
    would round the ramp away at ranges far beyond the aperture.
    """
    if model not in ("nf", "ff"):
        raise ValueError(f"model must be 'nf' or 'ff', got {model!r}")
    r = user.range_r
    eps = geom.pitch_d / r
    if eps >= 1.0:
        raise ValueError("user range must exceed the element pitch")
    area = geom.element_area
    half_x = (geom.m_x - 1) // 2
    half_z = (geom.m_z - 1) // 2
    ix = np.arange(-half_x, half_x + 1.0)[:, None]
    iz = np.arange(-half_z, half_z + 1.0)[None, :]
    if model == "nf":
        quad = (
            (ix * ix + iz * iz) * eps * eps
            - 2.0 * ix * eps * user.dir_x
            - 2.0 * iz * eps * user.dir_z
            + 1.0
        )
        path = r * np.sqrt(quad)
        amp = np.sqrt(area * r * user.dir_y / (4.0 * math.pi * path**3))
    else:
        path = -(ix * user.dir_x + iz * user.dir_z) * geom.pitch_d
        amp = np.full(path.shape, math.sqrt(area * user.dir_y / (4.0 * math.pi * r * r)))
    # the phase in real arithmetic: numpy divides a complex array by a
    # float as by a complex number, and rounds a quarter of the quotients
    # differently from the real division
    phase = -2.0 * math.pi * path / geom.wavelength
    entries = amp * np.exp(1j * phase)
    return entries, float(np.sum(amp * amp))


def gain_sum_oracle(
    geom: ArrayGeometry, user: UserLocation, model: str = "nf"
) -> float:
    """Channel gain, the sum of the squared entry magnitudes over the array."""
    _, norm_sq = _element_sum(geom, user, model)
    return norm_sq


def ccf_sum_oracle(
    geom: ArrayGeometry, u1: UserLocation, u2: UserLocation, model: str = "nf"
) -> float:
    """Squared correlation of two users' channels, from explicit
    per-element sums: |sum conj(h1_i) h2_i|^2 / (sum |h1_i|^2 sum |h2_i|^2).
    """
    return pair_sum_oracle(geom, u1, u2, model)[2]


def pair_sum_oracle(
    geom: ArrayGeometry, u1: UserLocation, u2: UserLocation, model: str = "nf"
) -> tuple[float, float, float]:
    """Both gains and the squared correlation (g1, g2, rho) of two users'
    channels, from one element evaluation per user: the values that
    :func:`gain_sum_oracle` and :func:`ccf_sum_oracle` give.
    """
    e1, n1 = _element_sum(geom, u1, model)
    e2, n2 = _element_sum(geom, u2, model)
    return n1, n2, abs(complex(np.vdot(e1, e2))) ** 2 / (n1 * n2)
