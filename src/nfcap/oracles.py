"""Brute-force reference computations for cross-checking closed forms.

Everything here recomputes a quantity from first principles: dense
log-determinants over the full antenna dimension, exhaustive grids over
power splits and beam coefficients, and per-element scalar loops for
gains and correlation. The log-determinants form every entry of the
lower triangle of the M x M matrix, in block columns, and factor all M
columns by a blocked Cholesky that overwrites them in place. The upper
triangle outside the diagonal blocks, which the factorisation never
reads, is not stored; there is no rank, Gram or determinant-lemma
shortcut. None of the capacity or channel formula modules are imported;
the only imports from the package are plain data containers, the shared
input checks and the grid-scan and log-determinant kernels, so a bug in
a closed form cannot leak into its own check.

These routines favor clarity over speed and may be orders of magnitude
slower than the formulas they validate.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from . import _checks, _kernels
from .broadcast import BcConfig, PowerAllocation
from .geometry import ArrayGeometry, UserLocation
from .multicast import Beamformer

__all__ = [
    "logdet_capacity_oracle",
    "sic_rates_oracle",
    "bc_power_grid_oracle",
    "bc_simplex_grid_oracle",
    "mc_beam_grid_oracle",
    "gain_sum_oracle",
    "ccf_sum_oracle",
]

_LOG2 = math.log(2.0)
_MAX_DENSE_DIM = 10_000


def logdet_capacity_oracle(
    channels: Sequence[np.ndarray],
    snrs: Sequence[float],
) -> float:
    """Sum capacity by dense log-determinant over the antenna dimension.

    Builds every entry of the lower triangle of I_M + sum_k snr_k
    h_k h_k^H, one block column at a time: with C the M x K matrix of
    columns sqrt(snr_k) h_k, block column j holds C[j:] C[j:j+B]^H plus
    1 on its diagonal, B = ``_kernels._CHOL_BLOCK_COLS``. It evaluates
    log2 det by an in-place blocked Cholesky factorization of all M
    columns. No user count, rank, Gram or determinant-lemma shortcut:
    this is the definition, evaluated literally. Only the upper triangle
    outside the diagonal blocks, which the factorization never reads,
    is not formed.
    """
    if len(channels) != len(snrs):
        raise ValueError("channels and snrs must have equal length")
    for k, snr in enumerate(snrs):
        _checks.nonneg(f"snrs[{k}]", snr)
    vecs = _checks.channel_vectors(channels)
    if not vecs:
        return 0.0
    size = vecs[0].size
    if size > _MAX_DENSE_DIM:
        raise ValueError(
            f"dense oracle limited to {_MAX_DENSE_DIM} antennas, got {size}"
        )
    cols = np.stack([math.sqrt(snr) * vec for vec, snr in zip(vecs, snrs)], axis=1)
    step = _kernels._CHOL_BLOCK_COLS
    blocks = []
    for j in range(0, size, step):
        top = cols[j:j + step]
        block = cols[j:] @ top.conj().T
        block[: len(top)].flat[:: len(top) + 1] += 1.0
        blocks.append(block)
    return _kernels.hpd_logdet(blocks) / _LOG2


def sic_rates_oracle(
    channels: Sequence[np.ndarray],
    snrs: Sequence[float],
    order: Sequence[int],
) -> tuple[float, ...]:
    """Successive-decoding rates from dense log-determinant differences.

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
    ] + [0.0]
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


def bc_simplex_grid_oracle(
    channels: Sequence[np.ndarray],
    cfg: BcConfig,
    steps: int = 200,
) -> tuple[float, PowerAllocation]:
    """Exhaustive simplex search for the three-user downlink.

    Walks p1 and p2 over the grid {0, P/steps, ..., P} with the
    remaining budget on p3, and scores every split with the dense
    log-determinant oracle on noise-normalized channels. p3 is built
    from the grid index rather than by subtraction so that roundoff
    can never push it negative.
    """
    if len(channels) != 3 or cfg.num_users != 3:
        raise ValueError("simplex oracle is written for exactly three users")
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    vecs = _checks.channel_vectors(channels)
    power = cfg.total_power_P
    noise = cfg.noise_var_per_user
    best = -math.inf
    best_split = (power, 0.0, 0.0)
    for i in range(steps + 1):
        p1 = power * i / steps
        for j in range(steps + 1 - i):
            p2 = power * j / steps
            p3 = power * (steps - i - j) / steps
            bits = logdet_capacity_oracle(
                vecs, [p1 / noise[0], p2 / noise[1], p3 / noise[2]]
            )
            if bits > best:
                best = bits
                best_split = (p1, p2, p3)
    return best, PowerAllocation(best_split)


def mc_beam_grid_oracle(
    h1: np.ndarray,
    h2: np.ndarray,
    noise_vars: Sequence[float],
    P: float,
    grid_spec: tuple[int, int, int] = (400, 400, 64),
) -> tuple[float, Beamformer]:
    """Best multicast rate over a dense beam grid in span{h1, h2}.

    A component orthogonal to both channels only wastes norm, so the
    search space is w = (a hb1 + b e^{j psi} hb2) / norm with hb_k the
    noise-normalized channels, a and b on [0, 1] grids and psi on a
    uniform phase grid; ``grid_spec`` gives the three grid sizes. The
    scan itself runs on Gram scalars, never on length-M vectors.
    """
    n_a, n_b, n_psi = grid_spec
    if n_a < 2 or n_b < 2 or n_psi < 1:
        raise ValueError(f"grid_spec too small: {grid_spec}")
    if len(noise_vars) != 2:
        raise ValueError("mc grid oracle needs exactly two noise variances")
    var1, var2 = (
        _checks.positive(f"noise_vars[{k}]", v) for k, v in enumerate(noise_vars)
    )
    _checks.nonneg("P", P)
    v1, v2 = _checks.channel_vectors([h1, h2], ("h1", "h2"))
    hb1 = v1 / math.sqrt(var1)
    hb2 = v2 / math.sqrt(var2)
    g1 = float(np.vdot(hb1, hb1).real)
    g2 = float(np.vdot(hb2, hb2).real)
    if g1 <= 0.0 or g2 <= 0.0:
        raise ValueError("both channels must be nonzero")
    ip = complex(np.vdot(hb1, hb2))
    best, a, b, psi = _kernels.mc_grid_best(g1, g2, ip, n_a, n_b, n_psi)
    raw = a * hb1 + b * np.exp(1j * psi) * hb2
    norm = float(np.linalg.norm(raw))
    if norm <= 0.0:
        raw = hb1
        norm = float(np.linalg.norm(raw))
    return math.log2(1.0 + P * best), Beamformer(raw / norm)


def _element_sum(
    geom: ArrayGeometry, user: UserLocation, model: str = "nf"
) -> tuple[list[complex], float]:
    """Per-element channel entries by plain scalar arithmetic.

    ``model`` picks the propagation law: "nf" uses the exact per-element
    distance in both amplitude and phase, "ff" uses a common amplitude
    with the first-order phase ramp across the aperture.
    """
    if model not in ("nf", "ff"):
        raise ValueError(f"model must be 'nf' or 'ff', got {model!r}")
    r = user.range_r
    eps = geom.pitch_d / r
    if eps >= 1.0:
        raise ValueError("user range must exceed the element pitch")
    area = geom.element_area
    lam = geom.wavelength
    entries: list[complex] = []
    norm_sq = 0.0
    half_x = (geom.m_x - 1) // 2
    half_z = (geom.m_z - 1) // 2
    amp_ff = math.sqrt(area * user.dir_y / (4.0 * math.pi * r * r))
    for ix in range(-half_x, half_x + 1):
        for iz in range(-half_z, half_z + 1):
            if model == "nf":
                quad = (
                    (ix * ix + iz * iz) * eps * eps
                    - 2.0 * ix * eps * user.dir_x
                    - 2.0 * iz * eps * user.dir_z
                    + 1.0
                )
                dist = r * math.sqrt(quad)
                amp = math.sqrt(
                    area * r * user.dir_y / (4.0 * math.pi * dist**3)
                )
                entry = amp * cmath.exp(-2j * math.pi * dist / lam)
            else:
                amp = amp_ff
                phase_len = r * (
                    1.0 - ix * eps * user.dir_x - iz * eps * user.dir_z
                )
                entry = amp * cmath.exp(-2j * math.pi * phase_len / lam)
            entries.append(entry)
            norm_sq += amp * amp
    return entries, norm_sq


def gain_sum_oracle(
    geom: ArrayGeometry, user: UserLocation, model: str = "nf"
) -> float:
    """Channel gain accumulated element by element with scalar math."""
    _, norm_sq = _element_sum(geom, user, model)
    return norm_sq


def ccf_sum_oracle(
    geom: ArrayGeometry, u1: UserLocation, u2: UserLocation, model: str = "nf"
) -> float:
    """Squared correlation of two users' channels, from explicit
    per-element sums: |sum conj(h1_i) h2_i|^2 / (sum |h1_i|^2 sum |h2_i|^2).
    """
    e1, n1 = _element_sum(geom, u1, model)
    e2, n2 = _element_sum(geom, u2, model)
    inner = complex(0.0)
    for a, b in zip(e1, e2):
        inner += a.conjugate() * b
    return abs(inner) ** 2 / (n1 * n2)
