"""Channel gains and correlation: exact, element sum, closed form, quadrature, FF.

Exact quantities come from the Gram matrix of explicit channel vectors
(:func:`gram_matrix`, G[i, j] = h_i^H h_j), the one place where inner
products of channels are taken outside the oracles, and serve as ground
truth. The closed forms trade the sums for integrals (gain) or a
Chebyshev-Gauss rule (CCF), which stay cheap at apertures where a vector
would not even fit in memory. The capacity sweeps run on the closed-form
gains. For the NF CCF they call :func:`nf_ccf_batch` once per array and
user 1, on one channel or many, user 2 at one range or at an array of
them: the exact element sum (no channel vector built) wherever the
array has no more elements than the T x T rule has nodes, and the
paper's rule (as :func:`nf_ccf_quadrature`) beyond that.
:func:`asymptotic_stats` gives the statistics at which each capacity
formula takes its large-array limit, for either field model.
"""

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import _checks, _kernels
from .geometry import ArrayGeometry, UserLocation, epsilon


class CcfEstimate(NamedTuple):
    "Computed CCF: clamped value plus the raw pre-clamp number."

    value: float
    raw: float


def gram_matrix(
    channels: Sequence[np.ndarray], names: Sequence[str] | None = None
) -> np.ndarray:
    """K x K Gram matrix G[i, j] = h_i^H h_j of K channels.

    The diagonal holds the gains ||h_k||^2, and |G[i, j]|^2 / (G[i, i]
    G[j, j]) is the squared correlation of users i and j. Each entry
    above the diagonal is one ``np.vdot`` and the entry below it its
    conjugate, so G is exactly Hermitian. ``names`` label the channels
    in error messages.
    """
    vecs = _checks.channel_vectors(channels, names)
    if not vecs:
        raise ValueError("channels must not be empty")
    gram = np.empty((len(vecs), len(vecs)), dtype=np.complex128)
    for i, vi in enumerate(vecs):
        gram[i, i] = np.vdot(vi, vi).real
        for j in range(i + 1, len(vecs)):
            gram[i, j] = np.vdot(vi, vecs[j])
            gram[j, i] = np.conj(gram[i, j])
    return gram


def gram_stats(gram: np.ndarray) -> tuple[float, float, float]:
    """Gains and squared correlation (g1, g2, rho) of the first two users
    of a Gram matrix: rho = (|G[0, 1]| / sqrt(g1) / sqrt(g2))^2 clamped
    to at most 1, and 0 when either gain vanishes.

    rho is not taken as |G[0, 1]|^2 / (g1 g2): FF gains fall as 1/r^2,
    and beyond about 1e77 m both products fall below the smallest
    normal double.
    """
    g1, g2 = float(gram[0, 0].real), float(gram[1, 1].real)
    if g1 <= 0.0 or g2 <= 0.0:
        return g1, g2, 0.0
    return g1, g2, min((float(abs(gram[0, 1])) / math.sqrt(g1) / math.sqrt(g2)) ** 2, 1.0)


def gain_exact(h) -> float:
    "Channel gain: squared Euclidean norm of the vector."
    return float(gram_matrix([h], ("h",))[0, 0].real)


def ccf_exact(h1, h2) -> float:
    """Channel correlation factor |h1^H h2|^2 / (|h1|^2 |h2|^2).

    0 for orthogonal channels, 1 for parallel ones.
    """
    g1, g2, rho = gram_stats(gram_matrix([h1, h2], ("h1", "h2")))
    if g1 <= 0 or g2 <= 0:
        raise ValueError("ccf undefined for zero-norm channel vectors")
    return rho


def nf_gain_closed(geom: ArrayGeometry, u: UserLocation) -> float:
    """Closed-form NF gain of a UPA, the four-corner arctangent sum.

    Approximates the element sum by its continuous integral; relative error
    decays with d/r and is far below a percent for arrays observed from a
    few meters. An array of ranges gives an array of gains, each the bits
    of its range alone: x and z, which move with the range, are squared
    as products, since ``**`` takes libm's ``pow`` on a float and a
    product on an array.
    """
    eps = epsilon(geom, u)
    psi = u.dir_y
    xs = (geom.m_x * eps / 2 + u.dir_x, geom.m_x * eps / 2 - u.dir_x)
    zs = (geom.m_z * eps / 2 + u.dir_z, geom.m_z * eps / 2 - u.dir_z)
    total = 0.0
    for x in xs:
        for z in zs:
            total += np.arctan(x * z / (psi * np.sqrt(psi**2 + x * x + z * z)))
    return geom.occupation_ratio / (4 * np.pi) * total


def ff_gain_closed(geom: ArrayGeometry, u: UserLocation) -> float:
    """FF gain M*A*Psi/(4*pi*r^2); exact for planar-wave vectors. An
    array of sizes or of ranges gives an array of gains."""
    return (geom.m_total * geom.element_area * u.dir_y
            / (4 * np.pi * _checks.square(u.range_r)))


def ula_gain_closed(geom: ArrayGeometry, u: UserLocation) -> float:
    """Closed-form NF gain of a vertical ULA (m_x = 1, elements along z),
    whose axis has the cosine c = dir_z to the user."""
    if geom.m_x != 1:
        raise ValueError(
            f"ULA closed form requires m_x = 1, got m_x = {geom.m_x}")
    m = geom.m_z
    eps = epsilon(geom, u)
    c = u.dir_z
    big_xi = ((m * eps - 2 * c) / np.sqrt(m**2 * eps**2 - 4 * m * eps * c + 4)
              + (m * eps + 2 * c) / np.sqrt(m**2 * eps**2 + 4 * m * eps * c + 4))
    return (geom.occupation_ratio * eps * u.dir_y * big_xi
            / (4 * np.pi * (1 - c**2)))


def asymptotic_nf_gain(xi: float) -> float:
    "Saturated NF gain xi/2 of an infinite UPA."
    if not 0 < xi <= 1:
        raise ValueError(f"occupation ratio must lie in (0, 1], got {xi}")
    return xi / 2


def asymptotic_ula_gain(geom: ArrayGeometry, u: UserLocation) -> float:
    """Large-M limit of ula_gain_closed (does not require m_x = 1); an
    array of ranges gives an array of gains."""
    eps = epsilon(geom, u)
    return (geom.occupation_ratio * eps * u.dir_y
            / (2 * np.pi * (1 - u.dir_z**2)))


def asymptotic_gains(geom: ArrayGeometry,
                     users: Sequence[UserLocation]) -> tuple[float, ...]:
    """Saturated NF gain of each user as the array grows without bound:
    the single-column limit when m_x = 1, else the planar xi/2.

    With these gains and zero correlation, since users decorrelate, a
    two-user capacity formula gives its large-array limit. An array of
    sizes gives each element the limit of its own size.
    """
    column = np.asarray(geom.m_x) == 1
    planar = asymptotic_nf_gain(geom.occupation_ratio)
    if not column.any():
        return (planar,) * len(users)
    return tuple(_checks.result(np.where(column, asymptotic_ula_gain(geom, u), planar))
                 for u in users)


def _same_direction(u1: UserLocation, u2: UserLocation) -> bool:
    return (
        abs(u1.azimuth_theta - u2.azimuth_theta) < 1e-15
        and abs(u1.elevation_phi - u2.elevation_phi) < 1e-15
    )


def asymptotic_stats(geom: ArrayGeometry, users: Sequence[UserLocation],
                     model: str) -> tuple[float, float, float]:
    """Gains and correlation (g1, g2, rho) of two users on a very large
    array, at which a two-user capacity formula gives its large-array
    limit.

    ``model`` "nf" (either case): the saturated gains of
    :func:`asymptotic_gains` with rho = 0, since users decorrelate. "ff":
    the FF gains keep growing with M, so they are taken at the
    ``geom.m_total`` elements of ``geom``, with rho = 1 when both users
    share one direction and 0 otherwise. An array of sizes or of ranges
    gives arrays of gains.
    """
    if len(users) != 2:
        raise ValueError("the large-array limit is defined for exactly two users")
    key = model.lower()
    if key == "nf":
        return (*asymptotic_gains(geom, users), 0.0)
    if key != "ff":
        raise ValueError(f"model must be 'nf' or 'ff', got {model!r}")
    u1, u2 = users
    rho = 1.0 if _same_direction(u1, u2) else 0.0
    return ff_gain_closed(geom, u1), ff_gain_closed(geom, u2), rho


def nf_ccf_quadrature(geom: ArrayGeometry, u1: UserLocation, u2: UserLocation,
                      nodes_T: int = 200) -> CcfEstimate:
    """Chebyshev-Gauss approximation of the NF CCF.

    The double element sum of the inner product is replaced by a T x T node
    rule over the aperture. The raw estimate can exceed 1 by the rule's own
    error (notably for co-located users); the clamped value is what the
    capacity formulas consume.
    """
    return nf_ccf_batch(geom, u1, (u2,), nodes_T)[0]


def nf_ccf_batch(geom: ArrayGeometry, u1: UserLocation,
                 seconds: Sequence[UserLocation],
                 nodes_T: int | None = None) -> list[CcfEstimate]:
    """NF CCF of user 1 with each user of ``seconds``, in one kernel pass,
    each estimate the same bits as a batch of its pair alone: the
    ``nodes_T`` x ``nodes_T`` rule (:func:`nf_ccf_quadrature`) or, with
    ``nodes_T`` None, the exact element sum. That sums the rule's
    integrand at the element offsets with unit weights, no vector built:
    its value is ``ccf_exact`` of the two ``nf_channel_vector``s, clamped
    to 1 where rounding puts co-located users a few ulps above it.

    A user of ``seconds`` whose ``range_r`` is an array stands for one
    channel per range, along its direction, in the order of the array.
    """
    if nodes_T is not None and nodes_T < 2:
        raise ValueError(f"nodes_T must be at least 2, got {nodes_T}")
    eps1 = epsilon(geom, u1)
    for u2 in seconds:
        epsilon(geom, u2)
    r1 = u1.range_r
    k0 = 2 * np.pi / geom.wavelength
    pairs = [(r1 / r2, r2, u2.dir_x, u2.dir_z)
             for u2 in seconds for r2 in np.ravel(u2.range_r).tolist()]
    if nodes_T is None:
        sums = _kernels.ccf_element_sums(geom.m_x, geom.m_z, eps1, r1, k0,
                                         u1.dir_x, u1.dir_z, pairs)
        raws = [float(abs(s) ** 2 / (n1 * n2)) for s, n1, n2 in sums]
    else:
        t = np.arange(1, nodes_T + 1)
        delta = np.cos((2 * t - 1) * np.pi / (2 * nodes_T))
        w = np.sqrt(1.0 - delta**2)
        x = geom.m_x * eps1 / 2 * delta
        z = geom.m_z * eps1 / 2 * delta
        sums = _kernels.ccf_quadrature_sums(x, z, w, r1, k0, u1.dir_x, u1.dir_z, pairs)
        f1 = _rule_factor(geom, u1, nodes_T)
        f2s = [f2 for u2 in seconds for f2 in np.ravel(_rule_factor(geom, u2, nodes_T)).tolist()]
        raws = [float(f1 * f2 * abs(s) ** 2) for f2, s in zip(f2s, sums)]
    return [CcfEstimate(value=min(max(raw, 0.0), 1.0), raw=raw) for raw in raws]


def _rule_factor(geom: ArrayGeometry, u: UserLocation, nodes_T: int):
    """One user's factor of the rule's CCF prefactor, by which |S|^2 is
    scaled; one per range of ``u``, each the bits of that range alone."""
    return (np.pi * geom.m_total * geom.element_area * u.dir_y
            / (16 * _checks.square(u.range_r) * nf_gain_closed(geom, u) * nodes_T**2))


def ff_ccf_closed(geom: ArrayGeometry, u1: UserLocation, u2: UserLocation) -> float:
    """Closed-form FF CCF: the product of the two per-axis Dirichlet ratios.

    Per axis the ratio is (1 - cos(m dphi)) / (1 - cos dphi) over m^2,
    with the limit value 1 when the direction-cosine offset on that axis
    vanishes. The product matches the exact FF inner product to rounding
    in every case, including users that share one direction cosine, and
    is exactly 1 when they share both. An array of sizes gives an array
    of correlations.
    """
    k0d = 2 * np.pi / geom.wavelength * geom.pitch_d
    dphi = k0d * (u1.dir_x - u2.dir_x)
    dome = k0d * (u1.dir_z - u2.dir_z)
    den_x = 1.0 - np.cos(dphi)
    den_z = 1.0 - np.cos(dome)
    ratio_x = geom.m_x**2 if abs(den_x) < 1e-12 else (1.0 - np.cos(geom.m_x * dphi)) / den_x
    ratio_z = geom.m_z**2 if abs(den_z) < 1e-12 else (1.0 - np.cos(geom.m_z * dome)) / den_z
    return _checks.result(ratio_x * ratio_z / geom.m_total**2)
