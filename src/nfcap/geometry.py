"""Array geometry, user locations, and exact channel vectors.

The array sits in the xz-plane, centered at the origin, with odd element
counts along both axes so the index sets are symmetric around the center
element. A user at range r and angles (theta, phi) sits at
r*(dir_x, dir_y, dir_z) with dir_x = sin(phi)cos(theta),
dir_y = sin(phi)sin(theta), dir_z = cos(phi); both angles live in the open
interval (0, pi), which keeps the user strictly in front of the array.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import _checks, _kernels

SPEED_OF_LIGHT = 299792458.0
"Speed of light in m/s (exact SI value)."


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar (or linear) array in the xz-plane.

    m_x, m_z
        Odd element counts along x and z. The closed-form statistics of
        ``nfcap.stats`` also take a float array of them, one size per
        sweep point; they are exact while m_x * m_z < 2^53.
    pitch_d
        Center-to-center element spacing in meters, shared by both axes.
    element_side
        Side length sqrt(A) of the square element in meters. None, the
        default, sets wavelength/sqrt(4*pi), which makes the occupation
        ratio exactly 1/pi at half-wavelength pitch.
    wavelength
        Carrier wavelength in meters.
    """

    m_x: int
    m_z: int
    pitch_d: float
    wavelength: float
    element_side: float | None = None

    def __post_init__(self) -> None:
        for name, m in (("m_x", self.m_x), ("m_z", self.m_z)):
            if np.ndim(m) > 0:
                _checks.checked(m, lambda v: (v >= 1) & (v % 2 == 1),
                                f"{name} must hold odd positive integers")
                continue
            if not isinstance(m, (int, np.integer)) or m < 1:
                raise ValueError(f"{name} must be a positive integer, got {m!r}")
            if m % 2 == 0:
                raise ValueError(
                    f"{name} must be odd (symmetric index set), got {m}")
        _checks.positive("pitch_d", self.pitch_d)
        _checks.positive("wavelength", self.wavelength)
        if self.element_side is None:
            object.__setattr__(self, "element_side",
                               self.wavelength / math.sqrt(4 * math.pi))
        _checks.positive("element_side", self.element_side)
        if self.pitch_d < self.element_side:
            raise ValueError(
                f"elements overlap: pitch {self.pitch_d} m < element side "
                f"{self.element_side} m")

    @classmethod
    def from_frequency(cls, m_x: int, m_z: int, frequency_hz: float,
                       pitch_d: float | None = None,
                       element_side: float | None = None) -> "ArrayGeometry":
        "Build from carrier frequency; pitch defaults to half a wavelength."
        _checks.positive("frequency_hz", frequency_hz)
        lam = SPEED_OF_LIGHT / frequency_hz
        return cls(m_x=m_x, m_z=m_z,
                   pitch_d=lam / 2 if pitch_d is None else pitch_d,
                   wavelength=lam, element_side=element_side)

    @property
    def m_total(self) -> int:
        "Total element count M."
        return self.m_x * self.m_z

    @property
    def element_area(self) -> float:
        "Element aperture A in m^2."
        return self.element_side**2

    @property
    def occupation_ratio(self) -> float:
        "A/d^2, the fraction of the aperture plate occupied by elements."
        return (self.element_side / self.pitch_d) ** 2


@dataclass(frozen=True)
class UserLocation:
    """Single-antenna user position in range/angle form.

    ``range_r`` may be an array of ranges along one direction, one per
    sweep point, which the closed-form statistics of ``nfcap.stats``
    take.

    Direction cosines are cached at construction: dir_x along the array's
    x axis, dir_y boresight, dir_z along the z axis.
    """

    range_r: float
    azimuth_theta: float
    elevation_phi: float
    dir_x: float = field(init=False)
    dir_y: float = field(init=False)
    dir_z: float = field(init=False)

    def __post_init__(self) -> None:
        _checks.positive("range_r", self.range_r)
        for name, ang in (("azimuth_theta", self.azimuth_theta),
                          ("elevation_phi", self.elevation_phi)):
            if not 0.0 < ang < np.pi:
                raise ValueError(
                    f"{name} must lie in the open interval (0, pi), got {ang}")
        sp = np.sin(self.elevation_phi)
        object.__setattr__(self, "dir_x", sp * np.cos(self.azimuth_theta))
        object.__setattr__(self, "dir_y", sp * np.sin(self.azimuth_theta))
        object.__setattr__(self, "dir_z", np.cos(self.elevation_phi))
        if self.dir_y <= 1e-9:
            raise ValueError(
                "user lies in (or too close to) the array plane: "
                f"sin(phi)*sin(theta) = {self.dir_y:.3e} <= 1e-9")
        unit = self.dir_x**2 + self.dir_y**2 + self.dir_z**2
        if abs(unit - 1.0) > 1e-12:
            raise ValueError(f"direction cosines not unit length: {unit!r}")


def epsilon(geom: ArrayGeometry, u: UserLocation) -> float:
    """Pitch-to-range ratio d/r, one per range of ``u``; rejects users
    closer than one pitch."""
    eps = geom.pitch_d / u.range_r
    near = np.asarray(eps >= 1.0)
    if near.any():
        r, e = (u.range_r, eps) if near.ndim == 0 else _checks.first(near, u.range_r, eps)
        raise ValueError(
            f"user range {r} m is below the array pitch "
            f"{geom.pitch_d} m (d/r = {e:.3g} >= 1)")
    return eps


def _all_distances(geom: ArrayGeometry, u: UserLocation) -> NDArray[np.float64]:
    eps = epsilon(geom, u)
    return _kernels.element_distances(geom.m_x, geom.m_z, u.range_r, eps,
                                      u.dir_x, u.dir_z)


def nf_channel_vector(geom: ArrayGeometry, u: UserLocation) -> NDArray[np.complex128]:
    """Spherical-wave channel: per-element distance in amplitude and phase.

    Entry (mx, mz) is sqrt(A*r*dir_y/(4*pi*d_mx,mz^3)) * exp(-j*2*pi*d/lambda),
    the projected-aperture free-space coefficient. Entries are flattened
    row-major with the z index fastest: entry i belongs to offsets
    (ix, iz) = (i // m_z - (m_x-1)/2, i % m_z - (m_z-1)/2).
    """
    dists = _all_distances(geom, u)
    amp_num = geom.element_area * u.range_r * u.dir_y / (4 * np.pi)
    return _kernels.nf_entries(dists, amp_num, geom.wavelength)


def ff_channel_vector(geom: ArrayGeometry, u: UserLocation) -> NDArray[np.complex128]:
    """Planar-wave channel: index-free magnitude, linear phase ramp, same layout.

    Entry (ix, iz) has phase 2*pi/lambda * d * (ix*dir_x + iz*dir_z). The
    common phase -2*pi*r/lambda of the range is left out: it cancels in
    every inner product, and at far ranges rounding it would swamp the ramp.
    """
    epsilon(geom, u)
    ix = np.arange(geom.m_x) - (geom.m_x - 1) // 2
    iz = np.arange(geom.m_z) - (geom.m_z - 1) // 2
    X, Z = np.meshgrid(ix, iz, indexing="ij")
    amp = np.sqrt(geom.element_area * u.dir_y / (4 * np.pi * u.range_r**2))
    phase = 2 * np.pi / geom.wavelength * geom.pitch_d * (X * u.dir_x + Z * u.dir_z)
    return (amp * np.exp(1j * phase)).ravel()


def green_amplitude_ratio(distance: float, wavelength: float) -> float:
    """Relative amplitude of the full free-space field versus its 1/r term.

    1 - 1/(k0 rho)^2 + 1/(k0 rho)^4 with k0 = 2*pi/wavelength; approaching 1
    from below beyond a few wavelengths, which justifies keeping only the
    radiating term.
    """
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    kr = 2 * np.pi / wavelength * distance
    return 1.0 - 1.0 / kr**2 + 1.0 / kr**4
