"""Scenario files: a small INI dialect describing the array, the link
budget, the two user positions, and an optional parameter sweep.

Every key has a default chosen so that an empty file yields the
reference evaluation setup used across this package: a 65 x 65
half-wavelength array at 2.4 GHz, 30 dB per-user SNR and 30 dB total
downlink power over unit noise, user 1 at 10 m with angles
(pi/3, 2pi/3), and user 2 at 5 m pointing either along user 1 or at the
mirrored angles (2pi/3, pi/3).

Angles are radians, written either as plain numbers or as fractions of
pi ("pi/3", "2pi/3", "0.75pi"). Degree inputs are rejected outright so
that a stray degree value can never be silently misread as radians.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass

from . import _checks
from .broadcast import BcConfig
from .geometry import SPEED_OF_LIGHT, ArrayGeometry, UserLocation
from .mac import MacConfig

__all__ = [
    "ScenarioError",
    "SweepSpec",
    "Scenario",
    "parse_angle",
    "db_to_linear",
    "load_scenario",
    "default_scenario",
]

SWEEP_VARIABLES = ("m_per_axis", "r2_m", "snr_db", "power_db")
SWEEP_TARGETS = ("channel", "mac", "bc", "mc")

_SECTIONS = {
    "array": ("m_x", "m_z", "m_per_axis", "frequency_hz", "pitch_m", "element_side_m"),
    "link": (
        "model",
        "snr_db",
        "power_db",
        "noise_var1",
        "noise_var2",
        "quadrature_nodes",
    ),
    "user1": ("range_m", "azimuth", "elevation"),
    "user2": ("range_m", "azimuth", "elevation", "direction"),
    "sweep": ("variable", "values", "target"),
}

_PI_FORM = re.compile(r"^([+-])?\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)?\s*\*?\s*pi\s*(?:/\s*([+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?))?$")


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


def parse_angle(text: str) -> float:
    """Parse an angle given in radians or as a fraction of pi.

    Accepted forms: "1.047", "pi", "2pi", "pi/3", "2pi/3", "0.75pi",
    "3pi/4". Degrees are rejected.
    """
    raw = text.strip()
    low = raw.lower()
    if "deg" in low or "\N{DEGREE SIGN}" in raw:
        raise ValueError(
            f"angle {raw!r} looks like degrees; use radians or pi fractions"
        )
    if "pi" in low:
        match = _PI_FORM.match(low)
        if not match:
            raise ValueError(f"cannot parse angle {raw!r} as a pi fraction")
        sign = -1.0 if match.group(1) == "-" else 1.0
        coef = sign * (float(match.group(2)) if match.group(2) else 1.0)
        denom = float(match.group(3)) if match.group(3) else 1.0
        if denom == 0.0:
            raise ValueError(f"zero denominator in angle {raw!r}")
        return coef * math.pi / denom
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"cannot parse angle {raw!r}") from None


def db_to_linear(value_db: float) -> float:
    """The linear ratio 10^(value_db / 10).

    Raises ValueError above about 3082 dB, where the ratio overflows a
    float.
    """
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(
            f"{value_db!r} dB overflows a float (at most about 3082 dB)"
        ) from None


@dataclass(frozen=True)
class SweepSpec:
    """A swept variable and its grid, sorted ascending."""

    variable: str
    values: tuple[float, ...]
    target: str = "mac"

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ScenarioError(
                f"sweep variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if self.target not in SWEEP_TARGETS:
            raise ScenarioError(
                f"sweep target must be one of {SWEEP_TARGETS}, got {self.target!r}"
            )
        if len(self.values) == 0:
            raise ScenarioError("sweep values must not be empty")
        vals = tuple(sorted(float(v) for v in self.values))
        if self.variable == "m_per_axis":
            for v in vals:
                if (not math.isfinite(v) or v != int(v) or int(v) < 1
                        or int(v) % 2 == 0):
                    raise ScenarioError(
                        f"m_per_axis sweep values must be odd positive integers, got {v}"
                    )
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Scenario:
    """Fully resolved experiment description."""

    geometry: ArrayGeometry
    users: tuple[UserLocation, ...]
    channel_model: str
    mac_cfg: MacConfig
    bc_cfg: BcConfig
    quadrature_nodes: int
    sweep: SweepSpec | None = None

    def __post_init__(self) -> None:
        if len(self.users) == 0:
            raise ScenarioError("scenario needs at least one user")
        if self.channel_model not in ("NF", "FF"):
            raise ScenarioError(
                f"channel_model must be 'NF' or 'FF', got {self.channel_model!r}"
            )
        if self.quadrature_nodes < 2:
            raise ScenarioError(
                f"quadrature_nodes must be at least 2, got {self.quadrature_nodes}"
            )

    def resolved_items(self) -> tuple[tuple[str, str], ...]:
        """Flat, ordered echo of every resolved setting, for provenance."""
        geom = self.geometry
        items: list[tuple[str, str]] = [
            ("array.m_x", str(geom.m_x)),
            ("array.m_z", str(geom.m_z)),
            ("array.wavelength_m", repr(geom.wavelength)),
            ("array.pitch_m", repr(geom.pitch_d)),
            ("array.element_side_m", repr(geom.element_side)),
            ("link.model", self.channel_model),
            ("link.snr_linear", ",".join(repr(s) for s in self.mac_cfg.snr_per_user)),
            ("link.power_linear", repr(self.bc_cfg.total_power_P)),
            (
                "link.noise_vars",
                ",".join(repr(v) for v in self.bc_cfg.noise_var_per_user),
            ),
            ("link.quadrature_nodes", str(self.quadrature_nodes)),
        ]
        for idx, user in enumerate(self.users, start=1):
            items.append((f"user{idx}.range_m", repr(user.range_r)))
            items.append((f"user{idx}.azimuth_rad", repr(user.azimuth_theta)))
            items.append((f"user{idx}.elevation_rad", repr(user.elevation_phi)))
        if self.sweep is not None:
            items.append(("sweep.variable", self.sweep.variable))
            items.append(("sweep.target", self.sweep.target))
            items.append(
                ("sweep.values", ",".join(repr(v) for v in self.sweep.values))
            )
        return tuple(items)


def _get(cp: configparser.ConfigParser, section: str, key: str, default: str) -> str:
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    return default


def _get_float(
    cp: configparser.ConfigParser, section: str, key: str, default: str
) -> float:
    text = _get(cp, section, key, default)
    try:
        return float(text)
    except ValueError:
        raise ScenarioError(f"[{section}] {key}: cannot parse {text!r} as a number")


def _get_int(
    cp: configparser.ConfigParser, section: str, key: str, default: str
) -> int:
    text = _get(cp, section, key, default)
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(f"[{section}] {key}: cannot parse {text!r} as an integer")


def _get_db(
    cp: configparser.ConfigParser, section: str, key: str, default: str
) -> float:
    "A dB setting, returned as its linear ratio."
    value_db = _get_float(cp, section, key, default)
    try:
        return db_to_linear(value_db)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: {exc}") from None


def _get_angle(
    cp: configparser.ConfigParser, section: str, key: str, default: str
) -> float:
    text = _get(cp, section, key, default)
    try:
        return parse_angle(text)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: {exc}") from None


def _reject_unknown_keys(cp: configparser.ConfigParser) -> None:
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ScenarioError(
                f"unknown section [{section}]; expected one of {sorted(_SECTIONS)}"
            )
        allowed = _SECTIONS[section]
        for key in cp.options(section):
            if key not in allowed:
                raise ScenarioError(
                    f"unknown key {key!r} in [{section}]; expected one of {sorted(allowed)}"
                )


def _parse_values(text: str) -> tuple[float, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ScenarioError("[sweep] values: empty list")
    out = []
    for p in parts:
        try:
            out.append(float(p))
        except ValueError:
            raise ScenarioError(f"[sweep] values: cannot parse {p!r} as a number")
    return tuple(out)


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file, filling defaults for absent keys.

    An empty file resolves to the reference setup described in the
    module docstring. Unknown sections or keys, malformed values, and
    physically invalid settings (such as an elevation of 0, which must
    lie strictly inside (0, pi)) are rejected with the offending
    section and key named.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cp.read_file(handle, source=path)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from None
    return _scenario_from_parser(cp)


def default_scenario() -> Scenario:
    """The reference setup: what an empty file or no scenario file
    gives, and what every ``sweeps.reproduce`` preset sweeps."""
    return _scenario_from_parser(configparser.ConfigParser(interpolation=None))


def _scenario_from_parser(cp: configparser.ConfigParser) -> Scenario:
    _reject_unknown_keys(cp)

    frequency = _get_float(cp, "array", "frequency_hz", "2.4e9")
    try:
        _checks.positive("frequency_hz", frequency)
    except ValueError as exc:
        raise ScenarioError(f"[array] {exc}") from None
    wavelength = SPEED_OF_LIGHT / frequency

    if cp.has_option("array", "m_per_axis") and (
        cp.has_option("array", "m_x") or cp.has_option("array", "m_z")
    ):
        raise ScenarioError("[array] m_per_axis conflicts with explicit m_x/m_z")
    m_axis = _get_int(cp, "array", "m_per_axis", "65")
    m_x = _get_int(cp, "array", "m_x", str(m_axis))
    m_z = _get_int(cp, "array", "m_z", str(m_axis))
    pitch = _get_float(cp, "array", "pitch_m", repr(wavelength / 2.0))
    side_default = wavelength / math.sqrt(4.0 * math.pi)
    side = _get_float(cp, "array", "element_side_m", repr(side_default))
    try:
        geometry = ArrayGeometry(
            m_x=m_x, m_z=m_z, pitch_d=pitch, wavelength=wavelength, element_side=side
        )
    except ValueError as exc:
        raise ScenarioError(f"[array]: {exc}") from None

    model = _get(cp, "link", "model", "nf").upper()
    if model not in ("NF", "FF"):
        raise ScenarioError(f"[link] model must be 'nf' or 'ff', got {model!r}")
    snr = _get_db(cp, "link", "snr_db", "30")
    power = _get_db(cp, "link", "power_db", "30")
    noise1 = _get_float(cp, "link", "noise_var1", "1.0")
    noise2 = _get_float(cp, "link", "noise_var2", "1.0")
    nodes = _get_int(cp, "link", "quadrature_nodes", "200")

    r1 = _get_float(cp, "user1", "range_m", "10.0")
    az1 = _get_angle(cp, "user1", "azimuth", "pi/3")
    el1 = _get_angle(cp, "user1", "elevation", "2pi/3")

    direction = _get(cp, "user2", "direction", "different").lower()
    if direction not in ("same", "different"):
        raise ScenarioError(
            f"[user2] direction must be 'same' or 'different', got {direction!r}"
        )
    if direction == "same" and (
        cp.has_option("user2", "azimuth") or cp.has_option("user2", "elevation")
    ):
        raise ScenarioError(
            "[user2] direction=same conflicts with explicit azimuth/elevation"
        )
    r2 = _get_float(cp, "user2", "range_m", "5.0")
    if direction == "same":
        az2, el2 = az1, el1
    else:
        az2 = _get_angle(cp, "user2", "azimuth", "2pi/3")
        el2 = _get_angle(cp, "user2", "elevation", "pi/3")

    users = []
    for idx, (r, az, el) in enumerate(((r1, az1, el1), (r2, az2, el2)), start=1):
        try:
            users.append(UserLocation(range_r=r, azimuth_theta=az, elevation_phi=el))
        except ValueError as exc:
            raise ScenarioError(f"[user{idx}]: {exc}") from None

    sweep: SweepSpec | None = None
    if cp.has_section("sweep"):
        if not cp.has_option("sweep", "variable"):
            raise ScenarioError("[sweep] requires a 'variable' key")
        if not cp.has_option("sweep", "values"):
            raise ScenarioError("[sweep] requires a 'values' key")
        sweep = SweepSpec(
            variable=_get(cp, "sweep", "variable", ""),
            values=_parse_values(cp.get("sweep", "values")),
            target=_get(cp, "sweep", "target", "mac").lower(),
        )

    try:
        mac_cfg = MacConfig(snr_per_user=(snr, snr))
        bc_cfg = BcConfig(total_power_P=power, noise_var_per_user=(noise1, noise2))
    except ValueError as exc:
        raise ScenarioError(f"[link]: {exc}") from None

    return Scenario(
        geometry=geometry,
        users=tuple(users),
        channel_model=model,
        mac_cfg=mac_cfg,
        bc_cfg=bc_cfg,
        quadrature_nodes=nodes,
        sweep=sweep,
    )
