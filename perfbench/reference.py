"""Exact-sum reference for err_bits_max.

The reference of a printed capacity is the same capacity formula fed the
correlation of the exact channel vectors (``nf_channel_vector`` or
``ff_channel_vector`` with ``ccf_exact``) while the closed-form gains are
kept. The difference isolates the error of the correlation the program
used: the Chebyshev-Gauss quadrature on NF rows, the Dirichlet closed
form on FF rows.

Preset references take about 10 s to build at 551 elements per axis, so
they are stored in ``preset_reference.json``. Rebuild that file with

    PYTHONPATH=src python3 perfbench/reference.py

from the repository root. Seeded sweeps are small enough to be computed
at run time, outside the timed region.

This module imports nfcap; the caller puts the checkout's ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import json
import math
import os
import sys

from nfcap import (
    ArrayGeometry,
    BcConfig,
    UserLocation,
    bc_capacity_two_user,
    ccf_exact,
    ccf_sum_oracle,
    ff_channel_vector,
    ff_gain_closed,
    mac_capacity_two_user,
    mc_capacity_two_user,
    nf_channel_vector,
    nf_gain_closed,
)
from nfcap.sweeps import reproduce

from workloads import PRESETS, REF_FREQUENCY_HZ, REF_USER1, REF_USER2, Link

PRESET_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "preset_reference.json")

# Capacity column printed by each command kind.
CAPACITY_COLUMN = {"mac": "c_mac", "bc": "c_bc", "mc": "c_mc"}
PRESET_COLUMNS = ("C_nf_dd", "C_nf_sd", "C_ff_dd", "C_ff_sd")

# Preset settings, as nfcap.sweeps defines them: 30 dB (1000) SNR and
# power over unit noise, the reference pair in different ("dd") and the
# same ("sd") direction, and 551 elements per axis for mc-vs-r2.
_PRESET_R2_AXIS = 551


class ExactStats:
    """Closed-form gains and exact-sum correlation, memoised per link."""

    def __init__(self) -> None:
        self._memo: dict[tuple, tuple[float, float, float]] = {}

    def __call__(self, model: str, m_axis: int,
                 users: tuple[tuple[float, float, float], ...]
                 ) -> tuple[float, float, float]:
        key = (model, m_axis, users)
        if key not in self._memo:
            geom = ArrayGeometry.from_frequency(m_axis, m_axis, REF_FREQUENCY_HZ)
            u1, u2 = (UserLocation(*u) for u in users)
            if model == "nf":
                gain, vector = nf_gain_closed, nf_channel_vector
            else:
                gain, vector = ff_gain_closed, ff_channel_vector
            rho = ccf_exact(vector(geom, u1), vector(geom, u2))
            self._memo[key] = (gain(geom, u1), gain(geom, u2), min(rho, 1.0))
        return self._memo[key]


def link_reference(stats: ExactStats, kind: str, link: Link) -> float:
    """The capacity a ``kind`` command prints for ``link``, fed exact rho."""
    g1, g2, rho = stats(link.model, link.m_axis, link.users)
    if kind == "mac":
        return mac_capacity_two_user(g1, g2, rho, link.snr, link.snr)
    if kind == "bc":
        return bc_capacity_two_user(g1, g2, rho, BcConfig(link.power, (1.0, 1.0)))
    return mc_capacity_two_user(g1, g2, rho, 1.0, 1.0, link.power)


def check_exact_vectors() -> str | None:
    """Cross-check the exact-vector rho against the scalar element-sum oracle.

    Returns a description of the first disagreement, or None.
    """
    for m_axis in (9, 17):
        geom = ArrayGeometry.from_frequency(m_axis, m_axis, REF_FREQUENCY_HZ)
        for u2 in (REF_USER2, (7.5,) + REF_USER1[1:]):
            a, b = UserLocation(*REF_USER1), UserLocation(*u2)
            for model, vector in (("nf", nf_channel_vector), ("ff", ff_channel_vector)):
                built = ccf_exact(vector(geom, a), vector(geom, b))
                oracle = ccf_sum_oracle(geom, a, b, model=model)
                if not math.isclose(built, oracle, rel_tol=1e-9, abs_tol=1e-15):
                    return (f"{model} ccf at {m_axis}x{m_axis}: exact vectors "
                            f"{built!r} vs element-sum oracle {oracle!r}")
    return None


def _preset_links(name: str, x: float) -> dict[str, Link]:
    if name == "mc-vs-r2":
        m_axis, r2 = _PRESET_R2_AXIS, x
    else:
        m_axis, r2 = math.isqrt(round(x)), REF_USER2[0]
    dd = (REF_USER1, (r2,) + REF_USER2[1:])
    sd = (REF_USER1, (r2,) + REF_USER1[1:])
    return {
        f"C_{model}_{tag}": Link(model, m_axis, users, 30.0, 30.0)
        for tag, users in (("dd", dd), ("sd", sd))
        for model in ("nf", "ff")
    }


def build_preset_reference() -> dict:
    stats = ExactStats()
    kinds = {"mac-vs-M": "mac", "bc-vs-M": "bc", "mc-vs-M": "mc", "mc-vs-r2": "mc"}
    table = {}
    for name in PRESETS:
        xs = [row[0] for row in reproduce(name).rows]
        entry = {"x": xs}
        for column in PRESET_COLUMNS:
            entry[column] = [
                link_reference(stats, kinds[name], _preset_links(name, x)[column])
                for x in xs
            ]
        table[name] = entry
    return table


def load_preset_reference() -> dict:
    with open(PRESET_FILE, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    problem = check_exact_vectors()
    if problem:
        sys.exit(f"error: {problem}")
    with open(PRESET_FILE, "w", encoding="utf-8") as handle:
        json.dump(build_preset_reference(), handle, indent=1)
        handle.write("\n")
    print(f"wrote {PRESET_FILE}")
