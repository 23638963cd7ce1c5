"""Input checks shared by the formula modules and the oracles.

One coercer for channels and one check per kind of scalar argument. A
channel is a complex 1-D array with one finite entry per element. Every
error is a ValueError that names the argument and the bad value.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def channel_vectors(
    channels: Sequence[np.ndarray], names: Sequence[str] | None = None
) -> list[np.ndarray]:
    """Each channel as a complex128 1-D array; none empty, all one length,
    every entry finite.

    ``names`` label the channels in error messages (default
    ``channels[k]``). A complex128 1-D input is returned as is, not copied.
    """
    if names is None:
        names = [f"channels[{k}]" for k in range(len(channels))]
    vecs: list[np.ndarray] = []
    for name, ch in zip(names, channels):
        vec = np.asarray(ch, dtype=np.complex128).ravel()
        if vec.size == 0:
            raise ValueError(f"{name} must not be empty")
        if vecs and vec.size != vecs[0].size:
            raise ValueError(
                f"{name} has {vec.size} entries, {names[0]} has {vecs[0].size}"
            )
        if not np.isfinite(vec).all():
            raise ValueError(f"{name} has a non-finite entry")
        vecs.append(vec)
    return vecs


def nonneg(name: str, value: float) -> float:
    "A finite value >= 0, such as a gain, an SNR or a power budget."
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return float(value)


def positive(name: str, value: float) -> float:
    "A finite value > 0, such as a noise variance."
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return float(value)


def rho(value: float) -> float:
    "A squared correlation in [0, 1] up to 1e-12, clamped into [0, 1]."
    if not (-1e-12 <= value <= 1.0 + 1e-12):
        raise ValueError(f"correlation rho must lie in [0, 1], got {value}")
    return min(max(value, 0.0), 1.0)
