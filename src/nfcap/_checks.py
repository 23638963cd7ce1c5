"""Input checks shared by the formula modules and the oracles, and the
elementwise helpers that give an array the bits a float gets.

One coercer for channels and one check per kind of numeric argument. A
channel is a complex 1-D array with one finite entry per element. A
numeric argument is a float or an array of them, checked element by
element in one call. Every error is a ValueError that names the
argument and the value, or the first bad element of an array.

A formula takes floats or arrays, and :func:`result` returns a float
where it took only floats. numpy's ``+ - * /``, ``sqrt``, ``minimum``
and ``maximum`` give each element the bits of the same float
operation, but three operations do not, so the formulas take them
element by element: :func:`log2` (numpy's ``log2`` differs from
``math.log2`` by an ulp on some inputs), :func:`square` (numpy squares
by x * x, Python's ``**`` by libm's ``pow``) and, in the runners,
``config.db_to_linear`` (numpy's power differs from Python's).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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


def checked(value, good: Callable[[np.ndarray], np.ndarray], what: str):
    """``value`` as a float, or as a float array if it is one, where
    ``good`` holds for every element; else ValueError "``what``, got v"
    naming the value, or the first element, in order, where it fails.
    """
    if isinstance(value, (float, int, np.generic)):
        if not good(value):
            raise ValueError(f"{what}, got {value}")
        return float(value)
    arr = np.asarray(value, dtype=float)
    with np.errstate(invalid="ignore"):
        ok = good(arr)
    if not ok.all():
        raise ValueError(f"{what}, got {value if arr.ndim == 0 else float(arr[~ok][0])}")
    return float(arr) if arr.ndim == 0 else arr


def nonneg(name: str, value):
    "A finite value >= 0, such as a gain, an SNR or a power budget."
    return checked(value, lambda v: np.isfinite(v) & (v >= 0.0),
                   f"{name} must be finite and nonnegative")


def positive(name: str, value):
    "A finite value > 0, such as a noise variance."
    return checked(value, lambda v: np.isfinite(v) & (v > 0.0),
                   f"{name} must be finite and positive")


def rho(value):
    "A squared correlation in [0, 1] up to 1e-12, clamped into [0, 1]."
    value = checked(value, lambda v: (v >= -1e-12) & (v <= 1.0 + 1e-12),
                    "correlation rho must lie in [0, 1]")
    # np.maximum(a, b) and np.minimum(a, b) return b where a == b, as
    # Python's max(b, a) and min(b, a) do: so -0.0 stays -0.0
    return result(np.minimum(1.0, np.maximum(0.0, value)))


def first(mask: np.ndarray, *values) -> list[float]:
    """Each of ``values``, broadcast to the shape of ``mask``, at the
    first element, in order, where ``mask`` holds."""
    i = int(np.flatnonzero(mask)[0])
    return [float(np.broadcast_to(v, np.shape(mask)).flat[i]) for v in values]


def _is_array(value) -> bool:
    return isinstance(value, np.ndarray) and value.ndim > 0


def result(value):
    "A 0-d value as a Python float or int; an array as it is."
    if isinstance(value, (np.ndarray, np.generic)) and not _is_array(value):
        return value.item()
    return value


def log2(value):
    "math.log2 of a float, or of each element of an array."
    if not _is_array(value):
        return math.log2(value)
    flat = np.fromiter(map(math.log2, value.ravel().tolist()), float, value.size)
    return flat.reshape(value.shape)


def square(value):
    "Python's value ** 2 of a float, or of each element of an array."
    if not _is_array(value):
        return value**2
    flat = np.fromiter((v**2 for v in value.ravel().tolist()), float, value.size)
    return flat.reshape(value.shape)
