"""Hot numeric loops with optional numba acceleration.

Every kernel exists twice: a vectorized/loop numpy reference and a numba
@njit twin. The active flavor is chosen once at import from the
``NFCAP_BACKEND`` environment variable:

* ``auto`` (default): numba when importable, numpy otherwise
* ``numba``: require numba, raise if missing
* ``numpy``: force the pure-numpy path even when numba is installed

Public dispatchers: :func:`element_distances`, :func:`nf_entries`,
:func:`ccf_quadrature_sum`, :func:`mc_grid_best`. ``active_backend()``
reports which flavor won.
"""

import os
import warnings

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def decorator(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return decorator


_REQUESTED = os.environ.get("NFCAP_BACKEND", "auto").lower()
if _REQUESTED not in ("auto", "numba", "numpy"):
    raise ValueError(
        f"NFCAP_BACKEND must be auto, numba or numpy, got {_REQUESTED!r}")
if _REQUESTED == "numba" and not HAVE_NUMBA:
    raise ImportError("NFCAP_BACKEND=numba but numba is not installed")
if _REQUESTED == "auto" and not HAVE_NUMBA:
    warnings.warn("numba not installed, falling back to pure numpy kernels",
                  stacklevel=2)

_USE_NUMBA = HAVE_NUMBA and _REQUESTED != "numpy"


def active_backend() -> str:
    "Name of the kernel flavor selected at import time."
    return "numba" if _USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# element distances and NF channel entries
#
# Index layout everywhere: row-major with the z index fastest, i.e. entry
# i = ax * m_z + az for ax in [0, m_x) and az in [0, m_z), where the signed
# element offsets are ix = ax - (m_x-1)/2 and iz = az - (m_z-1)/2.


def _distances_np(m_x, m_z, r, eps, dir_x, dir_z):
    ix = np.arange(m_x) - (m_x - 1) // 2
    iz = np.arange(m_z) - (m_z - 1) // 2
    X, Z = np.meshgrid(ix, iz, indexing="ij")
    q = (X * X + Z * Z) * eps * eps - 2 * X * eps * dir_x - 2 * Z * eps * dir_z + 1.0
    return (r * np.sqrt(q)).ravel()


@njit(cache=True)
def _distances_nb(m_x, m_z, r, eps, dir_x, dir_z):  # pragma: no cover - jitted
    out = np.empty(m_x * m_z)
    half_x = (m_x - 1) // 2
    half_z = (m_z - 1) // 2
    i = 0
    for ax in range(m_x):
        ix = ax - half_x
        for az in range(m_z):
            iz = az - half_z
            q = (ix * ix + iz * iz) * eps * eps \
                - 2.0 * ix * eps * dir_x - 2.0 * iz * eps * dir_z + 1.0
            out[i] = r * np.sqrt(q)
            i += 1
    return out


def _nf_entries_np(dists, amp_num, wavelength):
    amp = np.sqrt(amp_num / dists**3)
    return amp * np.exp(-2j * np.pi * dists / wavelength)


@njit(cache=True)
def _nf_entries_nb(dists, amp_num, wavelength):  # pragma: no cover - jitted
    out = np.empty(dists.shape[0], dtype=np.complex128)
    for i in range(dists.shape[0]):
        amp = np.sqrt(amp_num / dists[i] ** 3)
        phase = -2.0 * np.pi * dists[i] / wavelength
        out[i] = amp * (np.cos(phase) + 1j * np.sin(phase))
    return out


def element_distances(m_x: int, m_z: int, r: float, eps: float,
                      dir_x: float, dir_z: float) -> np.ndarray:
    "Exact element-to-user distances for the whole array, flattened."
    if _USE_NUMBA:
        return _distances_nb(m_x, m_z, r, eps, dir_x, dir_z)
    return _distances_np(m_x, m_z, r, eps, dir_x, dir_z)


def nf_entries(dists: np.ndarray, amp_num: float, wavelength: float) -> np.ndarray:
    """Spherical-wave channel entries from per-element distances.

    ``amp_num`` is the distance-free part of the squared amplitude,
    A*r*Psi/(4*pi); each entry is sqrt(amp_num/d^3) * exp(-j*2*pi*d/lambda).
    """
    if _USE_NUMBA:
        return _nf_entries_nb(dists, amp_num, wavelength)
    return _nf_entries_np(dists, amp_num, wavelength)


# ---------------------------------------------------------------------------
# CCF quadrature double sum
#
# S = sum_t sum_t' w_t w_t' f1(x_t, z_t') f2(x_t, z_t') over Chebyshev nodes,
# with f1 = exp(+j*k0*r1*sqrt(Q1))/Q1^{3/4}, f2 = exp(-j*k0*r2*sqrt(Q2))/Q2^{3/4}.


# Rows of x per block: about 16k nodes, so the planes of one block stay
# in cache at every T.
_QUAD_BLOCK_NODES = 16384


def _quad_sum_np(x, z, w, ups, r1, r2, k0, px1, oz1, px2, oz2):
    rows = max(1, _QUAD_BLOCK_NODES // len(z))
    total = 0.0 + 0.0j
    for start in range(0, len(x), rows):
        block = slice(start, start + rows)
        total += _quad_block(x[block], z, w[block], w,
                             ups, r1, r2, k0, px1, oz1, px2, oz2)
    return total


def _quad_block(x, z, wx, wz, ups, r1, r2, k0, px1, oz1, px2, oz2):
    # Real arithmetic on (rows, T) planes, x down the rows and z along
    # the columns: f1*f2 = amp * (cos + j sin) of the one phase
    # p1 - p2 = k0 r1 sqrt(Q1) - k0 r2 sqrt(Q2), with amp = (Q1 Q2)^{-3/4},
    # and the weights enter as wx @ plane @ wz.
    #
    # Q1 = x^2 + z^2 - 2 px1 x - 2 oz1 z + 1 and
    # Q2 = ups^2 (x^2 + z^2) - 2 ups px2 x - 2 ups oz2 z + 1 are summed
    # in that order, from row and column vectors. p1 - p2 rounds by up to
    # half an ulp of a few hundred radians, and the sum cancels by up to
    # 1e4 (65x65, reference users), which would move S by 1e-12 relative
    # to the product of the two exponentials. So the rounding error err
    # of that subtraction (Knuth's TwoSum) is kept to first order:
    # cos(ph + err) = cos ph - err sin ph, sin(ph + err) = sin ph + err cos ph.
    X = x[:, None]
    Z = z[None, :]
    q1 = X * X + Z * Z
    q2 = ups * ups * q1
    q1 -= 2 * px1 * X
    q1 -= 2 * oz1 * Z
    q1 += 1.0
    q2 -= 2 * ups * px2 * X
    q2 -= 2 * ups * oz2 * Z
    q2 += 1.0
    amp = q1 * q2
    amp **= -0.75
    p1 = np.sqrt(q1, out=q1)
    p1 *= k0 * r1
    p2 = np.sqrt(q2, out=q2)
    p2 *= k0 * r2
    phase = p1 - p2
    back = phase - p1
    err = p1 - (phase - back) - (p2 + back)
    cos = np.cos(phase)
    sin = np.sin(phase, out=phase)
    re = cos - err * sin
    im = np.multiply(err, cos, out=err)
    im += sin
    re *= amp
    im *= amp
    return complex(wx @ re @ wz, wx @ im @ wz)


@njit(cache=True)
def _quad_sum_nb(x, z, w, ups, r1, r2, k0, px1, oz1, px2, oz2):  # pragma: no cover
    total = 0.0 + 0.0j
    n = x.shape[0]
    for i in range(n):
        xi = x[i]
        for j in range(n):
            zj = z[j]
            q1 = xi * xi + zj * zj - 2.0 * px1 * xi - 2.0 * oz1 * zj + 1.0
            q2 = ups * ups * (xi * xi + zj * zj) \
                - 2.0 * ups * px2 * xi - 2.0 * ups * oz2 * zj + 1.0
            ph1 = k0 * r1 * np.sqrt(q1)
            ph2 = -k0 * r2 * np.sqrt(q2)
            amp = 1.0 / (q1**0.75 * q2**0.75)
            ph = ph1 + ph2
            total += w[i] * w[j] * amp * (np.cos(ph) + 1j * np.sin(ph))
    return total


def ccf_quadrature_sum(x, z, w, ups, r1, r2, k0, px1, oz1, px2, oz2) -> complex:
    "Weighted double sum of the two oscillatory CCF kernels."
    if _USE_NUMBA:
        return _quad_sum_nb(x, z, w, ups, r1, r2, k0, px1, oz1, px2, oz2)
    return _quad_sum_np(x, z, w, ups, r1, r2, k0, px1, oz1, px2, oz2)


# ---------------------------------------------------------------------------
# multicast beam grid scan
#
# Beams live in span{h1/s1, h2/s2}; with g1 = |hb1|^2, g2 = |hb2|^2 and
# ip = hb1^H hb2, the per-user SNR numerators of w = a*hb1 + b*e^{j psi}*hb2
# reduce to scalars, so the scan never touches the length-M vectors.


def _mc_grid_np(g1, g2, ip_re, ip_im, n_a, n_b, n_psi):
    # Real arithmetic on an (n_a, n_b) plane per phase: a runs down the
    # rows, b along the columns. With e*ip = c + j s,
    #   norm2   = a^2 g1 + b^2 g2 + 2ab c
    #   |v1|^2  = (a g1 + b c)^2 + (b s)^2
    #   |v2|^2  = (a Re ip + b g2 cos psi)^2 + (b g2 sin psi - a Im ip)^2
    a_row = np.linspace(0.0, 1.0, n_a)
    b_row = np.linspace(0.0, 1.0, n_b)
    a = a_row[:, None]
    b = b_row[None, :]
    base = a * a * g1 + b * b * g2
    two_ab = 2 * a * b
    a_g1, a_re, a_im = a * g1, a * ip_re, a * ip_im
    b_g2 = b * g2
    psis = 2.0 * np.pi * np.arange(n_psi) / n_psi
    # in-place planes: m holds |v1|^2 and then the ratio, t holds |v2|^2
    norm2, m, t, u = (np.empty((n_a, n_b)) for _ in range(4))
    best = 0.0
    arg = (1.0, 0.0, 0.0)
    for psi, cs, sn in zip(psis, np.cos(psis), np.sin(psis)):
        c = cs * ip_re - sn * ip_im
        s = sn * ip_re + cs * ip_im
        np.multiply(two_ab, c, out=norm2)
        norm2 += base
        np.add(a_g1, b * c, out=m)
        m *= m
        m += (b * s) ** 2
        np.add(a_re, b_g2 * cs, out=t)
        t *= t
        np.subtract(b_g2 * sn, a_im, out=u)
        u *= u
        t += u
        np.minimum(m, t, out=m)
        with np.errstate(divide="ignore", invalid="ignore"):
            m /= norm2
        m[~(norm2 > 1e-300)] = 0.0
        flat = int(np.argmax(m))
        cand = float(m.flat[flat])
        if cand > best:
            best = cand
            ia, ib = divmod(flat, n_b)
            arg = (float(a_row[ia]), float(b_row[ib]), float(psi))
    return best, arg[0], arg[1], arg[2]


@njit(cache=True)
def _mc_grid_nb(g1, g2, ip_re, ip_im, n_a, n_b, n_psi):  # pragma: no cover
    best = 0.0
    best_a = 1.0
    best_b = 0.0
    best_psi = 0.0
    for ipsi in range(n_psi):
        psi = 2.0 * np.pi * ipsi / n_psi
        c = np.cos(psi)
        s = np.sin(psi)
        # components of e*ip: the norm cross term is 2ab*Re(e*ip)
        v1b_re = c * ip_re - s * ip_im
        v1b_im = s * ip_re + c * ip_im
        for ia in range(n_a):
            a = ia / (n_a - 1.0)
            for ib in range(n_b):
                b = ib / (n_b - 1.0)
                norm2 = a * a * g1 + b * b * g2 + 2.0 * a * b * v1b_re
                if norm2 <= 1e-300:
                    continue
                r1 = (a * g1 + b * v1b_re) ** 2 + (b * v1b_im) ** 2
                r2 = (a * ip_re + b * (c * g2)) ** 2 + (-a * ip_im + b * (s * g2)) ** 2
                m = min(r1, r2) / norm2
                if m > best:
                    best = m
                    best_a = a
                    best_b = b
                    best_psi = psi
    return best, best_a, best_b, best_psi


def mc_grid_best(g1: float, g2: float, ip: complex,
                 n_a: int, n_b: int, n_psi: int
                 ) -> tuple[float, float, float, float]:
    """Best min_k |h_k^H w|^2 over the renormalized span grid.

    Returns (best value, a, b, psi) for the winning cell of
    w = (a h1 + b e^{j psi} h2) / norm.
    """
    if _USE_NUMBA:
        return _mc_grid_nb(g1, g2, ip.real, ip.imag, n_a, n_b, n_psi)
    return _mc_grid_np(g1, g2, ip.real, ip.imag, n_a, n_b, n_psi)
