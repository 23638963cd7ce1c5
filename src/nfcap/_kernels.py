"""Numpy kernels of the hot numeric loops.

Four kernels, each one vectorized numpy function:

* :func:`element_distances` - exact element-to-user distances;
* :func:`nf_entries` - spherical-wave channel entries from distances;
* :func:`ccf_quadrature_sum` - the weighted double sum of the NF
  correlation integral, in real arithmetic on row blocks;
* :func:`mc_grid_best` - the multicast beam-grid scan over the span of
  the two channels, in real arithmetic on one plane per phase.
"""

import numpy as np


# ---------------------------------------------------------------------------
# element distances and NF channel entries
#
# Index layout everywhere: row-major with the z index fastest, i.e. entry
# i = ax * m_z + az for ax in [0, m_x) and az in [0, m_z), where the signed
# element offsets are ix = ax - (m_x-1)/2 and iz = az - (m_z-1)/2.


def element_distances(m_x: int, m_z: int, r: float, eps: float,
                      dir_x: float, dir_z: float) -> np.ndarray:
    "Exact element-to-user distances for the whole array, flattened."
    ix = np.arange(m_x) - (m_x - 1) // 2
    iz = np.arange(m_z) - (m_z - 1) // 2
    X, Z = np.meshgrid(ix, iz, indexing="ij")
    q = (X * X + Z * Z) * eps * eps - 2 * X * eps * dir_x - 2 * Z * eps * dir_z + 1.0
    return (r * np.sqrt(q)).ravel()


def nf_entries(dists: np.ndarray, amp_num: float, wavelength: float) -> np.ndarray:
    """Spherical-wave channel entries from per-element distances.

    ``amp_num`` is the distance-free part of the squared amplitude,
    A*r*Psi/(4*pi); each entry is sqrt(amp_num/d^3) * exp(-j*2*pi*d/lambda).
    """
    amp = np.sqrt(amp_num / dists**3)
    return amp * np.exp(-2j * np.pi * dists / wavelength)


# ---------------------------------------------------------------------------
# CCF quadrature double sum
#
# S = sum_t sum_t' w_t w_t' f1(x_t, z_t') f2(x_t, z_t') over Chebyshev nodes,
# with f1 = exp(+j*k0*r1*sqrt(Q1))/Q1^{3/4}, f2 = exp(-j*k0*r2*sqrt(Q2))/Q2^{3/4}.


# Rows of x per block: about 16k nodes, so the planes of one block stay
# in cache at every T.
_QUAD_BLOCK_NODES = 16384


def ccf_quadrature_sum(x, z, w, ups, r1, r2, k0, px1, oz1, px2, oz2) -> complex:
    "Weighted double sum of the two oscillatory CCF kernels."
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


# ---------------------------------------------------------------------------
# multicast beam grid scan
#
# Beams live in span{h1/s1, h2/s2}; with g1 = |hb1|^2, g2 = |hb2|^2 and
# ip = hb1^H hb2, the per-user SNR numerators of w = a*hb1 + b*e^{j psi}*hb2
# reduce to scalars, so the scan never touches the length-M vectors.


def mc_grid_best(g1: float, g2: float, ip: complex,
                 n_a: int, n_b: int, n_psi: int
                 ) -> tuple[float, float, float, float]:
    """Best min_k |h_k^H w|^2 over the renormalized span grid.

    Returns (best value, a, b, psi) for the winning cell of
    w = (a h1 + b e^{j psi} h2) / norm.
    """
    ip_re, ip_im = ip.real, ip.imag
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
