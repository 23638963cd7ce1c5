"""Numpy kernels of the hot numeric loops.

Five kernels, each one numpy function:

* :func:`element_distances` - exact element-to-user distances;
* :func:`nf_entries` - spherical-wave channel entries from distances;
* :func:`ccf_quadrature_sums` - the weighted double sum of the NF
  correlation integral, in real arithmetic on row blocks, with the
  cosine and sine of its phase taken from one tangent of the half phase;
* :func:`ccf_element_sums` - the same integrand summed over the array's
  elements with unit weights: the exact inner product and both norms of
  the two NF channel vectors, up to constants that cancel in the CCF;
* :func:`mc_grid_best` - the multicast beam-grid scan over the span of
  the two channels, in real arithmetic on one plane per phase. No
  command runs it: the tests keep it as the primal that the multicast
  oracle, an exact convex dual, bounds from above.

The two correlation kernels take user 1 and a list of second users and
run one pass: each block of nodes builds user 1's planes once and then
each channel's own. A channel's sums are the same bits whatever else is
in the list, so :func:`ccf_quadrature_sum` and :func:`ccf_element_sum`,
the one-channel forms, are calls with a list of one.
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
# CCF double sums
#
# S = sum_t sum_t' w_t w_t' f1(x_t, z_t') f2(x_t, z_t') over Chebyshev nodes,
# with f1 = exp(+j*k0*r1*sqrt(Q1))/Q1^{3/4}, f2 = exp(-j*k0*r2*sqrt(Q2))/Q2^{3/4}.
# At the element offsets (x, z) = eps1*(ix, iz) with unit weights the same
# sum is h1^H h2 of the two NF channel vectors, divided by the factor
# A sqrt(Psi1 Psi2) / (4 pi r1 r2) that the CCF ratio cancels.


# Rows of x per block: about 16k nodes, so the eight work planes of a
# block (about 1 MB) stay in cache at every T. The planes are allocated
# once per call and reused by every block and channel.
_QUAD_BLOCK_NODES = 16384


def ccf_quadrature_sum(x, z, w, ups, r1, r2, k0, px1, oz1, px2, oz2) -> complex:
    "Weighted double sum of the two oscillatory CCF kernels."
    return ccf_quadrature_sums(x, z, w, r1, k0, px1, oz1, [(ups, r2, px2, oz2)])[0]


def ccf_quadrature_sums(x, z, w, r1, k0, px1, oz1, seconds) -> list[complex]:
    """:func:`ccf_quadrature_sum` of user 1 with each second user
    ``(ups, r2, px2, oz2)`` of ``seconds``, in one pass."""
    return [complex(re, im) for re, im in _ccf_sums(x, z, w, w, r1, k0, px1, oz1,
                                                    seconds, False)]


def ccf_element_sum(m_x, m_z, eps1, ups, r1, r2, k0, px1, oz1, px2, oz2
                    ) -> tuple[complex, float, float]:
    """Element sums of the NF CCF: (S, N1, N2).

    S = sum_i (Q1 Q2)^{-3/4} exp(j (k0 r1 sqrt(Q1) - k0 r2 sqrt(Q2))) and
    N_k = sum_i Q_k^{-3/2} over the m_x x m_z elements at offsets
    eps1 * (ix, iz), so that |S|^2 / (N1 N2) is the exact CCF of the two
    NF channel vectors.
    """
    return ccf_element_sums(m_x, m_z, eps1, r1, k0, px1, oz1, [(ups, r2, px2, oz2)])[0]


def ccf_element_sums(m_x, m_z, eps1, r1, k0, px1, oz1, seconds
                     ) -> list[tuple[complex, float, float]]:
    """:func:`ccf_element_sum` of user 1 with each second user
    ``(ups, r2, px2, oz2)`` of ``seconds``, in one pass."""
    x = (np.arange(m_x) - (m_x - 1) // 2) * eps1
    z = (np.arange(m_z) - (m_z - 1) // 2) * eps1
    sums = _ccf_sums(x, z, np.ones(m_x), np.ones(m_z), r1, k0, px1, oz1, seconds, True)
    return [(complex(re, im), n1, n2) for re, im, n1, n2 in sums]


def _aligned_planes(count, rows, cols):
    """``count`` float64 work planes of shape (rows, cols), each starting
    on a 64-byte (cache line) boundary.

    malloc aligns to 16 bytes only, so where a temporary starts within a
    cache line depends on the heap's history. Some elementwise loops run
    up to twice as slowly at some offsets, which moved the time of one
    preset by about 20% between builds that differ only in code the
    preset never runs.
    """
    size = -(-rows * cols // 8) * 8
    buf = np.empty(count * size + 8)
    first = (-buf.ctypes.data % 64) // 8
    return [buf[first + k * size:first + k * size + rows * cols].reshape(rows, cols)
            for k in range(count)]


def _ccf_sums(x, z, wx, wz, r1, k0, px1, oz1, seconds, norms):
    """Per second user (ups, r2, px2, oz2) of ``seconds``: the real and
    imaginary parts of S and, with ``norms``, the sums N1 and N2 of
    Q1^{-3/2} and Q2^{-3/2}, taken from the same square roots.

    Real arithmetic on (rows, T) planes, x down the rows and z along the
    columns, block by block of rows of x: f1*f2 = amp * (cos + j sin) of
    the one phase p1 - p2 = k0 r1 sqrt(Q1) - k0 r2 sqrt(Q2), with amp =
    (Q1 Q2)^{-3/4}, and the weights enter as wx @ plane @ wz. Each block
    builds user 1's planes once, x^2 + z^2, Q1 and p1 (and its part of
    N1), and then each channel's own Q2, amp, phase and sums. A channel's
    sums take the same operations in the same order, block after block,
    whatever other channels share the pass, so they are the same bits as
    a pass of that channel alone.

    Q1 = x^2 + z^2 - 2 px1 x - 2 oz1 z + 1 and
    Q2 = ups^2 (x^2 + z^2) - 2 ups px2 x - 2 ups oz2 z + 1 are summed in
    that order, from row and column vectors. p1 - p2 rounds by up to half
    an ulp of a few hundred radians, and the sum cancels by up to 1e4
    (65x65, reference users), which would move S by 1e-12 relative to the
    product of the two exponentials. So the rounding error err of that
    subtraction (Knuth's TwoSum) is kept to first order:
    cos(ph + err) = cos ph - err sin ph, sin(ph + err) = sin ph + err cos ph.

    Without ``norms`` (the T x T rule), cos ph and sin ph come from t =
    tan(ph / 2) by the half-angle (Weierstrass) substitution
    (:func:`_tangent_phasor`). Halving ph is exact, numpy's tangent
    reduces its own argument, and t^2 cannot overflow: at the double
    nearest pi/2, t is about 1.6e16. The rule's nodes spread ph over
    hundreds of radians; there numpy's float64 cos and sin cost about 20
    and 13 ns an element where its vectorised tan costs about 2.5 ns, and
    the phasor stays within 2.2e-16 of theirs. The element sum keeps cos
    and sin of ph: its correlations are the ones held to 1e-10 relative,
    and the substitution moved the twelfth digit of one printed
    correlation near a null.
    """
    rows = max(1, _QUAD_BLOCK_NODES // len(z))
    planes = _aligned_planes(8, min(rows, len(x)), len(z))
    totals = [(0.0,) * (4 if norms else 2) for _ in seconds]
    Z = z[None, :]
    for start in range(0, len(x), rows):
        X = x[start:start + rows, None]
        bx = wx[start:start + rows]
        sq, q1, p1, q2, amp, phase, back, err = (p[:len(X)] for p in planes)
        np.add(X * X, Z * Z, out=sq)
        np.subtract(sq, 2 * px1 * X, out=q1)
        q1 -= 2 * oz1 * Z
        q1 += 1.0
        np.sqrt(q1, out=p1)
        n1 = (_norm_sum(p1, bx, wz, back),) if norms else ()
        p1 *= k0 * r1
        for c, (ups, r2, px2, oz2) in enumerate(seconds):
            np.multiply(ups * ups, sq, out=q2)
            q2 -= 2 * ups * px2 * X
            q2 -= 2 * ups * oz2 * Z
            q2 += 1.0
            np.multiply(q1, q2, out=amp)
            amp **= -0.75
            p2 = np.sqrt(q2, out=q2)
            n2 = (_norm_sum(p2, bx, wz, back),) if norms else ()
            p2 *= k0 * r2
            np.subtract(p1, p2, out=phase)
            np.subtract(phase, p1, out=back)
            np.subtract(phase, back, out=err)
            np.subtract(p1, err, out=err)
            err -= np.add(p2, back, out=p2)
            # p2 is spent, so its plane takes the cosine
            if norms:
                cos = np.cos(phase, out=p2)
                sin = np.sin(phase, out=phase)
            else:
                cos, sin = _tangent_phasor(phase, p2, back)
            re = np.subtract(cos, np.multiply(err, sin, out=back), out=back)
            im = np.multiply(err, cos, out=err)
            im += sin
            re *= amp
            im *= amp
            sums = (bx @ re @ wz, bx @ im @ wz, *n1, *n2)
            totals[c] = tuple(t + s for t, s in zip(totals[c], sums))
    return totals


def _norm_sum(root, wx, wz, tmp):
    "wx @ root^-3 @ wz, with ``tmp`` as the work plane."
    np.multiply(root, root, out=tmp)
    tmp *= root
    return wx @ np.reciprocal(tmp, out=tmp) @ wz


def _tangent_phasor(phase, cos, den):
    """cos and sin of ``phase`` from t = tan(phase / 2): cos ph =
    (1 - t^2) / (1 + t^2) and sin ph = 2 t / (1 + t^2). The cosine goes
    into ``cos``, the sine over ``phase``; ``den`` is a work plane."""
    t = np.tan(np.multiply(phase, 0.5, out=phase), out=phase)
    np.multiply(t, t, out=den)
    np.subtract(1.0, den, out=cos)
    den += 1.0
    cos /= den
    sin = np.multiply(t, 2.0, out=phase)
    sin /= den
    return cos, sin


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
