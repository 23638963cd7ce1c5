"""Numpy kernels of the hot numeric loops.

Five kernels, each one numpy function:

* :func:`element_distances` - exact element-to-user distances;
* :func:`nf_entries` - spherical-wave channel entries from distances;
* :func:`ccf_quadrature_sums` - the weighted double sum of the NF
  correlation integral, in real arithmetic on row blocks: the half
  phase from d1^2 - d2^2 over d1 + d2, with no cancellation, and the
  cosine and sine of the phase from one tangent of it;
* :func:`ccf_element_sums` - the same integrand summed over the array's
  elements with unit weights: the exact inner product and both norms of
  the two NF channel vectors, up to constants that cancel in the CCF;
* :func:`mc_grid_best` - the multicast beam-grid scan over the span of
  the two channels, in real arithmetic on one plane per phase. No
  command runs it: the tests keep it as the primal that the multicast
  oracle, an exact convex dual, bounds from above.

The two correlation kernels take user 1 and a list of second users and
run one pass: each block of nodes builds user 1's planes once and then
the channels' own, a group of up to G channels to each numpy call on
(G, rows, T) planes. A channel's sums are the same bits whatever else
is in the list or its group, so one channel's sums are a call with a
list of one, as :func:`ccf_quadrature_sum` makes it.
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


# Rows of x per block: about 16k nodes, so user 1's planes of a block
# stay in cache at every T. A block evaluates its second users in groups
# of G = _GROUP_NODES // (block nodes), at least 1, on (G, rows, T)
# planes of about 32k terms (0.25 MB): G = 7 for the element sum at
# 65 x 65 (one 4225-node block), 2 for a T = 200 block of 81 rows. On a
# 2-vCPU VM (2 MB of L2 a core), 200 element sums at 65 x 65 took 6%
# less time at 32k terms than at 64k, which took 4% less than 96k, and
# one channel at a time took 22% more. The planes are allocated once
# per call and reused by every block and group.
_QUAD_BLOCK_NODES = 16384
_GROUP_NODES = 32768


def ccf_quadrature_sum(x, z, w, ups, r1, r2, k0, px1, oz1, px2, oz2) -> complex:
    "Weighted double sum of the two oscillatory CCF kernels."
    return ccf_quadrature_sums(x, z, w, r1, k0, px1, oz1, [(ups, r2, px2, oz2)])[0]


def ccf_quadrature_sums(x, z, w, r1, k0, px1, oz1, seconds) -> list[complex]:
    """:func:`ccf_quadrature_sum` of user 1 with each second user
    ``(ups, r2, px2, oz2)`` of ``seconds``, in one pass."""
    return [complex(re, im) for re, im in _ccf_sums(x, z, w, r1, k0, px1, oz1, seconds)]


def ccf_element_sums(m_x, m_z, eps1, r1, k0, px1, oz1, seconds
                     ) -> list[tuple[complex, float, float]]:
    """Element sums (S, N1, N2) of the NF CCF of user 1 with each second
    user ``(ups, r2, px2, oz2)`` of ``seconds``, in one pass: S and
    N_k = sum_i Q_k^{-3/2} over the m_x x m_z elements at offsets
    eps1 * (ix, iz), so that |S|^2 / (N1 N2) is the exact CCF of the two
    NF channel vectors."""
    x = (np.arange(m_x) - (m_x - 1) // 2) * eps1
    z = (np.arange(m_z) - (m_z - 1) // 2) * eps1
    sums = _ccf_sums(x, z, None, r1, k0, px1, oz1, seconds)
    return [(complex(re, im), n1, n2) for re, im, n1, n2 in sums]


def _aligned_planes(count, rows, cols):
    """A (count, rows, cols) float64 array of work planes, each starting
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
    planes = buf[first:first + count * size].reshape(count, size)[:, :rows * cols]
    return planes.reshape(count, rows, cols)


def _ccf_sums(x, z, w, r1, k0, px1, oz1, seconds):
    """For each second user (ups, r2, px2, oz2) of ``seconds``, a tuple of
    Python floats: the real and imaginary parts of S with the weights
    ``w`` on both x and z or, with ``w`` None, with unit weights, and
    then also the sums N1 and N2 of Q1^{-3/2} and Q2^{-3/2}.

    Real arithmetic on (rows, T) planes, x down the rows and z along the
    columns, block by block of rows of x. With rho = r2 / r1, user 2
    enters through Q2' = rho^2 Q2 = (d2 / r1)^2, so the phase of f1*f2 is
    k0 r1 (sqrt(Q1) - sqrt(Q2')). That difference of square roots is
    taken as (Q1 - Q2') / (sqrt(Q1) + sqrt(Q2')) (Goldberg, ACM Comput.
    Surv. 23(1), 1991), so the half phase h = k0 r1 (sqrt(Q1) -
    sqrt(Q2')) / 2 rounds relative to itself, not to the hundreds of
    radians of each user's own phase, and needs no correction term.
    Q1, Q2' and k0 r1 (Q1 - Q2') / 2 are each one column plus one row
    (:func:`_quadratic`), from coefficients taken in long double
    (:func:`_coefficients`).

    The phasor comes from t = tan h by the half-angle (Weierstrass)
    substitution, cos 2h = (1 - t^2) / (1 + t^2) and
    sin 2h = 2t / (1 + t^2): numpy's vectorised tangent costs about 2.5
    ns an element where its float64 cos and sin cost about 20 and 13 ns
    at these arguments. t^2 cannot overflow: at the double nearest pi/2,
    t is about 1.6e16. With a1 = w(x) w(z) Q1^{-3/4}, user 1's plane
    (1 / Q1^{3/4} with unit weights), and
    g = Q2'^{-3/4} / (1 + t^2), Re S = rho^{3/2} sum a1 (1 - t^2) g and
    Im S = 2 rho^{3/2} sum a1 t g. Each sum is one ``np.einsum``, not
    ``np.vdot``: OpenBLAS threads its dot product above 10000 terms, and
    on a 2-vCPU VM a 16k-term ``np.vdot`` took 6 to 12 ms, waking those
    threads, where ``np.einsum`` took 0.02 to 0.2 ms.

    Each block builds user 1's planes once, sqrt(Q1) and a1 (and its part
    of N1), and then the channels' own, a group of up to G channels to
    each numpy call on four (G, rows, T) planes. The column parts of
    every channel's Q2' and half phase are built once a block, as
    (channels, rows, 1) arrays, and their row parts once a call, as
    (channels, 1, T) arrays. Each channel's sums stay one
    ``np.einsum("ij,ij->")`` on its own 2-D slice; one batched
    ``einsum("ij,cij->c")`` changed bits on 81 x 200 blocks. So a
    channel's sums take the same operations in the same order, block
    after block, whatever other channels share the pass or its group,
    and are the same bits as a pass of that channel alone.
    """
    cols = len(z)
    rows = min(max(1, _QUAD_BLOCK_NODES // cols), len(x))
    coef, scales = _coefficients(r1, k0, px1, oz1, seconds)
    count = len(scales)
    norms = w is None
    group = max(1, min(_GROUP_NODES // (rows * cols), count))
    # user 1's two planes take their first rows only: the pages past
    # them are never touched
    work = _aligned_planes(6, group * rows, cols)
    s1, a1, planes = work[0], work[1], work[2:]
    # Q1 = (x^2 + z^2) - 2 px1 x - 2 oz1 z + 1, then each channel's Q2'
    # and then its half phase, as (a, b, c, d) of a (x^2 + z^2) - b x - c z + d
    a, b, c, d = coef.T[..., None, None]
    row = a * z * z - c * z  # (1 + 2 count, 1, T)
    totals = np.zeros((4 if norms else 2, count))
    sums = np.empty_like(totals)
    for start in range(0, len(x), rows):
        X = x[start:start + rows, None]
        n = len(X)
        col = a * X * X - b * X + d  # (1 + 2 count, rows, 1)
        s1b, a1b, w1 = s1[:n], a1[:n], planes[0, :n]
        np.sqrt(np.add(col[0], row[0], out=s1b), out=s1b)
        if norms:
            np.reciprocal(_three_quarters(s1b, a1b), out=a1b)
            sums[2] = np.einsum("ij,ij->", a1b, a1b)
        else:
            np.multiply(w[start:start + rows, None], w, out=w1)
            np.divide(w1, _three_quarters(s1b, a1b), out=a1b)
        for first in range(0, count, group):
            k = min(group, count - first)
            s2, t, g, re = planes[:, :k * n].reshape(4, k, n, cols)
            q2 = slice(1 + first, 1 + first + k)
            phase = slice(1 + count + first, 1 + count + first + k)
            np.sqrt(np.add(col[q2], row[q2], out=s2), out=s2)
            np.add(col[phase], row[phase], out=t)
            t /= np.add(s1b, s2, out=g)
            np.tan(t, out=t)
            np.reciprocal(_three_quarters(s2, g), out=g)
            at = slice(first, first + k)
            if norms:
                sums[3, at] = [np.einsum("ij,ij->", gc, gc) for gc in g]
            tt = np.multiply(t, t, out=s2)
            np.subtract(1.0, tt, out=re)
            tt += 1.0
            g /= tt
            re *= g
            g *= t
            sums[0, at] = [np.einsum("ij,ij->", a1b, rc) for rc in re]
            sums[1, at] = [np.einsum("ij,ij->", a1b, gc) for gc in g]
        totals += sums
    # scaled in Python floats: the bits of the same float64 products
    sums = zip(scales.tolist(), *totals.tolist())
    if norms:
        return [(s * re, s * 2 * im, n1, n2 * s * s) for s, re, im, n1, n2 in sums]
    return [(s * re, s * 2 * im) for s, re, im in sums]


def _coefficients(r1, k0, px1, oz1, seconds):
    """The (1 + 2 count, 4) coefficients (a, b, c, d) of user 1's Q1, then
    of each second user's (ups, r2, px2, oz2) Q2' = rho^2 Q2, then of its
    k0 r1 (Q1 - Q2') / 2, each a (x^2 + z^2) - b x - c z + d, and each
    second user's rho^{3/2}, with rho = r2 / r1.

    They are taken in long double, in one array, and rounded once to
    float64. On two 200-point r2 sweeps at 65x65 that puts rho up to
    8.2e-12 and 1.2e-11 relative from a long-double evaluation of the
    sums (medians 1.6e-12); rounded step by step in float64, the
    coefficients put it up to 1.4e-11 and 3.3e-11 from it (medians
    1.4e-12). rho ups is 1 + O(1e-16), so 1 - (rho ups)^2, the x^2 + z^2
    term of Q1 - Q2', is kept to about 1e-3 of itself.
    Co-located users give Q2' = Q1 and no phase exactly.
    """
    ld = np.longdouble
    values = np.array(seconds, dtype=ld).reshape(-1, 4).T
    ups, r2, sides = values[0], values[1], values[2:]
    count = len(r2)
    split = 4 + 8 * count
    out = np.empty(split + count, dtype=ld)
    coef, rho = out[:split].reshape(-1, 4), out[split:]
    q2, phase = coef[1:1 + count].T, coef[1 + count:].T
    np.divide(r2, r1, out=rho)
    coef[0] = 1.0, 2 * px1, 2 * oz1, 1.0
    np.multiply(rho, ups, out=q2[0])
    q2[0] *= q2[0]
    np.multiply(rho, rho, out=q2[3])
    # 2 rho rho ups: doubling is exact, so (2 rho) rho = 2 (rho rho)
    b = 2 * q2[3]
    b *= ups
    np.multiply(b, sides, out=q2[1:3])
    np.subtract(1.0, q2, out=phase)
    np.subtract(coef[0, 1:3, None], q2[1:3], out=phase[1:3])
    phase *= ld(k0) * ld(r1) / 2
    rho *= np.sqrt(rho)
    out = out.astype(float)
    return out[:split].reshape(-1, 4), out[split:]


def _three_quarters(root, out):
    "Q^{3/4} = sqrt(Q) * sqrt(sqrt(Q)) from ``root`` = sqrt(Q), into ``out``."
    np.sqrt(root, out=out)
    out *= root
    return out


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
