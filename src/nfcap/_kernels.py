"""Numpy kernels of the hot numeric loops.

Six kernels, each one numpy function:

* :func:`element_distances` - exact element-to-user distances;
* :func:`nf_entries` - spherical-wave channel entries from distances;
* :func:`ccf_quadrature_sum` - the weighted double sum of the NF
  correlation integral, in real arithmetic on row blocks;
* :func:`ccf_element_sum` - the same integrand summed over the array's
  elements with unit weights: the exact inner product and both norms of
  the two NF channel vectors, up to constants that cancel in the CCF;
* :func:`mc_grid_best` - the multicast beam-grid scan over the span of
  the two channels, in real arithmetic on one plane per phase;
* :func:`hpd_logdet` - ln det of a Hermitian positive-definite matrix by
  a blocked Cholesky factorisation of its lower triangle, stored as
  block columns that the factor overwrites.
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
# once per call and reused by every block.
_QUAD_BLOCK_NODES = 16384


def ccf_quadrature_sum(x, z, w, ups, r1, r2, k0, px1, oz1, px2, oz2) -> complex:
    "Weighted double sum of the two oscillatory CCF kernels."
    re, im = _block_sums(x, z, w, w, (ups, r1, r2, k0, px1, oz1, px2, oz2), False)
    return complex(re, im)


def ccf_element_sum(m_x, m_z, eps1, ups, r1, r2, k0, px1, oz1, px2, oz2
                    ) -> tuple[complex, float, float]:
    """Element sums of the NF CCF: (S, N1, N2).

    S = sum_i (Q1 Q2)^{-3/4} exp(j (k0 r1 sqrt(Q1) - k0 r2 sqrt(Q2))) and
    N_k = sum_i Q_k^{-3/2} over the m_x x m_z elements at offsets
    eps1 * (ix, iz), so that |S|^2 / (N1 N2) is the exact CCF of the two
    NF channel vectors.
    """
    x = (np.arange(m_x) - (m_x - 1) // 2) * eps1
    z = (np.arange(m_z) - (m_z - 1) // 2) * eps1
    re, im, n1, n2 = _block_sums(x, z, np.ones(m_x), np.ones(m_z),
                                 (ups, r1, r2, k0, px1, oz1, px2, oz2), True)
    return complex(re, im), n1, n2


def _block_sums(x, z, wx, wz, args, norms):
    "Sums of :func:`_quad_block` over row blocks of x."
    rows = max(1, _QUAD_BLOCK_NODES // len(z))
    planes = _aligned_planes(8, min(rows, len(x)), len(z))
    totals = (0.0,) * (4 if norms else 2)
    for start in range(0, len(x), rows):
        block = slice(start, start + rows)
        sums = _quad_block(x[block], z, wx[block], wz, *args, planes, norms)
        totals = tuple(t + s for t, s in zip(totals, sums))
    return totals


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


def _quad_block(x, z, wx, wz, ups, r1, r2, k0, px1, oz1, px2, oz2, planes, norms):
    # Real arithmetic on (rows, T) planes, x down the rows and z along
    # the columns: f1*f2 = amp * (cos + j sin) of the one phase
    # p1 - p2 = k0 r1 sqrt(Q1) - k0 r2 sqrt(Q2), with amp = (Q1 Q2)^{-3/4},
    # and the weights enter as wx @ plane @ wz. Returns the real and
    # imaginary parts of the sum and, with ``norms``, the sums of
    # Q1^{-3/2} and Q2^{-3/2} taken from the same square roots.
    #
    # Q1 = x^2 + z^2 - 2 px1 x - 2 oz1 z + 1 and
    # Q2 = ups^2 (x^2 + z^2) - 2 ups px2 x - 2 ups oz2 z + 1 are summed
    # in that order, from row and column vectors. p1 - p2 rounds by up to
    # half an ulp of a few hundred radians, and the sum cancels by up to
    # 1e4 (65x65, reference users), which would move S by 1e-12 relative
    # to the product of the two exponentials. So the rounding error err
    # of that subtraction (Knuth's TwoSum) is kept to first order:
    # cos(ph + err) = cos ph - err sin ph, sin(ph + err) = sin ph + err cos ph.
    q1, q2, amp, phase, back, err, cos, tmp = (p[:len(x)] for p in planes)
    X = x[:, None]
    Z = z[None, :]
    np.add(X * X, Z * Z, out=q1)
    np.multiply(ups * ups, q1, out=q2)
    q1 -= 2 * px1 * X
    q1 -= 2 * oz1 * Z
    q1 += 1.0
    q2 -= 2 * ups * px2 * X
    q2 -= 2 * ups * oz2 * Z
    q2 += 1.0
    np.multiply(q1, q2, out=amp)
    amp **= -0.75
    norm_sums = []
    for q, kr in ((q1, k0 * r1), (q2, k0 * r2)):
        root = np.sqrt(q, out=q)
        if norms:
            np.multiply(root, root, out=tmp)
            tmp *= root
            norm_sums.append(wx @ np.reciprocal(tmp, out=tmp) @ wz)
        root *= kr
    p1, p2 = q1, q2
    np.subtract(p1, p2, out=phase)
    np.subtract(phase, p1, out=back)
    np.subtract(phase, back, out=err)
    np.subtract(p1, err, out=err)
    err -= np.add(p2, back, out=tmp)
    np.cos(phase, out=cos)
    sin = np.sin(phase, out=phase)
    re = np.subtract(cos, np.multiply(err, sin, out=tmp), out=tmp)
    im = np.multiply(err, cos, out=err)
    im += sin
    re *= amp
    im *= amp
    return (wx @ re @ wz, wx @ im @ wz, *norm_sums)


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


# ---------------------------------------------------------------------------
# log-determinant of a Hermitian positive-definite matrix
#
# Left-looking blocked Cholesky (Golub & Van Loan, Matrix Computations,
# section 4.2) on the lower triangle, stored as block columns and
# factored in place: each block column J is updated with the finished
# block columns to its left, one gemm each, its diagonal block is
# factored, and the panel below is multiplied by the inverse conjugate
# transpose of that small factor, one more gemm. The upper triangle is
# never stored; beyond the block columns only one block column of
# temporaries is allocated.


# Columns per block. On a 2-vCPU VM with 2 BLAS threads, one oracle call
# (fresh process, median of 5) took 1.6 s and 190 MB peak RSS at
# M = 4225 and 55 ms at M = 1089 with 128 columns, against 1.55 s,
# 203 MB and 73 ms with 256, and 1.95 s, 180 MB and 53 ms with 64. The
# block columns take 16 (M^2 + M B) / 2 bytes, a panel temporary up to
# 16 M B more.
_CHOL_BLOCK_COLS = 128


def hpd_logdet(blocks: list[np.ndarray]) -> float:
    """ln det of a Hermitian positive-definite matrix A of order n, given
    by the block columns of its lower triangle.

    With B = :data:`_CHOL_BLOCK_COLS` and j = J B, ``blocks[J]`` holds
    rows j to n - 1 of columns j to min(j + B, n) - 1 of A; its top
    square is the diagonal block, whose upper triangle is not read. The
    blocks are overwritten: on return they hold the same rows and
    columns of the Cholesky factor L of A = L L^H. The result is
    2 sum ln L_ii. Raises ``np.linalg.LinAlgError`` when A is not
    positive definite.
    """
    diag = np.empty(len(blocks[0]))
    for index, block in enumerate(blocks):
        rows, width = block.shape
        for left in blocks[:index]:
            top = len(left) - rows
            block -= left[top:] @ left[top:top + width].conj().T
        factor = np.linalg.cholesky(block[:width])
        block[:width] = factor
        if rows > width:
            block[width:] = block[width:] @ np.linalg.inv(factor).conj().T
        start = len(diag) - rows
        diag[start:start + width] = factor.diagonal().real
    return 2.0 * float(np.sum(np.log(diag)))
