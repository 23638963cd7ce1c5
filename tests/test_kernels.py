"""Numpy kernels of the hot loops, called through their public names."""

import math

import numpy as np
import pytest

import nfcap._kernels as kernels
from nfcap.geometry import ArrayGeometry, UserLocation, nf_channel_vector


def test_mc_grid_best_finds_single_user_optimum():
    "With the second channel dead the scan must put everything on beam 1."
    best, a, b, psi = kernels.mc_grid_best(0.9, 0.0, 0j, 50, 50, 8)
    assert best == pytest.approx(0.0, abs=1e-15)
    assert a >= 0.0


def test_dispatchers_run_through_public_wrappers():
    dists = kernels.element_distances(5, 5, 10.0, 0.006, 0.2, -0.1)
    entries = kernels.nf_entries(dists, 1e-4, 0.125)
    assert entries.shape == dists.shape
    assert np.all(np.isfinite(entries.real))
    total = kernels.ccf_quadrature_sum(
        np.array([0.1, -0.1]),
        np.array([0.2, -0.2]),
        np.array([1.0, 1.0]),
        2.0,
        10.0,
        5.0,
        50.0,
        0.1,
        0.2,
        -0.1,
        -0.2,
    )
    assert isinstance(total, complex)
    assert math.isfinite(total.real) and math.isfinite(total.imag)


def test_ccf_element_sum_is_inner_product_and_norms():
    """S and N_k are h1^H h2 and |h_k|^2 of the NF channel vectors over
    their common factors A sqrt(Psi1 Psi2) / (4 pi r1 r2) and
    A Psi_k / (4 pi r_k^2)."""
    geom = ArrayGeometry.from_frequency(m_x=17, m_z=41, frequency_hz=2.4e9)
    u1 = UserLocation(10.0, math.pi / 3, 2 * math.pi / 3)
    u2 = UserLocation(4.0, 2 * math.pi / 3, math.pi / 3)
    h1, h2 = (nf_channel_vector(geom, u) for u in (u1, u2))
    s, n1, n2 = kernels.ccf_element_sum(
        17, 41, geom.pitch_d / 10.0, 2.5, 10.0, 4.0, 2 * np.pi / geom.wavelength,
        u1.dir_x, u1.dir_z, u2.dir_x, u2.dir_z,
    )
    area = geom.element_area
    cross = area * math.sqrt(u1.dir_y * u2.dir_y) / (4 * np.pi * 10.0 * 4.0)
    assert s * cross == pytest.approx(complex(np.vdot(h1, h2)), rel=1e-12)
    for n, h, u in ((n1, h1, u1), (n2, h2, u2)):
        own = area * u.dir_y / (4 * np.pi * u.range_r**2)
        assert n * own == pytest.approx(float(np.vdot(h, h).real), rel=1e-12)


def _hpd(n, cond, seed):
    "Random Hermitian positive-definite n x n, eigenvalues log-spaced in [1, cond]."
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    eig = np.logspace(0.0, math.log10(cond), n) if n > 1 else np.array([cond])
    return (q * eig) @ q.conj().T


_B = kernels._CHOL_BLOCK_COLS


def _lower_blocks(a):
    "The lower block columns of ``a`` that hpd_logdet takes, as copies."
    return [a[j:, j:j + _B].copy() for j in range(0, len(a), _B)]


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 2 * _B + 3, 1089])
@pytest.mark.parametrize("cond", [1e2, 1e5, 1e8])
def test_hpd_logdet_matches_numpy_cholesky(n, cond):
    """The blocked in-place factorisation gives numpy's log-determinant.

    At condition 1e8 two correct orderings of one Cholesky factorisation
    differ by up to a few 1e-12 relative (numpy's own factor of a
    symmetrically permuted copy does, over 20 draws at n = 129 and 259),
    so the bound there is 1e-11; below it, 1e-12.
    """
    a = _hpd(n, cond, [n, int(math.log10(cond))])
    ref = 2.0 * float(np.sum(np.log(np.linalg.cholesky(a).diagonal().real)))
    got = kernels.hpd_logdet(_lower_blocks(a))
    assert got == pytest.approx(ref, rel=1e-11 if cond > 1e7 else 1e-12)


@pytest.mark.parametrize("bad_row", [0, 2 * _B + 2])
def test_hpd_logdet_rejects_indefinite_matrix(bad_row):
    "A negative pivot in the first or the last block is reported as numpy does."
    a = _hpd(2 * _B + 3, 1e3, 7)
    a[bad_row, bad_row] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(a)
    with pytest.raises(np.linalg.LinAlgError):
        kernels.hpd_logdet(_lower_blocks(a))


def test_quadrature_work_planes_are_cache_line_aligned():
    planes = kernels._aligned_planes(8, 81, 200)
    starts = sorted(p.ctypes.data for p in planes)
    assert all(p.shape == (81, 200) and p.flags.c_contiguous for p in planes)
    assert all(start % 64 == 0 for start in starts)
    assert all(b - a >= 81 * 200 * 8 for a, b in zip(starts, starts[1:]))
