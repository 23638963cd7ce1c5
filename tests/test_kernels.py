"""Numpy kernels of the hot loops, called through their public names."""

import math

import numpy as np
import pytest

import nfcap._kernels as kernels


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
