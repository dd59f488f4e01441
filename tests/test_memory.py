"""Transient memory of the doubled-grid sums, their kernel caches and the
ledger rows, measured with tracemalloc at 32^3.

tracemalloc sees every numpy array, not the FFT library's own work
buffers. Each bound is a multiple of a stated unit, set from measurement
with the measured value beside it. Do not raise a multiple to get a
pass: cut the transient instead.
"""

import tracemalloc

import numpy as np
import pytest

from critnorm import ckn, pns, spectral
from critnorm.fields import Grid, ScalarField, taylor_green_3d

N = 32
# one doubled-grid spectrum: (2n)^2 (n + 1) complex128, 2.16 MB at 32^3
SPECTRUM = (2 * N) ** 2 * (N + 1) * 16
# the spectra of one stored slice: three velocity components and q
SLICE = 4 * N * N * (N // 2 + 1) * 16


def _peak(fn):
    """Bytes fn() holds at its peak beyond what was held before the call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sources(grid32):
    """Nine smooth random fields supported in |x| < L/4: six Riesz components
    and three Newton sources, with both kernel caches built."""
    r = grid32.radius()
    bump = np.where(r < 0.2 * grid32.L, np.cos(np.pi * r / (0.4 * grid32.L)) ** 2, 0.0)
    rng = np.random.default_rng(0)
    fields = [bump * rng.standard_normal(grid32.shape) for _ in range(9)]
    S, div = np.stack(fields[:6]), [ScalarField(grid32, f) for f in fields[6:]]
    spectral.free_riesz_sum(grid32, S)
    spectral.newtonian_potential_div(div)
    return S, div


def test_free_riesz_sum_holds_at_most_four_spectra(grid32, sources):
    # measured 3.97 spectra: the trace, the running sum, the padded cube
    # and its spectrum (7.50 while a scaled copy and qh's temporaries
    # sat beside them)
    S, _ = sources
    assert _peak(lambda: spectral.free_riesz_sum(grid32, S)) <= 4.25 * SPECTRUM


def test_newtonian_potential_div_holds_at_most_three_spectra(grid32, sources):
    # measured 3.12 spectra: the running sum, a source's spectrum and its
    # term (3.97 while the term was made before the source's transform)
    _, div = sources
    assert _peak(lambda: spectral.newtonian_potential_div(div)) <= 3.5 * SPECTRUM


def test_kernel_caches_build_no_unread_spectra():
    # a fresh doubled grid builds only the wavenumbers each cache reads:
    # measured 2.57 spectra per build (4.13 while every Grid built its
    # k2_safe, k2_d, k2_d_safe and dealias_mask)
    g = Grid(N, 9.0)
    for cache in (spectral._kernel_hat, spectral._riesz_factor):
        cache.cache_clear()
        assert _peak(lambda: cache(g)) <= 3.0 * SPECTRUM


def test_ledger_keeps_only_the_slices_later_rows_read(grid32):
    # 17 slices, all in the k = 2 window; the k = 3 window holds the last
    # 5 of them, the k = 4 window the last 2. Measured 7.52 slices' worth
    # (19.5 while every slice's spectra stayed until the call returned)
    cfg = pns.PNSConfig(dt=1.0 / 256.0, T=1.0 / 16.0, stride=1)
    run = pns.run_pns(taylor_green_3d(grid32, 0.3), cfg)
    assert len(run.v.times) == 17

    def ledger():
        return ckn.build_ledger(run, (0.0, 0.0, 0.0), 1.0 / 16.0, ks=(2, 3, 4), eta=0.6, t0=0.0)

    ledger()  # the phase tables and ball lattices are cached
    assert _peak(ledger) <= 9.0 * SLICE
