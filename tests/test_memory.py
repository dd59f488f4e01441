"""Transient memory of the chain's stages (Besov split, mild solve, driven
PNS run, local energy identity), the inversion of I - L_a, the doubled-grid sums and
the quadrants of their factors, the pressure split, the ledger rows, cylinder integrals and
pressure oscillation, and the memory a pressure split and a radial cutoff
keep, measured with tracemalloc at 32^3; that the chain's stages leave
no cached spectrum on the fields they are handed; and that the free-space
layer keeps nothing between calls.

tracemalloc sees every numpy array, made in any thread, not the FFT
library's own work buffers. Each bound is a multiple of a stated unit, set from measurement
with the measured value beside it. Do not raise a multiple to get a
pass: cut the transient instead.
"""

import tracemalloc

import numpy as np
import pytest

from critnorm import _fft, besov, ckn, corpus, mild, pns, pressure, spectral
from critnorm.fields import (
    Grid,
    ScalarField,
    SpaceTimeField,
    TensorField,
    VectorField,
    smooth_radial_cutoff,
    taylor_green_3d,
)

N = 32
# one doubled-grid spectrum: (2n)^2 (n + 1) complex128, 2.16 MB at 32^3
SPECTRUM = (2 * N) ** 2 * (N + 1) * 16
# the spectra of one stored slice: three velocity components and q
SLICE = 4 * N * N * (N // 2 + 1) * 16
# one float64 field on the box
FIELD = N**3 * 8
# one quadrant of a doubled-grid factor: (n + 1)^3 float64, 0.13 spectra
QUADRANT = (N + 1) ** 3 * 8
# the mild solution a on the chains' 6 stored times, 4.72 MB at 32^3
MILD = 6 * 3 * FIELD
# the Besov split's two vector fields
SPLIT = 2 * 3 * FIELD
# the points a walk over cylinder.ball_slabs has in flight, as float64:
# one slab of 2^19 points, or two of 2^18, 4 MiB
SLAB_PAIR = 2**19 * 8
# a driven run of chain_n32's lattice: v and q on 11 stored times (the
# drift is re-read from its provider, not stored)
RUN = 11 * 4 * FIELD


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
def datum(grid32):
    """The chains' datum at seed 1: a curl bump plus noise."""
    rng = np.random.default_rng(1)
    bump = corpus.curl_bump(grid32, amplitude=0.5)
    noise = corpus.random_divfree(grid32, rng, kmax=4, amplitude=0.05)
    return VectorField(grid32, bump.data + noise.data)


def test_besov_split_transient_in_units_of_its_result(datum):
    # measured 2.80 results' worth, the returned split (1.00), the data's
    # spectrum, made through a view, and the Littlewood-Paley bank each
    # block builds included; one part's spectrum at a time (3.42 with one
    # walk of the bands for both parts, both spectra alive); 2.71 while the
    # bank was cached process-wide, 3.26 while the data kept its spectrum
    # from the first call and the two returned fields kept theirs
    besov.besov_split(datum, 3.0, 6.0)  # the grid's wavenumber arrays are built
    assert _peak(lambda: besov.besov_split(datum, 3.0, 6.0)) <= 3.5 * SPLIT


@pytest.fixture(scope="module")
def mild_input(datum):
    """The chains' mild datum at seed 1: the Besov split's small part, on
    their mild time lattice, with the grid's arrays built."""
    tilde = besov.besov_split(datum, 3.0, 6.0).tilde_g
    cfg = mild.DuhamelConfig(dt=1.0 / 64.0, T=5.0 / 64.0)
    assert mild.solve_mild(tilde, cfg).a.frames.nbytes == MILD
    return tilde, cfg


def test_solve_mild_transient_in_units_of_its_result(mild_input):
    # measured 3.35 results' worth, the returned a included: a and the heat
    # orbit, whose buffer takes the residual slice by slice, beside the
    # march's spectra (3.53 while the data's view kept its spectrum through
    # the march, 3.36 while a second march formed the residual, 6.54
    # while Picard held its iterates and the march its resume cache)
    tilde, cfg = mild_input
    assert _peak(lambda: mild.solve_mild(tilde, cfg)) <= 3.6 * MILD


@pytest.fixture(scope="module")
def inversion_input(datum):
    """The heat orbit of the datum's large part and the mild drift on 21
    stored times (dt = 1/256), where an orbit outweighs the march's
    per-slice spectra, with the grid's arrays built."""
    split = besov.besov_split(datum, 3.0, 6.0)
    a = mild.solve_mild(split.tilde_g, mild.DuhamelConfig(dt=1.0 / 256.0, T=5.0 / 64.0)).a
    heat = [spectral.heat_semigroup(split.bar_g, float(t)).data for t in a.times]
    f = SpaceTimeField(a.grid, a.times, np.array(heat))
    mild.invert_I_minus_La(f, a)
    return f, a


def test_invert_I_minus_La_transient_in_units_of_its_result(inversion_input):
    # measured 1.39 results' worth, the returned u included: u beside the
    # march's spectra (2.08 while the contraction formed u - f; on the
    # chains' 6 stored times the march sets the peak, 2.35 either way)
    f, a = inversion_input
    assert _peak(lambda: mild.invert_I_minus_La(f, a)) <= 1.5 * f.frames.nbytes


@pytest.fixture(scope="module")
def driven(datum, mild_input):
    """chain_n32's driven run on the seed-1 datum, with its caches built."""
    bar = besov.besov_split(datum, 3.0, 6.0).bar_g
    a = mild.solve_mild(*mild_input).a
    cfg = pns.PNSConfig(dt=1.0 / 512.0, T=5.0 / 64.0, stride=4)

    def run():
        return pns.run_pns(bar, cfg, a_provider=pns.drift_from_spacetime(a))

    stored = run()
    assert stored.v.frames.nbytes + stored.q.frames.nbytes == RUN
    return run, stored


def test_chain_stages_leave_no_spectrum_on_their_inputs(datum):
    # the split, the mild solve and the driven run read the fields they are
    # handed through views, so the data and both parts of the split keep no
    # spectrum for the rest of the chain to carry
    u0 = VectorField(datum.grid, datum.data)
    split = besov.besov_split(u0, 3.0, 6.0)
    a = mild.solve_mild(split.tilde_g, mild.DuhamelConfig(dt=1.0 / 64.0, T=5.0 / 64.0)).a
    cfg = pns.PNSConfig(dt=1.0 / 512.0, T=4.0 / 512.0, stride=4)
    pns.run_pns(split.bar_g, cfg, a_provider=pns.drift_from_spacetime(a))
    fields = {"u0": u0, "tilde_g": split.tilde_g, "bar_g": split.bar_g}
    assert [name for name, f in fields.items() if f._hat is not None] == []


def test_run_pns_transient_in_units_of_its_result(driven):
    # measured 1.98 results' worth (87.2 fields), the returned run included:
    # the stored slices, the step's stages, the drift slices and the spectra
    # of the stress (120.2 fields while the run stored a copy of its drift)
    run, _ = driven
    assert _peak(run) <= 2.05 * RUN


def test_verify_local_energy_transient(grid32, driven):
    # measured 22.5 fields, one slice's fields and one direction's three
    # derivatives at a time; the entries it returns are a few scalars each
    # (28.4 while a slice's nine-component gradient lived through its row,
    # 41.4 while a row's gradient and products lived through the next row's
    # gradient)
    _, stored = driven
    phi = smooth_radial_cutoff(grid32, 1.0, 3.0)
    pns.verify_local_energy(stored, phi)
    assert _peak(lambda: pns.verify_local_energy(stored, phi)) <= 30.0 * FIELD


@pytest.fixture(scope="module")
def sources(grid32):
    """Nine smooth random fields supported in |x| < L/4: six Riesz components
    and three Newton sources, with the grid's arrays built."""
    r = grid32.radius()
    bump = np.where(r < 0.2 * grid32.L, np.cos(np.pi * r / (0.4 * grid32.L)) ** 2, 0.0)
    rng = np.random.default_rng(0)
    fields = [bump * rng.standard_normal(grid32.shape) for _ in range(9)]
    S, div = np.stack(fields[:6]), VectorField(grid32, np.stack(fields[6:]))
    spectral.free_riesz_sum(grid32, S)
    spectral.newtonian_potential(div)
    return S, div


def test_free_riesz_sum_holds_at_most_three_spectra(grid32, sources):
    # measured 2.97 spectra: the sum, the padded cube and its spectrum; a
    # component's factor quadrant (0.13) is built after its transform
    # (3.97 while the trace had a spectrum of its own, 7.50 while a scaled
    # copy and qh's temporaries sat beside them)
    S, _ = sources
    assert _peak(lambda: spectral.free_riesz_sum(grid32, S)) <= 3.05 * SPECTRUM


def test_newtonian_potential_of_a_divergence_holds_at_most_three_spectra(grid32, sources):
    # measured 2.97 spectra: the sum, the padded cube and its spectrum; a
    # source's kernel quadrant (0.13) is built after its transform
    # (3.12 while each source's term was an array of its own, 3.97 while
    # the term was made before the source's transform)
    _, div = sources
    assert _peak(lambda: spectral.newtonian_potential(div)) <= 3.05 * SPECTRUM


@pytest.fixture(scope="module")
def tg_split_inputs(grid32):
    """Taylor-Green velocity stress and its pressure, with every cache the
    split reads built."""
    v = taylor_green_3d(grid32, 1.0)
    V = TensorField(grid32, v.data[:, None] * v.data[None, :])
    p = pns.recover_pressure(v)
    pressure.split_pressure(p, V, pressure.RadialCutoff(grid32, 0.2, 1.0))
    return V, p.values


def test_split_pressure_transient_beyond_its_inputs(grid32, tg_split_inputs):
    # measured 3.82 spectra, the returned split's seven fields (0.85) and the
    # cutoff's radial factor a included (3.94 while a lived through n4's sum,
    # and while the cutoff kept its derivatives and n1's source lived
    # through the other convolutions, 5.33 while the check arrays and p's
    # cached spectrum lived through the convolutions and the two
    # doubled-grid sums held a spectrum more)
    V, values = tg_split_inputs
    p = ScalarField(grid32, values)
    cutoff = pressure.RadialCutoff(grid32, 0.2, 1.0)
    assert _peak(lambda: pressure.split_pressure(p, V, cutoff)) <= 4.25 * SPECTRUM


def test_pressure_split_keeps_seven_fields(grid32, tg_split_inputs):
    # the Riesz term, four Newton terms, the total and the cutoff's values,
    # with the cutoff passed inline: measured 7.02 fields (20.1 while the
    # split kept the RadialCutoff, its gradient and Hessian, and p kept
    # its spectrum)
    V, values = tg_split_inputs
    p = ScalarField(grid32, values)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _split = pressure.split_pressure(p, V, pressure.RadialCutoff(grid32, 0.2, 1.0))
        kept = tracemalloc.get_traced_memory()[0] - base  # _split is still held
    finally:
        tracemalloc.stop()
    assert kept <= 7.25 * FIELD


def test_radial_cutoff_keeps_one_field(grid32):
    # the values alone; the radial factors are computed at each _radial() call.
    # Measured 1.00 fields (10.01 while it kept three gradient and six
    # Hessian components, 13.01 while the Hessian kept all nine)
    pressure.RadialCutoff(grid32, 0.2, 1.0)  # the grid's coordinates are built
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _cutoff = pressure.RadialCutoff(grid32, 0.2, 1.0)
        kept = tracemalloc.get_traced_memory()[0] - base  # _cutoff is still held
    finally:
        tracemalloc.stop()
    assert kept <= 1.25 * FIELD


def test_quadrant_build_holds_two_quadrants():
    # a free-space factor is built per source on the (n+1)^3 quadrant of the
    # doubled grid: measured 2.08 (N_T) and 2.10 (gfac) quadrants, the
    # returned quadrant, its half's |k|^2 and values and indices included
    for build in (spectral._kernel_hat, spectral._riesz_factor):
        assert _peak(lambda: build(N, 9.0)) <= 2.25 * QUADRANT


def test_free_space_layer_keeps_nothing_once_its_results_are_dropped():
    # no process-wide cache: on a grid the layer has not seen, the Newton
    # potentials, the Riesz sum and the pressure split leave nothing behind.
    # Measured 12 KB (2.18 MB while the two factor caches kept a
    # doubled-grid factor and wavenumbers per grid)
    g = Grid(N, 11.5)
    v = taylor_green_3d(g, 1.0)
    V = TensorField(g, v.data[:, None] * v.data[None, :])
    p = ScalarField(g, pns.recover_pressure(v).values)
    cutoff = pressure.RadialCutoff(g, 0.2, 1.0)
    S = pressure._sym_part(cutoff.values * V.data)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spectral.newtonian_potential(ScalarField(g, cutoff.values))
        spectral.newtonian_potential(VectorField(g, S[:3]))
        spectral.free_riesz_sum(g, S)
        pressure.split_pressure(p, V, cutoff)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept <= 64 * 1024


@pytest.fixture(scope="module")
def tg_run(grid32):
    """17 stored slices, every one in the k = 2 window of t_top = 1/16."""
    cfg = pns.PNSConfig(dt=1.0 / 256.0, T=1.0 / 16.0, stride=1)
    run = pns.run_pns(taylor_green_3d(grid32, 0.3), cfg)
    assert len(run.v.times) == 17
    return run


def test_ledger_keeps_only_the_slices_later_rows_read(tg_run):
    # the k = 3 window holds the last 5 slices, the k = 4 window the last 2.
    # Measured 7.52 slices' worth (19.5 while every slice's spectra stayed
    # until the call returned)
    def ledger():
        return ckn.build_ledger(tg_run, (0.0, 0.0, 0.0), 1.0 / 16.0, ks=(2, 3, 4), eta=0.6,
                                t0=0.0)

    ledger()  # the phase tables and ball lattices are cached
    assert _peak(ledger) <= 9.0 * SLICE


def test_cylinder_smallness_keeps_one_slice_at_a_time(tg_run):
    # r = 1/4 reads all 17 slices once each. Measured 1.48 slices' worth
    # (17.5 while every slice's spectra stayed until the call returned)
    def smallness():
        return ckn.cylinder_smallness(tg_run, (0.0, 0.0, 0.0), 1.0 / 16.0, 0.25)

    smallness()  # the ball lattice is cached
    assert _peak(smallness) <= 2.0 * SLICE


def _oscillation(run, r, rho):
    return lambda: pressure.pressure_oscillation_terms(run.v, None, run.q, (0.0, 0.0, 0.0), r, rho)


def test_slabbed_oscillation_holds_two_slabs_at_a_time(tg_run, monkeypatch):
    # r = 1/16 under rho = 1/2: 131^3 points in 9 slabs of 2^18 at most, on
    # two threads. Measured 5.6-6.3 slab pairs over 16 calls, as the two
    # workers' phases vary; 7.5-8.8 with three slabs in flight, and 7.6
    # with one slab of 2^19 points at a time
    monkeypatch.setattr(_fft, "WORKERS", 2)
    oscillation = _oscillation(tg_run, 1.0 / 16.0, 0.5)
    oscillation()  # the phase tables are cached
    assert _peak(oscillation) <= 7.0 * SLAB_PAIR


def test_one_slab_oscillation_drops_each_slice_after_sampling_it(tg_run, monkeypatch):
    # r = 1/4 under rho = 1: one slab of 67^3 points reading all 17 slices,
    # in the calling thread. Measured 2.87 slab pairs, every call; 7.12
    # while every slice's spectra stayed until the last slice was sampled
    monkeypatch.setattr(_fft, "WORKERS", 2)
    oscillation = _oscillation(tg_run, 0.25, 1.0)
    oscillation()  # the phase tables are cached
    assert _peak(oscillation) <= 3.2 * SLAB_PAIR
