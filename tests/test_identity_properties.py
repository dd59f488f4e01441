"""Exact identities of the norm, splitting and Duhamel layers, checked as
properties over random data on a 16^3 grid: each holds in exact arithmetic,
so every example must reproduce it to round-off."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from critnorm import corpus, mild
from critnorm.besov import LPProjectorBank, besov_split
from critnorm.fields import Grid, ScalarField, SpaceTimeField, VectorField
from critnorm.norms import BallRegion, box_lp, lorentz_quasinorm, lp_ball

GRID = Grid(16, 2.0 * np.pi * np.sqrt(2.0))
KMAX = math.sqrt(float(np.max(GRID.k2)))
ROUNDOFF = 1e-12
EPS = float(np.finfo(np.float64).eps)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
bounded = settings(max_examples=25, deadline=None)


@bounded
@given(seeds, st.floats(min_value=0.1, max_value=1.2 * KMAX), st.integers(1, 8))
def test_split_parts_sum_to_the_datum(seed, N, kmax):
    # thresholds from below the first shell to past the corner of the grid
    g = corpus.random_divfree(GRID, np.random.default_rng(seed), kmax=kmax)
    g = VectorField(GRID, g.data + 0.25)  # a mean, which bar carries
    sp = besov_split(g, N, 6)
    # tilde is g - bar, so the sum is two roundings away from g
    scale = max(np.max(np.abs(g.data)), np.max(np.abs(sp.bar_g.data)))
    assert np.max(np.abs(sp.tilde_g.data + sp.bar_g.data - g.data)) <= 2 * EPS * scale


@bounded
@given(seeds, st.floats(min_value=1.05, max_value=8.0), st.sampled_from([(), (3,)]))
def test_lorentz_quasinorm_with_q_equal_p_is_the_lebesgue_norm(seed, p, lead):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(lead + GRID.shape) * rng.uniform(0.1, 10.0)
    f = (VectorField if lead else ScalarField)(GRID, data)
    whole = lorentz_quasinorm(f, p, p).value
    assert math.isclose(whole, box_lp(GRID, data, p), rel_tol=ROUNDOFF)
    ball = BallRegion(tuple(rng.uniform(-1.0, 1.0, 3)), rng.uniform(0.5, 2.0))
    local = lorentz_quasinorm(f, p, p, ball).value
    assert math.isclose(local, lp_ball(f, p, ball).value, rel_tol=ROUNDOFF)


@bounded
@given(seeds, st.sampled_from([1.0 / 64.0, 0.05, 0.2]), st.integers(2, 12))
def test_duhamel_is_exact_on_sources_constant_in_time(seed, dt, m):
    # per mode the left-endpoint rule telescopes to (1 - e^{-k^2 t}) / k^2,
    # and to t on the mean
    values = np.random.default_rng(seed).standard_normal(GRID.shape)
    ts = dt * np.arange(m)
    Lf = mild.duhamel(SpaceTimeField(GRID, ts, np.repeat(values[None], m, axis=0)))
    fh = np.fft.rfftn(values)
    k2 = GRID.k2
    for i, t in enumerate(ts):
        weight = np.where(k2 > 0, -np.expm1(-k2 * t) / np.where(k2 > 0, k2, 1.0), t)
        exact = np.fft.irfftn(weight * fh, GRID.shape, axes=(0, 1, 2))
        scale = max(t, dt) * np.max(np.abs(values))
        assert np.max(np.abs(Lf.frames[i] - exact)) <= ROUNDOFF * scale


@bounded
@given(st.floats(min_value=8.01, max_value=200.0))
def test_littlewood_paley_bands_partition_unity_on_every_box(L):
    bank = LPProjectorBank(Grid(16, L))
    assert bank.partition_defect() <= 4 * EPS


@bounded
@given(st.sampled_from([8, 16, 32, 64]), st.floats(min_value=8.0, max_value=1e6, exclude_min=True))
def test_the_origin_is_a_grid_point(n, L):
    # the corpus centres every profile at x[n // 2]; the grids stay at or
    # below 64^3, since a Grid allocates its wavenumber arrays eagerly
    assert Grid(n, L).x[n // 2] == 0.0
