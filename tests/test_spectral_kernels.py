"""Algebraic identities of the spectral kernels, checked as properties over
random real fields on a 16^3 grid."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from critnorm import _fft
from critnorm.fields import Grid, ScalarField, TensorField, VectorField
from critnorm.spectral import (
    curl,
    ddiv_hat,
    div_hat,
    divergence,
    grad_hat,
    gradient,
    leray_hat,
    leray_project,
    tensor_div_hat,
    tensor_divergence,
)

GRID = Grid(16, 2.0 * np.pi * np.sqrt(2.0))
KMAX = float(np.sqrt(np.max(GRID.k2)))
ROUNDOFF = 1e-12

seeds = st.integers(min_value=0, max_value=2**32 - 1)
bounded = settings(max_examples=25, deadline=None)


def _data(seed, lead):
    return np.random.default_rng(seed).standard_normal(lead + GRID.shape)


def _hat(data):
    return _fft.rfftn(data, axes=(-3, -2, -1))


def _inverse(hat):
    return _fft.irfftn(hat, GRID.shape, axes=(-3, -2, -1))


def _small(value, scale):
    return float(np.max(np.abs(value))) <= ROUNDOFF * scale


@bounded
@given(seeds)
def test_leray_hat_is_idempotent(seed):
    once = leray_hat(GRID, _hat(_data(seed, (3,))))
    assert _small(leray_hat(GRID, once) - once, np.max(np.abs(once)))


@bounded
@given(seeds)
def test_projected_and_curl_fields_are_divergence_free(seed):
    vh = _hat(_data(seed, (3,)))
    scale = KMAX * np.max(np.abs(vh))
    assert _small(div_hat(GRID, leray_hat(GRID, vh)), scale)
    assert _small(div_hat(GRID, curl(VectorField(GRID, _inverse(vh))).hat), KMAX * scale)


@bounded
@given(seeds)
def test_projection_annihilates_gradients(seed):
    fh = _hat(_data(seed, ()))
    assert _small(leray_hat(GRID, grad_hat(GRID, fh)), KMAX * np.max(np.abs(fh)))


@bounded
@given(seeds)
def test_double_divergence_is_divergence_of_divergence(seed):
    Th = _hat(_data(seed, (3, 3)))
    rows = tensor_div_hat(GRID, Th)
    for i in range(3):
        assert np.array_equal(rows[i], div_hat(GRID, Th[i]))  # (div T)_i = d_j T_ij
    nested = div_hat(GRID, rows)
    assert _small(ddiv_hat(GRID, Th) - nested, KMAX**2 * np.max(np.abs(Th)))


@bounded
@given(seeds)
def test_field_operators_are_inverse_transforms_of_their_kernels(seed):
    f = ScalarField(GRID, _data(seed, ()))
    v = VectorField(GRID, _data(seed + 1, (3,)))
    T = TensorField(GRID, _data(seed + 2, (3, 3)))
    assert np.array_equal(gradient(f).data, _inverse(grad_hat(GRID, f.hat)))
    assert np.array_equal(gradient(v).data, _inverse(grad_hat(GRID, v.hat)))
    assert np.array_equal(divergence(v).data, _inverse(div_hat(GRID, v.hat)))
    assert np.array_equal(tensor_divergence(T).data, _inverse(tensor_div_hat(GRID, T.hat)))
    assert np.array_equal(leray_project(v).data, _inverse(leray_hat(GRID, v.hat)))
