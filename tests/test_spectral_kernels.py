"""Algebraic identities of the spectral kernels, checked as properties over
random real fields on a 16^3 grid, and off-grid evaluation of real fields
against the brute-force trigonometric sum over the full spectrum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critnorm import _fft
from critnorm.fields import Grid, ScalarField, TensorField, VectorField
from critnorm.spectral import (
    SYM_PAIRS,
    curl,
    div_hat,
    divergence,
    evaluate_at_points,
    grad_hat,
    gradient,
    leray_hat,
    leray_project,
    neg_leray_div_hat,
    newtonian_potential_div,
    sym_ddiv_hat,
    sym_outer_hat,
    tensor_div_hat,
    tensor_divergence,
)
from critnorm.spectral import _SYM_INDEX, _yz_tables

GRID = Grid(16, 2.0 * np.pi * np.sqrt(2.0))
KMAX = float(np.sqrt(np.max(GRID.k2)))
ROUNDOFF = 1e-12

seeds = st.integers(min_value=0, max_value=2**32 - 1)
bounded = settings(max_examples=25, deadline=None)


def _data(seed, lead):
    return np.random.default_rng(seed).standard_normal(lead + GRID.shape)


def _hat(data):
    return _fft.rfftn(data)


def _inverse(hat):
    return _fft.irfftn(hat, GRID.shape)


def _small(value, scale):
    return float(np.max(np.abs(value))) <= ROUNDOFF * scale


def ddiv_hat(grid, Th):
    """Reference spectrum of the double divergence d_i d_j T_ij of a full
    3 x 3 tensor spectrum, summed over all nine components."""
    kd = grid.deriv_wavenumbers()
    out = 0.0
    for i in range(3):
        for j in range(3):
            out = out - kd[i] * kd[j] * Th[i, j]
    return out


def sym_div_hat(grid, Sh):
    """Reference spectrum of the row divergence (div S)_i = d_j S_ij of a
    symmetric spectrum in the SYM_PAIRS layout, as the package composed it
    with leray_hat before neg_leray_div_hat."""
    kxd, kyd, kzd = grid.deriv_wavenumbers()
    return np.stack(
        [1j * (kxd * Sh[a] + kyd * Sh[b] + kzd * Sh[c]) for a, b, c in _SYM_INDEX]
    )


def sym_outer_reference(u, w):
    """Reference products of sym_outer_hat, one expression per slot."""
    S = np.stack([u[i] * w[j] + w[i] * u[j] for i, j in SYM_PAIRS])
    return _hat(S)


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


@bounded
@given(
    seeds,
    st.sampled_from([8, 16]),
    st.tuples(*[st.integers(min_value=1, max_value=7)] * 3),
)
def test_evaluate_at_points_is_the_trigonometric_sum(seed, n, lengths):
    # real white-noise fields, Nyquist planes included, against the sum over
    # the full DFT spectrum, on points scattered over three periods of the box
    g = Grid(n, GRID.L)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(g.shape)
    axes = tuple(rng.uniform(-1.5 * g.L, 1.5 * g.L, size=m) for m in lengths)
    got = evaluate_at_points(g, axes, _fft.rfftn(values))
    coeffs = np.fft.fftn(values) / values.size
    k = g.k0 * g.modes
    X, Y, Z = np.meshgrid(*[a - g.x[0] for a in axes], indexing="ij")
    phase = (
        X[..., None, None, None] * k[:, None, None]
        + Y[..., None, None, None] * k[None, :, None]
        + Z[..., None, None, None] * k[None, None, :]
    )
    want = np.sum(coeffs * np.exp(1j * phase), axis=(-3, -2, -1)).real
    assert got.shape == lengths
    assert _small(got - want, np.sqrt(np.sum(np.abs(coeffs) ** 2)))


@bounded
@given(seeds, st.tuples(*[st.integers(min_value=1, max_value=24)] * 3))
def test_evaluate_at_points_into_out_is_the_allocating_call(seed, lengths):
    # out is a view inside a larger buffer, off its start, as a slab's is
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(GRID.shape)
    hat = _fft.rfftn(values)
    axes = tuple(rng.uniform(-GRID.L, GRID.L, size=m) for m in lengths)
    want = evaluate_at_points(GRID, axes, hat)
    size = int(np.prod(lengths))
    buf = np.full(2 * size + 3, np.nan)
    out = buf[3 : 3 + size].reshape(lengths)
    got = evaluate_at_points(GRID, axes, hat, out=out)
    assert got is out and np.shares_memory(got, buf)
    assert got.tobytes() == want.tobytes()


def test_evaluate_at_points_rejects_an_out_it_cannot_fill():
    hat = _fft.rfftn(_data(0, ()))
    axes = (np.zeros(2), np.zeros(3), np.zeros(4))
    for out in (np.empty((2, 3, 5)), np.empty((2, 3, 4), dtype=np.float32),
                np.empty((2, 3, 8))[..., ::2]):
        with pytest.raises(ValueError, match="out must be"):
            evaluate_at_points(GRID, axes, hat, out=out)


def test_evaluate_at_points_rejects_coeffs_of_another_shape():
    # a 16^3 spectrum on a 32^3 grid, and a three-component spectrum
    axes = (np.zeros(2), np.zeros(3), np.zeros(4))
    for hat in (_fft.rfftn(_data(0, ())), _fft.rfftn(_data(0, (3,)))):
        want = r"hat shaped %s, the grid needs \(32, 32, 17\)" % (
            str(hat.shape).replace("(", r"\(").replace(")", r"\)"))
        with pytest.raises(ValueError, match=want):
            evaluate_at_points(Grid(32, GRID.L), axes, hat)


def test_phase_tables_are_built_once_per_lattice_read_only_and_bounded():
    hat = _fft.rfftn(_data(0, ()))
    yz = np.linspace(-1.0, 1.0, 9)
    _yz_tables.cache_clear()
    for x0 in range(5):  # five x-slabs of one lattice
        evaluate_at_points(GRID, (np.array([0.1, 0.2]) + x0, yz, yz), hat)
    info = _yz_tables.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    tables = _yz_tables(GRID.n, GRID.k0, GRID.x[0], yz.tobytes(), yz.tobytes())
    assert not any(t.flags.writeable for t in tables)
    for m in range(2, 8):
        evaluate_at_points(GRID, (yz, yz[:m], yz), hat)
    assert _yz_tables.cache_info().currsize == 4


def _full_tensor(Sh):
    # the 3 x 3 spectrum that a six-component symmetric spectrum stands for
    full = np.empty((3, 3) + Sh.shape[1:], dtype=Sh.dtype)
    for c, (i, j) in enumerate(SYM_PAIRS):
        full[i, j] = full[j, i] = Sh[c]
    return full


@bounded
@given(seeds)
def test_symmetric_stress_kernels_match_the_nine_component_ones(seed):
    u, a = _data(seed, (3,)), _data(seed + 1, (3,))
    w = 0.5 * u + a
    full = u[:, None] * u[None, :] + a[:, None] * u[None, :] + u[:, None] * a[None, :]
    Th = _hat(full)
    Sh = sym_outer_hat(u, w)
    assert np.array_equal(Sh, sym_outer_reference(u, w))
    assert SYM_PAIRS == ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    assert _small(_full_tensor(Sh) - Th, np.max(np.abs(Th)))
    assert _small(sym_div_hat(GRID, Sh) - tensor_div_hat(GRID, Th), KMAX * np.max(np.abs(Th)))
    assert _small(sym_ddiv_hat(GRID, Sh) - ddiv_hat(GRID, Th), KMAX**2 * np.max(np.abs(Th)))


def gradient_potential(s, j):
    """Reference d_j (N * s) of one compact source, inverted on its own:
    the doubled grid's truncated kernel -(1 - cos(T|k|))/|k|^2, T = 1.2 L,
    times i k_j, against the zero-padded source. The dx^3 quadrature
    weight and the kernel's 1/dx^3 cancel, so neither appears."""
    n = GRID.n
    big = Grid(2 * n, 2 * GRID.L)
    T = 1.2 * GRID.L
    k2 = np.where(big.k2 > 0.0, big.k2, 1.0)
    nhat = np.where(big.k2 > 0.0, -(1.0 - np.cos(T * np.sqrt(big.k2))) / k2, -0.5 * T * T)
    pad = np.zeros(big.shape)
    pad[:n, :n, :n] = s.values
    hat = 1j * big.wavenumbers()[j] * nhat * _fft.rfftn(pad)
    return _fft.irfftn(hat, big.shape)[:n, :n, :n]


@bounded
@given(seeds)
def test_fourier_summed_gradient_potentials_are_the_sum_of_the_terms(seed):
    # compact white-noise sources inside |x| < L/4, as newtonian_potential_div needs
    inside = GRID.radius() < 0.2 * GRID.L
    sources = [ScalarField(GRID, np.where(inside, s, 0.0)) for s in _data(seed, (3,))]
    want = sum(gradient_potential(s, j) for j, s in enumerate(sources))
    got = newtonian_potential_div(sources).values
    assert _small(got - want, np.max(np.abs(want)))


@bounded
@given(seeds, st.integers(min_value=1, max_value=GRID.n // 2))
def test_fused_projected_divergence_equals_the_composition(seed, half):
    # on the whole spectrum, and on a block of modes |kx|, |ky| < half,
    # kz < half with the multipliers restricted alike
    Sh = _hat(_data(seed, (6,)))
    want = leray_hat(GRID, -sym_div_hat(GRID, Sh))
    got = neg_leray_div_hat(GRID.deriv_wavenumbers(), GRID.k2_d_safe, Sh)
    assert np.array_equal(got, want)
    ix = np.flatnonzero(np.abs(GRID.modes) < half)
    block = (ix[:, None], ix[None, :], slice(0, half))
    kx, ky, kz = GRID.deriv_wavenumbers()
    kd = (kx[ix], ky[:, ix], kz[..., :half])
    got = neg_leray_div_hat(kd, GRID.k2_d_safe[block], Sh[(slice(None),) + block])
    assert np.array_equal(got, want[(slice(None),) + block])


def test_stress_products_are_bit_identical_at_64():
    g = Grid(64, GRID.L)
    rng = np.random.default_rng(64)
    u, a = rng.standard_normal((2, 3) + g.shape)
    w = 0.5 * u + a
    assert np.array_equal(sym_outer_hat(u, w), sym_outer_reference(u, w))
