"""Constant-coefficient operators on the periodic box.

Everything here is an exact Fourier multiplier except the free-space
Newtonian potential, which leaves the periodic setting through a
zero-padded convolution on a doubled grid.
"""

import functools

import numpy as np

from . import _fft
from .fields import Grid, ScalarField, TensorField, VectorField

__all__ = [
    "grad_hat",
    "div_hat",
    "tensor_div_hat",
    "ddiv_hat",
    "leray_hat",
    "derivative",
    "gradient",
    "divergence",
    "tensor_divergence",
    "laplacian",
    "curl",
    "dealias",
    "leray_project",
    "heat_semigroup",
    "riesz_riesz",
    "newtonian_potential",
    "doubled_grid",
    "padded_hat",
    "cropped_inverse",
    "evaluate_at_points",
    "spectral_coefficients",
]


def _inverse(grid, hat):
    return _fft.irfftn(hat, grid.shape, axes=(-3, -2, -1))


def _same_type(field, hat):
    return type(field)(field.grid, _inverse(field.grid, hat))


def apply_multiplier(field, mult):
    """Return the field whose spectrum is mult * field.hat (mult broadcastable)."""
    return _same_type(field, field.hat * mult)


def derivative(f, axis):
    """Spectral partial derivative along axis 0, 1 or 2."""
    k = f.grid.deriv_wavenumbers()[axis]
    return apply_multiplier(f, 1j * k)


# ---------------------------------------------------------------------------
# kernels on rfft spectra: every derivative multiplier uses the
# Nyquist-zeroed wavenumbers, and the projection their matching metric,
# so leray_hat annihilates div_hat exactly. Leading axes of a spectrum are
# components; the last three are the rfft layout of the grid.


def grad_hat(grid, fh):
    """Spectrum of the gradient: out[j] = i k_j fh (components of fh follow)."""
    kxd, kyd, kzd = grid.deriv_wavenumbers()
    return np.stack([1j * kxd * fh, 1j * kyd * fh, 1j * kzd * fh])


def div_hat(grid, vh):
    """Spectrum of the divergence of a vector spectrum vh[i]."""
    kxd, kyd, kzd = grid.deriv_wavenumbers()
    return 1j * (kxd * vh[0] + kyd * vh[1] + kzd * vh[2])


def tensor_div_hat(grid, Th):
    """Spectrum of the row-wise divergence (div T)_i = d_j T_ij."""
    kxd, kyd, kzd = grid.deriv_wavenumbers()
    return 1j * (kxd * Th[:, 0] + kyd * Th[:, 1] + kzd * Th[:, 2])


def ddiv_hat(grid, Th):
    """Spectrum of the double divergence d_i d_j T_ij."""
    kd = grid.deriv_wavenumbers()
    out = 0.0
    for i in range(3):
        for j in range(3):
            out = out - kd[i] * kd[j] * Th[i, j]
    return out


def leray_hat(grid, vh):
    """Spectrum of the divergence-free part of a vector spectrum vh.

    The zero mode passes through unchanged (constants are divergence-free);
    gradients are annihilated; divergence-free fields are fixed points.
    """
    kd = grid.deriv_wavenumbers()
    fac = (kd[0] * vh[0] + kd[1] * vh[1] + kd[2] * vh[2]) / grid.k2_d_safe
    return np.stack([vh[i] - kd[i] * fac for i in range(3)])


def gradient(f):
    """Gradient of a scalar field as a VectorField, of a VectorField as the
    TensorField holding d_j v_i at [j, i]."""
    cls = VectorField if isinstance(f, ScalarField) else TensorField
    return cls(f.grid, _inverse(f.grid, grad_hat(f.grid, f.hat)))


def divergence(v):
    """Divergence of a VectorField as a ScalarField."""
    return ScalarField(v.grid, _inverse(v.grid, div_hat(v.grid, v.hat)))


def tensor_divergence(T):
    """Row-wise divergence (div T)_i = d_j T_ij of a TensorField."""
    return VectorField(T.grid, _inverse(T.grid, tensor_div_hat(T.grid, T.hat)))


def laplacian(f):
    return apply_multiplier(f, -f.grid.k2)


def curl(v):
    """Spectral curl of a VectorField; exactly annihilated by divergence."""
    G = grad_hat(v.grid, v.hat)  # G[j, i] = d_j v_i
    hat = np.stack([G[1, 2] - G[2, 1], G[2, 0] - G[0, 2], G[0, 1] - G[1, 0]])
    return VectorField(v.grid, _inverse(v.grid, hat))


def dealias(f):
    """Zero all modes with any axis index >= n/3 (2/3 rule)."""
    return _same_type(f, f.hat * f.grid.dealias_mask)


def leray_project(f):
    """Project a VectorField onto divergence-free fields (see leray_hat)."""
    return VectorField(f.grid, _inverse(f.grid, leray_hat(f.grid, f.hat)))


def heat_semigroup(f, t):
    """Heat flow e^{t Lap} f via the multiplier exp(-|xi|^2 t).

    t = 0 returns the field unchanged (exact identity); negative times are
    rejected since the backward flow is ill-posed on rough data.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("heat semigroup needs t >= 0, got %g" % t)
    if t == 0.0:
        return type(f)(f.grid, f.data)
    return apply_multiplier(f, np.exp(-f.grid.k2 * t))


def riesz_riesz(f, i, j):
    """Composition R_i R_j of Riesz transforms: multiplier -xi_i xi_j / |xi|^2.

    The zero mode maps to zero, so sum_i R_i R_i f = -(f - mean f).
    """
    g = f.grid
    if i == j:
        k = g.wavenumbers()[i]
        num = -(k * k)
    else:
        kd = g.deriv_wavenumbers()
        num = -(kd[i] * kd[j])
    return apply_multiplier(f, num / g.k2_safe)


# ---------------------------------------------------------------------------
# free-space Newtonian potential

# truncation radius for the kernel, in units of L; see _kernel_hat
_TRUNCATION = 1.2


def doubled_grid(grid):
    """The grid of side 2L and 2n cells that free-space convolutions run on."""
    return Grid(2 * grid.n, 2 * grid.L)


def padded_hat(grid, values):
    """rfftn of box values zero-padded into the low corner of the doubled grid."""
    n = grid.n
    pad = np.zeros((2 * n, 2 * n, 2 * n))
    pad[:n, :n, :n] = values
    return _fft.rfftn(pad)


def cropped_inverse(grid, hat):
    """Values on the original box of a doubled-grid spectrum (undoes padded_hat)."""
    n = grid.n
    return _fft.irfftn(hat, (2 * n, 2 * n, 2 * n))[:n, :n, :n]


@functools.lru_cache(maxsize=4)
def _kernel_hat(grid, deriv_order):
    """Fourier-side truncated kernel N_T = N * chi_{|x| < T} on the doubled grid.

    The transform of -chi_{|x|<T}/(4 pi |x|) is -(1 - cos(T|k|))/|k|^2, which
    is smooth, so no real-space sampling of the singularity is needed and the
    convolution is exact for the trigonometric interpolant of the source.
    Truncating at T = 1.2 L is transparent: with the source confined to
    |x| < L/4 and results read off inside the original box, genuine pair
    distances stay below 1.12 L < T while periodic-image distances on the
    doubled torus exceed 1.25 L > T, so chi never clips a real interaction
    and never admits a spurious one.

    At most four kernels are kept: at n = 128 the deriv_order 0 kernel takes
    68 MB and the three deriv_order 1 kernels 406 MB.
    """
    big = doubled_grid(grid)
    T = _TRUNCATION * grid.L
    k2 = big.k2
    kk = np.sqrt(k2)
    den = np.where(k2 > 0.0, k2, 1.0)
    nhat = np.where(k2 > 0.0, -(1.0 - np.cos(T * kk)) / den, -0.5 * T * T)
    # compensate the dx^3 quadrature weight applied by the caller
    nhat /= big.cell_volume
    out = (nhat,) if deriv_order == 0 else tuple(1j * k * nhat for k in big.wavenumbers())
    for arr in out:
        arr.flags.writeable = False
    return out


def _check_potential_support(f):
    g = f.grid
    outside = g.radius() >= 0.25 * g.L
    worst = np.max(np.abs(f.values[outside])) if np.any(outside) else 0.0
    scale = np.max(np.abs(f.values))
    if scale > 0.0 and worst > 1e-12 * scale:
        raise ValueError(
            "source must vanish outside |x| < L/4 (periodic images would "
            "alias the free-space kernel); found %g there" % worst
        )


def newtonian_potential(f, deriv_order=0):
    """Convolve a compactly supported scalar with N(x) = -1/(4 pi |x|).

    deriv_order 0 returns N * f; deriv_order 1 returns the three components
    of (grad N) * f = grad(N * f). The convolution is carried out on a
    zero-padded doubled grid with a spherically truncated kernel built in
    Fourier space, so it is an exact free-space convolution of the
    trigonometric interpolant of the source; see _kernel_hat.

    The source must vanish outside the ball |x| < L/4.
    """
    if deriv_order not in (0, 1):
        raise ValueError("deriv_order must be 0 or 1")
    _check_potential_support(f)
    g = f.grid
    phat = padded_hat(g, f.values)
    comps = tuple(
        ScalarField(g, cropped_inverse(g, phat * kh) * g.cell_volume)
        for kh in _kernel_hat(g, deriv_order)
    )
    return comps[0] if deriv_order == 0 else comps


# ---------------------------------------------------------------------------
# off-lattice evaluation of band-limited fields


def spectral_coefficients(values):
    """Full complex DFT coefficients normalized for point evaluation."""
    values = np.asarray(values)
    return _fft.fftn(values) / values.size


def evaluate_at_points(f, axes_coords, coeffs=None):
    """Evaluate a (band-limited) scalar field on a tensor lattice of points.

    axes_coords is a triple of 1-D coordinate arrays (absolute positions,
    any values; periodicity is automatic). Returns an array of shape
    (len(x), len(y), len(z)) with the trigonometric interpolant of f,
    which is exact for band-limited data. Pass coeffs from
    spectral_coefficients(f.values) to amortize the transform over sweeps.

    The x and then the y axis are contracted in complex arithmetic over
    the full spectrum, giving D[x, y, c] for the n FFT indices c of z.
    The z axis is contracted in real arithmetic through the exact identity

        Re sum_c D_c e^{i k_c z'} = sum_{c=0..N} P_c cos(c k0 z')
                                    + sum_{c=1..N} Q_c sin(c k0 z'),

    N = n/2, z' = z - x[0], with P_0 = Re D_0, P_N = Re D_N, Q_N = Im D_N
    (FFT index N carries mode -N) and, for 0 < c < N,
    P_c = Re D_c + Re D_{n-c}, Q_c = Im D_{n-c} - Im D_c. No Hermitian
    symmetry is assumed, so Nyquist content enters as it stands. The last
    step is one real matrix product into the output.
    """
    g = f.grid
    if coeffs is None:
        coeffs = spectral_coefficients(f.values)
    n, half = g.n, g.n // 2
    # FFT index 0 sits at x = -L/2, so phases use box-relative offsets
    rel = [np.asarray(c, dtype=np.float64) - g.x[0] for c in axes_coords]
    k = g.k0 * g.modes
    Ex = np.exp(1j * np.outer(rel[0], k))
    Ey = np.exp(1j * np.outer(rel[1], k))
    D = np.matmul(Ey, np.tensordot(Ex, coeffs, axes=(1, 0)))  # D[x, y, c]
    PQ = np.empty(D.shape[:2] + (n + 1,))  # P_0..P_N, then Q_1..Q_N
    PQ[..., 0] = D[..., 0].real
    PQ[..., 1:half] = D[..., 1:half].real + D[..., n - 1 : half : -1].real
    PQ[..., half] = D[..., half].real
    PQ[..., half + 1 : n] = D[..., n - 1 : half : -1].imag - D[..., 1:half].imag
    PQ[..., n] = D[..., half].imag
    phase = np.outer(g.k0 * np.arange(half + 1), rel[2])
    basis = np.concatenate([np.cos(phase), np.sin(phase[1:])])
    out = PQ.reshape(-1, n + 1) @ basis
    return out.reshape(D.shape[:2] + (len(rel[2]),))
