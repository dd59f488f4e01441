"""Constant-coefficient operators on the periodic box.

Everything here is an exact Fourier multiplier except the free-space
Newtonian potential (of a scalar, or of the divergence of a vector),
Riesz sum and linear convolution, which leave the periodic setting
through zero-padded convolutions on a doubled grid. This module owns
their truncated kernels and the doubled-grid layout. The potential and
the Riesz sum run one loop, _free_sum: pad and transform each source,
scale its spectrum in place, add it to one sum, crop one inverse. Each
source builds its factor, a function of |k|^2, on a quadrant (_blocks)
after its transform; none is kept. free_convolution pads both of its
factors and returns the whole doubled grid, so it stays apart.
"""

import functools
import operator

import numpy as np

from . import _fft
from .fields import ScalarField, TensorField, VectorField

__all__ = [
    "grad_hat",
    "div_hat",
    "tensor_div_hat",
    "leray_hat",
    "SYM_PAIRS",
    "SYM_INDEX",
    "sym_outer_hat",
    "sym_ddiv_hat",
    "neg_leray_div_hat",
    "gradient",
    "divergence",
    "laplacian",
    "curl",
    "leray_project",
    "heat_semigroup",
    "newtonian_potential",
    "free_riesz_sum",
    "free_convolution",
    "evaluate_at_points",
]


def _inverse(grid, hat):
    return _fft.irfftn(hat, grid.shape)


def apply_multiplier(field, mult):
    """Return the field whose spectrum is mult * field.hat (mult broadcastable)."""
    return type(field)(field.grid, _inverse(field.grid, field.hat * mult))


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


# symmetric tensors are stored as their six distinct components S_ij,
# (i, j) in this order; SYM_INDEX[i][j] is the slot of S_ij = S_ji
SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
SYM_INDEX = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def sym_outer_hat(u, w):
    """Spectrum of the symmetric product S = u x w + w x u of two vector
    arrays (3, n, n, n): S_ij = u_i w_j + w_i u_j, six components in the
    order of SYM_PAIRS. u x u is sym_outer_hat(u, u / 2), and
    u x u + a x u + u x a is sym_outer_hat(u, u / 2 + a)."""
    S = np.empty((6,) + u.shape[1:])
    scratch = np.empty(u.shape[1:])
    for c, (i, j) in enumerate(SYM_PAIRS):
        np.multiply(u[i], w[j], out=S[c])
        if i == j:
            S[c] *= 2.0  # u_i w_i + w_i u_i, the same bits
        else:
            S[c] += np.multiply(w[i], u[j], out=scratch)
    return _fft.rfftn(S)


def sym_ddiv_hat(grid, Sh):
    """Spectrum of d_i d_j S_ij for a symmetric spectrum in the SYM_PAIRS
    layout: off-diagonal slots count twice."""
    kd = grid.deriv_wavenumbers()
    out = 0.0
    for c, (i, j) in enumerate(SYM_PAIRS):
        w = 1.0 if i == j else 2.0
        out = out - w * (kd[i] * kd[j]) * Sh[c]
    return out


def neg_leray_div_hat(kd, k2_d_safe, Sh):
    """Spectrum of -P div S, the Leray projection of minus the row
    divergence (div S)_i = d_j S_ij of a symmetric spectrum Sh in the
    SYM_PAIRS layout. kd and k2_d_safe are grid.deriv_wavenumbers() and
    grid.k2_d_safe, or their restriction to a block of modes with Sh
    restricted alike. -i k_j is one exact complex factor, so this equals
    leray_hat(grid, -(i k_j S_ij)) mode by mode; only the sign of a zero
    can differ."""
    mik = [-1j * k for k in kd]
    return _project(
        kd, k2_d_safe, [mik[0] * Sh[a] + mik[1] * Sh[b] + mik[2] * Sh[c] for a, b, c in SYM_INDEX]
    )


def _project(kd, k2_d_safe, vh):
    fac = (kd[0] * vh[0] + kd[1] * vh[1] + kd[2] * vh[2]) / k2_d_safe
    return np.stack([vh[i] - kd[i] * fac for i in range(3)])


def leray_hat(grid, vh):
    """Spectrum of the divergence-free part of a vector spectrum vh.

    The zero mode passes through unchanged (constants are divergence-free);
    gradients are annihilated; divergence-free fields are fixed points.
    """
    return _project(grid.deriv_wavenumbers(), grid.k2_d_safe, vh)


def gradient(f):
    """Gradient of a scalar field as a VectorField, of a VectorField as the
    TensorField holding d_j v_i at [j, i]."""
    cls = VectorField if isinstance(f, ScalarField) else TensorField
    return cls(f.grid, _inverse(f.grid, grad_hat(f.grid, f.hat)))


def divergence(v):
    """Divergence of a VectorField as a ScalarField."""
    return ScalarField(v.grid, _inverse(v.grid, div_hat(v.grid, v.hat)))


def laplacian(f):
    return apply_multiplier(f, -f.grid.k2)


def curl(v):
    """Spectral curl of a VectorField; exactly annihilated by divergence."""
    G = grad_hat(v.grid, v.hat)  # G[j, i] = d_j v_i
    hat = np.stack([G[1, 2] - G[2, 1], G[2, 0] - G[0, 2], G[0, 1] - G[1, 0]])
    return VectorField(v.grid, _inverse(v.grid, hat))


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


# ---------------------------------------------------------------------------
# free-space convolutions on the doubled grid

# truncation radius of both free-space kernels, in units of L; this module
# is its one owner (see _kernel_hat and _riesz_factor)
_TRUNCATION = 1.2


def _padded_hat(grid, values):
    """rfftn of box values zero-padded into the low corner of the doubled grid."""
    n = grid.n
    pad = np.zeros((2 * n, 2 * n, 2 * n))
    pad[:n, :n, :n] = values
    return _fft.rfftn(pad)


def free_convolution(f, kernel):
    """Linear (free-space) convolution of two scalar fields on the
    zero-padded doubled grid.

    Both fields are read as compactly supported on the box; the result is
    returned as raw values on the whole doubled grid.
    """
    if f.grid != kernel.grid:
        raise ValueError("convolution factors live on different grids")
    if not (isinstance(f, ScalarField) and isinstance(kernel, ScalarField)):
        raise ValueError("convolution check takes scalar fields")
    g = f.grid
    hat = _padded_hat(g, f.values) * _padded_hat(g, kernel.values)
    return _fft.irfftn(hat, (2 * g.n,) * 3) * g.cell_volume


def _blocks(n, L, factor, origin):
    """A factor of |k|^2 alone on the doubled grid (side 2L, 2n cells): four
    blocks of its rfft layout, rows and columns 0..n or n+1..2n-1, as (index,
    factor, Grid(2n, 2L)'s (kx, ky, kz)) there. All read one (n+1)^3 quadrant,
    at rows and columns 0..n or n-1..1, as (k0 m)^2 = (k0 (-m))^2 exactly;
    factor of k2 > 0 is evaluated on its half m_x <= m_y and copied to the
    x-y transpose, whose k2 is bit-identical; origin is the value at k = 0."""
    k0 = 2.0 * np.pi / (2.0 * L)
    k = k0 * np.arange(n + 1.0)  # Grid(2n, 2L).kx for m >= 0
    i, j = np.triu_indices(n + 1)
    k2 = (k[i] ** 2 + k[j] ** 2)[:, None] + k[None, :] ** 2
    k2[0, 0] = 1.0  # k = 0: set to origin below
    half = factor(k2)
    half[0, 0] = origin
    q = np.empty((n + 1,) * 3)
    q[i, j] = q[j, i] = half
    kxy = k0 * np.fft.fftfreq(2 * n, d=1.0 / (2 * n))
    halves = ((slice(0, n + 1), slice(0, n + 1)), (slice(n + 1, 2 * n), slice(n - 1, 0, -1)))
    return [((fx, fy), q[qx, qy], (kxy[fx, None, None], kxy[None, fy, None], k[None, None, :]))
            for fx, qx in halves for fy, qy in halves]


def _kernel_hat(n, L):
    """The Fourier-side truncated kernel N_T = N * chi_{|x| < T} on the
    doubled grid of Grid(n, L) in _blocks, built per source;
    newtonian_potential forms k_j N_T block by block.

    The transform of -chi_{|x|<T}/(4 pi |x|) is -(1 - cos(T|k|))/|k|^2, which
    is smooth, so no real-space sampling of the singularity is needed and the
    convolution is exact for the trigonometric interpolant of the source.
    Truncating at T = 1.2 L is transparent: with the source confined to
    |x| < L/4 and results read off inside the original box, genuine pair
    distances stay below 1.12 L < T while periodic-image distances on the
    doubled torus exceed 1.25 L > T, so chi never clips a real interaction
    and never admits a spurious one. The factor carries 1 / dx^3, which
    compensates the quadrature weight the caller applies.
    """
    T = _TRUNCATION * L
    cell = (L / n) ** 3  # Grid(2n, 2L).cell_volume
    return _blocks(n, L, lambda k2: -(1.0 - np.cos(T * np.sqrt(k2))) / k2 / cell,
                   -0.5 * T * T / cell)


def _riesz_factor(n, L):
    """free_riesz_sum's truncated traceless factor gfac on the doubled grid
    of Grid(n, L) in _blocks, built per source."""
    T = _TRUNCATION * L

    def factor(k2):
        ks = np.multiply(T, np.sqrt(k2, out=k2), out=k2)  # T |k|, in k2's buffer
        return 1.0 - 3.0 * (np.sin(ks) - ks * np.cos(ks)) / ks**3

    return _blocks(n, L, factor, 0.0)


def _check_support(grid, sources):
    """Refuse any source that reaches |x| >= L/4 (one mask for all)."""
    outside = grid.radius() >= 0.25 * grid.L
    for values in sources:
        worst = np.max(np.abs(values[outside]))
        if worst > 1e-12 * np.max(np.abs(values)):
            raise ValueError(
                "source must vanish outside |x| < L/4 (periodic images would "
                "alias the free-space kernel); found %g there" % worst
            )


def _free_sum(grid, sources, scale):
    """Box values of sum_c scale(c, hat_c), hat_c the doubled-grid spectrum
    of sources[c]: scale multiplies hat_c in place, the terms are summed in
    Fourier space and cropped back through one inverse transform. Each
    source's spectrum is dropped before the next transform, so the
    transient is three doubled-grid spectra, (2n)^2 (n+1) complex128 each,
    and only while a source is transformed: the sum, the padded cube and
    its spectrum.

    Every source must vanish outside the ball |x| < L/4.
    """
    _check_support(grid, sources)
    acc = None
    for c, values in enumerate(sources):
        hat = _padded_hat(grid, values)
        scale(c, hat)
        acc = hat if acc is None else operator.iadd(acc, hat)
        del hat  # not held through the next transform
    n = grid.n
    return _fft.irfftn(acc, (2 * n, 2 * n, 2 * n))[:n, :n, :n]


def newtonian_potential(f):
    """Free-space Newtonian potential N * f of a compactly supported
    ScalarField f, N(x) = -1/(4 pi |x|), or N * div f = sum_j d_j (N * f_j)
    of a VectorField f, whose term j is i k_j N_T times the spectrum of f_j.

    The convolution is carried out on a zero-padded doubled grid with a
    spherically truncated kernel built in Fourier space, so it is an exact
    free-space convolution of the trigonometric interpolant of the source;
    see _kernel_hat. A scalar takes one padded forward transform and one
    inverse, a vector three forward and one inverse (_free_sum).

    Every source must vanish outside the ball |x| < L/4.
    """
    if not isinstance(f, (ScalarField, VectorField)):
        raise ValueError("newtonian_potential takes a ScalarField (N * f) or a VectorField "
                         "(N * div f), got %s" % type(f).__name__)
    g = f.grid
    scalar = isinstance(f, ScalarField)
    sources = [f.values] if scalar else f.data

    def scale(c, hat):
        for full, nq, k in _kernel_hat(g.n, g.L):
            hat[full] *= nq if scalar else k[c] * nq  # the bits of (k_c N_T) * hat
        if not scalar:
            hat *= 1j
    return ScalarField(g, _free_sum(g, sources, scale) * g.cell_volume)


def free_riesz_sum(grid, S):
    """Free-space sum_ij R_i R_j T_ij of a symmetric tensor T given by its
    six components S in the SYM_PAIRS order, via the doubled periodic grid.

    The operator splits into its local part, -trace/3, applied pointwise
    with no convolution at all, and a traceless principal-value kernel.
    The latter is spherically truncated like the Newtonian kernel; its
    Fourier factor comes from integrating the spherical Bessel identity
    d/dz (j1(z)/z) = -j2(z)/z out to the truncation radius. Trace
    sources therefore see the exact answer pointwise, and compact
    off-trace sources see the free-space kernel with no periodic-image
    contribution.

    The two parts share one multiplier per component, so the sum holds
    one spectrum: qh = sum_c m_c S_c with m_ij = -w_ij gfac k_i k_j / |k|^2
    - delta_ij (1 - gfac) / 3, w_ij the SYM_PAIRS weight. Each m_c is made
    block by block after its component's transform, from gfac built there
    (_riesz_factor), so the transient stays the three doubled-grid spectra
    of _free_sum.

    Every component must vanish outside the ball |x| < L/4.
    """
    def scale(c, hat):
        i, j = SYM_PAIRS[c]
        for full, gfac, k in _riesz_factor(grid.n, grid.L):
            m = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
            np.divide(gfac, m, out=m, where=m > 0.0)  # gfac and m are 0 at k = 0
            if i == j:  # (gfac - 1 - 3 gfac k_i^2 / |k|^2) / 3
                m *= -3.0 * k[i] ** 2
                m += gfac
                m -= 1.0
                m /= 3.0
            else:
                m *= -2.0 * k[i] * k[j]
            hat[full] *= m

    return ScalarField(grid, _free_sum(grid, S, scale))


# ---------------------------------------------------------------------------
# off-lattice evaluation of band-limited fields


@functools.lru_cache(maxsize=4)
def _yz_tables(n, k0, x0, y_bytes, z_bytes):
    """The y and z phase tables of evaluate_at_points, read-only: Ey0,
    e^{i k y'} on the n FFT modes; Ey, the same with the Nyquist column
    folded to cos(N k0 y') and sin(N k0 y') appended; and the z basis,
    which also carries the interpolant's 1/n^3. They depend on the grid
    and the y and z coordinates only, so all the x-slabs of one lattice
    share them. At most four sets are kept."""
    half = n // 2
    rel_y = np.frombuffer(y_bytes) - x0
    rel_z = np.frombuffer(z_bytes) - x0
    k = k0 * np.fft.fftfreq(n, d=1.0 / n)  # Grid.modes
    Ey0 = np.exp(1j * np.outer(rel_y, k))
    Ey = np.empty((len(rel_y), n + 1), dtype=np.complex128)
    Ey[:, :n] = Ey0
    Ey[:, half] = np.cos(half * k0 * rel_y)
    Ey[:, n] = np.sin(half * k0 * rel_y)
    phase = np.outer(k0 * np.arange(half + 1), rel_z)
    basis = np.empty((n + 1, len(rel_z)))
    basis[0::2] = np.cos(phase)
    basis[1::2] = -np.sin(phase[:half])
    basis[1] = np.sin(phase[half])
    basis[2:n] *= 2.0
    basis /= float(n) ** 3  # a power of two: exact, and commutes with every rounding
    for arr in (Ey0, Ey, basis):
        arr.flags.writeable = False
    return Ey0, Ey, basis


def evaluate_at_points(grid, axes_coords, hat, out=None):
    """Evaluate a band-limited real scalar field on a tensor lattice of points.

    hat is the rfftn of the field's values on grid, shaped (n, n, n//2 + 1),
    as a field's .hat is. axes_coords is a triple of 1-D coordinate arrays
    (absolute positions, any values; periodicity is automatic). Returns an
    array of shape (len(x), len(y), len(z)) with the trigonometric
    interpolant of the field, which is exact for band-limited data. Pass
    out, a C-contiguous float64 array of the output's shape, to have the
    values written into it (and out returned). The y and z phase tables
    are kept across calls (_yz_tables), so a lattice evaluated x-slab by
    x-slab builds them once.

    The interpolant is Re sum over the full DFT spectrum C = fftn / n^3,

        Re sum_{a,b,c} C_abc e^{i (k_a x' + k_b y' + k_c z')},

    with primed offsets from x[0] and FFT index N = n/2 carrying mode -N,
    Nyquist content included. Only the rfft half c = 0..N is stored. Let
    D[x, y, c] be its x and y contraction. The mirrored columns follow
    from C_{-a,-b,-c} = conj C_abc: D_{n-c} = conj D~_c, where D~ is the
    same contraction with both Nyquist phases flipped to e^{+iN k0 .}.
    Averaging the two phases folds the mirror into one contraction:

    S = (D + D~) / 2 = D + i sx Ry + i sy Rx,

    sx = sin(N k0 x'), sy = sin(N k0 y'), and Rx, Ry the contractions of
    the Nyquist rows C[:, N, c] and C[N, :, c] with the Nyquist phase
    cos(N k0 .). So S is the contraction with Nyquist phases cos(N k0 .)
    on both axes plus -sx sy C[N, N, c], which rides as one extra y
    column sy against one extra row -sx C[N, N, c] of the x contraction.
    The z axis is then contracted in real arithmetic through the identity

        Re sum_c D_c e^{i k_c z'} = sum_{c=0..N} P_c cos(c k0 z')
                                    + sum_{c=1..N} Q_c sin(c k0 z'),

    with P_c = 2 Re S_c and Q_c = -2 Im S_c for 0 < c < N, P_0 = Re S_0
    and P_N = Re S_N (D_0 and D_N equal their flipped conjugates), and
    Q_N = Im D_N from one contraction of the Nyquist z-plane with the
    original phases. Im S_0 vanishes, so Q_N takes its slot and the
    interleaved real and imaginary parts of S are the left factor of one
    real matrix product into the output, with the factors 2, -2 and
    1/n^3 in the right one; n is a power of two, so the 1/n^3 is exact.
    """
    n, half = grid.n, grid.n // 2
    if hat.shape != (n, n, half + 1):
        raise ValueError("hat shaped %r, the grid needs %r" % (hat.shape, (n, n, half + 1)))
    x, y, z = (np.asarray(c, dtype=np.float64) for c in axes_coords)
    shape = (len(x), len(y), len(z))
    if out is not None and (out.shape != shape or out.dtype != np.float64
                            or not out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float64 array of shape %r, got %s %r"
                         % (shape, out.dtype, out.shape))
    Ey0, Ey, basis = _yz_tables(n, grid.k0, grid.x[0], y.tobytes(), z.tobytes())
    # FFT index 0 sits at x = -L/2, so phases use box-relative offsets
    rel = x - grid.x[0]
    Ex = np.exp(1j * np.outer(rel, grid.k0 * grid.modes))
    qn = ((Ex @ hat[:, :, half]) @ Ey0.T).imag  # Im D_N, before the folding
    Ex[:, half] = np.cos(half * grid.k0 * rel)
    A = np.empty((len(x), n + 1, half + 1), dtype=np.complex128)  # A[x, b, c]
    A[:, :n] = np.tensordot(Ex, hat, axes=(1, 0))
    np.multiply.outer(-np.sin(half * grid.k0 * rel), hat[half, half], out=A[:, n])
    S = np.matmul(Ey, A)  # S[x, y, c]
    S[..., 0].imag = qn
    # Re S_0, Q_N, Re S_1, Im S_1, ..., Re S_N; the slot of Im S_N is dropped
    left = S.view(np.float64).reshape(-1, n + 2)[:, : n + 1]
    if out is None:
        return (left @ basis).reshape(shape)
    np.matmul(left, basis, out=out.reshape(-1, len(z)))
    return out
