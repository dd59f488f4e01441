"""Periodic grid and field containers.

The box is [-L/2, L/2)^3 with n uniform cells per axis. All spectra use the
real-to-complex layout (last axis halved). Fields are immutable after
construction: each stores a read-only view of its input array (no copy,
the caller's array stays writeable) and every operation allocates a new
field, so fields can be shared across threads freely. A caller that
writes to an array after wrapping it changes the field too.
"""

import functools

import numpy as np

from . import _fft

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "TensorField",
    "SpaceTimeField",
    "outer",
    "taylor_green",
    "taylor_green_3d",
    "gaussian_bump",
    "ball_indicator",
    "smooth_radial_cutoff",
    "smoothstep",
    "nonic_step",
]


def _read_only_cache(build):
    """A cached_property whose array is built at first use, read-only."""
    def get(self):
        a = build(self)
        a.flags.writeable = False
        return a
    return functools.cached_property(get)


class Grid:
    """Uniform periodic grid on the cube [-L/2, L/2)^3.

    Parameters
    ----------
    n : int
        Cells per axis. Must be a power of two, n >= 8.
    L : float
        Box side length. Must exceed 8 so that the unit-scale balls the
        experiments live on sit well inside one period.
    """

    def __init__(self, n, L):
        n = int(n)
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("grid size must be a power of two, n >= 8, got %d" % n)
        L = float(L)
        if not L > 8.0:
            raise ValueError("box side must exceed 8, got %g" % L)
        self.n = n
        self.L = L
        self.dx = L / n
        self.cell_volume = self.dx ** 3
        self.shape = (n, n, n)

        self.x = -L / 2.0 + self.dx * np.arange(n)

        # integer mode numbers in FFT layout; last axis stores the rfft half
        m = np.fft.fftfreq(n, d=1.0 / n)
        mr = np.arange(n // 2 + 1, dtype=float)
        self.modes = m
        self.modes_r = mr

        k0 = 2.0 * np.pi / L
        self.k0 = k0
        self.kx = (k0 * m)[:, None, None]
        self.ky = (k0 * m)[None, :, None]
        self.kz = (k0 * mr)[None, None, :]
        self.k2 = self.kx ** 2 + self.ky ** 2 + self.kz ** 2

        # odd multipliers (derivatives, Riesz) have no well-defined sign at
        # the Nyquist plane; zero it there and keep the corpus band-limited
        md = m.copy()
        md[n // 2] = 0.0
        mdr = mr.copy()
        mdr[-1] = 0.0
        self.kx_d = (k0 * md)[:, None, None]
        self.ky_d = (k0 * md)[None, :, None]
        self.kz_d = (k0 * mdr)[None, None, :]

        for a in (self.x, self.k2):
            a.flags.writeable = False

    # built at first use: the doubled grids of spectral's caches read none
    @_read_only_cache
    def k2_safe(self):
        return np.where(self.k2 > 0, self.k2, 1.0)

    @_read_only_cache
    def k2_d(self):
        # metric matching the derivative wavenumbers: projections built with
        # it annihilate the discrete divergence exactly, Nyquist content
        # included (pure-Nyquist modes are divergence-invisible and pass)
        return self.kx_d ** 2 + self.ky_d ** 2 + self.kz_d ** 2

    @_read_only_cache
    def k2_d_safe(self):
        return np.where(self.k2_d > 0, self.k2_d, 1.0)

    @_read_only_cache
    def dealias_mask(self):
        # 2/3 rule: keep |m| < n/3 per axis
        keep, keep_r = np.abs(self.modes) < self.n / 3.0, self.modes_r < self.n / 3.0
        return keep[:, None, None] & keep[None, :, None] & keep_r[None, None, :]

    def coords(self):
        """Broadcastable coordinates (X, Y, Z) shaped (n,1,1), (1,n,1), (1,1,n)."""
        return (
            self.x[:, None, None],
            self.x[None, :, None],
            self.x[None, None, :],
        )

    def minimal_image(self, delta):
        """Wrap coordinate offsets into [-L/2, L/2)."""
        return (np.asarray(delta) + 0.5 * self.L) % self.L - 0.5 * self.L

    def radius(self, center=(0.0, 0.0, 0.0)):
        """Periodic distance of each cell center from `center`, shape (n,n,n)."""
        dx = self.minimal_image(self.x - center[0])
        dy = self.minimal_image(self.x - center[1])
        dz = self.minimal_image(self.x - center[2])
        return np.sqrt(
            dx[:, None, None] ** 2 + dy[None, :, None] ** 2 + dz[None, None, :] ** 2
        )

    def wavenumbers(self):
        return self.kx, self.ky, self.kz

    def deriv_wavenumbers(self):
        return self.kx_d, self.ky_d, self.kz_d

    def __eq__(self, other):
        return (
            isinstance(other, Grid) and self.n == other.n and self.L == other.L
        )

    def __hash__(self):
        return hash((self.n, self.L))

    def __repr__(self):
        return "Grid(n=%d, L=%.12g)" % (self.n, self.L)


def _freeze(a, dtype=np.float64):
    # a read-only view: the caller's own array keeps its flags
    a = np.ascontiguousarray(a, dtype=dtype).view()
    a.flags.writeable = False
    return a


class _Field:
    """Common storage: real data plus a lazily cached rfft spectrum."""

    _rank_shape = None  # leading component shape, () for scalars

    def __init__(self, grid, data):
        data = np.asarray(data, dtype=np.float64)
        want = self._rank_shape + grid.shape
        if data.shape != want:
            raise ValueError(
                "expected data of shape %s, got %s" % (want, data.shape)
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("field contains non-finite values")
        self.grid = grid
        self.data = _freeze(data)
        self._hat = None

    @classmethod
    def from_hat(cls, grid, hat):
        """The field whose rfft spectrum is hat, kept as its cached .hat (no
        forward transform). hat must be Hermitian on the kz = 0 and Nyquist
        planes up to round-off, as spectra made from rfftn outputs by real
        even and odd multipliers are; .hat then equals rfftn(data) to
        round-off. hat is stored as a read-only view, like data."""
        want = cls._rank_shape + grid.shape[:2] + (grid.n // 2 + 1,)
        if hat.shape != want:
            raise ValueError("expected a spectrum of shape %s, got %s" % (want, hat.shape))
        field = cls(grid, _fft.irfftn(hat, grid.shape))
        field._hat = _freeze(hat, np.complex128)
        return field

    @property
    def hat(self):
        """rfftn of the data over the spatial axes (cached)."""
        if self._hat is None:
            h = _fft.rfftn(self.data)
            h.flags.writeable = False
            self._hat = h
        return self._hat

    def l2(self):
        """Plain L^2 norm over the whole box."""
        return float(np.sqrt(np.sum(self.data ** 2) * self.grid.cell_volume))


class ScalarField(_Field):
    _rank_shape = ()

    @property
    def values(self):
        return self.data

    def mean(self):
        return float(np.mean(self.data))


class VectorField(_Field):
    _rank_shape = (3,)

    def magnitude(self):
        return np.sqrt(np.sum(self.data ** 2, axis=0))

    def component(self, i):
        return ScalarField(self.grid, self.data[i])


class TensorField(_Field):
    _rank_shape = (3, 3)


def outer(u, v):
    """Tensor product field (u_i v_j)_{ij}."""
    if u.grid != v.grid:
        raise ValueError("grids differ")
    return TensorField(u.grid, u.data[:, None] * v.data[None, :])


class SpaceTimeField:
    """Uniformly sampled time sequence of same-rank fields on one grid.

    frames has shape (m,) + component shape + (n,n,n); times must be
    strictly increasing with uniform spacing. Snapshots are exposed as
    fields through __getitem__.
    """

    def __init__(self, grid, times, frames):
        times = np.asarray(times, dtype=np.float64)
        frames = np.asarray(frames, dtype=np.float64)
        if times.ndim != 1 or len(times) < 1 or frames.shape[0] != len(times):
            raise ValueError("times and frames disagree")
        if len(times) > 1:
            steps = np.diff(times)
            if np.any(steps <= 0):
                raise ValueError("times must increase")
            if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
                raise ValueError("time sampling must be uniform")
        rank = frames.ndim - 4
        if rank == 0:
            self._cls = ScalarField
        elif rank == 1 and frames.shape[1] == 3:
            self._cls = VectorField
        elif rank == 2 and frames.shape[1:3] == (3, 3):
            self._cls = TensorField
        else:
            raise ValueError("frames shape %s not scalar/vector/tensor" % (frames.shape,))
        if frames.shape[-3:] != grid.shape:
            raise ValueError("frames have spatial shape %s but the grid is %s"
                             % (frames.shape[-3:], grid.shape))
        if not np.all(np.isfinite(frames)):
            raise ValueError("frames contain non-finite values")
        self.grid = grid
        self.times = _freeze(times)
        self.frames = _freeze(frames)

    @property
    def dt(self):
        if len(self.times) < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    def __len__(self):
        return len(self.times)

    def __getitem__(self, i):
        return self._cls(self.grid, self.frames[i])


# ---------------------------------------------------------------------------
# stock fields


def taylor_green(grid, amplitude=1.0):
    """Planar vortex array (cos kx sin ky, -sin kx cos ky, 0), k = 2 pi / L.

    Divergence-free, and the projected nonlinearity vanishes identically,
    so under the viscous evolution it decays as exp(-2 k^2 t) in energy.
    On the default box (L = 2 pi sqrt(2)) the active modes sit at |xi|^2 = 1.
    """
    k = grid.k0
    X, Y, _ = grid.coords()
    zero = np.zeros(grid.shape)
    u = amplitude * np.cos(k * X) * np.sin(k * Y) + zero
    v = -amplitude * np.sin(k * X) * np.cos(k * Y) + zero
    return VectorField(grid, np.stack([u, v, zero]))


def taylor_green_3d(grid, amplitude=1.0):
    """Genuinely three-dimensional vortex with nonvanishing convection.

    (cos kx sin ky sin kz, -sin kx cos ky sin kz, 0): divergence-free,
    band-limited to first modes, standard transition-to-turbulence data.
    """
    k = grid.k0
    X, Y, Z = grid.coords()
    zero = np.zeros(grid.shape)
    u = amplitude * np.cos(k * X) * np.sin(k * Y) * np.sin(k * Z) + zero
    v = -amplitude * np.sin(k * X) * np.cos(k * Y) * np.sin(k * Z) + zero
    return VectorField(grid, np.stack([u, v, zero]))


def gaussian_bump(grid, sigma):
    """Isotropic unit Gaussian exp(-|x|^2 / (2 sigma^2)) about the origin."""
    r = grid.radius()
    return ScalarField(grid, np.exp(-0.5 * (r / sigma) ** 2))


def ball_indicator(grid, radius):
    """Indicator of the ball about the origin, sampled at cell centers."""
    return ScalarField(grid, (grid.radius() <= radius).astype(np.float64))


def smoothstep(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, strictly rising between."""
    s = np.asarray(s, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(s > 0.0, np.exp(-1.0 / np.where(s > 0.0, s, 1.0)), 0.0)
        b = np.where(s < 1.0, np.exp(-1.0 / np.where(s < 1.0, 1.0 - s, 1.0)), 0.0)
    return a / (a + b)


def nonic_step(u):
    """C^4 rise 0 -> 1 on [0, 1], clipped outside: value and first two
    derivatives in u, the derivatives vanishing identically off (0, 1)."""
    u = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)
    # powers as products (no pow); s(0) = 0 and s(1) = 1 stay exact
    u2 = u * u
    w = u * (1.0 - u)
    w2 = w * w
    s = u2 * u2 * u * (126.0 + u * (-420.0 + u * (540.0 + u * (-315.0 + 70.0 * u))))
    ds = 630.0 * w2 * w2
    dss = 2520.0 * w2 * w * (1.0 - 2.0 * u)
    return s, ds, dss


def smooth_radial_cutoff(grid, r_on, r_off):
    """Smooth radial plateau about the origin: 1 for r <= r_on, 0 for r >= r_off."""
    if not r_on < r_off:
        raise ValueError("need r_on < r_off")
    r = grid.radius()
    return ScalarField(grid, 1.0 - smoothstep((r - r_on) / (r_off - r_on)))
