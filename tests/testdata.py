"""Test data of the suite that no pipeline number starts from: seeded
band-limited scalars, exactly solenoidal swirls about the vertical axis,
the critical 1/|x| profiles and the planar Taylor-Green vortex. The
module name keeps pytest from collecting it; test modules import it as
testdata.

The azimuthal construction u = g(r) (-y, x, 0) is divergence-free for
every radial profile g, with no derivatives taken, so it yields exactly
compactly supported solenoidal data when g is a plateau cutoff. Every
profile is centred at the origin, the grid point x[n // 2].
"""

import numpy as np

from critnorm.corpus import band_limit
from critnorm.fields import ScalarField, VectorField, smoothstep


def random_scalar(grid, rng, kmax=6):
    """Band-limited random scalar with sup-norm one."""
    vals = band_limit(rng.standard_normal(grid.shape), grid, kmax)
    scale = np.max(np.abs(vals))
    return ScalarField(grid, vals * (1.0 / scale))


def azimuthal_field(grid, profile):
    """Swirl field g(r) * (-y, x, 0) around the vertical axis.

    profile receives the periodic distance r from the origin and returns g(r).
    The divergence vanishes identically: the field is tangent to circles
    and its magnitude r g(r) depends only on r.
    """
    dxs = grid.minimal_image(grid.x)[:, None, None]
    dys = grid.minimal_image(grid.x)[None, :, None]
    r = grid.radius()
    g = profile(r)
    zero = np.zeros(grid.shape)
    return VectorField(grid, np.stack([-dys * g + zero, dxs * g + zero, zero]))


def compact_divfree_bump(grid, r_on, r_off):
    """Unit swirl, 1 inside radius r_on, supported exactly in the ball of
    radius r_off.

    Solenoidal in the continuum; the discrete spectral divergence is only
    as small as the resolution of the cutoff allows (exact support and
    exact discrete solenoidality are mutually exclusive). Use
    corpus.curl_bump when the discrete divergence must vanish to round-off.
    """

    def profile(r):
        return 1.0 - smoothstep((r - r_on) / (r_off - r_on))

    return azimuthal_field(grid, profile)


def inverse_radius_field(grid, r_inner, r_outer, amplitude=1.0):
    """Swirl with |u| = amplitude / r on r in (r_inner, r_outer), cut smoothly.

    Scales like the critical profile 1/|x|: the L^3 mass per dyadic shell is
    constant, which makes it the stock example of weak-L^3 data that is not
    small in L^3.
    """

    def profile(r):
        rise = smoothstep((r - 0.5 * r_inner) / (0.5 * r_inner))
        fall = 1.0 - smoothstep((r - 0.8 * r_outer) / (0.2 * r_outer))
        safe = np.maximum(r, 0.25 * r_inner)  # rise is exactly 0 below this
        return amplitude * rise * fall / safe ** 2

    return azimuthal_field(grid, profile)


# measured defect of sum_{0<|k|<=R} |k|^-2 against 4 pi R on the integer
# lattice (averaged over R in [30, 58]; shell fluctuation ~0.13)
_INV_SQUARE_SELF = 8.91436


def inverse_square_scalar(grid, r_outer=None):
    """Scalar 1/|x| sample whose squared ball sums reproduce 4 pi r.

    Plain cell-center sampling of 1/|x|^2 underestimates the ball integral
    by a fixed lattice constant times dx; assigning the origin cell the
    matching self-term cancels it, so L^2 norms over B_r track (4 pi r)^0.5
    within a few percent down to r = 2 dx. With r_outer the sample is
    zeroed outside that radius.
    """
    r = grid.radius()
    vals = 1.0 / np.where(r > 0, r, 1.0)
    vals[r == 0] = np.sqrt(_INV_SQUARE_SELF) / grid.dx
    if r_outer is not None:
        vals = np.where(r <= r_outer, vals, 0.0)
    return ScalarField(grid, vals)


def taylor_green(grid, amplitude=1.0):
    """Planar vortex array (cos kx sin ky, -sin kx cos ky, 0), k = 2 pi / L.

    Divergence-free, and the projected nonlinearity vanishes identically,
    so under the viscous evolution it decays as exp(-2 k^2 t) in energy.
    On the default box (L = 2 pi sqrt(2)) the active modes sit at |xi|^2 = 1:
    the exact-decay oracle of the stepper and energy tests.
    """
    k = grid.k0
    X, Y, _ = grid.coords()
    zero = np.zeros(grid.shape)
    u = amplitude * np.cos(k * X) * np.sin(k * Y) + zero
    v = -amplitude * np.sin(k * X) * np.cos(k * Y) + zero
    return VectorField(grid, np.stack([u, v, zero]))
