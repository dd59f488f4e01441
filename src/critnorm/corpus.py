"""Stock fields of the pipeline and its experiments: seeded
band-limited divergence-free noise (random_divfree), the discretely
solenoidal curl bump (curl_bump) and the data of the heat-smoothing
rate experiment. Every profile is centred at the origin, the grid point
x[n // 2], which is exactly 0.0 on every Grid. Test data that no
pipeline number starts from lives with the tests (tests/testdata.py).
"""

import numpy as np
from scipy.special import erf

from . import _fft
from .fields import ScalarField, VectorField, smooth_radial_cutoff
from .spectral import curl, heat_semigroup, leray_project

__all__ = [
    "random_divfree",
    "curl_bump",
    "band_limit",
    "grid_delta",
    "self_similar_orbit",
    "heat_smoothing_slopes",
]

_BUMP_ON, _BUMP_OFF = 0.4, 1.3  # plateau and support radii of curl_bump's potential


def band_limit(values, grid, kmax):
    """Zero every mode with any axis index exceeding kmax in magnitude."""
    hat = _fft.rfftn(values)
    keep = np.abs(grid.modes) <= kmax
    keep_r = grid.modes_r <= kmax
    hat *= keep[:, None, None] & keep[None, :, None] & keep_r[None, None, :]
    return _fft.irfftn(hat, grid.shape)


def random_divfree(grid, rng, kmax=6, amplitude=1.0):
    """Band-limited random divergence-free vector field, |u| <= amplitude.

    The white noise is drawn on the grid itself and scaled by its sampled
    max |u|, so one seed gives a different field on each grid.
    """
    comps = np.stack(
        [band_limit(rng.standard_normal(grid.shape), grid, kmax) for _ in range(3)]
    )
    u = leray_project(VectorField(grid, comps))
    scale = np.max(u.magnitude())
    return VectorField(grid, u.data * (amplitude / scale))


def curl_bump(grid, amplitude=1.0):
    """Spectral curl of a compact vector potential, max |u| = amplitude.

    Discretely divergence-free to round-off by construction; the support is
    only essentially compact (trig-interpolant tails outside _BUMP_OFF at
    the aliasing level of the cutoff). The scale is the sampled max |u|,
    so each grid gets a different function: at amplitude 0.5 on the box
    of side 2 pi sqrt 2, ||u||_2^2 is 0.4576, 0.5100 and 0.5097 at 32^3,
    64^3 and 128^3. Numbers from a 32^3 run on this datum, or on
    random_divfree noise, are therefore not the 64^3 numbers at lower cost.
    """
    psi = smooth_radial_cutoff(grid, _BUMP_ON, _BUMP_OFF).values
    X, Y, Z = grid.coords()
    zero = np.zeros(grid.shape)
    # three independent smooth components, no symmetry to hide bugs behind
    pot = np.stack(
        [
            psi * (1.0 + 0.3 * np.sin(grid.k0 * Y) + zero),
            psi * (0.5 + 0.2 * np.cos(grid.k0 * Z) + zero),
            psi * 0.7,
        ]
    )
    u = curl(VectorField(grid, pot))
    scale = np.max(u.magnitude())
    return VectorField(grid, u.data * (amplitude / scale))


# ---------------------------------------------------------------------------
# heat smoothing rate experiment


def grid_delta(grid):
    """Unit-mass point source in the origin cell (the L^1 datum)."""
    src = np.zeros(grid.shape)
    c = int(np.argmin(np.abs(grid.x)))
    src[c, c, c] = 1.0 / grid.cell_volume
    return ScalarField(grid, src)


def self_similar_orbit(grid):
    """Heat orbit of 1/|x| at time anchor: erf(r / (2 sqrt anchor)) / r.

    Smooth, and exactly on the self-similar orbit of the borderline-L^3
    profile, so e^{(t-anchor) Lap} of it tracks t^{-1/5} in L^5 with no
    inner-cutoff trend. anchor is the smallest time at which the datum is
    band-limited on the grid (Nyquist damping below 1e-13); returns the
    field and anchor.
    """
    anchor = 30.0 / (np.pi / grid.dx) ** 2
    r = grid.radius()
    rs = np.maximum(r, 1e-12)
    vals = np.where(
        r < 1e-12,
        1.0 / np.sqrt(np.pi * anchor),
        erf(rs / (2.0 * np.sqrt(anchor))) / rs,
    )
    return ScalarField(grid, vals), anchor


def heat_smoothing_slopes(grid, t_lo, t_hi):
    """Fitted log-log decay slopes of the smoothing norms at 11 log-spaced
    times in [t_lo, t_hi].

    Returns {'l1_linf': slope, 'l3_l5': slope}; the targets are
    -(3/2)(1/q - 1/p), i.e. -3/2 and -1/5.
    """
    ts = np.geomspace(t_lo, t_hi, 11)
    delta = grid_delta(grid)
    sup = [np.max(np.abs(heat_semigroup(delta, t).values)) for t in ts]
    orbit, anchor = self_similar_orbit(grid)
    if ts[0] <= anchor:
        raise ValueError("window must start after the orbit anchor %g" % anchor)
    w = grid.cell_volume
    l5 = [
        (np.sum(np.abs(heat_semigroup(orbit, t - anchor).values) ** 5) * w) ** 0.2
        for t in ts
    ]
    logt = np.log(ts)
    return {
        "l1_linf": float(np.polyfit(logt, np.log(sup), 1)[0]),
        "l3_l5": float(np.polyfit(logt, np.log(l5), 1)[0]),
    }
