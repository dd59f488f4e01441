"""Cylinder quadrature: how an integral over a parabolic cylinder
Q_r = B_r(c) x (t - r^2, t] is taken from a stored run.

Time is a trapezoid over the stored slices inside the window
(stored_window). Space is cell-center membership on the native grid
whenever it has at least eight cells per radius; below that the ball is
integrated on a centred tensor lattice of spacing r/8 through the
trigonometric interpolant of each stored slice (ball_points,
sample_slice). Keeping r/h fixed makes the ball-quadrature bias
scale-invariant, so dyadic fits across radii are not polluted by the
refinement.
"""

import math

import numpy as np

from .fields import ScalarField, VectorField
from .spectral import evaluate_at_points, grad_hat, gradient, spectral_coefficients

__all__ = ["DELTA", "stored_window", "cube_lattice", "ball_points", "sample_slice", "sample_grad_sq"]

# the scale exponent delta of the epsilon-regularity budgets on Q_r: the
# dyadic ledger (critnorm.ckn) and the pressure oscillation
# (critnorm.pressure) both read it from here
DELTA = 1.0


def stored_window(times, lo, hi, clip_start=False):
    """Indices of the stored slices with lo <= t <= hi (1e-12 slack).

    A top hi past the last stored slice raises, and so does a start lo
    before the first one unless clip_start, which lets the window begin
    at the first stored slice instead. Fewer than two slices raise, with
    the window length and the storage spacing in the message.
    """
    if hi > times[-1] + 1e-9:
        raise ValueError("window top lies beyond the stored slices")
    if not clip_start and lo < times[0] - 1e-9:
        raise ValueError("window start lies before the stored slices")
    sel = np.nonzero((times >= lo - 1e-12) & (times <= hi + 1e-12))[0]
    if len(sel) < 2:
        gap = float(np.max(np.diff(times))) if len(times) > 1 else math.inf
        clipped = lo < times[0] - 1e-12
        raise ValueError(
            "window of length %g (r^2 for a cylinder Q_r) needs at least two "
            "stored slices but holds %d: the stored slices are up to %g apart, "
            "and must be stored at most r^2 apart (a finer storage stride)%s"
            % (hi - lo, len(sel), gap,
               "; the window starts before the first stored slice" if clipped else "")
        )
    return sel


def cube_lattice(center, offs):
    """Tensor lattice center + offs along each axis, and every point's
    distance from the center."""
    axes = tuple(center[i] + offs for i in range(3))
    rad = np.sqrt(offs[:, None, None] ** 2 + offs[None, :, None] ** 2 + offs[None, None, :] ** 2)
    return axes, rad


def ball_points(grid, center, r, outer=None):
    """Quadrature points for balls about center up to radius outer
    (default r), resolved for radius r.

    Returns (axes, rad, cell): axes is None for the native cells, else
    the r/8 lattice covering B_outer; rad is each point's distance from
    the center and cell the volume each point carries.
    """
    outer = r if outer is None else outer
    if outer >= grid.L / 2.0:
        raise ValueError("ball does not fit in the box")
    if r / grid.dx < 8.0:
        h = r / 8.0
        m = int(math.ceil(outer / h)) + 1
        axes, rad = cube_lattice(center, np.arange(-m, m + 1) * h)
        return axes, rad, h**3
    return None, grid.radius(center), grid.cell_volume


def _coefficients(values, coeffs, key):
    if coeffs is None:
        return spectral_coefficients(values)
    if key not in coeffs:
        coeffs[key] = spectral_coefficients(values)
    return coeffs[key]


def _on_points(grid, values, axes, coeffs, key):
    if axes is None:
        return values
    return evaluate_at_points(ScalarField(grid, values), axes, _coefficients(values, coeffs, key))


def sample_slice(grid, frame, axes, coeffs=None):
    """A stored slice on the points of ball_points: a scalar frame's
    values, or a vector frame's squared magnitude |v|^2.

    Each scalar component is evaluated once and |v|^2 accumulates in
    place; lattice components are never held together. coeffs, a dict
    the caller keeps per slice, reuses each component's spectral
    coefficients across lattices.
    """
    if frame.ndim == 3:
        return _on_points(grid, frame, axes, coeffs, 0)
    s2 = np.square(_on_points(grid, frame[0], axes, coeffs, 0))
    for c in (1, 2):
        comp = _on_points(grid, frame[c], axes, coeffs, c)
        # squared in place on the lattice; on native cells comp is the frame
        s2 += np.square(comp, out=None if axes is None else comp)
    return s2


def sample_grad_sq(grid, frame, axes, coeffs=None):
    """sum_ij |d_j v_i|^2 of a stored vector slice on the points of
    ball_points.

    On the lattice each derivative is evaluated straight from its
    coefficients, grad_hat of the component's spectral coefficients, so
    no derivative makes a round trip through the grid; the nine squares
    accumulate in place. coeffs is the per-slice dict of sample_slice,
    so one dict serves both.
    """
    if axes is None:
        return np.sum(np.square(gradient(VectorField(grid, frame)).data), axis=(0, 1))
    total = None
    for c in range(3):
        f = ScalarField(grid, frame[c])  # only its grid is read: coeffs are given
        for dh in grad_hat(grid, _coefficients(frame[c], coeffs, c)):
            d = evaluate_at_points(f, axes, dh)
            d = np.square(d, out=d)
            if total is None:
                total = d
            else:
                total += d
    return total
