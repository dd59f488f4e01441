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

This module owns the ball geometry of the package: cell-center
membership (ball_mask), the lattice cover (ball_points, ball_slabs) and
the one rule both apply, that a ball plus a one-cell margin fits in the
box.

The r/8 lattice over an outer ball B_rho grows like (rho/r)^3, so a sum
over it walks ball_slabs: the same points, lattice or native cells, each
point with the bits ball_points gives it. A set of at most _SLAB_POINTS
= 2^19 points is one slab; a larger one is cut into x-slabs of at most
2^18 points, and walk_slabs samples those on _fft.WORKERS threads, the
package's one worker count, at most two slabs in flight, so the points
in flight stay at 2^19 either way. A sampled field, and any weight made
from a slab's distances, is then held on the slabs in flight only; a sum
that visits every stored slice on each slab in turn holds memory that
does not grow with the number of slabs. walk_slabs yields each slab's
result in x order, so a sum that adds them as they come does not depend
on the threads' timing.

A diagnostic call owns the spectra of the stored frames it samples off
the grid: one FrameSpectra per stored field takes the rfftn of each
component once and keeps it until the call drops it or returns, never
on the run: the oscillation drops a slice after its last slab, the
ledger rows after the last row that reads it. Per component, as one
rfftn per vector frame (same bits) raised the peak RSS of perfbench's
ledger_n32 from 155 to 160 MB in the allocator, its tracemalloc peak
still 42.1 MB; per call, as spectra kept for the life of the run raised
ledger_n32's and chain_n64's by 12-13 %.

Every time integral over stored slices takes one of three rules here:
trapezoid (ckn's cylinders, the oscillation, mild's L^r_t norms),
cumulative_trapezoid (the weighted ledger sups) and cumulative_simpson
(the energy identity), scipy.integrate's arithmetic in numpy: importing
scipy.integrate loads scipy's optimize, sparse and linalg, 0.3 s and
25 MB at start-up.
"""

import itertools
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import _fft
from .fields import VectorField
from .spectral import evaluate_at_points, grad_hat, gradient

__all__ = [
    "DELTA",
    "stored_window",
    "ball_mask",
    "cube_lattice",
    "ball_points",
    "ball_slabs",
    "walk_slabs",
    "FrameSpectra",
    "sample_slice",
    "sample_grad_sq",
    "trapezoid", "cumulative_trapezoid", "cumulative_simpson",
]

# the scale exponent delta of the epsilon-regularity budgets on Q_r: the
# dyadic ledger (critnorm.ckn) and the pressure oscillation
# (critnorm.pressure) both read it from here
DELTA = 1.0

# most points in flight in a walk over ball_slabs: 2^19 float64 values
# are 4 MB, about one core's L2 cache, so each per-slab temporary stays
# that small; one slab of at most this, or two of at most half of it
_SLAB_POINTS = 2**19


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


def cube_lattice(center, offs, rows=slice(None)):
    """Tensor lattice center + offs along each axis, and every point's
    distance from the center; rows keeps only those x offsets, an
    x-slab. The distance is sqrt((x^2 + y^2) + z^2) for any rows, so a
    slab's points carry the bits they have in the whole cube."""
    xo = offs[rows]
    axes = (center[0] + xo, center[1] + offs, center[2] + offs)
    rad = np.sqrt(xo[:, None, None] ** 2 + offs[None, :, None] ** 2 + offs[None, None, :] ** 2)
    return axes, rad


def _check_fits(grid, radius):
    # the one fit rule of every ball, on the native cells or a lattice
    if radius + grid.dx > grid.L / 2:
        raise ValueError("ball plus one-cell margin does not fit in the box")


def ball_mask(grid, region):
    """The cells of grid whose centers lie in the ball region (a
    norms.BallRegion): the one membership rule of every ball on the
    native cells. A ball that does not fit in the box with a one-cell
    margin raises, and so does one that holds no cell center."""
    _check_fits(grid, region.radius)
    mask = grid.radius(region.center) <= region.radius
    if not np.any(mask):
        raise ValueError("region contains no cell centers")
    return mask


def _resolution(grid, r, outer):
    """(offs, cell): the r/8 lattice offsets covering B_outer, or None
    where the native cells resolve radius r, and each point's volume."""
    _check_fits(grid, outer)
    if r / grid.dx < 8.0:
        h = r / 8.0
        m = int(math.ceil(outer / h)) + 1
        return np.arange(-m, m + 1) * h, h**3
    return None, grid.cell_volume


def ball_points(grid, center, r, outer=None):
    """Quadrature points for balls about center up to radius outer
    (default r), resolved for radius r.

    Returns (axes, rad, cell): axes is None for the native cells, else
    the r/8 lattice covering B_outer; rad is each point's distance from
    the center and cell the volume each point carries.
    """
    offs, cell = _resolution(grid, r, r if outer is None else outer)
    if offs is None:
        return None, grid.radius(center), cell
    axes, rad = cube_lattice(center, offs)
    return axes, rad, cell


def ball_slabs(grid, center, r, outer=None):
    """The points of ball_points in x-slabs of at most _SLAB_POINTS
    points each (one x row at least).

    Returns (slabs, cell): slabs is a generator of (rows, axes, rad) in
    x order, rows the slice of x indices a slab covers, axes and rad
    those of ball_points on these rows (axes None on the native cells);
    cell is ball_points' cell. The slabs partition the points and every
    rad keeps its bits, so values gathered slab by slab, in order, are
    ball_points' values in lattice order. At most _SLAB_POINTS points
    (a lattice of up to 80^3 points, a native grid of up to 64^3 cells)
    are one slab; more are cut into slabs of at most _SLAB_POINTS / 2,
    the size walk_slabs takes two at a time.
    """
    offs, cell = _resolution(grid, r, r if outer is None else outer)
    side = grid.n if offs is None else len(offs)
    most = _SLAB_POINTS if side**3 <= _SLAB_POINTS else _SLAB_POINTS // 2
    step = max(1, most // (side * side))  # x rows per slab

    def slabs():
        rad = grid.radius(center) if offs is None else None
        for x0 in range(0, side, step):
            rows = slice(x0, x0 + step)
            if offs is None:
                yield rows, None, rad[rows]
            else:
                yield (rows,) + cube_lattice(center, offs, rows)

    return slabs(), cell


def walk_slabs(slabs, fn):
    """fn(slab) for each slab of ball_slabs' slabs, yielded in x order.

    More than one slab is walked on _fft.WORKERS threads (numpy's matrix
    products and ufuncs release the GIL), started and joined within the
    walk, with at most that many slabs in flight, each made only once a
    worker is free for it; one slab, or one worker, is walked in the
    calling thread and starts none. fn must then be safe to call from
    several threads at once. The results come in x order whatever the
    timing, so a caller that adds them as they come gets the same bits
    from any number of workers. fn is handed the only reference to its
    slab, so it frees the slab's arrays as soon as it drops them.
    """
    waiting = {}  # slabs made and not yet handed to fn, by x position

    def positions():  # not enumerate, whose reused result tuple keeps the last slab
        k = 0
        for slab in slabs:
            waiting[k] = slab
            del slab
            yield k
            k += 1

    def take(k):
        return fn(waiting.pop(k))

    ks = positions()
    head = list(itertools.islice(ks, _fft.WORKERS))
    if len(head) < 2:
        for k in itertools.chain(head, ks):
            yield take(k)
        return
    with ThreadPoolExecutor(_fft.WORKERS) as pool:
        pending = deque(pool.submit(take, k) for k in head)
        while pending:
            done = pending.popleft().result()
            pending.extend(pool.submit(take, k) for k in itertools.islice(ks, 1))
            yield done


class FrameSpectra:
    """spectra[i]: the spectra of frame i of the stored SpaceTimeField
    stf, the rfftn of each component (a tuple) or of a scalar frame (one
    array); made at first use, once even when two threads ask at once,
    read-only, and kept until drop(i), which the caller makes once no
    later sample reads slice i."""

    def __init__(self, stf):
        self.stf, self._made, self._lock = stf, {}, threading.Lock()

    def __getitem__(self, i):
        with self._lock:
            if i not in self._made:
                frame = self.stf.frames[i]
                made = tuple(_fft.rfftn(c) for c in frame.reshape((-1,) + frame.shape[-3:]))
                for c in made:
                    c.flags.writeable = False
                self._made[i] = made[0] if frame.ndim == 3 else made
            return self._made[i]

    def drop(self, i):
        self._made.pop(i, None)


def sample_slice(spectra, i, axes, rows=slice(None), out=None):
    """Stored slice i of spectra.stf on the points of ball_points or of
    one ball_slabs slab: a scalar frame's values, or a vector frame's
    |v|^2, its components evaluated one at a time and summed in place.

    Native cells (axes None) read the frame and transform nothing; rows
    is then a slab's x rows (on the lattice its axes hold them). out, a
    pair of float64 arrays shaped like the points (a (2, ...) array will
    do), makes the call allocate nothing for its values: they are written
    into out[0], which is returned, and out[1] is the scratch a vector
    frame's second and third components pass through.
    """

    def squared(c, buf):  # |component c|^2 on the points, into buf when given
        if axes is None:
            return np.square(frame[c, rows], out=buf)
        comp = evaluate_at_points(spectra.stf.grid, axes, spectra[i][c], out=buf)
        return np.square(comp, out=comp)

    res, scratch = (None, None) if out is None else out
    # a lattice reads only the spectra, so a frame computed on every read
    # (a run's DriftSlices) is computed once per call there, not once per slab
    frame = spectra.stf.frames[i] if axes is None else None
    scalar = frame.ndim == 3 if axes is None else not isinstance(spectra[i], tuple)
    if scalar:
        if axes is not None:
            return evaluate_at_points(spectra.stf.grid, axes, spectra[i], out=res)
        if res is None:
            return frame[rows]
        res[...] = frame[rows]
        return res
    s2 = squared(0, res)
    s2 += squared(1, scratch)
    s2 += squared(2, scratch)
    return s2


def sample_grad_sq(spectra, i, axes):
    """sum_ij |d_j v_i|^2 of stored vector slice i of spectra.stf on the
    points of ball_points. On the lattice each derivative is evaluated
    straight from grad_hat of its component's spectrum, with no round
    trip through the grid, and the nine squares accumulate in place;
    native cells take the spectral gradient of the frame."""
    g = spectra.stf.grid
    if axes is None:
        return np.sum(np.square(gradient(VectorField(g, spectra.stf.frames[i])).data), axis=(0, 1))
    total = 0.0
    for ch in spectra[i]:
        for dh in grad_hat(g, ch):
            d = evaluate_at_points(g, axes, dh)
            total += np.square(d, out=d)
    return total


def trapezoid(y, t):
    """The trapezoid integral of the samples y over the times t, a float."""
    return float(np.trapezoid(y, t))


def cumulative_trapezoid(y, x):
    """scipy.integrate.cumulative_trapezoid(y, x, initial=0.0), bit for bit."""
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("the sample times must be strictly increasing")
    return np.concatenate(([0.0], np.cumsum(h * (y[1:] + y[:-1]) / 2.0)))


def _simpson_halves(y, h):
    # the quadratic through y[i:i+3] over [x[i], x[i+1]] (eqn 8 of scipy's reference)
    x21, x32 = h[:-1], h[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    c2 = 3 + x21x21_x31x32 + x21_x31
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + c2 * y[1:-1] - x21x21_x31x32 * y[2:])


def cumulative_simpson(y, x):
    """scipy.integrate.cumulative_simpson(y, x=x, initial=0.0), bit for
    bit: interval i takes the quadratic through samples i..i+2 for even
    i, through i-1..i+1 for odd i and the last; below three, the trapezoid."""
    h = np.diff(x)
    if len(y) < 3 or np.any(h <= 0):  # the trapezoid raises on the latter
        return cumulative_trapezoid(y, x)
    left = _simpson_halves(y[::-1], h[::-1])[::-1]
    sub = np.append(_simpson_halves(y, h), left[-1])
    sub[1::2] = left[::2]
    return np.concatenate(([0.0], np.cumsum(sub)))
