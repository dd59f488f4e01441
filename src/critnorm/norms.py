"""Ball-localized norms: Lebesgue, uniformly-local L2, Lorentz, Morrey, parabolic Holder.

All ball quadrature is cell-center membership: a cell contributes iff its
center lies in the ball, with weight dx^3 and no partial cells. Region
boundaries therefore carry an O(dx) error which callers must absorb in
their tolerances.

Lorentz quasinorms use the distribution-function normalization

    ||f||_{p,q}^q = p * int_0^inf  alpha^(q-1) d(alpha)^(q/p) dalpha,
    ||f||_{p,inf} = sup_alpha  alpha * d(alpha)^(1/p),

with the prefactor p kept inside the q-th root. This coincides with the
decreasing-rearrangement form (int (t^(1/p) f*(t))^q dt/t)^(1/q) and makes
||f||_{p,p} equal ||f||_p exactly; texts that drop the prefactor report
values smaller by p^(1/q), so cross-library comparisons may differ by that
constant.

With this normalization the embedding ||f||_{p,q2} <= ||f||_{p,q1} for
q1 < q2 holds with constant one whenever q1 <= p (the general constant is
(q1/p)^(1/q1 - 1/q2)); corpus checks keep to that range.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _fft
from .cylinder import stored_window
from .fieldio import csv_cells, write_csv
from .fields import ScalarField
from .spectral import padded_hat

__all__ = [
    "BallRegion",
    "ball_mask",
    "NormReport",
    "InequalityReport",
    "box_lp",
    "lp_ball",
    "l2_uloc",
    "lorentz_quasinorm",
    "lorentz_from_samples",
    "morrey_critical",
    "parabolic_holder_seminorm",
    "check_oneil",
    "check_hunt",
    "write_reports_csv",
]


@dataclass(frozen=True)
class BallRegion:
    """Euclidean ball; must fit in the box with a one-cell margin."""

    center: tuple
    radius: float

    def __post_init__(self):
        c = tuple(float(x) for x in np.reshape(self.center, 3))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class NormReport:
    name: str
    value: float
    region: object  # BallRegion, text descriptor, or None
    method: str

    def __post_init__(self):
        v = float(self.value)
        if not (np.isfinite(v) and v >= 0):
            raise ValueError("norm value must be finite and nonnegative")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class InequalityReport:
    """lhs/rhs record for a checked inequality; passed is None when the
    constant is only being measured, not asserted."""

    name: str
    lhs: float
    rhs: float
    passed: object
    method: str

    @property
    def ratio(self):
        """lhs / rhs, and 0 when rhs is not positive."""
        return self.lhs / self.rhs if self.rhs > 0 else 0.0


def write_reports_csv(path, reports):
    """name,value,center,radius,method rows, sorted for regression diffs."""
    rows = []
    for rep in reports:
        center, radius = "", ""
        if isinstance(rep.region, BallRegion):
            center, radius = rep.region.center, rep.region.radius
        elif rep.region is not None:
            center = str(rep.region)
        rows.append(csv_cells((rep.name, rep.value, center, radius, rep.method)))
    write_csv(path, ["name", "value", "center", "radius", "method"], sorted(rows))


# ---------------------------------------------------------------------------
# cell selection


def ball_mask(grid, region):
    """The cells of grid whose centers lie in the BallRegion region: the
    one membership rule of every ball on the native cells. A ball that
    does not fit in the box with a one-cell margin raises, and so does
    one that holds no cell center."""
    if region.radius + grid.dx > grid.L / 2:
        raise ValueError("ball plus one-cell margin does not fit in the box")
    mask = grid.radius(region.center) <= region.radius
    if not np.any(mask):
        raise ValueError("region contains no cell centers")
    return mask


def _magnitude(data):
    """Pointwise Euclidean magnitude of raw field data over its component axes."""
    data = np.asarray(data)
    if data.ndim == 3:
        return np.abs(data)
    return np.sqrt(np.sum(data * data, axis=tuple(range(data.ndim - 3))))


def _lp_of_cells(values, mask, p, cell_volume):
    if mask is not None:
        values = values[mask]
    if p == math.inf:
        return float(np.max(values))
    return float(np.sum(values**p) * cell_volume) ** (1.0 / p)


def box_lp(grid, data, p):
    """L^p norm over the whole box of the magnitude of raw scalar, vector or
    tensor data, cell-center Riemann sum; p = inf is the max."""
    return _lp_of_cells(_magnitude(data), None, p, grid.cell_volume)


def lp_ball(f, p, region, name=None):
    """L^p norm over a ball, cell-center Riemann sum; p = inf is the max."""
    p = float(p)
    if not (p >= 1):
        raise ValueError("p must lie in [1, inf]")
    mask = ball_mask(f.grid, region)
    value = _lp_of_cells(_magnitude(f.data), mask, p, f.grid.cell_volume)
    return NormReport(
        name=name or "L%g(B_%g)" % (p, region.radius),
        value=value,
        region=region,
        method="cell-center Riemann sum",
    )


def l2_uloc(f, ball_radius=1.0):
    """sup over ball centers of the local L2 norm, centers on a stride-4 lattice.

    All translates are evaluated at once by FFT correlation of |f|^2 with the
    ball stencil, then the sup is taken on the coarsened lattice; the result
    is a lattice lower bound of the true uniformly-local norm.
    """
    g = f.grid
    stencil = ball_mask(g, BallRegion((g.x[0],) * 3, ball_radius)).astype(np.float64)
    squares = _magnitude(f.data) ** 2
    # stencil is even in the displacement, so correlation == convolution
    sums = _fft.irfftn(_fft.rfftn(squares) * _fft.rfftn(stencil), squares.shape)
    coarse = np.maximum(sums[::4, ::4, ::4], 0.0)
    idx = np.unravel_index(int(np.argmax(coarse)), coarse.shape)
    best = tuple(g.x[4 * i] for i in idx)
    return NormReport(
        name="L2_uloc",
        value=math.sqrt(float(coarse[idx]) * g.cell_volume),
        region=BallRegion(best, ball_radius),
        method="FFT ball correlation, stride-4 center lattice (lower bound)",
    )


# ---------------------------------------------------------------------------
# Lorentz quasinorms


def lorentz_from_samples(values, weights, p, q):
    """Lorentz quasinorm of a simple function given sample values and weights.

    The distribution function of sum_j v_j 1_{E_j} with measure(E_j) = w_j is
    piecewise constant, so both the weak form and the q < inf integral are
    evaluated exactly. Shared by the spatial norms and the Bochner-in-time
    norms (weights = cell volumes or time-step lengths).
    """
    p = float(p)
    q = float(q)
    if not p > 1 or p == math.inf:
        raise ValueError("Lorentz p must lie in (1, inf)")
    if not (1 <= q):
        raise ValueError("Lorentz q must lie in [1, inf]")
    v = np.abs(np.asarray(values, dtype=np.float64)).ravel()
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), v.shape).ravel()
    order = np.argsort(v)[::-1]
    v = v[order]
    w = w[order]
    keep = v > 0
    if not np.any(keep):
        return 0.0
    cum = np.cumsum(w)[keep]
    v = v[keep]
    vmax = v[0]
    v = v / vmax
    if q == math.inf:
        return vmax * float(np.max(v * cum ** (1.0 / p)))
    # exact piecewise integral: d(alpha) = cum_j on [v_{j+1}, v_j)
    vq = v**q
    drops = vq - np.append(vq[1:], 0.0)
    return vmax * float((p / q) * np.sum(cum ** (q / p) * drops)) ** (1.0 / q)


def lorentz_quasinorm(f, p, q, region=None):
    """L^{p,q} quasinorm over a ball (or the whole box when region is None)."""
    values = _magnitude(f.data)
    if region is not None:
        values = values[ball_mask(f.grid, region)]
    value = lorentz_from_samples(values, f.grid.cell_volume, p, q)
    return NormReport(
        name="L(%g,%s)" % (p, "inf" if q == math.inf else "%g" % q),
        value=value,
        region=region,
        method="distribution-function quadrature",
    )


# ---------------------------------------------------------------------------
# Morrey


def morrey_critical(f, center_set, r_min, r_max):
    """sup over dyadic radii and centers of r^(-1/2) ||f||_{L2(B_r)}."""
    g = f.grid
    if r_min < 2 * g.dx:
        raise ValueError("r_min below 2 dx: ball quadrature unreliable")
    if r_max < r_min:
        raise ValueError("empty radius range")
    radii = []
    r = float(r_max)
    while r >= r_min * (1 - 1e-12):
        radii.append(r)
        r /= 2.0
    values = _magnitude(f.data)
    best = -1.0
    best_region = None
    for r in radii:
        for center in center_set:
            region = BallRegion(center, r)
            mask = ball_mask(g, region)
            val = _lp_of_cells(values, mask, 2.0, g.cell_volume) / math.sqrt(r)
            if val > best:
                best = val
                best_region = region
    return NormReport(
        name="M2,3",
        value=best,
        region=best_region,
        method="dyadic radius sweep, cell-center Riemann sum",
    )


# ---------------------------------------------------------------------------
# parabolic Holder seminorm


def parabolic_holder_seminorm(u, nu, region, t_window=None):
    """Discrete parabolic Holder seminorm on ball x time-window.

    Time part: sup over cells in the ball and over all stored time pairs of
    |u(x,t+h) - u(x,t)| / h^nu. Space part: sup over slices in the window of
    the C^{0,2nu} quotient sampled on axis-aligned dyadic separations k dx,
    k = 1, 2, 4, ..., both endpoints inside the ball.
    """
    nu = float(nu)
    if not 0 < nu < 0.5:
        raise ValueError("nu must lie in (0, 1/2)")
    g = u.grid
    times = u.times
    lo, hi = (times[0], times[-1]) if t_window is None else t_window
    sel = stored_window(times, float(lo), float(hi))
    mask = ball_mask(g, region)

    slab = u.frames[sel]  # (m, ..., n, n, n)
    m = len(sel)
    t_best = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            h = float(times[sel[j]] - times[sel[i]])
            mag = _magnitude(slab[j] - slab[i])
            t_best = max(t_best, float(np.max(mag[mask])) / h**nu)

    s_best = 0.0
    radius_cells = int(2 * region.radius / g.dx) + 1
    for i in range(m):
        frame = slab[i]
        for axis in range(3):
            k = 1
            while k <= radius_cells:
                shifted = np.roll(frame, -k, axis=frame.ndim - 3 + axis)
                both = mask & np.roll(mask, -k, axis=axis)
                if np.any(both):
                    mag = _magnitude(shifted - frame)
                    s_best = max(
                        s_best, float(np.max(mag[both])) / (k * g.dx) ** (2 * nu)
                    )
                k *= 2

    return NormReport(
        name="C_par^%g" % nu,
        value=t_best + s_best,
        region=region,
        method="stored-step time quotients + dyadic-separation space quotients",
    )


# ---------------------------------------------------------------------------
# Lorentz-space inequalities as numerical checks


def _recip(x):
    return 0.0 if x == math.inf else 1.0 / x


def _free_convolution(f, kernel):
    """Linear (free-space) convolution on the zero-padded doubled grid.

    Both fields are read as compactly supported on the box; the result is
    returned as raw values on the whole doubled grid.
    """
    if f.grid != kernel.grid:
        raise ValueError("convolution factors live on different grids")
    if not (isinstance(f, ScalarField) and isinstance(kernel, ScalarField)):
        raise ValueError("convolution check takes scalar fields")
    g = f.grid
    hat = padded_hat(g, f.values) * padded_hat(g, kernel.values)
    return _fft.irfftn(hat, (2 * g.n,) * 3) * g.cell_volume


def check_oneil(f, g, exponents):
    """O'Neil convolution inequality ||f*g||_{r,s} <= 3r ||f||_{p1,q1} ||g||_{p2,q2}.

    exponents = (p1, q1, p2, q2, r, s). The hypothesis gates are enforced:
    p1, p2, r in (1, inf), q1, q2, s in [1, inf], 1/r + 1 = 1/p1 + 1/p2 and
    1/q1 + 1/q2 >= 1/s. The convolution is free-space (zero-padded doubled
    grid); fields are read as compactly supported on the box.
    """
    p1, q1, p2, q2, r, s = (float(e) for e in exponents)
    for e in (p1, p2, r):
        if not (1 < e < math.inf):
            raise ValueError("p1, p2, r must lie in (1, inf)")
    for e in (q1, q2, s):
        if not 1 <= e:
            raise ValueError("q1, q2, s must lie in [1, inf]")
    if abs(_recip(r) + 1 - _recip(p1) - _recip(p2)) > 1e-12:
        raise ValueError("exponents violate 1/r + 1 = 1/p1 + 1/p2")
    if _recip(q1) + _recip(q2) < _recip(s) - 1e-12:
        raise ValueError("exponents violate 1/q1 + 1/q2 >= 1/s")

    norm_f = lorentz_from_samples(_magnitude(f.data), f.grid.cell_volume, p1, q1)
    norm_g = lorentz_from_samples(_magnitude(g.data), g.grid.cell_volume, p2, q2)
    conv = _free_convolution(f, g)
    lhs = lorentz_from_samples(conv, f.grid.cell_volume, r, s)
    rhs = 3.0 * r * norm_f * norm_g
    return InequalityReport(
        name="oneil",
        lhs=lhs,
        rhs=rhs,
        passed=bool(lhs <= rhs),
        method="free-space FFT convolution, distribution-function quadrature",
    )


def check_hunt(f, g, exponents, region=None):
    """Hunt product inequality ||fg||_{r,s} <= C ||f||_{p,s1} ||g||_{q,s2}.

    exponents = (p, s1, q, s2, r, s) with 1/p + 1/q = 1/r and
    1/s1 + 1/s2 = 1/s. The constant is not asserted: the returned ratio is
    lhs / (||f|| ||g||), an empirical value for C to be aggregated over a
    corpus, so passed is None.
    """
    p, s1, q, s2, r, s = (float(e) for e in exponents)
    for e in (p, q, r):
        if not (1 < e < math.inf):
            raise ValueError("p, q, r must lie in (1, inf) for the quadrature")
    for e in (s1, s2, s):
        if not 1 <= e:
            raise ValueError("s1, s2, s must lie in [1, inf]")
    if abs(_recip(p) + _recip(q) - _recip(r)) > 1e-12:
        raise ValueError("exponents violate 1/p + 1/q = 1/r")
    if abs(_recip(s1) + _recip(s2) - _recip(s)) > 1e-12:
        raise ValueError("exponents violate 1/s1 + 1/s2 = 1/s")
    if f.grid != g.grid:
        raise ValueError("product factors live on different grids")

    mask = None if region is None else ball_mask(f.grid, region)

    def _norm(values, pp, qq):
        picked = values if mask is None else values[mask]
        return lorentz_from_samples(picked, f.grid.cell_volume, pp, qq)

    fv = _magnitude(f.data)
    gv = _magnitude(g.data)
    norm_f = _norm(fv, p, s1)
    norm_g = _norm(gv, q, s2)
    lhs = _norm(fv * gv, r, s)
    rhs = norm_f * norm_g
    return InequalityReport(
        name="hunt",
        lhs=lhs,
        rhs=rhs,
        passed=None,
        method="pointwise product, distribution-function quadrature",
    )
