"""Localized pressure analysis.

Two engines share this module. The cutoff split writes phi*p as a
Riesz part plus four Newtonian-potential corrections sourced by the
derivatives of the cutoff; every convolution runs on the zero-padded
doubled grid because the identity is a free-space one. The oscillation
report measures, on a parabolic cylinder, the scale-weighted pressure
oscillation against the six velocity/drift/pressure integrals that
bound it, with an optional time-weighted variant for runs carrying a
distinguished singular time outside the observation window; its
integrals follow the quadrature of critnorm.cylinder.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _fft
from .cylinder import ball_points, sample_slice, stored_window
from .fieldio import write_csv
from .fields import ScalarField, nonic_step
from .norms import BallRegion, lp_ball
from .spectral import (
    _TRUNCATION,
    cropped_inverse,
    ddiv_hat,
    doubled_grid,
    newtonian_potential,
    padded_hat,
)
# bound here for perfbench/test_spans.py::test_from_import_bindings_are_counted
from .spectral import evaluate_at_points  # noqa: F401

__all__ = [
    "RadialCutoff",
    "PressureSplit",
    "OscillationReport",
    "split_pressure",
    "riesz_split_at",
    "mean_on_ball",
    "pressure_oscillation_terms",
    "write_oscillation_csv",
]


class RadialCutoff:
    """Radial C^4 plateau with analytic, exactly supported derivatives.

    Spectral differentiation of a sampled cutoff leaks Gibbs tails over
    the whole box, which the free-space convolutions reject; the nonic
    profile below gives gradient and Hessian that vanish identically
    outside the transition annulus, and its C^4 smoothness keeps the
    annulus sources well represented on the grid.
    """

    def __init__(self, grid, r_on, r_off, center=(0.0, 0.0, 0.0)):
        if not 0.0 < r_on < r_off:
            raise ValueError("need 0 < r_on < r_off")
        self.grid = grid
        self.r_on = float(r_on)
        self.r_off = float(r_off)
        self.center = tuple(float(c) for c in center)
        X, Y, Z = grid.coords()
        dx = grid.minimal_image(X - self.center[0])
        dy = grid.minimal_image(Y - self.center[1])
        dz = grid.minimal_image(Z - self.center[2])
        r = np.sqrt(dx**2 + dy**2 + dz**2)
        w = self.r_off - self.r_on
        s, ds, dss = nonic_step((r - self.r_on) / w)
        ds = ds / w
        dss = dss / w**2
        self.field = ScalarField(grid, 1.0 - s)
        r_safe = np.where(r > 0, r, 1.0)
        offsets = (dx, dy, dz)
        self.gradient = np.stack([-ds * o / r_safe for o in offsets])
        hess = np.empty((3, 3) + grid.shape)
        for i in range(3):
            for j in range(3):
                rad2 = offsets[i] * offsets[j] / r_safe**2
                hess[i, j] = -dss * rad2 - ds * (float(i == j) - rad2) / r_safe
        self.hessian = hess

    @property
    def values(self):
        return self.field.values

    @property
    def laplacian(self):
        return self.hessian[0, 0] + self.hessian[1, 1] + self.hessian[2, 2]


@dataclass(frozen=True)
class PressureSplit:
    """Five-part decomposition of phi*p; total is their pointwise sum."""

    riesz_term: ScalarField
    newton_terms: tuple
    total: ScalarField
    cutoff: ScalarField
    mismatch: float  # relative L^{3/2}(B_1) gap between phi*p and total

    def __post_init__(self):
        parts = self.riesz_term.values.copy()
        for term in self.newton_terms:
            parts = parts + term.values
        gap = np.max(np.abs(self.total.values - parts))
        scale = max(np.max(np.abs(self.total.values)), 1e-300)
        if gap > 1e-12 * scale:
            raise ValueError("total drifted from the sum of the parts")


def _free_riesz_sum(grid, tensor_values):
    """Free-space sum_ij R_i R_j T_ij via the doubled periodic grid.

    The operator splits into its local part, -trace/3, applied pointwise
    with no convolution at all, and a traceless principal-value kernel.
    The latter is spherically truncated like the Newtonian kernel; its
    Fourier factor comes from integrating the spherical Bessel identity
    d/dz (j1(z)/z) = -j2(z)/z out to the truncation radius. Trace
    sources therefore see the exact answer pointwise, and compact
    off-trace sources see the free-space kernel with no periodic-image
    contribution.
    """
    big = doubled_grid(grid)
    kvec = big.wavenumbers()
    acc = None
    trace_hat = None
    for i in range(3):
        for j in range(3):
            hat = padded_hat(grid, tensor_values[i, j])
            contrib = kvec[i] * kvec[j] * hat
            acc = contrib if acc is None else acc + contrib
            if i == j:
                trace_hat = hat if trace_hat is None else trace_hat + hat
    kappa = _TRUNCATION * grid.L * np.sqrt(big.k2)
    ks = np.where(kappa > 0.0, kappa, 1.0)
    gfac = np.where(
        kappa > 0.0, 1.0 - 3.0 * (np.sin(ks) - ks * np.cos(ks)) / ks**3, 0.0
    )
    qh = -trace_hat / 3.0 - gfac * (acc / big.k2_safe - trace_hat / 3.0)
    return ScalarField(grid, cropped_inverse(grid, qh))


def riesz_split_at(V, center, radius):
    """Near/far split of the Riesz sum by masking the source tensor.

    Returns the pair (near, far) where near comes from V restricted to
    the ball of the given radius about center and far from the
    complement. The masks are sharp indicators, so near + far recovers
    the unsplit operator exactly by linearity.
    """
    g = V.grid
    inside = g.radius(center) <= radius
    near = np.where(inside[None, None], V.data, 0.0)
    far = np.where(inside[None, None], 0.0, V.data)
    return _free_riesz_sum(g, near), _free_riesz_sum(g, far)


def split_pressure(p, V, cutoff, tol_pre=1e-6):
    """Split cutoff*p into the Riesz term and four derivative terms.

    Requires -Lap p = d_i d_j V_ij to tol_pre (relative, spectral) and
    the cutoff supported in the unit ball around its own center. The
    mismatch field records the relative L^{3/2}(B_1) gap between
    cutoff*p and the reconstruction.
    """
    g = p.grid
    if V.grid != g or cutoff.grid != g:
        raise ValueError("grids differ")
    dd = ddiv_hat(g, _fft.rfftn(V.data, axes=(-3, -2, -1)))
    # same Nyquist-zeroed metric on both sides of the discrete statement
    resid = g.k2_d * p.hat - dd
    dd_scale = np.sqrt(np.sum(np.abs(dd) ** 2))
    if dd_scale == 0.0:
        ok = np.sqrt(np.sum(np.abs(resid) ** 2)) <= 1e-12
    else:
        ok = np.sqrt(np.sum(np.abs(resid) ** 2)) <= tol_pre * dd_scale
    if not ok:
        raise ValueError("p does not solve the double-divergence equation")
    if cutoff.r_off > 1.0:
        raise ValueError("cutoff must be supported in the unit ball")

    phiv = cutoff.values
    d1 = cutoff.gradient
    d2 = cutoff.hessian
    lap_phi = cutoff.laplacian

    riesz = _free_riesz_sum(g, phiv * V.data)

    src = np.zeros(g.shape)
    for i in range(3):
        for j in range(3):
            src += d2[i, j] * V.data[i, j]
    n1 = ScalarField(g, -newtonian_potential(ScalarField(g, src)).values)

    # the two gradient-sourced potentials enter with plus sign: a shift
    # p -> p + c then moves both sides by c*cutoff, as it must, since
    # -N*(c lap phi) + 2 sum_j d_j N*(c d_j phi) = c * phi
    n2 = np.zeros(g.shape)
    for j in range(3):
        src_j = np.zeros(g.shape)
        for i in range(3):
            src_j += d1[i] * V.data[i, j]
        n2 += 2.0 * newtonian_potential(ScalarField(g, src_j), deriv_order=1)[j].values
    n2 = ScalarField(g, n2)

    n3 = ScalarField(g, -newtonian_potential(ScalarField(g, p.values * lap_phi)).values)

    n4 = np.zeros(g.shape)
    for j in range(3):
        n4 += 2.0 * newtonian_potential(
            ScalarField(g, d1[j] * p.values), deriv_order=1
        )[j].values
    n4 = ScalarField(g, n4)

    total = ScalarField(
        g, riesz.values + n1.values + n2.values + n3.values + n4.values
    )
    target = phiv * p.values
    ball = BallRegion(cutoff.center, 1.0)
    denom = lp_ball(ScalarField(g, target), 1.5, ball).value
    gap = lp_ball(ScalarField(g, target - total.values), 1.5, ball).value
    mismatch = 0.0 if denom == 0.0 else gap / denom
    return PressureSplit(
        riesz_term=riesz,
        newton_terms=(n1, n2, n3, n4),
        total=total,
        cutoff=cutoff,
        mismatch=mismatch,
    )


def mean_on_ball(q, ball):
    """Cell average of q over the ball."""
    mask = q.grid.radius(ball.center) <= ball.radius
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise ValueError("ball contains no grid cells")
    return float(np.sum(q.values[mask]) / count)


@dataclass(frozen=True)
class OscillationReport:
    center: tuple
    r: float
    rho: float
    delta: float
    t_top: float
    lhs: float
    terms: tuple  # six bounding integrals, unit constant
    ratio: float
    weighted: bool
    ma: float  # drift weight sup |s-t0|^(1/2) |a(s)|_inf(B_1); 0 unweighted


def _time_integral(ts, vals):
    return float(np.trapezoid(vals, ts))


def pressure_oscillation_terms(
    v, a, q, center, r, rho, delta=1.0, t_top=None, weighted=False, t0=None
):
    """Oscillation of q on Q_r(center, t_top) against its six bounds.

    v and q are stored orbits (a may be None); the cylinder uses the
    slices with t in [t_top - r^2, t_top], its start clipped to the first
    stored slice; a t_top past the last stored slice raises. The
    unweighted terms follow the drift-aware pressure bound with unit
    constant; the weighted variant replaces the drift factors by the
    sup-weight ma and the singular-time kernels |s - t0|^(-1),
    |s - t0|^(-3/4), and requires t0 strictly outside the window so
    every weight stays finite.
    """
    g = v.grid
    if q.grid != g or (a is not None and a.grid != g):
        raise ValueError("grids differ")
    if not 0 < r <= rho / 2.0:
        raise ValueError("need 0 < r <= rho/2")
    times = v.times
    if t_top is None:
        t_top = float(times[-1])
    sel = stored_window(times, t_top - r * r, t_top, clip_start=True)
    ts = times[sel]
    if weighted:
        if t0 is None:
            raise ValueError("weighted variant needs t0")
        if np.min(np.abs(ts - t0)) <= 1e-12:
            raise ValueError("t0 must lie outside the cylinder window")

    axes, rad, cell = ball_points(g, center, r, outer=rho)
    # every term lives in B_rho: pack each sampled field into it once
    ball = rad <= rho
    rad = rad[ball]
    in_r = np.flatnonzero(rad <= r)
    in_2r = np.flatnonzero(rad <= 2.0 * r)
    annulus = (rad > 2.0 * r) & (rad < rho)
    # 1/|x|^4 on the annulus and the ring's indicator, zero elsewhere in
    # the ball, so each tail and ring sum is one dot product, as are the
    # powers |v|^3 = |v|^2 |v|, |a|^5 = |a|^4 |a| and |q|^(3/2) = |q| |q|^(1/2)
    w_tail = np.zeros_like(rad)
    w_tail[annulus] = rad[annulus] ** -4.0
    w_ring = ((rad > rho / 2.0) & (rad < rho)).astype(np.float64)

    m = len(sel)
    osc = np.empty(m)
    v3_2r = np.empty(m)
    v2_2r = np.empty(m)
    a5_2r = np.empty(m)
    tail = np.empty(m)  # |v|^2 / |x|^4 on the annulus
    cross_tail = np.empty(m)  # |v||a| / |x|^4 on the annulus
    v_tail = np.empty(m)  # |v| / |x|^4 on the annulus
    bulk = np.empty(m)  # |v|^3 + |q|^(3/2) on B_rho
    v3_rho = np.empty(m)
    a5_rho = np.empty(m)
    v2_ring = np.empty(m)
    ma = 0.0
    for row, i in enumerate(sel):
        v2 = sample_slice(g, v.frames[i], axes)[ball]
        qs = sample_slice(g, q.frames[i], axes)[ball]
        vmag = np.sqrt(v2)
        q_r = qs[in_r]
        osc[row] = np.sum(np.abs(q_r - np.sum(q_r) / len(in_r)) ** 1.5) * cell
        v3_2r[row] = np.dot(v2[in_2r], vmag[in_2r]) * cell
        v2_2r[row] = np.sum(v2[in_2r]) * cell
        v3_rho[row] = np.dot(v2, vmag) * cell
        tail[row] = np.dot(v2, w_tail) * cell
        v_tail[row] = np.dot(vmag, w_tail) * cell
        v2_ring[row] = np.dot(v2, w_ring) * cell
        qs = np.abs(qs, out=qs)
        bulk[row] = v3_rho[row] + np.dot(qs, np.sqrt(qs)) * cell
        if a is not None:
            a2 = sample_slice(g, a.frames[i], axes)[ball]
            amag = np.sqrt(a2)
            a4 = np.square(a2, out=a2)
            a5_2r[row] = np.dot(a4[in_2r], amag[in_2r]) * cell
            a5_rho[row] = np.dot(a4, amag) * cell
            cross_tail[row] = np.dot(vmag, np.multiply(amag, w_tail, out=amag)) * cell
        else:
            a5_2r[row] = a5_rho[row] = cross_tail[row] = 0.0
    if weighted and a is not None:
        # sup weight over the whole stored orbit, unit ball at the center,
        # always on the native grid (the unit ball is well resolved there)
        in_1 = g.radius(center) <= 1.0
        for i in range(len(times)):
            amag = np.sqrt(sample_slice(g, a.frames[i], None))
            w = math.sqrt(abs(times[i] - t0)) * float(np.max(amag[in_1]))
            ma = max(ma, w)

    lhs = r ** (-(1.0 + delta) / 2.0) * _time_integral(ts, osc)
    iv3 = _time_integral(ts, v3_2r)
    if not weighted:
        terms = (
            r ** (-(1.0 + delta) / 2.0) * iv3,
            r ** ((1.0 - delta) / 2.0)
            * math.sqrt(iv3)
            * _time_integral(ts, a5_2r) ** 0.3,
            r ** (6.0 - delta / 2.0) * float(np.max(tail)) ** 1.5,
            r ** (4.0 - delta / 2.0) * _time_integral(ts, cross_tail**1.5),
            r ** (4.0 - delta / 2.0) * rho ** (-4.5) * _time_integral(ts, bulk),
            r ** ((44.0 - 5.0 * delta) / 10.0)
            * rho ** (-3.9)
            * math.sqrt(_time_integral(ts, v3_rho))
            * _time_integral(ts, a5_rho) ** 0.3,
        )
    else:
        wgt1 = np.abs(ts - t0) ** (-1.0)
        wgt34 = np.abs(ts - t0) ** (-0.75)
        terms = (
            r ** (-(1.0 + delta) / 2.0) * iv3,
            r ** (0.75 - delta / 2.0)
            * ma**1.5
            * _time_integral(ts, wgt1 * v2_2r) ** 0.75,
            r ** (6.0 - delta / 2.0) * float(np.max(tail)) ** 1.5,
            r ** (4.0 - delta / 2.0)
            * ma**1.5
            * _time_integral(ts, wgt34 * v_tail**1.5),
            r ** (4.0 - delta / 2.0) * rho ** (-4.5) * _time_integral(ts, bulk),
            r ** (4.0 - delta / 2.0)
            * rho ** (-3.75)
            * ma**1.5
            * _time_integral(ts, wgt34 * v2_ring**0.75),
        )
    for val in terms:
        if not np.isfinite(val):
            raise ValueError("non-finite bounding term")
    rhs = sum(terms)
    if rhs > 0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    return OscillationReport(
        center=tuple(float(c) for c in center),
        r=float(r),
        rho=float(rho),
        delta=float(delta),
        t_top=float(t_top),
        lhs=lhs,
        terms=tuple(float(x) for x in terms),
        ratio=float(ratio),
        weighted=bool(weighted),
        ma=float(ma),
    )


def write_oscillation_csv(path, reports):
    write_csv(
        path,
        ["r", "lhs", "J1", "J2", "J3", "J4", "J5", "J6", "ratio"],
        ((rep.r, rep.lhs) + rep.terms + (rep.ratio,) for rep in reports),
    )
