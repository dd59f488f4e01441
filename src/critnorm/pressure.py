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

The r/8 lattice of the outer ball B_rho has about (16 rho/r)^3 points,
so the oscillation walks the x-slabs of cylinder.ball_slabs once and
holds neither a field nor the ball's weights on the whole lattice. Each
slab builds its own weights, samples every slice of the window in turn
and adds its dot products to per-slice sums over B_rho, in x order; one
partial sum per slab moves these sums by round-off only when there is
more than one slab. The values on B_r and B_2r are kept per slice, slab
by slab in lattice order, so the oscillation and the J1 and J2
integrands have the bits of one pass over the whole lattice.

The scale exponent is delta = cylinder.DELTA = 1, shared with the dyadic
ledger of critnorm.ckn. On Q_r with outer radius rho the oscillation
int |q - (q)_r|^{3/2} carries r^{-(1+delta)/2} = r^{-1}, and the six
bounding integrals J1..J6 carry

    J1  r^{-(1+delta)/2}      = r^{-1}
    J2  r^{(1-delta)/2}       = r^0
    J3  r^{6-delta/2}         = r^{11/2}
    J4  r^{4-delta/2}         = r^{7/2}
    J5  r^{4-delta/2}         = r^{7/2}   times rho^{-9/2}
    J6  r^{(44-5 delta)/10}   = r^{39/10} times rho^{-39/10}

In the weighted variant J2 carries r^{3/4-delta/2} = r^{1/4}, and J6
r^{4-delta/2} = r^{7/2} times rho^{-15/4}; the others keep their powers.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _fft
from .cylinder import DELTA, FrameSpectra, ball_mask, ball_slabs, sample_slice, stored_window
from .fieldio import write_csv
from .fields import ScalarField, nonic_step
from .norms import BallRegion, lp_ball
from .spectral import (
    SYM_PAIRS,
    free_riesz_sum,
    newtonian_potential,
    newtonian_potential_div,
    sym_ddiv_hat,
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

_TOL_PRE = 1e-6  # relative spectral residual split_pressure accepts for -Lap p = d_i d_j V_ij


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


def _sym_part(V):
    """The six distinct components of (V + V^T)/2 in the SYM_PAIRS order.

    Every contraction with k_i k_j sees only the symmetric part of V, so
    this is exact for any V, symmetric or not.
    """
    S = np.empty((6,) + V.shape[2:])
    for c, (i, j) in enumerate(SYM_PAIRS):
        if i == j:
            S[c] = V[i, i]
        else:
            np.add(V[i, j], V[j, i], out=S[c])
            S[c] *= 0.5
    return S


def riesz_split_at(V, center, radius):
    """Near/far split of the Riesz sum by masking the source tensor.

    Returns the pair (near, far) where near comes from V restricted to
    the ball of the given radius about center and far from the
    complement. The masks are sharp indicators, so near + far recovers
    the unsplit operator exactly by linearity. V must vanish outside
    |x| < L/4, as free_riesz_sum requires, and the ball is ball_mask's.
    """
    g = V.grid
    inside = ball_mask(g, BallRegion(center, radius))
    S = _sym_part(V.data)
    return free_riesz_sum(g, np.where(inside, S, 0.0)), free_riesz_sum(g, np.where(inside, 0.0, S))


def split_pressure(p, V, cutoff):
    """Split cutoff*p into the Riesz term and four derivative terms.

    Requires -Lap p = d_i d_j V_ij to _TOL_PRE (relative, spectral), the
    cutoff supported in the unit ball around its own center, and a cell
    centre in its transition r_on < |x - c| < r_off. The mismatch field
    records the relative L^{3/2}(B_1) gap between cutoff*p and the
    reconstruction.
    """
    g = p.grid
    if V.grid != g or cutoff.grid != g:
        raise ValueError("grids differ")
    dd = sym_ddiv_hat(g, _fft.rfftn(_sym_part(V.data)))
    # same Nyquist-zeroed metric on both sides of the discrete statement
    resid = g.k2_d * p.hat - dd
    dd_scale = np.sqrt(np.sum(np.abs(dd) ** 2))
    if dd_scale == 0.0:
        ok = np.sqrt(np.sum(np.abs(resid) ** 2)) <= 1e-12
    else:
        ok = np.sqrt(np.sum(np.abs(resid) ** 2)) <= _TOL_PRE * dd_scale
    if not ok:
        raise ValueError("p does not solve the double-divergence equation")
    if cutoff.r_off > 1.0:
        raise ValueError("cutoff must be supported in the unit ball")
    rad = g.radius(cutoff.center)
    if not np.any((rad > cutoff.r_on) & (rad < cutoff.r_off)):
        raise ValueError("cutoff transition r_on = %g < |x - c| < r_off = %g about c = %s holds "
                         "no cell centre (dx = %g), so every Newton term would be zero: widen "
                         "the transition or refine the grid"
                         % (cutoff.r_on, cutoff.r_off, cutoff.center, g.dx))

    phiv = cutoff.values
    d1 = cutoff.gradient
    d2 = cutoff.hessian
    lap_phi = cutoff.laplacian

    riesz = free_riesz_sum(g, _sym_part(phiv * V.data))

    src = np.zeros(g.shape)
    for i in range(3):
        for j in range(3):
            src += d2[i, j] * V.data[i, j]
    n1 = ScalarField(g, -newtonian_potential(ScalarField(g, src)).values)

    # the two gradient-sourced potentials enter with plus sign: a shift
    # p -> p + c then moves both sides by c*cutoff, as it must, since
    # -N*(c lap phi) + 2 sum_j d_j N*(c d_j phi) = c * phi
    n2 = newtonian_potential_div(
        [ScalarField(g, sum(d1[i] * V.data[i, j] for i in range(3))) for j in range(3)]
    )
    n2 = ScalarField(g, 2.0 * n2.values)
    n3 = ScalarField(g, -newtonian_potential(ScalarField(g, p.values * lap_phi)).values)
    n4 = newtonian_potential_div([ScalarField(g, d1[j] * p.values) for j in range(3)])
    n4 = ScalarField(g, 2.0 * n4.values)

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
    """Cell average of q over the ball, its cells those of ball_mask."""
    mask = ball_mask(q.grid, ball)
    return float(np.sum(q.values[mask]) / np.count_nonzero(mask))


@dataclass(frozen=True)
class OscillationReport:
    center: tuple
    r: float
    rho: float
    t_top: float
    lhs: float
    terms: tuple  # six bounding integrals, unit constant
    ratio: float
    weighted: bool
    ma: float  # drift weight sup |s-t0|^(1/2) |a(s)|_inf(B_1); 0 unweighted


def pressure_oscillation_terms(v, a, q, center, r, rho, t_top=None, t0=None):
    """Oscillation of q on Q_r(center, t_top) against its six bounds.

    v and q are stored orbits (a may be None); the cylinder uses the
    slices with t in [t_top - r^2, t_top], its start clipped to the first
    stored slice; a t_top past the last stored slice raises. The
    unweighted terms follow the drift-aware pressure bound with unit
    constant. A given t0 selects the weighted variant, which replaces
    the drift factors by the sup-weight ma and the singular-time kernels
    |s - t0|^(-1), |s - t0|^(-3/4), and requires t0 strictly outside the
    window so every weight stays finite; its J-terms read a only through
    ma, so it samples a on the native grid alone. Each slab of the lattice
    samples every slice of the window into one slab buffer, made at the
    first slab; the last slab drops a slice's spectra after sampling it.
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
    weighted = t0 is not None
    if weighted and ts[0] - 1e-12 <= t0 <= ts[-1] + 1e-12:
        raise ValueError(
            "t0 = %g must lie outside the cylinder window [%g, %g]" % (t0, ts[0], ts[-1])
        )

    drift = a is not None and not weighted  # a on the lattice feeds J2, J4, J6 unweighted
    slabs, cell = ball_slabs(g, center, r, outer=rho)
    m = len(sel)
    # per slice, sums over B_rho, each slab's dot products added in x
    # order: |v|^3 = |v|^2 |v|, |q|^(3/2) = |q| |q|^(1/2), |v|^2 / |x|^4
    # and |v| / |x|^4 on the annulus, |v|^2 on the ring, |a|^5 = |a|^4 |a|
    # and |v||a| / |x|^4 on the annulus
    sums = np.zeros((7, m))
    v3_rho, q32_rho, tail, v_tail, v2_ring, a5_rho, cross_tail = sums
    # per slice, q on B_r and |v|^2 and |a|^2 on B_2r, slab by slab
    q_r, v2_near, a2_near = ([[] for _ in sel] for _ in range(3))
    sv, sq, sa = (FrameSpectra(f) for f in (v, q, a))  # sa is unread when a is None
    buf = None
    for rows, axes, rad in slabs:
        if buf is None:  # the first slab is the largest
            buf = np.empty((2,) + rad.shape)
        pts = buf[:, : rad.shape[0]]
        last = rows.stop >= rad.shape[1]  # the lattice is a cube
        ball = rad <= rho
        rad = rad[ball]
        annulus = (rad > 2.0 * r) & (rad < rho)
        w_tail = np.zeros_like(rad)
        w_tail[annulus] = rad[annulus] ** -4.0
        # a mask: np.dot casts it to 0.0 and 1.0, so only this slab ever
        # holds it as float64
        w_ring = (rad > rho / 2.0) & (rad < rho)
        in_r = np.flatnonzero(rad <= r)
        in_2r = np.flatnonzero(rad <= 2.0 * r)

        for row, i in enumerate(sel):
            v2 = sample_slice(sv, i, axes, rows, pts)[ball]  # on this slab's points in B_rho
            vmag = np.sqrt(v2)
            v2_near[row].append(v2[in_2r])
            v3_rho[row] += np.dot(v2, vmag)
            tail[row] += np.dot(v2, w_tail)
            v_tail[row] += np.dot(vmag, w_tail)
            v2_ring[row] += np.dot(v2, w_ring)
            del v2  # one field on the ball at a time, besides |v|
            f = sample_slice(sq, i, axes, rows, pts)[ball]
            q_r[row].append(f[in_r])
            np.abs(f, out=f)
            q32_rho[row] += np.dot(f, np.sqrt(f))
            if drift:
                f = sample_slice(sa, i, axes, rows, pts)[ball]
                a2_near[row].append(f[in_2r])
                amag = np.sqrt(f)
                a5_rho[row] += np.dot(np.square(f, out=f), amag)
                cross_tail[row] += np.dot(vmag, np.multiply(amag, w_tail, out=amag))
            if last:
                for spectra in (sv, sq, sa):
                    spectra.drop(i)
    # the B_r and B_2r values in lattice order: these sums keep the bits
    # of one pass over the whole lattice
    osc = np.empty(m)
    v3_2r = np.empty(m)
    v2_2r = np.empty(m)
    a5_2r = np.zeros(m)
    for row in range(m):
        near = np.concatenate(q_r[row])
        osc[row] = np.sum(np.abs(near - np.sum(near) / len(near)) ** 1.5) * cell
        near = np.concatenate(v2_near[row])
        v3_2r[row] = np.dot(near, np.sqrt(near)) * cell
        v2_2r[row] = np.sum(near) * cell
        if drift:
            near = np.concatenate(a2_near[row])
            a5_2r[row] = np.dot(np.square(near), np.sqrt(near)) * cell
    sums *= cell
    bulk = v3_rho + q32_rho  # |v|^3 + |q|^(3/2) on B_rho
    ma = 0.0  # drift weight sup |s-t0|^(1/2) |a(s)|_inf(B_1); 0 unweighted
    if weighted and a is not None:
        # sup weight over the whole stored orbit, unit ball at the center,
        # always on the native grid (the unit ball is well resolved there)
        in_1 = ball_mask(g, BallRegion(center, 1.0))
        for i in range(len(times)):
            amag = np.sqrt(sample_slice(sa, i, None))
            w = math.sqrt(abs(times[i] - t0)) * float(np.max(amag[in_1]))
            ma = max(ma, w)

    p_osc = r ** (-(1.0 + DELTA) / 2.0)
    p_far = r ** (4.0 - DELTA / 2.0)
    lhs = p_osc * float(np.trapezoid(osc, ts))
    iv3 = float(np.trapezoid(v3_2r, ts))
    j1 = p_osc * iv3
    j3 = r ** (6.0 - DELTA / 2.0) * float(np.max(tail)) ** 1.5
    j5 = p_far * rho ** (-4.5) * float(np.trapezoid(bulk, ts))
    if not weighted:
        j2 = r ** ((1.0 - DELTA) / 2.0) * math.sqrt(iv3) * float(np.trapezoid(a5_2r, ts)) ** 0.3
        j4 = p_far * float(np.trapezoid(cross_tail**1.5, ts))
        j6 = (
            r ** ((44.0 - 5.0 * DELTA) / 10.0)
            * rho ** (-3.9)
            * math.sqrt(float(np.trapezoid(v3_rho, ts)))
            * float(np.trapezoid(a5_rho, ts)) ** 0.3
        )
    else:
        wgt1 = np.abs(ts - t0) ** (-1.0)
        wgt34 = np.abs(ts - t0) ** (-0.75)
        j2 = r ** (0.75 - DELTA / 2.0) * ma**1.5 * float(np.trapezoid(wgt1 * v2_2r, ts)) ** 0.75
        j4 = p_far * ma**1.5 * float(np.trapezoid(wgt34 * v_tail**1.5, ts))
        j6 = p_far * rho ** (-3.75) * ma**1.5 * float(np.trapezoid(wgt34 * v2_ring**0.75, ts))
    terms = (j1, j2, j3, j4, j5, j6)
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
        t_top=float(t_top),
        lhs=lhs,
        terms=tuple(float(x) for x in terms),
        ratio=float(ratio),
        weighted=weighted,
        ma=float(ma),
    )


def write_oscillation_csv(path, reports):
    write_csv(
        path,
        ["r", "lhs", "J1", "J2", "J3", "J4", "J5", "J6", "ratio"],
        ((rep.r, rep.lhs) + rep.terms + (rep.ratio,) for rep in reports),
    )
