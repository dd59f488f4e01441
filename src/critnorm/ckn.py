"""Dyadic cylinder ledger: smallness quantities on parabolic cylinders,
backward-heat test functions, Morrey-type suprema, and the bound for the
singular kernel 1/(|x-y|^2 + |t-s|)^2.

A parabolic cylinder Q_r(c, t) is B_r(c) x (t - r^2, t], anchored at its
top time. The budgets are fixed once: delta = cylinder.DELTA = 1,
eps* = EPS_STAR = 1 and C_B = 1. Over the dyadic radii r_k = 2^{-k} the
ledger tracks

    A_k = r^{-2} int_{Q} |v|^3  +  r^{-(1+delta)/2} int_{Q} |q - (q)_r(s)|^{3/2}
    B_k = sup_s int_{B} |v|^2  +  int_{Q} |grad v|^2

with (q)_r(s) the ball mean of q at slice s. The cubic part of A_k is
local_cubed_mass / r^2 and the pressure part carries r^{-1}, against the
budgets eps*^{2/3} r^{3-delta} = r^2 for A_k and C_B eps*^{2/3}
r^{3-2 delta/3} = r^{7/3} for B_k. The time-weighted variants A'_k and
A''_k answer to half the A_k budget, r^2/2, and B'_k to r^{7/3}; their
left sides are divided by powers of (s - t0)_+ (WeightedValues), so they
only admit perturbations that are quiet up to t0. morrey_sup weighs
int_{Q_r} |v|^3 by r^{delta-5} = r^{-4}.

Cylinder integrals follow the quadrature of critnorm.cylinder:
cylinder.trapezoid over the stored slices in time (cumulative_trapezoid
for the weighted rows' running integrals), native cells or the r/8
lattice in space. Suprema in time scan stored slices only. A sup of
slice values alone, such as sup_s int_B |v|^2, is therefore a lower
bound that refining the storage stride can only raise. A value that
also carries a time integral (A_k, the dissipation of B_k, the weighted
rows, morrey_sup) does not share that bound: its trapezoid is second
order in the stride and can fall under refinement, as A_k, B_k and
morrey_sup do on a 16^3 driven run.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cylinder import (
    DELTA,
    FrameSpectra,
    ball_mask,
    ball_points,
    cube_lattice,
    cumulative_trapezoid,
    sample_grad_sq,
    sample_slice,
    stored_window,
    trapezoid,
)
from .fieldio import write_csv
from .fields import nonic_step
from .norms import InequalityReport, NormReport
# bound here for perfbench/test_spans.py::test_from_import_bindings_are_counted
from .spectral import evaluate_at_points  # noqa: F401

__all__ = [
    "LedgerRow",
    "WeightedValues",
    "DyadicLedger",
    "write_ledger_csv",
    "TestFunction",
    "build_test_function",
    "local_cubed_mass",
    "cylinder_smallness",
    "build_ledger",
    "morrey_sup",
    "kernel_constant",
    "kernel_integral",
    "check_kernel_bound",
]

EPS_STAR = 1.0  # eps*: the smallness the ledger budgets are scaled by
C_B = 1.0  # prefactor of the B_k budget


@dataclass(frozen=True)
class WeightedValues:
    """Weighted-row suprema (A'_k, A''_k, B'_k), eta' = eta/6: each value
    is the sup over stored slices s of a running integral up to s over
    (s - t0)_+^p, p = 3 eta'/2 for the |v|^3 part of A_k, 3 eta'/4 for
    its pressure part and eta' for B_k, so value <= target holds at every
    stored slice. A slice at or before t0 has zero weight, so any mass
    there sends the value to +inf, which no finite budget passes."""

    apk: float
    appk: float
    bpk: float
    apk_target: float
    appk_target: float
    bpk_target: float

    @property
    def ok(self):
        return (
            self.apk <= self.apk_target
            and self.appk <= self.appk_target
            and self.bpk <= self.bpk_target
        )


@dataclass(frozen=True)
class LedgerRow:
    k: int
    r_k: float
    a_value: float
    a_target: float
    b_value: float
    b_target: float
    passed: bool
    weighted: object  # WeightedValues when the weighted variant ran, else None


@dataclass(frozen=True)
class DyadicLedger:
    """Rows over strictly halving radii, with the weights eta and t0 of the
    weighted variant (None when it did not run). Entries are finite, but a
    weighted value is +inf when mass sits at or before t0 (the row fails)."""

    rows: tuple
    eta: object
    t0: object

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        for row in rows:
            w = row.weighted
            vals = [row.r_k, row.a_value, row.a_target, row.b_value, row.b_target]
            vals += [] if w is None else [w.apk_target, w.appk_target, w.bpk_target]
            sups = [] if w is None else [w.apk, w.appk, w.bpk]
            if not (all(map(math.isfinite, vals)) and all(v > -math.inf for v in sups)):
                raise ValueError("ledger entries must be finite (weighted values may be +inf)")


def write_ledger_csv(path, ledger):
    """k,r_k,A_k,target_A,B_k,target_B,pass rows; when the weighted
    variant ran, eta,t0,Apk,Appk,Bpk columns follow."""
    weighted = ledger.eta is not None
    header = ["k", "r_k", "A_k", "target_A", "B_k", "target_B", "pass"]
    if weighted:
        header += ["eta", "t0", "Apk", "Appk", "Bpk"]
    rows = []
    for row in ledger.rows:
        rec = [row.k, row.r_k, row.a_value, row.a_target, row.b_value, row.b_target,
               int(row.passed)]
        if weighted:
            w = row.weighted
            rec += [ledger.eta, ledger.t0, w.apk, w.appk, w.bpk]
        rows.append(rec)
    write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# cylinder quadrature


def _slice_loads(v, sel, center, r, q=None, keep=()):
    """Per-slice ball integrals over B_r(center) on the stored slices sel,
    a stored_window or a sorted union of them, from the FrameSpectra v of
    a velocity and q of its pressure: |v|^3 always; given q, for a ledger
    row, also the oscillation |q - (q)_r|^{3/2} with the slice ball mean,
    |v|^2 and |grad v|^2. Returns the selected times and a dict of these
    per-slice values, each with the cell volume. Slices not in keep are
    dropped.
    """
    axes, rad, cell = ball_points(v.stf.grid, center, r)
    inside = rad <= r
    n_in = int(np.count_nonzero(inside))
    names = ("v3",) if q is None else ("v3", "qosc", "v2", "grad2")
    out = {name: np.empty(len(sel)) for name in names}
    for row, i in enumerate(sel):
        s2 = sample_slice(v, i, axes)
        out["v3"][row] = np.sum(s2[inside] ** 1.5) * cell
        if q is not None:
            qs = sample_slice(q, i, axes)
            qa = float(np.sum(qs[inside]) / n_in)
            out["qosc"][row] = np.sum(np.abs(qs[inside] - qa) ** 1.5) * cell
            out["v2"][row] = np.sum(s2[inside]) * cell
            out["grad2"][row] = np.sum(sample_grad_sq(v, i, axes)[inside]) * cell
        if i not in keep:
            for spectra in (v,) if q is None else (v, q):
                spectra.drop(i)
    return v.stf.times[sel], out


def local_cubed_mass(run, center, t_top, r):
    """Integral of |v|^3 over Q_r(center, t_top) from the stored slices."""
    r = float(r)
    sel = stored_window(run.v.times, t_top - r * r, t_top)
    ts, loads = _slice_loads(FrameSpectra(run.v), sel, center, r)
    return trapezoid(loads["v3"], ts)


def cylinder_smallness(run, center, t_top, r):
    """Integral of |v|^3 + |q|^{3/2} over Q_r: the measured smallness the
    ledger budgets are calibrated against.

    Unlike the ledger rows, the time window is clipped to the stored
    span: the budget is measured on the run that exists, so a run
    shorter than r^2 contributes what it has rather than raising. Each
    slice's spectra are dropped after its row.
    """
    r = float(r)
    sel = stored_window(run.v.times, t_top - r * r, t_top, clip_start=True)
    axes, rad, cell = ball_points(run.grid, center, r)
    inside = rad <= r
    v, q = FrameSpectra(run.v), FrameSpectra(run.q)
    vals = np.empty(len(sel))
    for row, i in enumerate(sel):
        s2 = sample_slice(v, i, axes)
        qs = sample_slice(q, i, axes)
        vals[row] = (np.sum(s2[inside] ** 1.5) + np.sum(np.abs(qs[inside]) ** 1.5)) * cell
        v.drop(i)
        q.drop(i)
    return trapezoid(vals, run.v.times[sel])


# ---------------------------------------------------------------------------
# ledger rows


def _weighted_sup(lhs, ts, t0, power):
    out = 0.0
    for val, s in zip(lhs, ts):
        w = max(float(s) - t0, 0.0) ** power
        if w > 0.0:
            out = max(out, float(val) / w)
        elif val > 0.0:
            return math.inf
    return out


def _check_weights(t_top, eta, t0):
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must sit in (0, 1)")
    if not (np.isfinite(t0) and t0 <= t_top + 1e-9):
        raise ValueError("t0 must not exceed the top time")


def _row(v, q, sel, center, k, eta, t0, keep):
    """Ledger row k on Q_{2^-k}(center, t_top) from one pass over its
    slices sel: A_k, B_k and their budgets r^2 and r^{7/3}, and the
    WeightedValues when eta is given (else None); v, q, sel and keep are
    _slice_loads'.
    """
    r = float(2.0 ** -k)
    ts, loads = _slice_loads(v, sel, center, r, q, keep)
    q_power = r ** (-(1.0 + DELTA) / 2.0)
    a_val = trapezoid(loads["v3"], ts) / r**2
    a_val = a_val + trapezoid(loads["qosc"], ts) * q_power
    b_val = float(np.max(loads["v2"])) + trapezoid(loads["grad2"], ts)
    a_tgt = EPS_STAR ** (2.0 / 3.0) * r ** (3.0 - DELTA)
    b_tgt = C_B * EPS_STAR ** (2.0 / 3.0) * r ** (3.0 - 2.0 * DELTA / 3.0)
    passed = a_val <= a_tgt and b_val <= b_tgt
    wv = None
    if eta is not None:
        etap = eta / 6.0
        run_int = {name: cumulative_trapezoid(loads[name], ts)
                   for name in ("v3", "qosc", "grad2")}
        wv = WeightedValues(
            apk=_weighted_sup(run_int["v3"] / r**2, ts, t0, 1.5 * etap),
            appk=_weighted_sup(run_int["qosc"] * q_power, ts, t0, 0.75 * etap),
            bpk=_weighted_sup(loads["v2"] + run_int["grad2"], ts, t0, etap),
            apk_target=0.5 * a_tgt,
            appk_target=0.5 * a_tgt,
            bpk_target=b_tgt,
        )
        passed = passed and wv.ok
    return LedgerRow(int(k), r, a_val, a_tgt, b_val, b_tgt, bool(passed), wv)


def build_ledger(run, center, t_top, ks, eta=None, t0=None):
    """Assemble ledger rows over strictly halving radii; each pass flag
    compares the row's values to its budgets (weighted ones included
    when eta is given; eta and t0 are given together or not at all).
    Each row samples its cylinder's slices once and takes A_k, B_k and
    the weighted values from the same loads. Rows share each frame
    component's spectrum, dropped right after the last row that reads it.

    ks must be consecutive increasing integers; ks, the weights and
    every row's window are checked before any slice is sampled.
    """
    ks = tuple(ks)
    if not ks or any(int(k) != k for k in ks) or any(b != a + 1 for a, b in zip(ks, ks[1:])):
        raise ValueError(
            "ks must be consecutive increasing integers (radii halving row to row), got %r"
            % (ks,)
        )
    if eta is not None and t0 is None:
        raise ValueError("the weighted ledger (eta given) needs t0, the time the "
                         "weights (s - t0)_+ start from")
    if t0 is not None and eta is None:
        raise ValueError("t0 = %g was given without eta: the weighted ledger needs both "
                         "(pass eta, or drop t0 for the unweighted rows)" % t0)
    if eta is not None:
        _check_weights(t_top, eta, t0)
    sels = [stored_window(run.v.times, t_top - 4.0**-k, t_top) for k in ks]  # r_k^2 = 4^-k
    later = [set().union(*sels[m + 1:]) for m in range(len(sels))]  # read by a later row
    v, q = FrameSpectra(run.v), FrameSpectra(run.q)  # shared by the rows
    return DyadicLedger(tuple(_row(v, q, sel, center, k, eta, t0, keep)
                              for k, sel, keep in zip(ks, sels, later)), eta, t0)


# ---------------------------------------------------------------------------
# Morrey-type supremum


_MORREY_STRIDE = 2  # morrey_sup keeps every second grid point per axis as a center
_MORREY_TOPS = 6  # and scans at most this many top times per radius


def morrey_sup(run, region, ks):
    """Sup of r^{delta-5} int_{Q_r} |v|^3 = r^{-4} int_{Q_r} |v|^3 over a
    center lattice in the region, dyadic radii 2^{-k}, and stored top times.

    Centers are the native grid points in the region thinned to every
    second one along each axis, plus the region center unless it is one of
    them; for each radius at most six admissible top times are scanned.
    Each center and radius takes the ball loads of the ledger rows
    (_slice_loads) on the sorted union of that radius's windows, so each
    stored slice is sampled once per center and radius. The sup runs
    over a lattice of cylinders only, but each cylinder integral is a time
    trapezoid over stored slices, second order in the stride, so refining
    the stride can lower the value as well as raise it. A radius whose r^2
    exceeds the stored span, or whose window the storage stride cannot
    resolve, raises before any slice is sampled; so does an empty ks.
    """
    if len(ks) == 0:
        raise ValueError("morrey_sup needs at least one dyadic index k in ks")
    g = run.grid
    idx = np.argwhere(ball_mask(g, region))
    keep = np.all(idx % _MORREY_STRIDE == 0, axis=1)
    centers = [tuple(float(g.x[j]) for j in trip) for trip in idx[keep]]
    if region.center not in centers:
        centers.append(region.center)
    times = run.v.times
    scans = []  # (r, windows) per radius, every window checked before any sample
    for k in ks:
        r = 2.0 ** -k
        ok = times[times - r * r >= times[0] - 1e-12]
        if len(ok) == 0:
            raise ValueError("r = %g needs a window of r^2 = %g, but the stored slices span "
                             "only %g (t = %g to %g): store a longer run or drop this k"
                             % (r, r * r, times[-1] - times[0], times[0], times[-1]))
        pick = np.unique(np.linspace(0, len(ok) - 1, min(_MORREY_TOPS, len(ok))).astype(int))
        scans.append((r, [stored_window(times, float(t) - r * r, float(t)) for t in ok[pick]]))
    v = FrameSpectra(run.v)  # reused across centers and radii
    best = 0.0
    for r, windows in scans:
        slices = np.unique(np.concatenate(windows))  # the sorted union of the windows
        for c in centers:
            v3 = _slice_loads(v, slices, c, r, keep=slices)[1]["v3"]
            for sel in windows:
                mass = trapezoid(v3[np.searchsorted(slices, sel)], times[sel])
                best = max(best, r ** (DELTA - 5.0) * mass)
    return NormReport(
        "morrey_sup",
        best,
        region,
        "stored-slice sup over center lattice and dyadic radii",
    )


# ---------------------------------------------------------------------------
# backward-heat test functions

_SPACE_ON, _SPACE_OFF = 0.26, 0.33  # plateau covers B_{1/4}; support inside B_{1/3}
_TIME_ON, _TIME_OFF = -0.07, -0.105  # flat over every Q_{2^-k}, k >= 2; zero before t - 1/9


def _lattice_rho2(center, axes):
    """Offsets x - center of a tensor lattice as an open mesh, and rho^2."""
    off = np.ix_(*(np.asarray(axes[j], dtype=np.float64) - center[j] for j in range(3)))
    return off, sum(o**2 for o in off)


def _phi_profile(rho2, s, t_top, r_n, grad=False, residual=False):
    """The test function at one time as a function of rho^2 = |x - center|^2:
    its value, gfac with grad phi = gfac (x - center) if grad, and the
    backward-heat residual d_s phi + lap phi if residual (else None).

    The kernel time is tau = t_top + 2 r_n^2 - s, so the kernel factor
    stays smooth through the top time. The laplacian is assembled in
    divergence form and the time derivative in similarity form; where the
    cutoff is flat their difference is pure rounding, which is the
    backward-heat identity made visible.
    """
    tau = t_top + 2.0 * r_n**2 - s
    if tau <= 0.0:
        raise ValueError("sample time above the kernel window")
    rho = np.sqrt(rho2)
    rho_safe = np.where(rho > 0.0, rho, 1.0)
    gam = (4.0 * np.pi * tau) ** -1.5 * np.exp(-rho2 / (4.0 * tau))

    w = _SPACE_OFF - _SPACE_ON
    sspace, dspace, ddspace = nonic_step((rho - _SPACE_ON) / w)
    S, Sp, Spp = 1.0 - sspace, -dspace / w, -ddspace / w**2
    wt = _TIME_ON - _TIME_OFF
    T, dT, _ = nonic_step((s - t_top - _TIME_OFF) / wt)
    Tp = dT / wt

    pref = r_n**2
    value = pref * gam * S * T
    gfac = pref * (-gam / (2.0 * tau) * S * T + gam * T * Sp / rho_safe) if grad else None
    if not residual:
        return value, gfac, None
    gdot = -gam * rho2 / (2.0 * tau)  # grad Gamma . (x - center)
    lap_gam = -(gdot + 3.0 * gam) / (2.0 * tau)
    gam_tau = gam * (rho2 / (4.0 * tau**2) - 1.5 / tau)
    return value, gfac, pref * (
        S * T * (lap_gam - gam_tau)
        + gam * (S * Tp - rho * Sp * T / tau + T * (Spp + 2.0 * Sp / rho_safe))
    )


def _phi_fields(center, t_top, r_n, axes, s, grad=False, residual=False):
    """_phi_profile on a tensor lattice, the gradient as three components."""
    off, rho2 = _lattice_rho2(center, axes)
    value, gfac, res = _phi_profile(rho2, s, t_top, r_n, grad, residual)
    return value, None if gfac is None else tuple(gfac * o for o in off), res


@dataclass(frozen=True)
class TestFunction:
    """Backward-heat test function at dyadic scale r_n = 2^{-n}.

    c1 is the smallest constant that makes all scanned bound families
    hold, and families records each family's own constant.
    """

    center: tuple
    t_top: float
    n: int
    r_n: float
    c1: float
    families: dict

    def value(self, axes, s):
        self._check_time(s)
        return _phi_fields(self.center, self.t_top, self.r_n, axes, s)[0]

    def heat_residual(self, axes, s):
        self._check_time(s)
        return _phi_fields(self.center, self.t_top, self.r_n, axes, s, residual=True)[2]

    def _check_time(self, s):
        # the taper that would close the support just above the top time is
        # never sampled (all ledger work sits at or below it), so times
        # beyond the top are rejected rather than extrapolated
        if s > self.t_top + 1e-12:
            raise ValueError("test function is only evaluated up to its top time")


def build_test_function(grid, center, t_top, n):
    """Construct the scale-n test function and measure its constants.

    phi(x, s) = r_n^2 Gamma(x - center, t_top + 2 r_n^2 - s) eta(x, s),
    Gamma the heat kernel and eta a plateau cutoff, identically one for
    |x - center| <= 0.26 and s >= t_top - 0.07, vanishing for
    |x - center| >= 0.33 or s <= t_top - 0.105. Four bound families are
    scanned on refined lattices and each family's constant is recorded:

      plateau:  c^{-1}/r_n <= phi <= c/r_n and |grad phi| <= c/r_n^2
                on Q_{r_n};
      annulus:  phi <= c r_n^2 r_k^{-3}, |grad phi| <= c r_n^2 r_k^{-4}
                on Q_{r_{k-1}} minus Q_{r_k}, 2 <= k <= n;
      residual: |d_s phi + lap phi| <= c r_n^2 everywhere at or below
                the top time, on the distinct radii of an 81^3 lattice;
      support:  nothing outside B_{1/3} x (t_top - 1/9, t_top], checked
                exactly (violations raise with the offending scale).

    c1 is the max over families. The scans are lattice suprema, hence
    stride-limited lower bounds for the continuum constants.
    """
    if int(n) != n or n < 2:
        raise ValueError("scale index n must be an integer >= 2")
    n = int(n)
    center = tuple(float(x) for x in np.reshape(center, 3))
    t_top = float(t_top)
    if max(abs(c) for c in center) + 0.5 > grid.L / 2.0 - grid.dx:
        raise ValueError("test function geometry does not fit the box")
    r_n = 2.0 ** -n

    families = {}

    # plateau family on Q_{r_n}; corner-inclusive lattice
    axes, rad = cube_lattice(center, np.linspace(-r_n, r_n, 17))
    inside = rad <= r_n
    lo, hi, ghi = np.inf, 0.0, 0.0
    for s in t_top - np.linspace(0.0, r_n**2, 9):
        val, grad, _ = _phi_fields(center, t_top, r_n, axes, s, grad=True)
        scaled = val[inside] * r_n
        lo = min(lo, float(np.min(scaled)))
        hi = max(hi, float(np.max(scaled)))
        gmag = np.sqrt(grad[0] ** 2 + grad[1] ** 2 + grad[2] ** 2)
        ghi = max(ghi, float(np.max(gmag[inside])) * r_n**2)
    if not lo > 0.0:
        raise ValueError("plateau family collapsed at scale %d" % n)
    families["plateau_high"] = hi
    families["plateau_low"] = 1.0 / lo
    families["plateau_grad"] = ghi

    # annulus families on Q_{r_{k-1}} minus Q_{r_k}
    ann, ann_g = 0.0, 0.0
    for k in range(2, n + 1):
        rk, rk1 = 2.0 ** -k, 2.0 ** -(k - 1)
        axes, rad = cube_lattice(center, np.linspace(-rk1, rk1, 17))
        in_k1 = rad <= rk1
        for s in t_top - np.linspace(0.0, rk1**2, 9):
            if t_top - s <= rk**2:
                shell = in_k1 & (rad > rk)
            else:
                shell = in_k1
            if not np.any(shell):
                continue
            val, grad, _ = _phi_fields(center, t_top, r_n, axes, s, grad=True)
            ann = max(ann, float(np.max(val[shell])) / (r_n**2 * rk**-3))
            gmag = np.sqrt(grad[0] ** 2 + grad[1] ** 2 + grad[2] ** 2)
            ann_g = max(ann_g, float(np.max(gmag[shell])) / (r_n**2 * rk**-4))
    families["annulus"] = ann
    families["annulus_grad"] = ann_g

    # residual family at and below the top time: radial, so once per distinct rho^2
    offs = np.linspace(-0.5, 0.5, 81)
    rho2 = np.unique(_lattice_rho2(center, tuple(center[j] + offs for j in range(3)))[1])
    res = 0.0
    for s in t_top + np.linspace(-0.115, 0.0, 24):
        r_field = _phi_profile(rho2, s, t_top, r_n, residual=True)[2]
        res = max(res, float(np.max(np.abs(r_field))) / r_n**2)
    families["residual"] = res

    # support family, checked exactly against the cutoff geometry
    axes, rad = cube_lattice(center, np.linspace(-0.49, 0.49, 15))
    outside = rad >= 0.34
    for s in t_top - np.array([0.0, 0.05, 0.1, 0.11]):
        val = _phi_fields(center, t_top, r_n, axes, s)[0]
        if np.any(val[outside] != 0.0):
            raise ValueError("support leaks past the spatial cutoff at scale %d" % n)
    for s in t_top - np.array([0.1051, 0.108, 1.0 / 9.0]):
        val = _phi_fields(center, t_top, r_n, axes, s)[0]
        if np.any(val != 0.0):
            raise ValueError("support leaks past the time cutoff at scale %d" % n)

    return TestFunction(
        center=center,
        t_top=t_top,
        n=n,
        r_n=r_n,
        c1=float(max(families.values())),
        families=families,
    )


# ---------------------------------------------------------------------------
# singular-kernel bound

# the Morrey exponent of the kernel bound; not the ledger's DELTA, since the
# annulus sum of kernel_constant converges only for delta in (0, 1)
_KERNEL_DELTA = 0.5
# midpoint source lattice over [-1/2,1/2]^3 x (-1/4,1/4): space and time steps
_KERNEL_H, _KERNEL_HT = 1.0 / 16.0, 1.0 / 128.0


def kernel_constant(delta):
    """Annulus-sum constant 8^{(5-delta)/2} / (1 - 8^{(delta-1)/2}) of the
    near-field case; the geometric sum converges only for delta in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must sit in (0, 1)")
    return 8.0 ** ((5.0 - delta) / 2.0) / (1.0 - 8.0 ** ((delta - 1.0) / 2.0))


def _source_lattice():
    h, ht = _KERNEL_H, _KERNEL_HT
    offs = (np.arange(int(round(1.0 / h))) + 0.5) * h - 0.5
    ss = (np.arange(int(round(0.5 / ht))) + 0.5) * ht - 0.25
    return offs, ss


def _sample_source(g, offs, ss):
    Y1, Y2, Y3 = offs[:, None, None], offs[None, :, None], offs[None, None, :]
    shape = (len(offs),) * 3
    out = np.empty((len(ss),) + shape)
    for j, s in enumerate(ss):
        out[j] = np.abs(np.asarray(g(Y1, Y2, Y3, float(s)), dtype=np.float64)
                        * np.ones(shape))
    return out


def _kernel_sum(offs, ss, gabs, x, t):
    """The midpoint sum of kernel_integral on a sampled source |g|."""
    Y1, Y2, Y3 = offs[:, None, None], offs[None, :, None], offs[None, None, :]
    d2 = (x[0] - Y1) ** 2 + (x[1] - Y2) ** 2 + (x[2] - Y3) ** 2
    total = 0.0
    for j, s in enumerate(ss):
        total += float(np.sum(gabs[j] / (d2 + abs(t - s)) ** 2))
    return total * _KERNEL_H**3 * _KERNEL_HT


def kernel_integral(g, x, t):
    """Midpoint quadrature of int |g(y,s)| / (|x-y|^2 + |t-s|)^2 over the
    support box [-1/2,1/2]^3 x (-1/4,1/4), steps h = 1/16 and ht = 1/128.

    g is a callable taking three broadcastable coordinate arrays and a
    scalar time. Midpoints never coincide with x, so the kernel stays
    finite; near the singularity the quadrature is a crude estimate,
    far from it an accurate one.
    """
    offs, ss = _source_lattice()
    return _kernel_sum(offs, ss, _sample_source(g, offs, ss), x, t)


def check_kernel_bound(g):
    """Empirical two-case bound for the singular kernel.

    The left side is the sup of the kernel integral over a probe lattice
    (points in and around the support plus far points); the right side is
    max(C(delta) ||g||_delta, 16 int |g|) at delta = 1/2, with ||g||_delta
    swept morrey-style over centers, dyadic radii, and two-sided time
    windows on the same midpoint source lattice as kernel_integral. g must
    vanish outside the support box; probed violations raise.
    """
    delta, h, ht = _KERNEL_DELTA, _KERNEL_H, _KERNEL_HT
    cdel = kernel_constant(delta)
    offs, ss = _source_lattice()
    gabs = _sample_source(g, offs, ss)
    mass = float(np.sum(gabs)) * h**3 * ht

    # support probes: spatial points outside B_{1/2} at in-window times,
    # then the origin at out-of-window times
    probe = np.array([0.55, 0.7])
    zero = np.zeros(2)
    for s in (0.0, 0.2, -0.2):
        for v in (
            g(probe, zero, zero, s),
            g(zero, probe, zero, s),
            g(zero, zero, probe, s),
        ):
            if np.any(np.asarray(v, dtype=np.float64) != 0.0):
                raise ValueError("g must vanish outside the support box")
    for s in (0.3, -0.3):
        v = g(zero[:1], zero[:1], zero[:1], s)
        if np.any(np.asarray(v, dtype=np.float64) != 0.0):
            raise ValueError("g must vanish outside the support box")

    # Morrey sweep on the shared source lattice
    Y1, Y2, Y3 = offs[:, None, None], offs[None, :, None], offs[None, None, :]
    centers = offs[::4]
    gnorm = 0.0
    for r in (0.5, 0.25, 0.125):
        r2 = r * r
        # two-sided window |s - t| < r^2 about each t in ss, as bounds
        # into the prefix sums below; they depend on r alone
        lo = np.searchsorted(ss, ss - r2, side="left")
        hi = np.searchsorted(ss, ss + r2, side="right")
        for cx in centers:
            for cy in centers:
                for cz in centers:
                    if cx**2 + cy**2 + cz**2 > 0.6**2:
                        continue
                    m = (Y1 - cx) ** 2 + (Y2 - cy) ** 2 + (Y3 - cz) ** 2 <= r2
                    if not np.any(m):
                        continue
                    per = gabs[:, m].sum(axis=1) * h**3
                    csum = np.concatenate([[0.0], np.cumsum(per)])
                    val = (csum[hi] - csum[lo]) * ht
                    gnorm = max(gnorm, float(np.max(r ** (delta - 5.0) * val)))

    # probe lattice for the left side
    pts = []
    for cx in (-0.4, 0.0, 0.4):
        for cy in (-0.4, 0.0, 0.4):
            for cz in (-0.4, 0.0, 0.4):
                pts.append((cx, cy, cz))
    pts += [(1.25, 0.0, 0.0), (0.0, -1.5, 0.3)]
    lhs = 0.0
    for x in pts:
        for t in (-0.2, 0.0, 0.2, 0.5):
            lhs = max(lhs, _kernel_sum(offs, ss, gabs, x, t))

    rhs = max(cdel * gnorm, 16.0 * mass)
    return InequalityReport(
        "kernel_bound",
        float(lhs),
        float(rhs),
        bool(lhs <= rhs),
        "midpoint lattice h=%g ht=%g" % (h, ht),
    )
