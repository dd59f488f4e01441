"""Dyadic cylinder ledger: smallness quantities on parabolic cylinders,
backward-heat test functions, Morrey-type suprema, and the bound for the
singular kernel 1/(|x-y|^2 + |t-s|)^2.

A parabolic cylinder Q_r(c, t) is B_r(c) x (t - r^2, t], anchored at its
top time. Over the dyadic radii r_k = 2^{-k} the ledger tracks

    A_k = r^{-2} int_{Q} |v|^3  +  r^{-(1+d)/2} int_{Q} |q - (q)_r(s)|^{3/2}
    B_k = sup_s int_{B} |v|^2  +  int_{Q} |grad v|^2

against the budgets eps^{2/3} r^{3-d} and C_B eps^{2/3} r^{3-2d/3}, plus
time-weighted variants whose budgets carry powers of (s - t0)_+ and so
only admit perturbations that are quiet up to t0.

Cylinder integrals follow the quadrature of critnorm.cylinder (stored
slices in time, native cells or the r/8 lattice in space). Suprema in
time scan stored slices only, so every reported sup is a stride-limited
lower bound; refining the storage stride can only raise it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .cylinder import ball_points, cube_lattice, sample_slice, stored_window
from .fieldio import write_csv
from .fields import ScalarField, nonic_step
from .norms import InequalityReport, NormReport
from .spectral import derivative
# bound here for perfbench/test_spans.py::test_from_import_bindings_are_counted
from .spectral import evaluate_at_points  # noqa: F401

__all__ = [
    "ParabolicCylinder",
    "LedgerRow",
    "WeightedValues",
    "DyadicLedger",
    "write_ledger_csv",
    "TestFunction",
    "build_test_function",
    "local_cubed_mass",
    "cylinder_smallness",
    "ledger_A",
    "ledger_B",
    "ledger_weighted",
    "build_ledger",
    "b_target_constant",
    "morrey_sup",
    "kernel_constant",
    "kernel_integral",
    "check_kernel_bound",
]


@dataclass(frozen=True)
class ParabolicCylinder:
    """B_r(center) x (t - r^2, t], anchored at the top time."""

    center: tuple
    t_top: float
    r: float

    def __post_init__(self):
        c = tuple(float(x) for x in np.reshape(self.center, 3))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "t_top", float(self.t_top))
        object.__setattr__(self, "r", float(self.r))
        if not self.r > 0:
            raise ValueError("cylinder radius must be positive")

    @property
    def window(self):
        return (self.t_top - self.r**2, self.t_top)


@dataclass(frozen=True)
class WeightedValues:
    """Weighted-row suprema: each value is sup over stored slices of
    lhs(s) / (s - t0)_+^p. A slice with zero weight but nonzero lhs
    pushes the value to infinity, which no finite budget passes."""

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
    weighted: object = None  # WeightedValues when the weighted variant ran


@dataclass(frozen=True)
class DyadicLedger:
    """Rows over strictly halving radii plus the budget parameters."""

    rows: tuple
    delta: float
    eps_star: float
    c_b: float
    eta: object = None
    t0: object = None

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("ledger needs at least one row")
        for prev, row in zip(rows, rows[1:]):
            if abs(row.r_k - 0.5 * prev.r_k) > 1e-15 * prev.r_k:
                raise ValueError("ledger radii must halve row to row")
        for row in rows:
            vals = [row.r_k, row.a_value, row.a_target, row.b_value, row.b_target]
            if row.weighted is not None:
                w = row.weighted
                vals += [w.apk, w.appk, w.bpk, w.apk_target, w.appk_target, w.bpk_target]
            if not all(math.isfinite(v) for v in vals):
                raise ValueError("ledger entries must be finite")


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


def _slice_loads(run, center, t_top, r, want_q=False, want_energy=False):
    """Per-slice ball integrals over Q_r(center, t_top).

    Returns the selected times and a dict of per-slice values: |v|^3
    always; the oscillation |q - (q)_r|^{3/2} with the slice ball mean
    when want_q; |v|^2 and |grad v|^2 when want_energy. Each entry
    already carries the cell volume.
    """
    g = run.grid
    sel = stored_window(run.v.times, t_top - r * r, t_top)
    axes, rad, cell = ball_points(g, center, r)
    inside = rad <= r
    n_in = int(np.count_nonzero(inside))
    m = len(sel)
    out = {"v3": np.empty(m)}
    if want_q:
        out["qosc"] = np.empty(m)
    if want_energy:
        out["v2"] = np.empty(m)
        out["grad2"] = np.empty(m)
    for row, i in enumerate(sel):
        s2 = sample_slice(g, run.v.frames[i], axes)
        out["v3"][row] = np.sum(s2[inside] ** 1.5) * cell
        if want_q:
            qs = sample_slice(g, run.q.frames[i], axes)
            qa = float(np.sum(qs[inside]) / n_in)
            out["qosc"][row] = np.sum(np.abs(qs[inside] - qa) ** 1.5) * cell
        if want_energy:
            out["v2"][row] = np.sum(s2[inside]) * cell
            tot = 0.0
            for c in range(3):
                f = ScalarField(g, run.v.frames[i, c])
                for ax in range(3):
                    d = sample_slice(g, derivative(f, ax).values, axes)
                    tot += np.sum(d[inside] ** 2)
            out["grad2"][row] = tot * cell
    return run.v.times[sel], out


def local_cubed_mass(run, center, t_top, r):
    """Integral of |v|^3 over Q_r(center, t_top) from the stored slices."""
    ts, loads = _slice_loads(run, center, t_top, float(r))
    return float(np.trapezoid(loads["v3"], ts))


def cylinder_smallness(run, center, t_top, r=1.0):
    """Integral of |v|^3 + |q|^{3/2} over Q_r: the measured smallness the
    ledger budgets are calibrated against.

    Unlike the ledger rows, the time window is clipped to the stored
    span: the budget is measured on the run that exists, so a run
    shorter than r^2 contributes what it has rather than raising.
    """
    g = run.grid
    r = float(r)
    sel = stored_window(run.v.times, t_top - r * r, t_top, clip_start=True)
    axes, rad, cell = ball_points(g, center, r)
    inside = rad <= r
    vals = np.empty(len(sel))
    for row, i in enumerate(sel):
        s2 = sample_slice(g, run.v.frames[i], axes)
        qs = sample_slice(g, run.q.frames[i], axes)
        vals[row] = (np.sum(s2[inside] ** 1.5) + np.sum(np.abs(qs[inside]) ** 1.5)) * cell
    return float(np.trapezoid(vals, run.v.times[sel]))


# ---------------------------------------------------------------------------
# ledger rows


def _a_value(loads, ts, r, delta, pressure_on=True):
    value = float(np.trapezoid(loads["v3"], ts)) / r**2
    if pressure_on:
        value += float(np.trapezoid(loads["qosc"], ts)) * r ** (-(1.0 + delta) / 2.0)
    return value


def _b_value(loads, ts):
    return float(np.max(loads["v2"])) + float(np.trapezoid(loads["grad2"], ts))


def _a_target(r, delta, eps_star):
    return eps_star ** (2.0 / 3.0) * r ** (3.0 - delta)


def _b_target(r, delta, eps_star, c_b):
    return c_b * eps_star ** (2.0 / 3.0) * r ** (3.0 - 2.0 * delta / 3.0)


def ledger_A(run, center, t_top, k, delta=1.0, eps_star=1.0, pressure_on=True):
    """A_k on Q_{2^-k}(center, t_top) and its budget eps^{2/3} r^{3-delta}.

    A_k is r^{-2} int |v|^3 plus, when pressure_on, the oscillation part
    r^{-(1+delta)/2} int |q - (q)_r(s)|^{3/2} with (q)_r the ball mean
    slice by slice. Returns (value, target).
    """
    cyl = ParabolicCylinder(center, t_top, 2.0 ** -k)
    ts, loads = _slice_loads(run, cyl.center, cyl.t_top, cyl.r, want_q=pressure_on)
    return _a_value(loads, ts, cyl.r, delta, pressure_on), _a_target(cyl.r, delta, eps_star)


def ledger_B(run, center, t_top, k, delta=1.0, eps_star=1.0, c_b=1.0):
    """B_k: sup-in-time ball energy plus cylinder dissipation, against the
    budget c_b eps^{2/3} r^{3-2 delta/3}. The sup scans stored slices
    only, so the value is a stride-limited lower bound."""
    cyl = ParabolicCylinder(center, t_top, 2.0 ** -k)
    ts, loads = _slice_loads(run, cyl.center, cyl.t_top, cyl.r, want_energy=True)
    return _b_value(loads, ts), _b_target(cyl.r, delta, eps_star, c_b)


def _weighted_sup(lhs, ts, t0, power):
    out = 0.0
    for val, s in zip(lhs, ts):
        w = max(float(s) - t0, 0.0) ** power
        if w > 0.0:
            out = max(out, float(val) / w)
        elif val > 0.0:
            return math.inf
    return out


def _check_weights(cyl, eta, t0):
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must sit in (0, 1)")
    if not (np.isfinite(t0) and t0 <= cyl.t_top + 1e-9):
        raise ValueError("t0 must not exceed the top time")


def _weighted_values(loads, ts, r, delta, eta, t0, eps_star, c_b):
    etap = eta / 6.0
    lhs_a = cumulative_trapezoid(loads["v3"], ts, initial=0.0) / r**2
    lhs_app = cumulative_trapezoid(loads["qosc"], ts, initial=0.0) * r ** (
        -(1.0 + delta) / 2.0
    )
    lhs_b = loads["v2"] + cumulative_trapezoid(loads["grad2"], ts, initial=0.0)
    budget = _a_target(r, delta, eps_star)
    return WeightedValues(
        apk=_weighted_sup(lhs_a, ts, t0, 1.5 * etap),
        appk=_weighted_sup(lhs_app, ts, t0, 0.75 * etap),
        bpk=_weighted_sup(lhs_b, ts, t0, etap),
        apk_target=0.5 * budget,
        appk_target=0.5 * budget,
        bpk_target=_b_target(r, delta, eps_star, c_b),
    )


def ledger_weighted(run, center, t_top, k, delta=1.0, eta=0.6, t0=0.0,
                    eps_star=1.0, c_b=1.0):
    """Weighted row (A'_k, A''_k, B'_k) with eta' = eta/6.

    For each stored slice s in the window the running integrals up to s
    are divided by the budget weight (s - t0)_+^p, with p = 3 eta'/2 for
    the |v|^3 part, 3 eta'/4 for the pressure oscillation, and eta' for
    the energy; the reported values are the suprema of those quotients,
    so value <= target is the displayed bound at every stored slice.
    Slices at or below t0 carry zero weight: any mass there sends the
    quotient to infinity, which is the point of the weighting.
    """
    cyl = ParabolicCylinder(center, t_top, 2.0 ** -k)
    _check_weights(cyl, eta, t0)
    ts, loads = _slice_loads(
        run, cyl.center, cyl.t_top, cyl.r, want_q=True, want_energy=True
    )
    return _weighted_values(loads, ts, cyl.r, delta, eta, t0, eps_star, c_b)


def build_ledger(run, center, t_top, ks=(2, 3, 4, 5), delta=1.0, eps_star=1.0,
                 c_b=1.0, eta=None, t0=None):
    """Assemble ledger rows over strictly halving radii; each pass flag
    compares the row's values to its budgets (weighted ones included
    when eta is given). Each row samples its cylinder's slices once and
    takes A_k, B_k and the weighted values from the same loads, the
    numbers ledger_A, ledger_B and ledger_weighted return."""
    rows = []
    for k in ks:
        cyl = ParabolicCylinder(center, t_top, 2.0 ** -k)
        if eta is not None:
            _check_weights(cyl, eta, t0)
        r = cyl.r
        ts, loads = _slice_loads(
            run, cyl.center, cyl.t_top, r, want_q=True, want_energy=True
        )
        a_val, a_tgt = _a_value(loads, ts, r, delta), _a_target(r, delta, eps_star)
        b_val, b_tgt = _b_value(loads, ts), _b_target(r, delta, eps_star, c_b)
        passed = a_val <= a_tgt and b_val <= b_tgt
        wv = None
        if eta is not None:
            wv = _weighted_values(loads, ts, r, delta, eta, t0, eps_star, c_b)
            passed = passed and wv.ok
        rows.append(LedgerRow(int(k), r, a_val, a_tgt, b_val, b_tgt, bool(passed), wv))
    return DyadicLedger(tuple(rows), float(delta), float(eps_star), float(c_b), eta, t0)


def b_target_constant(c1, delta=1.0):
    """Energy-budget constant 10 c1^2 (2^11/(1 - 2^{-2 delta/3}) + 2^6).

    Evaluated for reporting only; nothing in the ledger asserts it.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    return 10.0 * c1**2 * (2.0**11 / (1.0 - 2.0 ** (-2.0 * delta / 3.0)) + 2.0**6)


# ---------------------------------------------------------------------------
# Morrey-type supremum


def morrey_sup(run, region, delta=1.0, ks=(2, 3, 4, 5), stride=2, max_tops=6):
    """Sup of r^{delta-5} int_{Q_r} |v|^3 over a center lattice in the
    region, dyadic radii 2^{-k}, and stored top times.

    Centers are the native grid points in the region thinned by `stride`
    along each axis, plus the region center itself; for each radius at
    most max_tops admissible top times are scanned. Stored slices only,
    so the value is a lattice lower bound for the parabolic seminorm.
    """
    g = run.grid
    mask = g.radius(region.center) <= region.radius
    idx = np.argwhere(mask)
    keep = np.all(idx % stride == 0, axis=1)
    centers = [tuple(float(g.x[j]) for j in trip) for trip in idx[keep]]
    centers.append(region.center)
    times = run.v.times
    coeffs = {}  # per-slice spectral coefficients, reused across centers and radii
    best = 0.0
    for k in ks:
        r = 2.0 ** -k
        ok = times[times - r * r >= times[0] - 1e-12]
        if len(ok) == 0:
            continue
        pick = np.unique(np.linspace(0, len(ok) - 1, min(max_tops, len(ok))).astype(int))
        for t_top in ok[pick]:
            try:
                sel = stored_window(times, float(t_top) - r * r, float(t_top))
            except ValueError:
                continue
            for c in centers:
                axes, rad, cell = ball_points(g, c, r)
                inside = rad <= r
                vals = np.empty(len(sel))
                for row, i in enumerate(sel):
                    s2 = sample_slice(g, run.v.frames[i], axes, coeffs.setdefault(i, {}))
                    vals[row] = np.sum(s2[inside] ** 1.5) * cell
                mass = float(np.trapezoid(vals, times[sel]))
                best = max(best, r ** (delta - 5.0) * mass)
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


def _phi_fields(center, t_top, r_n, axes, s):
    """Value, gradient, and backward-heat residual of the test function on
    a tensor lattice at one time.

    The kernel time is tau = t_top + 2 r_n^2 - s, so the kernel factor
    stays smooth through the top time. The laplacian is assembled in
    divergence form and the time derivative in similarity form; where the
    cutoff is flat their difference is pure rounding, which is the
    backward-heat identity made visible.
    """
    tau = t_top + 2.0 * r_n**2 - s
    if tau <= 0.0:
        raise ValueError("sample time above the kernel window")
    ox = np.asarray(axes[0], dtype=np.float64) - center[0]
    oy = np.asarray(axes[1], dtype=np.float64) - center[1]
    oz = np.asarray(axes[2], dtype=np.float64) - center[2]
    X, Y, Z = ox[:, None, None], oy[None, :, None], oz[None, None, :]
    rho2 = X**2 + Y**2 + Z**2
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
    gfac = pref * (-gam / (2.0 * tau) * S * T + gam * T * Sp / rho_safe)
    grad = (gfac * X, gfac * Y, gfac * Z)

    gdot = -gam * rho2 / (2.0 * tau)  # grad Gamma . (x - center)
    lap_gam = -(gdot + 3.0 * gam) / (2.0 * tau)
    gam_tau = gam * (rho2 / (4.0 * tau**2) - 1.5 / tau)
    residual = pref * (
        S * T * (lap_gam - gam_tau)
        + gam * (S * Tp - rho * Sp * T / tau + T * (Spp + 2.0 * Sp / rho_safe))
    )
    return value, grad, residual


@dataclass(frozen=True)
class TestFunction:
    """Backward-heat test function at dyadic scale r_n = 2^{-n}.

    samples holds the values on the native grid at the stored times; c1
    is the smallest constant that makes all scanned bound families hold,
    and families records each family's own constant.
    """

    grid: object
    center: tuple
    t_top: float
    n: int
    r_n: float
    times: tuple
    samples: object
    c1: float
    families: dict

    def value(self, axes, s):
        self._check_time(s)
        return _phi_fields(self.center, self.t_top, self.r_n, axes, s)[0]

    def gradient(self, axes, s):
        self._check_time(s)
        return _phi_fields(self.center, self.t_top, self.r_n, axes, s)[1]

    def heat_residual(self, axes, s):
        self._check_time(s)
        return _phi_fields(self.center, self.t_top, self.r_n, axes, s)[2]

    def _check_time(self, s):
        # the taper that would close the support just above the top time is
        # never sampled (all ledger work sits at or below it), so times
        # beyond the top are rejected rather than extrapolated
        if s > self.t_top + 1e-12:
            raise ValueError("test function is only evaluated up to its top time")


def build_test_function(grid, center, t_top, n, times=None):
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
                the top time;
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
        val, grad, _ = _phi_fields(center, t_top, r_n, axes, s)
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
            val, grad, _ = _phi_fields(center, t_top, r_n, axes, s)
            ann = max(ann, float(np.max(val[shell])) / (r_n**2 * rk**-3))
            gmag = np.sqrt(grad[0] ** 2 + grad[1] ** 2 + grad[2] ** 2)
            ann_g = max(ann_g, float(np.max(gmag[shell])) / (r_n**2 * rk**-4))
    families["annulus"] = ann
    families["annulus_grad"] = ann_g

    # residual family, global at and below the top time
    offs = np.linspace(-0.5, 0.5, 81)
    axes = tuple(center[j] + offs for j in range(3))
    res = 0.0
    for s in t_top + np.linspace(-0.115, 0.0, 24):
        _, _, r_field = _phi_fields(center, t_top, r_n, axes, s)
        res = max(res, float(np.max(np.abs(r_field))) / r_n**2)
    families["residual"] = res

    # support family, checked exactly against the cutoff geometry
    axes, rad = cube_lattice(center, np.linspace(-0.49, 0.49, 15))
    outside = rad >= 0.34
    for s in t_top - np.array([0.0, 0.05, 0.1, 0.11]):
        val, _, _ = _phi_fields(center, t_top, r_n, axes, s)
        if np.any(val[outside] != 0.0):
            raise ValueError("support leaks past the spatial cutoff at scale %d" % n)
    for s in t_top - np.array([0.1051, 0.108, 1.0 / 9.0]):
        val, _, _ = _phi_fields(center, t_top, r_n, axes, s)
        if np.any(val != 0.0):
            raise ValueError("support leaks past the time cutoff at scale %d" % n)

    c1 = max(families.values())

    if times is None:
        times = t_top - np.linspace(1.0 / 9.0, 0.0, 13)
    times = np.asarray(times, dtype=np.float64)
    gaxes = (grid.x, grid.x, grid.x)
    samples = np.empty((len(times),) + grid.shape)
    for j, s in enumerate(times):
        if s > t_top + 1e-12:
            raise ValueError("sample times must not exceed the top time")
        samples[j] = _phi_fields(center, t_top, r_n, gaxes, float(s))[0]
    samples.flags.writeable = False

    return TestFunction(
        grid=grid,
        center=center,
        t_top=t_top,
        n=n,
        r_n=r_n,
        times=tuple(float(s) for s in times),
        samples=samples,
        c1=float(c1),
        families=families,
    )


# ---------------------------------------------------------------------------
# singular-kernel bound


def kernel_constant(delta):
    """Annulus-sum constant 8^{(5-delta)/2} / (1 - 8^{(delta-1)/2}) of the
    near-field case; the geometric sum converges only for delta in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must sit in (0, 1)")
    return 8.0 ** ((5.0 - delta) / 2.0) / (1.0 - 8.0 ** ((delta - 1.0) / 2.0))


def _source_lattice(h, ht):
    m = int(round(1.0 / h))
    mt = int(round(0.5 / ht))
    if abs(m * h - 1.0) > 1e-12 or abs(mt * ht - 0.5) > 1e-12:
        raise ValueError("h must divide 1 and ht must divide 1/2")
    offs = (np.arange(m) + 0.5) * h - 0.5
    ss = (np.arange(mt) + 0.5) * ht - 0.25
    return offs, ss


def _sample_source(g, offs, ss):
    Y1, Y2, Y3 = offs[:, None, None], offs[None, :, None], offs[None, None, :]
    shape = (len(offs),) * 3
    out = np.empty((len(ss),) + shape)
    for j, s in enumerate(ss):
        out[j] = np.abs(np.asarray(g(Y1, Y2, Y3, float(s)), dtype=np.float64)
                        * np.ones(shape))
    return out


def kernel_integral(g, x, t, h=1.0 / 16.0, ht=1.0 / 128.0):
    """Midpoint quadrature of int |g(y,s)| / (|x-y|^2 + |t-s|)^2 over the
    support box [-1/2,1/2]^3 x (-1/4,1/4).

    g is a callable taking three broadcastable coordinate arrays and a
    scalar time. Midpoints never coincide with x, so the kernel stays
    finite; near the singularity the quadrature is a crude estimate,
    far from it an accurate one.
    """
    offs, ss = _source_lattice(h, ht)
    gabs = _sample_source(g, offs, ss)
    Y1, Y2, Y3 = offs[:, None, None], offs[None, :, None], offs[None, None, :]
    d2 = (x[0] - Y1) ** 2 + (x[1] - Y2) ** 2 + (x[2] - Y3) ** 2
    total = 0.0
    for j, s in enumerate(ss):
        total += float(np.sum(gabs[j] / (d2 + abs(t - s)) ** 2))
    return total * h**3 * ht


def check_kernel_bound(g, delta=0.5, h=1.0 / 16.0, ht=1.0 / 128.0):
    """Empirical two-case bound for the singular kernel.

    The left side is the sup of the kernel integral over a probe lattice
    (points in and around the support plus far points); the right side is
    max(C(delta) ||g||_delta, 16 int |g|) with ||g||_delta swept
    morrey-style over centers, dyadic radii, and two-sided time windows
    on the same midpoint source lattice. g must vanish outside the
    support box; probed violations raise.
    """
    cdel = kernel_constant(delta)
    offs, ss = _source_lattice(h, ht)
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
        for cx in centers:
            for cy in centers:
                for cz in centers:
                    if cx**2 + cy**2 + cz**2 > 0.6**2:
                        continue
                    m = (Y1 - cx) ** 2 + (Y2 - cy) ** 2 + (Y3 - cz) ** 2 <= r2
                    if not np.any(m):
                        continue
                    per = gabs[:, m].sum(axis=1) * h**3
                    # two-sided window |s - t| < r^2 via prefix sums
                    csum = np.concatenate([[0.0], np.cumsum(per)])
                    for jt, t in enumerate(ss):
                        a = np.searchsorted(ss, t - r2, side="left")
                        b = np.searchsorted(ss, t + r2, side="right")
                        val = (csum[b] - csum[a]) * ht
                        gnorm = max(gnorm, r ** (delta - 5.0) * val)

    # probe lattice for the left side
    pts = []
    for cx in (-0.4, 0.0, 0.4):
        for cy in (-0.4, 0.0, 0.4):
            for cz in (-0.4, 0.0, 0.4):
                pts.append((cx, cy, cz))
    pts += [(1.25, 0.0, 0.0), (0.0, -1.5, 0.3)]
    lhs = 0.0
    for x in pts:
        d2 = (x[0] - Y1) ** 2 + (x[1] - Y2) ** 2 + (x[2] - Y3) ** 2
        for t in (-0.2, 0.0, 0.2, 0.5):
            tot = 0.0
            for j, s in enumerate(ss):
                tot += float(np.sum(gabs[j] / (d2 + abs(t - s)) ** 2))
            lhs = max(lhs, tot * h**3 * ht)

    rhs = max(cdel * gnorm, 16.0 * mass)
    ratio = lhs / rhs if rhs > 0.0 else 0.0
    return InequalityReport(
        "kernel_bound",
        float(lhs),
        float(rhs),
        float(ratio),
        bool(lhs <= rhs),
        "midpoint lattice h=%g ht=%g" % (h, ht),
    )
