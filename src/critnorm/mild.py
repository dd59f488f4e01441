"""Duhamel integrals and small-data mild solutions.

The in-time heat convolution L(f)(t) = int_0^t e^{(t-s) Lap} f(s) ds is
discretized by sampling the integrand slice at the left endpoint while
integrating the heat multiplier exactly on every sub-interval, so the
(t - s)^{-1/2}-strength endpoint of the divergence-form kernel costs
nothing. Per mode the rule collapses to one pass over the slices,

    S_i = f_{i-1} + e^{-k^2 dt} S_{i-1},  L(f)(t_i) = (1 - e^{-k^2 dt}) S_i / k^2,

and is exact for integrands constant in time (geometric sum), which the
oracle tests lean on.

Output i reads the integrand slices 0..i-1 only, and output 0 is zero.
So both discrete equations of this module are lower-triangular in time:
the mild equation a = e^{t Lap} u0a - L(P div(a x a)) and the linear
equation u = f + L_a(u). Each is solved exactly by forward substitution,
one march (_March) that adds into the frames it reads: m - 1 stress
spectra on m stored times (_forward_solve).

The drift perturbation operator

    L_a(u) = L(div(u x a + a x u))
             + int_0^t grad e^{(t-s) Lap} R_i R_j (u_i a_j + u_j a_i) ds

collapses mode by mode to L applied to the Leray-projected tensor
divergence: (delta_km - xi_k xi_m / |xi|^2) i xi_j S_mj reproduces both
pieces for symmetric S. invert_I_minus_La reports ||u - f|| / ||u|| =
||L_a u|| / ||u|| in L^2_{t,x}, a lower bound on the norm of L_a. The
drift budget is the fixed threshold EPS_Q, not a derived constant.

Every finite L^r_t norm here is cylinder.trapezoid of per-slice norms
over the stored times [0, T].
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _fft
from .cylinder import trapezoid
from .fieldio import write_csv
from .fields import SpaceTimeField, VectorField
from .norms import (
    BallRegion,
    InequalityReport,
    box_lp,
    lorentz_quasinorm,
    parabolic_holder_seminorm,
)
from .spectral import (
    divergence,
    gradient,
    heat_semigroup,
    neg_leray_div_hat,
    sym_outer_hat,
    tensor_div_hat,
)

__all__ = [
    "DuhamelConfig",
    "MildSolution",
    "InversionResult",
    "PicardDivergence",
    "spacetime_lebesgue",
    "duhamel",
    "duhamel_div",
    "apply_La",
    "drift_smallness",
    "check_duhamel_estimates",
    "invert_I_minus_La",
    "solve_mild",
    "write_decay_csv",
]

# drift budget of invert_I_minus_La: ||a||_{L^5} + sup s^{1/5} ||a(s)||_5 <= EPS_Q
EPS_Q = 0.05
# Holder exponent of the parabolic smoothing checks in check_duhamel_estimates
_HOLDER_NU = 0.45


@dataclass(frozen=True)
class DuhamelConfig:
    """Time discretization of the solvers: step dt and horizon T."""

    dt: float
    T: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.T >= self.dt:
            raise ValueError("horizon shorter than one step")
        m = round(self.T / self.dt)
        if abs(m * self.dt - self.T) > 1e-9 * max(self.T, 1.0):
            raise ValueError("T must be an integer number of steps")

    def times(self):
        m = round(self.T / self.dt)
        return self.dt * np.arange(m + 1)


class PicardDivergence(RuntimeError):
    """A forward solve blew up; history carries its per-slice sizes
    ||x_i - x0_i||_2, x0 the start orbit (e^{t Lap} u0a, or f)."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = tuple(float(h) for h in history)


def _st_norm(grid, times, frames, r, p):
    return _time_norm(times, [box_lp(grid, frames[i], p) for i in range(len(times))], r)


def _time_norm(times, vals, r):
    """L^r in time of per-slice values, trapezoid over [t_0, t_m]; the max for r = inf."""
    vals = np.array(vals)
    if r == math.inf:
        return float(np.max(vals))
    if len(times) < 2:
        raise ValueError("finite time exponent needs at least two slices")
    return trapezoid(vals**r, times) ** (1.0 / r)


def spacetime_lebesgue(u, r, p):
    """Mixed norm ||u||_{L^r_t L^p_x} by slice quadrature, trapezoid in time."""
    if not (r >= 1 and p >= 1):
        raise ValueError("exponents must be >= 1")
    return _st_norm(u.grid, u.times, u.frames, r, p)


def _duhamel_gate(f):
    if len(f) < 2:
        raise ValueError("need at least two slices")
    if abs(float(f.times[0])) > 1e-12:
        raise ValueError("Duhamel integral starts at t = 0")


class _March:
    """The recurrence of the module docstring over the spectra
    h_j = hat(j, frames[j]). increments(frames) yields (i, L(h)(t_i)) for
    i >= 1 and reads frames[i - 1] only when increment i is asked for, so
    the caller may add each increment into frames before the next one:
    that solves x = x_0 + L(h(x)) forward in one pass. A call adds every
    increment into out and returns out; out may be frames itself. hat
    returns a fresh array, which the march sums into.
    """

    def __init__(self, grid, times, hat):
        dt = float(times[1] - times[0])
        self.grid, self.hat = grid, hat
        self.E = np.exp(-grid.k2 * dt)
        self.ctilde = np.where(grid.k2 > 0, (1.0 - self.E) / grid.k2_safe, dt)

    def increments(self, frames):
        S = None
        for i in range(1, len(frames)):
            h = self.hat(i - 1, frames[i - 1])
            if S is not None:
                S *= self.E
                h += S  # h + E S, the running sum in h's buffer
            S = h
            yield i, _fft.irfftn(self.ctilde * S, self.grid.shape)

    def __call__(self, frames, out):
        for i, inc in self.increments(frames):
            out[i] += inc
        return out


def _forward_solve(grid, times, x0, march, names, residual=False):
    """The solution of x = x0 + L(h(x)), march being the _March of L(h),
    and its per-slice sizes ||x_i - x0_i||_2: adding each increment into
    a copy of x0 is forward substitution. A slice whose size is non-finite
    or above 1e6 max(||x0||_{L^2_{t,x}}, 1) raises PicardDivergence,
    worded by names = (solution, x, x0, what to shrink).

    With residual, x0 is the caller's scratch: slice i is overwritten by
    the residual x_i - x0_i - L(h(x))(t_i), formed as -((x0_i - x_i) +
    L(h(x))(t_i)) from the increment that made x_i, so no second march
    re-forms the spectra of x.
    """
    what, x, orbit, culprit = names
    bound = 1e6 * max(_st_norm(grid, times, x0, 2, 2), 1.0)
    frames = x0.copy()
    sizes = []

    def settle(i, inc):
        gap = np.subtract(x0[i], frames[i], out=x0[i] if residual else None)
        sizes.append(box_lp(grid, gap, 2))  # the norm of x_i - x0_i
        if residual:
            np.negative(np.add(gap, inc, out=gap), out=gap)

    settle(0, 0.0)
    for i, inc in march.increments(frames):
        frames[i] += inc
        settle(i, inc)
    for t, size in zip(times, sizes):
        if not size <= bound:  # inf and NaN too
            raise PicardDivergence(
                "%s blew up: ||%s - %s||_2 = %.3g at t = %g exceeds %.3g = 1e6 max(||%s||"
                "_{L^2_{t,x}}, 1); the %s is too large for the small-data theory on this "
                "horizon: shrink the %s or the horizon T"
                % (what, x, orbit, size, float(t), bound, orbit, culprit, culprit), sizes)
    return frames, sizes


def duhamel(f):
    """L(f)(t) = int_0^t e^{(t-s) Lap} f(s) ds on the stored time lattice."""
    _duhamel_gate(f)
    g = f.grid

    def hat(j, frame):
        return _fft.rfftn(frame)

    return SpaceTimeField(g, f.times, _March(g, f.times, hat)(f.frames, np.zeros(f.frames.shape)))


def duhamel_div(F):
    """L(div F)(t) with the derivative taken inside the exact multiplier."""
    _duhamel_gate(F)
    if F.frames.ndim != 6:
        raise ValueError("duhamel_div needs tensor slices")
    g = F.grid

    def hat(j, frame):
        return tensor_div_hat(g, _fft.rfftn(frame))

    out = np.zeros(F.frames.shape[:2] + F.frames.shape[3:])
    return SpaceTimeField(g, F.times, _March(g, F.times, hat)(F.frames, out))


def _sym_duhamel(grid, times, w_of_slice):
    """The march of L(-P div S) for S_j = u_j x w_j + w_j x u_j with
    w_j = w_of_slice(j, u_j), u the frames it is called on."""
    kd = grid.deriv_wavenumbers()

    def hat(j, u):
        return neg_leray_div_hat(kd, grid.k2_d_safe, sym_outer_hat(u, w_of_slice(j, u)))

    return _March(grid, times, hat)


def _drift_march(u, a):
    """The march of L_a = L(P div(u x a + a x u)) for u on a's time lattice,
    as L(-P div(u x w + w x u)) with w = -a."""
    _duhamel_gate(u)
    if u.frames.ndim != 5 or a.frames.ndim != 5:
        raise ValueError("L_a needs vector space-time fields")
    if u.grid != a.grid or len(u) != len(a) or not np.allclose(u.times, a.times):
        raise ValueError("u and a live on different lattices")
    return _sym_duhamel(u.grid, u.times, lambda j, _: np.negative(a.frames[j]))


def apply_La(u, a):
    """Drift perturbation L_a(u); both arguments on the same time lattice."""
    return SpaceTimeField(u.grid, u.times, _drift_march(u, a)(u.frames, np.zeros(u.frames.shape)))


def _l5_weighted_sup(a):
    """sup over stored s > 0 of s^{1/5} ||a(s)||_{L^5}."""
    sup = 0.0
    for i, t in enumerate(a.times):
        if t > 0:
            sup = max(sup, float(t) ** 0.2 * box_lp(a.grid, a.frames[i], 5))
    return sup


def drift_smallness(a):
    """||a||_{L^5_{t,x}} plus sup over stored s > 0 of s^{1/5} ||a(s)||_{L^5}."""
    return spacetime_lebesgue(a, 5, 5) + _l5_weighted_sup(a)


# ---------------------------------------------------------------------------
# empirical estimate checks


def _ineq(name, lhs, rhs, passed, method):
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        passed = False
    return InequalityReport(name, lhs, rhs, passed, method)


def check_duhamel_estimates(f=None, F=None, a=None, b=None):
    """Empirical constants for the smoothing estimates of L and L(div .).

    Only the time-triangle path has constant exactly 1 and is asserted;
    every other entry records the measured ratio with passed = None.
    Pass any subset of f (source), F (tensor flux), a/b (product pair).
    """
    reps = {}
    if f is not None:
        g = f.grid
        Lf = duhamel(f)
        dt = f.dt
        lp = [box_lp(g, f.frames[j], 2) for j in range(len(f))]
        worst = (0.0, 0.0, 0.0)
        for i in range(1, len(f)):
            lhs = box_lp(g, Lf.frames[i], 2)
            # the march's own exact discrete bound, constant 1: not a quadrature
            rhs = dt * sum(lp[:i])
            if rhs > 0 and lhs / rhs > worst[0]:
                worst = (lhs / rhs, lhs, rhs)
        reps["time_triangle"] = _ineq(
            "time_triangle", worst[1], worst[2],
            worst[0] <= 1 + 1e-10,
            "per-slice L2 of L(f) against the running time integral",
        )
        reps["mixed_smoothing"] = _ineq(
            "mixed_smoothing",
            spacetime_lebesgue(Lf, 10, 6),
            spacetime_lebesgue(f, 2, 2),
            None,
            "L^10_t L^6_x of L(f) against L^2_t L^2_x of f",
        )
        reps["sup_from_l1_linf"] = _ineq(
            "sup_from_l1_linf",
            spacetime_lebesgue(Lf, math.inf, math.inf),
            spacetime_lebesgue(f, 1, math.inf),
            None,
            "sup of L(f) against L^1_t L^inf_x of f",
        )
        ball = BallRegion((0.0, 0.0, 0.0), g.L / 4)
        reps["holder_gain"] = _ineq(
            "holder_gain",
            parabolic_holder_seminorm(Lf, _HOLDER_NU, ball).value,
            spacetime_lebesgue(f, math.inf, math.inf),
            None,
            "parabolic Holder seminorm of L(f), nu = %g" % _HOLDER_NU,
        )
    if F is not None:
        g = F.grid
        LF = duhamel_div(F)
        reps["div_integrability_gain"] = _ineq(
            "div_integrability_gain",
            spacetime_lebesgue(LF, 5, 5),
            _st_norm(g, F.times, F.frames, 2.5, 2.5),
            None,
            "L^5_{t,x} of L(div F) against L^{5/2}_{t,x} of F",
        )
        reps["div_sup"] = _ineq(
            "div_sup",
            spacetime_lebesgue(LF, math.inf, math.inf),
            _st_norm(g, F.times, F.frames, 10, 10),
            None,
            "sup of L(div F) against L^10_{t,x} of F",
        )
        ball = BallRegion((0.0, 0.0, 0.0), g.L / 4)
        reps["div_holder_gain"] = _ineq(
            "div_holder_gain",
            parabolic_holder_seminorm(LF, _HOLDER_NU, ball).value,
            _st_norm(g, F.times, F.frames, math.inf, math.inf),
            None,
            "parabolic Holder seminorm of L(div F), nu = %g" % _HOLDER_NU,
        )
    if a is not None and b is not None:
        g = a.grid
        S = a.frames[:, :, None] * b.frames[:, None, :]
        Lab = duhamel_div(SpaceTimeField(g, a.times, S))
        q = 10.0 / 3.0
        reps["tensor_product_lq"] = _ineq(
            "tensor_product_lq",
            spacetime_lebesgue(Lab, q, q),
            spacetime_lebesgue(a, 5, 5) * spacetime_lebesgue(b, q, q),
            None,
            "L^{10/3}_{t,x} of L(div(a x b)) against ||a||_5 ||b||_{10/3}",
        )
        reps["tensor_product_sup"] = _ineq(
            "tensor_product_sup",
            spacetime_lebesgue(Lab, math.inf, math.inf),
            _l5_weighted_sup(a) * spacetime_lebesgue(b, math.inf, math.inf),
            None,
            "sup of L(div(a x b)) against sup s^{1/5}||a||_5 times sup|b|",
        )
    return reps


# ---------------------------------------------------------------------------
# inversion of I - L_a


@dataclass(frozen=True)
class InversionResult:
    """u solves (I - L_a) u = f on the time lattice, up to round-off. contraction is
    ||u - f|| / ||u|| = ||L_a u|| / ||u|| in L^2_{t,x} (0 for u = 0), a
    lower bound on the norm of L_a; smallness is drift_smallness(a) and
    smallness_ok whether it is within EPS_Q."""

    u: SpaceTimeField
    contraction: float
    smallness: float
    smallness_ok: bool


def invert_I_minus_La(f, a):
    """Solve (I - L_a) u = f, that is u = f + L_a(u), by forward substitution.

    The drift budget EPS_Q is a fixed threshold; exceeding it is
    reported, not fatal, since the true smallness constant is unknown. A
    solution whose distance from f blows up raises PicardDivergence.
    """
    march = _drift_march(f, a)
    small = drift_smallness(a)
    g, times = f.grid, f.times
    u, gaps = _forward_solve(g, times, f.frames, march, ("(I - L_a)^{-1} f", "u", "f", "drift a"))
    size = _st_norm(g, times, u, 2, 2)
    return InversionResult(
        u=SpaceTimeField(g, times, u),
        # ||u_i - f_i||_2 from the solve: box_lp squares, so the sign of f_i - u_i is moot
        contraction=_time_norm(times, gaps, 2) / size if size > 0 else 0.0,
        smallness=small,
        smallness_ok=small <= EPS_Q,
    )


# ---------------------------------------------------------------------------
# mild solutions


@dataclass(frozen=True)
class MildSolution:
    """The discrete mild solution, solved forward in one pass
    (iterations = 1), with its decay ledger.

    decay_table rows carry t, the plain L^3 norm, the weighted norms
    t^{1/8} L^4, t^{1/5} L^5, t^{1/2} L^inf, t^{1/2} L^3 of the gradient,
    the configured t^{(1-3/p)/2} L^p column, and the per-slice residual
    of the integral equation. k0_empirical is the sup over t > 0 of the
    variant's weighted-norm sum divided by the data norm.
    """

    a: SpaceTimeField
    data_norm_kind: str
    data_norm: float
    decay_table: tuple
    k0_empirical: float
    l5_spacetime: float
    residual: float
    residual_rel: float
    iterations: int


def solve_mild(u0a, cfg, data_norm="l3", besov_p=6.0):
    """Small-data mild solution a = e^{t Lap} u0a - L(P div(a x a)).

    data_norm selects the critical norm of the data used for the
    empirical constant: "l3", "weak_l3" (Lorentz L^{3,inf}), or "besov"
    (heat-characterized sup_t t^{(1-3/p)/2} ||e^{t Lap} u0a||_p, with
    p = besov_p > 3, which every kind reads for its decay column). A
    solution whose distance from the heat orbit blows up raises
    PicardDivergence.
    """
    if not isinstance(u0a, VectorField):
        raise ValueError("initial data must be a vector field")
    u0a = VectorField(u0a.grid, u0a.data)  # a view: the caller's field keeps no spectrum
    if data_norm not in ("l3", "weak_l3", "besov"):
        raise ValueError("unknown data norm kind %r" % data_norm)
    p = float(besov_p)
    if not p > 3.0:
        raise ValueError("besov_p must exceed 3 so that the Besov index -1 + 3/p "
                         "is negative, got %g" % p)
    g = u0a.grid
    kmax = math.sqrt(float(np.max(g.k2)))
    unorm = u0a.l2()
    if unorm > 0 and divergence(u0a).l2() > 1e-8 * kmax * unorm:
        raise ValueError("initial data is not divergence-free")

    times = cfg.times()
    m = len(times)
    H = np.empty((m, 3) + g.shape)
    for i, t in enumerate(times):
        H[i] = heat_semigroup(u0a, float(t)).data

    if data_norm == "l3":
        value = box_lp(g, u0a.data, 3)
    elif data_norm == "weak_l3":
        value = lorentz_quasinorm(u0a, 3, math.inf).value
    else:
        value = max(
            float(t) ** (0.5 * (1 - 3 / p)) * box_lp(g, H[i], p)
            for i, t in enumerate(times)
            if t > 0
        )

    del u0a  # the view, with its spectrum: the march reads H
    # L(-P div(a x a)), with w = a / 2 since the symmetrization doubles;
    # the residual a - H - L(a) is left in H's buffer
    march = _sym_duhamel(g, times, lambda j, u: 0.5 * u)
    frames, _ = _forward_solve(g, times, H, march,
                               ("mild solution", "a", "e^{t Lap} u0a", "data"), residual=True)
    a = SpaceTimeField(g, times, frames)
    resid_frames = H
    residual = _st_norm(g, times, resid_frames, 2, 2)

    rows = []
    k0 = 0.0
    for i, t in enumerate(times):
        t = float(t)
        row = {
            "t": t,
            "l3": box_lp(g, frames[i], 3),
            "t18_l4": t**0.125 * box_lp(g, frames[i], 4),
            "t15_l5": t**0.2 * box_lp(g, frames[i], 5),
            "t12_linf": t**0.5 * box_lp(g, frames[i], math.inf),
            "tp_lp": t ** (0.5 * (1 - 3 / p)) * box_lp(g, frames[i], p),
            "residual": box_lp(g, resid_frames[i], 2),
        }
        if data_norm == "l3":
            # the weight t^{1/2} is 0 at t = 0: no gradient is taken there
            row["t12_grad_l3"] = t**0.5 * box_lp(g, gradient(a[i]).data, 3) if t > 0 else 0.0
        if data_norm == "weak_l3":
            row["weak3"] = lorentz_quasinorm(a[i], 3, math.inf).value
        rows.append(row)
        if t > 0 and value > 0:
            if data_norm == "l3":
                s = row["l3"] + row["t18_l4"] + row["t15_l5"] + row["t12_linf"]
                s += row["t12_grad_l3"]
            elif data_norm == "weak_l3":
                s = row["weak3"] + row["t18_l4"] + row["t15_l5"] + row["t12_linf"]
            else:
                s = row["tp_lp"] + row["t12_linf"]
            k0 = max(k0, s / value)

    return MildSolution(
        a=a,
        data_norm_kind=data_norm,
        data_norm=value,
        decay_table=tuple(rows),
        k0_empirical=k0,
        l5_spacetime=_st_norm(g, times, frames, 5, 5),
        residual=residual,
        residual_rel=residual / unorm if unorm > 0 else 0.0,
        iterations=1,
    )


def write_decay_csv(path, sol):
    """Decay ledger CSV: t, t^{1/5} L5, t^{1/8} L4, t^{1/2} Linf, residual."""
    keys = ["t", "t15_l5", "t18_l4", "t12_linf", "residual"]
    write_csv(path, keys, ([row[k] for k in keys] for row in sol.decay_table))
