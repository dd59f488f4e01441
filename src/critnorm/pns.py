"""Pseudo-spectral Navier-Stokes around a prescribed drift.

Evolves dv/dt - Lap v + grad q = -div(v x v + a x v + v x a), div v = 0,
with an integrating-factor Heun step: the heat multiplier is applied
exactly between stages, so only the advective step limit
dt <= 0.5 dx / max|v + a| remains. Products are formed pointwise and
every accepted state is Leray-projected by construction (the right-hand
side is projected mode by mode).

step is a pure function of v and the drift slices at its two ends;
run_pns owns the time loop and asks the drift provider once per time
level. The provider must be a pure function of t: the run keeps it and
no drift frames, and its a (DriftSlices) re-reads it at the stored
times, the floats the run passed it, so each re-read is the slice the
step used. run.a.frames takes integer indices only, and each read
computes a slice afresh: sampling a on the native grid
(cylinder.sample_slice) re-reads a slice once per slab, which is once
per slice up to 64^3.

A step works on its kept modes: the 2/3 block |m_x|, |m_y|, m_z < n/3 of
Grid.dealias_mask, or every mode without dealiasing. Each stage gathers
the stress spectrum there once and applies -P div (neg_leray_div_hat)
and both Heun combinations to the block alone; the new state's spectrum
is zero outside it. run_pns dealiases its initial data, so the modes a
step drops hold round-off only. The new VectorField carries the spectrum
it was inverted from (VectorField.from_hat), so the next step reads
v.hat without a forward transform: two rfftn (the stresses) and two
irfftn per step.

The local energy ledger checks the identity obtained by multiplying the
system by 2 v phi and integrating by parts with a static spatial cutoff:

    int |v(t)|^2 phi + 2 int int |grad v|^2 phi
      = int |v(t0)|^2 phi + int int |v|^2 Lap phi
        + int int (|v|^2 + 2 q) v . grad phi + int int |v|^2 a . grad phi
        + 2 int int (a . v)(v . grad phi) + 2 int int (v . grad v) . a phi.

On smooth resolved runs the slack is pure quadrature error (time
integrals are cumulative Simpson over the stored slices); a negative
slack beyond the tolerance flags an energy-inequality
violation, which is the sign convention suitable solutions care about.
The whole-box check of undriven runs is this identity at phi = 1.
"""

import math
import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _fft
from .cylinder import cumulative_simpson
from .fieldio import write_csv
from .fields import ScalarField, SpaceTimeField, VectorField
from .spectral import (
    gradient,
    laplacian,
    leray_project,
    neg_leray_div_hat,
    sym_ddiv_hat,
    sym_outer_hat,
)

__all__ = [
    "PNSConfig",
    "PNSRun",
    "DriftSlices",
    "EnergyLedgerEntry",
    "GlobalEnergyReport",
    "step",
    "run_pns",
    "recover_pressure",
    "drift_from_spacetime",
    "verify_local_energy",
    "global_energy_check",
    "write_energy_csv",
]


@dataclass(frozen=True)
class PNSConfig:
    """Step size, horizon, storage stride and dealiasing."""

    dt: float
    T: float
    stride: int = 8
    dealias: bool = True

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.T >= self.dt:
            raise ValueError("horizon shorter than one step")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        n = round(self.T / self.dt)
        if abs(n * self.dt - self.T) > 1e-9 * max(self.T, 1.0):
            raise ValueError("T must be an integer number of steps")
        if n % self.stride != 0:
            raise ValueError("step count must be a multiple of the stride")

    @property
    def n_steps(self):
        return round(self.T / self.dt)


def _stress_hat(v_data, a_data):
    # v x v + a x v + v x a = v x w + w x v with w = v/2 + a
    w = 0.5 * v_data
    if a_data is not None:
        w += a_data
    return sym_outer_hat(v_data, w)


_Kept = namedtuple("_Kept", "index k2 kd k2_d_safe")


def _kept_modes(grid, dealias):
    """The modes a step keeps, the 2/3 block of grid.dealias_mask or every
    mode: an index into the last three axes of an rfft spectrum, and k^2,
    the derivative wavenumbers and their metric restricted to it."""
    keep = grid.dealias_mask if dealias else np.ones(grid.k2.shape, dtype=bool)
    ix, iy = np.flatnonzero(keep[:, 0, 0]), np.flatnonzero(keep[0, :, 0])
    index = (ix[:, None], iy[None, :], slice(0, int(np.count_nonzero(keep[0, 0]))))
    kx, ky, kz = grid.deriv_wavenumbers()
    return _Kept(
        (slice(None),) + index,  # component axis first
        grid.k2[index],
        (kx[ix], ky[:, iy], kz[..., index[2]]),
        grid.k2_d_safe[index],
    )


def _rhs_kept(kept, v_data, a_data):
    # -P div(v x v + a x v + v x a) on the kept modes
    return neg_leray_div_hat(kept.kd, kept.k2_d_safe, _stress_hat(v_data, a_data)[kept.index])


def step(v, dt, a_now, a_next, dealias):
    """One integrating-factor Heun step from v, the drift slices a_now and
    a_next at the step's two ends (None undriven); returns the new
    VectorField and rejects advective CFL violations.

    Runs on the kept modes (see the module docstring): the new field's
    spectrum is zero elsewhere and is carried with it, so the next step
    reads v.hat without a forward transform.
    """
    g = v.grid
    a_data = None if a_now is None else a_now.data
    speed = v.data if a_data is None else v.data + a_data
    amax = float(np.max(np.sqrt(np.sum(speed**2, axis=0))))
    if amax > 0 and dt > 0.5 * g.dx / amax:
        raise ValueError(
            "advective CFL violation: dt <= %.6g required" % (0.5 * g.dx / amax)
        )
    kept = _kept_modes(g, dealias)
    E = np.exp(-kept.k2 * dt)
    vh = v.hat[kept.index]
    k1 = _rhs_kept(kept, v.data, a_data)
    hat = np.zeros_like(v.hat)
    hat[kept.index] = E * (vh + dt * k1)
    vstar = _fft.irfftn(hat, g.shape)
    k2 = _rhs_kept(kept, vstar, None if a_next is None else a_next.data)
    hat[kept.index] = E * vh + 0.5 * dt * (E * k1 + k2)
    return VectorField.from_hat(g, hat)


def recover_pressure(v, a=None):
    """Mean-zero q with Lap q = -d_i d_j (v_i v_j + a_i v_j + v_i a_j)."""
    g = v.grid
    if a is not None and a.grid != g:
        raise ValueError("grids differ")
    qh = sym_ddiv_hat(g, _stress_hat(v.data, None if a is None else a.data)) / g.k2_d_safe
    qh[0, 0, 0] = 0.0
    return ScalarField(g, _fft.irfftn(qh, g.shape))


def drift_from_spacetime(stf):
    """Linear-in-time interpolator over a stored drift orbit of at least
    two slices."""
    if len(stf) < 2:
        raise ValueError("the drift orbit needs at least two stored slices to "
                         "interpolate between, got %d" % len(stf))
    times = stf.times
    dt = stf.dt

    def provider(t):
        if t < times[0] - 1e-9 or t > times[-1] + 1e-9 * max(1.0, times[-1]):
            raise ValueError("drift requested at t = %.17g, outside the stored window "
                             "[%.17g, %.17g]" % (t, times[0], times[-1]))
        s = (t - float(times[0])) / dt
        # the slack below times[0] must not floor to -1, the last frame
        i = min(max(int(math.floor(s)), 0), len(times) - 2)
        w = s - i
        # (1 - w) F_i + w F_{i+1}, one temporary fewer, the same bits
        data = np.multiply(stf.frames[i], 1.0 - w)
        data += w * stf.frames[i + 1]
        return VectorField(stf.grid, data)

    return provider


@dataclass(frozen=True)
class DriftSlices:
    """A run's drift at its stored times, never stored: slices[i] is
    provider(times[i]), a VectorField on grid, computed afresh at each
    read, and slices.frames[i] its data (integer indices only). For a
    pure provider each read is, bit for bit, the slice the step used,
    since a stored time is the float run_pns passed the provider."""

    grid: object
    times: np.ndarray
    provider: object

    def __len__(self):
        return len(self.times)

    def __getitem__(self, i):
        return self.provider(float(self.times[operator.index(i)]))

    @property
    def frames(self):
        return _FramesOf(self)


class _FramesOf:
    """frames[i] of a DriftSlices: the data of its slice i."""

    def __init__(self, slices):
        self._slices = slices

    def __getitem__(self, i):
        return self._slices[i].data


@dataclass(frozen=True)
class PNSRun:
    """Stored slices of one integration: v and recovered q on the stored
    times, and the drift a as DriftSlices over the provider (None
    undriven), which holds no frames."""

    grid: object
    cfg: PNSConfig
    v: SpaceTimeField
    q: SpaceTimeField
    a: object  # DriftSlices or None


def run_pns(v0, cfg, a_provider=None):
    """Integrate from v0, storing every cfg.stride-th slice with pressure.

    Initial data is dealiased and projected once; thereafter both
    properties are preserved by the stepper itself. a_provider maps t to
    a drift slice, a VectorField on v0's grid, and must be a pure
    function of t: the run keeps the provider, not its slices, and
    run.a re-reads it at the stored times. Time level i is i * cfg.dt,
    as in DuhamelConfig.times(). The provider is asked for the last
    level first, so a drift orbit that ends early, or a slice of another
    kind or grid, fails up front, and then once per level: a step's
    slice at level i + 1 is the next step's slice at level i.
    """
    g = v0.grid

    def drift(t):
        return None if a_provider is None else a_provider(t)

    n = cfg.n_steps
    end = drift(n * cfg.dt)
    if a_provider is not None and not (isinstance(end, VectorField) and end.grid == g):
        raise ValueError(
            "the drift provider must return a VectorField on the grid of v0, %r; at "
            "t = T = %g it returned %s" % (
                g, n * cfg.dt, end.grid if isinstance(end, VectorField) else type(end).__name__))
    del end
    vh = VectorField(g, v0.data).hat * (g.dealias_mask if cfg.dealias else 1.0)  # a view
    v = leray_project(VectorField(g, _fft.irfftn(vh, g.shape)))
    t = 0.0
    a_now = drift(t)
    kept = n // cfg.stride + 1
    times = np.empty(kept)
    vs = np.empty((kept,) + (3,) + g.shape)
    qs = np.empty((kept,) + g.shape)

    def store(idx):
        times[idx] = t
        vs[idx] = v.data
        qs[idx] = recover_pressure(v, a_now).data

    store(0)
    for i in range(1, n + 1):
        t_next = i * cfg.dt
        a_next = drift(t_next)
        v = step(v, cfg.dt, a_now, a_next, cfg.dealias)
        t, a_now = t_next, a_next
        if i % cfg.stride == 0:
            store(i // cfg.stride)
    v_run = SpaceTimeField(g, times, vs)
    return PNSRun(
        grid=g,
        cfg=cfg,
        v=v_run,
        q=SpaceTimeField(g, times, qs),
        a=None if a_provider is None else DriftSlices(g, v_run.times, a_provider),
    )


# ---------------------------------------------------------------------------
# energy bookkeeping


# the right side's space-time integrals of the local energy identity (module
# docstring), in order: the entries' terms, their sum and the CSV columns
_FLUX_TERMS = ("heat", "flux", "drift_gradphi", "drift_cross", "drift_convection")
_ENERGY_TOL_C = 10.0  # an energy entry passes when slack >= -_ENERGY_TOL_C (dt + dx^2) scale


@dataclass(frozen=True)
class EnergyLedgerEntry:
    t: float
    lhs: float
    rhs: float
    slack: float
    tol: float
    passed: bool
    terms: dict


@dataclass(frozen=True)
class GlobalEnergyReport:
    rows: tuple
    max_violation: float
    passed: bool


def _slice_densities(run, i, phiv, gphi, lap_phi):
    """Stored slice i's localized energy and the densities of the
    identity's time integrals, dissipation then _FLUX_TERMS (the drift
    terms 0 undriven). The gradient is taken one direction j at a time,
    summed into |grad v|^2 and (v . grad) v = sum_j v_j d_j v in order of j.
    Every field it makes dies on return, so no slice's fields outlive its row."""
    cell = run.grid.cell_volume
    v = run.v.frames[i]
    q = run.q.frames[i]
    v2 = np.sum(v**2, axis=0)
    vh = _fft.rfftn(v)
    grad2 = np.zeros(v2.shape)
    conv = None if run.a is None else np.zeros(v.shape)  # (v . grad) v
    for j, k in enumerate(run.grid.deriv_wavenumbers()):
        d = _fft.irfftn(1j * k * vh, v2.shape)  # d[i] = d_j v_i
        for di in d:
            grad2 += di**2
        if conv is not None:
            conv += v[j] * d
    del vh, d
    out = [
        np.sum(v2 * phiv) * cell,
        np.sum(grad2 * phiv) * cell,
        np.sum(v2 * lap_phi) * cell,
    ]
    v_gphi = np.sum(v * gphi, axis=0)
    out.append(np.sum((v2 + 2.0 * q) * v_gphi) * cell)
    if run.a is None:
        return out + [0.0, 0.0, 0.0]
    a = run.a.frames[i]  # a fresh slice, read once the gradient's transforms are done
    out.append(np.sum(v2 * np.sum(a * gphi, axis=0)) * cell)
    out.append(2.0 * np.sum(np.sum(a * v, axis=0) * v_gphi) * cell)
    out.append(2.0 * np.sum(np.sum(conv * a, axis=0) * phiv) * cell)
    return out


def verify_local_energy(run, phi):
    """Ledger of the localized energy identity over the whole stored run.

    phi is a static nonnegative spatial cutoff. Each entry integrates
    from the first stored slice up to its own time; passed means
    slack >= -tol with tol = _ENERGY_TOL_C (dt + dx^2) scale(terms),
    _ENERGY_TOL_C = 10.
    """
    if float(np.min(phi.values)) < 0:
        raise ValueError("cutoff must be nonnegative")
    g = run.grid
    if phi.grid != g:
        raise ValueError("grids differ")
    ts = run.v.times

    cutoff = ScalarField(g, phi.values)
    phiv = cutoff.values
    gphi = gradient(cutoff).data
    lap_phi = laplacian(cutoff).values

    # per slice: the energy, then the densities of the time integrals
    dens = np.array([_slice_densities(run, i, phiv, gphi, lap_phi) for i in range(len(ts))])
    e = dens[:, 0]
    names = ("dissipation",) + _FLUX_TERMS
    cum = {name: cumulative_simpson(dens[:, k], ts) for k, name in enumerate(names, 1)}
    entries = []
    for row in range(1, len(ts)):
        lhs = e[row] + 2.0 * cum["dissipation"][row]
        terms = {"initial_energy": e[0]}
        terms.update((name, cum[name][row]) for name in _FLUX_TERMS)
        terms.update(energy=e[row], dissipation=2.0 * cum["dissipation"][row])
        rhs = e[0] + sum(terms[name] for name in _FLUX_TERMS)
        scale = max(abs(lhs), abs(rhs), max(abs(val) for val in terms.values()))
        tol = _ENERGY_TOL_C * (run.cfg.dt + g.dx**2) * scale
        slack = rhs - lhs
        entries.append(
            EnergyLedgerEntry(
                t=float(ts[row]),
                lhs=lhs,
                rhs=rhs,
                slack=slack,
                tol=tol,
                passed=bool(slack >= -tol),
                terms=terms,
            )
        )
    return entries


def global_energy_check(run):
    """Whole-box energy inequality for undriven runs.

    The identity of verify_local_energy at phi = 1, where its heat, flux
    and drift terms vanish: ||v(t)||^2 + 2 int_0^t ||grad v||^2 <=
    ||v(0)||^2 at every stored slice, passed when every slack is at least
    -1e-6 ||v(0)||^2. Rows are (t, lhs, rhs, slack), the first slice's
    (t0, E0, E0, 0) followed by the identity's entries.
    """
    if run.a is not None:
        raise ValueError("global energy check applies to undriven runs")
    g = run.grid
    entries = verify_local_energy(run, ScalarField(g, np.ones(g.shape)))
    e0 = entries[0].terms["initial_energy"]
    rows = ((float(run.v.times[0]), e0, e0, 0.0),)
    rows += tuple((en.t, en.lhs, en.rhs, en.slack) for en in entries)
    return GlobalEnergyReport(
        rows=rows,
        max_violation=max(abs(row[3]) for row in rows),
        passed=all(row[3] >= -1e-6 * e0 for row in rows),
    )


def write_energy_csv(path, entries):
    names = ["initial_energy", *_FLUX_TERMS, "energy", "dissipation"]
    write_csv(
        path,
        ["t", "lhs", "rhs", "slack", "passed"] + names,
        ([en.t, en.lhs, en.rhs, en.slack, en.passed] + [en.terms[k] for k in names]
         for en in entries),
    )
