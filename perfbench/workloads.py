"""The benchmark's workloads: inputs from a seed, the timed chain, output checks.

Every workload starts from the same datum: a localized curl_bump plus a
small band-limited divergence-free perturbation whose random phases come
from the seed. The localized-smoothing chain splits it in Besov space
(besov_split), solves for the drift `a` from the high-frequency part
(solve_mild), evolves `v` from the low-frequency part around that drift
(run_pns, driven through drift_from_spacetime, pressure recovered on each
stored slice) and ends in the energy, pressure and dyadic diagnostics.

- chain_n64 times the whole chain at 64^3: solver- and transform-bound.
- chain_n32 times the same chain at 32^3 with twice the steps, where
  per-call overhead and the n-independent zoom-lattice evaluation weigh
  more.
- ledger_n32 makes the driven 32^3 run in setup, stored densely enough
  for k = 4 cylinders, and times only the diagnostics on it: off-grid
  evaluation dominates and the r = 1/16 lattice sets the peak memory.
"""

import math
from dataclasses import dataclass

import numpy as np

from critnorm import besov, ckn, corpus, mild, norms, pns, pressure
from critnorm.fields import Grid, TensorField, VectorField, smooth_radial_cutoff

DEFAULT_SEED = 1

BOX = 2.0 * math.pi * math.sqrt(2.0)  # the test suite's default box
HORIZON = 5.0 / 64.0  # k = 2 cylinders (r^2 = 1/16) fit with t0 = 0 outside
ORIGIN = (0.0, 0.0, 0.0)
BUMP_AMPLITUDE = 0.5
NOISE_AMPLITUDE = 0.05
NOISE_KMAX = 4
SPLIT_N = 3.0
SPLIT_P = 6.0

# output checks that hold on every seed
RECOMPOSITION_TOL = 1e-14  # max|tilde + bar - g| / max|g|; measured ~1e-16
PICARD_RESIDUAL_TOL = 1e-11  # residual_rel of the mild solution; measured <1e-13
REFERENCE_RTOL = 1e-8  # default-seed values against reference.json


@dataclass(frozen=True)
class Workload:
    """Grid, time steps and the cylinders one workload integrates over.

    osc_radii are the pressure-oscillation radii (rho = 1); ledger_ks the
    dyadic ledger rows k, radius 2^-k. mismatch_bound bounds the relative L^{3/2}(B_1) gap of split_pressure;
    it follows the resolution (the test suite measures 0.15 at 32^3 and
    5e-3 at 64^3 on Taylor-Green data).
    """

    name: str
    n: int
    pns_dt: float
    stride: int
    mild_dt: float
    osc_radii: tuple
    ledger_ks: tuple
    mismatch_bound: float = 0.0

    @property
    def radii(self):
        return tuple(sorted(set(self.osc_radii) | {2.0 ** -k for k in self.ledger_ks}))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain_n64", 64, 1.0 / 256.0, 2, 1.0 / 64.0, (0.25,), (2, 3), 0.02),
        Workload("chain_n32", 32, 1.0 / 512.0, 4, 1.0 / 64.0, (0.25,), (2, 3), 0.3),
        Workload("ledger_n32", 32, 1.0 / 512.0, 2, 1.0 / 64.0, (0.25, 0.125, 0.0625), (2, 3, 4)),
    )
}


def validate(w):
    """Reject a configuration whose stored run cannot hold its cylinders.

    A cylinder of radius r spans the stored slices in [T - r^2, T]; it
    needs at least two of them, and must not reach t = 0 (the weighted
    ledger puts its singular time t0 = 0 outside every window).
    """
    steps = HORIZON / w.pns_dt
    if abs(steps - round(steps)) > 1e-9 or round(steps) % w.stride:
        raise ValueError(
            "%s: the horizon %g is not a whole number of strides of %d steps of %g"
            % (w.name, HORIZON, w.stride, w.pns_dt)
        )
    spacing = w.pns_dt * w.stride
    for r in w.radii:
        window = r * r
        if not window < HORIZON:
            raise ValueError(
                "%s: the window r^2 = %g of r = %g does not fit above t = 0 in "
                "the horizon %g" % (w.name, window, r, HORIZON)
            )
        if spacing > window * (1.0 + 1e-12):
            needed = math.floor(window / w.pns_dt * (1.0 + 1e-12))
            if needed < 1:
                hint = "a time step of at most %g" % window
            else:
                hint = "stride <= %d" % needed
            raise ValueError(
                "%s: stride %d stores a slice every %g, too coarse for the "
                "cylinder of radius r = %g (window r^2 = %g needs two stored "
                "slices); use %s" % (w.name, w.stride, spacing, r, window, hint)
            )


@dataclass
class Inputs:
    grid: object
    u0: VectorField
    phi: object  # static cutoff of the local energy identity
    split: object = None  # ledger_n32 only: the upstream chain made in setup
    sol: object = None
    run: object = None


def setup(w, seed):
    """The generated fields (and for ledger_n32 the stored driven run)."""
    grid = Grid(w.n, BOX)
    rng = np.random.default_rng(seed)
    bump = corpus.curl_bump(grid, amplitude=BUMP_AMPLITUDE)
    noise = corpus.random_divfree(grid, rng, kmax=NOISE_KMAX, amplitude=NOISE_AMPLITUDE)
    u0 = VectorField(grid, bump.data + noise.data)
    inputs = Inputs(grid, u0, smooth_radial_cutoff(grid, 1.0, 3.0))
    if w.name == "ledger_n32":
        inputs.split, inputs.sol, inputs.run = _driven_run(w, u0)
    return inputs


def _driven_run(w, u0):
    split = besov.besov_split(u0, SPLIT_N, SPLIT_P)
    sol = mild.solve_mild(split.tilde_g, mild.DuhamelConfig(dt=w.mild_dt, T=HORIZON))
    run = pns.run_pns(
        split.bar_g,
        pns.PNSConfig(dt=w.pns_dt, T=HORIZON, stride=w.stride),
        a_provider=pns.drift_from_spacetime(sol.a),
    )
    return split, sol, run


def run_timed(w, inputs):
    """The part of the workload the clock measures; returns its outputs."""
    if w.name == "ledger_n32":
        return _diagnostics(w, inputs)
    return _chain(w, inputs)


def _chain(w, inputs):
    g = inputs.grid
    split, sol, run = _driven_run(w, inputs.u0)
    energy = pns.verify_local_energy(run, inputs.phi)
    v, a = run.v.frames[-1], run.a.frames[-1]
    cross = a[:, None] * v[None, :]
    stress = TensorField(g, v[:, None] * v[None, :] + cross + np.swapaxes(cross, 0, 1))
    psplit = pressure.split_pressure(run.q[-1], stress, pressure.RadialCutoff(g, 0.2, 1.0))
    oscs = [
        pressure.pressure_oscillation_terms(run.v, run.a, run.q, ORIGIN, r, 1.0)
        for r in w.osc_radii
    ]
    ledger = ckn.build_ledger(run, ORIGIN, HORIZON, ks=w.ledger_ks)
    return {
        "split": split, "sol": sol, "energy": energy, "psplit": psplit,
        "oscs": oscs, "ledger": ledger,
    }


def _diagnostics(w, inputs):
    g, run = inputs.grid, inputs.run
    oscs = [
        pressure.pressure_oscillation_terms(run.v, run.a, run.q, ORIGIN, r, 1.0)
        for r in w.osc_radii
    ]
    ledger = ckn.build_ledger(run, ORIGIN, HORIZON, ks=w.ledger_ks, eta=0.6, t0=0.0)
    msup = ckn.morrey_sup(run, norms.BallRegion(ORIGIN, 0.5), ks=w.ledger_ks)
    test_fn = ckn.build_test_function(g, ORIGIN, HORIZON, 4)
    v = run.v[-1]
    centres = [tuple(float(g.x[j]) for j in idx) for idx in np.argwhere(g.radius() <= 1.0)]
    concentration = [
        norms.morrey_critical(v, centres, 2.0 * g.dx, 2.0),
        norms.l2_uloc(v),
        norms.lorentz_quasinorm(v, 3, math.inf),
    ]
    return {
        "split": inputs.split, "sol": inputs.sol, "oscs": oscs, "ledger": ledger,
        "msup": msup, "test_fn": test_fn, "concentration": concentration,
    }


def values(out):
    """The numbers the default seed compares against reference.json."""
    vals = {
        "k0_empirical": out["sol"].k0_empirical,
        "osc_ratios": [o.ratio for o in out["oscs"]],
        "ledger_a": [row.a_value for row in out["ledger"].rows],
        "ledger_b": [row.b_value for row in out["ledger"].rows],
    }
    if "test_fn" in out:
        vals["c1"] = out["test_fn"].c1
    return vals


def check(w, inputs, out, seed, reference):
    """Descriptions of every failed output check; empty when all hold."""
    failed = []
    split, sol = out["split"], out["sol"]
    u0 = inputs.u0.data
    recomposed = np.max(np.abs(split.tilde_g.data + split.bar_g.data - u0)) / np.max(np.abs(u0))
    if not recomposed <= RECOMPOSITION_TOL:
        failed.append("tilde + bar misses g by %.3g (relative)" % recomposed)
    if not sol.residual_rel <= PICARD_RESIDUAL_TOL:
        failed.append("Picard residual_rel %.3g above %g" % (sol.residual_rel, PICARD_RESIDUAL_TOL))
    for row in out["ledger"].rows:
        if not row.passed:
            failed.append("ledger row k = %d fails its budgets" % row.k)
    for osc in out["oscs"]:
        if not (math.isfinite(osc.ratio) and osc.ratio > 0.0):
            failed.append("oscillation ratio %r at r = %g" % (osc.ratio, osc.r))
    if "energy" in out:
        bad = [e.t for e in out["energy"] if not e.passed]
        if bad:
            failed.append("local energy fails at t = %s" % bad)
        if not out["psplit"].mismatch <= w.mismatch_bound:
            failed.append(
                "split_pressure mismatch %.3g above %g" % (out["psplit"].mismatch, w.mismatch_bound)
            )
    if "test_fn" in out:
        if not math.isfinite(out["test_fn"].c1):
            failed.append("test function constant c1 is not finite")
        reports = [out["msup"]] + out["concentration"]
        if not all(rep.value > 0.0 for rep in reports):
            failed.append("a concentration norm vanished")
    if seed == DEFAULT_SEED:
        failed.extend(_compare(values(out), reference[w.name]))
    return failed


def _compare(got, want):
    failed = []
    for key, ref in want.items():
        vals = np.atleast_1d(got[key])
        refs = np.atleast_1d(ref)
        if vals.shape != refs.shape or not np.allclose(vals, refs, rtol=REFERENCE_RTOL, atol=0.0):
            failed.append("%s = %s, reference %s" % (key, got[key], ref))
    return failed
