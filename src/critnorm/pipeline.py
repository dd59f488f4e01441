"""The localized-smoothing chain, from the data to the ledgers.

run_chain(cfg, u0) takes each step of the paper's argument once, in order:

1. the Besov split of the data, u0 = tilde_g + bar_g at the threshold
   cfg.split_N, critical norms at p = SPLIT_P (besov.besov_split);
2. the mild solution a from the small part tilde_g (mild.solve_mild);
3. the perturbed system for v from the large part bar_g around the drift
   a, with the pressure q of every stored slice (pns.run_pns);
4. the ledgers: the local energy identity under a cutoff about the
   origin (pns.verify_local_energy), the pressure split of the last
   slice (pressure.split_pressure), the pressure oscillations and the
   dyadic ledger (ckn.build_ledger) about cfg.center.

Every stage ends at cfg.pns.T, the mild horizon and the ledger's top
time. Both cutoffs are built on u0's grid before any solve, so bad radii
fail first; the stress lives only for the split.
"""

from dataclasses import dataclass

from . import besov, ckn, mild, pns, pressure
from .fields import TensorField, smooth_radial_cutoff

__all__ = ["ChainConfig", "ChainResult", "run_chain", "stress"]

SPLIT_P = 6.0  # the Lebesgue exponent of the split's critical Besov norms


@dataclass(frozen=True)
class ChainConfig:
    """What run_chain varies; no field has a default."""

    split_N: float  # Besov threshold of the data split
    mild_dt: float  # step of the mild solve on [0, pns.T]
    pns: pns.PNSConfig
    energy_radii: tuple  # (r_on, r_off) of the energy cutoff about the origin
    split_cutoff: tuple  # (r_on, r_off, centre) of the pressure split's RadialCutoff
    center: tuple  # of the oscillations and the ledger
    osc_radii: tuple  # one oscillation report per radius r
    rho: float  # the oscillations' outer radius
    ks: tuple  # ledger rows k, radius 2^-k
    weights: object  # None, or (eta, t0) of the weighted ledger


@dataclass(frozen=True)
class ChainResult:
    split: besov.BesovSplit
    sol: mild.MildSolution
    run: pns.PNSRun
    energy: tuple  # pns.EnergyLedgerEntry per stored slice after the first
    psplit: pressure.PressureSplit  # of the last stored slice's q
    oscs: tuple  # pressure.OscillationReport per cfg.osc_radii
    ledger: ckn.DyadicLedger


def stress(v, a):
    """The stress v x v + a x v + v x a of two VectorFields, all nine components."""
    cross = a.data[:, None] * v.data[None, :]
    return TensorField(v.grid, v.data[:, None] * v.data[None, :] + cross + cross.swapaxes(0, 1))


def run_chain(cfg, u0):
    """The chain of the module docstring on the divergence-free VectorField u0."""
    g, T = u0.grid, cfg.pns.T
    phi = smooth_radial_cutoff(g, *cfg.energy_radii)
    r_on, r_off, centre = cfg.split_cutoff
    cutoff = pressure.RadialCutoff(g, r_on, r_off, center=centre)
    split = besov.besov_split(u0, cfg.split_N, SPLIT_P)
    sol = mild.solve_mild(split.tilde_g, mild.DuhamelConfig(dt=cfg.mild_dt, T=T))
    run = pns.run_pns(split.bar_g, cfg.pns, a_provider=pns.drift_from_spacetime(sol.a))
    energy = tuple(pns.verify_local_energy(run, phi))
    psplit = pressure.split_pressure(run.q[-1], stress(run.v[-1], run.a[-1]), cutoff)
    del phi, cutoff
    oscs = tuple(pressure.pressure_oscillation_terms(run.v, run.a, run.q, cfg.center, r, cfg.rho)
                 for r in cfg.osc_radii)
    eta, t0 = cfg.weights or (None, None)
    ledger = ckn.build_ledger(run, cfg.center, T, cfg.ks, eta=eta, t0=t0)
    return ChainResult(split, sol, run, energy, psplit, oscs, ledger)
