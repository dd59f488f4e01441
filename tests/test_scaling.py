"""Exact Navier-Stokes scaling of the whole chain.

The paper's quantities are critical: u_lam(x, t) = lam u(lam x, lam^2 t)
leaves them invariant. With lam = 1/2 the scaling is exact in IEEE
arithmetic: the box goes to side 2L on the same n, every time step and
the horizon to 4x, the Besov threshold N to N/2, and the radii, centres
and top time to 2x, so the ledger's k shifts down by one and every
k^2 dt, k x and r/dx keeps its bits. The datum is the array times 1/2 on
the doubled box, not a datum generated there: corpus fields are
normalized on the grid they are sampled on.

One 16^3 chain runs at both scales: split, mild drift, driven PNS,
pressure oscillation and ledger. The fields scale bit for bit; the
critical numbers agree to 1e-14 relative.
"""

import math

import numpy as np
import pytest

from critnorm import besov, ckn, corpus, mild, norms, pns, pressure
from critnorm.fields import Grid, VectorField

DEFAULT_L = 2.0 * np.pi * np.sqrt(2.0)
LAM = 0.5
HORIZON = 5.0 / 64.0
CENTER = (0.25, 0.0, -0.125)
KS = (2, 3)  # the unscaled ledger rows
RTOL = 1e-14


def _chain(lam, data):
    s = 1.0 / lam  # lengths scale by s, times by s^2
    g = Grid(16, s * DEFAULT_L)
    split = besov.besov_split(VectorField(g, lam * data), 3.0 * lam, 6.0)
    sol = mild.solve_mild(split.tilde_g, mild.DuhamelConfig(dt=s * s / 64.0, T=s * s * HORIZON))
    run = pns.run_pns(
        split.bar_g,
        pns.PNSConfig(dt=s * s / 256.0, T=s * s * HORIZON, stride=2),
        a_provider=pns.drift_from_spacetime(sol.a),
    )
    center = tuple(s * c for c in CENTER)
    osc = pressure.pressure_oscillation_terms(run.v, run.a, run.q, center, s * 0.25, s * 1.0)
    shift = round(math.log2(s))
    ledger = ckn.build_ledger(run, center, s * s * HORIZON, ks=tuple(k - shift for k in KS))
    weak_l3 = norms.lorentz_quasinorm(run.v[-1], 3, math.inf).value
    return split, sol, run, osc, ledger, weak_l3


@pytest.fixture(scope="module")
def chains():
    # the seed-1 datum of the benchmark's workloads, on 16^3
    g = Grid(16, DEFAULT_L)
    rng = np.random.default_rng(1)
    data = (corpus.curl_bump(g, amplitude=0.5).data
            + corpus.random_divfree(g, rng, kmax=4, amplitude=0.05).data)
    return _chain(1.0, data), _chain(LAM, data)


def _rel(a, b):
    return abs(b - a) / abs(a)


def test_fields_scale_bit_for_bit(chains):
    (_, sol, run, *_), (_, sol_l, run_l, *_) = chains
    assert np.array_equal(run_l.v.times, run.v.times / LAM**2)
    assert np.array_equal(sol_l.a.frames, LAM * sol.a.frames)
    assert np.array_equal(run_l.v.frames, LAM * run.v.frames)
    assert np.array_equal(run_l.q.frames, LAM**2 * run.q.frames)
    assert sol_l.iterations == sol.iterations


def test_critical_numbers_are_invariant(chains):
    (split, sol, _, osc, _, weak_l3), (split_l, sol_l, _, osc_l, _, weak_l3_l) = chains
    assert _rel(sol.k0_empirical, sol_l.k0_empirical) <= RTOL
    assert osc.ratio > 0.0 and _rel(osc.ratio, osc_l.ratio) <= RTOL
    for name in ("tilde_critical", "bar_critical"):
        assert _rel(split.reports[name].value, split_l.reports[name].value) <= RTOL
    assert weak_l3 > 0.0 and _rel(weak_l3, weak_l3_l) <= RTOL


def test_ledger_b_scales_as_lam_to_the_minus_one(chains):
    ledger, ledger_l = chains[0][4], chains[1][4]
    for row, row_l in zip(ledger.rows, ledger_l.rows):
        assert (row_l.k, row_l.r_k) == (row.k - 1, row.r_k / LAM)
        assert row.b_value > 0.0 and row_l.b_value == row.b_value / LAM
