"""Exact Navier-Stokes scaling of the whole chain.

The paper's quantities are critical: u_lam(x, t) = lam u(lam x, lam^2 t)
leaves them invariant. With lam = 1/2 the scaling is exact in IEEE
arithmetic: the box goes to side 2L on the same n, every time step and
the horizon to 4x, the Besov threshold N to N/2, and the radii, centres
and top time to 2x, so the ledger's k shifts down by one and every
k^2 dt, k x and r/dx keeps its bits. The datum is the array times 1/2 on
the doubled box, not a datum generated there: corpus fields are
normalized on the grid they are sampled on.

One 16^3 chain runs at both scales through pipeline.run_chain: split,
mild drift, driven PNS, local energy identity, pressure split, pressure
oscillation and weighted ledger. On its run follow the weak L^3 norm,
the near and far Riesz sums of the cut-off stress, the weighted
oscillation and morrey_sup. The fields scale bit for bit; the critical
numbers agree to 1e-14 relative.

Every other exponent is counted from |v| ~ lam, q ~ lam^2, lengths
(dx, r, rho) ~ 1/lam and times (dt, |s - t0|) ~ 1/lam^2, and each test
states its count.
"""

import math

import numpy as np
import pytest

from critnorm import ckn, corpus, norms, pipeline, pns, pressure
from critnorm.fields import Grid, TensorField, VectorField

DEFAULT_L = 2.0 * np.pi * np.sqrt(2.0)
LAM = 0.5
HORIZON = 5.0 / 64.0
CENTER = (0.25, 0.0, -0.125)
KS = (2, 3)  # the unscaled ledger rows
ETA = 0.6  # the weighted ledger's eta, with t0 = 0
RTOL = 1e-14


def _chain(lam, data):
    """The chain through run_chain at scale lam, every radius, centre and
    time x 1/lam or 1/lam^2, as chains' and diagnostics' tuples; on its
    run, the last slice's weak L^3 norm, the near and far Riesz sums of
    the cut-off stress, the weighted oscillation and morrey_sup."""
    s = 1.0 / lam  # lengths scale by s, times by s^2
    g = Grid(16, s * DEFAULT_L)
    center = tuple(s * c for c in CENTER)
    ks = tuple(k - round(math.log2(s)) for k in KS)
    # split_pressure takes r_off <= 1; about the chain's centre the
    # transition holds grid points, so the Newton terms are not zero
    chain = pipeline.run_chain(pipeline.ChainConfig(
        split_N=3.0 * lam, mild_dt=s * s / 64.0,
        pns=pns.PNSConfig(dt=s * s / 256.0, T=s * s * HORIZON, stride=2),
        energy_radii=(s * 1.0, s * 3.0), split_cutoff=(s * 0.2, s * 0.5, center), center=center,
        osc_radii=(s * 0.25,), rho=s * 1.0, ks=ks, weights=(ETA, 0.0)), VectorField(g, lam * data))
    run = chain.run
    weak_l3 = norms.lorentz_quasinorm(run.v[-1], 3, math.inf).value
    # a wider cutoff, so that both parts of the ball's split hold cells
    wide = pressure.RadialCutoff(g, s * 0.5, s * 1.0, center=center).values
    stress = pipeline.stress(run.v[-1], run.a[-1])
    near_far = pressure.riesz_split_at(TensorField(g, wide * stress.data), center, s * 0.5)
    wosc = pressure.pressure_oscillation_terms(run.v, run.a, run.q, center, s * 0.25, s * 1.0,
                                               t0=0.0)
    msup = ckn.morrey_sup(run, norms.BallRegion(center, s * 1.0), ks=ks)
    return ((chain.split, chain.sol, run, chain.oscs[0], chain.ledger, weak_l3),
            (chain.energy, chain.psplit, wosc, msup.value, near_far))


@pytest.fixture(scope="module")
def scales():
    # the seed-1 datum of the benchmark's workloads, on 16^3
    g = Grid(16, DEFAULT_L)
    rng = np.random.default_rng(1)
    data = (corpus.curl_bump(g, amplitude=0.5).data
            + corpus.random_divfree(g, rng, kmax=4, amplitude=0.05).data)
    return _chain(1.0, data), _chain(LAM, data)


@pytest.fixture(scope="module")
def chains(scales):
    return scales[0][0], scales[1][0]


@pytest.fixture(scope="module")
def diagnostics(scales):
    return scales[0][1], scales[1][1]


def _rel(a, b):
    return abs(b - a) / abs(a)


def test_fields_scale_bit_for_bit(chains):
    (_, sol, run, *_), (_, sol_l, run_l, *_) = chains
    assert np.array_equal(run_l.v.times, run.v.times / LAM**2)
    assert np.array_equal(sol_l.a.frames, LAM * sol.a.frames)
    assert np.array_equal(run_l.v.frames, LAM * run.v.frames)
    assert np.array_equal(run_l.q.frames, LAM**2 * run.q.frames)


def test_mild_decay_table_is_invariant(chains):
    # every column is a critical norm or a weighted one, t^{(1 - 3/p)/2} ||a(t)||_p;
    # the residual is round-off and carries no exponent
    sol, sol_l = chains[0][1], chains[1][1]
    assert len(sol_l.decay_table) == len(sol.decay_table) > 1
    for row, row_l in zip(sol.decay_table, sol_l.decay_table):
        assert row_l.keys() == row.keys()
        assert row_l["t"] == row["t"] / LAM**2
        for key in row.keys() - {"t", "residual"}:
            assert abs(row_l[key] - row[key]) <= RTOL * abs(row[key]), key


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


def test_local_energy_terms_scale_as_lam_to_the_minus_one(diagnostics):
    # int |v|^2 phi dx ~ lam^2 lam^-3, and each space-time term the same:
    # int int |grad v|^2 phi ~ lam^4 lam^-3 lam^-2, int int |v|^2 Lap phi
    # ~ lam^2 lam^2 lam^-5, int int (|v|^2 + 2q) v . grad phi ~ lam^2 lam lam lam^-5
    energy, energy_l = diagnostics[0][0], diagnostics[1][0]
    assert len(energy) == len(energy_l) > 1
    for entry, entry_l in zip(energy, energy_l):
        assert entry_l.t == entry.t / LAM**2
        assert entry.terms["drift_convection"] != 0.0
        assert entry_l.terms == {name: val / LAM for name, val in entry.terms.items()}
        assert (entry_l.lhs, entry_l.rhs, entry_l.slack) == (
            entry.lhs / LAM, entry.rhs / LAM, entry.slack / LAM)


def test_pressure_split_terms_scale_as_lam_squared(diagnostics):
    # pointwise parts of phi q, with q ~ lam^2; the mismatch is taken on
    # the absolute B_1, so it is not a scaled quantity
    psplit, psplit_l = diagnostics[0][1], diagnostics[1][1]
    assert np.array_equal(psplit_l.riesz_term.values, LAM**2 * psplit.riesz_term.values)
    assert len(psplit_l.newton_terms) == len(psplit.newton_terms) == 4
    for term, term_l in zip(psplit.newton_terms, psplit_l.newton_terms):
        assert np.any(term.values != 0.0)
        assert np.array_equal(term_l.values, LAM**2 * term.values)


def test_riesz_split_parts_scale_as_lam_squared(diagnostics):
    # a zero-order operator on phi V, V ~ lam^2, split on a ball of radius
    # 1/(2 lam) inside phi's support: near and far each ~ lam^2
    for part, part_l in zip(diagnostics[0][4], diagnostics[1][4]):
        scale = np.max(np.abs(part.values))
        assert scale > 0.0
        assert np.max(np.abs(part_l.values - LAM**2 * part.values)) <= RTOL * LAM**2 * scale


def test_oscillation_terms_scale_as_lam_to_the_minus_one(chains, diagnostics):
    # lhs = r^-1 int int |q - (q)_r|^(3/2) ~ lam lam^3 lam^-3 lam^-2, and each
    # J-term the same, unweighted and weighted (the pressure module's powers)
    osc, osc_l = chains[0][3], chains[1][3]
    for got, want in zip((osc_l.lhs,) + osc_l.terms, (osc.lhs,) + osc.terms):
        assert want > 0.0 and _rel(want / LAM, got) <= RTOL
    # the weighted J2, J4 and J6 carry ma^(3/2), ma = sup |s - t0|^(1/2) |a|_inf(B_rho)
    # ~ lam^-1 lam: invariant, so every weighted term scales as lam^-1 too
    wosc, wosc_l = diagnostics[0][2], diagnostics[1][2]
    assert wosc.weighted and wosc_l.weighted and wosc.ma > 0.0
    assert _rel(wosc.ma, wosc_l.ma) <= RTOL
    for got, want in zip((wosc_l.lhs,) + wosc_l.terms, (wosc.lhs,) + wosc.terms):
        assert want > 0.0 and _rel(want / LAM, got) <= RTOL


def test_weighted_ledger_values_scale_by_their_weights(chains):
    # with eta' = eta/6 and t0 = 0, (s - t0)^p ~ lam^(-2p):
    # A'_k  = r^-2 int int |v|^3 / s^(3 eta'/2)        ~ lam^0  lam^(3 eta')
    # A''_k = r^-1 int int |q - (q)_r|^(3/2) / s^(3 eta'/4) ~ lam^-1 lam^(3 eta'/2)
    # B'_k  = (int |v|^2 + int int |grad v|^2) / s^eta'  ~ lam^-1 lam^(2 eta')
    etap = ETA / 6.0
    powers = (3.0 * etap, -1.0 + 1.5 * etap, -1.0 + 2.0 * etap)
    ledger, ledger_l = chains[0][4], chains[1][4]
    for row, row_l in zip(ledger.rows, ledger_l.rows):
        w, w_l = row.weighted, row_l.weighted
        for got, want, p in zip((w_l.apk, w_l.appk, w_l.bpk), (w.apk, w.appk, w.bpk), powers):
            assert want > 0.0 and _rel(want * LAM**p, got) <= RTOL


def test_morrey_sup_scales_as_lam_to_the_three_minus_delta(diagnostics):
    # r^(delta - 5) int int |v|^3 ~ lam^4 lam^3 lam^-3 lam^-2 = lam^2 at delta = 1
    msup, msup_l = diagnostics[0][3], diagnostics[1][3]
    assert msup > 0.0 and msup_l == LAM**2 * msup
