"""Quadrature order as a property of the time integrals.

One driven 16^3 run is stored at every step (h = 1/256) and read again at
strides 2 and 4. The ledger rows' A_k and B_k, morrey_sup,
local_cubed_mass, the pressure oscillation's lhs, J1, J2, J4, J5 and J6,
and its weighted J2, J4 and J6 integrate their slice values with the
trapezoid rule, so each carries an error c h^2 + O(h^3) and

    (Q(4h) - Q(h)) / (Q(2h) - Q(h)) = (16 - 1) / (4 - 1) = 5

up to the higher-order terms. B_k's sup of slice values adds no error
here: the ball energy about the origin decays, so the sup sits on each
window's first slice, which all three strides keep; morrey_sup's sup
sits on cylinders all three strides share.

The mild L^5_{t,x} and L^2_{t,x} norms (mild_L5, mild_L2) take the same
trapezoid over per-slice norms. They are read on the heat orbit of the
curl bump, sampled exactly (no solver) every h = 1/256 on [0, 1/4].

A sup of slice values is exact under refinement instead: the slices of
a stride are among those of every finer stride, so the sup never falls.
It is checked on B_k's ball energy about PEAK_CENTER, where it peaks on
a slice that neither coarser stride keeps, and on the oscillation's J3:
r^{6-delta/2} (sup over slices of the annulus tail)^{3/2} is a sup of
slice values with no time integral, so it has no order to measure.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from critnorm import ckn, corpus, cylinder, mild, norms, pns, pressure
from critnorm.fields import Grid, SpaceTimeField, VectorField
from critnorm.spectral import heat_semigroup

DEFAULT_L = 2.0 * np.pi * np.sqrt(2.0)
TOP = 1.0 / 16.0
CENTER = (0.0, 0.0, 0.0)
STRIDES = (1, 2, 4)
BAND = (4.5, 5.5)
# the weighted oscillation's singular time, 0.05 below the window [0, TOP];
# no closer: at t0 = -0.01 its kernel |s - t0|^-1 varies on a scale under
# three steps h = 1/256, and the weighted J2, J4 and J6 read 4.22-4.27
T0 = -0.05
# the ball energy about this point peaks at t = 7/256 in B_{1/4} and at
# t = 13/256 in B_{1/8}: odd slices, which strides 2 and 4 both skip
PEAK_CENTER = (-0.5, 1.0, -1.0)


def _every(run, stride):
    """The run read at every stride-th stored slice."""
    g = run.grid

    def sub(field):
        return SpaceTimeField(g, field.times[::stride], field.frames[::stride])

    return SimpleNamespace(grid=g, v=sub(run.v), q=sub(run.q),
                           a=pns.DriftSlices(g, run.a.times[::stride], run.a.provider))


def _quantities(run):
    ledger = ckn.build_ledger(run, CENTER, TOP, ks=(2, 3))
    osc = pressure.pressure_oscillation_terms(run.v, run.a, run.q, CENTER, 0.25, 1.0)
    wosc = pressure.pressure_oscillation_terms(run.v, run.a, run.q, CENTER, 0.25, 1.0, t0=T0)
    out = {"osc_lhs": osc.lhs,
           "local_cubed_mass": ckn.local_cubed_mass(run, CENTER, TOP, 0.25),
           "morrey_sup": ckn.morrey_sup(run, norms.BallRegion(CENTER, 0.5), ks=(2, 3)).value}
    out.update(("osc_J%d" % j, term) for j, term in enumerate(osc.terms, 1))
    out.update(("wosc_J%d" % j, wosc.terms[j - 1]) for j in (2, 4, 6))
    for row in ledger.rows:
        out["A_%d" % row.k] = row.a_value
        out["B_%d" % row.k] = row.b_value
    return out


@pytest.fixture(scope="module")
def fine_run():
    # the seed-1 datum of the benchmark's workloads, under a decaying heat drift
    g = Grid(16, DEFAULT_L)
    rng = np.random.default_rng(1)
    v0 = VectorField(g, corpus.curl_bump(g, amplitude=0.5).data
                     + corpus.random_divfree(g, rng, kmax=4, amplitude=0.05).data)
    a0 = corpus.curl_bump(g, amplitude=0.3)
    return pns.run_pns(v0, pns.PNSConfig(dt=TOP / 16.0, T=TOP, stride=1),
                       a_provider=lambda t: heat_semigroup(a0, t))


@pytest.fixture(scope="module")
def heat_orbit():
    g = Grid(16, DEFAULT_L)
    bump = corpus.curl_bump(g, amplitude=0.5)
    ts = np.arange(65) / 256.0  # h = 1/256 on [0, 1/4]
    return SpaceTimeField(g, ts, np.stack([heat_semigroup(bump, float(t)).data for t in ts]))


@pytest.fixture(scope="module")
def by_stride(fine_run, heat_orbit):
    out = {s: _quantities(_every(fine_run, s)) for s in STRIDES}
    for s in STRIDES:
        orbit = SpaceTimeField(heat_orbit.grid, heat_orbit.times[::s], heat_orbit.frames[::s])
        out[s].update(("mild_L%d" % r, mild.spacetime_lebesgue(orbit, r, r)) for r in (5, 2))
    return out


@pytest.mark.parametrize("name", ["A_2", "B_2", "A_3", "B_3", "morrey_sup", "local_cubed_mass",
                                  "osc_lhs", "osc_J1", "osc_J2", "osc_J4", "osc_J5", "osc_J6",
                                  "wosc_J2", "wosc_J4", "wosc_J6", "mild_L5", "mild_L2"])
def test_time_integrals_are_second_order(by_stride, name):
    q1, q2, q4 = (by_stride[s][name] for s in STRIDES)
    ratio = (q4 - q1) / (q2 - q1)
    assert BAND[0] <= ratio <= BAND[1], "%s: ratio %.4g" % (name, ratio)


@pytest.mark.parametrize("k", [2, 3])
def test_sup_of_slice_values_never_falls_under_refinement(fine_run, k):
    sups = []
    for stride in STRIDES:
        run = _every(fine_run, stride)
        sel = cylinder.stored_window(run.v.times, TOP - 4.0**-k, TOP)
        ts, loads = ckn._slice_loads(cylinder.FrameSpectra(run.v), sel, PEAK_CENTER,
                                     2.0**-k, cylinder.FrameSpectra(run.q))
        sups.append(float(np.max(loads["v2"])))
        # B_k: the sup of the ball energy, plus the gradient load's trapezoid
        row = ckn.build_ledger(run, PEAK_CENTER, TOP, ks=(k,)).rows[0]
        assert row.b_value == sups[-1] + float(np.trapezoid(loads["grad2"], ts))
    assert sups[0] > sups[1] >= sups[2]


def test_oscillation_tail_sup_never_falls_under_refinement(by_stride):
    j3 = [by_stride[s]["osc_J3"] for s in STRIDES]
    assert j3[0] >= j3[1] >= j3[2] > 0.0
