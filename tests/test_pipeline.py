"""run_chain against the chain that perfbench/workloads.py wires by hand.

Until the benchmark calls pipeline.run_chain, its workloads compose the
chain themselves (_driven_run, _chain). This test loads that file by
path, only reading it, runs both on the chain_n32 workload at the
default seed and asserts that every output agrees bit for bit: the
values the benchmark compares against reference.json, the ledger rows,
the oscillation reports, the energy entries, the Besov split and the
pressure split's mismatch and terms; and that run_chain leaves the
caller's u0 as it was.

The test is temporary: the change that moves the benchmark onto
run_chain deletes it together with workloads._chain.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from critnorm import pipeline, pns

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def chains():
    """(workloads module, inputs, u0's data before, run_chain's result,
    workloads._chain's outputs)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    w = wl.WORKLOADS["chain_n32"]
    inputs = wl.setup(w, wl.DEFAULT_SEED)
    before = inputs.u0.data.copy()
    cfg = pipeline.ChainConfig(
        split_N=wl.SPLIT_N, mild_dt=w.mild_dt,
        pns=pns.PNSConfig(dt=w.pns_dt, T=wl.HORIZON, stride=w.stride),
        energy_radii=(1.0, 3.0), split_cutoff=(0.2, 1.0, wl.ORIGIN), center=wl.ORIGIN,
        osc_radii=w.osc_radii, rho=1.0, ks=w.ledger_ks, weights=None)
    got = pipeline.run_chain(cfg, inputs.u0)
    return wl, inputs, before, got, wl._chain(w, inputs)


def test_run_chain_equals_the_benchmark_chain_bit_for_bit(chains):
    wl, _, _, got, want = chains
    assert wl.values({"sol": got.sol, "oscs": list(got.oscs), "ledger": got.ledger}) == (
        wl.values(want))
    assert got.ledger.rows == want["ledger"].rows
    assert list(got.oscs) == want["oscs"]
    assert list(got.energy) == want["energy"]
    split, split_w = got.split, want["split"]
    assert np.array_equal(split.tilde_g.data, split_w.tilde_g.data)
    assert np.array_equal(split.bar_g.data, split_w.bar_g.data)
    assert {k: r.value for k, r in split.reports.items()} == {
        k: r.value for k, r in split_w.reports.items()}
    psplit, psplit_w = got.psplit, want["psplit"]
    assert psplit.mismatch == psplit_w.mismatch
    terms = lambda s: (s.riesz_term,) + s.newton_terms + (s.total, s.cutoff)
    for term, term_w in zip(terms(psplit), terms(psplit_w), strict=True):
        assert np.array_equal(term.values, term_w.values)


def test_run_chain_leaves_u0_unchanged(chains):
    _, inputs, before, _, _ = chains
    assert np.array_equal(inputs.u0.data, before)
