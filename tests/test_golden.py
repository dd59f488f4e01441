"""Golden-output fixture: the numbers of a small run through every spectral
kernel, quadrature and report writer, pinned to tests/golden.json.

Each quantity must agree with the stored one to GOLDEN_RTOL relative to
that quantity's largest stored magnitude; headers and non-numeric CSV
cells must agree exactly. Regenerate the fixture only from a commit whose
numbers are trusted:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np

from critnorm import besov, ckn, corpus, fieldio, mild, norms, pns, pressure
from critnorm.fields import (
    Grid,
    SpaceTimeField,
    TensorField,
    VectorField,
    ball_indicator,
    gaussian_bump,
    smooth_radial_cutoff,
    taylor_green_3d,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
GOLDEN_RTOL = 1e-12

BOX = 2.0 * math.pi * math.sqrt(2.0)
ORIGIN = (0.0, 0.0, 0.0)
HORIZON = 5.0 / 64.0


def _stress(v, a):
    cross = a[:, None] * v[None, :]
    return v[:, None] * v[None, :] + cross + np.swapaxes(cross, 0, 1)


def _steady(grid, v, q, a=None):
    """Stored orbit repeating one slice at three times."""
    times = np.arange(3) / 64.0
    orbit = lambda data: SpaceTimeField(grid, times, np.array([data] * 3))
    return SimpleNamespace(
        grid=grid, v=orbit(v), q=orbit(q), a=None if a is None else orbit(a)
    )


def _read_csv(path):
    """(header, numeric cells in reading order, non-numeric cells)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    nums, texts = [], []
    for row in rows[1:]:
        for cell in row:
            for token in cell.split(" ") if cell else [""]:
                try:
                    nums.append(float(token))
                except ValueError:
                    texts.append(token)
    return rows[0], nums, texts


def compute():
    """{name: list of floats} plus {name: list of strings} for the CSV text."""
    g16 = Grid(16, BOX)
    g32 = Grid(32, BOX)
    rng = np.random.default_rng(7)
    bump = corpus.curl_bump(g16, amplitude=0.5)
    noise = corpus.random_divfree(g16, rng, kmax=4, amplitude=0.05)
    u0 = VectorField(g16, bump.data + noise.data)
    out = {}

    split = besov.besov_split(u0, 3.0, 6.0)
    out["besov_split"] = [split.reports[k].value for k in sorted(split.reports)]

    sol = mild.solve_mild(split.tilde_g, mild.DuhamelConfig(dt=1.0 / 64.0, T=HORIZON))
    keys = sorted(sol.decay_table[0])
    out["mild.decay_table"] = [row[k] for row in sol.decay_table for k in keys]
    out["mild.k0_empirical"] = [sol.k0_empirical]
    out["mild.l5_spacetime"] = [sol.l5_spacetime]
    flux = SpaceTimeField(g16, sol.a.times, sol.a.frames[:, :, None] * sol.a.frames[:, None, :])
    out["mild.duhamel_div"] = [float(np.sqrt(np.sum(f**2))) for f in mild.duhamel_div(flux).frames]

    cfg = pns.PNSConfig(dt=1.0 / 128.0, T=HORIZON, stride=2)
    run = pns.run_pns(split.bar_g, cfg, a_provider=pns.drift_from_spacetime(sol.a))
    v_end, q_end = run.v.frames[-1], run.q.frames[-1]
    out["pns.final_v"] = [float(np.sqrt(np.sum(v_end**2))), float(np.max(np.abs(v_end)))]
    out["pns.final_q"] = [float(np.sqrt(np.sum(q_end**2))), float(np.max(np.abs(q_end)))]
    entries = pns.verify_local_energy(run, smooth_radial_cutoff(g16, 1.0, 3.0))
    out["pns.local_energy"] = [x for e in entries for x in (e.lhs, e.rhs, e.slack)]
    free = pns.run_pns(taylor_green_3d(g16, 0.5), cfg)
    out["pns.global_energy"] = [x for row in pns.global_energy_check(free).rows for x in row]

    v32 = taylor_green_3d(g32, 0.5)
    a32 = corpus.curl_bump(g32, amplitude=0.3)
    p32 = pns.recover_pressure(v32, a32)
    psplit = pressure.split_pressure(
        p32, TensorField(g32, _stress(v32.data, a32.data)), pressure.RadialCutoff(g32, 0.2, 1.0)
    )
    terms = (psplit.riesz_term,) + psplit.newton_terms + (psplit.total,)
    out["pressure.split_terms"] = [float(np.sqrt(np.sum(t.values**2))) for t in terms]
    out["pressure.split_mismatch"] = [psplit.mismatch]

    osc = pressure.pressure_oscillation_terms(run.v, run.a, run.q, ORIGIN, 0.25, 1.0)
    out["pressure.osc_lhs"] = [osc.lhs]
    for j, term in enumerate(osc.terms):
        out["pressure.osc_J%d" % (j + 1)] = [term]
    out["pressure.osc_ratio"] = [osc.ratio]
    wosc = pressure.pressure_oscillation_terms(
        run.v, run.a, run.q, ORIGIN, 0.25, 1.0, weighted=True, t0=0.0
    )
    # lhs and terms only: the ratio and ma would set the key's scale
    out["pressure.osc_weighted"] = [wosc.lhs, *wosc.terms]

    ledger = ckn.build_ledger(run, ORIGIN, HORIZON, ks=(2, 3), eta=0.6, t0=0.0)
    for row in ledger.rows:
        w = row.weighted
        out["ckn.ledger_k%d" % row.k] = [row.a_value, row.b_value]
        out["ckn.weighted_k%d" % row.k] = [w.apk, w.appk, w.bpk]
    out["ckn.c1"] = [ckn.build_test_function(g16, ORIGIN, HORIZON, 2).c1]
    out["ckn.local_cubed_mass"] = [ckn.local_cubed_mass(run, ORIGIN, HORIZON, 0.25)]
    out["ckn.morrey_sup"] = [ckn.morrey_sup(run, norms.BallRegion(ORIGIN, 0.5), ks=(2, 3)).value]
    # r = 0.3 on the r/8 lattice with its window clipped to the run; r = 2.5
    # on the native 32^3 cells of a steady orbit
    steady32 = _steady(g32, v32.data, p32.values)
    out["ckn.cylinder_smallness"] = [
        ckn.cylinder_smallness(run, ORIGIN, HORIZON, 0.3),
        ckn.cylinder_smallness(steady32, ORIGIN, steady32.v.times[-1], 2.5),
    ]
    g64 = Grid(64, BOX)
    v64 = taylor_green_3d(g64, 0.5)
    a64 = corpus.curl_bump(g64, amplitude=0.3)
    on64 = _steady(g64, v64.data, pns.recover_pressure(v64, a64).values, a64.data)
    osc64 = pressure.pressure_oscillation_terms(on64.v, on64.a, on64.q, ORIGIN, 1.25, 4.0)
    out["pressure.osc_native"] = [osc64.lhs, *osc64.terms, osc64.ratio]

    out["norms.lorentz_weak3"] = [norms.lorentz_quasinorm(u0, 3, math.inf).value]
    out["norms.lorentz_3_2"] = [norms.lorentz_quasinorm(u0, 3, 2).value]
    uloc = norms.l2_uloc(u0)
    out["norms.l2_uloc"] = [uloc.value]
    centres = [ORIGIN, (0.5, 0.0, 0.0), (0.0, -0.5, 0.5)]
    out["norms.morrey_critical"] = [norms.morrey_critical(u0, centres, 2.0 * g16.dx, 2.2).value]
    oneil = norms.check_oneil(
        gaussian_bump(g16, 0.6), ball_indicator(g16, 1.0), (1.5, 1.5, 1.5, 1.5, 3.0, 3.0)
    )
    out["norms.oneil"] = [oneil.lhs, oneil.rhs, oneil.ratio]

    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        writers = {
            "decay": lambda p: mild.write_decay_csv(p, sol),
            "energy": lambda p: pns.write_energy_csv(p, entries),
            "oscillation": lambda p: pressure.write_oscillation_csv(p, [osc]),
            "ledger": lambda p: ckn.write_ledger_csv(p, ledger),
            "split": lambda p: besov.write_split_csv(p, besov.split_sweep(u0, (2.0, 3.0, 4.0), 6.0)),
            "reports": lambda p: norms.write_reports_csv(
                p, [uloc, split.reports["tilde_l2"], _mismatch_report(psplit)]
            ),
            "slice": lambda p: fieldio.write_csv_slice(p, run.q[-1], axis=1),
        }
        for name, write in writers.items():
            path = os.path.join(tmp, name + ".csv")
            write(path)
            header, nums, cells = _read_csv(path)
            out["csv." + name] = nums
            texts["csv." + name] = header + cells
    return out, texts


def _mismatch_report(psplit):
    return norms.NormReport("mismatch", psplit.mismatch, norms.BallRegion(ORIGIN, 1.0), "L3/2 gap, B_1")


def test_matches_golden_fixture():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got, texts = compute()
    assert texts == golden["texts"]
    assert sorted(got) == sorted(golden["values"])
    for name, want in golden["values"].items():
        want = np.asarray(want, dtype=np.float64)
        have = np.asarray(got[name], dtype=np.float64)
        assert have.shape == want.shape, name
        scale = float(np.max(np.abs(want))) if want.size else 0.0
        gap = float(np.max(np.abs(have - want))) if want.size else 0.0
        assert gap <= GOLDEN_RTOL * scale, "%s drifted by %.3g (scale %.3g)" % (name, gap, scale)


if __name__ == "__main__":
    values, texts = compute()
    with open(GOLDEN, "w") as fh:
        json.dump({"values": values, "texts": texts}, fh, indent=1, sort_keys=True)
        fh.write("\n")
