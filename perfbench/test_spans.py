"""Tests of the traced-run wrapper and the workload checks, on small grids.

    python3 -m pytest perfbench -q
"""

import json
import math
import os

import numpy as np
import pytest

import run
import spans
import workloads
from critnorm import ckn, pns, pressure, spectral
from critnorm.fields import Grid, ScalarField, taylor_green_3d

GRID = Grid(16, workloads.BOX)


@pytest.fixture(scope="module")
def small_run():
    # 5 stored slices over t in [0, 1/16]: one r = 1/4 cylinder
    return pns.run_pns(
        taylor_green_3d(GRID, amplitude=0.3), pns.PNSConfig(dt=1.0 / 64.0, T=1.0 / 16.0, stride=1)
    )


def test_from_import_bindings_are_counted(small_run):
    original = spectral.evaluate_at_points
    with spans.Tracer(GRID.n) as tracer:
        assert pressure.evaluate_at_points is not original
        assert ckn.evaluate_at_points is pressure.evaluate_at_points
        pressure.pressure_oscillation_terms(
            small_run.v, None, small_run.q, (0.0, 0.0, 0.0), 0.25, 1.0
        )
        after_pressure = tracer.stats["spectral.evaluate_at_points"].calls
        ckn.local_cubed_mass(small_run, (0.0, 0.0, 0.0), 1.0 / 16.0, 0.25)
    assert pressure.evaluate_at_points is original
    assert ckn.evaluate_at_points is original
    # r = 1/4 is below eight cells per radius, so every slice is evaluated
    # off the grid: three velocity components and the pressure per slice
    slices = len(small_run.v.times)
    assert after_pressure == 4 * slices
    assert tracer.stats["spectral.evaluate_at_points"].calls == 7 * slices
    metrics = spans.layer_metrics(tracer)
    side = 2 * math.ceil(1.0 / (0.25 / 8.0)) + 3  # zoom lattice over B_rho
    assert metrics["pressure.lattice_points"] == 4 * slices * side**3
    assert metrics["spectral.evaluate_at_points.points"] > metrics["pressure.lattice_points"]


def test_self_time_never_exceeds_enclosing_busy_time():
    cfg = pns.PNSConfig(dt=1.0 / 64.0, T=1.0 / 8.0, stride=2)
    with spans.Tracer(GRID.n) as tracer:
        pns.run_pns(taylor_green_3d(GRID, amplitude=0.3), cfg)
    stats = tracer.stats
    # pns.run_pns reaches its own step through the module global
    assert stats["pns.step"].calls == cfg.n_steps
    assert stats["pns.recover_pressure"].calls == cfg.n_steps // cfg.stride + 1
    outer = stats["pns.run_pns"]
    inner = [name for name, stat in stats.items() if stat.calls and name != "pns.run_pns"]
    assert {"pns.step", "pns.recover_pressure", "spectral.leray_project",
            "fft.rfftn", "fft.irfftn"} <= set(inner)
    nested_self = sum(stats[name].self_s for name in inner)
    # self times of the nested spans and the outer one tile its interval
    assert nested_self + outer.self_s == pytest.approx(outer.busy_s, rel=1e-9)
    assert nested_self <= outer.busy_s
    for name in inner:
        assert 0.0 <= stats[name].self_s <= stats[name].busy_s
    step = stats["pns.step"]
    assert step.self_s < step.busy_s  # its transforms are child spans


def test_fft_counters_see_the_doubled_grid():
    src = ScalarField(GRID, np.exp(-(GRID.radius() / 0.4) ** 2))
    with spans.Tracer(GRID.n) as tracer:
        spectral.newtonian_potential(src)
    metrics = spans.layer_metrics(tracer)
    assert metrics["spectral.newtonian_potential.calls"] == 1
    assert metrics["fft.transforms_2n"] == 2  # one forward, one inverse
    padded = (2 * GRID.n) ** 3 * 8
    rfft_out = (2 * GRID.n) ** 2 * (GRID.n + 1) * 16
    assert metrics["fft.bytes"] == 2 * (padded + rfft_out)


def test_uninstall_restores_every_binding():
    before = {mod: dict(vars(mod)) for mod in (spectral, pressure, ckn, pns)}
    tracer = spans.Tracer(GRID.n).install()
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    for mod, names in before.items():
        for key, value in names.items():
            assert vars(mod)[key] is value


def test_configured_workloads_validate():
    for w in workloads.WORKLOADS.values():
        workloads.validate(w)


def test_coarse_stride_fails_up_front_naming_the_stride():
    w = workloads.WORKLOADS["ledger_n32"]
    coarse = workloads.Workload(w.name, w.n, w.pns_dt, 8, w.mild_dt, w.osc_radii, w.ledger_ks)
    with pytest.raises(ValueError, match=r"r = 0.0625 .* use stride <= 2"):
        workloads.validate(coarse)
    slow = workloads.Workload(w.name, w.n, 1.0 / 128.0, 2, w.mild_dt, w.osc_radii, w.ledger_ks)
    with pytest.raises(ValueError, match=r"time step of at most 0.00390625"):
        workloads.validate(slow)


def test_benchmark_json_lists_the_reported_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
