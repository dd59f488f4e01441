"""Golden-output fixture: the numbers of a small run through every spectral
kernel, quadrature and report writer, pinned to tests/golden.json. The
driven chain (split, mild drift, driven PNS, local energy, off-centre
pressure split, oscillations at r = 1/4 and 1/8, weighted ledger) runs
through pipeline.run_chain.

Each quantity must agree with the stored one to GOLDEN_RTOL relative to
that quantity's largest stored magnitude; headers and non-numeric CSV
cells must agree exactly. Regenerate the fixture only from a commit whose
numbers are trusted:

    PYTHONPATH=src python tests/test_golden.py

A new quantity is pinned by computing it at the commit that should set its
numbers and merging only its keys; keys already in the fixture are refused:

    PYTHONPATH=src python tests/test_golden.py --add KEY [KEY ...]

The public surface is what golden reaches: compute() runs once under a
profile hook, and a test fails naming every public
function or method (see public_callables) that it never calls, unless
EXEMPT names it with the reason it stays. The same run guards the options:
a test fails naming every optional parameter (see optional_parameters)
that no call sets to a value other than its default, unless
EXEMPT_PARAMETERS names it with the reason it stays.

To show how far a change moves the numbers, dump each checkout's values
as float.hex, with the CSV texts, and compare the two files; the fixture
is not touched. --compare prints, per key, whether it is bit-identical
and its largest gap relative to the key's largest magnitude in the first
file, and exits non-zero when a gap exceeds GOLDEN_RTOL or the keys or
texts differ:

    PYTHONPATH=src python tests/test_golden.py --dump before.json
    PYTHONPATH=src python tests/test_golden.py --dump after.json
    PYTHONPATH=src python tests/test_golden.py --compare before.json after.json
"""

import argparse
import csv
import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import sys
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

import critnorm
from critnorm import besov, ckn, corpus, fieldio, mild, norms, pipeline, pns, pressure
from critnorm.spectral import heat_semigroup
from critnorm.fields import (
    Grid,
    SpaceTimeField,
    TensorField,
    VectorField,
    ball_indicator,
    gaussian_bump,
    taylor_green_3d,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden.json")
GOLDEN_RTOL = 1e-12

BOX = 2.0 * math.pi * math.sqrt(2.0)
ORIGIN = (0.0, 0.0, 0.0)
HORIZON = 5.0 / 64.0

# public callables that compute() does not reach, each with the reason it stays
EXEMPT = {
    "mild.PicardDivergence.__init__": "raised only when a forward solve blows up, which golden's "
                                      "small data never does",
}

# optional parameters that compute() never sets, each with the reason it stays
EXEMPT_PARAMETERS = {
    "pns.PNSConfig.dealias": "the negative control of both energy checks: a run without "
                             "dealiasing pumps energy, and the energy tests must see it flagged",
    "cylinder.ball_points.outer": "the whole-lattice reference that ball_slabs and the pressure "
                                  "oscillation are checked against",
}


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

    # the driven chain; the pressure split is about an off-centre point, on
    # the run's last slice, with 24 cells in the transition
    cfg = pns.PNSConfig(dt=1.0 / 128.0, T=HORIZON, stride=2)
    chain = pipeline.run_chain(pipeline.ChainConfig(
        split_N=3.0, mild_dt=1.0 / 64.0, pns=cfg, energy_radii=(1.0, 3.0),
        split_cutoff=(0.2, 1.0, (0.25, 0.0, -0.125)), center=ORIGIN, osc_radii=(0.25, 0.125),
        rho=1.0, ks=(2, 3), weights=(0.6, 0.0)), u0)
    split, sol, run, entries, ledger = chain.split, chain.sol, chain.run, chain.energy, chain.ledger
    out["besov_split"] = [split.reports[k].value for k in sorted(split.reports)]

    mcfg = mild.DuhamelConfig(dt=1.0 / 64.0, T=HORIZON)
    keys = sorted(sol.decay_table[0])
    out["mild.decay_table"] = [row[k] for row in sol.decay_table for k in keys]
    out["mild.k0_empirical"] = [sol.k0_empirical]
    out["mild.l5_spacetime"] = [sol.l5_spacetime]
    flux = SpaceTimeField(g16, sol.a.times, sol.a.frames[:, :, None] * sol.a.frames[:, None, :])
    out["mild.duhamel_div"] = [float(np.sqrt(np.sum(f**2))) for f in mild.duhamel_div(flux).frames]
    out["mild.drift_smallness"] = [mild.drift_smallness(sol.a)]
    # the paper's other two critical data norms, L^{3,inf} and B^{-1+3/p}_{p,inf} at p = 4
    weak = mild.solve_mild(split.tilde_g, mcfg, data_norm="weak_l3")
    out["mild.weak_l3"] = [weak.data_norm, weak.k0_empirical]
    out["mild.weak_l3"] += [row["weak3"] for row in weak.decay_table]
    bes = mild.solve_mild(split.tilde_g, mcfg, data_norm="besov", besov_p=4.0)
    out["mild.besov_p4"] = [bes.data_norm, bes.k0_empirical]
    out["mild.besov_p4"] += [row["tp_lp"] for row in bes.decay_table]
    estimates = mild.check_duhamel_estimates(f=sol.a, F=flux, a=sol.a, b=sol.a)
    out["mild.duhamel_estimates"] = [
        x for name in sorted(estimates) for x in (estimates[name].lhs, estimates[name].rhs)
    ]
    # the drift operator and its inversion on the heat orbit of the large part
    heat = SpaceTimeField(g16, sol.a.times,
                          np.array([heat_semigroup(split.bar_g, float(t)).data for t in sol.a.times]))
    out["mild.apply_La"] = [float(np.sqrt(np.sum(f**2))) for f in mild.apply_La(heat, sol.a).frames]
    inv = mild.invert_I_minus_La(heat, sol.a)
    out["mild.invert_I_minus_La"] = [float(np.sqrt(np.sum(f**2))) for f in inv.u.frames]
    out["mild.invert_I_minus_La"] += [inv.contraction]

    v_end, q_end = run.v.frames[-1], run.q.frames[-1]
    out["pns.final_v"] = [float(np.sqrt(np.sum(v_end**2))), float(np.max(np.abs(v_end)))]
    out["pns.final_q"] = [float(np.sqrt(np.sum(q_end**2))), float(np.max(np.abs(q_end)))]
    out["pns.local_energy"] = [x for e in entries for x in (e.lhs, e.rhs, e.slack)]
    free = pns.run_pns(taylor_green_3d(g16, 0.5), cfg)
    out["pns.global_energy"] = [x for row in pns.global_energy_check(free).rows for x in row]

    v32 = taylor_green_3d(g32, 0.5)
    a32 = corpus.curl_bump(g32, amplitude=0.3)
    p32 = pns.recover_pressure(v32, a32)
    psplit = pressure.split_pressure(p32, pipeline.stress(v32, a32), pressure.RadialCutoff(g32, 0.2, 1.0))
    terms = (psplit.riesz_term,) + psplit.newton_terms + (psplit.total,)
    out["pressure.split_terms"] = [float(np.sqrt(np.sum(t.values**2))) for t in terms]
    out["pressure.split_mismatch"] = [psplit.mismatch]
    off_split = chain.psplit
    out["pressure.split_offcentre"] = [
        float(np.sqrt(np.sum(t.values**2)))
        for t in (off_split.riesz_term,) + off_split.newton_terms + (off_split.total,)
    ] + [off_split.mismatch]
    # a compact source with V_ij != V_ji: the Riesz sum must see both halves
    nonsym = np.random.default_rng(11).standard_normal((3, 3) + g32.shape)
    nonsym *= pressure.RadialCutoff(g32, 0.6, 1.0).values
    near, far = pressure.riesz_split_at(TensorField(g32, nonsym), ORIGIN, 0.5)
    out["pressure.riesz_split_nonsym"] = [
        x for t in (near, far) for x in (float(np.sqrt(np.sum(t.values**2))), float(np.max(t.values)))
    ]

    osc, slab = chain.oscs  # r = 1/8 under rho = 1: a 131^3 lattice, over several x-slabs
    out["pressure.osc_lhs"] = [osc.lhs]
    for j, term in enumerate(osc.terms):
        out["pressure.osc_J%d" % (j + 1)] = [term]
    out["pressure.osc_ratio"] = [osc.ratio]
    # a cylinder below the last stored slice
    top = pressure.pressure_oscillation_terms(
        run.v, run.a, run.q, ORIGIN, 0.25, 1.0, t_top=3.0 / 64.0
    )
    out["pressure.osc_t_top"] = [top.lhs, *top.terms]
    wosc = pressure.pressure_oscillation_terms(
        run.v, run.a, run.q, ORIGIN, 0.25, 1.0, t0=0.0
    )
    # lhs and terms only: the ratio and ma would set the key's scale
    out["pressure.osc_weighted"] = [wosc.lhs, *wosc.terms]
    wslab = pressure.pressure_oscillation_terms(
        run.v, run.a, run.q, ORIGIN, 0.125, 1.0, t0=0.0
    )
    out["pressure.osc_slabbed"] = [slab.lhs, *slab.terms, *wslab.terms]

    for row in ledger.rows:
        w = row.weighted
        out["ckn.ledger_k%d" % row.k] = [row.a_value, row.b_value]
        out["ckn.weighted_k%d" % row.k] = [w.apk, w.appk, w.bpk]
    tf = ckn.build_test_function(g16, ORIGIN, HORIZON, 2)
    out["ckn.c1"] = [tf.c1]
    # a lattice through the plateau and the cutoff's spatial taper, at the
    # top time and inside the time taper
    axes = (np.linspace(-0.32, 0.32, 9),) * 3
    out["ckn.test_function_value"] = [
        x for s in (HORIZON, HORIZON - 0.08)
        for x in (float(np.sqrt(np.sum(tf.value(axes, s) ** 2))), float(np.max(tf.value(axes, s))))
    ]
    out["ckn.test_function_heat_residual"] = [
        float(np.max(np.abs(tf.heat_residual(axes, s)))) for s in (HORIZON, HORIZON - 0.08)
    ]
    families = ckn.build_test_function(g16, ORIGIN, HORIZON, 4).families
    out["ckn.test_families"] = [families[name] for name in sorted(families)]
    out["ckn.local_cubed_mass"] = [ckn.local_cubed_mass(run, ORIGIN, HORIZON, 0.25)]
    out["ckn.morrey_sup"] = [ckn.morrey_sup(run, norms.BallRegion(ORIGIN, 0.5), ks=(2, 3)).value]
    # an off-lattice region center with lattice centers around it; k = 3
    # scans five top times, k = 2 two
    off = norms.BallRegion((0.1, -0.2, 0.05), 1.2)
    out["ckn.morrey_sup_tops"] = [ckn.morrey_sup(run, off, ks=ks).value for ks in ((2, 3), (3,))]
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

    # the indicator source of tests/test_ckn.py
    def source(y1, y2, y3, s):
        return np.where((y1**2 + y2**2 + y3**2 <= 0.09) & (abs(s) <= 0.1), 1.0, 0.0)

    kbound = ckn.check_kernel_bound(source)
    out["ckn.kernel_bound"] = [kbound.lhs, kbound.rhs]
    out["ckn.kernel_integral"] = [
        ckn.kernel_integral(source, x, t)
        for x in (ORIGIN, (0.4, 0.0, 0.0), (1.25, 0.0, 0.0)) for t in (0.0, 0.2)
    ]

    out["norms.lorentz_weak3"] = [norms.lorentz_quasinorm(u0, 3, math.inf).value]
    out["norms.lorentz_3_2"] = [norms.lorentz_quasinorm(u0, 3, 2).value]
    out["norms.lorentz_weak3_ball"] = [
        norms.lorentz_quasinorm(u0, 3, math.inf, region=norms.BallRegion(ORIGIN, 1.0)).value
    ]
    uloc = norms.l2_uloc(u0)
    out["norms.l2_uloc"] = [uloc.value]
    centres = [ORIGIN, (0.5, 0.0, 0.0), (0.0, -0.5, 0.5)]
    out["norms.morrey_critical"] = [norms.morrey_critical(u0, centres, 2.0 * g16.dx, 2.2).value]
    oneil = norms.check_oneil(
        gaussian_bump(g16, 0.6), ball_indicator(g16, 1.0), (1.5, 1.5, 1.5, 1.5, 3.0, 3.0)
    )
    out["norms.oneil"] = [oneil.lhs, oneil.rhs, oneil.ratio]
    hunt = norms.check_hunt(
        u0, gaussian_bump(g16, 0.6), (3, math.inf, 2, 2, 1.2, 2), region=norms.BallRegion(ORIGIN, 2.2)
    )
    out["norms.hunt"] = [hunt.lhs, hunt.rhs, hunt.ratio]
    out["besov.norm_heat"] = [
        besov.besov_norm_heat(u0, -0.5, 6).value, besov.besov_norm_heat(split.bar_g, -0.5, math.inf).value
    ]
    out["besov.partition_defect"] = [besov.LPProjectorBank(g).partition_defect() for g in (g16, g32)]
    slopes = corpus.heat_smoothing_slopes(g32, 0.3, 1.0)
    out["corpus.heat_smoothing_slopes"] = [slopes[name] for name in sorted(slopes)]

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


def _public_names():
    """("module.Name", object) for each name in a critnorm module's __all__
    that the module itself defines."""
    for info in pkgutil.iter_modules(critnorm.__path__):
        module = importlib.import_module("critnorm." + info.name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) == module.__name__:
                yield "%s.%s" % (info.name, name), obj


def public_functions():
    """{"module.function" or "module.Class.method": function} over the
    names in each critnorm module's __all__ that the module defines: its
    functions, and for each class its methods, properties and
    classmethods, inherited from a critnorm class too, whose names have
    no leading underscore, plus __init__. Only code written in a critnorm
    source file counts, so dataclass-generated methods are skipped."""
    out = {}
    for qualname, obj in _public_names():
        if not inspect.isclass(obj):
            fn = inspect.unwrap(obj)
            if inspect.isfunction(fn):
                out[qualname] = fn
            continue
        for klass in reversed(obj.__mro__):
            if not klass.__module__.startswith("critnorm."):
                continue
            for attr, member in vars(klass).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                code = getattr(member, "__code__", None)
                if code is not None and code.co_filename == sys.modules[klass.__module__].__file__:
                    out["%s.%s" % (qualname, attr)] = member
    return out


def public_callables():
    """{name: code object} of public_functions."""
    return {name: fn.__code__ for name, fn in public_functions().items()}


def _where(path, line):
    return "%s:%d" % (os.path.relpath(path, ROOT), line)


def _defaults(functions):
    """{"name.parameter": (code, parameter, default, "file:line")} for every
    parameter with a default of the {name: function} given."""
    out = {}
    for name, fn in functions.items():
        code = fn.__code__
        for param in inspect.signature(fn).parameters.values():
            if param.default is not param.empty:
                out["%s.%s" % (name, param.name)] = (
                    code, param.name, param.default, _where(code.co_filename, code.co_firstlineno))
    return out


def optional_parameters():
    """The parameters with a default of every public function that EXEMPT
    does not name (public_functions), and every field with a default of
    a public dataclass, "module.Class.field", read from the arguments of
    the generated __init__; field(init=False) takes none."""
    out = _defaults({name: fn for name, fn in public_functions().items() if name not in EXEMPT})
    for qualname, obj in _public_names():
        if not (inspect.isclass(obj) and dataclasses.is_dataclass(obj)):
            continue
        params = inspect.signature(obj.__init__).parameters
        lines, start = inspect.getsourcelines(obj)
        for field in dataclasses.fields(obj):
            param = params.get(field.name)
            if param is None or param.default is param.empty:
                continue
            # the field's own line; the class's for a field it inherits
            line = start + next((i for i, text in enumerate(lines)
                                 if text.strip().startswith(field.name + ":")), 0)
            where = _where(inspect.getfile(obj), line)
            out["%s.%s" % (qualname, field.name)] = (
                obj.__init__.__code__, field.name, param.default, where)
    return out


def _is_default(value, default):
    """value is the default, or equal to it: an argument that repeats the
    default sets nothing. Arrays and other values without a plain truth
    value differ."""
    if value is default:
        return True
    try:
        same = value == default
    except (TypeError, ValueError):  # e.g. arrays that do not broadcast
        return False
    return isinstance(same, (bool, np.bool_)) and bool(same)


def _profiled(fn, optional):
    """fn() under a profile hook: its result, the code objects of every
    Python function it called, and the names in optional (as made by
    _defaults) that some call passed a value other than the default."""
    watch = {}
    for name, (code, param, default, _) in optional.items():
        watch.setdefault(code, []).append((name, param, default))
    called, changed = set(), set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add(code)
            if code in watch:
                args = frame.f_locals
                changed.update(name for name, param, default in watch[code]
                               if not _is_default(args[param], default))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, called, changed


def _unreached(names, reached, exempt):
    """(names not reached and not exempt, exempt names reached or gone)."""
    missed = sorted(name for name in names if name not in reached and name not in exempt)
    stale = sorted(name for name in exempt if name not in names or name in reached)
    return missed, stale


def _called(public, called):
    return {name for name, code in public.items() if code in called}


def _clear_caches():
    """Empty the function caches of every critnorm module, so that compute()
    builds what it reads, and calls what builds it, whatever ran before."""
    for info in pkgutil.iter_modules(critnorm.__path__):
        for obj in vars(importlib.import_module("critnorm." + info.name)).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@pytest.fixture(scope="module")
def golden_run():
    """compute() once, under a profile hook and from empty caches: its
    values and CSV texts, the code objects of every Python function it
    called, and the optional parameters (optional_parameters) that some
    call set."""
    _clear_caches()
    (values, texts), called, changed = _profiled(compute, optional_parameters())
    return values, texts, called, changed


def test_matches_golden_fixture(golden_run):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got, texts = golden_run[:2]
    assert texts == golden["texts"]
    assert sorted(got) == sorted(golden["values"])
    for name, want in golden["values"].items():
        want = np.asarray(want, dtype=np.float64)
        have = np.asarray(got[name], dtype=np.float64)
        assert have.shape == want.shape, name
        scale = float(np.max(np.abs(want))) if want.size else 0.0
        gap = float(np.max(np.abs(have - want))) if want.size else 0.0
        assert gap <= GOLDEN_RTOL * scale, "%s drifted by %.3g (scale %.3g)" % (name, gap, scale)


def test_golden_reaches_every_public_callable(golden_run):
    public = public_callables()
    missed, stale = _unreached(public, _called(public, golden_run[2]), EXEMPT)
    assert not missed, (
        "compute() reaches no call of %s: pin a number of each in compute(), or delete it, "
        "or name it in EXEMPT with the reason it stays" % ", ".join(missed))
    assert not stale, "EXEMPT names %s, which compute() reaches or which is gone" % ", ".join(stale)
    assert all(isinstance(why, str) and why for why in EXEMPT.values())


def test_golden_sets_every_optional_parameter(golden_run):
    optional = optional_parameters()
    missed, stale = _unreached(optional, golden_run[3], EXEMPT_PARAMETERS)
    assert not missed, (
        "compute() never sets %s to a value other than its default: pin a number that sets "
        "each in compute(), or delete it, or name it in EXEMPT_PARAMETERS with the reason it "
        "stays" % ", ".join("%s (%s)" % (name, optional[name][3]) for name in missed))
    assert not stale, (
        "EXEMPT_PARAMETERS names %s, which compute() sets or which is gone" % ", ".join(stale))
    assert all(isinstance(why, str) and why for why in EXEMPT_PARAMETERS.values())


def test_reachability_guard_names_the_missed_and_the_stale():
    def f(x, y=1.0, z=None):
        return x

    def g(x=0):
        return x

    def h():
        return None

    public = {"m.f": f.__code__, "m.g": g.__code__, "m.h": h.__code__}
    optional = _defaults({"m.f": f, "m.g": g})
    assert sorted(optional) == ["m.f.y", "m.f.z", "m.g.x"]
    # y only repeats its default; z is set once, by an array
    _, called, changed = _profiled(lambda: (f(1, y=1.0), f(2, z=np.zeros(2)), f(3)), optional)
    assert changed == {"m.f.z"}

    missed, stale = _unreached(public, _called(public, called),
                               {"m.h": "why", "m.f": "reached", "m.gone": "x"})
    assert missed == ["m.g"]
    assert stale == ["m.f", "m.gone"]
    missed, stale = _unreached(optional, changed,
                               {"m.g.x": "why", "m.f.z": "set", "m.gone.p": "x"})
    assert missed == ["m.f.y"]
    assert stale == ["m.f.z", "m.gone.p"]


def test_dump_writes_exact_values(monkeypatch, tmp_path):
    values = {"key": [0.1, 1.0 / 3.0, -0.0, 1e-300]}
    texts = {"csv.key": ["t", "lhs"]}
    monkeypatch.setitem(globals(), "compute", lambda: (values, texts))
    path = tmp_path / "dump.json"
    _dump(str(path))
    with open(path) as fh:
        dumped = json.load(fh)
    assert dumped["texts"] == texts
    back = [float.fromhex(x) for x in dumped["values"]["key"]]
    assert [x.hex() for x in back] == [x.hex() for x in values["key"]]


def test_compare_reports_the_relative_gap_per_key(monkeypatch, tmp_path, capsys):
    values = {"key": [2.0, -1.0], "other": [0.0]}
    texts = {"csv.key": ["t"]}
    monkeypatch.setitem(globals(), "compute", lambda: (values, texts))
    _dump(str(tmp_path / "a.json"))
    values["key"] = [2.0, -1.0 + 4.0 * GOLDEN_RTOL]
    _dump(str(tmp_path / "b.json"))
    assert _compare(str(tmp_path / "a.json"), str(tmp_path / "a.json")) == []
    capsys.readouterr()
    assert _compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == ["key"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "key" and float(lines[0].split()[-1]) == 2.0 * GOLDEN_RTOL
    assert lines[1].split()[:2] == ["other", "bit-identical"]


def _add_keys(keys):
    """The stored fixture with only the named new keys computed at this
    checkout and merged in; existing keys are refused before computing."""
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    taken = [key for key in keys if key in golden["values"] or key in golden["texts"]]
    if taken:
        raise SystemExit("golden keys exist already and are not recomputed: %s" % ", ".join(taken))
    values, texts = compute()
    unknown = [key for key in keys if key not in values]
    if unknown:
        raise SystemExit("compute() makes no golden key %s" % ", ".join(unknown))
    for key in keys:
        golden["values"][key] = values[key]
        if key in texts:
            golden["texts"][key] = texts[key]
    return golden


def _dump(path):
    """Every computed value as float.hex, plus the CSV texts, to path."""
    values, texts = compute()
    exact = {key: [float(x).hex() for x in vals] for key, vals in values.items()}
    with open(path, "w") as fh:
        json.dump({"values": exact, "texts": texts}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _compare(path_a, path_b):
    """Print each key's gap between two --dump files; returns the failures."""
    dumps = []
    for path in (path_a, path_b):
        with open(path) as fh:
            dumps.append(json.load(fh))
    a, b = (d["values"] for d in dumps)
    failed = [] if dumps[0]["texts"] == dumps[1]["texts"] else ["CSV texts"]
    failed += sorted(set(a) ^ set(b))
    for key in sorted(set(a) & set(b)):
        want = np.array([float.fromhex(x) for x in a[key]])
        have = np.array([float.fromhex(x) for x in b[key]])
        if have.shape != want.shape:
            failed.append(key)
            continue
        scale = float(np.max(np.abs(want))) if want.size else 0.0
        gap = float(np.max(np.abs(have - want))) if want.size else 0.0
        rel = gap / scale if scale > 0.0 else (0.0 if gap == 0.0 else math.inf)
        print("%-32s %-13s %.3g" % (key, "bit-identical" if a[key] == b[key] else "", rel))
        if not rel <= GOLDEN_RTOL:
            failed.append(key)
    for what in failed:
        print("differs beyond %g: %s" % (GOLDEN_RTOL, what))
    return failed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write tests/golden.json from this checkout.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--add", nargs="+", metavar="KEY",
        help="merge only these new keys into the stored fixture",
    )
    mode.add_argument(
        "--dump", metavar="PATH",
        help="write every value as float.hex, with the CSV texts, to PATH instead",
    )
    mode.add_argument(
        "--compare", nargs=2, metavar=("BEFORE", "AFTER"),
        help="compare two --dump files key by key; exit 1 beyond GOLDEN_RTOL",
    )
    args = parser.parse_args()
    if args.compare:
        raise SystemExit(1 if _compare(*args.compare) else 0)
    if args.dump:
        _dump(args.dump)
        raise SystemExit(0)
    if args.add:
        golden = _add_keys(args.add)
    else:
        values, texts = compute()
        golden = {"values": values, "texts": texts}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
