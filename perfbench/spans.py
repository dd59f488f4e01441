"""Per-layer spans recorded from outside the program.

A Tracer wraps named functions of the critnorm package and rebinds every
module-level name that refers to one of them, so calls made through
`from .spectral import evaluate_at_points` bindings and a module's calls
to its own functions (pns.run_pns -> pns.step) are counted as well as
calls through the defining module. Install it only after every critnorm
module the workload uses has been imported; uninstall restores every
binding.

Per span name the tracer keeps calls, busy time (wall time inside the
function), self time (busy time minus the time covered by wrapped
callees) and a few counters: bytes and doubled-grid transforms for the
FFT entry points, off-grid points for evaluate_at_points (credited to
every span open around the call), and Picard iterations for solve_mild.
"""

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs behind the reported metrics; run_pns is the
# parent span of the stepping and pressure spans, and _picard_loop times
# the Picard iterations inside solve_mild
TARGETS = (
    ("critnorm._fft", "rfftn"),
    ("critnorm._fft", "irfftn"),
    ("critnorm._fft", "fftn"),
    ("critnorm.spectral", "evaluate_at_points"),
    ("critnorm.spectral", "newtonian_potential"),
    ("critnorm.spectral", "leray_project"),
    ("critnorm.besov", "besov_split"),
    ("critnorm.mild", "solve_mild"),
    ("critnorm.mild", "_picard_loop"),
    ("critnorm.pns", "run_pns"),
    ("critnorm.pns", "step"),
    ("critnorm.pns", "recover_pressure"),
    ("critnorm.pns", "verify_local_energy"),
    ("critnorm.pressure", "split_pressure"),
    ("critnorm.pressure", "pressure_oscillation_terms"),
    ("critnorm.ckn", "ledger_A"),
    ("critnorm.ckn", "ledger_B"),
    ("critnorm.ckn", "ledger_weighted"),
    ("critnorm.ckn", "morrey_sup"),
    ("critnorm.ckn", "build_test_function"),
    ("critnorm.norms", "morrey_critical"),
    ("critnorm.norms", "lorentz_quasinorm"),
    ("critnorm.norms", "l2_uloc"),
)

FFT_NAMES = ("fft.rfftn", "fft.irfftn", "fft.fftn")


def span_name(module, attr):
    """Report name of a target: critnorm._fft.rfftn -> fft.rfftn."""
    return "%s.%s" % (module.rsplit(".", 1)[-1].lstrip("_"), attr)


class _Stat:
    __slots__ = ("calls", "busy_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.counters = defaultdict(float)


class Tracer:
    """Wraps every function in TARGETS while installed.

    n is the grid size of the workload; FFTs whose real-space side has
    2n points per axis are counted as doubled-grid transforms.
    """

    def __init__(self, n):
        self.n = int(n)
        self.stats = defaultdict(_Stat)
        self._stack = []  # [name, time covered by wrapped callees]
        self._bound = []  # (module, attribute, original) to restore

    def install(self):
        if self._bound:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "critnorm" or k.startswith("critnorm.")]
        for mod_name, attr in TARGETS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is None and attr.startswith("_"):
                continue  # private helper gone: its metric falls back
            wrapper = self._wrap(span_name(mod_name, attr), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bound.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self):
        for mod, key, original in reversed(self._bound):
            setattr(mod, key, original)
        self._bound = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, func):
        stack = self._stack
        stat = self.stats[name]
        observe = _OBSERVERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.busy_s += dur
                stat.self_s += dur - frame[1]
            if observe is not None:
                observe(self, stat, args, kwargs, result)
            return result

        return wrapper

    def credit_open_spans(self, counter, amount):
        """Add amount to counter on every span currently open."""
        for name, _ in self._stack:
            self.stats[name].counters[counter] += amount


def _observe_fft(real_side):
    def observe(tracer, stat, args, kwargs, result):
        arr = args[0]
        stat.counters["bytes"] += arr.nbytes + result.nbytes
        real = arr if real_side == "input" else result
        if real.shape[-1] == 2 * tracer.n:
            stat.counters["transforms_2n"] += 1

    return observe


def _observe_points(tracer, stat, args, kwargs, result):
    points = result.size
    stat.counters["points"] += points
    tracer.credit_open_spans("points", points)


def _observe_mild(tracer, stat, args, kwargs, result):
    stat.counters["picard_iterations"] += result.iterations


_OBSERVERS = {
    "fft.rfftn": _observe_fft("input"),
    "fft.irfftn": _observe_fft("output"),
    "fft.fftn": _observe_fft("input"),
    "spectral.evaluate_at_points": _observe_points,
    "mild.solve_mild": _observe_mild,
}


def _busy(name):
    return lambda t: t.stats[name].busy_s


def _calls(name):
    return lambda t: t.stats[name].calls


def _self(name):
    return lambda t: t.stats[name].self_s


def _counter(name, key):
    return lambda t: t.stats[name].counters[key]


def _fft_total(field):
    def value(t):
        stats = [t.stats[name] for name in FFT_NAMES]
        if field == "busy_s":
            return sum(s.busy_s for s in stats)
        return sum(s.counters[field] for s in stats)

    return value


def _picard_iter_s(t):
    iters = t.stats["mild.solve_mild"].counters["picard_iterations"]
    if not iters:
        return 0.0
    loop = "mild._picard_loop" if t.stats["mild._picard_loop"].calls else "mild.solve_mild"
    return t.stats[loop].busy_s / iters


# metric name -> (unit, value read from the tracer), in report order
LAYER_METRICS = {
    "fft.rfftn.calls": ("count", _calls("fft.rfftn")),
    "fft.irfftn.calls": ("count", _calls("fft.irfftn")),
    "fft.fftn.calls": ("count", _calls("fft.fftn")),
    "fft.transforms_2n": ("count", _fft_total("transforms_2n")),
    "fft.busy_s": ("s", _fft_total("busy_s")),
    "fft.bytes": ("B", _fft_total("bytes")),
    "spectral.evaluate_at_points.calls": ("count", _calls("spectral.evaluate_at_points")),
    "spectral.evaluate_at_points.busy_s": ("s", _busy("spectral.evaluate_at_points")),
    "spectral.evaluate_at_points.points": (
        "count", _counter("spectral.evaluate_at_points", "points")),
    "spectral.newtonian_potential.calls": ("count", _calls("spectral.newtonian_potential")),
    "spectral.newtonian_potential.busy_s": ("s", _busy("spectral.newtonian_potential")),
    "spectral.leray_project.busy_s": ("s", _busy("spectral.leray_project")),
    "besov.besov_split.busy_s": ("s", _busy("besov.besov_split")),
    "mild.solve_mild.busy_s": ("s", _busy("mild.solve_mild")),
    "mild.picard_iterations": ("count", _counter("mild.solve_mild", "picard_iterations")),
    "mild.picard_iter_s": ("s", _picard_iter_s),
    "pns.step.calls": ("count", _calls("pns.step")),
    "pns.step.busy_s": ("s", _busy("pns.step")),
    "pns.step.self_s": ("s", _self("pns.step")),
    "pns.recover_pressure.calls": ("count", _calls("pns.recover_pressure")),
    "pns.recover_pressure.busy_s": ("s", _busy("pns.recover_pressure")),
    "pns.verify_local_energy.busy_s": ("s", _busy("pns.verify_local_energy")),
    "pressure.split_pressure.busy_s": ("s", _busy("pressure.split_pressure")),
    "pressure.pressure_oscillation_terms.calls": (
        "count", _calls("pressure.pressure_oscillation_terms")),
    "pressure.pressure_oscillation_terms.busy_s": (
        "s", _busy("pressure.pressure_oscillation_terms")),
    "pressure.lattice_points": (
        "count", _counter("pressure.pressure_oscillation_terms", "points")),
    "ckn.ledger_A.busy_s": ("s", _busy("ckn.ledger_A")),
    "ckn.ledger_B.busy_s": ("s", _busy("ckn.ledger_B")),
    "ckn.ledger_weighted.busy_s": ("s", _busy("ckn.ledger_weighted")),
    "ckn.morrey_sup.busy_s": ("s", _busy("ckn.morrey_sup")),
    "ckn.build_test_function.busy_s": ("s", _busy("ckn.build_test_function")),
    "norms.morrey_critical.busy_s": ("s", _busy("norms.morrey_critical")),
    "norms.lorentz_quasinorm.busy_s": ("s", _busy("norms.lorentz_quasinorm")),
    "norms.l2_uloc.busy_s": ("s", _busy("norms.l2_uloc")),
}


def layer_metrics(tracer):
    """{metric name: value} for every entry of LAYER_METRICS."""
    return {name: float(fn(tracer)) for name, (_, fn) in LAYER_METRICS.items()}
