"""Package metadata: each critnorm module's __all__ names attributes
that exist in that module, no module imports a sibling's private name,
only _fft transforms, only cylinder integrates in time over stored
slices or samples stored frames off the grid, no module keeps an import
it never reads, importing the package stays light, the package's
optional parameters do not grow, its public dataclasses are frozen, no
module global is None, and the declared numpy floor has the numpy the
package calls."""

import ast
import importlib
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import critnorm

MODULES = ["critnorm"] + sorted(
    "critnorm." + info.name for info in pkgutil.iter_modules(critnorm.__path__)
)


def test_every_module_is_listed():
    assert {"critnorm.ckn", "critnorm.corpus", "critnorm.fields", "critnorm.norms",
            "critnorm.pipeline"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_real_attributes(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_no_module_imports_a_siblings_private_name():
    """A _-prefixed name belongs to its module: no critnorm module imports
    one from a sibling (from .spectral import _x). Importing a private
    sibling module itself, from . import _fft, is allowed."""
    found = []
    for path in sorted(pathlib.Path(critnorm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # from . import _fft and from critnorm import _fft import a module, not a name in one
            sibling = isinstance(node, ast.ImportFrom) and node.module is not None and (
                node.level > 0 or node.module.startswith("critnorm."))
            if sibling:
                found += ["%s: %s.%s" % (path.name, node.module, alias.name)
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


# the modules whose transforms only critnorm._fft may use; their
# wavenumber and layout helpers are not transforms
FFT_MODULES = ("numpy.fft", "scipy.fft")
NOT_TRANSFORMS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift", "next_fast_len"}


def _is_transform(name):
    module, _, attr = name.rpartition(".")
    return module in FFT_MODULES and attr not in NOT_TRANSFORMS


# numpy's time quadratures; every name of scipy.integrate is one too
NUMPY_TIME_RULES = ("numpy.trapezoid", "numpy.trapz")


def _is_time_rule(name):
    return name in NUMPY_TIME_RULES or name.rpartition(".")[0] == "scipy.integrate"


def _uses(text, flagged):
    """Each line:name where a module's source reads a dotted name that
    flagged(name) is true of, however the module was imported (import
    numpy as np, from scipy import fft, from numpy.fft import rfftn, ...),
    as a call or as a value."""
    tree = ast.parse(text)
    bound = {}  # a name the module binds by an import -> the dotted name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                bound[alias.asname or alias.name] = node.module + "." + alias.name

    def dotted(expr):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id, expr.id)
        if isinstance(expr, ast.Attribute):
            base = dotted(expr.value)
            return base and base + "." + expr.attr
        return None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = dotted(node)
            if name and flagged(name):
                found.append((node.lineno, "%d:%s" % (node.lineno, name)))
    return [use for _, use in sorted(found)]


def test_transform_scan_sees_every_import_style():
    text = ("import numpy as np\nimport scipy.fft\nimport scipy.fft as sf\n"
            "from scipy import fft\nfrom numpy.fft import irfftn as inv\n"
            "np.fft.rfftn(x)\nscipy.fft.fftn(x)\nsf.irfftn(x)\nfft.rfft(x)\n"
            "f = inv\nk = np.fft.fftfreq(8) + fft.rfftfreq(8)\n"
            "from numpy import trapezoid as tz\nimport scipy.integrate as si\n"
            "from scipy import integrate\nfrom scipy.integrate import simpson\n"
            "tz(y, t) + np.trapz(y, t) + np.trapezoid(y, t)\nsi.cumulative_trapezoid(y, t)\n"
            "rule = integrate.quad\nsimpson(y, x=t)\nnp.sum(y) + np.cumsum(y)\n")
    assert _uses(text, _is_transform) == [
        "6:numpy.fft.rfftn", "7:scipy.fft.fftn", "8:scipy.fft.irfftn",
        "9:scipy.fft.rfft", "10:numpy.fft.irfftn"]
    assert _uses(text, _is_time_rule) == [
        "16:numpy.trapezoid", "16:numpy.trapezoid", "16:numpy.trapz",
        "17:scipy.integrate.cumulative_trapezoid", "18:scipy.integrate.quad",
        "19:scipy.integrate.simpson"]


def _package_uses(flagged, owner):
    """The uses flagged in every critnorm module but owner, whose own
    source must show some: the scan sees them where they are."""
    found = []
    for path in sorted(pathlib.Path(critnorm.__file__).parent.glob("*.py")):
        uses = _uses(path.read_text(), flagged)
        if path.name == owner:
            assert uses
        else:
            found += ["%s:%s" % (path.name, use) for use in uses]
    return found


def test_only_fft_transforms():
    """Every transform funnels through critnorm._fft, which picks its
    worker count and where perfbench counts transforms: no other module
    reads a transform of numpy.fft or scipy.fft. fftfreq, which
    fields.Grid and spectral use for wavenumbers, is not a transform."""
    assert _package_uses(_is_transform, "_fft.py") == []


def test_only_cylinder_integrates_in_time():
    """Every time integral over stored slices takes one of cylinder's
    rules (trapezoid, cumulative_trapezoid, cumulative_simpson): no
    other module reads numpy.trapezoid, numpy.trapz or a name of
    scipy.integrate."""
    assert _package_uses(_is_time_rule, "cylinder.py") == []


def test_no_module_keeps_an_unused_import():
    """Every name a critnorm module imports is read in that module, is in
    its __all__, or sits on a line marked # noqa: F401. ckn and pressure
    mark their evaluate_at_points, which they import only so that
    perfbench's tracer finds a binding there."""
    found = []
    for path in sorted(pathlib.Path(critnorm.__file__).parent.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        name = "critnorm" if path.stem == "__init__" else "critnorm." + path.stem
        kept = set(getattr(importlib.import_module(name), "__all__", ()))
        kept |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in kept and "# noqa: F401" not in lines[alias.lineno - 1]:
                        found.append("%s: %s" % (path.name, bound))
    assert found == []


def test_only_cylinder_calls_the_off_grid_evaluator():
    """The spectra of stored frames have one owner, cylinder.FrameSpectra:
    outside spectral, no module but cylinder calls evaluate_at_points.
    Importing the name, as ckn and pressure do so that perfbench's
    tracer finds a binding there, is not calling it."""
    names = {"evaluate_at_points"}
    found = []
    for path in sorted(pathlib.Path(critnorm.__file__).parent.glob("*.py")):
        if path.name in ("spectral.py", "cylinder.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in names:
                    found.append("%s:%d %s" % (path.name, node.lineno, called))
    assert found == []


# scipy subpackages that importing scipy.integrate loads, about 0.3 s and
# 25 MB of start-up that no critnorm module needs
HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
               "scipy.spatial", "scipy.constants")


def test_importing_every_module_leaves_heavy_scipy_unloaded():
    # a fresh interpreter: this one holds whatever the tests imported
    src = str(pathlib.Path(critnorm.__file__).parent.parent)
    code = ("import importlib, sys\n"
            "sys.path.insert(0, %r)\n"
            "for name in %r:\n"
            "    importlib.import_module(name)\n"
            "print(' '.join(name for name in %r if name in sys.modules))"
            % (src, MODULES, HEAVY_SCIPY))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


# the count of test_optional_parameters_do_not_grow; lower it when options go
OPTIONAL_PARAMETERS = 31


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _settable_field(value):
    """A dataclass field default that the constructor takes: anything
    but field(..., init=False)."""
    return not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False for kw in value.keywords))


def test_optional_parameters_do_not_grow():
    """Settable defaults of the public functions and classes of critnorm.

    The scan reads every .py file of the package with ast. It counts the
    defaults, positional and keyword-only, of each def at module level
    whose name has no leading underscore. In the body of each
    module-level class whose name has no leading underscore it counts
    those of __init__ and of each def whose name has no leading
    underscore, and, when the class is a dataclass, every field with a
    default except field(init=False), which the constructor does not
    take. Only the names of the def and its class decide: a module's name
    does not, so _fft's entry points count; other dunder methods and
    nested defs do not. A failure lists every name it counted,
    module.function.parameter, module.Class.method.parameter or
    module.Class.field.
    """
    names = []
    for path in sorted(pathlib.Path(critnorm.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            public_class = isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            prefix = "%s.%s" % (path.stem, node.name + "." if public_class else "")
            for fn in node.body if public_class else [node]:
                if isinstance(fn, ast.FunctionDef) and (
                    fn.name == "__init__" and public_class or not fn.name.startswith("_")
                ):
                    args = fn.args
                    positional = args.posonlyargs + args.args
                    params = positional[len(positional) - len(args.defaults):]
                    params += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                    names += ["%s%s.%s" % (prefix, fn.name, a.arg) for a in params]
                elif public_class and _is_dataclass(node) and isinstance(fn, ast.AnnAssign):
                    if fn.value is not None and _settable_field(fn.value):
                        names.append(prefix + fn.target.id)
    assert len(names) <= OPTIONAL_PARAMETERS, (
        "%d optional parameters, above the %d recorded: %s"
        % (len(names), OPTIONAL_PARAMETERS, ", ".join(names)))


def test_public_dataclasses_are_frozen():
    """Every module-level @dataclass of critnorm whose name has no leading
    underscore is declared @dataclass(frozen=True): the package's records
    and configs never change after they are made."""
    found = []
    for path in sorted(pathlib.Path(critnorm.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_dataclass(node):
                frozen = any(isinstance(d, ast.Call) and any(
                    kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                    for kw in d.keywords) for d in node.decorator_list)
                if not frozen:
                    found.append("%s: %s" % (path.name, node.name))
    assert found == []


def test_no_module_global_is_none():
    """No critnorm module binds a global, dunder names included, to None.
    perfbench's tracer reads a missing target as None, so it would rebind
    every critnorm global that is None."""
    found = ["%s.%s" % (name, attr) for name in MODULES
             for attr, value in vars(importlib.import_module(name)).items() if value is None]
    assert found == []


def test_numpy_floor_has_trapezoid():
    """pyproject.toml declares numpy>=2.0, the release that added
    np.trapezoid, which the package calls. The file is read as text:
    tomllib is not in Python 3.10, the oldest Python it declares."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    floors = re.findall(r'"numpy>=(\d+)\.(\d+)[^"]*"', text)
    assert len(floors) == 1
    assert tuple(int(x) for x in floors[0]) >= (2, 0)
    sources = pathlib.Path(critnorm.__file__).parent.glob("*.py")
    assert any("np.trapezoid(" in path.read_text() for path in sources)
