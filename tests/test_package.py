"""Package metadata: each critnorm module's __all__ names attributes that
exist in that module, no module imports a sibling's private name, only
cylinder samples stored frames off the grid, no module keeps an import
it never reads, importing the package stays light, the package's
optional parameters do not grow, and its public dataclasses are
frozen."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import critnorm

MODULES = ["critnorm"] + sorted(
    "critnorm." + info.name for info in pkgutil.iter_modules(critnorm.__path__)
)


def test_every_module_is_listed():
    assert {"critnorm.ckn", "critnorm.corpus", "critnorm.fields", "critnorm.norms"} <= set(MODULES)


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
OPTIONAL_PARAMETERS = 51


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
    nested defs do not.
    """
    count = 0
    for path in pathlib.Path(critnorm.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            public_class = isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for fn in node.body if public_class else [node]:
                if isinstance(fn, ast.FunctionDef) and (
                    fn.name == "__init__" and public_class or not fn.name.startswith("_")
                ):
                    args = fn.args
                    count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                elif public_class and _is_dataclass(node) and isinstance(fn, ast.AnnAssign):
                    count += fn.value is not None and _settable_field(fn.value)
    assert count <= OPTIONAL_PARAMETERS, count


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
