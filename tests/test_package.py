"""Package metadata: each critnorm module's __all__ names attributes that
exist in that module, and the package's optional parameters do not grow."""

import ast
import importlib
import pathlib
import pkgutil

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


# the count of test_optional_parameters_do_not_grow; lower it when options go
OPTIONAL_PARAMETERS = 58


def test_optional_parameters_do_not_grow():
    """Defaults on the public functions and methods of critnorm.

    The scan reads every .py file of the package with ast. It counts the
    defaults, positional and keyword-only, of each def at module level
    whose name has no leading underscore, and of each such def in the
    body of a module-level class whose name has no leading underscore.
    Only the def's and its class's names decide: a module's name does
    not, so _fft's entry points count, and dunder methods such as
    __init__ do not; nor do dataclass field defaults or nested defs.
    """
    count = 0
    for path in pathlib.Path(critnorm.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            public_class = isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for fn in node.body if public_class else [node]:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    args = fn.args
                    count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    assert count <= OPTIONAL_PARAMETERS, count
