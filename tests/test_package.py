"""Package metadata: each critnorm module's __all__ names attributes that
exist in that module."""

import importlib
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
