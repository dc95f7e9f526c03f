"""Every name a public ``__all__`` list exports resolves."""

import importlib
import pkgutil

import pytest

import cohertk

MODULES = ["cohertk"] + sorted(
    f"cohertk.{info.name}" for info in pkgutil.iter_modules(cohertk.__path__)
    if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    for attr in exported:
        assert hasattr(module, attr), f"{name}.{attr}"
