import importlib
import pkgutil

import pytest

import csforge

MODULES = [csforge] + [importlib.import_module(f"csforge.{info.name}")
                       for info in pkgutil.iter_modules(csforge.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    # a removed name cannot linger in an export list
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []
