"""Every name a module exports exists.

A deletion under ``src/`` that leaves its name in the package's or a
module's ``__all__`` would break ``from microlcoe import *`` and mislead
readers of the API, so this check fails first.
"""

import importlib
import pkgutil

import pytest

import microlcoe

MODULES = ["microlcoe", *(f"microlcoe.{m.name}" for m in pkgutil.iter_modules(microlcoe.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
