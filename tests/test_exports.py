"""Every name a sigclass module exports through __all__ exists, so a name
removed from a module cannot linger in its export list."""

import importlib
import pkgutil

import pytest

import sigclass

MODULES = sorted(m.name for m in pkgutil.iter_modules(sigclass.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"sigclass.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"sigclass.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"sigclass.{name}.__all__ names missing attributes: {missing}"
