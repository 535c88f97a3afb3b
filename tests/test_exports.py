"""Every name a sigclass module exports through __all__, or README's module
table names, exists, so a name removed from a module cannot linger in its
export list or in the docs."""

import builtins
import importlib
import pathlib
import pkgutil
import re

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


README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_module_table_names_resolve():
    """Every backticked identifier in a library row of README's module table
    is an attribute (or dotted attribute path) of that row's module or a
    builtin such as ValueError.  The cli row names commands instead."""
    rows = re.findall(r"^\| `sigclass\.(\w+)` \| (.*) \|$", README.read_text(), re.M)
    assert {name for name, _ in rows} == set(MODULES)
    for name, contents in rows:
        if name == "cli":
            continue
        module = importlib.import_module(f"sigclass.{name}")
        for ident in re.findall(r"`([A-Za-z_][\w.]*)`", contents):
            head, *rest = ident.split(".")
            obj = getattr(module, head, None) or getattr(builtins, head, None)
            for attr in rest:
                obj = getattr(obj, attr, None)
            assert obj is not None, f"README names `{ident}` on sigclass.{name}"
