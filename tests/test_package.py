"""The package exports no names of its own: `gcope.<name>` is always the
submodule, so `import gcope.pretrain as m` binds the module."""

import importlib
import sys
import types
from pathlib import Path

import pytest

import gcope

MODULES = sorted(p.stem for p in Path(gcope.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


def test_import_as_binds_the_module_not_a_function():
    import gcope.pretrain as m
    assert isinstance(m, types.ModuleType)
    assert m is sys.modules["gcope.pretrain"]


@pytest.mark.parametrize("name", MODULES)
def test_package_attribute_is_the_submodule(name):
    importlib.import_module(f"gcope.{name}")
    assert getattr(gcope, name) is sys.modules[f"gcope.{name}"]


def test_package_has_no_public_names_but_its_modules():
    for name in MODULES:
        importlib.import_module(f"gcope.{name}")
    public = {n for n in vars(gcope) if not n.startswith("_")}
    assert public <= set(MODULES)
