"""Every name that ``coxsort`` or one of its modules exports in ``__all__``
is bound, so a deleted function cannot stay advertised."""

import importlib
import pkgutil

import pytest

import coxsort

# the command-line module exports no names
MODULES = ["coxsort"] + sorted(f"coxsort.{m.name}" for m in pkgutil.iter_modules(coxsort.__path__)
                               if m.name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
