"""Every name a qarm module exports in `__all__` exists, so a deletion
that leaves a stale export fails here."""

import importlib
import pkgutil

import pytest

import qarm

MODULES = ["qarm"] + [f"qarm.{info.name}" for info in pkgutil.iter_modules(qarm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
