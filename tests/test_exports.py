"""Every name a qarm module exports in `__all__` exists, every class and
function the package imports is exported, and only `qarm.data` reads the
internals of a `TransactionDB`."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import qarm

MODULES = ["qarm"] + [f"qarm.{info.name}" for info in pkgutil.iter_modules(qarm.__path__)]

# TransactionDB's private arrays and its CSC accessor
DB_INTERNALS = re.compile(r"\._(rows_with_item|csc|indices|indptr|column_counts)\b")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_exports_what_it_imports():
    imported = [name for name, value in vars(qarm).items()
                if (inspect.isclass(value) or inspect.isfunction(value))
                and value.__module__.startswith("qarm.")]
    unlisted = sorted(set(imported) - set(qarm.__all__))
    assert not unlisted, f"qarm imports but does not export: {unlisted}"


def test_only_data_reads_transaction_db_internals():
    src = pathlib.Path(qarm.__file__).parent
    readers = {path.name: sorted(set(DB_INTERNALS.findall(path.read_text())))
               for path in sorted(src.glob("*.py")) if path.name != "data.py"}
    readers = {name: found for name, found in readers.items() if found}
    assert not readers, f"TransactionDB internals read outside qarm.data: {readers}"
