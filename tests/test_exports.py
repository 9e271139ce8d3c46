"""Every name a qarm module exports in `__all__` exists, every class and
function the package imports is exported, only `qarm.data` reads the
internals of a `TransactionDB`, and no runtime module loads the dense
engine."""

import ast
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


def _module_level_imports(path: pathlib.Path) -> set[str]:
    """The modules a file imports when it loads, outside any function or
    class body; a qarm module is named as within the package, so both
    `from .qsim import x` and `from . import qsim` read as `qsim`."""
    found = set()
    pending = list(ast.parse(path.read_text()).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("qarm"):
                continue
            base = base.removeprefix("qarm").lstrip(".")
            found.update([base] if base else [alias.name for alias in node.names])
        else:
            pending.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("name", ["data", "classical", "mining", "qpe", "cli"])
def test_runtime_modules_do_not_load_the_dense_engine(name):
    # the simulator and the oracle circuit are the reference the closed
    # forms are tested against; the miners and the CLI run without them
    path = pathlib.Path(qarm.__file__).parent / f"{name}.py"
    dense = {"qsim", "oracle", "qarm.qsim", "qarm.oracle"}
    assert not _module_level_imports(path) & dense


def test_only_data_reads_transaction_db_internals():
    src = pathlib.Path(qarm.__file__).parent
    readers = {path.name: sorted(set(DB_INTERNALS.findall(path.read_text())))
               for path in sorted(src.glob("*.py")) if path.name != "data.py"}
    readers = {name: found for name, found in readers.items() if found}
    assert not readers, f"TransactionDB internals read outside qarm.data: {readers}"
