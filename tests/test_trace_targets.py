"""Every span target of the benchmark's tracer still names a qarm function.

`perfbench/tracer.py` replaces each `(module, attribute)` of its TARGETS
by name and aborts the traced run when one is missing, so a rename in
qarm must show up here rather than in a failed `--trace 1` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _name, _note in module.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_tracer_target_resolves(module, attr):
    owner = importlib.import_module(f"qarm.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
