"""perfbench/layertrace.py times the layers by patching the names in its
BOUNDARIES on the package's modules.  Each must resolve, so that deleting
a name the tracer patches fails this suite, not only the benchmark's own
tests."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def boundaries():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [boundary[:2] for boundary in module.BOUNDARIES]


@pytest.mark.parametrize("module, name", boundaries())
def test_boundary_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"rieszgreedy.{module}"),
                            name, None))
