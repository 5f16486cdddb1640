"""perfbench/layertrace.py times the layers by patching the names in its
BOUNDARIES on the package's modules.  Each must resolve, so that deleting
a name the tracer patches fails this suite, not only the benchmark's own
tests.  The same names are the only imports a module may leave unused."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "rieszgreedy"


def boundaries():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [boundary[:2] for boundary in module.BOUNDARIES]


@pytest.mark.parametrize("module, name", boundaries())
def test_boundary_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"rieszgreedy.{module}"),
                            name, None))


def imported_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def exported_names(path) -> set[str]:
    name = "rieszgreedy" if path.stem == "__init__" else f"rieszgreedy.{path.stem}"
    return set(getattr(importlib.import_module(name), "__all__", ()))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    # no lint tool runs on the package: an import must be used, exported,
    # or patched by the tracer on this module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    patched = {name for module, name in boundaries() if module == path.stem}
    stray = imported_names(tree) - used - exported_names(path) - patched
    assert not stray, f"{path.name} imports {sorted(stray)} without using them"
