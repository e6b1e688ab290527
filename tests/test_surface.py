"""The package's public surface: what it exports, what it no longer does, what it imports."""

import ast
import importlib
from pathlib import Path

import pytest

import hdfrontier

SOURCES = sorted(Path(hdfrontier.__file__).parent.glob("*.py"))
MODULES = [f"hdfrontier.{path.stem}" for path in SOURCES if path.stem not in ("__init__", "__main__")]
TESTS = sorted(Path(__file__).parent.glob("*.py"))

#: names removed from the package; README lists what replaces each
REMOVED = (
    "sample_frontier",
    "consistent_frontier",
    "unbiased_frontier",
    "generate_normal",
    "generate_t3",
    "generate_ccc_garch",
    "chi2_ratio_clt_moments",
    "noncentral_f_clt_params",
    "frontier_variance_at",
    "DegenerateSlope",
    "SpectrumSpec",
    "GarchState",
    "garch_state",
    "InvalidSpectrum",
    "StationarityViolation",
)


@pytest.mark.parametrize("module", ["hdfrontier", *MODULES])
def test_every_exported_name_resolves(module):
    imported = importlib.import_module(module)
    missing = [name for name in getattr(imported, "__all__", ()) if not hasattr(imported, name)]
    assert not missing


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    with pytest.raises(ImportError):
        exec(f"from hdfrontier import {name}", {})
    assert not any(hasattr(importlib.import_module(module), name) for module in MODULES)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is re-exported, so used
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert not _unused_imports(path)
