"""Every name the benchmark tracer wraps must exist in symform.

``perfbench/tracing.py`` looks its functions up by (module, attribute) when
a traced run starts, so a rename in ``src/symform`` would make
``perfbench/run.py --trace 1`` fail with AttributeError. The tables are read
with ``ast``, without importing the benchmark.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names() -> dict[str, list[tuple[str, ...]]]:
    tables = {}
    for node in ast.parse(TRACING.read_text(), filename=str(TRACING)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("SPANNED", "COUNTED", "COUNTED_METHODS"):
                tables[name] = [tuple(entry) for entry in ast.literal_eval(node.value)]
    return tables


def test_tracer_tables_found():
    tables = traced_names()
    assert set(tables) == {"SPANNED", "COUNTED", "COUNTED_METHODS"}
    assert all(tables.values())
    assert ("laplacian", "product_laplacian") in tables["SPANNED"]


@pytest.mark.parametrize("entry", [e for table in traced_names().values() for e in table], ids=".".join)
def test_traced_name_resolves(entry):
    module = importlib.import_module(f"symform.{entry[0]}")
    target = module
    for attr in entry[1:]:
        assert hasattr(target, attr), f"symform.{'.'.join(entry)} does not exist"
        target = getattr(target, attr)
    assert callable(target)
