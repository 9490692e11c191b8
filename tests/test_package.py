"""The package's public namespace, and the names the traced benchmark wraps."""

from __future__ import annotations

import importlib
import importlib.util
import os

import orbitlb
from orbitlb.milp import MilpModel

HERE = os.path.dirname(os.path.abspath(__file__))


def test_every_public_name_resolves():
    missing = [name for name in orbitlb.__all__ if not hasattr(orbitlb, name)]
    assert missing == []
    assert len(orbitlb.__all__) == len(set(orbitlb.__all__))


def test_every_traced_benchmark_target_resolves():
    """perfbench/spans.py wraps these functions and methods and reads
    MilpModel.rows in traced runs; a missing one breaks ``--trace 1``."""
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(HERE, "..", "perfbench", "spans.py")
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{attr}"
        for _layer, mod, attr in spans.FUNCTION_TARGETS
        if not hasattr(importlib.import_module(mod), attr)
    ]
    missing += [
        f"{mod}.{cls}.{meth}"
        for _layer, mod, cls, meth in spans.METHOD_TARGETS
        if not hasattr(getattr(importlib.import_module(mod), cls), meth)
    ]
    assert missing == []
    assert hasattr(MilpModel, "rows")
