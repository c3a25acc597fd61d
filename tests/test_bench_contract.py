"""Every per-layer benchmark metric that names a function of the library
must find it: a traced benchmark run stops on a missing per-layer metric,
so deleting or renaming such a function has to fail here first."""
import importlib
import json
import re
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PATTERN = re.compile(r"(\w+)\.(\w+)\.(calls|ms|self_ms|errors|infeasible|repeat_ratio)")
METRICS = [
    m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"] if PATTERN.fullmatch(m["name"])
]


def test_contract_names_functions():
    assert METRICS


@pytest.mark.parametrize("metric", METRICS)
def test_per_layer_metric_names_a_function(metric):
    layer, name, _ = PATTERN.fullmatch(metric).groups()
    module = importlib.import_module(f"polycrit.{layer}")
    # the tracer records Polynomial.find_roots as poly.find_roots
    owner = module.Polynomial if (layer, name) == ("poly", "find_roots") else module
    assert callable(getattr(owner, name, None)), f"{metric}: polycrit.{layer} has no {name}"
