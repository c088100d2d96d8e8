"""The benchmark's span tracer names neontrap functions by string, and its
committed configs go through the strict config parser; a rename or a schema
change fails here rather than in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from neontrap.config import load_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, *_ in _layers()])
def test_traced_layer_resolves(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("configs/*.ini")), ids=lambda p: p.name)
def test_benchmark_config_loads(path):
    load_config(str(path))
