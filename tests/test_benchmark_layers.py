"""The benchmark's span tracer names neontrap functions by string and its
count hooks read their arguments by name, and its committed configs go
through the strict config parser; a rename, a signature change or a schema
change fails here rather than in a benchmark run."""

import importlib
import importlib.util
import inspect
import re
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


def _resolve(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def _hook_arguments():
    """(module, attr, argument) for every argument a count hook reads as args["name"]."""
    return [(m, a, name) for m, a, _, hook in _layers() if hook is not None
            for name in re.findall(r'args\["(\w+)"\]', inspect.getsource(hook))]


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, *_ in _layers()])
def test_traced_layer_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr))


@pytest.mark.parametrize("module_name, attr, argument", _hook_arguments(),
                         ids=lambda v: str(v))
def test_hook_argument_binds(module_name, attr, argument):
    # a hook that reads a parameter the function no longer has raises
    # KeyError in every traced call, so every traced sample would fail
    assert argument in inspect.signature(_resolve(module_name, attr)).parameters


def test_hook_arguments_found():
    assert {(a, name) for _, a, name in _hook_arguments()} >= {
        ("solve_lowest", "grid"), ("radial_spectrum", "n_points"),
        ("ResultTable.write", "path"), ("perpendicular_potential", "z")}


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("configs/*.ini")), ids=lambda p: p.name)
def test_benchmark_config_loads(path):
    load_config(str(path))
