"""The benchmark's span tracer names neontrap functions by string and its
count hooks read their arguments by name, and its committed configs go
through the strict config parser; a rename, a signature change or a schema
change fails here rather than in a benchmark run.  Every eigensolve must
also run inside a traced eigensolve layer, or its time would be charged to
whichever layer happens to enclose it."""

import functools
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest
import scipy.linalg

from neontrap.cli import main
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


# the traced layers that time eigensolves: every dense LAPACK solve of a
# spectral-element matrix, perpendicular or radial, must run inside one
EIGENSOLVE_LAYERS = [("neontrap.perpendicular", "solve_lowest"),
                     ("neontrap.lateral", "radial_spectrum")]


def _patch_everywhere(monkeypatch, module_name, attr, wrap):
    """Replace a function in every neontrap namespace that binds it, as the tracer does."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = wrap(original)
    for name, mod in list(sys.modules.items()):
        if name == "neontrap" or name.startswith("neontrap."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapped)


@pytest.mark.parametrize("command, workload", [("ground-sweep", "ground_sweep"),
                                               ("lateral", "lateral_scan"),
                                               ("field-sweep", "field_sweep")])
def test_every_eigensolve_is_inside_a_traced_layer(monkeypatch, tmp_path, command, workload):
    assert set(EIGENSOLVE_LAYERS) <= {(m, a) for m, a, *_ in _layers()}
    depth, inside, outside = [0], [], []

    def enclose(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def record(fn):
        @functools.wraps(fn)
        def wrapper(matrix, *args, **kwargs):
            (inside if depth[0] else outside).append((fn.__name__, len(matrix)))
            return fn(matrix, *args, **kwargs)
        return wrapper

    for module_name, attr in EIGENSOLVE_LAYERS:
        _patch_everywhere(monkeypatch, module_name, attr, enclose)
    monkeypatch.setattr(scipy.linalg, "eigh", record(scipy.linalg.eigh))
    config = PERFBENCH / "configs" / f"{workload}.ini"
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert outside == []
    # every perpendicular solve is a dense one on the 111 unknowns of the mesh,
    # and the pillar spectra add the 127 of the radial meshes
    assert ("eigh", 111) in inside
    assert {name for name, _ in inside} == {"eigh"}
    if command != "ground-sweep":
        assert ("eigh", 127) in inside
