"""The benchmark's span tracer names neontrap functions by string and its
count hooks read their arguments by name, and its committed configs go
through the strict config parser; a rename, a signature change or a schema
change fails here rather than in a benchmark run.  Every eigensolve must
also run inside a traced eigensolve layer, and every table be formatted
inside the traced ResultTable.write, or its time would be charged to
whichever layer happens to enclose it."""

import functools
import importlib
import importlib.util
import inspect
import os
import re
import sys
from pathlib import Path

import pytest

import neontrap.perpendicular
from neontrap.cli import main
from neontrap.config import load_config
from neontrap.tables import ResultTable

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


# the traced layers that time eigensolves: every LAPACK call of an
# eigensolve of a spectral-element matrix, perpendicular or radial, must run
# inside one
EIGENSOLVE_LAYERS = [("neontrap.perpendicular", "solve_lowest"),
                     ("neontrap.lateral", "radial_spectrum")]
# those LAPACK calls: the dense evr solve, and the banded Rayleigh-quotient
# step and certificate of a warm-started ground state
EIGEN_LAPACK = ["dsyevr", "dgbsv", "dpbtrf"]
BANDED = {"dgbsv", "dpbtrf"}


def _patch_everywhere(monkeypatch, module_name, attr, wrap):
    """Replace a function in every neontrap namespace that binds it, as the tracer does."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = wrap(original)
    for name, mod in list(sys.modules.items()):
        if name == "neontrap" or name.startswith("neontrap."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapped)


def _spy_eigen_lapack(monkeypatch, record):
    """Call record(name, args, result) after each call of an EIGEN_LAPACK routine."""
    lapack = neontrap.perpendicular.lapack
    for name in EIGEN_LAPACK:
        def wrapper(*args, _name=name, _fn=getattr(lapack, name), **kwargs):
            result = _fn(*args, **kwargs)
            record(_name, args, result)
            return result
        monkeypatch.setattr(lapack, name, wrapper)


@pytest.mark.parametrize("command, workload", [("ground-sweep", "ground_sweep"),
                                               ("lateral", "lateral_scan"),
                                               ("field-sweep", "field_sweep")])
def test_every_eigensolve_is_inside_a_traced_layer(monkeypatch, tmp_path, command, workload):
    assert set(EIGENSOLVE_LAYERS) <= {(m, a) for m, a, *_ in _layers()}
    layers, calls = [], []

    def enclose(attr):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                layers.append(attr)
                try:
                    return fn(*args, **kwargs)
                finally:
                    layers.pop()
            return wrapper
        return wrap

    def record(name, args, result):
        # the order of the system: dsyevr's matrix is square, the band
        # storage of dgbsv (its third argument) and dpbtrf has n columns
        matrix = args[2] if name == "dgbsv" else args[0]
        calls.append((name, matrix.shape[-1], set(layers)))

    for module_name, attr in EIGENSOLVE_LAYERS:
        _patch_everywhere(monkeypatch, module_name, attr, enclose(attr))
    _spy_eigen_lapack(monkeypatch, record)
    config = PERFBENCH / "configs" / f"{workload}.ini"
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    # radial_spectrum's solves, too, run inside solve_lowest
    assert all("solve_lowest" in inside for *_, inside in calls)
    # every perpendicular solve runs on the 90 unknowns of the mesh, and the
    # pillar spectra add solves on the 127 of the radial meshes; the curves'
    # ground states and the radial states chained to a spectrum on the same
    # mesh take the banded path
    names = {name for name, *_ in calls}
    assert ("dsyevr", 90) in {(name, n) for name, n, _ in calls}
    if command == "ground-sweep":
        assert names == {"dsyevr"}
    else:
        assert names == {"dsyevr"} | BANDED
        assert ("dsyevr", 127) in {(name, n) for name, n, _ in calls}
        assert {n for name, n, _ in calls if name in BANDED} == {90, 127}


@pytest.mark.parametrize("command, workload, n_curves, n_solves",
                         [("lateral", "lateral_scan", 1, 17),
                          ("field-sweep", "field_sweep", 5, 69)])
def test_one_dense_solve_per_energy_curve(monkeypatch, tmp_path, command, workload,
                                          n_curves, n_solves):
    # each curve's first node is solved dense and every later node is refined
    # from its neighbour and certified: a certificate that always failed would
    # keep every output right and lose the warm start's gain
    curves, solving = [], [False]

    def enclose_curve(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            curves.append([])
            return fn(*args, **kwargs)
        return wrapper

    def enclose_solve(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            curves[-1].append([])
            solving[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                solving[0] = False
        return wrapper

    def record(name, args, result):
        if solving[0]:
            curves[-1][-1].append((name, result[-1]))  # each routine returns info last

    _patch_everywhere(monkeypatch, "neontrap.lateral", "build_energy_curve", enclose_curve)
    _patch_everywhere(monkeypatch, "neontrap.perpendicular", "ground_state_energy",
                      enclose_solve)
    _spy_eigen_lapack(monkeypatch, record)
    config = PERFBENCH / "configs" / f"{workload}.ini"
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(curves) == n_curves and sum(map(len, curves)) == n_solves
    for first, *rest in curves:
        assert first == [("dsyevr", 0)]
        for solve in rest:
            names = [name for name, _ in solve]
            assert "dsyevr" not in names and "dgbsv" in names
            assert [c for c in solve if c[0] == "dpbtrf"] == [("dpbtrf", 0)]


@pytest.mark.parametrize("command, workload, n_dense, n_spectra",
                         [("lateral", "lateral_scan", 10, 15),
                          ("field-sweep", "field_sweep", 2, 4)])
def test_radial_spectra_chain_on_their_mesh(monkeypatch, tmp_path, command, workload,
                                            n_dense, n_spectra):
    # the first spectrum on each radial mesh (one per R) solves its two alphas
    # dense; every later one refines each alpha from the spectrum before it
    radial = []

    def record(name, args, result):
        # dsyevr's matrix and dpbtrf's band have the 127 columns of the radial meshes
        if name != "dgbsv" and args[0].shape[-1] == 127:
            radial.append((name, result[-1]))

    _spy_eigen_lapack(monkeypatch, record)
    config = PERFBENCH / "configs" / f"{workload}.ini"
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert radial.count(("dsyevr", 0)) == n_dense
    assert radial.count(("dpbtrf", 0)) == 2 * n_spectra - n_dense
    assert len(radial) == 2 * n_spectra


@pytest.mark.parametrize("command, workload, n_tables", [("ground-sweep", "ground_sweep", 1),
                                                         ("lateral", "lateral_scan", 16),
                                                         ("field-sweep", "field_sweep", 1)])
def test_every_table_byte_is_formatted_inside_write(monkeypatch, tmp_path, command, workload,
                                                    n_tables):
    # tables.write.busy_s times the formatting of the tables only if the
    # tables reach ResultTable.write unformatted and are formatted in it
    depth, written, outside = [0], {}, []
    write = ResultTable.write

    def traced_write(self, path, fmt="csv"):
        depth[0] += 1
        try:
            write(self, path, fmt)
        finally:
            depth[0] -= 1
        written[path] = (os.path.getsize(path), {type(v) for row in self.rows for v in row})

    def record(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not depth[0]:
                outside.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ResultTable, "write", traced_write)
    for name in ("to_csv", "to_json"):
        monkeypatch.setattr(ResultTable, name, record(getattr(ResultTable, name)))
    config = PERFBENCH / "configs" / f"{workload}.ini"
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    assert outside == []
    tables = {str(p) for p in tmp_path.iterdir() if not p.name.endswith(".effective.ini")}
    assert set(written) == tables and len(tables) == n_tables
    assert sum(size for size, _ in written.values()) == sum(
        os.path.getsize(p) for p in tables)
    # a str cell would be text formatted before write
    assert set().union(*(types for _, types in written.values())) <= {float, int, bool}
