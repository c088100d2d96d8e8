"""Config parsing, result tables, and the sweep CLI end to end."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neontrap
import neontrap.cli
import neontrap.config
import neontrap.lateral
import neontrap.perpendicular
from neontrap.cli import main
from neontrap.config import ConfigError, RunConfig, _emit_value, _quantity, load_config
from neontrap.dielectric import (Dielectric, DielectricStack, Superconductor,
                                 total_perpendicular_potential)
from neontrap.tables import FLOAT_FMT, ResultTable, format_value

FAST_GRID = """\
[grid]
n_points = 4096
z_max = 40 nm
z_samples = 50
n_points_radial = 4096
"""

# sets every config key to a value other than its default
EVERY_KEY = """\
[substrate]
type = dielectric
eps_b = 4.5

[constants]
eps_neon = 1.3
barrier_height = 650 meV
cutoff_zc = 0.25 nm

[grid]
n_points = 4000
z_max = 35 nm
z_samples = 120
rho_max = 333 nm
n_points_radial = 5000

[sweep]
L = 5 nm, inf
E_ex = -1e6 V/m, 2e5 V/m
L0 = 12 nm
delta_L = 0.3 nm, 1 nm
R = 70 nm, 90 nm
b = 3 nm
alpha_max = 2

[growth]
r_c = 20 nm
diffusion_time = 2e-05 s
delta_h = 10 nm

[output]
path = every.json
format = json

[parallel]
threads = 3
"""

BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"
# config_sha256 of the default config (None) and of each committed benchmark config
PINNED_DIGESTS = {None: "1c75e516190998e7", "ground_sweep.ini": "8d3d999eef243288",
                  "lateral_scan.ini": "6c92c718b90a0e66", "field_sweep.ini": "35128a4247596d9e"}
# tables of the benchmark configs, written by `neontrap <command> --config
# perfbench/configs/<name>.ini`; README, Tests, says how to regenerate them
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_TABLES = [("ground_sweep.csv", "ground_sweep.ini"),
                 ("lateral_scan_spectrum.csv", "lateral_scan.ini"),
                 ("field_sweep.csv", "field_sweep.ini")]


def csv_cell_by_cell(table: ResultTable) -> str:
    """Reference CSV: every cell through format_value."""
    lines = [f"# {k}={v}" for k, v in sorted(table.metadata.items())]
    lines.append(",".join(f"{name}[{unit}]" for name, unit in table.columns))
    lines += [",".join(format_value(v) for v in row) for row in table.rows]
    return "\n".join(lines) + "\n"


def json_cell_by_cell(table: ResultTable) -> str:
    """Reference JSON: floats rounded as in the CSV, NaN null, +-inf as their CSV text."""
    def norm(v):
        if isinstance(v, float):
            if math.isnan(v):
                return None
            if math.isinf(v):
                return format_value(v)
            return float(FLOAT_FMT % v)
        return v
    doc = {"metadata": {k: table.metadata[k] for k in sorted(table.metadata)},
           "columns": [{"name": n, "unit": u} for n, u in table.columns],
           "rows": [[norm(v) for v in row] for row in table.rows]}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e-300,
                                         math.inf, -math.inf, math.nan])
CELLS = [FLOATS, FLOATS.map(np.float64), st.booleans(), st.integers(), st.text()]


@st.composite
def cell_tables(draw):
    """Tables whose columns each hold one cell type, or any mix of them."""
    kinds = draw(st.lists(st.sampled_from(CELLS + [st.one_of(CELLS)]), max_size=5))
    return ResultTable(columns=[(f"c{i}", "") for i in range(len(kinds))],
                       rows=draw(st.lists(st.tuples(*kinds), max_size=12)),
                       metadata=draw(st.dictionaries(st.text(), st.text(), max_size=3)))


def drop_last_row(text: str) -> str:
    return text[:text.rstrip("\n").rindex("\n") + 1]


def edit_first_row(text: str, edit) -> str:
    """text with the cells of its first data row replaced by edit(cells)."""
    lines = text.splitlines(keepends=True)
    row = [i for i, line in enumerate(lines) if not line.startswith("#")][1]
    lines[row] = ",".join(edit(lines[row].rstrip("\n").split(","))) + "\n"
    return "".join(lines)


def drop_metadata(text: str, key: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(f"# {key}="))


def rename_first_column(text: str) -> str:
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[header] = "renamed" + lines[header][lines[header].index("["):]
    return "".join(lines)


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


class TestQuantities:
    def test_parse_with_unit(self):
        assert _quantity("10 nm", "nm") == 10.0
        assert _quantity("-2.5e6 V/m", "V/m") == -2.5e6

    def test_inf_sentinel(self):
        assert _quantity("inf", "nm") == math.inf
        assert _emit_value("float", "nm", math.inf) == "inf"

    def test_missing_unit_rejected(self):
        with pytest.raises(ValueError):
            _quantity("10", "nm")

    def test_wrong_unit_rejected(self):
        with pytest.raises(ValueError):
            _quantity("10 um", "nm")

    def test_dimensionless_must_be_bare(self):
        assert _quantity("1.244", None) == 1.244
        with pytest.raises(ValueError):
            _quantity("1.244 nm", None)

    def test_round_trip_lossless(self):
        for v in (0.23, 1.0 / 3.0, -44.3726, 9.12805346, 0.1 + 0.2):
            assert _quantity(_emit_value("float", "nm", v), "nm") == v
            assert _quantity(_emit_value("float", None, v), None) == v


class TestResultTable:
    def test_format_value(self):
        assert format_value(True) == "1"
        assert format_value(False) == "0"
        assert format_value(float("nan")) == "nan"
        assert format_value(-44.37264) == "-4.43726400e+01"
        assert format_value(3) == "3"

    def test_csv_round_trip(self):
        t = ResultTable(columns=[("L", "nm"), ("W_G", "meV"), ("bound", "")],
                        metadata={"command": "demo"})
        t.add_row(10.0, -44.3726, True)
        t.add_row(math.inf, float("nan"), False)
        back = ResultTable.from_csv(t.to_csv())
        assert back.columns == [("L", "nm"), ("W_G", "meV"), ("bound", "")]
        assert back.metadata["command"] == "demo"
        assert back.rows[0][0] == 10.0
        assert back.rows[0][1] == pytest.approx(-44.3726, rel=1e-8)
        assert math.isnan(back.rows[1][1])

    def test_row_arity_checked(self):
        t = ResultTable(columns=[("a", ""), ("b", "")])
        with pytest.raises(ValueError):
            t.add_row(1.0)

    def test_from_csv_skips_blank_lines(self):
        t = ResultTable(columns=[("a", ""), ("b", "nm")], metadata={"k": "v"})
        t.add_row(1.0, 2.0)
        t.add_row(3.0, 4.0)
        back = ResultTable.from_csv(t.to_csv().replace("\n", "\n\n  \n"))
        assert (back.columns, back.rows, back.metadata) == (t.columns, t.rows, t.metadata)

    def test_json_mirrors_schema(self):
        t = ResultTable(columns=[("z", "nm")], metadata={"command": "demo"})
        t.add_row(1.5)
        doc = json.loads(t.to_json())
        assert doc["columns"] == [{"name": "z", "unit": "nm"}]
        assert doc["metadata"]["command"] == "demo"
        assert doc["rows"] == [[1.5]]

    def test_json_is_strict_with_inf_and_nan(self):
        t = ResultTable(columns=[("L", "nm"), ("W_G", "meV")])
        t.add_row(math.inf, -44.3726)
        t.add_row(-math.inf, math.nan)
        doc = json.loads(t.to_json(), parse_constant=reject_constant)
        assert doc["rows"] == [["inf", -44.3726], ["-inf", None]]

    @given(cell_tables())
    def test_csv_and_json_equal_cell_by_cell(self, table):
        assert table.to_csv() == csv_cell_by_cell(table)
        assert table.to_json() == json_cell_by_cell(table)

    def test_add_row_takes_numpy_scalars_as_python_ones(self):
        columns = [("flag", ""), ("n", ""), ("x", "")]
        plain, numpy_cells = ResultTable(columns=columns), ResultTable(columns=columns)
        plain.add_row(False, 3, 1.5)
        numpy_cells.add_row(np.False_, np.int64(3), np.float64(1.5))
        assert numpy_cells.to_csv() == plain.to_csv()
        assert numpy_cells.to_json() == plain.to_json()

    def test_add_columns_equals_add_row_per_sample(self):
        rho = np.linspace(0.5, 200.0, 400)
        columns = (rho, np.tanh(rho - 50.0), -1e-3 / rho, np.arange(400), rho > 100.0)
        by_column = ResultTable(columns=[(c, "") for c in "abcde"])
        by_column.add_columns(*columns)
        by_row = ResultTable(columns=by_column.columns)
        for i in range(rho.size):
            by_row.add_row(*(c[i].item() for c in columns))
        assert by_column.rows == by_row.rows
        assert by_column.to_csv() == by_row.to_csv() == csv_cell_by_cell(by_row)

    @pytest.mark.parametrize("columns", [
        (np.ones(3),),  # one column short
        (np.ones(3), np.ones(3), np.ones(3)),  # one column over
        (np.ones(3), np.ones(4)),  # unequal lengths
        (np.ones((3, 1)), np.ones((3, 1))),  # not 1-D
        (1.0, 2.0),
    ], ids=["short", "over", "lengths", "2d", "scalars"])
    def test_add_columns_checks_arity_and_shape(self, columns):
        t = ResultTable(columns=[("a", ""), ("b", "")])
        with pytest.raises(ValueError):
            t.add_columns(*columns)
        assert t.rows == []


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.L == [10.0] and cfg.eps_neon == 1.244

    def test_full_parse(self, tmp_path):
        path = write_config(tmp_path, FAST_GRID + """
[sweep]
L = 5 nm, 10 nm, inf
E_ex = -1e6 V/m, 0 V/m, 1e6 V/m
""")
        cfg = load_config(path)
        assert cfg.L == [5.0, 10.0, math.inf]
        assert cfg.E_ex == [-1e6, 0.0, 1e6]
        assert cfg.z_max == 40.0 and cfg.z_samples == 50

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[plumbing]\nvalve = 3\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[sweep]\nwidth = 3 nm\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_keys_case_sensitive(self, tmp_path):
        path = write_config(tmp_path, "[sweep]\nl = 10 nm\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_missing_unit_rejected(self, tmp_path):
        path = write_config(tmp_path, "[sweep]\nL = 10\n")
        with pytest.raises(ConfigError, match=r"\[sweep\] L"):
            load_config(path)

    def test_semantic_validation(self, tmp_path):
        path = write_config(tmp_path, "[sweep]\nL0 = 5 nm\ndelta_L = 6 nm\n")
        with pytest.raises(ConfigError, match="delta_L"):
            load_config(path)

    def test_retired_keys_parse_and_are_dropped(self, tmp_path, capsys):
        # [grid] n_points, [grid] n_points_radial, [parallel] threads and
        # [sweep] n_knots change no number: old configs carrying them load,
        # and they are neither echoed nor hashed, as the output destination
        # is not hashed
        body = "[sweep]\nL = 12 nm\n"
        plain = load_config(write_config(tmp_path, body, "plain.ini"))
        for n_knots in (20, 60):
            capped = load_config(write_config(tmp_path, body + f"n_knots = {n_knots}\n",
                                              f"knots{n_knots}.ini"))
            assert capped == plain
            assert capped.effective_text() == plain.effective_text()
            assert capped.config_hash() == plain.config_hash()
        retired = load_config(write_config(
            tmp_path, body + "[grid]\nn_points = 100\nn_points_radial = 7\n"
            "[parallel]\nthreads = -1\n[output]\npath = b.json\nformat = json\n",
            "retired.ini"))
        assert dataclasses.replace(retired, out_path="out.csv", out_format="csv") == plain
        assert retired.effective_text() == plain.effective_text().replace(
            "out.csv\nformat = csv", "b.json\nformat = json")
        assert retired.config_hash() == plain.config_hash() != RunConfig().config_hash()
        # nothing reads --threads either, so a negative count runs
        out = tmp_path / "out"
        out.mkdir()
        assert main(["growth", "--threads", "-1", "--out", str(out / "g.csv")]) == 0
        # a retired key must still be an integer
        for bad in ("[grid]\nn_points = many\n", "[parallel]\nthreads = x\n",
                    "[sweep]\nn_knots = x\n"):
            path = write_config(tmp_path, bad, "bad.ini")
            assert main(["growth", "--config", path, "--out", str(tmp_path / "g.csv")]) == 2
            assert "expected an integer" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bad.ini", "knots20.ini", "knots60.ini", "out", "plain.ini", "retired.ini"]

    @pytest.mark.parametrize("body", [
        "",
        "[substrate]\ntype = dielectric\neps_b = 12\n[sweep]\nL = inf\n",
    ], ids=["default", "dielectric_bulk"])
    def test_effective_config_loads_back(self, tmp_path, body):
        cfg_path = write_config(tmp_path, body)
        out = tmp_path / "g.csv"
        assert main(["growth", "--config", cfg_path, "--out", str(out)]) == 0
        echoed = load_config(str(tmp_path / "g.effective.ini"))
        assert echoed.rho_max is None
        assert echoed.config_hash() == load_config(cfg_path).config_hash()


    def test_every_key_round_trips_through_echo(self, tmp_path):
        cfg = load_config(write_config(tmp_path, EVERY_KEY))
        default = RunConfig()
        for f in dataclasses.fields(RunConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        echoed = load_config(write_config(tmp_path, cfg.effective_text(), "echo.ini"))
        assert echoed == cfg
        assert echoed.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize("kwargs, rounded", [
        ({"L": [0.1 + 0.2, 10.123456789012], "b": 2.0000000001},
         {"L": [0.3, 10.1234568], "b": 2.0}),
        ({"E_ex": [1 / 3]}, {"E_ex": [0.333333333]}),
        ({"eps_neon": 1.2440000001}, {"eps_neon": 1.244}),
    ], ids=["L_and_b", "E_ex", "eps_neon"])
    def test_echo_is_exact_past_nine_digits(self, tmp_path, kwargs, rounded):
        # a value that 9 digits do not hold is echoed in full: it reloads
        # equal, and its config hashes apart from the 9-digit-rounded one
        cfg = RunConfig(**kwargs)
        assert load_config(write_config(tmp_path, cfg.effective_text())) == cfg
        assert RunConfig(**rounded).config_hash() != cfg.config_hash()

    def test_every_field_declares_one_key(self):
        # each RunConfig field is its own schema entry: a section, a kind
        # that _parse_value reads, and a (section, key) no other field takes
        fields = dataclasses.fields(RunConfig)
        for f in fields:
            assert isinstance(f.metadata.get("section"), str), f.name
            kind = f.metadata.get("kind")
            assert (kind in ("float", "float_or_auto", "float_list", "int", "str")
                    or isinstance(kind, tuple) and all(isinstance(c, str) for c in kind)), f.name
        keys = [(f.metadata["section"], f.metadata["key"] or f.name) for f in fields]
        assert len(set(keys)) == len(fields)
        assert [f.name for f in neontrap.config._FIELDS.values()] == [f.name for f in fields]

    @pytest.mark.parametrize("config, digest", PINNED_DIGESTS.items(),
                             ids=["default", "ground_sweep", "lateral_scan", "field_sweep"])
    def test_config_hash_pinned(self, config, digest):
        cfg = RunConfig() if config is None else load_config(str(BENCH_CONFIGS / config))
        assert cfg.config_hash() == digest

    def test_perpendicular_n_points_parses_and_is_ignored(self, tmp_path):
        # [grid] n_points still loads, so older configs run, but sizes nothing:
        # the perpendicular mesh is fixed
        rows = []
        for n in (8192, 100):
            cfg = write_config(tmp_path, f"[grid]\nn_points = {n}\n"
                               "[sweep]\nL = 1 nm, 10 nm\nE_ex = 0 V/m, 1e6 V/m\n")
            out = tmp_path / f"g{n}.csv"
            assert main(["ground-sweep", "--config", cfg, "--out", str(out)]) == 0
            rows.append(ResultTable.from_csv(out.read_text()).rows)
        assert rows[0] == rows[1]

    def test_default_section_rejected(self, tmp_path, capsys):
        # configparser would hand [DEFAULT] keys to every section, or to none
        path = write_config(tmp_path, "[DEFAULT]\nL = 5 nm\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            load_config(path)
        assert main(["ground-sweep", "--config", path, "--out", str(tmp_path / "g.csv")]) == 2
        assert "[DEFAULT]" in capsys.readouterr().err

    @pytest.mark.parametrize("name, key", [("L", r"\[sweep\] L"), ("E_ex", r"\[sweep\] E_ex"),
                                           ("delta_L", r"\[sweep\] delta_L"),
                                           ("R", r"\[sweep\] R"), ("r_c", r"\[growth\] r_c")])
    def test_empty_list_is_config_error(self, name, key):
        # a config file cannot give an empty list, but Python can
        with pytest.raises(ConfigError, match=key + " needs at least one value"):
            RunConfig(**{name: []})

    @pytest.mark.parametrize("kwargs, body, message", [
        ({"b": math.nan}, "[sweep]\nb = nan nm\n", "[sweep] b: expected a finite value"),
        ({"R": [math.nan]}, "[sweep]\nR = nan nm\n", "[sweep] R: expected a finite value"),
        ({"R": [math.inf]}, "[sweep]\nR = inf\n", "[sweep] R: expected a finite value"),
        ({"b": math.inf}, "[sweep]\nb = inf\n", "[sweep] b: expected a finite value"),
        ({"rho_max": math.nan}, "[grid]\nrho_max = nan nm\n",
         "[grid] rho_max: expected a finite value"),
        ({"rho_max": math.inf}, "[grid]\nrho_max = inf\n",
         "[grid] rho_max: expected a finite value"),
        ({"r_c": [math.nan]}, "[growth]\nr_c = nan nm\n", "[growth] r_c: expected a finite value"),
        ({"diffusion_time": math.nan}, "[growth]\ndiffusion_time = nan s\n",
         "[growth] diffusion_time: expected a finite value"),
        ({"delta_h": math.nan}, "[growth]\ndelta_h = nan nm\n",
         "[growth] delta_h: expected a finite value"),
        ({"E_ex": [math.nan]}, "[sweep]\nE_ex = nan V/m\n", "[sweep] E_ex: expected a finite value"),
        ({"alpha_max": 1.5}, "[sweep]\nalpha_max = 1.5\n", "[sweep] alpha_max: expected an integer"),
        ({"z_samples": 2.5}, "[grid]\nz_samples = 2.5\n", "[grid] z_samples: expected an integer"),
        ({"substrate_type": "metal"}, "[substrate]\ntype = metal\n",
         "[substrate] type: expected one of ('superconductor', 'dielectric')"),
        ({"out_format": "xml"}, "[output]\nformat = xml\n",
         "[output] format: expected one of ('csv', 'json')"),
    ], ids=["b_nan", "R_nan", "R_inf", "b_inf", "rho_max_nan", "rho_max_inf", "r_c_nan",
            "diffusion_time_nan", "delta_h_nan", "E_ex_nan", "alpha_max_float",
            "z_samples_float", "unknown_substrate", "unknown_format"])
    def test_kind_rule_in_python(self, tmp_path, kwargs, body, message):
        # a RunConfig made in Python meets each key's kind rule, with the
        # message that a config file carrying the same value gets
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig(**kwargs)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(write_config(tmp_path, body))

    @settings(max_examples=60, deadline=None)
    @given(st.fixed_dictionaries({}, optional={
        "substrate_type": st.sampled_from(["superconductor", "dielectric", "metal"]),
        "eps_b": st.floats(1.0, 1e3) | st.floats(),
        "z_samples": st.integers(1, 500) | st.sampled_from([0, 2.5, True]),
        "rho_max": st.none() | st.floats(1.0, 1e3) | st.floats(),
        "L": st.lists(st.floats(1.0, 1e3) | st.floats(), min_size=1, max_size=3),
        "E_ex": st.lists(st.floats(-1e7, 1e7) | st.floats(), min_size=1, max_size=3),
        "b": st.floats(1.0, 1e3) | st.floats(),
        "alpha_max": st.integers(1, 4) | st.sampled_from([0, 1.5, False]),
        "out_format": st.sampled_from(["csv", "json", "xml"]),
    }))
    def test_every_config_that_builds_loads_from_its_echo(self, kwargs):
        # whatever RunConfig accepts, its echo loads back: the same echo, so
        # the same hash
        try:
            cfg = RunConfig(**kwargs)
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            echoed = load_config(write_config(Path(tmp), cfg.effective_text()))
        assert echoed.effective_text() == cfg.effective_text()
        assert echoed.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize("z_max", [math.inf, math.nan])
    def test_box_rule_in_python(self, z_max):
        # inf and nan break z_max's kind rule, in Python as in a config file,
        # before the solver mesh sees them
        with pytest.raises(ConfigError):
            RunConfig(z_max=z_max)

    def test_curve_span_rule_in_python(self):
        # a pillar whose energy curve would leave [1, 200] nm is refused where
        # the config is built, with lateral.curve_range's message
        with pytest.raises(ConfigError, match=r"energy curve over \[0.2, 1.7\] nm"):
            RunConfig(L0=1.2, delta_L=[0.5])

    def test_stack_is_the_configured_layer(self):
        cfg = RunConfig(substrate_type="dielectric", eps_b=4.5, eps_neon=1.3,
                        barrier_height=600.0, cutoff_zc=0.2)
        assert cfg.stack(7.0, 1e6) == DielectricStack(
            Dielectric(4.5), 7.0, eps_neon=1.3, barrier_height=600.0, cutoff_zc=0.2, e_ex=1e6)
        assert RunConfig().stack(math.inf) == DielectricStack(Superconductor(), math.inf)
        # a rule the stack refuses is a config error with the stack's message
        with pytest.raises(ConfigError, match=r"bulk neon \(L = inf\) needs E_ex = 0 V/m"):
            cfg.stack(math.inf, 1e6)
        with pytest.raises(ConfigError, match="eps_neon must exceed 1"):
            dataclasses.replace(cfg, eps_neon=0.5)


class TestCliEndToEnd:
    def test_growth_at_zero_diffusion_time_writes_zero_length(self, tmp_path):
        cfg = write_config(tmp_path, "[growth]\ndiffusion_time = 0 s\n")
        out = tmp_path / "growth.csv"
        assert main(["growth", "--config", cfg, "--out", str(out)]) == 0
        table = ResultTable.from_csv(out.read_text())
        values = dict(zip(table.column("quantity"), table.column("value")))
        assert values["diffusion_length_t_0s"] == 0.0

    def test_growth_rows_name_their_inputs_exactly(self, tmp_path):
        # two radii that share six digits name two rows, each its own radius
        cfg = write_config(tmp_path, "[growth]\nr_c = 10.000001 nm, 10.000002 nm\n"
                           "diffusion_time = 1.0000001e-05 s\n")
        out = tmp_path / "growth.csv"
        assert main(["growth", "--config", cfg, "--out", str(out)]) == 0
        assert ResultTable.from_csv(out.read_text()).column("quantity")[1:4] == [
            "gibbs_thomson_shift_rc_10.000001nm", "gibbs_thomson_shift_rc_10.000002nm",
            "diffusion_length_t_1.0000001e-05s"]

    def test_growth_runs(self, tmp_path):
        out = tmp_path / "growth.csv"
        assert main(["growth", "--out", str(out)]) == 0
        table = ResultTable.from_csv(out.read_text())
        assert table.metadata["command"] == "growth"
        names = table.column("quantity")
        assert "gibbs_thomson_coefficient" in names
        row = table.rows[names.index("gibbs_thomson_coefficient")]
        assert row[1] == pytest.approx(9.128, abs=0.01)
        assert (tmp_path / "growth.effective.ini").exists()

    def test_ground_sweep_values_and_order(self, tmp_path):
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nL = 10 nm, 5 nm\nE_ex = 0 V/m\n")
        out = tmp_path / "sweep.csv"
        assert main(["ground-sweep", "--config", cfg, "--out", str(out)]) == 0
        table = ResultTable.from_csv(out.read_text())
        ls = table.column("L")
        assert ls == sorted(ls)  # rows emitted in sorted (L, E) order
        w10 = table.rows[ls.index(10.0)][2]
        assert w10 == pytest.approx(-44.6, abs=1.0)
        assert all(b == 1.0 for b in table.column("bound"))

    def test_unbound_row_flagged_not_dropped(self, tmp_path):
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nL = 10 nm\nE_ex = -5e6 V/m\n")
        out = tmp_path / "sweep.csv"
        assert main(["ground-sweep", "--config", cfg, "--out", str(out)]) == 0
        table = ResultTable.from_csv(out.read_text())
        assert len(table.rows) == 1
        assert table.column("bound") == [0.0]
        assert math.isnan(table.rows[0][2])

    def test_ground_sweep_bound_reads_both_states(self, tmp_path):
        # a row prints the gap from state 1, so bound needs state 1 off the
        # outer wall too.  At (200 nm, -1e5 V/m) only state 1 leaks, and the
        # gap a state-0 verdict let through followed the box (11.786 meV at
        # z_max = 40 nm, 9.410 meV at 80 nm); (50 nm, -3e5 V/m) was bound at
        # 40 nm and flagged at 80 nm.  Every flag now holds in both boxes, and
        # the 10 nm rows' gaps do not depend on the box
        flags, gaps = [], []
        for z_max in (40, 80):
            cfg = write_config(tmp_path, f"[grid]\nz_max = {z_max} nm\n"
                               "[sweep]\nL = 10 nm, 50 nm, 200 nm\nE_ex = -3e5 V/m, -1e5 V/m\n")
            out = tmp_path / f"sweep{z_max}.csv"
            assert main(["ground-sweep", "--config", cfg, "--out", str(out)]) == 0
            table = ResultTable.from_csv(out.read_text())
            flags.append(table.column("bound"))
            gaps.append(np.array(table.column("gap")))
        assert flags[0] == flags[1] == [1.0, 1.0, 0.0, 1.0, 0.0, 0.0]
        np.testing.assert_allclose(gaps[1][:2], gaps[0][:2], rtol=1e-7, atol=0.0)
        flagged = np.array(flags[0]) == 0.0
        assert np.all(np.isnan(gaps[0][flagged])) and np.all(np.isnan(gaps[1][flagged]))

    def test_ground_sweep_solves_on_the_constants_section(self, tmp_path):
        # every [constants] key off its default: each row is the solve on the
        # stack that carries them, as printed
        cfg = write_config(tmp_path, FAST_GRID + "[constants]\neps_neon = 1.3\n"
                           "barrier_height = 650 meV\ncutoff_zc = 0.25 nm\n"
                           "[sweep]\nL = 2 nm, 10 nm\nE_ex = 0 V/m, 1e6 V/m\n")
        out = tmp_path / "sweep.csv"
        assert main(["ground-sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        want = []
        for L, e_ex in ((2.0, 0.0), (2.0, 1e6), (10.0, 0.0), (10.0, 1e6)):
            stack = DielectricStack(Superconductor(), L, eps_neon=1.3, barrier_height=650.0,
                                    cutoff_zc=0.25, e_ex=e_ex)
            sol = neontrap.perpendicular.solve_perpendicular(stack, n_states=2)
            want.append([FLOAT_FMT % v for v in (
                sol.energies[0], neontrap.perpendicular.mean_height(sol),
                neontrap.perpendicular.perpendicular_gap(sol))])
        assert [row[2:5] for row in rows] == want

    def test_potential_z_one_file_per_thickness(self, tmp_path):
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nL = 5 nm, inf\n")
        out = tmp_path / "pot.csv"
        assert main(["potential-z", "--config", cfg, "--out", str(out)]) == 0
        assert (tmp_path / "pot_L5.csv").exists()
        assert (tmp_path / "pot_Linf.csv").exists()
        table = ResultTable.from_csv((tmp_path / "pot_L5.csv").read_text())
        z = table.column("z")
        v = table.column("V_total")
        assert z[0] == pytest.approx(0.23, rel=1e-6)
        assert all(a < 0.0 for a in v)

    @pytest.mark.parametrize("body, substrate, e_ex, n_files", [
        ("[substrate]\ntype = dielectric\neps_b = 12\n"
         "[sweep]\nL = 1 nm, 10 nm\nE_ex = -1e6 V/m\n", Dielectric(12.0), -1e6, 2),
        ("[sweep]\nL = inf\nE_ex = 0 V/m\n", Superconductor(), 0.0, 1)],
        ids=["eps12_field", "bulk"])
    def test_potential_z_columns(self, tmp_path, monkeypatch, body, substrate, e_ex, n_files):
        # V_total prints as the public total_perpendicular_potential on the
        # same z, which from cutoff_zc on is V_perp + V_ex exactly
        tables = {}
        write = ResultTable.write

        def keep(table, path, fmt="csv"):
            tables[path] = table
            write(table, path, fmt)

        monkeypatch.setattr(ResultTable, "write", keep)
        cfg = write_config(tmp_path, FAST_GRID + body)
        assert main(["potential-z", "--config", cfg, "--out", str(tmp_path / "pot.csv")]) == 0
        assert len(tables) == n_files
        for path, table in tables.items():
            z, v_perp, v_ex, v_total = (table.column(c)
                                        for c in ("z", "V_perp", "V_ex", "V_total"))
            assert len(z) == 50
            assert all(t == p + e for p, e, t in zip(v_perp, v_ex, v_total))
            assert all((e != 0.0) == (e_ex != 0.0) for e in v_ex)
            stack = DielectricStack(substrate, float(table.metadata["L_nm"]), e_ex=e_ex)
            want = total_perpendicular_potential(stack, np.array(z))
            rows = [line.split(",") for line in Path(path).read_text().splitlines()
                    if not line.startswith("#")][1:]
            assert [row[3] for row in rows] == [FLOAT_FMT % v for v in want]

    def test_potential_z_bulk_at_nonzero_field_exits_2(self, tmp_path, capsys):
        # the stack states the rule; every stack is built before the first table
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nL = 5 nm, inf\nE_ex = 1e6 V/m\n")
        out = tmp_path / "pot.csv"
        assert main(["potential-z", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bulk neon (L = inf)" in err and "1e+06 V/m" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

    @pytest.mark.parametrize("command", ["potential-z", "lateral"])
    def test_single_field_commands_reject_extra_fields(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nL = 5 nm\nE_ex = 0 V/m, 1e6 V/m\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "exactly one E_ex" in capsys.readouterr().err

    def test_json_output(self, tmp_path):
        out = tmp_path / "growth.json"
        assert main(["growth", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["command"] == "growth"

    def test_json_bulk_row_is_strict_json(self, tmp_path):
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nL = 5 nm, inf\nE_ex = 0 V/m\n")
        out = tmp_path / "sweep.json"
        assert main(["ground-sweep", "--config", cfg, "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=reject_constant)
        assert [row[0] for row in doc["rows"]] == [5.0, "inf"]
        assert all(row[-1] is True for row in doc["rows"])

    def test_bad_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "[sweep]\nL = ten nm\n")
        assert main(["growth", "--config", cfg]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["growth", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_verify_round_trip_and_tamper(self, tmp_path):
        out = tmp_path / "growth.csv"
        assert main(["growth", "--out", str(out)]) == 0
        fresh = tmp_path / "fresh.csv"
        assert main(["verify", str(out), "--out", str(fresh)]) == 0
        text = out.read_text().replace("9.12805346e+00", "9.22805346e+00")
        out.write_text(text)
        assert main(["verify", str(out), "--out", str(fresh)]) == 3

    def test_verify_nan_on_one_side_exits_3(self, tmp_path, capsys):
        out = tmp_path / "growth.csv"
        assert main(["growth", "--out", str(out)]) == 0
        out.write_text(out.read_text().replace("9.12805346e+00", "nan"))
        assert main(["verify", str(out), "--out", str(tmp_path / "fresh.csv")]) == 3
        assert "nan vs 9.12805346" in capsys.readouterr().err

    @pytest.mark.parametrize("rtol", ["nan", "inf", "-1"])
    def test_verify_bad_rtol_exits_2(self, tmp_path, capsys, monkeypatch, rtol):
        out = tmp_path / "growth.csv"
        assert main(["growth", "--out", str(out)]) == 0
        out.write_text(out.read_text().replace("9.12805346e+00", "9.99999999e+99"))

        def regenerate(cfg):
            raise AssertionError("verify regenerated a table despite a bad --rtol")

        monkeypatch.setitem(neontrap.cli._COMMANDS, "growth", regenerate)
        assert main(["verify", str(out), "--out", str(tmp_path / "fresh.csv"),
                     "--rtol", rtol]) == 2
        assert "--rtol must be finite and >= 0" in capsys.readouterr().err

    def test_verify_keeps_stored_file_at_default_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["growth"]) == 0
        out = tmp_path / "out.csv"
        tampered = out.read_text().replace("9.12805346e+00", "9.22805346e+00")
        out.write_text(tampered)
        assert main(["verify", "out.csv"]) == 3
        assert out.read_text() == tampered

    def test_verify_compares_table_with_same_axes(self, tmp_path):
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nR = 60 nm, 110 nm\n")
        out = tmp_path / "lat.csv"
        assert main(["lateral", "--config", cfg, "--out", str(out)]) == 0
        stored = tmp_path / "lat_R110_dL0.5.csv"
        assert main(["verify", str(stored), "--config", cfg, "--out", str(out)]) == 0

    @pytest.mark.parametrize("command, body, names", [
        ("lateral", "[sweep]\nR = 110.00001 nm, 110.00002 nm\n",
         ["out_R110.00001_dL0.5.csv", "out_R110.00002_dL0.5.csv"]),
        ("potential-z", "[sweep]\nL = 10.000001 nm, 10.000002 nm\n",
         ["out_L10.000001.csv", "out_L10.000002.csv"]),
    ], ids=["lateral_R", "potential_z_L"])
    def test_axes_that_share_six_digits_get_their_own_files(self, tmp_path, command, body,
                                                           names):
        # a :g label keeps 6 digits, so these two pillars or layers would share
        # one file; an exact label keeps both tables, and each verifies
        cfg = write_config(tmp_path, FAST_GRID + body)
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        for name in names:
            assert main(["verify", str(tmp_path / name), "--config", cfg, "--out", str(out)]) == 0

    def test_verify_writes_nothing_and_stops_at_match(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nR = 60 nm, 110 nm\n")
        out = tmp_path / "lat.csv"
        assert main(["lateral", "--config", cfg, "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        writes, spectra = [], []
        write, spectrum = ResultTable.write, neontrap.cli.pillar_spectrum

        def counting_write(table, path, fmt="csv"):
            writes.append(path)
            write(table, path, fmt)

        def counting_spectrum(*args, **kwargs):
            spectra.append(args)
            return spectrum(*args, **kwargs)

        monkeypatch.setattr(ResultTable, "write", counting_write)
        monkeypatch.setattr(neontrap.cli, "pillar_spectrum", counting_spectrum)
        stored = tmp_path / "lat_R60_dL0.5.csv"
        assert main(["verify", str(stored), "--config", cfg, "--out", str(out)]) == 0
        assert writes == []
        # the R = 60 nm profile is the first table: no pillar spectrum is solved
        assert spectra == []
        assert list(scratch.iterdir()) == []
        scratch.rmdir()
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.fixture(scope="class")
    def field_sweep_table(self, tmp_path_factory):
        """A field-sweep table of three bound fields, with every fit metadata key."""
        tmp_path = tmp_path_factory.mktemp("field_sweep")
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nR = 110 nm\ndelta_L = 0.5 nm\n"
                           "E_ex = -1e5 V/m, 0 V/m, 1e5 V/m\n")
        out = tmp_path / "fs.csv"
        assert main(["field-sweep", "--config", cfg, "--out", str(out)]) == 0
        return cfg, out.read_text()

    @pytest.mark.parametrize("key, value, code", [
        (None, None, 0),
        ("harmonic_fit_max_residual_ueV", "9.9e+99", 3),
        ("asymmetry_ratio", "1.5", 3),
        ("curve_nodes", "33", 3),
        ("config_sha256", "0" * 16, 2),
        ("curve_validation_error_meV", lambda v: f"{2.0 * float(v):.6e}", 0),
        ("curve_validation_error_meV", "1e-03", 3),
    ], ids=["untampered", "fit_residual", "asymmetry", "curve_nodes", "zeroed_hash",
            "noise_curve_error_doubled", "curve_error_above_node_tol"])
    def test_verify_checks_metadata(self, tmp_path, capsys, field_sweep_table, key, value,
                                    code):
        cfg, text = field_sweep_table
        stored = ResultTable.from_csv(text)
        if key is not None:
            assert key in stored.metadata
            stored.metadata[key] = value(stored.metadata[key]) if callable(value) else value
        path = tmp_path / "stored.csv"
        stored.write(path)
        assert main(["verify", str(path), "--config", cfg, "--out", str(tmp_path / "x.csv")]) \
            == code
        if code:
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("fit, reason", [
        # Delta U^2 = 1 and 3 at 1e6 and 2e6 V/m extrapolate to -1 at zero field
        (lambda e_ex, du: neontrap.lateral.fit_harmonic_field_model([1e6, 2e6], [1.0, 3 ** 0.5]),
         "fit produced a negative zero-field stiffness"),
        # a model with no real Delta U at +1e5 V/m
        (lambda e_ex, du: (1.0, -1.0), "field 100000.0 V/m destroys the harmonic trap"),
    ], ids=["fit", "model"])
    def test_failed_harmonic_fit_keeps_the_table(self, tmp_path, monkeypatch, field_sweep_table,
                                                 fit, reason):
        cfg, text = field_sweep_table
        monkeypatch.setattr(neontrap.cli, "fit_harmonic_field_model", fit)
        out = tmp_path / "fs.csv"
        assert main(["field-sweep", "--config", cfg, "--out", str(out)]) == 0
        assert (tmp_path / "fs.effective.ini").is_file()
        table, fitted = ResultTable.from_csv(out.read_text()), ResultTable.from_csv(text)
        assert table.rows == fitted.rows and len(table.rows) == 3
        assert table.metadata.pop("harmonic_fit_error").startswith(reason)
        assert table.metadata == {k: v for k, v in fitted.metadata.items()
                                  if not k.startswith("harmonic_fit_")}
        assert main(["verify", str(out), "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0

    def test_verify_compares_metadata_numbers_within_rtol(self, tmp_path, field_sweep_table):
        cfg, text = field_sweep_table
        stored = ResultTable.from_csv(text)
        key = "harmonic_fit_hbar_omega0_ueV"
        stored.metadata[key] = f"{float(stored.metadata[key]) * (1.0 + 1e-7):.9e}"
        path = tmp_path / "stored.csv"
        stored.write(path)
        argv = ["verify", str(path), "--config", cfg, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 3
        assert main(argv + ["--rtol", "1e-6"]) == 0

    @pytest.fixture(scope="class")
    def stored_tables(self, tmp_path_factory):
        """CSV text of a two-field field-sweep table and a one-config growth table."""
        tmp_path = tmp_path_factory.mktemp("stored")
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nR = 110 nm\ndelta_L = 0.5 nm\n"
                           "E_ex = 0 V/m, 1e5 V/m\n")
        tables = {}
        for command in ("field-sweep", "growth"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            tables[command] = out.read_text()
        return cfg, tables

    @pytest.mark.parametrize("command, edit, code, message", [
        ("field-sweep", lambda t: t.replace("# command=field-sweep", "# command=verify"), 2,
         "no re-runnable command"),
        ("field-sweep", drop_last_row, 3, "row count changed"),
        ("field-sweep", lambda t: "# extra_key=1\n" + t, 3, "has no such key"),
        ("field-sweep", lambda t: t.replace("# curve_nodes=5\n", "# curve_nodes=five\n"), 3,
         "metadata curve_nodes"),
        ("growth", lambda t: t.replace(",K nm\n", ",K m\n"), 3, "row 0"),
        ("field-sweep", rename_first_column, 3, "no regenerated table matches"),
        ("growth", lambda t: "".join(line for line in t.splitlines(keepends=True)
                                     if line.startswith("#")), 2, "no header row found"),
        ("field-sweep", lambda t: edit_first_row(t, lambda cells: cells[:-1]), 2,
         "expected 5 values, got 4"),
        ("field-sweep", lambda t: edit_first_row(t, lambda cells: cells + ["1"]), 2,
         "expected 5 values, got 6"),
        ("field-sweep", lambda t: drop_metadata(t, "harmonic_fit_max_residual_ueV"), 3,
         "metadata harmonic_fit_max_residual_ueV: the stored table has no such key"),
    ], ids=["command", "row_dropped", "extra_key", "metadata_text", "row_text",
            "column_renamed", "no_header", "cell_dropped", "cell_added", "metadata_dropped"])
    def test_verify_reports_each_difference(self, tmp_path, capsys, stored_tables, command,
                                            edit, code, message):
        cfg, tables = stored_tables
        text = edit(tables[command])
        assert text != tables[command]
        stored = tmp_path / "stored.csv"
        stored.write_text(text)
        assert main(["verify", str(stored), "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == code
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [stored]

    @pytest.mark.parametrize("command, suffix, fields", [
        ("lateral", "_spectrum", "0 V/m"),
        ("field-sweep", "", "-1e6 V/m, 0 V/m, 1e6 V/m"),
    ])
    def test_curve_validation_error_in_metadata(self, tmp_path, monkeypatch, command, suffix,
                                                fields):
        curves = []
        build = neontrap.lateral.build_energy_curve

        def keep(*args, **kwargs):
            curves.append(build(*args, **kwargs))
            return curves[-1]

        monkeypatch.setattr(neontrap.lateral, "build_energy_curve", keep)
        monkeypatch.setattr(neontrap.cli, "build_energy_curve", keep)
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nR = 110 nm\ndelta_L = 0.5 nm\n"
                           f"E_ex = {fields}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0
        metadata = ResultTable.from_csv((tmp_path / f"out{suffix}.csv").read_text()).metadata
        # field-sweep reports the worst of its curves, one per field
        assert len(curves) == fields.count("V/m")
        worst = max(c.validation_error for c in curves)
        assert metadata["curve_validation_error_meV"] == f"{worst:.6e}"
        assert metadata["curve_nodes"] == str(max(c.l_knots.size for c in curves))

    @pytest.mark.parametrize("command, config, n_tables", [
        ("ground-sweep", "ground_sweep.ini", 1),
        ("lateral", "lateral_scan.ini", 16),
        ("field-sweep", "field_sweep.ini", 1),
        ("potential-z", None, 2),
        ("growth", None, 1),
    ])
    def test_every_table_carries_provenance(self, tmp_path, monkeypatch, command, config,
                                            n_tables):
        written = []
        write = ResultTable.write

        def keep(table, path, fmt="csv"):
            written.append(path)
            write(table, path, fmt)

        monkeypatch.setattr(ResultTable, "write", keep)
        cfg = (str(BENCH_CONFIGS / config) if config else
               write_config(tmp_path, FAST_GRID + "[sweep]\nL = 5 nm, inf\nE_ex = 0 V/m\n"))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0
        want = {"tool": "neontrap", "version": neontrap.__version__, "command": command,
                "config_sha256": load_config(cfg).config_hash()}
        assert len(written) == len(set(written)) == n_tables
        for path in written:
            metadata = ResultTable.from_csv(Path(path).read_text()).metadata
            assert {k: metadata.get(k) for k in want} == want

    @pytest.mark.parametrize("command", list(neontrap.cli._COMMANDS))
    def test_curve_range_outside_limits_exits_2(self, tmp_path, capsys, command):
        # the span is a config rule, so every command refuses it before any file
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nL0 = 1.2 nm\ndelta_L = 0.5 nm\n")
        out = tmp_path / "x.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "energy curve over [0.2, 1.7] nm" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

    @pytest.mark.parametrize("rho_max", ["-50 nm", "0 nm", "inf"])
    @pytest.mark.parametrize("command", ["lateral", "field-sweep"])
    def test_bad_rho_max_exits_2(self, tmp_path, capsys, command, rho_max):
        cfg = write_config(tmp_path, FAST_GRID + f"rho_max = {rho_max}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        # inf breaks the kind rule, like every non-finite value
        expected = ("rho_max: expected a finite value" if rho_max == "inf"
                    else "rho_max must be a positive")
        assert expected in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

    @pytest.mark.parametrize("command, body", [
        ("ground-sweep", "[sweep]\nL = 10 nm, nan nm\n"),
        ("ground-sweep", "[sweep]\nE_ex = inf V/m\n"),
        ("ground-sweep", "[grid]\nz_max = inf\n"),
        ("ground-sweep", "[constants]\ncutoff_zc = nan nm\n"),
        ("ground-sweep", "[constants]\neps_neon = nan\n"),
        ("lateral", "[sweep]\nb = nan nm\n"),
        ("lateral", "[sweep]\nR = nan nm\n"),
        ("lateral", "[sweep]\nb = inf\n"),
        ("growth", "[growth]\ndelta_h = nan nm\n"),
    ], ids=["L_nan", "E_ex_inf", "z_max_inf", "cutoff_zc_nan", "eps_neon_nan",
            "b_nan", "R_nan", "b_inf", "delta_h_nan"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, command, body):
        cfg = write_config(tmp_path, body)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "expected a finite value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

    @pytest.mark.parametrize("command, table", [("lateral", "thin_spectrum.csv"),
                                                ("field-sweep", "thin.csv")],
                             ids=["lateral", "field-sweep"])
    def test_thin_layer_curve_below_2nm(self, tmp_path, command, table):
        # the curve spans [1.9, 3.5] nm: its thinnest nodes need a wall above -2 nm
        cfg = write_config(tmp_path, FAST_GRID + """
[sweep]
L0 = 3 nm
delta_L = 0.6 nm
b = 2 nm
R = 50 nm
""")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "thin.csv")]) == 0
        result = ResultTable.from_csv((tmp_path / table).read_text())
        assert set(result.column("bound")) == {1.0}
        assert all(math.isfinite(v) and v > 0.0 for v in result.column("delta_U"))

    def test_programming_fault_propagates(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise ValueError("bug")

        monkeypatch.setitem(neontrap.cli._COMMANDS, "growth", broken)
        with pytest.raises(ValueError, match="bug"):
            main(["growth", "--out", str(tmp_path / "g.csv")])

    @pytest.mark.parametrize("failure", [
        neontrap.cli.NumericalFailure, neontrap.perpendicular.UnboundStateError,
        neontrap.perpendicular.EigensolverError, neontrap.lateral.CurveValidationError,
        neontrap.lateral.ModelInvalidError], ids=lambda cls: cls.__name__)
    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys, failure):
        def failing(cfg):
            raise failure("injected")

        monkeypatch.setitem(neontrap.cli._COMMANDS, "growth", failing)
        assert main(["growth", "--out", str(tmp_path / "g.csv")]) == 3
        assert "numerical failure: injected" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, n_meshes", [
        ("ground-sweep", "ground_sweep.ini", 4),  # walls at -1, -1.27, -1.62 and -2 nm
        ("lateral", "lateral_scan.ini", 6),  # one perpendicular mesh, one per pillar radius
        ("field-sweep", "field_sweep.ini", 2),  # one perpendicular mesh, one pillar
    ])
    def test_one_mesh_build_per_breakpoints(self, tmp_path, command, config, n_meshes):
        # spectral_mesh is the only builder: each cache miss builds one mesh, and
        # as many meshes as misses stay cached, so none was built twice
        spectral_mesh = neontrap.perpendicular.spectral_mesh
        spectral_mesh.cache_clear()
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(BENCH_CONFIGS / config), "--out", str(out)]) == 0
        info = spectral_mesh.cache_info()
        assert info.misses == info.currsize == n_meshes

    @pytest.mark.parametrize("command, config, n_slopes", [
        ("lateral", "lateral_scan.ini", 5),  # one curve of 5 nodes
        ("field-sweep", "field_sweep.ini", 20),  # 5 nodes at each of the 4 bound fields
    ])
    def test_slopes_only_at_curve_nodes(self, tmp_path, monkeypatch, command, config,
                                        n_slopes):
        # the 4 held-out points of each curve need only their values
        slopes = []
        derivative = neontrap.lateral.energy_derivative

        def counting(stack, solution):
            slopes.append(stack.thickness_L)
            return derivative(stack, solution)

        monkeypatch.setattr(neontrap.lateral, "energy_derivative", counting)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(BENCH_CONFIGS / config), "--out", str(out)]) == 0
        assert len(slopes) == n_slopes

    def test_injected_eigensolver_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise neontrap.perpendicular.EigensolverError("injected")

        monkeypatch.setattr(neontrap.perpendicular, "solve_lowest", failing)
        cfg = write_config(tmp_path, FAST_GRID)
        assert main(["ground-sweep", "--config", cfg, "--out", str(tmp_path / "g.csv")]) == 3
        assert "numerical failure: injected" in capsys.readouterr().err

    @pytest.mark.parametrize("command, body, message", [
        ("ground-sweep", "[constants]\ncutoff_zc = 0 nm\n", "cutoff_zc must be a positive"),
        ("potential-z", "[constants]\ncutoff_zc = -0.1 nm\n", "cutoff_zc must be a positive"),
        ("lateral", "[grid]\nz_samples = 0\n", "z_samples must be >= 1"),
        ("potential-z", "[grid]\nz_samples = -3\n", "z_samples must be >= 1"),
        ("ground-sweep", "[constants]\nbarrier_height = -700 meV\n",
         "barrier_height must be a positive"),
        ("ground-sweep", "[constants]\nbarrier_height = 0 meV\n",
         "barrier_height must be a positive"),
        ("ground-sweep", "[constants]\neps_neon = 1\n", "eps_neon must exceed 1"),
        ("ground-sweep", "[substrate]\ntype = dielectric\neps_b = 0.5\n",
         "eps_b must be >= 1, got 0.5"),
        ("lateral", "[sweep]\nL0 = 10 nm\ndelta_L = 10 nm\n",
         "need 0 < delta_L < L0, got 10 and 10 nm"),
        ("lateral", "[sweep]\nR = 110 nm, 0 nm\n", "R and b must be positive, got R = 0 nm"),
        ("field-sweep", "[sweep]\nb = 0 nm\n", "R and b must be positive, got R = 110 nm, b = 0 nm"),
        ("growth", "[growth]\nr_c = 10 nm, 0 nm\n",
         "curvature radius r_c must be nonzero, got 0 nm"),
        ("growth", "[growth]\ndiffusion_time = -1e-06 s\n",
         "diffusion time must be non-negative, got -1e-06 s"),
        ("growth", "[growth]\ndelta_h = -1 nm\n",
         "height difference delta_h must be non-negative, got -1 nm"),
        ("ground-sweep", "[grid]\nz_max = 0.2 nm\n", "z_max must exceed the cutoff distance"),
        ("lateral", "[sweep]\nalpha_max = 0\n", "alpha_max must be >= 1"),
        ("ground-sweep", "[sweep]\nL = 0 nm\n", "layer thicknesses must be positive"),
        ("ground-sweep", "[sweep]\nL = -1 nm\n", "layer thicknesses must be positive"),
        ("ground-sweep", "[substrate]\ntype = metal\n", "expected one of"),
        ("growth", "[output]\nformat = xml\n", "expected one of"),
        ("ground-sweep", "[sweep]\nL\n", "malformed config file"),
        ("ground-sweep", "[sweep]\nL = 5 nm\n[sweep]\nL0 = 10 nm\n", "malformed config file"),
    ], ids=["cutoff_zc_zero", "cutoff_zc_negative", "z_samples_zero", "z_samples_negative",
            "barrier_height_negative", "barrier_height_zero", "eps_neon_one", "eps_b_below_one",
            "delta_L_at_L0", "R_zero", "b_zero", "r_c_zero", "diffusion_time_negative",
            "delta_h_negative", "z_max_below_cutoff", "alpha_max_zero", "L_zero", "L_negative",
            "unknown_substrate", "unknown_format", "key_without_value", "repeated_section"])
    def test_config_fault_exits_2_before_any_solve(self, tmp_path, capsys, command, body,
                                                    message):
        cfg = write_config(tmp_path, body)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

    @pytest.mark.parametrize("content", [None, "not a table\n"], ids=["missing", "malformed"])
    def test_verify_unreadable_stored_table_exits_2(self, tmp_path, capsys, content):
        stored = tmp_path / "stored.csv"
        if content is not None:
            stored.write_text(content)
        assert main(["verify", str(stored), "--out", str(tmp_path / "fresh.csv")]) == 2
        assert "cannot read stored table" in capsys.readouterr().err

    def test_missing_output_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "o.csv"
        assert main(["lateral", "--out", str(out)]) == 2
        assert f"output directory {out.parent} does not exist" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_flag_exits_2(self, tmp_path, capsys):
        # --format meets the config's rule, in the config's words, before any file
        assert main(["growth", "--format", "xml", "--out", str(tmp_path / "g.csv")]) == 2
        assert ("config error: [output] format: expected one of ('csv', 'json'), got 'xml'"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_across_thread_counts(self, tmp_path):
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nL = 5 nm, 10 nm, 20 nm\nE_ex = 0 V/m, 1e6 V/m\n")
        out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert main(["ground-sweep", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["ground-sweep", "--config", cfg, "--out", str(out4), "--threads", "4"]) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_field_sweep_requires_single_geometry(self, tmp_path):
        cfg = write_config(tmp_path, FAST_GRID + "[sweep]\nR = 60 nm, 110 nm\n")
        assert main(["field-sweep", "--config", cfg,
                     "--out", str(tmp_path / "f.csv")]) == 2

    def test_lateral_profile_and_spectrum(self, tmp_path):
        cfg = write_config(tmp_path, FAST_GRID + """
[sweep]
R = 110 nm
delta_L = 0.5 nm
""")
        out = tmp_path / "lat.csv"
        assert main(["lateral", "--config", cfg, "--out", str(out)]) == 0
        spec = ResultTable.from_csv((tmp_path / "lat_spectrum.csv").read_text())
        assert spec.column("alpha") == [0.0, 1.0]
        du = spec.column("delta_U")[0]
        assert 1.0 <= du <= 100.0
        prof = ResultTable.from_csv((tmp_path / "lat_R110_dL0.5.csv").read_text())
        assert prof.column("V_par")[-1] == pytest.approx(0.0, abs=1e-4)

    def test_lateral_box_inside_the_pillar_flags_row(self, tmp_path):
        # rho_max = 50 nm < R leaves the one mesh element (0, 50 nm); the ground
        # state fills the box and leans on its wall, so the row is flagged
        cfg = write_config(tmp_path, FAST_GRID + """rho_max = 50 nm
[sweep]
R = 110 nm
delta_L = 0.5 nm
""")
        assert main(["lateral", "--config", cfg, "--out", str(tmp_path / "lat.csv")]) == 0
        spec = ResultTable.from_csv((tmp_path / "lat_spectrum.csv").read_text())
        assert spec.column("bound") == [0.0, 0.0]
        assert all(math.isfinite(v) for v in spec.column("delta_U"))

    FIELD_SWEEP = FAST_GRID + "[sweep]\nR = 110 nm\ndelta_L = 0.5 nm\n"

    def test_field_sweep_reports_asymmetry_and_fit(self, tmp_path):
        cfg = write_config(tmp_path, self.FIELD_SWEEP + "E_ex = -1e6 V/m, 0 V/m, 1e6 V/m\n")
        out = tmp_path / "field.csv"
        assert main(["field-sweep", "--config", cfg, "--out", str(out)]) == 0
        table = ResultTable.from_csv(out.read_text())
        assert len(table.rows) == 3
        ratio = float(table.metadata["asymmetry_ratio"])
        assert ratio > 1.0  # negative fields tune the splitting harder
        assert float(table.metadata["harmonic_fit_hbar_omega0_ueV"]) > 0.0

    def test_field_sweep_keeps_unbound_field_as_flagged_row(self, tmp_path):
        # -5e6 V/m pulls the electron off the surface at these thicknesses
        cfg = write_config(tmp_path, self.FIELD_SWEEP + "E_ex = 0 V/m, -5e6 V/m\n")
        out = tmp_path / "field.csv"
        assert main(["field-sweep", "--config", cfg, "--out", str(out)]) == 0
        table = ResultTable.from_csv(out.read_text())
        assert table.column("E_ex") == [-5e6, 0.0]
        assert table.column("bound") == [0.0, 1.0]
        unbound, bound = table.rows
        assert all(math.isnan(v) for v in unbound[1:4])
        assert all(math.isfinite(v) for v in bound[1:4])

    def test_field_sweep_curve_over_budget_flags_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(neontrap.lateral, "VALIDATION_BUDGET_MEV", 1e-12)
        cfg = write_config(tmp_path, self.FIELD_SWEEP + "E_ex = 0 V/m\n")
        out = tmp_path / "field.csv"
        assert main(["field-sweep", "--config", cfg, "--out", str(out)]) == 0
        table = ResultTable.from_csv(out.read_text())
        (row,) = table.rows
        assert row[4] == 0.0 and all(math.isnan(v) for v in row[1:4])
        # a field without a curve adds nothing to the curve metadata
        assert "curve_nodes" not in table.metadata
        assert "curve_validation_error_meV" not in table.metadata

    def test_field_sweep_programming_fault_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(neontrap.cli, "pillar_spectrum", broken)
        cfg = write_config(tmp_path, self.FIELD_SWEEP + "E_ex = 0 V/m\n")
        with pytest.raises(TypeError, match="bug"):
            main(["field-sweep", "--config", cfg, "--out", str(tmp_path / "field.csv")])


@pytest.mark.parametrize("golden, config", GOLDEN_TABLES)
def test_benchmark_tables_match_golden(tmp_path, golden, config):
    # rtol 1e-8 lets the 9th printed digit flip by one unit and catches more
    argv = ["verify", str(GOLDEN / golden), "--config", str(BENCH_CONFIGS / config),
            "--rtol", "1e-8", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0
    assert list(tmp_path.iterdir()) == []


def _without_version(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(("# version=", '    "version": ')))


@pytest.mark.parametrize("name, fmt", [("growth.csv", "csv"), ("growth.json", "json")])
def test_growth_tables_match_golden_bytes(tmp_path, name, fmt):
    # text cells and closed-form floats: the bytes of the cell printer itself
    out = tmp_path / name
    assert main(["growth", "--format", fmt, "--out", str(out)]) == 0
    assert _without_version(out.read_text()) == _without_version((GOLDEN / name).read_text())


def test_ground_sweep_json_matches_golden(tmp_path):
    out = tmp_path / "ground_sweep.json"
    assert main(["ground-sweep", "--config", str(BENCH_CONFIGS / "ground_sweep.ini"),
                 "--format", "json", "--out", str(out)]) == 0
    fresh, golden = (json.loads(p.read_text(), parse_constant=reject_constant)
                     for p in (out, GOLDEN / "ground_sweep.json"))
    for doc in (fresh, golden):
        del doc["metadata"]["version"]
    assert fresh["metadata"] == golden["metadata"]
    assert fresh["columns"] == golden["columns"]
    assert len(fresh["rows"]) == len(golden["rows"])
    for row, want in zip(fresh["rows"], golden["rows"]):
        assert [type(v) for v in row] == [type(v) for v in want]
        for v, w in zip(row, want):
            if isinstance(w, float):
                assert v == pytest.approx(w, rel=1e-8, abs=0.0)
            else:  # text ("inf"), null and the bound flag
                assert v == w


@pytest.mark.parametrize("golden, config", GOLDEN_TABLES[1:])
def test_golden_table_catches_a_moved_splitting(tmp_path, capsys, golden, config):
    table = ResultTable.from_csv((GOLDEN / golden).read_text())
    column = [name for name, _ in table.columns].index("delta_U")
    row = list(table.rows[1])
    row[column] *= 1.0 + 1e-7
    table.rows[1] = tuple(row)
    moved = tmp_path / golden
    table.write(moved)
    argv = ["verify", str(moved), "--config", str(BENCH_CONFIGS / config),
            "--rtol", "1e-8", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 3
    assert "row 1:" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_package_version_is_read_from_the_module():
    setuptools = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = Path(__file__).resolve().parents[1]
    project = setuptools.read_configuration(root / "pyproject.toml")["project"]
    assert project["version"] == neontrap.__version__


def _fresh_interpreter(code):
    """Standard output of `python -c code` in a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_cli_import_leaves_heavy_scipy_unloaded():
    """`import neontrap.cli` needs numpy and scipy's LAPACK extension only.

    Runs in a fresh interpreter: the test modules import scipy.linalg.
    """
    heavy = ("scipy.linalg", "numpy.f2py", "scipy.interpolate", "scipy.special",
             "scipy.optimize", "scipy.integrate")
    code = f"import neontrap.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    assert _fresh_interpreter(code) == "[]"


def test_csv_run_loads_neither_openssl_nor_json(tmp_path):
    """The config hash takes CPython's builtin SHA-256, and only a JSON run imports json.

    A module the bare interpreter already holds (a site hook's, say) does not count.
    """
    code = f"""
import sys
bare = set(sys.modules)
def loaded():
    print([m for m in ("_hashlib", "hashlib", "json") if m in sys.modules and m not in bare])
import neontrap.cli
loaded()
assert neontrap.cli.main(["ground-sweep", "--out", {str(tmp_path / "g.csv")!r}]) == 0
loaded()
"""
    after_import, written, after_run = _fresh_interpreter(code).splitlines()
    assert (after_import, after_run) == ("[]", "[]")
    assert written == str(tmp_path / "g.csv")


def test_hashlib_fallback_gives_the_pinned_digests():
    # with neither builtin SHA-256 module importable, config takes hashlib's
    code = f"""
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from neontrap import config
print(config.sha256 is hashlib.sha256)
for path in {[None if name is None else str(BENCH_CONFIGS / name) for name in PINNED_DIGESTS]!r}:
    print((config.RunConfig() if path is None else config.load_config(path)).config_hash())
"""
    fallback, *digests = _fresh_interpreter(code).splitlines()
    assert fallback == "True"
    assert digests == list(PINNED_DIGESTS.values())


# W_G cases for the LAPACK loader: two dense solves, then a warm chain whose
# later solves take the banded path
LOADER_CASES = [(1.0, 1e6), (10.0, 0.0), (9.5, 0.0), (10.5, 0.0)]


def test_lapack_fallback_gives_the_same_energies(tmp_path):
    # a scipy package found in an empty directory holds no linalg/_flapack
    # file, so perpendicular imports scipy.linalg.lapack instead
    code = f"""
import importlib.machinery, importlib.util, sys
find_spec = importlib.util.find_spec

def no_flapack(name, package=None):
    if name == "scipy":
        return importlib.machinery.ModuleSpec(name, None, origin={str(tmp_path / "__init__.py")!r},
                                              is_package=True)
    return find_spec(name, package)

importlib.util.find_spec = no_flapack
from neontrap import DielectricStack, Superconductor, solve_perpendicular
from neontrap.perpendicular import lapack
print(lapack.__name__, "scipy.linalg" in sys.modules)
sol = None
for L, e in {LOADER_CASES!r}:
    sol = solve_perpendicular(DielectricStack(Superconductor(), L, e_ex=e), start=sol)
    print(sol.energies[0].hex())
"""
    loaded, *energies = _fresh_interpreter(code).splitlines()
    assert loaded == "scipy.linalg.lapack True"
    sol, expected = None, []
    for L, e in LOADER_CASES:
        sol = neontrap.perpendicular.solve_perpendicular(
            DielectricStack(Superconductor(), L, e_ex=e), start=sol)
        expected.append(sol.energies[0].hex())
    assert energies == expected
