"""Deterministic result tables with explicit units.

CSV dialect: comma separated, one `name[unit]` header row, LF endings,
floats printed with 9 significant digits so identical configurations give
byte-identical files.  JSON mirrors the CSV schema under a metadata object,
as strict JSON: NaN is null and +-inf the CSV's "inf" and "-inf".  CSV rows
are printed a table at a time by ResultTable.write, one %-format per row.
One printf table (_csv_kind) prints every cell, and parse_cell reads every
cell back.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

FLOAT_FMT = "%.8e"  # 9 significant digits; prints NaN as "nan"

_HEADER_RE = re.compile(r"^(?P<name>[^\[\]]+)\[(?P<unit>[^\[\]]*)\]$")


def _csv_kind(cls) -> str:
    """printf conversion of a cell of type cls: the one rule that prints cells."""
    if issubclass(cls, float):  # numpy.float64 too
        return FLOAT_FMT
    if cls is int or cls is bool:
        return "%d"
    return "%s"


def format_value(v) -> str:
    return _csv_kind(type(v)) % (v,)


def parse_cell(text: str):
    """The float a printed cell spells, or else the text itself."""
    try:
        return float(text)
    except ValueError:
        return text


def parse_quantity(text: str, expected_unit: str | None):
    """Parse a "value unit" pair; emit_quantity round-trips it losslessly.

    Dimensionless quantities (expected_unit None) must be bare numbers.
    "inf" is accepted for lengths (bulk sentinel).
    """
    parts = text.strip().split()
    if expected_unit is None:
        if len(parts) != 1:
            raise ValueError(f"expected a bare number, got {text!r}")
        return float(parts[0])
    if len(parts) == 1 and parts[0] == "inf":
        return math.inf
    if len(parts) != 2:
        raise ValueError(f"expected '<value> {expected_unit}', got {text!r}")
    value, unit = parts
    if unit != expected_unit:
        raise ValueError(f"expected unit {expected_unit!r}, got {unit!r} in {text!r}")
    return float(value)


def emit_quantity(value: float, unit: str | None) -> str:
    if unit is None:
        return format_value(float(value))
    if math.isinf(value):
        return "inf"
    return f"{format_value(float(value))} {unit}"


def _csv_rows(rows) -> str:
    """CSV text of rows, printed by one %-format built from the column types.

    A column whose cells mix conversions prints each cell with format_value.
    """
    conversions, columns = [], []
    for cells in zip(*rows, strict=True):
        kinds = {_csv_kind(cls) for cls in set(map(type, cells))}
        if len(kinds) == 1:
            conversions.append(kinds.pop())
            columns.append(cells)
        else:
            conversions.append("%s")
            columns.append(list(map(format_value, cells)))
    row_fmt = ",".join(conversions)
    return "\n".join([row_fmt] * len(rows)) % tuple(chain.from_iterable(zip(*columns)))


@dataclass
class ResultTable:
    """Column-schema'd table of numbers with serialization metadata."""

    columns: list  # list of (name, unit) pairs; unit "" for unitless/text
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_row(self, *values):
        """Append one row; a numpy scalar cell becomes its Python scalar, as in add_columns."""
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(v.item() if isinstance(v, np.generic) else v for v in values))

    def add_columns(self, *columns):
        """Append one row per index of equal-length 1-D arrays, one per column.

        Cells become Python scalars of each array's kind (numpy.ndarray.tolist:
        float, int or bool); formatting waits for write.
        """
        arrays = [np.asarray(c) for c in columns]
        if len(arrays) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} columns, got {len(arrays)}")
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise ValueError("columns must be 1-D arrays of equal length, got shapes "
                             f"{[a.shape for a in arrays]}")
        self.rows.extend(zip(*(a.tolist() for a in arrays)))

    def column(self, name: str) -> list:
        idx = [c[0] for c in self.columns].index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in sorted(self.metadata.items())]
        lines.append(",".join(f"{name}[{unit}]" for name, unit in self.columns))
        if self.rows:
            lines.append(_csv_rows(self.rows))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json  # only a JSON run loads it

        def norm(v):
            if isinstance(v, float):
                if math.isnan(v):
                    return None
                if math.isinf(v):
                    return format_value(v)  # strict JSON has no Infinity
                return float(FLOAT_FMT % v)
            return v
        doc = {
            "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
            "columns": [{"name": n, "unit": u} for n, u in self.columns],
            "rows": [[norm(v) for v in row] for row in self.rows],
        }
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"

    def write(self, path, fmt: str = "csv"):
        text = self.to_csv() if fmt == "csv" else self.to_json()
        with open(path, "w", newline="\n") as fh:
            fh.write(text)

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        """Read to_csv text back; add_row checks each row's arity against the header."""
        metadata, table = {}, None
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                metadata[key] = value
                continue
            cells = line.split(",")
            if table is None:
                columns = []
                for cell in cells:
                    m = _HEADER_RE.match(cell)
                    if not m:
                        raise ValueError(f"malformed column header {cell!r}")
                    columns.append((m.group("name"), m.group("unit")))
                table = cls(columns=columns, metadata=metadata)
                continue
            table.add_row(*map(parse_cell, cells))
        if table is None:
            raise ValueError("no header row found")
        return table
