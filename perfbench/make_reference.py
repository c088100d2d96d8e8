"""Regenerate perfbench/reference.json, the fine-grid reference rows.

Runs each workload's subcommand once over every value any seed can draw
(workloads.lattice) on grids with workloads.FINE_FACTOR times the points,
perpendicular and radial, and keeps the checked columns of the output
table.  Takes several minutes on two cores; run it only when the reference
itself has to change:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import run
import workloads


def _cell(v: float):
    if math.isnan(v):
        return None
    return "inf" if math.isinf(v) else v


def reference_rows(w: workloads.Workload, tmp: Path) -> dict:
    config = workloads.config_text(w.name, workloads.lattice(w.name), fine=True)
    (tmp / "out").mkdir()
    (tmp / "config.ini").write_text(config)
    command = [w.command, "--config", "config.ini", "--out", "out/out.csv", "--threads", "2"]
    result = run.run_cli(command, tmp, traced=False, timeout=3600.0)
    if "error" in result or result["rc"] != 0:
        raise SystemExit(f"{w.name}: {result.get('error', result['rc'])}")
    columns = [*w.key, w.value, "bound"]
    rows = [[_cell(r[c]) for c in columns] for r in run.read_table(tmp / "out" / w.table)]
    print(f"{w.name}: {len(rows)} rows in {result['wall_s']:.1f} s")
    return {"config": config, "columns": columns, "units": w.unit, "rows": rows}


def main() -> int:
    doc = {}
    run.WORK_DIR.mkdir(exist_ok=True)
    for w in workloads.WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            doc[w.name] = reference_rows(w, Path(tmp))
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
