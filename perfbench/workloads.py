"""Seeded workload configs for the neontrap CLI benchmark.

Each workload is one `neontrap` subcommand run on an INI config.  The seed
jitters only interior sweep values (layer thicknesses L, pillar radii R and
field magnitudes |E_ex|), each by a factor drawn from JITTER.  Range ends,
`inf` and the +-2e6 V/m fields stay fixed, so every seed keeps the same
expected flagged rows.  The default seed applies no jitter.

Because every jittered value lies on the lattice `base * JITTER`, the
committed fine-grid reference (see make_reference.py) covers every seed.

Run `python3 perfbench/workloads.py --seed N --out DIR` to write the three
configs for seed N; the default-seed configs are committed in
perfbench/configs/.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
JITTER = (0.9, 0.95, 1.0, 1.05, 1.1)

# 23 log-spaced thicknesses in [1, 200] nm
L_GRID = [200.0 ** (i / 22) for i in range(23)]

GRID = {"n_points": 8192, "n_points_radial": 16384}
# Serial: with two threads, wall time depends on whether the host runs both
# vCPUs at once, and it spread wider than the benchmark's bound.
THREADS = 1
FINE_FACTOR = 8  # reference grids carry 8x the points on both axes


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # neontrap subcommand
    table: str          # output file holding the checked rows
    key: tuple          # columns identifying a checked row
    value: str          # checked column
    unit: str           # unit of the checked column
    tolerance: float    # largest accepted |value - reference|, in `unit`
    fixed: dict         # scalar [sweep] keys


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ground_sweep", command="ground-sweep", table="out.csv",
        key=("L", "E_ex"), value="W_G", unit="meV", tolerance=0.01, fixed={}),
    Workload(
        name="lateral_scan", command="lateral", table="out_spectrum.csv",
        key=("R", "delta_L", "alpha"), value="delta_U", unit="ueV",
        tolerance=0.01,
        fixed={"L0": "10 nm", "E_ex": "0 V/m", "b": "2 nm", "n_knots": "60"}),
    Workload(
        name="field_sweep", command="field-sweep", table="out.csv",
        key=("E_ex",), value="delta_U", unit="ueV", tolerance=0.01,
        fixed={"L0": "10 nm", "b": "2 nm", "n_knots": "60"}),
)}

_UNITS = {"L": "nm", "E_ex": "V/m", "R": "nm", "delta_L": "nm"}


def _round(v: float) -> float:
    """Value exactly as the config file states it (6 significant digits)."""
    return v if math.isinf(v) else float(f"{v:.6g}")


def _sweep(name: str, pick) -> dict:
    """[sweep] lists and the table axes; pick(base) gives an interior base's values."""
    if name == "ground_sweep":
        interior = [v for L in L_GRID[1:-1] for v in pick(L)]
        return {"L": [L_GRID[0], *interior, L_GRID[-1], math.inf],
                "E_ex": [0.0, *pick(1e5), 1e6]}
    if name == "lateral_scan":
        return {"R": [50.0, *pick(80.0), *pick(110.0), *pick(150.0), 200.0],
                "delta_L": [0.25, 0.5, 1.0]}
    if name == "field_sweep":
        mags = pick(1e6)
        return {"E_ex": [-2e6, *(-m for m in mags), 0.0, *mags, 2e6],
                "R": [110.0], "delta_L": [0.5]}
    raise KeyError(f"unknown workload {name!r}")


def sweep(name: str, seed: int) -> dict:
    """Swept values of workload `name` for `seed`."""
    if seed == DEFAULT_SEED:
        def pick(v):
            return [_round(v)]
    else:
        rng = random.Random(seed)

        def pick(v):
            return [_round(v * rng.choice(JITTER))]
    return {k: [_round(v) for v in vals] for k, vals in _sweep(name, pick).items()}


def lattice(name: str) -> dict:
    """Every value any seed can put in the swept lists (sorted, unique)."""
    raw = _sweep(name, lambda v: [v * f for f in JITTER])
    return {k: sorted({_round(v) for v in vals}) for k, vals in raw.items()}


def anchor_keys(name: str) -> set:
    """Row keys every seed shares: the sweep without its jittered values."""
    fixed = {k: [_round(v) for v in vals] for k, vals in _sweep(name, lambda v: []).items()}
    return set(expected_keys(name, fixed))


def expected_keys(name: str, swept: dict) -> list:
    """Row keys the checked table must hold, in the workload's key order."""
    axes = {"alpha": [0.0, 1.0], **swept}  # alpha_max = 1
    return sorted(itertools.product(*(axes[k] for k in WORKLOADS[name].key)))


def _fmt(v: float, unit: str) -> str:
    return "inf" if math.isinf(v) else f"{v:.6g} {unit}"


def config_text(name: str, swept: dict, fine: bool = False) -> str:
    """INI config of workload `name` with the given swept values."""
    w = WORKLOADS[name]
    scale = FINE_FACTOR if fine else 1
    lines = ["[sweep]"]
    lines += [f"{k} = {v}" for k, v in w.fixed.items()]
    lines += [f"{k} = {', '.join(_fmt(v, _UNITS[k]) for v in vals)}"
              for k, vals in swept.items()]
    lines += ["", "[grid]"]
    lines += [f"{k} = {n * scale}" for k, n in GRID.items()]
    lines += ["", "[parallel]", f"threads = {THREADS}", ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True, help="directory for the .ini files")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        (out / f"{name}.ini").write_text(config_text(name, sweep(name, args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
