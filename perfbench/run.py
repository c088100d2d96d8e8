"""Benchmark of the neontrap CLI on three sweep workloads.

    python3 perfbench/run.py --workload ground_sweep --seed 0 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's `src/`.  Each sample is one `neontrap` subcommand in a fresh
process (see sample.py) with NEONTRAP_THREADS unset and single-threaded
BLAS.  Samples repeat until `--seconds` have passed.  Every sample's output
is checked: exit code 0, output bytes identical across the run's samples,
`bound` flags equal to the committed fine-grid reference, and errors within
the workload's tolerance.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics: the fastest sample for the times (FASTEST), the
median for the others.  With `--trace 1` samples alternate between untraced
and traced runs and the JSON holds the per-layer metrics (medians over the
traced samples).  The lines before it are a readable report with sample
counts, medians, quartiles and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "max_err_mev": "meV",
}
# Noise from other load on the host only ever adds time, and it comes and goes
# within seconds, so the fastest sample is the steadiest estimate of a time.
FASTEST = {"wall_s", "setup_s", "cpu_s"}
WORK_DIR = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"
DEADLINE_S = 170.0  # a run must end within 180 s
START = time.monotonic()


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


def child_env() -> dict:
    """Environment of every measured process: pinned BLAS, no thread override."""
    env = dict(os.environ)
    env.pop("NEONTRAP_THREADS", None)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def read_table(path: Path) -> list:
    """Rows of a neontrap CSV table as dicts keyed by column name (unit dropped)."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    columns = [cell.split("[")[0] for cell in lines[0].split(",")]
    return [dict(zip(columns, map(float, ln.split(",")))) for ln in lines[1:]]


def run_cli(command: list, cwd: Path, traced: bool, timeout: float) -> dict:
    """Run one CLI invocation through sample.py in a fresh process."""
    argv = [sys.executable, str(HERE / "sample.py"), "result.json",
            "1" if traced else "0", *command]
    proc = subprocess.run(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    result_file = cwd / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"rc": proc.returncode or -1, "error": f"sample exited {proc.returncode}: {tail[0]}"}
    return json.loads(result_file.read_text())


def load_reference(w: workloads.Workload) -> dict:
    """Fine-grid reference rows of workload w: key tuple -> (value, bound)."""
    doc = json.loads(REFERENCE.read_text())[w.name]
    cols = doc["columns"]
    ki = [cols.index(k) for k in w.key]
    vi, bi = cols.index(w.value), cols.index("bound")
    rows = [[math.nan if c is None else float(c) for c in row] for row in doc["rows"]]
    return {tuple(row[i] for i in ki): (row[vi], bool(row[bi])) for row in rows}


def check_output(w: workloads.Workload, out_dir: Path, reference: dict,
                 expected: list) -> tuple:
    """(error message or None, max |value - reference| in meV).

    Every bound row must be within the tolerance.  The returned error is the
    largest over the bound rows every seed shares (workloads.anchor_keys),
    so that it compares across seeds.
    """
    rows = read_table(out_dir / w.table)
    keys = sorted(tuple(r[k] for k in w.key) for r in rows)
    if keys != expected:
        return f"{w.table}: rows {keys} differ from the expected {expected}", math.nan
    to_mev = {"meV": 1.0, "ueV": 1e-3}[w.unit]
    anchors = workloads.anchor_keys(w.name)
    worst = 0.0
    for r in rows:
        key = tuple(r[k] for k in w.key)
        ref_value, ref_bound = reference[key]
        if bool(r["bound"]) != ref_bound:
            return f"{key}: bound={bool(r['bound'])}, reference says {ref_bound}", math.nan
        if not ref_bound:
            continue
        err = abs(r[w.value] - ref_value)
        if not err <= w.tolerance:
            return (f"{key}: |{w.value} - reference| = {err:.3g} {w.unit} "
                    f"exceeds {w.tolerance} {w.unit}"), math.nan
        if key in anchors:
            worst = max(worst, err * to_mev)
    return None, worst


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> list:
    """Run samples for `seconds`; return one dict per sample, checked."""
    swept = workloads.sweep(w.name, seed)
    config = workloads.config_text(w.name, swept)
    committed = HERE / "configs" / f"{w.name}.ini"
    if seed == workloads.DEFAULT_SEED and config != committed.read_text():
        raise BenchmarkError(f"generated config differs from {committed}")
    expected = workloads.expected_keys(w.name, swept)
    reference = load_reference(w)
    missing = [k for k in expected if k not in reference]
    if missing:
        raise BenchmarkError(f"reference lacks rows {missing[:3]}")
    src = (ROOT / "src").resolve()
    WORK_DIR.mkdir(exist_ok=True)
    samples, digest = [], None
    begin = time.monotonic()
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            while (not samples or time.monotonic() - begin < seconds
                   or (trace and len(samples) < 2)):
                traced = trace and len(samples) % 2 == 1
                run_dir = Path(tmp) / f"s{len(samples)}"
                (run_dir / "out").mkdir(parents=True)
                (run_dir / "config.ini").write_text(config)
                timeout = DEADLINE_S - (time.monotonic() - START)
                command = [w.command, "--config", "config.ini", "--out", "out/out.csv"]
                try:
                    s = run_cli(command, run_dir, traced, timeout)
                except subprocess.TimeoutExpired:
                    samples.append({"traced": traced, "error": "timed out"})
                    break
                s["traced"] = traced
                if "error" not in s:
                    if Path(s["env"]["neontrap_file"]).resolve().parent.parent != src:
                        raise BenchmarkError(f"neontrap imported from {s['env']['neontrap_file']}")
                    if s["rc"] != 0:
                        err = f"neontrap exited {s['rc']}"
                    else:
                        err, s["max_err_mev"] = check_output(w, run_dir / "out",
                                                             reference, expected)
                    d = _digest(run_dir / "out")
                    digest = digest or d
                    if err is None and d != digest:
                        err = "output bytes differ from the run's first sample"
                    if err:
                        s["error"] = err
                samples.append(s)
                shutil.rmtree(run_dir)
    finally:
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    return samples


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _summary(values: list) -> dict:
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "min": min(values), "max": max(values)}


def report(w, seed, samples, trace) -> dict:
    """Print the readable report; return {metric: {"value", "unit"}} for the JSON line."""
    ok = [s for s in samples if "error" not in s]
    failed = len(samples) - len(ok)
    print(f"workload {w.name} (neontrap {w.command}), seed {seed}: "
          f"{len(samples)} runs, {failed} failed")
    for s in samples:
        if "error" in s:
            print(f"  FAILED run: {s['error']}")
    if ok:
        env = ok[0]["env"]
        print(f"  environment: nproc={env['nproc']} python={env['python']} "
              f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
              f"threads_env={env['threads_env']}")
    print(f"  failed_frac = {failed / len(samples):.3g} ratio ({failed}/{len(samples)})")
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    if not plain or (trace and not traced):
        return {}
    e2e = {name: _summary([s[name] for s in plain]) for name in END_TO_END
           if name != "max_err_mev"}
    e2e["max_err_mev"] = _summary([s["max_err_mev"] for s in ok])
    for name, st in e2e.items():
        st["value"] = st["min"] if name in FASTEST else st["median"]
        fastest = f"fastest of {st['n']}; " if name in FASTEST else ""
        print(f"  {name} = {st['value']:.6g} {END_TO_END[name]}  ({fastest}median of "
              f"{st['n']} {st['median']:.6g}, quartiles {st['q1']:.6g}..{st['q3']:.6g})")
    err_name = "wg_err_mev" if w.unit == "meV" else "du_err_uev"
    err = e2e["max_err_mev"]["value"] / (1.0 if w.unit == "meV" else 1e-3)
    print(f"  {err_name} = {err:.6g} {w.unit}  (tolerance {w.tolerance} {w.unit}, "
          f"against the committed fine-grid reference)")
    if not trace:
        return {name: {"value": st["value"], "unit": END_TO_END[name]}
                for name, st in e2e.items()}

    layers = [tracing.summarize(s["spans"]) for s in traced]
    out = {}
    for name, unit in tracing.METRICS.items():
        if name == "trace.overhead_s":
            value = min(s["wall_s"] for s in traced) - min(s["wall_s"] for s in plain)
            print(f"  {name} = {value:.6g} s  (fastest traced wall_s of {len(traced)} "
                  f"minus fastest untraced wall_s of {len(plain)})")
        else:
            st = _summary([m[name] for m in layers])
            value = st["median"]
            print(f"  {name} = {value:.6g} {unit}  (median of {st['n']}, "
                  f"range {st['min']:.6g}..{st['max']:.6g})")
        out[name] = {"value": value, "unit": unit}
    return out


def _check_declared():
    """BENCHMARK.json must declare exactly the metrics this script emits."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", tracing.METRICS)):
        declared = {m["name"]: m["unit"] for m in doc[key]}
        if declared != ours:
            raise BenchmarkError(f"BENCHMARK.json {key} does not match run.py")
    names = {w["name"] for w in doc["workloads"]}
    if names != set(workloads.WORKLOADS):
        raise BenchmarkError("BENCHMARK.json workloads do not match workloads.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running sample is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not (ROOT / "src" / "neontrap" / "cli.py").is_file():
            raise BenchmarkError(f"no neontrap source tree under {ROOT / 'src'}")
        _check_declared()
        w = workloads.WORKLOADS[args.workload]
        samples = measure(w, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = report(w, args.seed, samples, bool(args.trace))
    failed = sum(1 for s in samples if "error" in s)
    if not metrics:
        print("perfbench: too few runs passed the checks to report metrics", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
