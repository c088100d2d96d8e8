"""One measured neontrap CLI run in a fresh process; started by run.py.

    sample.py RESULT_JSON TRACE SUBCOMMAND [CLI ARGS...]

Imports `neontrap.cli`, notes the CPU time the process has used until then
(its set-up), calls `neontrap.cli.main` on the CLI arguments and writes
RESULT_JSON: exit code, set-up CPU time, wall and CPU time of `main`, peak RSS
and the numeric environment.  With TRACE=1
the tracer is installed first and the spans go into the result as well.
"""

import json
import os
import platform
import resource
import sys
import time


def _environment() -> dict:
    import numpy
    import scipy
    import neontrap
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "neontrap_file": neontrap.__file__,
        "threads_env": {k: os.environ.get(k) for k in
                        ("NEONTRAP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import neontrap.cli
    ready = resource.getrusage(resource.RUSAGE_SELF)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc = neontrap.cli.main(argv)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        # CPU time, not wall time: a hypervisor that withholds the vCPU (steal
        # time) stretches the wall clock of the import but not its CPU time
        "setup_s": ready.ru_utime + ready.ru_stime,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "env": _environment(),
        "spans": tracer.spans if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
