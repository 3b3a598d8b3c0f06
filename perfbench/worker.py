"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json REP_DIR [--setup-only]

The plan (written by run.py) names the seed, the calls and whether to trace.
The worker imports anosovlab from the checkout's src/, loads the first call's
scenario and builds its map, and records the monotonic clock at that moment,
so that the parent can time set-up from the moment it started the process.
It then runs the calls once against the empty cache REP_DIR/cache (the cold
pass) and, unless the plan asks for the cold pass alone, once more against the
filled cache (the warm pass), writing outputs to REP_DIR/<pass>/<call>, and
writes REP_DIR/result.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _blas_facts() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
    }
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                facts["blas_threads"] = int(getattr(lib, symbol)())
                return facts
    return facts


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text())
    rep = Path(argv[1])
    setup_only = "--setup-only" in argv[2:]
    os.environ["ANOSOVLAB_CACHE"] = str(rep / "cache")
    sys.path.insert(0, str(ROOT / "src"))

    from anosovlab import cli
    from anosovlab.scenarios import load_scenario

    load_scenario(str(ROOT / plan["calls"][0]["config"])).build_map()
    result: dict = {"ready_monotonic": time.monotonic(), "ready_thread_cpu_s": time.thread_time()}
    if setup_only:
        result["facts"] = _blas_facts()
        (rep / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    passes = {}
    for name in plan["passes"]:
        exit_codes, errors = [], []
        started, started_cpu = time.perf_counter(), time.thread_time()
        for call in plan["calls"]:
            out = rep / name / call["out"]
            argv_call = [
                call["verb"],
                "--config", str(ROOT / call["config"]),
                "--seed", str(plan["seed"]),
                "--out", str(out),
                "--threads", "1",
            ]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    exit_codes.append(cli.main(argv_call))
            except Exception:  # a raising call is a failed operation, not a crash
                exit_codes.append(None)
                errors.append(traceback.format_exc())
        passes[name] = {
            "wall_s": time.perf_counter() - started,
            "thread_cpu_s": time.thread_time() - started_cpu,
            "exit_codes": exit_codes,
            "errors": errors,
        }
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache = rep / "cache"
    result["cache_bytes"] = sum(p.stat().st_size for p in cache.rglob("*") if p.is_file())

    if tracer is not None:
        tracer.uninstall()
        import numpy as np

        result["trace"] = tracer.summary()
        np.savez_compressed(rep / "spans.npz", **tracer.span_table())
    (rep / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
