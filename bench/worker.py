"""One benchmark process, started by run.py.

Usage: worker.py WORKLOAD SEED MODE LIMIT [REPORT SPANS]

Modes, each printing JSON event lines on stdout:
  setup  set up, print {"event": "ready", "facts": ...} and exit
         (verify-default: import the CLI's modules only).
  run    set up, print "ready", then run operations in a closed loop until
         LIMIT seconds have passed; print {"event": "result", ...}.
  trace  set up under the tracer, run the first LIMIT operations untraced,
         then the same LIMIT operations traced; print "result" with the
         per-layer totals and write the spans to SPANS.  For verify-default,
         run one traced `bhk run --suite all` writing REPORT instead.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def emit(event, **fields):
    print(json.dumps({"event": event, **fields}), flush=True)


def import_bhk():
    sys.path.insert(0, str(SRC))
    import bhk.report  # noqa: F401  (loads every layer)

    if not Path(bhk.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bhk imported from {bhk.__file__}, not from {SRC}")


def machine_facts():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": os.environ.get("THREADS")}


def run_op(workload, inp):
    """Run one operation; an exception fails it instead of ending the run."""
    try:
        checks = workload.op(inp)
    except Exception:
        traceback.print_exc()
        return False, []
    for c in checks:
        if not c.ok:
            print(f"check {c.name} failed: error ratio {c.ratio:.3g}", file=sys.stderr)
    return all(c.ok for c in checks), checks


def timed_ops(workload, inputs, *, seconds=None, count=None, tracer=None):
    """Closed loop: the next operation starts when the previous one returns."""
    latencies, failed, worst = [], 0, {}
    start = time.perf_counter()
    while (len(latencies) < count if count is not None
           else time.perf_counter() - start < seconds):
        if tracer is not None:
            tracer.op = len(latencies)
        t0 = time.perf_counter()
        ok, checks = run_op(workload, next(inputs))
        latencies.append(time.perf_counter() - t0)
        failed += not ok
        for c in checks:
            worst[c.layer] = max(worst.get(c.layer, 0.0), c.ratio)
    return {"latencies": latencies, "failed": failed, "layer_ratio": worst,
            "loop_s": time.perf_counter() - start}


def verify_default(mode, report_path=None, spans_path=None):
    import_bhk()
    if mode == "setup":
        emit("ready", facts=machine_facts())
        return 0
    import bhk.cli
    from tracer import LAYERS, SUITE_SPANS, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = "report"
    rc = bhk.cli.main(["run", "--suite", "all", "--out", report_path])
    tracer.uninstall()
    tracer.write(spans_path)
    layers, seen = tracer.metrics()
    emit("result", rc=rc, layers=layers,
         missing=[n for n in LAYERS + SUITE_SPANS if n not in seen])
    return 0


def main(argv):
    name, seed, mode, limit = argv[0], int(argv[1]), argv[2], float(argv[3])
    if name == "verify-default":
        return verify_default(mode, *argv[4:6])
    import_bhk()
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        workload = cls(seed)
        tracer.uninstall()
        plain = timed_ops(workload, workload.inputs(), count=int(limit))
        tracer.install()
        traced = timed_ops(workload, workload.inputs(), count=int(limit), tracer=tracer)
        tracer.uninstall()
        tracer.write(argv[5])
        layers, seen = tracer.metrics()
        emit("result", ops=2 * int(limit), failed=plain["failed"] + traced["failed"],
             plain_s=plain["loop_s"], traced_s=traced["loop_s"],
             layer_ratio=traced["layer_ratio"], layers=layers,
             missing=[n for n in cls.layers if n not in seen])
        return 0

    workload = cls(seed)
    if mode == "setup":
        emit("ready", facts=machine_facts())
        return 0
    emit("ready")
    emit("result", **timed_ops(workload, workload.inputs(), seconds=limit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
