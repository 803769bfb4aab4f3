"""Benchmark for bhk: time to a verified result, throughput, memory and accuracy.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
Every workload is a closed loop: one client in one process, the next
operation sent when the previous one has returned.

  verify-default   one operation is one `python -m bhk.cli run --suite all`
                   at the built-in config, in a fresh process.  A new report
                   starts only if it is expected to end within --seconds, so
                   a run makes at least one.  The CLI fixes its own inputs:
                   the seed has no effect.
  spectral-n3      Fourier-Bessel pair and spectral Riesz transform at n = 3
                   on seeded anisotropic Gaussians (bench/workloads.py).
  shift-pointwise  many small generalized shifts over a seeded pool of gamma
                   vectors (bench/workloads.py).

With --trace 0 the last line of stdout carries the end-to-end metrics; with
--trace 1 a separate traced run gives the per-layer metrics.  The line before
it is a detail record.  Each child process runs with BLAS pinned to one
thread through the THREADS override the CLI honours.  Reports, spans and the
report digest kept between runs go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify-default", "spectral-n3", "shift-pointwise")
THREADS = 1
BUDGET_S = 170.0        # a run must end within 180 s
SETUPS = 8              # extra cold processes per run whose set-up is timed
TRACE_OPS = {"spectral-n3": 30, "shift-pointwise": 60}
LAYER_OF_SUITE = {"special": "special", "shift": "shift", "transform": "transform",
                  "mean-value": "meanvalue", "pizzetti": "meanvalue",
                  "riesz": "riesz", "estimates": "riesz"}
ERR_LAYERS = ("special", "shift", "transform", "meanvalue", "riesz")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


@dataclass
class Child:
    events: list      # (seconds since spawn, event dict)
    rc: int
    rss_mb: float     # this child's own peak RSS, from wait4
    wall_s: float

    def event(self, name):
        for t, ev in self.events:
            if ev.get("event") == name:
                return t, ev
        raise BenchError(f"child exited with {self.rc} before its {name!r} event")


class Run:
    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.perf_counter() + BUDGET_S
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                    "THREADS": str(THREADS), "OMP_NUM_THREADS": str(THREADS),
                    "OPENBLAS_NUM_THREADS": str(THREADS), "MKL_NUM_THREADS": str(THREADS)}

    def remaining(self):
        return self.deadline - time.perf_counter()

    def child(self, args, *, python_args=(), capture=True) -> Child:
        """Run one process to completion, killing it at the run's deadline."""
        cmd = [sys.executable, *python_args, *map(str, args)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
        timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
        timer.start()
        events = []
        try:
            if capture:
                for line in proc.stdout:
                    if line.startswith('{"event"'):
                        events.append((time.perf_counter() - start, json.loads(line)))
                proc.stdout.close()
            # RUSAGE_CHILDREN would keep the maximum over every child so far
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(events, proc.returncode, usage.ru_maxrss / 1024.0,
                     time.perf_counter() - start)

    def worker(self, mode, limit, *extra) -> Child:
        return self.child([WORKER, self.workload, self.seed, mode, limit, *extra])

    def setups(self):
        """Seconds from spawn to ready of SETUPS cold processes, and machine facts."""
        ready = []
        for _ in range(SETUPS):
            t, ev = self.worker("setup", 0).event("ready")
            ready.append(t)
        return ready, ev["facts"]


def tail(values):
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples); with fewer than eleven samples it
    is the maximum, at percentile 100.
    """
    s = sorted(values)
    k = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def read_report(path: Path, rc: int):
    """Rows, failed rows, sha256 and per-layer error ratios of one CLI run.

    None when no report was written.  A report whose summary or exit code
    disagrees with its rows counts every row as failed.  Error ratios use
    only rows with tol > 0 whose `pass` is the tolerance rule's verdict.
    """
    try:
        data = path.read_bytes()
        report = json.loads(data)
        rows = report["rows"]
    except (OSError, ValueError, KeyError):
        return None
    failed = sum(not r["pass"] for r in rows)
    summary = {"total": len(rows), "passed": len(rows) - failed, "failed": failed}
    if report.get("summary") != summary or rc != (1 if failed else 0):
        failed = len(rows)
    ratios = {}
    for r in rows:
        if r["tol"] > 0 and r["pass"] == (r["abs_err"] <= r["tol"] * r["scale"]):
            layer = LAYER_OF_SUITE[r["suite"]]
            ratios[layer] = max(ratios.get(layer, 0.0),
                                r["abs_err"] / (r["tol"] * r["scale"]))
    return {"rows": len(rows), "failed": failed,
            "sha256": hashlib.sha256(data).hexdigest(), "layer_ratio": ratios}


def reference_sha(report):
    """The report digest every run of this source tree must reproduce.

    The first complete report of a source tree sets it; it is kept in
    .bench_out/ so that later runs in the same checkout compare against it.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bhk").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    store = OUT / "verify-default-sha256.json"
    try:
        kept = json.loads(store.read_text())
    except (OSError, ValueError):
        kept = {}
    if kept.get("source") != digest.hexdigest() and report is not None:
        kept = {"source": digest.hexdigest(), "report": report["sha256"]}
        store.write_text(json.dumps(kept))
    return kept.get("report")


def account_reports(reports):
    """(attempted, failed) rows over reports that must be byte-identical.

    A crashed run counts as many failed rows as a complete report has.
    """
    done = [r for r in reports if r is not None]
    reference = reference_sha(done[0] if done else None)
    rows = done[0]["rows"] if done else 1
    attempted = failed = 0
    for r in reports:
        if r is None:
            attempted += rows
            failed += rows
        else:
            attempted += r["rows"]
            failed += r["rows"] if r["sha256"] != reference else r["failed"]
    return attempted, failed


def cli_report(run: Run, name: str):
    path = OUT / f"verify-default-{name}.json"
    path.unlink(missing_ok=True)
    c = run.child(["run", "--suite", "all", "--out", path],
                  python_args=("-m", "bhk.cli"), capture=False)
    return c, read_report(path, c.rc)


def verify_default(run: Run, trace: bool):
    if trace:
        plain, plain_report = cli_report(run, "report")
        path = OUT / "verify-default-traced.json"
        path.unlink(missing_ok=True)
        traced = run.worker("trace", 0, path, OUT / "spans-verify-default.json")
        _, result = traced.event("result")
        if result["missing"]:
            raise BenchError(f"no spans recorded for {result['missing']}")
        traced_report = read_report(path, result["rc"])
        attempted, failed = account_reports([plain_report, traced_report])
        metrics = per_layer(result["layers"],
                            traced_report["layer_ratio"] if traced_report else {},
                            traced.wall_s / plain.wall_s - 1)
        detail = {"traced_wall_s": traced.wall_s, "untraced_wall_s": plain.wall_s}
        return attempted, failed, metrics, detail

    ready, facts = run.setups()
    walls, rss, reports = [], [], []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start + walls[-1] <= run.seconds
                        and run.remaining() > 2 * walls[-1]):
        c, report = cli_report(run, "report")
        walls.append(c.wall_s)
        rss.append(c.rss_mb)
        reports.append(report)
    attempted, failed = account_reports(reports)
    tail_s, pct, n = tail(walls)
    metrics = {"setup_s": statistics.median(ready), "ops_per_s": len(walls) / sum(walls),
               "op_p50_ms": 1e3 * statistics.median(walls), "op_tail_ms": 1e3 * tail_s,
               "peak_rss_mb": statistics.median(rss)}
    detail = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
              "worst_err_ratio": max((max(r["layer_ratio"].values())
                                      for r in reports if r), default=0.0),
              "tail_percentile": pct, "samples": n, "facts": facts,
              "report_sha256": sorted({r["sha256"] for r in reports if r})}
    return attempted, failed, metrics, detail


def loop_workload(run: Run, trace: bool):
    if trace:
        c = run.worker("trace", TRACE_OPS[run.workload], "-",
                       OUT / f"spans-{run.workload}.json")
        _, result = c.event("result")
        if result["missing"]:
            raise BenchError(f"no spans recorded for {result['missing']}")
        metrics = per_layer(result["layers"], result["layer_ratio"],
                            result["traced_s"] / result["plain_s"] - 1)
        return result["ops"], result["failed"], metrics, {
            "traced_s": result["traced_s"], "untraced_s": result["plain_s"]}

    ready, facts = run.setups()
    c = run.worker("run", run.seconds)
    ready.append(c.event("ready")[0])
    _, result = c.event("result")
    lat = result["latencies"]
    tail_s, pct, n = tail(lat)
    metrics = {"setup_s": statistics.median(ready), "ops_per_s": len(lat) / result["loop_s"],
               "op_p50_ms": 1e3 * statistics.median(lat), "op_tail_ms": 1e3 * tail_s,
               "peak_rss_mb": c.rss_mb}
    detail = {"worst_err_ratio": max(result["layer_ratio"].values(), default=0.0),
              "tail_percentile": pct, "samples": n, "facts": facts}
    return len(lat), result["failed"], metrics, detail


def per_layer(layers, layer_ratio, overhead):
    out = dict(layers)
    for layer in ERR_LAYERS:
        out[f"{layer}.err_ratio"] = layer_ratio.get(layer, 0.0)
    out["trace.overhead_frac"] = overhead
    return out


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith(("_frac", "_ratio")) else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bhk" / "__init__.py").is_file():
        print(f"bench: no bhk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds)
    body = verify_default if args.workload == "verify-default" else loop_workload
    try:
        attempted, failed, metrics, detail = body(run, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("detail: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                   "trace": args.trace, "threads": THREADS,
                                   "fail_frac": failed / attempted, **detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
