"""Workload process: runs one workload's configs through the public API.

    python3 perfbench/worker.py PLAN.json RESULT.json

run.py starts this in a fresh interpreter with NSPSHOCK_THREADS=1 and the
checkout's src/ on PYTHONPATH, and reads RESULT.json when it exits.  The
plan names the config files, how long to keep running passes over them,
and whether to trace.  One caller, one config at a time (a closed loop):
each pass runs load_config -> run -> write_report on every config in turn.
Every report is put through the correctness gate.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

# nspshock must load before numpy so NSPSHOCK_THREADS caps the BLAS pools.
import nspshock
from nspshock import pipeline

import numpy
import scipy

import gate
from tracer import Tracer, per_layer_metrics
from workloads import THREAD_VARS


def run_pass(plan: dict, tracer: Tracer | None, tally: dict) -> dict:
    """One pass over the plan's configs; returns its timings."""
    run_s, task_s, written = 0.0, {}, 0
    for i, item in enumerate(plan["configs"]):
        if tracer is not None:
            tracer.current_run = i
        config = pipeline.load_config(item["path"])
        t0 = time.perf_counter()
        report = pipeline.run(config)
        run_s += time.perf_counter() - t0
        out_dir = Path(config.out_dir)
        pipeline.write_report(report, out_dir / "report.json")
        for task, secs in report["timings"].items():
            task_s[task] = task_s.get(task, 0.0) + secs
        written += sum(f.stat().st_size for f in out_dir.iterdir())

        items = gate.gate(report, list(config.tasks), item["expected"])
        tally["attempted"] += len(items)
        for name, ok, detail in items:
            if not ok:
                tally["failures"].append(f"{item['key']} {name}: {detail}")
        for margin, name in gate.check_margins(report):
            if margin < tally["margins"].get(name, (float("inf"),))[0]:
                tally["margins"][name] = (margin, name, item["key"])
    # ru_maxrss only grows, so read after a pass it is the peak so far
    return {"run_s": run_s, "task_s": task_s, "bytes_written": written,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    if src not in Path(nspshock.__file__).resolve().parents:
        raise SystemExit(f"imported nspshock from {nspshock.__file__}, "
                         f"not from {src}")
    tally = {"attempted": 0, "failures": [], "margins": {}}
    tracer = Tracer() if plan["trace"] else None
    passes = []
    t_start = time.perf_counter()
    if tracer is not None:
        tracer.install()
        try:
            passes.append(run_pass(plan, tracer, tally))
        finally:
            tracer.uninstall()
    else:
        # keep passing over the configs while another pass fits the budget
        while True:
            passes.append(run_pass(plan, None, tally))
            elapsed = time.perf_counter() - t_start
            if elapsed + passes[-1]["run_s"] > plan["seconds"]:
                break

    result = {
        "passes": passes,
        "attempted": tally["attempted"],
        "failures": tally["failures"],
        "margins": sorted(tally["margins"].values()),
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    if tracer is not None:
        result["layers"] = per_layer_metrics(tracer.layer_totals(),
                                             tracer.counts)
        tracer.save(plan["spans_path"])
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
