"""Benchmark of `nspshock run` through the public pipeline API.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's src/ (no install needed); every process runs with
NSPSHOCK_THREADS=1.  Outputs go to .bench_out/ in the checkout.

--trace 0 measures the end-to-end metrics:
  run_s        median over passes of the summed wall time of the workload's
               pipeline.run calls, in one process, one config at a time;
               passes repeat while another one fits in --seconds
  setup_s      median over fresh interpreters of the time to import
               nspshock.pipeline, load_config and solve_rankine_hugoniot;
               half the interpreters run before the workload process
               and half after it
  peak_rss_mb  peak resident memory of the process that ran the workload,
               up to the end of its first pass (later passes add only
               allocator growth, and how many run depends on machine speed)
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass (see tracer.py) plus the tracing overhead.

Every report is checked by gate.py.  The last line of output is one JSON
object with keys correct, attempted, failed and metrics; the lines before
it repeat the metrics for people, with units, sample counts, the failed
share, the smallest check margin and the machine set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up samples taken before and again after the workload process.  The
# machine's speed drifts over tens of seconds while samples taken back to
# back agree closely, so sampling at two moments steadies the median.
SETUP_SAMPLES_EACH_SIDE = 3
# Children are killed after SETUP_ALLOWANCE_S + DEADLINE_FACTOR * --seconds
# (170 s at --seconds 30).  The workload process runs passes until the next
# would overrun --seconds, so it ends within about twice --seconds; a traced
# run makes one untraced and one traced pass.  The factor leaves room for a
# pass to slow down twofold before a run times out instead of measuring it.
SETUP_ALLOWANCE_S = 50.0
DEADLINE_FACTOR = 4.0

SETUP_SCRIPT = """\
import sys, time
t0 = time.perf_counter()
import nspshock.pipeline as pipeline
config = pipeline.load_config(sys.argv[1])
pipeline.solve_rankine_hugoniot(config.params)
print(repr(time.perf_counter() - t0))
"""


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def child_env() -> dict:
    """Environment of every child: the checkout's src/, one BLAS thread,
    and byte-code caching on, so that set-up time does not depend on
    whether the caller's environment disables it."""
    env = {k: v for k, v in os.environ.items()
           if k not in (*workloads.THREAD_VARS, "PYTHONPATH",
                        "PYTHONDONTWRITEBYTECODE")}
    env["NSPSHOCK_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, *args], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return proc.stdout


def setup_samples(config_path: Path, deadline: float) -> list[float]:
    """setup_s samples, each from a fresh interpreter."""
    return [float(run_child(["-c", SETUP_SCRIPT, str(config_path)],
                            deadline))
            for _ in range(SETUP_SAMPLES_EACH_SIDE)]


def run_worker(plan: dict, name: str, deadline: float) -> dict:
    plan_path = OUT / f"{name}.plan.json"
    result_path = OUT / f"{name}.result.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    result_path.unlink(missing_ok=True)
    run_child([str(BENCH / "worker.py"), str(plan_path), str(result_path)],
              deadline)
    return json.loads(result_path.read_text())


def git_commit() -> str:
    """HEAD of the checkout, read from .git without calling git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def write_configs(workload: str, seed: int) -> list[dict]:
    expected = json.loads((BENCH / "expected.json").read_text())["values"]
    wl_dir = OUT / workload
    items = []
    for i, config in enumerate(workloads.configs(workload, seed)):
        key = workloads.config_key(config)
        if key not in expected:
            raise BenchError(f"no recorded seed values for config {key}")
        out_dir = wl_dir / f"c{i}"
        out_dir.mkdir(parents=True, exist_ok=True)
        path = wl_dir / f"c{i}.json"
        path.write_text(json.dumps(dict(config, out=str(out_dir)),
                                   indent=1, sort_keys=True))
        items.append({"path": str(path), "key": key,
                      "expected": expected[key]})
    return items


def describe(values: list[float]) -> str:
    return (f"median of {len(values)}, "
            f"min {min(values):.4f}, max {max(values):.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = (time.monotonic() + SETUP_ALLOWANCE_S
                + DEADLINE_FACTOR * args.seconds)

    if not (SRC / "nspshock" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'nspshock'}; run "
              "from the root of an nspshock checkout", file=sys.stderr)
        return 2
    try:
        configs = write_configs(args.workload, args.seed)
        plan = {"src": str(SRC), "configs": configs, "trace": 0,
                "seconds": args.seconds if not args.trace else 0}
        if args.trace:
            runs = [run_worker(plan, f"{args.workload}-untraced", deadline)]
            plan.update(trace=1, spans_path=str(
                OUT / f"{args.workload}-seed{args.seed}.spans.npz"))
            runs.append(run_worker(plan, f"{args.workload}-traced",
                                   deadline))
        else:
            setup_config = Path(configs[0]["path"])
            # a discarded warm-up, so that compiling the byte code of a
            # fresh checkout is not timed
            run_child(["-c", SETUP_SCRIPT, str(setup_config)], deadline)
            setup = setup_samples(setup_config, deadline)
            runs = [run_worker(plan, f"{args.workload}-untraced", deadline)]
            setup += setup_samples(setup_config, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    margins = runs[0]["margins"]  # the traced pass repeats the same checks
    untraced = runs[0]
    run_s = [p["run_s"] for p in untraced["passes"]]

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"configs={','.join(c['key'] for c in configs)}")
    print(f"machine nproc={len(os.sched_getaffinity(0))} "
          f"cpu={cpu_model()!r} "
          + " ".join(f"{k}={v}" for k, v in untraced["versions"].items())
          + f" commit={git_commit()}")
    print("threads " + " ".join(f"{k}={v}"
                                for k, v in untraced["threads"].items()))
    if args.trace:
        traced = runs[1]
        trace_s = traced["passes"][0]["run_s"]
        metrics = dict(traced["layers"])
        for task in workloads.ALL_TASKS:
            metrics[f"pipeline.task_s.{task}"] = (
                traced["passes"][0]["task_s"].get(task, 0.0))
        metrics["pipeline.bytes_written"] = (
            traced["passes"][0]["bytes_written"])
        metrics["trace.run_s"] = trace_s
        metrics["trace.untraced_run_s"] = run_s[0]
        metrics["trace.overhead_share"] = trace_s / run_s[0] - 1.0
    else:
        metrics = {"run_s": statistics.median(run_s),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": untraced["passes"][0]["peak_rss_mb"]}
        print(f"run_s          {metrics['run_s']:.4f} s   "
              f"{describe(run_s)} passes")
        print(f"setup_s        {metrics['setup_s']:.4f} s   "
              f"{describe(setup)} fresh interpreters")
        print(f"peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB  "
              "first pass of the workload process")
    if margins:
        if args.trace:
            metrics["pipeline.check_margin_min"] = margins[0][0]
        print("check_margin_min " + "; next ".join(
            f"{m:.4g} of the threshold, {name} at {key}"
            for m, name, key in margins[:3]))
    print(f"failed_share   {len(failures) / attempted:.4g}   "
          f"{len(failures)} of {attempted} checks failed")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    if args.trace:
        for name, value in sorted(metrics.items()):
            print(f"  {name:34s} {value:.6g} {unit(name)}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit(name: str) -> str:
    if name.endswith("_s") or ".task_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "pipeline.bytes_written":
        return "bytes"
    if name.endswith(("_ratio", "_share", "_per_step", "_min")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
