"""Run the benchmark over many seeds, report its spread, record a point.

    python3 perfbench/trajectory.py --seeds 1-10 [--record LABEL]

For each workload of BENCHMARK.json, runs run.py once per seed with
--trace 0 and twice on seed 1 with --trace 1.  It prints, per end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json,
and checks that the two traced runs agree exactly on every count.  It
also compares each median with the last point of perfbench/trajectory.json;
with --record it appends this series as a new point.  Raw outputs are
kept in .bench_out/series/.  Exits 1 when a spread or a median's change
from the last point exceeds the metric's bound, when a count differs
between the traced runs, or when any check failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RAW = ROOT / ".bench_out" / "series"
TRACED_SEED = 1


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench_once(spec: dict, workload: str, seed: int, trace: int,
               tag: str) -> tuple[dict, dict]:
    """One run of the benchmark command; returns (result, set-up lines)."""
    cmd = [sys.executable, str(ROOT / spec["command"][1]),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    RAW.mkdir(parents=True, exist_ok=True)
    (RAW / f"{workload}-t{trace}-s{seed}{tag}.out").write_text(
        proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    setup = {}
    for line in lines:
        head, _, rest = line.partition(" ")
        if head in ("machine", "threads"):
            setup.update(kv.split("=", 1) for kv in shlex.split(rest))
    return json.loads(lines[-1]), setup


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--record", metavar="LABEL", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    path = BENCH / "trajectory.json"
    points = json.loads(path.read_text()) if path.exists() else []
    last = points[-1]["workloads"] if points else {}
    seeds = parse_seeds(args.seeds)
    point = {"label": args.record,
             "date": datetime.date.today().isoformat(),
             "seconds": spec["run_seconds"], "seeds": seeds,
             "traced_seed": TRACED_SEED, "workloads": {}}
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            result, setup = bench_once(spec, wl, seed, 0, "")
            results.append(result)
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in result["metrics"].items()),
                flush=True)
        traced = [bench_once(spec, wl, TRACED_SEED, 1, f"-{i}")[0]
                  for i in range(2)]
        point.setdefault("setup", setup)

        summary = {"attempted": sum(r["attempted"] for r in results + traced),
                   "failed": sum(r["failed"] for r in results + traced),
                   "end_to_end": {}, "per_layer": {}}
        summary["failed_share"] = summary["failed"] / summary["attempted"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = quartiles([r["metrics"][name]["value"] for r in results])
            stats["unit"] = metric["unit"]
            summary["end_to_end"][name] = stats
            bound = metric["bound"]
            if stats["spread"] < bound / 3:
                verdict = "steady"
            elif stats["spread"] <= bound:
                verdict = "within bound"
            else:
                verdict, ok = "TOO WIDE", False
            line = (f"{wl:10s} {name:12s} median {stats['median']:.4f} "
                    f"{metric['unit']:3s} q1 {stats['q1']:.4f} "
                    f"q3 {stats['q3']:.4f} spread {stats['spread']:.4f} "
                    f"(bound {bound}) {verdict}")
            before = last.get(wl, {}).get("end_to_end", {}).get(name)
            if before:
                change = stats["median"] / before["median"] - 1.0
                worse = change if metric["better"] == "lower" else -change
                ok = ok and worse <= bound
                line += (f"; {change:+.4f} against the last point"
                         + (" WORSE THAN BOUND" if worse > bound else ""))
            print(line)
        mismatched = []
        for name, first in traced[0]["metrics"].items():
            second = traced[1]["metrics"][name]["value"]
            if first["unit"] == "count" and first["value"] != second:
                mismatched.append(f"{name} {first['value']} != {second}")
            value = (first["value"] if first["unit"] == "count"
                     else statistics.median([first["value"], second]))
            summary["per_layer"][name] = {"value": value,
                                          "unit": first["unit"]}
        summary["counts_repeat_exactly"] = not mismatched
        ok = ok and not mismatched and summary["failed"] == 0
        print(f"{wl:10s} failed_share {summary['failed_share']} "
              f"({summary['failed']} of {summary['attempted']}); traced "
              f"counts repeat exactly: {not mismatched} {mismatched}")
        point["workloads"][wl] = summary

    if args.record:
        points.append(point)
        path.write_text(json.dumps(points, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
