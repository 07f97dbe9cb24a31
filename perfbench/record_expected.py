"""Record the gated values of every config the workloads can generate.

    NSPSHOCK_THREADS=1 PYTHONPATH=src python3 perfbench/record_expected.py

Runs each config of workloads.all_configs() once and writes
perfbench/expected.json: for each config key, the values gate.py compares
against (theta0 and xi0, plus Gamma and the Cauchy D'(0) where Evans runs).
Run it only on the commit the benchmark should hold later commits to; the
file in the repository was recorded at the seed commit named inside it.
It refuses to record from a report that fails its own checks.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from nspshock import pipeline

import gate
import workloads
from run import git_commit

BENCH = Path(__file__).resolve().parent


def main() -> int:
    values = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for i, config in enumerate(workloads.all_configs()):
            key = workloads.config_key(config)
            path = Path(tmp) / f"c{i}.json"
            path.write_text(json.dumps(dict(config, out=str(Path(tmp) / "o"))))
            report = pipeline.run(pipeline.load_config(path))
            if not report["passed"]:
                print(f"{key}: report failed; not recording", file=sys.stderr)
                return 1
            values[key] = gate.gated_values(report)
            print(key, values[key], flush=True)
    out = {"commit": git_commit(), "rel_tol": gate.REL_TOL,
           "values": values}
    (BENCH / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
