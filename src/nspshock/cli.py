"""Command-line front end.

    nspshock run --config cfg.json [--tasks profile,dispersion,...] [--out dir]

Exit status: 0 when every selected check passes, 1 when a task fails
(the report is still written), 2 on configuration errors.  Set
NSPSHOCK_THREADS to cap the linear-algebra thread pools; it overrides
the four BLAS thread variables (OMP_, OPENBLAS_, MKL_, NUMEXPR_NUM_THREADS)
and only sizes the pools: the report is the same at any thread count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .pipeline import TASKS, ConfigError, load_config, run, write_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nspshock",
        description="Spectral-stability checks for small-amplitude "
                    "plasma shock profiles.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute the verification pipeline")
    runp.add_argument("--config", required=True, help="JSON config path")
    runp.add_argument("--tasks", default=None,
                      help="comma-separated subset of: " + ", ".join(TASKS))
    runp.add_argument("--out", default=None,
                      help="output directory (default from config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, tasks=args.tasks, out_dir=args.out)
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    write_report(report, Path(config.out_dir) / "report.json")
    for name in config.tasks:
        entry = report["tasks"][name]
        line = f"{name:15s}{'pass' if entry['passed'] else 'FAIL'}"
        if "error" in entry:
            line += f"  ({entry['error']})"
        print(line)
    print(f"{'overall':15s}{'pass' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
