"""Benchmark workloads: the configs each one feeds to the pipeline.

Every workload is a list of configs derived from the seed alone, so the
same seed always yields byte-identical config files.  The program sees
only those files; it never learns the workload name or the seed.

reference   the north-star run: all five tasks at (T, nu, eps, v-, u-, v+)
            = (1, 1, 1, 1, 0, 1.1).  The seed has no effect.
sweep       profile, dispersion, transversality and poisson (no Evans) at
            five amplitudes delta = v+ - v- near 0.02 .. 0.19.
evans-wide  all five tasks at one amplitude delta in [0.16, 0.18], where the
            Evans disk is 2.6x wider than at the reference config.

The seed picks each amplitude from a small fixed set, so that the seed
commit's values of the gated quantities can be recorded for every config
the benchmark can generate (see expected.json and gate.py).
"""

from __future__ import annotations

import random

ALL_TASKS = ["profile", "dispersion", "evans", "transversality", "poisson"]
SWEEP_TASKS = ["profile", "dispersion", "transversality", "poisson"]

SWEEP_DELTAS = (0.02, 0.05, 0.10, 0.15, 0.19)
# Relative jitter of each sweep amplitude.  The sweep's cost scales like
# 1/delta (domain length), so an absolute jitter of +-0.005 would move the
# delta = 0.02 point by +-25% of its cost; +-2.5% keeps every move within
# +-0.005 of the nominal amplitude and the workload's cost nearly fixed.
SWEEP_FACTORS = (0.975, 0.9875, 1.0, 1.0125, 1.025)
SWEEP_MAX_DELTA = 0.19
WIDE_DELTAS = (0.16, 0.165, 0.17, 0.175, 0.18)

WORKLOADS = ("reference", "sweep", "evans-wide")

# The thread variables every benchmark process runs with: NSPSHOCK_THREADS
# is set to 1, and nspshock derives the BLAS pool sizes from it.
THREAD_VARS = ("NSPSHOCK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _config(delta: float, tasks: list[str]) -> dict:
    return {
        "params": {"T": 1.0, "nu": 1.0, "eps": 1.0, "v_minus": 1.0,
                   "u_minus": 0.0, "v_plus": round(1.0 + delta, 6)},
        "tasks": list(tasks),
        "numerics": {"n_circle": 32},
    }


def _sweep_delta(nominal: float, factor: float) -> float:
    return min(SWEEP_MAX_DELTA, round(nominal * factor, 6))


def configs(workload: str, seed: int) -> list[dict]:
    """The configs of one workload pass, in the order they are run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reference":
        return [_config(0.1, ALL_TASKS)]
    if workload == "sweep":
        return [_config(_sweep_delta(d, rng.choice(SWEEP_FACTORS)),
                        SWEEP_TASKS) for d in SWEEP_DELTAS]
    if workload == "evans-wide":
        return [_config(rng.choice(WIDE_DELTAS), ALL_TASKS)]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


def all_configs() -> list[dict]:
    """Every config any seed can generate, for recording expected values."""
    out = [_config(0.1, ALL_TASKS)]
    out += [_config(d, ALL_TASKS) for d in WIDE_DELTAS]
    deltas = sorted({_sweep_delta(d, f)
                     for d in SWEEP_DELTAS for f in SWEEP_FACTORS})
    out += [_config(d, SWEEP_TASKS) for d in deltas]
    return out


def config_key(config: dict) -> str:
    """Identifies a config in expected.json: its v+ and whether Evans runs."""
    evans = "evans" in config["tasks"]
    return f"v_plus={config['params']['v_plus']:.6f}" + (
        ",evans" if evans else "")
