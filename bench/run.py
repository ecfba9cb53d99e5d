"""Benchmark for hardylab: one workload per process.

    python3 bench/run.py --workload sample|trial-log|locality|cli-cold
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are setup_s, items_per_s
and peak_rss_mb; with --trace 1 they are the per-layer metrics listed in
bench/README.md, and the spans are written to bench/out/.
"""
from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The sampler's two workers are the only threads allowed to compute.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

from oracle import CheckFailed  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, CliCold, Env  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 2
# On a 2-vCPU virtual machine the rounds of a run's first seconds are slower
# whatever the program, so they are run and checked but not timed.
WARMUP_SECONDS = 2.0


def make_env() -> Env:
    if not (SRC / "hardylab" / "__init__.py").is_file():
        sys.exit(f"error: no hardylab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # locate without importing, so that setup_s still sees the first import
    origin = importlib.util.find_spec("hardylab").origin
    if Path(origin).resolve().parent != SRC / "hardylab":
        sys.exit(f"error: hardylab resolves to {origin}, not {SRC}")
    # cached bytecode, as an installed package has, whatever PYTHONDONTWRITEBYTECODE says
    compileall.compile_dir(SRC / "hardylab", quiet=1)
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return Env(ROOT, out, sys.executable, child_env)


def setup_seconds(workload: str, seed: int, env: Env) -> float:
    """The workload's import and input build, timed in a fresh interpreter."""
    proc = subprocess.run(
        [env.python, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=env.root, env=env.child_env, capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def warm_up(workload) -> tuple[int, int, int]:
    """Run untimed rounds for WARMUP_SECONDS; returns rounds, attempted, failed."""
    attempted = failed = r = 0
    start = time.perf_counter()
    while r < 1 or time.perf_counter() - start < WARMUP_SECONDS:
        result = workload.round(r, NullTracer())
        attempted += result.attempted
        failed += result.failed
        r += 1
    return r, attempted, failed


def measure(workload, seconds: float, setup_probe) -> tuple[int, int, list[float], list[float]]:
    """Timed rounds for `seconds`, with the set-up probes spread over the same
    window so that setup_s sees the same machine as items_per_s."""
    first, attempted, failed = warm_up(workload)
    rates: list[float] = []
    setups: list[float] = []
    tracer = NullTracer()
    start = time.perf_counter()
    r = first
    while r < first + MIN_ROUNDS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_probe())
        result = workload.round(r, tracer)
        attempted += result.attempted
        failed += result.failed
        rates.extend(result.rates)
        r += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe())
    result = workload.finish(tracer)
    return attempted + result.attempted, failed + result.failed, rates, setups


def traced(workload, seconds: float, env: Env, seed: int) -> tuple[int, int, dict]:
    """Alternate untraced and traced rounds of the workload, then trace one
    round of every other workload so that every layer is reported."""
    tracer = Tracer()
    null = NullTracer()
    first, attempted, failed = warm_up(workload)
    first += first % 2  # traced rounds are the odd ones
    rates: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    r = first
    while r < first + 2 * MIN_ROUNDS or r % 2 or time.perf_counter() - start < seconds:
        on = bool(r % 2)
        result = workload.round(r, tracer if on else null)
        attempted += result.attempted
        failed += result.failed
        rates[on].extend(result.rates)
        r += 1
    result = workload.finish(tracer)
    attempted += result.attempted
    failed += result.failed
    overhead = statistics.median(rates[False]) / statistics.median(rates[True]) - 1.0

    ran = {workload.name: workload}
    for name, cls in WORKLOADS.items():
        if name not in ran:
            ran[name] = cls(env, seed, traced=True)
            ran[name].setup()
            ran[name].round(0, tracer)
    ran[CliCold.name].probes(tracer)
    tracer.write(env.out / f"trace-{workload.name}-{seed}.json")
    return attempted, failed, layer_metrics(tracer, 100.0 * overhead)


def layer_metrics(t: Tracer, overhead_pct: float) -> dict:
    metrics = {}
    for model in ("quantum", "realist"):
        for workers in (1, 2):
            metrics[f"experiment.{model}_w{workers}.trials_per_s"] = (
                t.median_ratio("experiment.run_experiment", "trials",
                               model=model, workers=workers), "1/s")
    metrics.update({
        "experiment.compare_tables_us": (1e6 * t.median_seconds("experiment.compare_tables"), "us"),
        "experiment.collect.trials_per_s": (t.median_ratio("experiment.collect", "trials"), "1/s"),
        "cli.simulate_log.trials_per_s": (t.median_ratio("cli.simulate_log", "trials"), "1/s"),
        "cli.log_bytes_per_trial": (t.median_ratio("cli.simulate_log", "bytes", "trials"), "B"),
        "cli.parse_behavior_us": (1e6 * t.median_seconds("cli.parse_behavior"), "us"),
        "qstate.quantum_behavior_us": (1e6 * t.median_seconds("qstate.quantum_behavior"), "us"),
        "locality.membership_local_ms": (
            1e3 * t.median_seconds("locality.local_membership", verdict="feasible"), "ms"),
        "locality.membership_nonlocal_ms": (
            1e3 * t.median_seconds("locality.local_membership", verdict="infeasible"), "ms"),
        "locality.noncontextual_fraction_ms": (
            1e3 * t.median_seconds("locality.noncontextual_fraction"), "ms"),
        "locality.hardy_witness_us": (1e6 * t.median_seconds("locality.hardy_witness"), "us"),
    })
    for name in ("python.bare", "import.qstate", "import.experiment", "import.locality",
                 "import.cli", "cli.tables", "cli.simulate", "cli.interpret",
                 "cli.check_local", "cli.mixture_compare"):
        metrics[f"{name}_s"] = (t.median_seconds(name), "s")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    env = make_env()
    workload = WORKLOADS[args.workload](env, args.seed, traced=bool(args.trace))
    if args.setup_probe:
        t0 = time.perf_counter()
        workload.setup()
        print(time.perf_counter() - t0)
        return 0

    correct = True
    try:
        workload.setup()
        if args.trace:
            attempted, failed, metrics = traced(workload, args.seconds, env, args.seed)
        else:
            attempted, failed, rates, setups = measure(
                workload, args.seconds, lambda: setup_seconds(args.workload, args.seed, env))
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
                "peak_rss_mb": {"value": workload.peak_rss_mb(), "unit": "MB"},
            }
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, attempted, failed, metrics = False, 1, 0, {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
