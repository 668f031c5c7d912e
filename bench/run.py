"""Benchmark for thermalcap: end-to-end metrics, or per-layer ones when traced.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run repeats rounds of the
workload until the next round would end after S seconds (at least one
round; with --trace 1 at least one untraced and one traced round, taken
alternately).  Every call into the program runs in its own fresh
process (`worker.py`), one at a time, because every `thermalcap`
invocation pays cold caches and its start-up.  The metric names and
units come from BENCHMARK.json.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it records the machine, the load, the inputs and every
call's timings.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import platform
import shutil
import statistics
import subprocess
import sys
import time

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Layer values combined over a round's calls by maximum; all others are summed.
ROUND_MAXIMA = {
    "fock_oracle.member_dim_max", "fock_oracle.max_tail_bound", "fock_oracle.chi_error_bits",
}
# A run must end within 180 s, so no call starts after this many seconds.
HARD_LIMIT_S = 160.0
# Workers run single-threaded BLAS.  On a shared 2-core machine two BLAS
# threads made the optimize_thermal round time spread 29% from run to run
# (IQR over median, five runs) against 6% with one, and ran no faster.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_ENV = {**os.environ, **{name: "1" for name in BLAS_THREAD_VARS}}


def run_call(workload, seed, index, traced, scratch, timeout) -> dict:
    """Spawn one worker and return its record; failures come back as ok=False."""
    spec = {"workload": workload, "seed": seed, "index": index, "trace": traced,
            "scratch": str(scratch), "spawned": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=WORKER_ENV,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"no result within {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"ok": False}
    if proc.returncode != 0 or not record.get("ok"):
        record["ok"] = False
        record.setdefault("error", f"exit {proc.returncode}: {proc.stderr[-400:]}")
    return record


def measure(workload, seed, seconds, trace, scratch) -> list[dict]:
    """Rounds of calls, as dicts with `traced`, `complete`, `calls`, `duration`."""
    kinds = (False, True) if trace else (False,)
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        traced = kinds[len(rounds) % len(kinds)]
        if len(rounds) >= len(kinds):
            expected = statistics.median(
                r["duration"] for r in rounds if r["traced"] == traced
            )
            if elapsed + expected > min(seconds, HARD_LIMIT_S):
                return rounds
        began = time.monotonic()
        calls = []
        for index in range(inputs.round_size(workload)):
            remaining = HARD_LIMIT_S - (time.monotonic() - start)
            if remaining <= 0.0:
                break
            calls.append(run_call(workload, seed, index, traced, scratch, remaining))
        complete = len(calls) == inputs.round_size(workload) and all(
            c["ok"] for c in calls
        )
        rounds.append({"traced": traced, "complete": complete, "calls": calls,
                       "duration": time.monotonic() - began})
        if time.monotonic() - start >= HARD_LIMIT_S:
            return rounds


def _complete(rounds, traced):
    return [r["calls"] for r in rounds if r["traced"] == traced and r["complete"]]


def _round_wall(calls) -> float:
    return sum(c["wall_s"] for c in calls)


def end_to_end(rounds) -> dict[str, float]:
    complete = _complete(rounds, False)
    calls = [c for r in rounds if not r["traced"] for c in r["calls"] if c["ok"]]
    return {
        "setup_s": statistics.median(c["setup_s"] for c in calls),
        "wall_s": statistics.median(_round_wall(r) for r in complete),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in calls),
        "work_per_s": statistics.median(
            sum(c["work"] for c in r) / _round_wall(r) for r in complete
        ),
        "deficit_bits": statistics.median(
            statistics.fmean(c["deficit_bits"] for c in r) for r in complete
        ),
    }


def per_layer(rounds, names) -> dict[str, float]:
    """Each layer value combined over a round, median over traced rounds."""
    totals = []
    for calls in _complete(rounds, True):
        total: dict[str, float] = {}
        for call in calls:
            for name, value in call["layers"].items():
                if name in ROUND_MAXIMA:
                    total[name] = max(total.get(name, value), value)
                else:
                    total[name] = total.get(name, 0) + value
        totals.append(total)
    values = {name: statistics.median(t.get(name, 0) for t in totals) for name in names}
    values["trace_overhead_s"] = statistics.median(
        _round_wall(r) for r in _complete(rounds, True)
    ) - statistics.median(_round_wall(r) for r in _complete(rounds, False))
    return values


def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "worker_blas_threads": 1,
        "concurrent_processes": 1,
    }


def _summary(rounds) -> list[dict]:
    keep = ("ok", "error", "setup_s", "wall_s", "rss_mb", "work", "deficit_bits")
    return [
        {"traced": r["traced"],
         "calls": [{k: c[k] for k in keep if k in c} for c in r["calls"]]}
        for r in rounds
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "thermalcap" / "__init__.py").is_file():
        print(f"error: no thermalcap source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": inputs.describe(args.workload, args.seed),
              "machine": machine(), "load_before": os.getloadavg()}
    scratch = ROOT / ".bench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        rounds = measure(args.workload, args.seed, args.seconds, args.trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    record["load_after"] = os.getloadavg()
    record["rounds"] = _summary(rounds)
    print(json.dumps(record))

    attempted = sum(len(r["calls"]) for r in rounds)
    failed = sum(not c["ok"] for r in rounds for c in r["calls"])
    kinds = (False, True) if args.trace else (False,)
    if not all(_complete(rounds, traced) for traced in kinds):
        print(f"error: {failed} of {attempted} calls failed; no complete round",
              file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(rounds, [m["name"] for m in wanted])
    else:
        values = end_to_end(rounds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
