"""One benchmark operation in a fresh process.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON names the workload, seed, the operation's index in its round,
whether to trace, the `time.monotonic()` reading taken just before this
process was spawned, and a scratch directory.  The worker imports
`thermalcap` from the checkout's `src`, builds its input from the seed,
times one call into the program, checks the output, and prints one JSON
line: timings, peak RSS, work done, accuracy and, when traced, layer
counters.  A failed check or an exception is reported as `"ok": false`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from pathlib import Path
import random
import resource
import sys
import time
import traceback

import inputs

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

LN2 = math.log(2.0)
SWEEP_HEADER = [
    "lambda", "n_env", "n_signal", "lower_bits", "upper_bits", "gap_bits",
    "refined_gap_bound_bits", "certified",
]
ORDER_TOL = 1e-10  # the program's own certification tolerance, in bits
PLAIN_G_TOL = 1e-9  # bits; the plain formula keeps ~1e-11 on [1e-4, 1e4]
PLAIN_G_SAMPLE = 200


class CheckFailed(Exception):
    pass


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def plain_g(x: float) -> float:
    """(x+1) ln(x+1) - x ln x, written out directly, independent of gfunc."""
    return (x + 1.0) * math.log(x + 1.0) - x * math.log(x) if x > 0.0 else 0.0


def _timed(tracer, call):
    """Run call() under the tracer, if any: (result, monotonic start, wall).

    `call` looks the program's function up when it runs, so that it finds
    the tracer's wrapper.
    """
    with tracer or contextlib.nullcontext():
        start = time.monotonic()
        t0 = time.perf_counter()
        result = call()
        wall = time.perf_counter() - t0
    return result, start, wall


# ---------------------------------------------------------------------------
# workloads: each returns (start, wall_s, rss_mb, work, deficit_bits, layers)


def run_sweep(tc, tracer, seed, scratch):
    lam, ne, n = inputs.sweep_axes(seed)
    out = os.path.join(scratch, f"sweep-{os.getpid()}.csv")
    argv = ["sweep", "--lambda", lam, "--ne", ne, "--n", n, "--out", out]
    code, start, wall = _timed(tracer, lambda: tc.cli.main(argv))
    rss = _rss_mb()
    try:
        size = os.path.getsize(out)
        rows, gap_sum = _check_sweep(code, out, seed)
    finally:
        if os.path.exists(out):
            os.remove(out)
    return start, wall, rss, rows, gap_sum / rows, {"cli.bytes_out": size}


def _check_sweep(code, path, seed):
    _check(code == 0, f"sweep exited with {code}")
    expected = math.prod(inputs.SWEEP_COUNTS)
    moderate = []
    gap_sum = 0.0
    with open(path, newline="", encoding="ascii") as handle:
        reader = csv.reader(handle)
        _check(next(reader) == SWEEP_HEADER, "unexpected CSV header")
        count = 0
        for count, row in enumerate(reader, 1):
            lam, ne, n, lower, upper, gap, refined = map(float, row[:7])
            _check(row[7] == "true", f"row {count} not certified")
            _check(lower <= upper + ORDER_TOL, f"row {count}: lower > upper")
            _check(gap <= refined + ORDER_TOL, f"row {count}: gap > refined bound")
            _check(refined <= 1.0 / LN2 + ORDER_TOL, f"row {count}: refined > 1/ln 2")
            gap_sum += gap
            y = (1.0 - lam) * ne
            if all(1e-4 <= v <= 1e4 for v in (y, lam * n + y, lam * n / (y + 1.0))):
                moderate.append((lam, ne, n, lower, upper))
    _check(count == expected, f"{count} rows, expected {expected}")
    _check(len(moderate) >= PLAIN_G_SAMPLE, "too few moderate rows to sample")
    for lam, ne, n, lower, upper in random.Random(seed).sample(moderate, PLAIN_G_SAMPLE):
        y = (1.0 - lam) * ne
        want_lower = (plain_g(lam * n + y) - plain_g(y)) / LN2
        want_upper = plain_g(lam * n / (y + 1.0)) / LN2
        _check(
            abs(lower - want_lower) <= PLAIN_G_TOL
            and abs(upper - want_upper) <= PLAIN_G_TOL,
            f"row ({lam!r}, {ne!r}, {n!r}) disagrees with the plain entropy formula",
        )
    return count, gap_sum


def run_oracle(tc, tracer, seed, index):
    lam, ne, n = inputs.oracle_points(seed)[index]
    params = tc.gaussian_core.ChannelParams(transmissivity=lam, environment_photons=ne)
    grid = tc.fock_oracle.GridSpec()
    chi_report, start, wall = _timed(
        tracer,
        lambda: tc.fock_oracle.gaussian_ensemble_report(
            params, n, grid, inputs.ORACLE_DIM_CAP
        ),
    )
    rss = _rss_mb()
    lower = tc.bounds.holevo_lower(params, n)
    # The pass rules of `thermalcap oracle`.
    _check(abs(chi_report.chi_bits - lower) <= 1e-3, "oracle chi disagrees with holevo_lower")
    env_entropy = plain_g((1.0 - lam) * ne)
    spread = max(abs(s - env_entropy) for s in chi_report.member_entropies_nats)
    _check(spread <= 1e-6, f"member entropy spread {spread:.3e} nats")
    radii = {round(abs(a), 12) for a in chi_report.alphas}
    layers = {
        "fock_oracle.nodes": len(chi_report.alphas),
        "fock_oracle.distinct_radii": len(radii),
        "fock_oracle.member_dim_max": int(chi_report.member_dims.max()),
        "fock_oracle.member_dim_sum": int(chi_report.member_dims.sum()),
        "fock_oracle.max_tail_bound": float(chi_report.max_tail_bound),
        "fock_oracle.chi_error_bits": abs(chi_report.chi_bits - lower),
    }
    # chi - lower is ~1e-9 and varies by tens of percent over the box, so the
    # end-to-end accuracy figure is the distance to the upper bound instead.
    deficit = tc.bounds.additive_extension_upper(params, n) - chi_report.chi_bits
    return start, wall, rss, len(chi_report.alphas), deficit, layers


def run_optimize(tc, tracer, workload, seed, index):
    lam, ne, n = inputs.OPTIMIZE_POINTS[workload]
    params = tc.gaussian_core.ChannelParams(transmissivity=lam, environment_photons=ne)
    config = tc.chi_opt.OptimizerConfig(
        seed=inputs.optimizer_seed(seed, index), max_iterations=inputs.OPTIMIZE_SWEEPS
    )
    result, start, wall = _timed(tracer, lambda: tc.chi_opt.optimize(params, n, config))
    rss = _rss_mb()
    history = [chi for _, chi in result.history]
    _check(all(b >= a for a, b in zip(history, history[1:])), "history decreases")
    upper = tc.bounds.additive_extension_upper(params, n)
    _check(result.best_chi_bits <= upper + 1e-6, "best chi above the upper bound")
    _check(result.ensemble.mean_photons <= n + 1e-9, "ensemble over the photon budget")
    if ne == 0.0:
        reference = tc.bounds.pure_loss_capacity(lam, n)  # exact capacity
    else:
        reference = tc.bounds.holevo_lower(params, n)
    deficit = reference - result.best_chi_bits
    _check(ne > 0.0 or deficit >= -1e-9, f"chi above the pure-loss capacity by {-deficit:.3e}")
    layers = {"chi_opt.sweeps": result.iterations}
    if tracer is not None:
        # Every channel application after the initial members is a proposed move.
        applied = tracer.stats["fock_oracle.apply_channel"][0]
        layers["chi_opt.moves_proposed"] = applied - config.ensemble_size
    return start, wall, rss, result.iterations, deficit, layers


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(spec: dict) -> dict:
    import thermalcap as tc
    from thermalcap import bounds, chi_opt, cli, fock_oracle, gaussian_core, gfunc  # noqa: F401

    if Path(tc.__file__).resolve().parent != SRC / "thermalcap":
        raise RuntimeError(f"imported thermalcap from {tc.__file__}, not the checkout")
    workload, seed, index = spec["workload"], spec["seed"], spec["index"]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, targets

        tracer = Tracer(targets(tc))
    if workload == "sweep":
        outcome = run_sweep(tc, tracer, seed, spec["scratch"])
    elif workload == "oracle":
        outcome = run_oracle(tc, tracer, seed, index)
    else:
        outcome = run_optimize(tc, tracer, workload, seed, index)
    start, wall, rss, work, deficit, layers = outcome
    if tracer is not None:
        layers.update(tracer.metrics())
    return {
        "ok": True,
        "setup_s": start - spec["spawned"],
        "wall_s": wall,
        "rss_mb": rss,
        "work": work,
        "deficit_bits": deficit,
        "layers": layers,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        result = run(spec)
    except Exception as exc:  # reported to the parent as one failed operation
        traceback.print_exc()
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
