"""Self-test of the benchmark itself, not of thermalcap.

Usage: python3 bench/selftest.py

Checks that seeds map to inputs deterministically, that no oracle input
the seeds can produce hits the truncation budget (`BudgetError`), that
the tracer restores every name it patches and attributes calls as
documented, and that the benchmark refuses to run without the program's
source.  Takes about 20 seconds; exits 1 on the first failed check.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
import shutil
import subprocess
import sys

import inputs
from tracer import Tracer, targets

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import thermalcap as tc  # noqa: E402
from thermalcap import bounds, chi_opt, cli, fock_oracle, gaussian_core, gfunc  # noqa: E402,F401

SEEDS = list(range(50)) + [2**31 - 1, 10**12]


class SelfTestError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestError(message)


def check_inputs_deterministic() -> None:
    for workload, seed in itertools.product(inputs.WORKLOADS, SEEDS):
        first = json.dumps(inputs.describe(workload, seed))
        require(first == json.dumps(inputs.describe(workload, seed)),
                f"{workload} seed {seed}: inputs differ between calls")
    for workload in ("sweep", "oracle"):
        distinct = {json.dumps(inputs.describe(workload, s)) for s in SEEDS}
        require(len(distinct) == len(SEEDS), f"{workload}: two seeds share inputs")


def check_oracle_budget() -> None:
    """No seed's oracle point, nor any box corner, raises BudgetError.

    The grid checks depend on N alone, and the per-node and joint cutoffs
    on N and N_E alone, each growing with them; lambda enters no budget.
    So every point passes if the grid passes at every point and the full
    report passes at the corners with the largest N and N_E.
    """
    corners = list(itertools.product(*inputs.ORACLE_BOX))
    points = corners + [p for s in SEEDS for p in inputs.oracle_points(s)]
    for lam, ne, n in points:
        require(all(lo <= v <= hi for v, (lo, hi) in zip((lam, ne, n), inputs.ORACLE_BOX)),
                f"oracle point {(lam, ne, n)} outside the box")
        fock_oracle.GridSpec().nodes(n)
    ne_hi, n_hi = inputs.ORACLE_BOX[1][1], inputs.ORACLE_BOX[2][1]
    for lam in inputs.ORACLE_BOX[0]:
        params = gaussian_core.ChannelParams(transmissivity=lam, environment_photons=ne_hi)
        fock_oracle.gaussian_ensemble_report(
            params, n_hi, fock_oracle.GridSpec(), inputs.ORACLE_DIM_CAP
        )


def _bindings(rows):
    return [(owner, attr, getattr(owner, attr)) for *_, owners, attr, _ in rows
            for owner in owners]


def check_tracer() -> None:
    rows = targets(tc)
    before = _bindings(rows)
    params = gaussian_core.ChannelParams(transmissivity=0.5, environment_photons=1.0)
    with Tracer(rows) as tracer:
        require(all(getattr(o, a) is not f for o, a, f in before), "a name was not patched")
        bounds.report(params, 2.0)
        fock_oracle.von_neumann_entropy(fock_oracle.thermal_state(0.5, 8))
        numpy.linalg.eigvalsh(numpy.eye(3))
    require(all(getattr(o, a) is f for o, a, f in before), "a name was not restored")
    got = tracer.metrics()
    want = {
        "gfunc.calls": 5, "bounds.report.calls": 1,
        "fock_oracle.von_neumann_entropy.calls": 1,
        "fock_oracle.eigvalsh.calls": 1, "fock_oracle.eigvalsh.n3": 8**3,
        "numpy.eigvalsh.calls": 1,
    }
    for name, value in want.items():
        require(got.get(name) == value, f"{name} = {got.get(name)}, expected {value}")
    require(got["bounds.report.self_s"] >= 0.0, "negative self time")

    try:
        with Tracer(rows):
            raise KeyError("raised inside the traced block")
    except KeyError:
        pass
    require(all(getattr(o, a) is f for o, a, f in before), "not restored after an error")


def check_refuses_without_source() -> None:
    """Run from a directory holding only BENCHMARK.json and the benchmark."""
    bare = ROOT / ".bench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a run in progress still uses it
    require(proc.returncode != 0 and not proc.stdout.strip(),
            f"exit {proc.returncode} with output {proc.stdout!r}")


def main() -> int:
    for check in (check_inputs_deterministic, check_tracer,
                  check_refuses_without_source, check_oracle_budget):
        try:
            check()
        except (SelfTestError, fock_oracle.BudgetError) as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
