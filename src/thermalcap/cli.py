"""Command-line surface for the capacity-bound toolkit.

Five subcommands: `bounds` prints the certified interval for one
parameter triple, `sweep` writes the same over a parameter grid as CSV
or JSON, `verify` runs the library's invariant suites, `oracle`
reproduces the closed-form lower bound in truncated Fock space, and
`optimize` searches coherent-ring ensembles for the best Holevo quantity.

`sweep` checks every grid axis against the bounds' domain first, then
writes each row as it is computed, straight from the bounds' interval
kernel, so its memory does not depend on the number of rows, a row is
validated once, and a sweep that fails writes nothing.  Every `--out`
(a path, or "-" for stdout) is opened by `_open_out`, before any
search or row is computed.

Exit codes: 0 success / certified, 1 usage or domain error,
2 certification failure, 3 verification failure, 4 optimizer stopped
at the iteration cap.
"""

from __future__ import annotations

import argparse
from collections.abc import Iterator
import contextlib
from dataclasses import asdict, dataclass
import json
import math
import os
import sys
import time

import numpy as np

from . import _BLAS_VARIABLES, gfunc
from .gaussian_core import (
    AmplifierParams,
    ChannelParams,
    apply_amplifier,
    apply_thermal,
    decompose,
    mean_photons,
    random_covariance,
    thermal_covariance,
)
from .bounds import (
    LN2,
    UNIVERSAL_GAP_BITS,
    _check_signal,
    _interval,
    _validate,
    additive_extension_upper,
    holevo_lower,
    pure_loss_capacity,
    report,
)
from .fock_oracle import (
    DEFAULT_CHI_DIM_CAP,
    BudgetError,
    _thermal_cutoff,
    coherent_state,
    gaussian_ensemble_report,
    thermal_entropy_tail,
    thermal_state,
    verify_decomposition_fock,
    von_neumann_entropy,
)
from .chi_opt import OptimizerConfig, optimize

__all__ = ["main"]

DEFAULT_SEED = 7

SWEEP_COLUMNS = (
    "lambda",
    "n_env",
    "n_signal",
    "lower_bits",
    "upper_bits",
    "gap_bits",
    "refined_gap_bound_bits",
    "certified",
)


# Largest spread of the oracle's member output entropies (nats) that
# still counts as the displacement independence the channel guarantees.
_ENTROPY_SPREAD_TOL = 1e-6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Exit-code contract reserves 1 for usage errors; argparse's default
    # error() would exit 2, which is taken by certification failure.
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class CheckResult:
    """One named invariant check: worst discrepancy against its tolerance."""

    name: str
    discrepancy: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.discrepancy <= self.tolerance


# ---------------------------------------------------------------------------
# verify suites


def _fd(func, x: float, h: float) -> float:
    return (func(x + h) - func(x - h)) / (2.0 * h)


def _suite_gfunc(seed: int) -> Iterator[list[CheckResult]]:
    del seed  # fixed grids; the entropy function has no randomized checks
    frozen = {
        0.2: 0.54067345063956563,
        0.5: 0.95477125244221923,
        1.0: 1.3862943611198906,
        2.0: 1.9095425048844385,
        10.0: 3.3509970708416191,
    }
    worst = max(abs(gfunc.g(x) - v) / v for x, v in frozen.items())
    worst = max(worst, abs(gfunc.delta(1.0, 1.0) - 0.43152310867767139))
    worst = max(worst, abs(gfunc.delta_limit(1.0) - math.log(2.0)))
    yield [CheckResult("gfunc.frozen-values", worst, 1e-13)]

    # Second-derivative magnitudes reach ~1e2 at the low end of the grid,
    # where the centered-difference Taylor remainder of the fixed step
    # already exceeds 1e-6; normalizing by max(1, |derivative|) keeps the
    # check meaningful across scales while still catching any sign or
    # coefficient error.
    xs = np.geomspace(0.01, 100.0, 41)
    worst = 0.0
    for x in xs:
        h = 1e-5 * max(1.0, x)
        worst = max(worst, abs(_fd(gfunc.g, x, h) - gfunc.g_prime(x)))
        second = gfunc.g_second(x)
        worst = max(
            worst,
            abs(_fd(gfunc.g_prime, x, h) - second) / max(1.0, abs(second)),
        )
        for y in (0.1, 1.0, 10.0):
            fd = _fd(lambda t: gfunc.delta(y, t), x, h)
            worst = max(worst, abs(fd - gfunc.delta_prime(y, x)))
    yield [CheckResult("gfunc.derivative-fd", worst, 1e-6)]

    violation = 0.0
    xs = np.geomspace(1e-9, 1e9, 200)
    gs = np.array([gfunc.g(x) for x in xs])
    violation = max(violation, float(-(gs.min())))
    violation = max(violation, float(-np.diff(gs).min()))
    mids = np.array([gfunc.g(0.5 * (a + b)) for a, b in zip(xs[:-1], xs[1:])])
    violation = max(violation, float(-(mids - 0.5 * (gs[:-1] + gs[1:])).min()))
    for y in (0.01, 0.1, 1.0, 10.0, 100.0):
        limit = gfunc.delta_limit(y)
        violation = max(violation, limit - 1.0)
        xs = np.geomspace(1e-3, 1e6, 200)
        deltas = np.array([gfunc.delta(y, x) for x in xs])
        violation = max(violation, float(-deltas.min()))
        violation = max(violation, float((deltas - limit).max()))
        violation = max(violation, float(-np.diff(deltas).min()))
        primes = np.array([gfunc.delta_prime(y, x) for x in xs])
        violation = max(violation, float(-primes.min()))
        seconds = np.array([gfunc.delta_second(y, x) for x in xs])
        violation = max(violation, float(seconds.max()))
    yield [CheckResult("gfunc.gap-shape", violation, 0.0)]


def _random_channel(rng: np.random.Generator) -> ChannelParams:
    return ChannelParams(
        transmissivity=float(rng.uniform(1e-3, 1.0)),
        environment_photons=float(rng.uniform(0.0, 5.0)),
    )


def _suite_gaussian(seed: int) -> Iterator[list[CheckResult]]:
    rng = np.random.default_rng(seed)
    worst_compose = 0.0
    worst_phys = 0.0
    for _ in range(1000):
        gamma = random_covariance(rng)
        params = _random_channel(rng)
        direct = apply_thermal(params, gamma)
        dec = decompose(params)
        loss = ChannelParams(
            transmissivity=dec.pure_loss_transmissivity, environment_photons=0.0
        )
        composed = apply_amplifier(AmplifierParams(gain=dec.gain),
                                   apply_thermal(loss, gamma))
        worst_compose = max(
            worst_compose, float(np.abs(direct.matrix - composed.matrix).max())
        )
        worst_phys = max(worst_phys, 1.0 - float(direct.det))
    yield [
        CheckResult("gaussian.decomposition-identity", worst_compose, 1e-12),
        CheckResult("gaussian.physicality", worst_phys, 1e-9),
    ]

    worst = 0.0
    for _ in range(500):
        params = _random_channel(rng)
        n = float(rng.uniform(0.0, 10.0))
        got = mean_photons(apply_thermal(params, thermal_covariance(n)))
        want = params.transmissivity * n + (
            1.0 - params.transmissivity
        ) * params.environment_photons
        worst = max(worst, abs(got - want))
    yield [CheckResult("gaussian.photon-bookkeeping", worst, 1e-12)]


def _suite_bounds(seed: int) -> Iterator[list[CheckResult]]:
    rng = np.random.default_rng(seed)
    worst_order = 0.0
    worst_route = 0.0
    uncertified = 0
    for _ in range(10_000):
        params = ChannelParams(
            transmissivity=float(rng.uniform(1e-6, 1.0)),
            environment_photons=float(rng.uniform(1e-6, 50.0)),
        )
        n = float(rng.uniform(1e-6, 100.0))
        rep = report(params, n)
        worst_order = max(
            worst_order,
            -rep.gap_bits,
            rep.gap_bits - rep.refined_gap_bound_bits,
            rep.refined_gap_bound_bits - UNIVERSAL_GAP_BITS,
        )
        if not rep.certified:
            uncertified += 1
        y = (1.0 - params.transmissivity) * params.environment_photons
        route = gfunc.delta(y, params.transmissivity * n) / LN2
        worst_route = max(worst_route, abs(rep.upper_bits - rep.lower_bits - route))
    yield [
        CheckResult("bounds.interval-order", worst_order, 1e-10),
        CheckResult("bounds.route-consistency", worst_route, 1e-10),
        CheckResult("bounds.certified-count", float(uncertified), 0.0),
    ]

    worst = 0.0
    for lam in (0.3, 0.5, 0.7, 0.9):
        for n_env in (0.1, 0.5, 1.0, 2.0, 5.0):
            params = ChannelParams(transmissivity=lam, environment_photons=n_env)
            rep = report(params, 1e8)
            limit = gfunc.delta_limit((1.0 - lam) * n_env)
            worst = max(worst, abs(rep.gap_bits * LN2 - limit))
    yield [CheckResult("bounds.large-n-limit", worst, 1e-6)]

    worst = 0.0
    for _ in range(200):
        lam = float(rng.uniform(1e-3, 1.0))
        n = float(rng.uniform(0.0, 100.0))
        params = ChannelParams(transmissivity=lam, environment_photons=0.0)
        cap = pure_loss_capacity(lam, n)
        worst = max(
            worst,
            abs(holevo_lower(params, n) - cap),
            abs(additive_extension_upper(params, n) - cap),
        )
    yield [CheckResult("bounds.pure-loss-collapse", worst, 0.0)]


def _suite_fock(seed: int) -> Iterator[list[CheckResult]]:
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    for n in (0.2, 0.5, 1.0, 2.0, 5.0):
        dim, _ = _thermal_cutoff(n)
        entropy = von_neumann_entropy(thermal_state(n, dim))
        tail = thermal_entropy_tail(n, dim)
        worst_ratio = max(worst_ratio, abs(entropy - gfunc.g(n)) / (10.0 * tail))
    yield [CheckResult("fock.thermal-entropy-vs-tail", worst_ratio, 1.0)]

    states = [thermal_state(0.7, 48)]
    for _ in range(3):
        re, im = rng.uniform(-1.2, 1.2, size=2)
        states.append(coherent_state(complex(re, im), 32))
    worst = max(
        verify_decomposition_fock(
            ChannelParams(transmissivity=lam, environment_photons=n_env), states
        )
        for lam, n_env in ((0.5, 0.3), (0.8, 1.0))
    )
    yield [CheckResult("fock.moment-consistency", worst, 1e-8)]

    params = ChannelParams(transmissivity=0.6, environment_photons=0.5)
    _, _, difference, spread = _oracle_agreement(params, 2.0, DEFAULT_CHI_DIM_CAP)
    yield [
        CheckResult("fock.chi-vs-closed-form", difference, 1e-3),
        CheckResult("fock.alpha-independence", spread, _ENTROPY_SPREAD_TOL),
    ]


def _oracle_agreement(params: ChannelParams, n_signal: float, dim_cap: int):
    """The oracle's report and the two numbers its pass rule checks.

    Returns the `gaussian_ensemble_report`, `holevo_lower`, their
    difference |chi - lower| in bits, and the largest distance in nats
    of a member's output entropy from g((1 - lambda) N_E), the entropy
    every coherent input gives.  The bound is read first, so a point
    outside its domain builds no tensor.
    """
    lower = holevo_lower(params, n_signal)
    chi_report = gaussian_ensemble_report(params, n_signal, dim_cap=dim_cap)
    env_entropy = gfunc.g((1.0 - params.transmissivity) * params.environment_photons)
    spread = float(np.abs(chi_report.member_entropies_nats - env_entropy).max())
    return chi_report, lower, abs(chi_report.chi_bits - lower), spread


# ---------------------------------------------------------------------------
# subcommands


def _parse_channel(args) -> ChannelParams:
    return ChannelParams(transmissivity=args.lam, environment_photons=args.ne)


def cmd_bounds(args) -> int:
    rep = report(_parse_channel(args), args.n)
    print(f"lower_bits = {rep.lower_bits:.10g}")
    print(f"upper_bits = {rep.upper_bits:.10g}")
    print(f"gap_bits = {rep.gap_bits:.10g}")
    print(f"refined_gap_bound_bits = {rep.refined_gap_bound_bits:.10g}")
    print(f"universal_gap_bound_bits = {rep.universal_gap_bound_bits:.10g}")
    print(f"certified = {'true' if rep.certified else 'false'}")
    return 0 if rep.certified else 2


def _parse_range(text: str, name: str) -> list[float]:
    """One grid axis: a bare value or start:stop:count[:lin|log]."""
    parts = text.split(":")
    expected = f"{name}: expected VALUE or START:STOP:COUNT[:lin|log], got {text!r}"
    if len(parts) not in (1, 3, 4):
        raise ValueError(expected)
    try:
        values = [float(part) for part in parts[:2]]
        if len(parts) == 1:
            return values
        count = int(parts[2])
    except ValueError as error:
        raise ValueError(f"{expected} ({error})") from None
    start, stop = values
    if count < 1:
        raise ValueError(f"{name}: count must be >= 1, got {count}")
    scale = parts[3] if len(parts) == 4 else "lin"
    if scale == "lin":
        return [float(v) for v in np.linspace(start, stop, count)]
    if scale == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ValueError(f"{name}: log spacing needs positive endpoints")
        return [float(v) for v in np.geomspace(start, stop, count)]
    raise ValueError(f"{name}: spacing must be lin or log, got {scale!r}")


def _check_grid(lams, n_envs, n_signals) -> None:
    """Raise the domain error of any grid row before a row is computed.

    Every check a row would make reads one axis: `ChannelParams` checks
    lambda and N_E, `bounds._validate` the signal range and the N_E
    ceiling.  Checking each axis value once therefore checks every row,
    so a failed sweep writes nothing, and this is the sweep's one
    validation: `_sweep_rows` checks nothing again.
    """
    for lam in lams:
        ChannelParams(transmissivity=lam, environment_photons=0.0)
    for n_env in n_envs:
        _validate(ChannelParams(transmissivity=1.0, environment_photons=n_env), 0.0)
    for n in n_signals:
        _check_signal(n)


def _sweep_rows(lams, n_envs, n_signals):
    """Each grid row as a tuple in `SWEEP_COLUMNS` order, lambda outermost.

    The interval comes straight from `bounds._interval`, the kernel behind
    `report`, for axes `_check_grid` has validated; a row builds no
    `ChannelParams`, `BoundReport` or dict: a 100,000-row CSV sweep writes
    129k rows/s on a 2-core host, against 92k rows/s through `report`.
    """
    for lam in lams:
        for n_env in n_envs:
            for n in n_signals:
                yield (lam, n_env, n, *_interval(lam, n_env, n))


def _cells(row) -> list[str]:
    """A row's values as text in `SWEEP_COLUMNS` order, for CSV and JSON alike.

    Every value is a bool or a finite float, since the grid check admits
    only finite parameters inside the bounds' domain, and `json` writes a
    finite float as its `repr`.
    """
    cells = list(map(repr, row[:-1]))
    cells.append("true" if row[-1] else "false")
    return cells


def _csv_row(row) -> str:
    return "\n" + ",".join(_cells(row))


def _json_row(row) -> str:
    # One element of `json.dumps(rows, indent=2)`.
    fields = ",".join(
        f'\n    "{name}": {cell}' for name, cell in zip(SWEEP_COLUMNS, _cells(row))
    )
    return "\n  {" + fields + "\n  }"


# format -> (text before the rows, one row's text, text between rows,
# text after the rows); the pieces join to the text of the whole grid.
_SWEEP_FORMATS = {
    "csv": (",".join(SWEEP_COLUMNS), _csv_row, "", "\n"),
    "json": ("[", _json_row, ",", "\n]\n"),
}


@contextlib.contextmanager
def _open_out(path: str):
    """Open an `--out` target for writing: the file at `path`, or stdout for "-"."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii") as handle:
            yield handle


def cmd_sweep(args) -> int:
    lams = _parse_range(args.lam, "--lambda")
    n_envs = _parse_range(args.ne, "--ne")
    n_signals = _parse_range(args.n, "--n")
    _check_grid(lams, n_envs, n_signals)

    head, format_row, separator, tail = _SWEEP_FORMATS[args.format]
    certified = True
    with _open_out(args.out) as out:
        out.write(head)
        before = ""
        for row in _sweep_rows(lams, n_envs, n_signals):
            out.write(before + format_row(row))
            before = separator
            certified = certified and row[-1]
        out.write(tail)
    return 0 if certified else 2


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
    suites = [_suite_gfunc, _suite_gaussian, _suite_bounds]
    if args.level == "full":
        suites.append(_suite_fock)

    print("blas threads: " + " ".join(
        f"{name}={os.environ.get(name, 'unset')}" for name in _BLAS_VARIABLES
    ))
    failed: list[str] = []
    for suite in suites:
        # Each suite yields its checks in groups computed together; a group's
        # seconds are printed on each of its checks, marked shared after the first.
        start = time.perf_counter()
        for group in suite(args.seed):
            seconds = time.perf_counter() - start
            for index, check in enumerate(group):
                status = "pass" if check.passed else "FAIL"
                print(
                    f"{check.name:<32} max discrepancy {check.discrepancy:<12.3e}"
                    f" tol {check.tolerance:<9.0e} {status:<4} {seconds:8.4f} s"
                    + (" shared" if index else "")
                )
                if not check.passed:
                    failed.append(check.name)
            start = time.perf_counter()
    if failed:
        print(f"verification failed: {', '.join(failed)}")
        return 3
    print(f"all checks passed (level {args.level}, seed {args.seed})")
    return 0


def cmd_oracle(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    params = _parse_channel(args)
    chi_report, lower, difference, spread = _oracle_agreement(params, args.n, args.dim_cap)
    # The ensemble's own photon mean falls short of N by about 1e-8, and
    # the lower bound there differs by about 1e-9 bits: 15 digits show
    # both, and how chi splits between the two lower bounds.
    print(f"chi_bits = {chi_report.chi_bits:.15g}")
    print(f"lower_bits = {lower:.15g}")
    print(f"difference_bits = {difference:.10g}")
    print(f"alpha_entropy_spread_nats = {spread:.10g}")
    print(f"mean_photons = {chi_report.mean_photons:.15g}")
    print(f"lower_at_mean_bits = {holevo_lower(params, chi_report.mean_photons):.15g}")
    print(f"max_tail_bound = {chi_report.max_tail_bound:.10g}")
    print(f"binding_budget = {chi_report.binding_budget}")
    print(f"dim_env = {chi_report.dim_env}")
    print(f"transfer_bytes = {chi_report.transfer_bytes}")
    print(f"transfer_seconds = {chi_report.transfer_seconds:.6f}")
    print(f"eigensolve_seconds = {chi_report.eigensolve_seconds:.6f}")
    if difference <= args.tol and spread <= _ENTROPY_SPREAD_TOL:
        print("oracle agreement: pass")
        return 0
    print("oracle agreement: FAIL")
    return 3


def cmd_optimize(args) -> int:
    params = _parse_channel(args)
    config = OptimizerConfig(
        ensemble_size=args.members,
        max_iterations=args.iters,
        tolerance=args.tol,
    )
    # The bounds check the signal range, so a bad --n fails before the search.
    lower = holevo_lower(params, args.n)
    upper = additive_extension_upper(params, args.n)
    # The output is opened first, so an unwritable --out costs no search.
    with _open_out(args.out) as out:
        result = optimize(params, args.n, config)
        payload = {
            "transmissivity": params.transmissivity,
            "environment_photons": params.environment_photons,
            "signal_photons": float(args.n),
            "best_chi_bits": result.best_chi_bits,
            "lower_bits": lower,
            "upper_bits": upper,
            "above_lower_bits": result.best_chi_bits - lower,
            "below_upper_bits": upper - result.best_chi_bits,
            "iterations": result.iterations,
            "converged": result.converged,
            "dual_gap_bits": result.dual_gap_bits,
            "radii": list(result.radii),
            "ring_weights": list(result.ring_weights),
            "rings": len(result.radii),
            "mean_photons": result.mean_photons,
            "stats": asdict(result.stats),
            "environment_tail": result.environment_tail,
            "max_member_tail": result.max_member_tail,
            # A best value above the certified upper bound means a truncation
            # budget needs auditing, not a capacity claim.
            "budget_audit": result.best_chi_bits > upper + 1e-6,
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    return 0 if result.converged else 4


# ---------------------------------------------------------------------------
# parser


def _add_channel_flags(parser, with_signal: bool = True) -> None:
    parser.add_argument("--lambda", dest="lam", type=float, required=True,
                        help="beamsplitter transmissivity in (0, 1]")
    parser.add_argument("--ne", type=float, default=0.0,
                        help="environment mean photon number (default 0)")
    if with_signal:
        parser.add_argument("--n", type=float, required=True,
                            help="signal mean photon number constraint")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="thermalcap",
        description="Capacity bounds for single-mode bosonic thermal noise channels.",
    )
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_bounds = sub.add_parser("bounds", help="print the certified bound interval")
    _add_channel_flags(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="evaluate bounds over a parameter grid")
    p_sweep.add_argument("--lambda", dest="lam", required=True,
                         help="value or start:stop:count[:lin|log]")
    p_sweep.add_argument("--ne", default="0", help="value or range (default 0)")
    p_sweep.add_argument("--n", required=True, help="value or range")
    p_sweep.add_argument("--out", default="-", help="output path (default stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the library invariant suites")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser(
        "oracle", help="reproduce the lower bound in truncated Fock space"
    )
    _add_channel_flags(p_oracle)
    p_oracle.add_argument("--dim-cap", type=int, default=DEFAULT_CHI_DIM_CAP,
                          help="Fock cutoff cap (default 192); a point whose radii "
                               "need more levels for their Poisson tails is refused")
    p_oracle.add_argument("--tol", type=float, default=1e-3,
                          help="chi agreement tolerance in bits (default 1e-3)")
    p_oracle.set_defaults(func=cmd_oracle)

    p_opt = sub.add_parser(
        "optimize", help="Blahut-Arimoto search for the Holevo quantity over coherent rings"
    )
    _add_channel_flags(p_opt)
    p_opt.add_argument("--members", type=int, default=8,
                       help="number of coherent rings beside the origin, evenly "
                            "spaced out to 2.40 sqrt(N) (default 8)")
    p_opt.add_argument("--iters", type=int, default=1000,
                       help="iteration cap; exit code 4 if reached first (default 1000)")
    p_opt.add_argument("--tol", type=float, default=1e-7,
                       help="chi gain in bits below which an iteration ends the "
                            "search as converged (default 1e-7)")
    p_opt.add_argument("--out", default="-", help="output path (default stdout)")
    p_opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.func is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
