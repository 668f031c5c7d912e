"""Tests for the command-line interface: exit codes, formats, fault injection."""

import csv
import dataclasses
import io
import json
import os
import time
import tracemalloc
import warnings

import pytest

import thermalcap.cli
import thermalcap.gfunc
from thermalcap.bounds import holevo_lower, report
from thermalcap.chi_opt import OptimizationResult, OptimizerStats
from thermalcap.cli import SWEEP_COLUMNS, main
from thermalcap.fock_oracle import gaussian_ensemble_report
from thermalcap.gaussian_core import ChannelParams


def test_bounds_certified_exit_zero(capsys):
    assert main(["bounds", "--lambda", "0.5", "--ne", "0", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "lower_bits = 2.754887502" in out
    assert "upper_bits = 2.754887502" in out
    assert "gap_bits = 0" in out
    assert "certified = true" in out


def test_bounds_thermal_example(capsys):
    assert main(["bounds", "--lambda", "0.5", "--ne", "1", "--n", "10"]) == 0
    out = capsys.readouterr().out
    assert "lower_bits = 2.648540514" in out
    assert "upper_bits = 3.377182628" in out
    assert "gap_bits = 0.7286421139" in out
    assert "refined_gap_bound_bits = 0.7924812504" in out
    assert "universal_gap_bound_bits = 1.442695041" in out


def test_bounds_invalid_transmissivity_exit_one(capsys):
    assert main(["bounds", "--lambda", "1.5", "--ne", "0", "--n", "1"]) == 1
    err = capsys.readouterr().err
    assert "transmissivity" in err


def test_usage_errors_exit_one(capsys):
    assert main(["bounds", "--ne", "0", "--n", "1"]) == 1  # missing --lambda
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_sweep_csv_schema_and_monotone_gap(capsys):
    code = main(
        ["sweep", "--lambda", "0.5", "--ne", "1", "--n", "0.1:1000:10:log"]
    )
    assert code == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0].keys()) == list(SWEEP_COLUMNS)
    assert len(rows) == 10
    gaps = [float(r["gap_bits"]) for r in rows]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    assert all(r["certified"] == "true" for r in rows)


def test_sweep_zero_temperature_rows_have_zero_gap(capsys):
    assert main(["sweep", "--lambda", "0.2:0.8:3", "--n", "1:5:3"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    assert all(float(r["gap_bits"]) == 0.0 for r in rows)


def test_sweep_row_ordering(capsys):
    assert main(
        ["sweep", "--lambda", "0.3:0.7:2", "--ne", "0.5:1:2", "--n", "1:2:2"]
    ) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    triples = [(float(r["lambda"]), float(r["n_env"]), float(r["n_signal"])) for r in rows]
    assert triples == [
        (0.3, 0.5, 1.0), (0.3, 0.5, 2.0), (0.3, 1.0, 1.0), (0.3, 1.0, 2.0),
        (0.7, 0.5, 1.0), (0.7, 0.5, 2.0), (0.7, 1.0, 1.0), (0.7, 1.0, 2.0),
    ]


def test_sweep_json_round_trip(tmp_path):
    out_path = tmp_path / "sweep.json"
    code = main(
        [
            "sweep", "--lambda", "0.5", "--ne", "1", "--n", "1:10:3:log",
            "--format", "json", "--out", str(out_path),
        ]
    )
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert len(rows) == 3
    assert list(rows[0].keys()) == list(SWEEP_COLUMNS)
    # Serializing again reproduces identical values.
    assert json.loads(json.dumps(rows)) == rows
    expected = holevo_lower(
        ChannelParams(transmissivity=0.5, environment_photons=1.0), 1.0
    )
    assert rows[0]["lower_bits"] == expected


def test_sweep_csv_file_output(tmp_path):
    out_path = tmp_path / "rows.csv"
    assert main(
        ["sweep", "--lambda", "0.5", "--n", "1", "--out", str(out_path)]
    ) == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 1
    assert rows[0]["certified"] == "true"


def test_sweep_invalid_range_exit_one(capsys):
    assert main(["sweep", "--lambda", "0.5", "--n", "1:10:0"]) == 1
    assert main(["sweep", "--lambda", "0.5", "--n", "1:10:5:cubic"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("axis", ["1:2:1e3", "1:x:3"])
def test_sweep_range_conversion_errors_name_the_flag(axis, capsys):
    # A count that is no integer, or an endpoint that is no number, is
    # reported with the flag and the expected form, like every range error.
    assert main(["sweep", "--lambda", "0.5", "--n", axis]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: --n: expected VALUE or START:STOP:COUNT[:lin|log], got {axis!r} ("
    )


# lambda reaches 1 on a log axis, and N_E and N both start at 0.
_EDGE_GRID = ("0.01:1:4:log", "0:2:3", "0:1000:4")


def _unstreamed_output(axes, fmt):
    """The sweep output as the whole-grid writers built it: every `report` as a
    dict, then the text."""
    rows = []
    for lam in axes[0]:
        for n_env in axes[1]:
            params = ChannelParams(transmissivity=lam, environment_photons=n_env)
            for n in axes[2]:
                rep = report(params, n)
                rows.append({
                    "lambda": lam,
                    "n_env": n_env,
                    "n_signal": n,
                    "lower_bits": rep.lower_bits,
                    "upper_bits": rep.upper_bits,
                    "gap_bits": rep.gap_bits,
                    "refined_gap_bound_bits": rep.refined_gap_bound_bits,
                    "certified": rep.certified,
                })
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = [repr(row[c]) for c in SWEEP_COLUMNS[:-1]]
        cells.append("true" if row["certified"] else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_streams_the_bytes_of_the_whole_grid_writers(fmt, tmp_path, capsys):
    lam, ne, n = _EDGE_GRID
    axes = [
        thermalcap.cli._parse_range(text, name)
        for text, name in zip(_EDGE_GRID, ("--lambda", "--ne", "--n"))
    ]
    assert (axes[0][-1], axes[1][0], axes[2][0]) == (1.0, 0.0, 0.0)
    expected = _unstreamed_output(axes, fmt)
    argv = ["sweep", "--lambda", lam, "--ne", ne, "--n", n, "--format", fmt]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    out_path = tmp_path / f"rows.{fmt}"
    assert main(argv + ["--out", str(out_path)]) == 0
    assert out_path.read_bytes() == expected.encode("ascii")


def test_sweep_with_an_uncertified_row_writes_every_row_and_exits_two(tmp_path, monkeypatch):
    real_interval = thermalcap.cli._interval

    def uncertify_one(lam, n_env, n):
        interval = real_interval(lam, n_env, n)
        if (lam, n_env, n) == (0.5, 1.0, 2.0):
            return (*interval[:-1], False)
        return interval

    monkeypatch.setattr(thermalcap.cli, "_interval", uncertify_one)
    out_path = tmp_path / "rows.csv"
    argv = ["sweep", "--lambda", "0.25:0.75:3", "--ne", "0:1:2", "--n", "1:3:3",
            "--out", str(out_path)]
    assert main(argv) == 2
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 3 * 2 * 3
    assert [r["certified"] for r in rows].count("false") == 1
    assert rows[-1]["lambda"] == "0.75"


def test_failed_sweep_writes_nothing(tmp_path, capsys):
    # The bad value is the last lambda: every earlier row is valid.
    out_path = tmp_path / "rows.csv"
    for extra in ([], ["--out", str(out_path)]):
        assert main(["sweep", "--lambda", "0.5:1.5:3", "--n", "1", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: transmissivity must be in (0, 1], got 1.5\n"
    assert not out_path.exists()


def test_sweep_out_in_a_missing_directory_fails_before_any_row(tmp_path, capsys, monkeypatch):
    calls = []
    real_interval = thermalcap.cli._interval

    def counted(lam, n_env, n):
        calls.append(n)
        return real_interval(lam, n_env, n)

    monkeypatch.setattr(thermalcap.cli, "_interval", counted)
    out_path = tmp_path / "missing" / "rows.csv"
    assert main(["sweep", "--lambda", "0.5", "--n", "1:10:5", "--out", str(out_path)]) == 1
    assert calls == []
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_path.parent.exists()


def _sweep_peak_bytes(ne_axis, out_path):
    tracemalloc.start()
    try:
        assert main(["sweep", "--lambda", "0.1:0.9:8", "--ne", ne_axis,
                     "--n", "1e-3:1e6:50:log", "--out", str(out_path)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_the_rows(tmp_path):
    # Rows are written as they are computed, so ten times the rows must cost
    # no more memory.
    out_path = tmp_path / "rows.csv"
    main(["sweep", "--lambda", "0.5", "--n", "1", "--out", str(out_path)])  # warm-up
    small = _sweep_peak_bytes("1e-3:1e3:5:log", out_path)  # 2,000 rows
    large = _sweep_peak_bytes("1e-3:1e3:50:log", out_path)  # 20,000 rows
    assert len(out_path.read_text().splitlines()) == 20_001
    assert large < 2_000_000
    assert large <= 1.5 * small, (small, large)


def test_verify_quick_passes(capsys):
    assert main(["verify", "--level", "quick", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "gaussian.decomposition-identity" in out
    assert "bounds.interval-order" in out


def test_verify_prints_each_checks_seconds_and_the_blas_threads(capsys):
    assert main(["verify", "--level", "quick", "--seed", "7"]) == 0
    out = capsys.readouterr().out.splitlines()
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    assert out[0] == "blas threads: " + " ".join(
        f"{name}={os.environ.get(name, 'unset')}" for name in names
    )
    seconds = {}
    for line in out:
        if " max discrepancy " not in line:
            continue
        fields = line.split()
        shared = fields[-1] == "shared"
        if shared:
            fields.pop()
        assert fields[-1] == "s" and float(fields[-2]) >= 0.0
        seconds[fields[0]] = (float(fields[-2]), shared)
    assert len(seconds) == 11
    # Checks computed in one pass share that pass's seconds.
    assert [name for name, (_, shared) in seconds.items() if shared] == [
        "gaussian.physicality", "bounds.route-consistency", "bounds.certified-count",
    ]
    assert seconds["gaussian.physicality"][0] == seconds["gaussian.decomposition-identity"][0]
    assert seconds["bounds.certified-count"][0] == seconds["bounds.interval-order"][0]


def test_verify_fault_injection_names_invariant(capsys, monkeypatch):
    # A sign flip in the entropy function must be caught and named.
    true_g = thermalcap.gfunc.g
    monkeypatch.setattr(thermalcap.gfunc, "g", lambda x: -true_g(x))
    assert main(["verify", "--level", "quick", "--seed", "7"]) == 3
    out = capsys.readouterr().out
    assert "verification failed" in out
    assert "gfunc.frozen-values" in out


def test_verify_seed_changes_nothing_material(capsys):
    assert main(["verify", "--level", "quick", "--seed", "123"]) == 0
    capsys.readouterr()


def test_verify_rejects_a_negative_seed_before_any_suite(capsys):
    assert main(["verify", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be a nonnegative integer" in captured.err


def test_verify_full_runs_the_fock_suite(capsys):
    assert main(["verify", "--level", "full"]) == 0
    passed = {
        fields[0]
        for fields in map(str.split, capsys.readouterr().out.splitlines())
        if "pass" in fields
    }
    assert {
        "fock.thermal-entropy-vs-tail", "fock.moment-consistency",
        "fock.chi-vs-closed-form", "fock.alpha-independence",
    } <= passed


def test_oracle_agreement(capsys):
    code = main(
        ["oracle", "--lambda", "0.6", "--ne", "0.5", "--n", "1", "--dim-cap", "96"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle agreement: pass" in out
    assert "chi_bits" in out and "lower_bits" in out
    assert "dim_env = 21\n" in out and "transfer_bytes = " in out


def test_oracle_prints_its_tensor_and_eigensolve_seconds(capsys):
    assert main(["oracle", "--lambda", "0.6", "--ne", "0.5", "--n", "1", "--dim-cap", "96"]) == 0
    lines = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line
    )
    for name in ("transfer_seconds", "eigensolve_seconds"):
        assert float(lines[name]) >= 0.0


def test_oracle_prints_the_ensembles_photon_mean_and_the_bound_there(capsys):
    argv = ["oracle", "--lambda", "0.6", "--ne", "0.5", "--n", "1", "--dim-cap", "96"]
    assert main(argv) == 0
    lines = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line
    )
    mean = float(lines["mean_photons"])
    assert 0.0 < 1.0 - mean < 1e-8
    lower_at_mean = holevo_lower(ChannelParams(0.6, 0.5), mean)
    assert float(lines["lower_at_mean_bits"]) == pytest.approx(lower_at_mean, rel=1e-14)


def test_oracle_prints_chi_finely_enough_to_split_its_error(capsys):
    # chi sits about 1.2e-9 bits above `holevo_lower` at the ensemble's own
    # photon mean and 2.2e-9 below it at N; both splits are read off the
    # printed lines, which carry chi and the bound to 15 digits.
    argv = ["oracle", "--lambda", "0.6", "--ne", "0.5", "--n", "2"]
    assert main(argv) == 0
    lines = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line
    )
    p = ChannelParams(0.6, 0.5)
    report = gaussian_ensemble_report(p, 2.0)
    chi_bits, lower = float(lines["chi_bits"]), float(lines["lower_bits"])
    assert chi_bits == pytest.approx(report.chi_bits, rel=1e-14, abs=0.0)
    assert lower == pytest.approx(holevo_lower(p, 2.0), rel=1e-14, abs=0.0)
    above = chi_bits - float(lines["lower_at_mean_bits"])
    below = lower - chi_bits
    assert 1.0e-9 < above < 1.4e-9
    assert 2.0e-9 < below < 2.4e-9


def test_oracle_zero_signal_prints_a_positive_zero(capsys):
    assert main(["oracle", "--lambda", "0.6", "--ne", "0", "--n", "0"]) == 0
    out = capsys.readouterr().out
    assert "chi_bits = 0\n" in out
    assert "-0" not in out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_oracle_rejects_a_tolerance_that_is_not_finite_and_nonnegative(capsys, tol):
    # A usage error, not a failed agreement (exit 3), and never a check
    # switched off (inf).
    argv = ["oracle", "--lambda", "0.6", "--ne", "0.5", "--n", "1", "--tol", tol]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be finite and >= 0" in captured.err


def test_oracle_refuses_a_cap_its_tails_do_not_fit(capsys):
    # At N = 0.02 the radii need up to 11 levels for their Poisson tails;
    # a cap of 4 is a budget error (exit 1), not a failed agreement (exit 3).
    argv = ["oracle", "--lambda", "0.6", "--ne", "0.5", "--n", "0.02", "--dim-cap", "4"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "limit 4" in captured.err


def test_oracle_runs_a_hot_point_within_the_byte_cap(capsys):
    # 92 input levels beside N_E 2's 57: an 11.0 MiB transfer build.
    assert main(["oracle", "--lambda", "0.6", "--ne", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "oracle agreement: pass" in out and "dim_env = 57\n" in out


def test_oracle_refuses_a_build_over_the_byte_cap_before_building_it(capsys):
    # A vacuum-only report beside N_E 177's 4,088 environment levels would
    # build 255 MiB; the count refuses it before anything is allocated.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["oracle", "--lambda", "0.6", "--ne", "177", "--n", "0"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: transfer_bytes 267420608 for 1 input x 4088 ")
    assert elapsed < 1.0 and peak < 2**20


def test_oracle_outside_the_bounds_domain_exits_one_before_any_tensor(capsys, monkeypatch):
    # q = N_E/(N_E+1) rounds to 1 at N_E 1e17; the bound's domain message
    # comes first, as in `optimize`.
    def refuse(*args, **kwargs):
        raise AssertionError("a report was started")

    monkeypatch.setattr(thermalcap.cli, "gaussian_ensemble_report", refuse)
    assert main(["oracle", "--lambda", "0.5", "--ne", "1e17", "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: environment photon number must be <= 1e+06, got 1e+17\n"


def test_optimize_zero_signal_json(capsys):
    code = main(
        ["optimize", "--lambda", "0.7", "--ne", "0.3", "--n", "0", "--iters", "5"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_chi_bits"] == 0.0
    assert payload["converged"] is True
    assert payload["rings"] == 1 and payload["mean_photons"] == 0.0
    assert payload["budget_audit"] is False  # never above the upper bound
    # Round trip: identical field values after re-serialization.
    assert json.loads(json.dumps(payload)) == payload


def test_optimize_prints_the_rings_without_expanding_the_ensemble(capsys, monkeypatch):
    # The command prints the ring count and the rings' own photon mean,
    # which the search holds to the budget; it never builds the explicit
    # ensemble of every phase of every ring.
    def refuse(self):
        raise AssertionError("the CLI built the explicit ensemble")

    monkeypatch.setattr(OptimizationResult, "ensemble", property(refuse))
    for n in ("1", "4", "1e-12"):
        argv = ["optimize", "--lambda", "0.6", "--ne", "0.5", "--n", n, "--iters", "20"]
        assert main(argv) in (0, 4)
        payload = json.loads(capsys.readouterr().out)
        assert payload["rings"] == len(payload["radii"]) == 9
        assert "ensemble_size" not in payload
        assert 0.0 <= payload["mean_photons"] <= float(n)


def test_optimize_iteration_cap_exit_four(tmp_path):
    out_path = tmp_path / "result.json"
    code = main(
        [
            "optimize", "--lambda", "0.5", "--ne", "0.2", "--n", "0.5",
            "--members", "3", "--iters", "3", "--out", str(out_path),
        ]
    )
    assert code == 4
    payload = json.loads(out_path.read_text())
    assert payload["converged"] is False
    assert payload["iterations"] == 3
    assert set(payload["stats"]) == {f.name for f in dataclasses.fields(OptimizerStats)}
    # The origin and three rings, one push and one eigensolve each.
    assert payload["stats"]["channel_pushes"] == payload["stats"]["eigensolves"] == 4
    assert len(payload["radii"]) == len(payload["ring_weights"]) == 4
    assert payload["best_chi_bits"] <= payload["upper_bits"] + 1e-6


def test_optimize_prints_its_work_and_truncation(capsys):
    # The stats block counts the tilt evaluations, and a repeated run
    # repeats them and the dual gap; the environment and member tails
    # are printed beside them.
    argv = ["optimize", "--lambda", "0.6", "--ne", "0.5", "--n", "1", "--iters", "3"]
    payloads = []
    for _ in range(2):
        assert main(argv) == 4
        payloads.append(json.loads(capsys.readouterr().out))
    first, second = payloads
    assert first["stats"] == second["stats"]
    assert first["stats"]["tilt_evaluations"] > 0
    assert first["dual_gap_bits"] == second["dual_gap_bits"] > 0.0
    assert 0.0 < first["environment_tail"] <= 1e-10
    assert first["max_member_tail"] > 0.0
    assert (first["environment_tail"], first["max_member_tail"]) == (
        second["environment_tail"], second["max_member_tail"]
    )


def test_optimize_holds_every_member_to_its_tail_at_n_4(capsys):
    # At N = 4 the outer rings hold well over 4 photons; each is
    # pushed on the cutoff its Poisson tail needs, so the printed member
    # tail stays within the tolerance, chi below the upper bound, and the
    # audit flag down.  The payload carries no per-member photon limit.
    code = main(["optimize", "--lambda", "0.6", "--ne", "0", "--n", "4", "--iters", "5"])
    assert code == 4
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 < payload["max_member_tail"] <= 1e-10
    assert payload["best_chi_bits"] <= payload["upper_bits"] + 1e-6
    assert payload["budget_audit"] is False
    assert not {"max_member_photons", "member_photon_limit"} & set(payload)


def test_optimize_invalid_parameters_exit_one(capsys, monkeypatch):
    assert main(["optimize", "--lambda", "0.5", "--ne", "-1", "--n", "1"]) == 1
    assert main(
        ["optimize", "--lambda", "0.5", "--ne", "0", "--n", "1", "--members", "0"]
    ) == 1
    # The search reads no seed, so the command takes none.
    assert main(["optimize", "--lambda", "0.5", "--ne", "0", "--n", "1", "--seed", "0"]) == 1
    capsys.readouterr()

    # A signal beyond the bounds' range fails before any search runs.
    def refuse(*args, **kwargs):
        raise AssertionError("optimize ran before the domain check")

    monkeypatch.setattr(thermalcap.cli, "optimize", refuse)
    assert main(["optimize", "--lambda", "0.5", "--ne", "0", "--n", "2e9"]) == 1
    assert "signal photon number" in capsys.readouterr().err


def test_optimize_refuses_a_member_its_cutoff_cannot_hold(capsys):
    # At N = 1000 the disc's edge, |alpha|^2 = 5760, needs far
    # more levels than the cap of 192: a budget error before the search,
    # with no NaN, warning or traceback on the way.
    argv = ["optimize", "--lambda", "0.6", "--ne", "0.5", "--n", "1000", "--iters", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "needs cutoff" in captured.err and "> limit 192" in captured.err


def test_optimize_out_in_a_missing_directory_fails_before_the_search(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("optimize ran before its output was opened")

    monkeypatch.setattr(thermalcap.cli, "optimize", refuse)
    out_path = tmp_path / "missing" / "r.json"
    argv = ["optimize", "--lambda", "0.6", "--ne", "0.5", "--n", "1", "--iters", "20",
            "--out", str(out_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_path.parent.exists()
