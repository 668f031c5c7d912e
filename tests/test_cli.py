"""Tests for the command-line interface: exit codes, formats, fault injection."""

import csv
import dataclasses
import io
import json

import pytest

import thermalcap.gfunc
from thermalcap.bounds import holevo_lower
from thermalcap.chi_opt import OptimizerStats
from thermalcap.cli import SWEEP_COLUMNS, main
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


def test_verify_quick_passes(capsys):
    assert main(["verify", "--level", "quick", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "gaussian.decomposition-identity" in out
    assert "bounds.interval-order" in out


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


def test_oracle_agreement(capsys):
    code = main(
        ["oracle", "--lambda", "0.6", "--ne", "0.5", "--n", "1", "--dim-cap", "96"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle agreement: pass" in out
    assert "chi_bits" in out and "lower_bits" in out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_oracle_rejects_a_tolerance_that_is_not_finite_and_nonnegative(capsys, tol):
    # A usage error, not a failed agreement (exit 3), and never a check
    # switched off (inf).
    argv = ["oracle", "--lambda", "0.6", "--ne", "0.5", "--n", "1", "--tol", tol]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be finite and >= 0" in captured.err


def test_optimize_zero_signal_json(capsys):
    code = main(
        ["optimize", "--lambda", "0.7", "--ne", "0.3", "--n", "0", "--iters", "5"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_chi_bits"] == 0.0
    assert payload["converged"] is True
    assert payload["ensemble_size"] == 1
    assert payload["budget_audit"] is False  # never above the upper bound
    # Round trip: identical field values after re-serialization.
    assert json.loads(json.dumps(payload)) == payload


def test_optimize_iteration_cap_exit_four(tmp_path):
    out_path = tmp_path / "result.json"
    code = main(
        [
            "optimize", "--lambda", "0.5", "--ne", "0.2", "--n", "0.5",
            "--members", "3", "--dim", "8", "--iters", "3", "--seed", "0",
            "--out", str(out_path),
        ]
    )
    assert code == 4
    payload = json.loads(out_path.read_text())
    assert payload["converged"] is False
    assert payload["iterations"] == 3
    assert set(payload["stats"]) == {f.name for f in dataclasses.fields(OptimizerStats)}
    stats = payload["stats"]
    assert stats["displacements_proposed"] > 0
    # Each move type is counted, and the types add up to the totals.
    for outcome in ("proposed", "accepted"):
        assert (
            stats[f"gradient_steps_{outcome}"] + stats[f"probes_{outcome}"]
            == stats[f"displacements_{outcome}"]
        )
    assert payload["best_chi_bits"] <= payload["upper_bits"] + 1e-6


def test_optimize_invalid_parameters_exit_one(capsys):
    assert main(["optimize", "--lambda", "0.5", "--ne", "-1", "--n", "1"]) == 1
    assert main(
        ["optimize", "--lambda", "0.5", "--ne", "0", "--n", "1", "--members", "40"]
    ) == 1
    capsys.readouterr()
