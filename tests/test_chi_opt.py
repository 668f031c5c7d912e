"""Tests for the constrained ensemble ascent on the Holevo quantity."""

import numpy as np
import pytest

from thermalcap import gfunc
from thermalcap.bounds import LN2, additive_extension_upper, holevo_lower
from thermalcap.chi_opt import Ensemble, OptimizerConfig, chi, optimize
from thermalcap.fock_oracle import (
    GridSpec,
    coherent_state,
    gaussian_ensemble_report,
    thermal_state,
)
from thermalcap.gaussian_core import ChannelParams


def params(lam, n_env):
    return ChannelParams(transmissivity=lam, environment_photons=n_env)


def test_chi_single_member_is_zero():
    ens = Ensemble(((coherent_state(1.0, 16), 1.0),))
    assert chi(params(0.7, 0.4), ens) == 0.0


def test_chi_two_member_pure_loss_below_capacity():
    ens = Ensemble(
        (
            (coherent_state(0.0, 12), 0.5),
            (coherent_state(np.sqrt(2.0), 16), 0.5),
        )
    )
    value = chi(params(0.6, 0.0), ens)
    assert 0.0 < value <= gfunc.g(0.6) / LN2


def _report_matches_explicit_ensemble(grid):
    # Build the identical discretized coherent ensemble, one member per
    # grid node, and evaluate it through the generic chi: the report's
    # per-radius shortcut must give the same number.
    p = params(0.6, 0.5)
    report = gaussian_ensemble_report(p, 0.02, grid, dim_cap=48)
    members = tuple(
        (coherent_state(a, int(d)), float(w))
        for a, w, d in zip(report.alphas, report.weights, report.member_dims)
    )
    value = chi(p, Ensemble(members))
    assert abs(value - report.chi_bits) <= 1e-12


def test_chi_matches_gaussian_ensemble_report():
    _report_matches_explicit_ensemble(GridSpec(n_radial=7, n_angular=2))


def test_chi_matches_gaussian_ensemble_report_odd_angular():
    _report_matches_explicit_ensemble(GridSpec(n_radial=7, n_angular=3))


def test_ensemble_mean_photons_and_validation():
    ens = Ensemble(
        ((coherent_state(0.0, 8), 0.75), (coherent_state(1.0, 16), 0.25))
    )
    assert abs(ens.mean_photons - 0.25) <= 1e-9
    with pytest.raises(ValueError):
        Ensemble(())
    with pytest.raises(ValueError):
        Ensemble(((coherent_state(0.0, 8), 0.5),))  # weights must sum to 1
    with pytest.raises(ValueError):
        Ensemble(((coherent_state(0.0, 8), -1.0), (coherent_state(0.0, 8), 2.0)))


def test_optimizer_rejects_oversized_warm_start():
    too_many = Ensemble(
        tuple((coherent_state(0.0, 4), 1.0 / 17.0) for _ in range(17))
    )
    with pytest.raises(ValueError):
        OptimizerConfig(initial=too_many)
    big_member = Ensemble(((coherent_state(0.0, 40), 1.0),))
    with pytest.raises(ValueError):
        OptimizerConfig(initial=big_member)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(ensemble_size=0)
    with pytest.raises(ValueError):
        OptimizerConfig(ensemble_size=17)  # above the member cap
    with pytest.raises(ValueError):
        OptimizerConfig(dim=64)  # above the truncation cap
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(step_decay=1.5)


def test_optimize_zero_signal():
    result = optimize(params(0.7, 0.3), 0.0)
    assert result.best_chi_bits == 0.0
    assert result.converged
    assert len(result.ensemble.members) == 1
    assert result.ensemble.mean_photons == 0.0


def test_optimize_rejects_negative_signal():
    with pytest.raises(ValueError):
        optimize(params(0.7, 0.3), -1.0)


def test_optimize_deterministic():
    cfg = OptimizerConfig(ensemble_size=4, dim=10, max_iterations=25, seed=5)
    r1 = optimize(params(0.5, 0.2), 0.5, cfg)
    r2 = optimize(params(0.5, 0.2), 0.5, cfg)
    assert r1.best_chi_bits == r2.best_chi_bits
    assert r1.history == r2.history
    assert r1.iterations == r2.iterations
    assert r1.converged == r2.converged


def test_optimize_small_run_invariants():
    p = params(0.6, 0.5)
    n = 1.0
    cfg = OptimizerConfig(ensemble_size=4, dim=12, max_iterations=60, seed=3)
    result = optimize(p, n, cfg)
    chis = [value for _, value in result.history]
    assert all(b >= a - 1e-9 for a, b in zip(chis, chis[1:]))
    assert result.best_chi_bits == chis[-1]
    assert result.ensemble.mean_photons <= n + 1e-9
    assert result.best_chi_bits <= additive_extension_upper(p, n) + 1e-6
    assert result.best_chi_bits > 0.5  # far above a trivial ensemble


def test_optimize_iteration_cap_reports_nonconvergence():
    cfg = OptimizerConfig(ensemble_size=3, dim=8, max_iterations=3, seed=0)
    result = optimize(params(0.5, 0.1), 0.5, cfg)
    assert not result.converged
    assert result.iterations == 3


def test_optimize_warm_start_never_loses():
    p = params(0.6, 0.5)
    n = 0.02
    report = gaussian_ensemble_report(
        p, n, GridSpec(n_radial=7, n_angular=2), dim_cap=48
    )
    initial = Ensemble(
        tuple(
            (coherent_state(a, int(d)), float(w))
            for a, w, d in zip(report.alphas, report.weights, report.member_dims)
        )
    )
    cfg = OptimizerConfig(max_iterations=30, seed=2, initial=initial)
    result = optimize(p, n, cfg)
    assert result.best_chi_bits >= report.chi_bits - 1e-9
    assert result.ensemble.mean_photons <= n + 1e-9


def test_optimize_thermal_lands_in_certified_interval():
    # Production-scale thermal run: the optimum must sit inside the
    # certified interval [lower - 5e-3, upper + 1e-6].
    p = params(0.6, 0.5)
    n = 1.0
    result = optimize(p, n, OptimizerConfig(seed=1, max_iterations=300))
    lower = holevo_lower(p, n)
    upper = additive_extension_upper(p, n)
    assert result.best_chi_bits >= lower - 5e-3
    assert result.best_chi_bits <= upper + 1e-6
    assert result.ensemble.mean_photons <= n + 1e-9
    assert result.converged


def test_optimize_mixed_state_members_allowed():
    initial = Ensemble(
        ((thermal_state(0.2, 12), 0.5), (coherent_state(0.5, 12), 0.5))
    )
    cfg = OptimizerConfig(dim=12, max_iterations=10, seed=0, initial=initial)
    result = optimize(params(0.8, 0.1), 0.5, cfg)
    assert result.best_chi_bits >= 0.0
    assert result.ensemble.mean_photons <= 0.5 + 1e-9
