"""Tests for the constrained ensemble ascent on the Holevo quantity."""

import numpy as np
import pytest

from thermalcap import gfunc
from thermalcap.bounds import LN2, additive_extension_upper, holevo_lower
from thermalcap.chi_opt import (
    MAX_MEMBERS,
    Ensemble,
    OptimizerConfig,
    _displacement_unitary,
    _holevo,
    _tilted_weights,
    chi,
    optimize,
)
from thermalcap.fock_oracle import (
    FockDensityMatrix,
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


def _bisected_tilt(raw, photons, budget):
    # The bracketed Newton solve must land where 60 halvings land: the
    # smallest tilt mu >= 0 whose tilted mean is within the budget.
    logr = np.log(np.maximum(raw, 1e-300))
    excess = photons - budget

    def overdrawn(mu):
        logw = logr - mu * photons
        return float(np.exp(logw - logw.max()) @ excess) > 0.0

    def weights_at(mu):
        logw = logr - mu * photons
        w = np.exp(logw - logw.max())
        return w / w.sum()

    if not overdrawn(0.0):
        return weights_at(0.0)
    hi = 1.0
    while overdrawn(hi):
        hi *= 2.0
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if overdrawn(mid):
            lo = mid
        else:
            hi = mid
    return weights_at(hi)


def test_tilted_weights_matches_bisection():
    rng = np.random.default_rng(11)
    tilted = 0
    for case in range(400):
        size = int(rng.integers(2, MAX_MEMBERS + 1))
        photons = rng.exponential(rng.uniform(0.2, 5.0), size)
        if case % 3 == 0:
            photons[0] = 0.0  # a vacuum member, as the optimizer starts with
        raw = rng.exponential(1.0, size) ** rng.uniform(0.5, 4.0)
        budget = float(rng.uniform(photons.min(), photons.max()))
        reference = _bisected_tilt(raw, photons, budget)
        weights = _tilted_weights(raw, photons, budget)
        assert np.abs(weights - reference).max() <= 1e-12
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert weights @ photons <= budget + 1e-12
        tilted += not np.allclose(weights, raw / raw.sum())
    assert tilted > 100  # most cases exercise the root solve


def test_optimize_grows_past_starting_size():
    # Two members stall within a few sweeps, so growth starts early.
    p = params(0.6, 0.3)
    n = 1.0
    cfg = OptimizerConfig(ensemble_size=2, dim=8, max_iterations=12, seed=0)
    result = optimize(p, n, cfg)
    assert 2 < len(result.ensemble) <= MAX_MEMBERS
    chis = [value for _, value in result.history]
    assert all(b >= a for a, b in zip(chis, chis[1:]))
    assert result.best_chi_bits == chis[-1]
    assert result.ensemble.mean_photons <= n + 1e-9
    assert result.best_chi_bits <= additive_extension_upper(p, n) + 1e-6
    two_members = optimize(p, n, OptimizerConfig(ensemble_size=2, dim=8, max_iterations=3, seed=0))
    assert len(two_members.ensemble) == 2  # no stall yet, so no growth
    assert result.best_chi_bits > two_members.best_chi_bits + 0.2
    again = optimize(p, n, cfg)
    assert again.history == result.history
    assert len(again.ensemble) == len(result.ensemble)
    for (s1, w1), (s2, w2) in zip(result.ensemble.members, again.ensemble.members):
        assert w1 == w2
        assert np.array_equal(s1.matrix, s2.matrix)


def test_optimize_mixed_state_members_allowed():
    initial = Ensemble(
        ((thermal_state(0.2, 12), 0.5), (coherent_state(0.5, 12), 0.5))
    )
    cfg = OptimizerConfig(dim=12, max_iterations=10, seed=0, initial=initial)
    result = optimize(params(0.8, 0.1), 0.5, cfg)
    assert result.best_chi_bits >= 0.0
    assert result.ensemble.mean_photons <= 0.5 + 1e-9


def test_chi_matches_the_optimizer_result():
    # The public evaluator and the optimizer's running value are one core.
    p = params(0.6, 0.5)
    cfg = OptimizerConfig(ensemble_size=4, dim=10, max_iterations=6, seed=2)
    result = optimize(p, 1.0, cfg)
    assert abs(chi(p, result.ensemble) - result.best_chi_bits) <= 1e-12


def test_unphysical_average_raises():
    # Members pass through unchecked; the spectrum of the average is
    # where positivity is enforced, as in `von_neumann_entropy`.
    outs = np.array([np.diag([1.5, -0.5]), np.diag([1.0, 0.0])], dtype=complex)
    weights = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="unphysical"):
        _holevo(outs, np.zeros(2), weights)
    with pytest.raises(ValueError, match="unphysical"):
        _holevo(outs, np.zeros(2), weights, with_log=True)
    bad = FockDensityMatrix(np.diag([1.5, -0.5]))
    ens = Ensemble(((bad, 0.5), (coherent_state(0.0, 2), 0.5)))
    with pytest.raises(ValueError, match="unphysical"):
        chi(params(1.0, 0.0), ens)


def _displacement_by_eigensolve(delta, dim):
    # One eigendecomposition of the generator per displacement.
    ladder = np.sqrt(np.arange(1.0, dim))
    gen = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim - 1)
    gen[rows + 1, rows] = delta * ladder
    gen[rows, rows + 1] = -np.conj(delta) * ladder
    vals, vecs = np.linalg.eigh(1j * gen)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def test_displacement_unitary_matches_direct_eigensolve():
    rng = np.random.default_rng(17)
    for dim in (2, 8, 24, 32):
        deltas = [0.5, -0.5, 0.5j, -0.5j, 0.05, -0.05j]
        deltas += [complex(*rng.normal(0.0, 0.3, 2)) for _ in range(8)]
        for delta in deltas:
            unitary = _displacement_unitary(delta, dim)
            reference = _displacement_by_eigensolve(delta, dim)
            assert np.abs(unitary - reference).max() <= 1e-12
            assert np.abs(unitary @ unitary.conj().T - np.eye(dim)).max() <= 1e-12


# Chi after each of 20 sweeps at the benchmark's optimizer points
# (lambda 0.6, N 1, optimizer seed 0), as the per-move evaluation gave
# them before the optimizer's work was batched.  A change that moves a
# trajectory by more than rounding fails here.
_PINNED_HISTORIES = {
    0.0: (
        1.1483978369652619, 1.5076651928828027, 1.5115898442921505,
        1.5127563389006706, 1.5139072754079037, 1.5144307585094936,
        1.5144702325087083, 1.51459796179911, 1.5146829263108887,
        1.5146854706385393, 1.515111113295622, 1.5154951991688792,
        1.5157501767705204, 1.516040132612177, 1.5163638155777894,
        1.5164992236713575, 1.516772646052998, 1.5168230660063509,
        1.5168563409761053, 1.5168633173828956, 1.5169906863149702,
    ),
    0.5: (
        0.7105671827190546, 0.9975060660638598, 0.9986167097661407,
        0.9992663886882837, 0.999577336533386, 0.9997410840464701,
        0.9999595573480198, 1.0000154945567252, 1.0001913849016386,
        1.000218751483621, 1.0002500745822864, 1.0002589380631999,
        1.0002651036447727, 1.0002826829823466, 1.0002885084265005,
        1.0002979383805168, 1.0003194760590235, 1.0003477349935577,
        1.0003583317444484, 1.0003752575574416, 1.0003799113964957,
    ),
}


@pytest.mark.parametrize("n_env", sorted(_PINNED_HISTORIES))
def test_optimizer_trajectory_is_pinned(n_env):
    result = optimize(params(0.6, n_env), 1.0, OptimizerConfig(seed=0, max_iterations=20))
    assert [it for it, _ in result.history] == list(range(21))
    assert len(result.ensemble) == 8
    history = np.array([value for _, value in result.history])
    assert np.abs(history - np.array(_PINNED_HISTORIES[n_env])).max() <= 1e-12
