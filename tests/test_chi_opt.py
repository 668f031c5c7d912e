"""Tests for the constrained ensemble ascent on the Holevo quantity."""

import numpy as np
import pytest

from thermalcap import gfunc
from thermalcap.bounds import LN2, additive_extension_upper, holevo_lower
from thermalcap.chi_opt import (
    _POOL_ANGLES,
    _POOL_RADII,
    MAX_MEMBERS,
    Ensemble,
    OptimizerConfig,
    _displace,
    _holevo,
    _initial_states,
    _mean_amplitude,
    _Pool,
    _pure_members,
    _Run,
    _scores,
    _tilted_weights,
    chi,
    optimize,
)
from thermalcap.fock_oracle import (
    DEFAULT_MAX_JOINT_DIM,
    DEFAULT_TAIL_TOL,
    FockDensityMatrix,
    GridSpec,
    _LEVELS_PER_PHOTON,
    _channel_transfer,
    _coherent_vector,
    _diagonals,
    _push,
    apply_channel,
    coherent_state,
    gaussian_ensemble_report,
    mean_photon_number,
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
        OptimizerConfig(initial_step=0.0)  # below the step floor
    with pytest.raises(ValueError):
        OptimizerConfig(initial_step=float("inf"))  # would displace to NaN


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
    assert r1.stats == r2.stats


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
    # certified interval [lower - 5e-3, upper + 1e-6], and no member may
    # outgrow the coherent truncation limit of its own cutoff.
    p = params(0.6, 0.5)
    n = 1.0
    result = optimize(p, n, OptimizerConfig(seed=1, max_iterations=300))
    lower = holevo_lower(p, n)
    upper = additive_extension_upper(p, n)
    assert result.best_chi_bits >= lower - 5e-3
    assert result.best_chi_bits <= upper + 1e-6
    assert result.ensemble.mean_photons <= n + 1e-9
    assert result.converged
    for state, _ in result.ensemble.members:
        assert mean_photon_number(state) <= state.dim / _LEVELS_PER_PHOTON


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


def test_tilted_weights_raise_on_infeasible_budgets():
    # Every member costs more than the budget, at ordinary and tiny scales.
    for photons, budget in (([2.0, 3.0, 4.0], 1.0), ([1e-20, 3e-20], 1e-21)):
        photons = np.array(photons)
        with pytest.raises(ValueError, match="cannot be met"):
            _tilted_weights(np.ones(len(photons)), photons, budget)
    # A photon gap so small that the tilt overflows before it can bite.
    with pytest.raises(ValueError, match="overflowed"):
        _tilted_weights(np.ones(2), np.array([0.0, 5e-324]), 0.0)


@pytest.mark.parametrize("n", [1e-12, 1e-15, 1e-30])
def test_optimize_completes_at_tiny_photon_budgets(n):
    # The tilt multiplier scales as 1/N, so no absolute cap on it may fire.
    p = params(0.6, 0.5)
    result = optimize(p, n, OptimizerConfig(max_iterations=3))
    assert result.iterations == 3
    assert result.ensemble.mean_photons <= n
    assert 0.0 <= result.best_chi_bits <= additive_extension_upper(p, n) + 1e-12


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
    two_members = optimize(p, n, OptimizerConfig(ensemble_size=2, dim=8, max_iterations=2, seed=0))
    assert len(two_members.ensemble) == 2  # no stall yet, so no growth
    assert result.best_chi_bits > two_members.best_chi_bits + 0.2
    again = optimize(p, n, cfg)
    assert again.history == result.history
    assert again.stats == result.stats
    stats = result.stats
    assert stats.insertions == len(result.ensemble) - 2
    assert 0 < stats.displacements_accepted <= stats.displacements_proposed
    assert stats.gradient_steps_proposed + stats.probes_proposed == stats.displacements_proposed
    assert stats.gradient_steps_accepted + stats.probes_accepted == stats.displacements_accepted
    # The starting members, every proposal, and the insertion pool once:
    # the origin and one point per ring.
    assert stats.channel_pushes == 2 + stats.displacements_proposed + 1 + 16
    assert stats.eigensolves > stats.channel_pushes
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


def _is_pure(state):
    m = state.matrix
    return np.abs(m @ m - m).max() <= 1e-12


def test_optimize_members_are_pure():
    p = params(0.6, 0.3)
    result = optimize(p, 1.0, OptimizerConfig(ensemble_size=2, dim=8, max_iterations=12))
    assert len(result.ensemble) > 2  # inserted members included
    assert all(_is_pure(state) for state, _ in result.ensemble.members)


def test_mixed_initial_member_is_split_into_eigenvectors():
    p = params(0.8, 0.1)
    half = np.zeros((12, 12), dtype=complex)
    half[0, 0] = half[2, 2] = 0.5
    initial = Ensemble(
        ((FockDensityMatrix(half), 0.4), (coherent_state(0.5, 12), 0.6))
    )
    vectors, weights = _pure_members(initial)
    assert len(vectors) == 3
    split = Ensemble(
        tuple(
            (FockDensityMatrix(np.outer(v, v.conj())), float(w))
            for v, w in zip(vectors, weights)
        )
    )
    # The average state is kept, so the photon mean is; chi can only rise.
    def average(ens):
        return sum(w * s.matrix for s, w in ens.members)

    assert np.abs(average(split) - average(initial)).max() <= 1e-12
    assert abs(split.mean_photons - initial.mean_photons) <= 1e-12
    assert chi(p, split) > chi(p, initial) + 0.1
    cfg = OptimizerConfig(dim=12, max_iterations=2, seed=0, initial=initial)
    result = optimize(p, 1.0, cfg)
    assert abs(result.history[0][1] - chi(p, split)) <= 1e-12
    assert len(result.ensemble) == 3
    assert all(_is_pure(state) for state, _ in result.ensemble.members)


def test_members_keep_their_dimensions():
    # Moves keep each member's dimension and inserted members come from
    # the candidate pool at config.dim, even when the starting members
    # differ in dimension; the mixed member splits into two at its own.
    mixed = np.zeros((9, 9), dtype=complex)
    mixed[0, 0] = mixed[1, 1] = 0.5
    initial = Ensemble(
        (
            (coherent_state(0.0, 6), 0.4),
            (FockDensityMatrix(mixed), 0.3),
            (coherent_state(1.0, 12), 0.3),
        )
    )
    # A coarse tolerance makes sweeps stall, and so grow, early.
    cfg = OptimizerConfig(dim=8, max_iterations=6, tolerance=1e-2, seed=0, initial=initial)
    result = optimize(params(0.6, 0.3), 1.0, cfg)
    dims = [state.dim for state, _ in result.ensemble.members]
    assert dims[:4] == [6, 9, 9, 12]
    assert result.stats.displacements_accepted > 0
    assert result.stats.insertions == len(dims) - 4 > 0
    assert all(d == cfg.dim for d in dims[4:])


def test_mixed_initial_split_over_member_cap_raises():
    # Seventeen eigenvectors plus one more member exceed the cap of 16.
    initial = Ensemble(
        ((coherent_state(0.0, 8), 0.5), (thermal_state(0.5, 17), 0.5))
    )
    cfg = OptimizerConfig(dim=8, max_iterations=2, initial=initial)
    with pytest.raises(ValueError, match=f"cap is {MAX_MEMBERS}"):
        optimize(params(0.6, 0.5), 1.0, cfg)


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
            # Displacing each basis vector gives the unitary column by column.
            unitary = np.column_stack([_displace(delta, e) for e in np.eye(dim, dtype=complex)])
            reference = _displacement_by_eigensolve(delta, dim)
            assert np.abs(unitary - reference).max() <= 1e-12
            assert np.abs(unitary @ unitary.conj().T - np.eye(dim)).max() <= 1e-12


def _diagonals_by_loop(matrix):
    dim = len(matrix)
    diags = np.zeros((dim, dim), dtype=complex)
    for delta in range(dim):
        for j in range(delta, dim):
            diags[delta, j] = matrix[j - delta, j]
    return diags


def test_push_matches_apply_channel():
    # The public wrapper adds validation only: on the same diagonals the
    # kernel gives its matrix bit for bit.  The optimizer's vector path
    # forms the same products as the projector, up to rounding.
    rng = np.random.default_rng(23)
    for n_env in (0.0, 0.5):
        p = params(0.6, n_env)
        for _ in range(20):
            dim = int(rng.integers(1, 25))
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            rho = FockDensityMatrix(np.outer(psi, psi.conj()))
            transfer, env_tail = _channel_transfer(
                p, dim, DEFAULT_TAIL_TOL, DEFAULT_MAX_JOINT_DIM
            )
            diags = _diagonals_by_loop(rho.matrix)
            out = _push(transfer, diags, env_tail)
            assert np.array_equal(out, apply_channel(p, rho).matrix)
            assert np.abs(_diagonals(psi) - diags).max() <= 1e-15


# Chi after each of 20 sweeps at the benchmark's optimizer points
# (lambda 0.6, N 1, optimizer seed 0), as the gradient-step and probe
# move rule, with the step halving after a sweep that accepts no
# gradient step, gives them.  A change that moves a trajectory by more
# than rounding fails here.
_PINNED_HISTORIES = {
    0.0: (
        1.1483978369652617, 1.5092250039015653, 1.5113388264265208,
        1.5145196426590566, 1.5148905147102936, 1.5149824026216774,
        1.5150153748271304, 1.5159154529211332, 1.5163531373887176,
        1.5168157802549886, 1.5171818392559886, 1.5173678777357944,
        1.5174189063960901, 1.517741344762976, 1.518055333940751,
        1.5181100539955052, 1.5182364673794104, 1.5182824714289787,
        1.5183320468834485, 1.5184138019532039, 1.5184170326502593,
    ),
    0.5: (
        0.7105671827190546, 0.9985639955815601, 0.999630506338424,
        0.9997105519189293, 0.9997355335496078, 0.9999680420041575,
        1.000159730138384, 1.0003043967765748, 1.0004339434141416,
        1.000635597392057, 1.000642512297067, 1.000769221724657,
        1.0009184207938768, 1.0010258351014925, 1.0011920268675227,
        1.0013010086358565, 1.0014641320038529, 1.0015737669534017,
        1.001660289409612, 1.0017031067415583, 1.0017927826553221,
    ),
}


@pytest.mark.parametrize("n_env", sorted(_PINNED_HISTORIES))
def test_optimizer_trajectory_is_pinned(n_env):
    result = optimize(params(0.6, n_env), 1.0, OptimizerConfig(seed=0, max_iterations=20))
    assert [it for it, _ in result.history] == list(range(21))
    assert len(result.ensemble) == 8
    history = np.array([value for _, value in result.history])
    assert np.abs(history - np.array(_PINNED_HISTORIES[n_env])).max() <= 1e-12


@pytest.mark.parametrize("n_env", sorted(_PINNED_HISTORIES))
def test_first_twenty_sweeps_do_not_stall_for_any_seed(n_env):
    # Only the probes depend on the seed.  While a sweep's gradient steps
    # all overshoot the step shortens, so no seed's weights-only sweeps
    # fall below the tolerance and grow the ensemble early: every seed
    # does the same work per sweep.
    for seed in range(1, 5):
        config = OptimizerConfig(seed=seed, max_iterations=20)
        result = optimize(params(0.6, n_env), 1.0, config)
        assert result.stats.insertions == 0
        history = [value for _, value in result.history]
        assert min(b - a for a, b in zip(history, history[1:])) >= config.tolerance


def test_mean_amplitude_of_a_coherent_vector():
    for alpha in (0.0, 0.8, -1.1 + 0.4j, 1.5j):
        assert abs(_mean_amplitude(_coherent_vector(alpha, 24)) - alpha) <= 1e-13


def test_directions_match_finite_differences():
    # With the budget slack the multiplier is 0, so member k's direction
    # times its weight is dchi/dx + i dchi/dy in nats for a displacement
    # x + i y; central differences of the exact truncated chi agree.
    p = params(0.6, 0.5)
    dim = 24
    fock_one = np.zeros(dim, dtype=complex)
    fock_one[1] = 1.0
    vectors = [_coherent_vector(a, dim) for a in (0.0, 0.8, -0.5 + 0.6j, 1.1j, 0.3 - 0.9j)]
    vectors.append(fock_one)
    weights = np.array([0.3, 0.15, 0.15, 0.15, 0.15, 0.1])
    budget = 10.0

    def chi_nats(members):
        return _Run(p, budget, members, weights).current_chi * LN2

    gradient = weights * _Run(p, budget, vectors, weights).directions()
    h = 1e-5
    differences = []
    for k in range(len(vectors)):
        parts = []
        for unit in (1.0, 1.0j):
            plus, minus = list(vectors), list(vectors)
            plus[k] = _displace(h * unit, vectors[k])
            minus[k] = _displace(-h * unit, vectors[k])
            parts.append((chi_nats(plus) - chi_nats(minus)) / (2.0 * h))
        differences.append(complex(*parts))
    error = np.abs(np.array(differences) - gradient).max()
    assert error <= 1e-6 * np.abs(gradient).max()


@pytest.mark.parametrize("n_env", [0.0, 0.5])
def test_ring_pool_matches_direct_pushes(n_env):
    # Phase covariance lets one push per ring stand in for a push per
    # candidate: scores, entropies, photons and the inserted output agree.
    dim = 24
    vectors, weights = _initial_states(1.0, 8, dim)
    run = _Run(params(0.6, n_env), 1.0, vectors, weights)
    pool = _Pool(run, dim)
    assert run.counts["channel_pushes"] == len(vectors) + 1 + _POOL_RADII
    outs, entropies, photons = run.outputs([_coherent_vector(a, dim) for a in pool.alphas])
    assert len(outs) == 1 + _POOL_RADII * _POOL_ANGLES
    _, ln_avg = _holevo(run.outs, run.entropies, run.weights, with_log=True)
    assert np.abs(pool.scores(ln_avg) - _scores(outs, entropies, ln_avg)).max() <= 1e-13
    assert np.abs(pool.entropies - entropies).max() <= 1e-13
    assert np.abs(pool.photons - photons).max() <= 1e-13
    for j, alpha in enumerate(pool.alphas):
        psi, out = pool.candidate(j)
        assert np.array_equal(psi, _coherent_vector(alpha, dim))
        assert np.abs(out - outs[j]).max() <= 1e-14
