"""Tests for the constrained ensemble ascent on the Holevo quantity."""

from collections import Counter
from dataclasses import replace
import math

import numpy as np
import pytest

from thermalcap import chi_opt, gfunc
from thermalcap.bounds import LN2, additive_extension_upper, holevo_lower
from thermalcap.chi_opt import (
    _POOL_ANGLES,
    _POOL_RADII,
    MAX_MEMBERS,
    Ensemble,
    OptimizerConfig,
    _average,
    _initial_states,
    _mean_photons,
    _Pool,
    _radius_cap,
    _Run,
    _chi_ceiling,
    _scores,
    _stack,
    _tilted_weights,
    chi,
    optimize,
)
from thermalcap.fock_oracle import (
    _LOG_FLOOR,
    DEFAULT_CHI_DIM_CAP,
    BudgetError,
    DEFAULT_TAIL_TOL,
    FockDensityMatrix,
    GridSpec,
    _channel_transfer,
    _coherent_cutoff,
    _coherent_output,
    _diagonals,
    _holevo,
    _poisson_tail_bound,
    _push,
    apply_channel,
    coherent_state,
    gaussian_ensemble_report,
    mean_photon_number,
    von_neumann_entropy,
)
from thermalcap.gaussian_core import ChannelParams


def params(lam, n_env):
    return ChannelParams(transmissivity=lam, environment_photons=n_env)


def test_chi_single_member_is_zero():
    ens = Ensemble(((coherent_state(1.0, 16), 1.0),))
    assert chi(params(0.7, 0.4), ens) == 0.0


def test_chi_of_two_vacua_is_positive_zero():
    ens = Ensemble(((coherent_state(0.0, 4), 0.5), (coherent_state(0.0, 4), 0.5)))
    assert math.copysign(1.0, chi(params(0.6, 0.0), ens)) == 1.0


def test_chi_two_member_pure_loss_below_capacity():
    ens = Ensemble(
        (
            (coherent_state(0.0, 12), 0.5),
            (coherent_state(np.sqrt(2.0), 18), 0.5),
        )
    )
    value = chi(params(0.6, 0.0), ens)
    assert 0.0 < value <= gfunc.g(0.6) / LN2


def test_chi_of_a_mixed_member_is_below_its_split():
    # `chi` takes mixed members at their own dimensions.  Splitting
    # (|0><0| + |2><2|)/2 into its eigenvectors keeps the average state
    # and, by concavity of the output entropy, raises chi.
    p = params(0.8, 0.1)
    half = np.zeros((12, 12), dtype=complex)
    half[0, 0] = half[2, 2] = 0.5
    coherent = (coherent_state(0.5, 16), 0.6)
    mixed = Ensemble(((FockDensityMatrix(half), 0.4), coherent))
    split = Ensemble(
        tuple((FockDensityMatrix(np.diag(np.eye(12)[n])), 0.2) for n in (0, 2))
        + (coherent,)
    )
    assert 0.0 < chi(p, mixed) < chi(p, split) - 0.1


def test_chi_matches_gaussian_ensemble_report():
    # Build the identical discretized coherent ensemble, one member per
    # grid node (14 radii x 24 phases), and evaluate it through the
    # generic chi: the report's per-radius shortcut and its masked phase
    # average must give the same number.  The output has 31 levels, so
    # the mask keeps entries at lag 24.
    p = params(0.6, 0.5)
    report = gaussian_ensemble_report(p, 0.02, GridSpec(), dim_cap=48)
    assert len(report.alphas) == 336
    assert report.member_dims.max() + report.dim_env - 1 > GridSpec.N_ANGULAR
    members = tuple(
        (coherent_state(a, int(d)), float(w))
        for a, w, d in zip(report.alphas, report.weights, report.member_dims)
    )
    value = chi(p, Ensemble(members))
    assert abs(value - report.chi_bits) <= 1e-12


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


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(ensemble_size=0)
    with pytest.raises(ValueError):
        OptimizerConfig(ensemble_size=17)  # above the member cap
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=-1.0)
    # Counts are integers: a float or a bool is refused, not run.
    for bad in (
        {"max_iterations": 1e3}, {"ensemble_size": 2.5},
        {"max_iterations": True}, {"ensemble_size": True},
    ):
        with pytest.raises(ValueError):
            OptimizerConfig(**bad)


@pytest.mark.parametrize("bad", [1.5, -1, True, "0"])
def test_optimizer_config_rejects_a_seed_that_is_not_a_nonnegative_integer(bad):
    with pytest.raises(ValueError, match="seed"):
        OptimizerConfig(seed=bad)


@pytest.mark.parametrize("bad", [True, "1e-7", None])
def test_optimizer_config_rejects_a_tolerance_that_is_not_a_number(bad):
    with pytest.raises(ValueError, match="tolerance"):
        OptimizerConfig(tolerance=bad)


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
    cfg = OptimizerConfig(ensemble_size=4, max_iterations=25, seed=5)
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
    cfg = OptimizerConfig(ensemble_size=4, max_iterations=60, seed=3)
    result = optimize(p, n, cfg)
    chis = [value for _, value in result.history]
    assert all(b >= a - 1e-9 for a, b in zip(chis, chis[1:]))
    assert result.best_chi_bits == chis[-1]
    assert result.ensemble.mean_photons <= n + 1e-9
    assert result.best_chi_bits <= additive_extension_upper(p, n) + 1e-6
    assert result.best_chi_bits > 0.5  # far above a trivial ensemble


def test_optimize_iteration_cap_reports_nonconvergence():
    cfg = OptimizerConfig(ensemble_size=3, max_iterations=3, seed=0)
    result = optimize(params(0.5, 0.1), 0.5, cfg)
    assert not result.converged
    assert result.iterations == 3


def _member_photons(state):
    # |alpha|^2 of a truncated coherent projector: |rho_10|^2 / rho_00^2.
    if state.dim == 1:
        return 0.0
    return abs(state.matrix[1, 0]) ** 2 / state.matrix[0, 0].real ** 2


def _assert_members_meet_their_tails(result):
    # Every member lives on the cutoff its Poisson tail needs: its tail on
    # its own levels is within the tolerance, and that cutoff is the
    # smallest that meets it, as `_coherent_cutoff` sizes every push.
    for state, _ in result.ensemble.members:
        mu = _member_photons(state)
        assert _poisson_tail_bound(mu, state.dim) <= DEFAULT_TAIL_TOL
        assert state.dim == _coherent_cutoff(mu, DEFAULT_CHI_DIM_CAP)[0]
    assert result.max_member_tail <= DEFAULT_TAIL_TOL


def test_optimize_thermal_lands_in_certified_interval():
    # Production-scale thermal run: the optimum must sit inside the
    # certified interval [lower - 5e-3, upper + 1e-6], and every member
    # must meet the tail tolerance on its own cutoff.
    p = params(0.6, 0.5)
    n = 1.0
    result = optimize(p, n, OptimizerConfig(seed=1, max_iterations=300))
    lower = holevo_lower(p, n)
    upper = additive_extension_upper(p, n)
    assert result.best_chi_bits >= lower - 5e-3
    assert result.best_chi_bits <= upper + 1e-6
    assert result.ensemble.mean_photons <= n + 1e-9
    assert result.converged
    _assert_members_meet_their_tails(result)


@pytest.mark.parametrize("lam", [0.3, 0.9])
@pytest.mark.parametrize("n_env", [0.0, 2.0])
@pytest.mark.parametrize("n", [0.5, 1.0, 4.0])
def test_members_live_on_their_tail_cutoffs(lam, n_env, n):
    # Members move freely, to well past N photons at N = 4, and each is
    # pushed on its own cutoff, so the one evaluator `chi` must agree with
    # the run's chi on the returned members at their mixed cutoffs.
    p = params(lam, n_env)
    result = optimize(p, n, OptimizerConfig(max_iterations=5))
    _assert_members_meet_their_tails(result)
    assert abs(chi(p, result.ensemble) - result.best_chi_bits) <= 1e-12


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


def test_tilted_weights_meet_the_budget_as_reported():
    # Budgets within a few ulps of the members' photons, at scales down to
    # 1e-30: the returned weights meet the budget by the sum
    # `Ensemble.mean_photons` takes, and the solve ends although the
    # overdraft there is rounding noise.
    rng = np.random.default_rng(17)
    for case in range(3000):
        size = int(rng.integers(2, MAX_MEMBERS + 1))
        budget = 10.0 ** rng.uniform(-30, 2)
        if case % 3 == 0:
            photons = budget * (1.0 + rng.integers(-8, 9, size) * 2.2e-16)
        elif case % 3 == 1:
            photons = budget * np.abs(1.0 + rng.normal(0.0, 1e-13, size))
        else:
            photons = budget * rng.exponential(1.0, size)
        photons[0] = min(photons[0], budget)  # a feasible member
        raw = rng.exponential(1.0, size) ** rng.uniform(0.5, 4.0)
        weights = _tilted_weights(raw, photons, budget)
        assert _mean_photons(weights, photons) <= budget


def test_tilted_weights_raise_on_infeasible_budgets():
    # Every member costs more than the budget, at ordinary and tiny scales.
    for photons, budget in (([2.0, 3.0, 4.0], 1.0), ([1e-20, 3e-20], 1e-21)):
        photons = np.array(photons)
        with pytest.raises(ValueError, match="cannot be met"):
            _tilted_weights(np.ones(len(photons)), photons, budget)
    # A photon gap so small that the tilt overflows before it can bite.
    with pytest.raises(ValueError, match="overflowed"):
        _tilted_weights(np.ones(2), np.array([0.0, 5e-324]), 0.0)


# Two re-tilts of `_Run.ensemble` at lambda 0.6, N_E 0, N 1 after 20 sweeps
# (optimizer seeds 4 and 6): weights that meet the budget on the pushed
# vectors' photons overdraw it by an ulp on the matrices'.  The first has
# a zero overdraft, so its Newton candidate is 0; the second needs a tilt
# of about 1e-16.  They took 170 and 53 evaluations when the shortest
# step was a few ulps of the candidate and the bracket closed to adjacent
# floats.
_ULP_OVERDRAFTS = [
    ([0.3591473502020755, 0.13672401407303078, 0.08908709300083159, 0.1437003725176307,
      0.07904575112913244, 0.09926826796255565, 0.05605969122397, 0.03696745989077341],
     [0.010753263318916895, 1.1667495291644798, 1.734358075844982, 1.0338258193675598,
      1.8976824940064347, 1.5662930754337823, 2.237373288134009, 2.7762753005233036]),
    ([0.32575364154506076, 0.12596230379379997, 0.08118402029850616, 0.19195637551584946,
      0.07166770450429945, 0.11970393564811257, 0.029931913938327784, 0.05384010475604399],
     [0.05448229186513394, 1.3583911309499717, 1.8899076329655822, 0.6123348949581996,
      2.0808785012259974, 1.4327792373093664, 3.1079302503977644, 2.3496765594828246]),
]


@pytest.mark.parametrize("raw, photons", _ULP_OVERDRAFTS)
def test_tilted_weights_settle_an_ulp_overdraft_in_a_few_evaluations(raw, photons):
    raw, photons = np.array(raw), np.array(photons)
    counts = Counter()
    weights = _tilted_weights(raw, photons, 1.0, counts)
    assert 2 <= counts["tilt_evaluations"] <= 4  # the untilted weights overdraw
    assert _mean_photons(weights, photons) <= 1.0
    assert np.abs(weights - raw / raw.sum()).max() <= 1e-15


@pytest.mark.parametrize("n", [1e-11, 1e-12, 1e-15, 1e-30])
def test_optimize_completes_at_tiny_photon_budgets(n):
    # The tilt multiplier scales as 1/N, so no absolute cap on it may fire.
    p = params(0.6, 0.5)
    result = optimize(p, n, OptimizerConfig(max_iterations=3))
    assert result.iterations == 3
    assert result.ensemble.mean_photons <= n
    assert 0.0 <= result.best_chi_bits <= additive_extension_upper(p, n) + 1e-12


def test_tilt_solves_at_tiny_photon_budgets_take_few_evaluations(monkeypatch):
    # The runs of `test_optimize_completes_at_tiny_photon_budgets`.  From
    # N = 1e-12 down every member is the vacuum on one level, as its
    # Poisson tail allows, and most solves are trivial; at N = 1e-11 the
    # members hold up to 5.76e-11 photons beside the vacuum.  Newton steps
    # on the tilted mean crept by 1/mu of tilt per evaluation toward a
    # dear member's weight at the budget's scale, up to 185 evaluations in
    # one solve.
    solve = chi_opt._tilted_weights
    per_solve = []

    def counted(raw, photons, budget, counts=None):
        own = Counter()
        weights = solve(raw, photons, budget, own)
        per_solve.append(own["tilt_evaluations"])
        if counts is not None:
            counts.update(own)
        return weights

    monkeypatch.setattr(chi_opt, "_tilted_weights", counted)
    for n in (1e-11, 1e-12, 1e-15, 1e-30):
        optimize(params(0.6, 0.5), n, OptimizerConfig(max_iterations=3))
    assert len(per_solve) > 100
    assert max(per_solve) <= 9


@pytest.mark.parametrize(
    "n_env, n, seed",
    [(0.0, 0.3, 0), (0.5, 0.3, 1), (0.5, 1e-6, 0), (0.0, 1e-30, 0),
     (0.0, 1e-12, 4), (0.5, 1e-9, 2)],
)
def test_optimize_meets_the_photon_budget_it_reports(n_env, n, seed):
    # The tilt holds the very mean `Ensemble.mean_photons` reports to the
    # budget, so the result is within it exactly, not one ulp over.
    config = OptimizerConfig(max_iterations=3, seed=seed)
    result = optimize(params(0.6, n_env), n, config)
    assert result.ensemble.mean_photons <= n


def test_optimize_grows_past_starting_size():
    # Two members stall within a few sweeps, so growth starts early.
    p = params(0.6, 0.0)
    n = 1.0
    cfg = OptimizerConfig(ensemble_size=2, max_iterations=12, seed=0)
    result = optimize(p, n, cfg)
    assert 2 < len(result.ensemble) <= MAX_MEMBERS
    chis = [value for _, value in result.history]
    assert all(b >= a for a, b in zip(chis, chis[1:]))
    assert result.best_chi_bits == chis[-1]
    assert result.ensemble.mean_photons <= n + 1e-9
    assert result.best_chi_bits <= additive_extension_upper(p, n) + 1e-6
    two_members = optimize(p, n, OptimizerConfig(ensemble_size=2, max_iterations=1, seed=0))
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


def _is_pure(state):
    m = state.matrix
    return np.abs(m @ m - m).max() <= 1e-12


def test_optimize_members_are_pure():
    p = params(0.6, 0.3)
    result = optimize(p, 1.0, OptimizerConfig(ensemble_size=2, max_iterations=12))
    assert len(result.ensemble) > 2  # inserted members included
    # Started, moved and inserted members alike are pure, each on the
    # cutoff its own Poisson tail needs.
    assert all(_is_pure(s) for s, _ in result.ensemble.members)
    _assert_members_meet_their_tails(result)


def test_run_builds_one_transfer_tensor():
    # Every push of a run, the insertion pool's included, slices the one
    # tensor fetched at the insertion disc's cutoff when the run starts.
    _channel_transfer.cache_clear()
    cfg = OptimizerConfig(ensemble_size=2, max_iterations=12, seed=0)
    result = optimize(params(0.6, 0.3), 1.0, cfg)
    info = _channel_transfer.cache_info()
    assert result.stats.insertions > 0
    assert (info.misses, info.hits) == (1, 0)


def test_run_fetches_a_larger_tensor_only_when_a_member_outgrows_it():
    # A push past the tensor's levels takes one larger fetch, which then
    # serves every smaller push; a member that no cutoff within the cap
    # can hold is refused without a fetch or a count, and a move to it is
    # rejected.  The stack follows the largest output and comes back bit
    # for bit when a member's old output is swapped back in.
    p = params(0.6, 0.3)
    alphas, weights = _initial_states(0.5, 4)
    _channel_transfer.cache_clear()
    run = _Run(p, 0.5, alphas, weights)
    held = run.transfer[0].shape[2]  # group 0 holds every input level
    assert held == _coherent_cutoff(_radius_cap(0.5) ** 2, DEFAULT_CHI_DIM_CAP)[0]
    stack, pushes = run.outs.copy(), run.counts["channel_pushes"]
    far = 2.0 * _radius_cap(0.5)
    pushed = run.output(far)
    assert run.transfer[0].shape[2] == _coherent_cutoff(far**2, DEFAULT_CHI_DIM_CAP)[0] > held
    run.output(1.0)
    assert _channel_transfer.cache_info()[:2] == (0, 2)  # (hits, misses)
    with pytest.raises(BudgetError, match="> limit 192"):
        run.output(20.0)
    assert not run.move(1, 20.0, "probes")
    assert _channel_transfer.cache_info().misses == 2
    assert run.counts["channel_pushes"] == pushes + 2
    assert np.array_equal(run.outs, stack)
    old = run._swap(1, *pushed)
    assert run.outs.shape[1] == len(pushed[0]) > stack.shape[1]
    run._swap(1, *old)
    assert np.array_equal(run.outs, stack)


def test_chi_matches_the_optimizer_result():
    # The public evaluator and the optimizer's running value are one core.
    p = params(0.6, 0.5)
    cfg = OptimizerConfig(ensemble_size=4, max_iterations=6, seed=2)
    result = optimize(p, 1.0, cfg)
    assert abs(chi(p, result.ensemble) - result.best_chi_bits) <= 1e-12


def test_unphysical_average_raises():
    # Members pass through unchecked; the spectrum of the average is
    # where positivity is enforced, as in `von_neumann_entropy`.
    outs = np.array([np.diag([1.5, -0.5]), np.diag([1.0, 0.0])], dtype=complex)
    average = _average(outs, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="unphysical"):
        _holevo(average, 0.0)
    with pytest.raises(ValueError, match="unphysical"):
        _holevo(average, 0.0, with_log=True)
    bad = FockDensityMatrix(np.diag([1.5, -0.5]))
    ens = Ensemble(((bad, 0.5), (coherent_state(0.0, 2), 0.5)))
    with pytest.raises(ValueError, match="unphysical"):
        chi(params(1.0, 0.0), ens)


def _diagonals_by_loop(matrix):
    dim = len(matrix)
    diags = np.zeros((dim, dim), dtype=complex)
    for delta in range(dim):
        for k in range(dim - delta):
            diags[delta, k] = matrix[k, k + delta]
    return diags


def test_push_matches_apply_channel():
    # The public wrapper adds validation only: on the same diagonals the
    # kernel gives its matrix bit for bit.  Diagonals read off the
    # unsymmetrized projector, which rho's constructor makes Hermitian,
    # give rho's output up to rounding, and so does `_coherent_output`,
    # whose photons are those `mean_photon_number` reads off the state.
    rng = np.random.default_rng(23)
    for n_env in (0.0, 0.5):
        p = params(0.6, n_env)
        for _ in range(20):
            dim = int(rng.integers(1, 25))
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            rho = FockDensityMatrix(np.outer(psi, psi.conj()))
            transfer, env_tail = _channel_transfer(p, dim)
            diags = _diagonals_by_loop(rho.matrix)
            out = _push(transfer, diags, env_tail)
            assert np.array_equal(out, apply_channel(p, rho).matrix)
            assert np.array_equal(_diagonals(rho.matrix), diags)
            projector = np.outer(psi, psi.conj())
            assert np.array_equal(_diagonals(projector), _diagonals_by_loop(projector))
            pure = _push(transfer, _diagonals(projector), env_tail)
            assert np.abs(pure - out).max() <= 1e-15
            # The coherent state at its own cutoff, pushed through a tensor
            # for at least that many levels.
            radius = math.sqrt(rng.uniform() * dim / 4.0)
            alpha = complex(radius * np.exp(2j * math.pi * rng.uniform()))
            cutoff, _ = _coherent_cutoff(radius**2, DEFAULT_CHI_DIM_CAP)
            state = coherent_state(alpha, cutoff)
            expected = apply_channel(p, state)
            transfer, env_tail = _channel_transfer(p, max(dim, cutoff))
            coherent, entropy, photons = _coherent_output(transfer, env_tail, alpha, cutoff)
            assert np.abs(coherent - expected.matrix).max() <= 1e-15
            assert abs(entropy - von_neumann_entropy(expected)) <= 1e-12
            assert math.isclose(photons, mean_photon_number(state), rel_tol=1e-15, abs_tol=1e-15)


# Chi after each of 20 sweeps at the benchmark's optimizer points
# (lambda 0.6, N 1, optimizer seed 0), as the gradient-step and probe
# move rule, with the step halving after a sweep that accepts no
# gradient step and every member on its tail-sized cutoff, gives them.
# A change that moves a trajectory by more
# than rounding fails here.
_PINNED_HISTORIES = {
    0.0: (
        1.1483978368454903, 1.5092249993205338, 1.5113388239267636,
        1.5145196350684935, 1.514890504431539, 1.5149823906777211,
        1.5150153629144585, 1.5159154577535574, 1.5163531396552499,
        1.5168157304025096, 1.5171818416754266, 1.5173678832337563,
        1.5174189110393659, 1.5177413505403865, 1.5180553607762823,
        1.5181100601976667, 1.5182364730940023, 1.5182824961570902,
        1.5183320683439372, 1.5184138173595043, 1.5184170531669858,
    ),
    0.5: (
        0.7105671827042073, 0.9985639917621675, 0.9996305031934569,
        0.9997105484219371, 0.9997355300632601, 0.9999680458636072,
        1.00015973247312, 1.0003043961117195, 1.0004339423867272,
        1.0006355935240314, 1.0006425088395399, 1.000769218222109,
        1.0009184232251134, 1.0010258346073626, 1.0011920236076612,
        1.0013010049354334, 1.0014641252137213, 1.0015737610915634,
        1.0016603032937375, 1.001703124687481, 1.0017928092846156,
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


def test_directions_match_finite_differences():
    # Member k's direction times its weight is d/dx + i d/dy, for the
    # shift x + i y of its amplitude, of chi in nats less mu times the
    # ensemble's photons, with mu the run's photon multiplier.  With the
    # budget slack mu is 0; with the budget at the members' own photons it
    # binds, and the photon term's slope 2 alpha is checked too.
    # Central differences of the exact truncated objective agree.
    p = params(0.6, 0.5)
    alphas = [0.0, 0.8, -0.5 + 0.6j, 1.1j, 0.3 - 0.9j, 1.4 + 0.2j]
    weights = np.array([0.3, 0.15, 0.15, 0.15, 0.15, 0.1])
    slack = _Run(p, 10.0, alphas, weights)
    for budget in (slack.budget, float(weights @ slack.photons)):
        run = _Run(p, budget, alphas, weights)
        _, _, ln_avg = _holevo(
            _average(run.outs, weights), float(weights @ run.entropies), with_log=True
        )
        mu = run._multiplier(_scores(run.outs, run.entropies, ln_avg))
        assert (mu > 0.0) == (budget < slack.budget)

        def objective(members):
            shifted = _Run(p, budget, members, weights)
            return shifted.current_chi * LN2 - mu * float(weights @ shifted.photons)

        gradient = weights * run.directions()
        h = 1e-5
        differences = []
        for k in range(len(alphas)):
            parts = []
            for unit in (1.0, 1.0j):
                plus, minus = list(alphas), list(alphas)
                plus[k] += h * unit
                minus[k] -= h * unit
                parts.append((objective(plus) - objective(minus)) / (2.0 * h))
            differences.append(complex(*parts))
        error = np.abs(np.array(differences) - gradient).max()
        assert error <= 1e-6 * np.abs(gradient).max()


@pytest.mark.parametrize("n_env", [0.0, 0.5])
def test_ring_pool_matches_direct_pushes(n_env):
    # Phase covariance lets one push per ring stand in for a push per
    # candidate: scores, entropies, photons and the inserted output, on
    # the candidate's own cutoff, agree.
    alphas, weights = _initial_states(1.0, 8)
    run = _Run(params(0.6, n_env), 1.0, alphas, weights)
    pool = _Pool(run)
    assert run.counts["channel_pushes"] == len(alphas) + 1 + _POOL_RADII
    outs, entropies, photons = run.outputs(pool.alphas)
    assert len(outs) == 1 + _POOL_RADII * _POOL_ANGLES
    _, _, ln_avg = _holevo(
        _average(run.outs, run.weights), float(run.weights @ run.entropies), with_log=True
    )
    # The pool's outer rings need more levels than the members: they are
    # scored against the zero-padded average, whose log `_holevo` floors.
    stack = _stack(outs)
    size = len(ln_avg)
    assert len(stack[0]) > size
    padded = np.diag(np.full(len(stack[0]), math.log(_LOG_FLOOR))).astype(complex)
    padded[:size, :size] = ln_avg
    direct = _scores(stack, entropies, padded)
    assert np.abs(pool.scores(ln_avg) - direct).max() <= 1e-13
    assert np.abs(pool.entropies - entropies).max() <= 1e-13
    assert np.abs(pool.photons - photons).max() <= 1e-13
    for j, alpha in enumerate(pool.alphas):
        candidate, out = pool.candidate(j)
        assert candidate == alpha
        assert out.shape == outs[j].shape
        assert np.abs(out - outs[j]).max() <= 1e-14


@pytest.mark.parametrize("n_env", [0.0, 0.5])
def test_chi_ceiling_bounds_chi_at_other_weights(n_env):
    # The Blahut-Arimoto auxiliary bound: chi at feasible weights u is at
    # most `_chi_ceiling`, from the scores against the floored average at
    # weights w.  At u = w, where Klein's inequality is an equality, the
    # bound is as tight as its slack, and u within 1e-9 of w tests the
    # rounding allowance.
    rng = np.random.default_rng(29)
    alphas, weights = _initial_states(1.0, 8)
    run = _Run(params(0.6, n_env), 1.0, alphas, weights)
    for _ in range(12):
        size = int(rng.integers(2, MAX_MEMBERS + 1))
        radii = 2.4 * np.sqrt(rng.uniform(0.0, 1.0, size))
        members = list(radii * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, size)))
        members[0] = 0.0
        outs, entropies, photons = run.outputs(members)
        outs = _stack(outs)

        def feasible(raw):
            return _tilted_weights(raw, photons, 1.0)

        def chi_at(u):
            return _holevo(_average(outs, u), float(u @ entropies))[0]

        w = feasible(rng.exponential(1.0, size))
        _, _, ln_avg = _holevo(_average(outs, w), float(w @ entropies), with_log=True)
        scores = _scores(outs, entropies, ln_avg)
        assert 0.0 <= _chi_ceiling(outs, scores, w, w) - chi_at(w) <= 1e-8
        others = [feasible(rng.exponential(1.0, size) ** 3) for _ in range(4)]
        others += [feasible(w * np.exp(1e-9 * rng.standard_normal(size))) for _ in range(4)]
        for u in others:
            assert chi_at(u) <= _chi_ceiling(outs, scores, w, u)


@pytest.mark.parametrize("n_env", sorted(_PINNED_HISTORIES))
def test_chi_ceiling_skips_only_eigensolves(n_env, monkeypatch):
    # With the bound switched off every move evaluates its reweighting
    # step, and the run is the same bit for bit: the bound only rejects
    # what that eigensolve would reject.
    config = OptimizerConfig(seed=0, max_iterations=20)
    bounded = optimize(params(0.6, n_env), 1.0, config)
    monkeypatch.setattr(chi_opt, "_chi_ceiling", lambda *args: math.inf)
    full = optimize(params(0.6, n_env), 1.0, config)
    assert bounded.history == full.history
    assert bounded.best_chi_bits == full.best_chi_bits
    assert len(bounded.ensemble) == len(full.ensemble)
    for (state, weight), (other, other_weight) in zip(
        bounded.ensemble.members, full.ensemble.members
    ):
        assert weight == other_weight
        assert np.array_equal(state.matrix, other.matrix)
    decided = bounded.stats.moves_decided_by_bound
    assert decided > 0 and full.stats.moves_decided_by_bound == 0
    assert full.stats.eigensolves - bounded.stats.eigensolves == decided
    assert replace(bounded.stats, eigensolves=0, moves_decided_by_bound=0) == replace(
        full.stats, eigensolves=0
    )


@pytest.mark.parametrize("n_env", [0.0, 0.5])
def test_optimize_reports_its_truncation(n_env):
    # Both tails recomputed from the returned ensemble: each member's
    # output loses the environment tail, and a truncated coherent vector
    # has |alpha|^2 = |rho_10|^2 / rho_00^2.
    p = params(0.6, n_env)
    result = optimize(p, 1.0, OptimizerConfig(max_iterations=5))
    members = [state for state, _ in result.ensemble.members]
    assert {apply_channel(p, state).deficit for state in members} == {result.environment_tail}
    assert (result.environment_tail > 0.0) == (n_env > 0.0)
    tails = [
        _poisson_tail_bound(abs(s.matrix[1, 0]) ** 2 / s.matrix[0, 0].real ** 2, s.dim)
        for s in members
    ]
    assert result.max_member_tail == pytest.approx(max(tails), rel=1e-9)
    assert result.max_member_tail > 0.0
    vacuum = optimize(p, 0.0)
    assert vacuum.environment_tail == vacuum.max_member_tail == 0.0
