"""Tests for the Blahut-Arimoto ring search on the Holevo quantity."""

from collections import Counter
import math
import sys

import numpy as np
import pytest

from thermalcap import chi_opt, fock_oracle, gfunc
from thermalcap.bounds import LN2, additive_extension_upper, holevo_lower
from thermalcap.chi_opt import (
    Ensemble,
    OptimizerConfig,
    _dual_gap,
    _evaluate,
    _mean_photons,
    _radius_cap,
    _ring_diagonals,
    _tilted_weights,
    chi,
    optimize,
)
from thermalcap.fock_oracle import (
    DEFAULT_CHI_DIM_CAP,
    DEFAULT_TAIL_TOL,
    BudgetError,
    FockDensityMatrix,
    GridSpec,
    _channel_transfer,
    _coherent_cutoff,
    _diagonals,
    _holevo,
    _poisson_tail_bound,
    _push,
    _push_rings,
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
    # The per-iteration dual gap repeats exactly too.
    assert len(r1.dual_gaps) == len(r1.history)
    assert r1.dual_gaps == r2.dual_gaps


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
    # The rings reach 5.76 N photons at the disc's edge, and each is pushed
    # on its own cutoff, so the one evaluator `chi` must agree with the
    # run's chi on the returned members at their mixed cutoffs.
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
        size = int(rng.integers(2, 17))
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
        size = int(rng.integers(2, 17))
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


# Two re-tilts of an explicit optimizer ensemble at lambda 0.6, N_E 0, N 1 after 20 sweeps
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
    # The starting weights already sit where the tilt holds the budget,
    # so the first iteration gains nothing and the run converges there.
    p = params(0.6, 0.5)
    result = optimize(p, n, OptimizerConfig(max_iterations=3))
    assert result.converged and result.iterations == 1
    assert result.ensemble.mean_photons <= n
    assert 0.0 <= result.best_chi_bits <= additive_extension_upper(p, n) + 1e-12


def test_tilt_solves_at_tiny_photon_budgets_take_few_evaluations(monkeypatch):
    # The runs of `test_optimize_completes_at_tiny_photon_budgets`, at 2
    # to 24 rings.  From N = 1e-12 down every ring is the vacuum on one
    # level, as its Poisson tail allows, and most solves are trivial; at
    # N = 1e-11 the outer rings hold up to 5.76e-11 photons beside the
    # vacuum.  Newton steps on the tilted mean crept by 1/mu of tilt per
    # evaluation toward a dear member's weight at the budget's scale, up
    # to 185 evaluations in one solve.
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
    runs = 0
    for n in (1e-11, 1e-12, 1e-15, 1e-30):
        for rings in (2, 8, 16, 24):
            optimize(params(0.6, 0.5), n, OptimizerConfig(ensemble_size=rings, max_iterations=3))
            runs += 1
    # Each run solves for its starting weights and for one or two steps;
    # no run reads its explicit ensemble, so no re-tilt of it is counted.
    assert 2 * runs <= len(per_solve) <= 3 * runs
    assert max(per_solve) <= 9
    assert max(per_solve) > 1  # N = 1e-11 solves for a tilt


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


def _is_pure(state):
    m = state.matrix
    return np.abs(m @ m - m).max() <= 1e-12


def test_optimize_members_are_pure():
    p = params(0.6, 0.3)
    result = optimize(p, 1.0, OptimizerConfig(ensemble_size=2, max_iterations=12))
    assert len(result.ensemble) > 2  # every phase of every ring
    # Every member is pure, on the cutoff its own Poisson tail needs.
    assert all(_is_pure(s) for s, _ in result.ensemble.members)
    _assert_members_meet_their_tails(result)


def test_run_builds_one_transfer_tensor():
    # Every push of a run slices the one tensor fetched at the cutoff of
    # the disc's edge, which holds every ring, and the explicit ensemble
    # is built without a fetch.
    _channel_transfer.cache_clear()
    cfg = OptimizerConfig(ensemble_size=2, max_iterations=12, seed=0)
    result = optimize(params(0.6, 0.3), 1.0, cfg)
    assert len(result.ensemble) > len(result.radii)
    info = _channel_transfer.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    edge = _coherent_cutoff(_radius_cap(1.0) ** 2, DEFAULT_CHI_DIM_CAP)[0]
    assert max(result.ring_cutoffs) == result.ring_cutoffs[-1] == edge


def test_eigensolve_work_repeats_exactly():
    # One eigensolve per ring, on its cutoff plus the environment's 21
    # levels (N_E 0.5) less one: the cubed level counts are the run's
    # exact eigensolve work, and a repeated run repeats them.
    p = params(0.6, 0.5)
    first, second = (optimize(p, 1.0, OptimizerConfig(max_iterations=20)) for _ in range(2))
    expected = sum((dim + 20) ** 3 for dim in first.ring_cutoffs)
    assert first.stats.eigensolve_n3 == second.stats.eigensolve_n3 == expected


@pytest.mark.parametrize("caller", ["oracle", "optimize"])
def test_a_capped_point_is_refused_at_its_first_ring_before_any_tensor(caller, monkeypatch):
    # Both callers size their rings innermost first through the one ring
    # push, so the refusal names the first ring over the cap, not the
    # outermost, and comes before any transfer tensor is built.
    def refuse(*args):
        raise AssertionError("a transfer tensor was built")

    _channel_transfer.cache_clear()
    monkeypatch.setattr(fock_oracle, "_transfer_tensor", refuse)
    p = params(0.6, 0.5)
    if caller == "oracle":
        cap, n = 12, 1.0
        radii = GridSpec().nodes(n)[0][:: GridSpec.N_ANGULAR].real
        run = lambda: gaussian_ensemble_report(p, n, dim_cap=cap)  # noqa: E731
    else:
        cap, n = DEFAULT_CHI_DIM_CAP, 40.0
        radii = _disc_radii(n)
        run = lambda: optimize(p, n)  # noqa: E731
    needed = [_coherent_cutoff(r * r, sys.maxsize)[0] for r in radii]
    first = next(levels for levels in needed if levels > cap)
    assert first < max(needed)
    with pytest.raises(BudgetError) as excinfo:
        run()
    error = excinfo.value
    assert (error.bound, error.value, error.limit) == ("coherent_dim", first, cap)


def test_chi_matches_the_optimizer_result():
    # The public evaluator and the optimizer's running value are one core.
    p = params(0.6, 0.5)
    cfg = OptimizerConfig(ensemble_size=4, max_iterations=6, seed=2)
    result = optimize(p, 1.0, cfg)
    assert abs(chi(p, result.ensemble) - result.best_chi_bits) <= 1e-12


def test_unphysical_average_raises():
    # Members pass through unchecked; the spectrum of the average is
    # where positivity is enforced, as in `von_neumann_entropy`, and a
    # diagonal average's entries are its spectrum.
    average = 0.5 * np.diag([1.5, -0.5]).astype(complex) + 0.5 * np.diag([1.0, 0.0])
    # The 1-D form is the one that also forms the average's logarithm.
    for form in (average, average.diagonal().real):
        with pytest.raises(ValueError, match="unphysical"):
            _holevo(form, 0.0)
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
    # give rho's output up to rounding, and so does `_push_rings` at a
    # real radius, whose photons are those `mean_photon_number` reads off
    # the state.
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
            # for at least that many levels: the ring push fetches one at the
            # larger cutoff of its two radii.
            radius = math.sqrt(rng.uniform() * dim / 4.0)
            rings = _push_rings(p, [radius, math.sqrt(dim / 4.0)], DEFAULT_CHI_DIM_CAP)
            cutoff = rings.cutoffs[0]
            assert cutoff == _coherent_cutoff(radius**2, DEFAULT_CHI_DIM_CAP)[0]
            state = coherent_state(radius, cutoff)
            expected = apply_channel(p, state)
            coherent = rings.outputs[0]
            assert coherent.dtype == np.float64
            assert np.abs(coherent - expected.matrix).max() <= 1e-15
            assert abs(rings.entropies[0] - von_neumann_entropy(expected)) <= 1e-12
            assert math.isclose(
                rings.photons[0], mean_photon_number(state), rel_tol=1e-15, abs_tol=1e-15
            )


# Chi after each of 20 iterations at the benchmark's optimizer points
# (lambda 0.6, N 1): Blahut-Arimoto over the origin and 8 rings out to
# 2.40 sqrt(N), from uniform weights, with the gamma = 2 step.  A change
# that moves a trajectory by more than rounding fails here.
_PINNED_HISTORIES = {
    0.0: (
        1.5059861465006086, 1.5164458944541628, 1.5211284117047696,
        1.5234276663289519, 1.5246512765537699, 1.52534679654643,
        1.525764854479351, 1.5260292647837441, 1.5262050427438059,
        1.5263279799790284, 1.5264184967591374, 1.5264885546113447,
        1.5265452946029157, 1.526593038705557, 1.5266344307659603,
        1.5266711052168986, 1.5267040868271642, 1.5267340325642358,
        1.5267613786066976, 1.5267864294908184, 1.5268094116885442,
    ),
    0.5: (
        0.9958696383247244, 0.9978233845438604, 0.9992280668464613,
        1.0002507602000084, 1.0010059264531963, 1.001571601473786,
        1.0020012317693783, 1.0023317863607346, 1.0025891619820964,
        1.0027917519000458, 1.0029528053191332, 1.0030819985036712,
        1.0031864920118077, 1.0032716508581556, 1.003341541468581,
        1.0033992791393052, 1.0034472741353948, 1.0034874081959269,
        1.003521162655159, 1.0035497125108916, 1.0035739962410675,
    ),
}


@pytest.mark.parametrize("n_env", sorted(_PINNED_HISTORIES))
def test_optimizer_trajectory_is_pinned(n_env):
    result = optimize(params(0.6, n_env), 1.0, OptimizerConfig(seed=0, max_iterations=20))
    assert [it for it, _ in result.history] == list(range(21))
    assert len(result.radii) == 9
    history = np.array([value for _, value in result.history])
    assert np.abs(history - np.array(_PINNED_HISTORIES[n_env])).max() <= 1e-12


@pytest.mark.parametrize("n_env", sorted(_PINNED_HISTORIES))
def test_first_twenty_sweeps_do_not_stall_for_any_seed(n_env):
    # The search does not read the seed, so every seed runs the pinned
    # trajectory, and each of its first 20 iterations gains at least the
    # tolerance: every bench call does the same 20 iterations.
    reference = optimize(params(0.6, n_env), 1.0, OptimizerConfig(seed=0, max_iterations=20))
    for seed in range(1, 5):
        config = OptimizerConfig(seed=seed, max_iterations=20)
        result = optimize(params(0.6, n_env), 1.0, config)
        assert result.history == reference.history
        assert result.dual_gaps == reference.dual_gaps
        history = [value for _, value in result.history]
        assert min(b - a for a, b in zip(history, history[1:])) >= config.tolerance


def _disc_radii(n, count=8):
    """The origin and `count` rings out to `_radius_cap(n)`, where `optimize` puts them."""
    cap = _radius_cap(n)
    return [cap * i / count for i in range(count + 1)]


def _phase_average(p, radius, dim, phases):
    """The explicit phase average of a ring: `phases` coherent states, pushed one by one."""
    outs = [
        apply_channel(p, coherent_state(radius * np.exp(2j * math.pi * j / phases), dim))
        for j in range(phases)
    ]
    return sum(out.matrix for out in outs) / phases, outs


@pytest.mark.parametrize("n_env", [0.0, 0.5])
def test_ring_pool_matches_direct_pushes(n_env):
    # Phase covariance lets one real push per ring stand in for its
    # phases: averaged over as many phases as the output has levels, the
    # directly pushed members' outputs are the ring's output diagonal,
    # and each member has the ring's entropy and photons.
    p = params(0.6, n_env)
    radii = _disc_radii(1.0)
    rings = _push_rings(p, radii, DEFAULT_CHI_DIM_CAP)
    assert len(rings.outputs) == 9 and radii[-1] == _radius_cap(1.0)
    diagonals = _ring_diagonals(rings)
    for k in (1, 4, 8):
        radius, dim, phases = radii[k], rings.cutoffs[k], len(rings.outputs[k])
        average, outs = _phase_average(p, radius, dim, phases)
        assert len(average) == phases  # the output's levels
        off = average - np.diag(average.diagonal())
        assert np.abs(off).max() <= 1e-15
        diagonal = diagonals[k]
        assert np.abs(average.diagonal().real - diagonal[:phases]).max() <= 1e-15
        assert not diagonal[phases:].any()
        for out in outs:
            assert abs(von_neumann_entropy(out) - rings.entropies[k]) <= 1e-12
        state = coherent_state(radius * np.exp(0.7j), dim)
        assert math.isclose(mean_photon_number(state), rings.photons[k], rel_tol=1e-14)
    # Half as many phases leave a lag of the output standing, far above
    # the rounding of the full average.
    radius, dim, phases = radii[8], rings.cutoffs[8], len(rings.outputs[8])
    average, _ = _phase_average(p, radius, dim, phases // 2)
    assert np.abs(average - np.diag(average.diagonal())).max() > 1e-12


@pytest.mark.parametrize("n_env", [0.0, 0.5])
def test_dual_bound_caps_chi_at_other_weights(n_env):
    # Blahut's dual bound: for any output distribution q and mu >= 0,
    # chi at feasible weights u is at most max_i [D(ring i || q) -
    # mu (n_i - N)].  With q the average at weights w, `_dual_gap` plus
    # chi(w) is that bound at the best mu, so it caps chi(u) for every
    # feasible u, and no mu on a fine grid beats it.
    rng = np.random.default_rng(29)
    rings = _push_rings(params(0.6, n_env), _disc_radii(1.0), DEFAULT_CHI_DIM_CAP)
    photons, diagonals = rings.photons, _ring_diagonals(rings)

    def feasible(raw):
        return _tilted_weights(raw, photons, 1.0)

    for _ in range(12):
        w = feasible(rng.exponential(1.0, len(photons)) ** 3)
        value, scores = _evaluate(diagonals, rings.entropies, w)
        assert abs(float(w @ scores) / LN2 - value) <= 1e-12
        gap = _dual_gap(scores, photons, 1.0, value)
        assert gap >= -1e-12
        mus = np.linspace(0.0, 5.0, 5001)
        grid = (scores[None, :] - mus[:, None] * (photons - 1.0)[None, :]).max(axis=1)
        assert value + gap <= grid.min() / LN2 + 1e-15
        others = [feasible(rng.exponential(1.0, len(photons)) ** 3) for _ in range(8)]
        others += [feasible(w * np.exp(1e-9 * rng.standard_normal(len(photons))))]
        for u in others:
            assert _evaluate(diagonals, rings.entropies, u)[0] <= value + gap + 1e-12
    # At convergence the gap is small and chi sits below its bound.
    result = optimize(params(0.6, n_env), 1.0)
    assert result.converged
    assert 0.0 <= result.dual_gap_bits <= 1e-3


def test_accelerated_step_falls_back_where_it_would_lower_chi():
    # At lambda 1, N 4 on two rings the gamma = 2 step overshoots in
    # iterations 2 and 3, by 0.16 and 5e-4 bits; the plain step taken
    # instead still gains, so chi rises in every iteration.
    config = OptimizerConfig(ensemble_size=2, max_iterations=3)
    result = optimize(params(1.0, 0.0), 4.0, config)
    assert result.stats.fallback_steps == 2
    history = [value for _, value in result.history]
    assert all(b - a > 1e-3 for a, b in zip(history, history[1:]))


# (lambda, N_E) points at N = 1 where the member search, started from two
# members, stalled 0.26 to 0.34 bits short of `holevo_lower`.
@pytest.mark.parametrize("lam, n_env", [(0.6, 0.3), (0.6, 0.5), (0.4, 0.3)])
def test_two_rings_reach_the_lower_bound(lam, n_env):
    p = params(lam, n_env)
    result = optimize(p, 1.0, OptimizerConfig(ensemble_size=2))
    assert result.converged
    assert abs(holevo_lower(p, 1.0) - result.best_chi_bits) <= 1e-3


# (lambda, N_E) points at N = 4 where the member search fell 1.0e-3 and
# 0.107 bits short of `holevo_lower`.
@pytest.mark.parametrize("lam, n_env", [(0.6, 2.0), (0.9, 0.0)])
def test_default_rings_reach_the_lower_bound_at_n_4(lam, n_env):
    p = params(lam, n_env)
    result = optimize(p, 4.0)
    assert result.converged
    assert abs(holevo_lower(p, 4.0) - result.best_chi_bits) <= 1e-3
    assert result.best_chi_bits <= additive_extension_upper(p, 4.0) + 1e-6


# Hot points whose edge cutoff times the environment's levels passes
# 4,096 (100 x 57 = 5,700 and 63 x 104 = 6,552); their transfer builds,
# 13.1 and 11.3 MiB, sit within the byte cap.
@pytest.mark.parametrize("n_env, n_signal", [(2.0, 8.0), (4.0, 4.0)])
def test_default_rings_reach_the_lower_bound_beside_a_hot_environment(n_env, n_signal):
    p = params(0.6, n_env)
    result = optimize(p, n_signal)
    assert result.converged
    assert abs(holevo_lower(p, n_signal) - result.best_chi_bits) <= 1e-3
    assert result.best_chi_bits < additive_extension_upper(p, n_signal)


@pytest.mark.parametrize("n_env", [0.0, 0.5])
def test_optimize_reports_its_truncation(n_env):
    # Both tails recomputed from the returned ensemble: each member's
    # output loses the environment tail, and a truncated coherent vector
    # has |alpha|^2 = |rho_10|^2 / rho_00^2 (the origin's is the vacuum
    # on one level).
    p = params(0.6, n_env)
    result = optimize(p, 1.0, OptimizerConfig(max_iterations=5))
    members = [state for state, _ in result.ensemble.members]
    assert {apply_channel(p, state).deficit for state in members} == {result.environment_tail}
    assert (result.environment_tail > 0.0) == (n_env > 0.0)
    tails = [_poisson_tail_bound(_member_photons(s), s.dim) for s in members]
    assert result.max_member_tail == pytest.approx(max(tails), rel=1e-9)
    assert result.max_member_tail > 0.0
    vacuum = optimize(p, 0.0)
    assert vacuum.environment_tail == vacuum.max_member_tail == 0.0
