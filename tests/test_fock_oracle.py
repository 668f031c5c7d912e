"""Tests for the truncated Fock-space oracle: states, channel, entropies."""

import cmath
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from thermalcap import fock_oracle, gfunc
from thermalcap.bounds import LN2, holevo_lower
from thermalcap.fock_oracle import (
    DEFAULT_CHI_DIM_CAP,
    BudgetError,
    _LEVELS_PER_PHOTON,
    FockDensityMatrix,
    GridSpec,
    TruncationBudget,
    apply_channel,
    beamsplitter_blocks,
    coherent_state,
    gaussian_ensemble_report,
    mean_photon_number,
    poisson_tail_bound,
    quadrature_moments,
    thermal_entropy_tail,
    thermal_state,
    thermal_tail_bound,
    verify_decomposition_fock,
    von_neumann_entropy,
)
from thermalcap.gaussian_core import (
    ChannelParams,
    apply_thermal,
    mean_photons,
    thermal_covariance,
)


def params(lam, n_env):
    return ChannelParams(transmissivity=lam, environment_photons=n_env)


def test_beamsplitter_single_photon_block():
    c = s = math.sqrt(0.5)
    blocks = beamsplitter_blocks(0.5, 2)
    np.testing.assert_allclose(blocks[0], [[1.0]], atol=0)
    np.testing.assert_allclose(blocks[1], [[c, -s], [s, c]], atol=1e-15)


def test_beamsplitter_blocks_are_orthogonal():
    for lam in (0.3, 0.6, 0.9):
        blocks = beamsplitter_blocks(lam, 12)
        for block in blocks:
            np.testing.assert_allclose(
                block @ block.T, np.eye(block.shape[0]), atol=5e-15
            )


def test_beamsplitter_identity_at_full_transmissivity():
    blocks = beamsplitter_blocks(1.0, 8)
    for block in blocks:
        np.testing.assert_allclose(block, np.eye(block.shape[0]), atol=1e-12)


def test_beamsplitter_blocks_reject_bool_arguments():
    with pytest.raises(ValueError):
        beamsplitter_blocks(0.5, True)
    with pytest.raises(ValueError):
        beamsplitter_blocks(True, 2)
    with pytest.raises(ValueError):
        beamsplitter_blocks(0.5, -1)
    with pytest.raises(ValueError):
        beamsplitter_blocks(0.5, 2.0)


def _exact_block_entry(lam, total, p, n):
    # <p, total-p| U |n, total-n> from expanding (c a^dag - s b^dag)^n
    # (s a^dag + c b^dag)^(total-n) |0, 0> / sqrt(n! (total-n)!), in
    # 130-digit decimal arithmetic so the alternating sum keeps its digits.
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 130
        c, s = Decimal(lam).sqrt(), (1 - Decimal(lam)).sqrt()
        m = total - n
        acc = Decimal(0)
        for k in range(max(0, p - m), min(n, p) + 1):
            term = Decimal(math.comb(n, k) * math.comb(m, p - k))
            term *= c ** (m - p + 2 * k) * s ** (n + p - 2 * k)
            acc += -term if (n - k) % 2 else term
        ratio = Decimal(math.factorial(p) * math.factorial(total - p))
        ratio /= Decimal(math.factorial(n) * math.factorial(m))
        return float(acc * ratio.sqrt())


def test_beamsplitter_blocks_match_exact_closed_form():
    rng = np.random.default_rng(2)
    for lam in (0.05, 0.6, 0.99):
        blocks = beamsplitter_blocks(lam, 215)
        for total in (40, 120, 215):
            rows = rng.integers(0, total + 1, 40)
            cols = rng.integers(0, total + 1, 40)
            for p, n in zip(rows, cols):
                exact = _exact_block_entry(lam, total, int(p), int(n))
                assert abs(blocks[total][p, n] - exact) <= 1e-13, (lam, total, p, n)
        for block in blocks[:215]:
            np.testing.assert_allclose(
                block @ block.T, np.eye(block.shape[0]), rtol=0, atol=1e-13
            )


def test_block_builds_run_no_eigensolver(monkeypatch):
    # The blocks come from a recurrence, and a tensor build reads them in
    # a column window that must match the full blocks bit for bit.
    full = beamsplitter_blocks(0.6, 30)
    env_probs, _ = fock_oracle._env_distribution(0.5, 1e-10, 4096)

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called in a block build")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    fock_oracle._transfer_tensor(0.6, env_probs, 40)
    assert all(np.array_equal(a, b) for a, b in zip(beamsplitter_blocks(0.6, 30), full))
    for dim_env, dim_in in ((1, 31), (5, 20), (21, 12), (31, 31)):
        windows = list(fock_oracle._blocks(0.6, 31, dim_env, dim_in))
        assert len(windows) == 31
        for total, window in enumerate(windows):
            lo, hi = max(0, total - dim_env), min(total, dim_in - 1)
            assert np.array_equal(window, full[total][:, lo : hi + 1])


def test_thermal_state_zero_temperature_is_vacuum():
    rho = thermal_state(0.0, 6)
    expected = np.zeros((6, 6))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho.matrix, expected, atol=0)
    assert rho.deficit == 0.0


def test_thermal_state_geometric_diagonal():
    rho = thermal_state(1.0, 40)
    diag = np.diag(rho.matrix).real
    np.testing.assert_allclose(diag[:4], [0.5, 0.25, 0.125, 0.0625], rtol=1e-14)
    assert rho.deficit == 2.0 ** (-40)
    assert abs(von_neumann_entropy(rho) - gfunc.g(1.0)) <= 1e-8


def test_thermal_tail_bounds():
    assert thermal_tail_bound(1.0, 40) == 2.0 ** (-40)
    assert abs(thermal_entropy_tail(1.0, 40) - 2.6477374907260764e-11) < 1e-24
    assert abs(thermal_entropy_tail(2.0, 66) - 6.8455480838377270e-11) < 1e-24
    assert poisson_tail_bound(1.0, 30) < 1e-31


def test_truncation_budget_sizes_dimensions():
    budget = TruncationBudget.for_thermal(1.0)
    assert thermal_tail_bound(1.0, budget.dim) <= 1e-10
    assert budget.tail_bound <= 1e-10
    budget = TruncationBudget.for_coherent(1.0)
    assert poisson_tail_bound(1.0, budget.dim) <= 1e-10


@settings(derandomize=True, deadline=None)
@given(
    mu=st.floats(0.0, 50.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    tol=st.floats(1e-14, 0.5),
)
def test_coherent_budget_is_the_smallest_cutoff_meeting_both_rules(mu, phase, tol):
    # dim >= 4|alpha|^2 (the coherent_state precondition) and a Poisson
    # tail within tol; one level fewer must break one of the two.
    alpha = math.sqrt(mu) * cmath.exp(1j * phase)
    mu = abs(alpha) ** 2

    def meets(dim):
        return dim >= max(_LEVELS_PER_PHOTON * mu, 1) and poisson_tail_bound(mu, dim) <= tol

    budget = TruncationBudget.for_coherent(alpha, tol)
    assert meets(budget.dim)
    assert budget.tail_bound == poisson_tail_bound(mu, budget.dim)
    assert budget.dim == 1 or not meets(budget.dim - 1)
    coherent_state(alpha, budget.dim)


def test_coherent_state_examples():
    vac = coherent_state(0.0, 5)
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(vac.matrix, expected, atol=0)

    rho = coherent_state(1.0, 30)
    assert abs(mean_photon_number(rho) - 1.0) <= 1e-10
    assert von_neumann_entropy(rho) <= 1e-10  # pure state


def test_coherent_state_budget_error():
    with pytest.raises(BudgetError) as excinfo:
        coherent_state(3.0, 8)  # |alpha|^2 = 9 > 8/4
    assert excinfo.value.value > excinfo.value.limit


def test_apply_channel_transparent():
    # The output lives on the padded joint-space dimension; the input
    # must come back in the leading block with nothing outside it.
    rho = coherent_state(1.0 + 0.5j, 20)
    out = apply_channel(params(1.0, 2.0), rho)
    d = rho.dim
    np.testing.assert_allclose(out.matrix[:d, :d], rho.matrix, atol=1e-13)
    remainder = out.matrix.copy()
    remainder[:d, :d] = 0.0
    assert float(np.abs(remainder).max()) <= 1e-13


def test_apply_channel_vacuum_invariant_under_pure_loss():
    vac = coherent_state(0.0, 4)
    out = apply_channel(params(0.5, 0.0), vac)
    np.testing.assert_allclose(out.matrix, vac.matrix, atol=1e-15)
    assert out.deficit <= 1e-10


def test_apply_channel_output_entropy_matches_closed_form():
    # Coherent input through a thermal channel: output entropy depends
    # only on (1-lam)*N_E, not on the displacement.
    rho = coherent_state(1.0, 24)
    out = apply_channel(params(0.6, 0.5), rho)
    assert abs(von_neumann_entropy(out) - gfunc.g(0.2)) <= 1e-6


def test_apply_channel_trace_accounting():
    rho = thermal_state(0.7, 30)
    out = apply_channel(params(0.8, 1.5), rho, env_tail_tol=1e-10)
    assert out.deficit <= rho.deficit + 1e-10
    assert abs(float(np.trace(out.matrix).real) - (1.0 - out.deficit)) <= 1e-12


def test_apply_channel_phase_covariance():
    # U(phi) = diag(e^{i n phi}) on the input comes out as U(phi) on the
    # output; the oracle's exact angular average rests on this.  phi is
    # not a multiple of 2 pi / n_angular for any default grid.
    p = params(0.6, 0.5)
    alpha, phi = 1.1, 0.37
    out = apply_channel(p, coherent_state(alpha, 24))
    rotated = apply_channel(p, coherent_state(alpha * np.exp(1j * phi), 24))
    u = np.exp(1j * phi * np.arange(out.dim))
    expected = u[:, None] * out.matrix * u.conj()[None, :]
    np.testing.assert_allclose(rotated.matrix, expected, rtol=0, atol=1e-12)


def test_transfer_tensor_slices_the_largest_build():
    # The oracle builds one tensor at its largest cutoff and slices it for
    # the smaller ones; each slice is bit for bit a build at that cutoff.
    env_probs, _ = fock_oracle._env_distribution(0.5, 1e-10, 4096)
    dim_env = len(env_probs)
    largest = fock_oracle._transfer_tensor(0.6, env_probs, 40)
    assert largest.shape == (40, 40 + dim_env - 1, 40)
    for dim in (1, 17, 39):
        sliced = largest[:dim, : dim + dim_env - 1, :dim]
        fresh = fock_oracle._transfer_tensor(0.6, env_probs, dim)
        assert fresh.shape == (dim, dim + dim_env - 1, dim)
        assert np.array_equal(sliced, fresh)


def _apply_by_output_offsets(lam, n_env, rho):
    # The channel as first written: a Hadamard kernel per output offset,
    # W_off[i, j] = sum_e p_e kd[e, e-off, i] kd[e, e-off, j] with the
    # Kraus diagonals kd[e, f, n] = B[n+e][n+e-f, n], applied as
    # out[i+off, j+off] += W_off[i, j] rho[i, j].
    env_probs, _ = fock_oracle._env_distribution(n_env, 1e-10, 4096)
    dim, dim_env = rho.dim, len(env_probs)
    m_max = dim + dim_env - 2
    blocks = beamsplitter_blocks(lam, m_max)
    kd = np.zeros((dim_env, m_max + 1, dim))
    for n in range(dim):
        for e in range(dim_env):
            for f in range(n + e + 1):
                kd[e, f, n] = blocks[n + e][n + e - f, n]
    out = np.zeros((m_max + 1, m_max + 1), dtype=complex)
    for off in range(-(dim - 1), dim_env):
        lo = max(0, -off)
        kernel = np.zeros((dim, dim))
        for e in range(max(0, off), dim_env):
            d = kd[e, e - off, lo:]
            kernel[lo:, lo:] += env_probs[e] * np.outer(d, d)
        out[lo + off : dim + off, lo + off : dim + off] += (
            kernel[lo:, lo:] * rho.matrix[lo:, lo:]
        )
    return out


def test_apply_channel_matches_output_offset_reference():
    rng = np.random.default_rng(5)
    for n_env, dim_env in ((0.0, 1), (0.5, 21)):
        for dim in (1, 2, 7, 24):
            vecs = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
            mixed = vecs @ vecs.conj().T
            states = (
                coherent_state(0.3 * math.sqrt(dim) * np.exp(0.7j), dim),
                FockDensityMatrix(mixed / np.trace(mixed).real),
            )
            for rho in states:
                out = apply_channel(params(0.6, n_env), rho)
                assert out.dim == dim + dim_env - 1
                reference = _apply_by_output_offsets(0.6, n_env, rho)
                np.testing.assert_allclose(out.matrix, reference, rtol=0, atol=1e-14)


def test_operator_cache_is_bounded():
    # A transmissivity sweep longer than the cache keeps at most its bound;
    # each new channel is a miss, and repeating the newest one is a hit.
    cached = fock_oracle._channel_transfer
    maxsize = cached.cache_parameters()["maxsize"]
    rho = coherent_state(0.5, 6)
    for lam in np.linspace(0.31, 0.93, maxsize + 3):
        p = params(float(lam), 0.5)
        before = cached.cache_info()
        apply_channel(p, rho)
        apply_channel(p, rho)
        after = cached.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        assert after.currsize <= maxsize


def test_oracle_builds_one_transfer_tensor_per_report():
    # The criterion-7 report visits radii at 14 distinct cutoffs; they
    # are all sliced from one tensor built at the largest.
    fock_oracle._channel_transfer.cache_clear()
    report = gaussian_ensemble_report(params(0.6, 0.5), 2.0)
    info = fock_oracle._channel_transfer.cache_info()
    assert len(set(report.member_dims.tolist())) == 14
    assert (info.misses, info.hits) == (1, 0)


def test_push_rejects_an_output_outside_the_trace_window():
    # A kernel output that gains trace, or is NaN, is caught by the kernel
    # itself, not only by a FockDensityMatrix wrapped around it.
    transfer, env_tail = fock_oracle._channel_transfer(params(0.6, 0.5), 6, 1e-10, 4096)
    diags = fock_oracle._diagonals(fock_oracle._coherent_vector(0.5, 6))
    fock_oracle._push(transfer, diags, env_tail)
    for scale in (1.5, math.nan):
        with pytest.raises(RuntimeError, match="trace accounting violated"):
            fock_oracle._push(scale * transfer, diags, env_tail)


def test_von_neumann_entropy_maximally_mixed():
    rho = FockDensityMatrix(np.eye(4) / 4.0)
    assert abs(von_neumann_entropy(rho) - math.log(4.0)) < 1e-12


def test_quadrature_moments_match_covariance_algebra():
    rng = np.random.default_rng(123)
    p = params(0.7, 1.2)
    for _ in range(5):
        n = float(rng.uniform(0.1, 2.0))
        out = apply_channel(p, thermal_state(n, 48))
        _, cov_fock = quadrature_moments(out)
        cov_expected = apply_thermal(p, thermal_covariance(n)).matrix
        assert float(np.abs(cov_fock - cov_expected).max()) <= 1e-8


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n_radial=0)
    with pytest.raises(ValueError):
        GridSpec(weight_floor=1.5)


def test_grid_spec_insufficient_coverage():
    with pytest.raises(BudgetError):
        GridSpec(n_radial=3).nodes(1.0)


def test_chi_pure_loss_matches_capacity():
    value = gaussian_ensemble_report(params(0.6, 0.0), 1.0, dim_cap=96).chi_bits
    assert abs(value - gfunc.g(0.6) / LN2) <= 1e-3


def test_chi_zero_signal_is_zero():
    assert gaussian_ensemble_report(params(0.6, 0.5), 0.0).chi_bits == 0.0


def test_chi_report_alpha_independence():
    # Every coherent input produces the same output entropy g((1-lam)*N_E).
    report = gaussian_ensemble_report(params(0.6, 0.5), 1.0, dim_cap=96)
    expected = gfunc.g(0.2)
    spread = float(np.abs(report.member_entropies_nats - expected).max())
    assert spread <= 1e-6
    assert abs(report.chi_bits - holevo_lower(params(0.6, 0.5), 1.0)) <= 1e-3
    assert report.max_tail_bound <= 1e-6


@pytest.mark.parametrize(
    "n_env, dim_cap, bound, limit",
    [
        (0.5, 12, "coherent_dim", 12),
        (500.0, DEFAULT_CHI_DIM_CAP, "thermal_dim", 4096),
        (50.0, DEFAULT_CHI_DIM_CAP, "joint_dim", 4096),
    ],
)
def test_oracle_raises_the_budget_it_cannot_meet(n_env, dim_cap, bound, limit):
    with pytest.raises(BudgetError) as excinfo:
        gaussian_ensemble_report(params(0.6, n_env), 1.0, dim_cap=dim_cap)
    assert (excinfo.value.bound, excinfo.value.limit) == (bound, limit)
    if bound == "coherent_dim":
        assert excinfo.value.value == 14  # 4|alpha|^2 at the largest radius


def test_oracle_reports_the_tail_a_capped_cutoff_reaches():
    # At dim_cap 4 the Poisson tail cannot reach env_tail_tol; the report
    # carries the tail it reached instead of raising.
    report = gaussian_ensemble_report(params(0.6, 0.5), 0.02, dim_cap=4)
    assert report.member_dims.max() == 4
    assert report.max_tail_bound == pytest.approx(3.9936e-3, rel=1e-4)


def test_oracle_rejects_a_zero_tail_tolerance():
    with pytest.raises(ValueError):
        gaussian_ensemble_report(params(0.6, 0.5), 1.0, env_tail_tol=0.0)


def test_oracle_checks_the_coherent_cutoff_before_the_environment():
    # Both fail here; the coherent rule runs once per radius before any
    # environment is sized, so its bound is the one raised.
    with pytest.raises(BudgetError) as excinfo:
        gaussian_ensemble_report(params(0.6, 500.0), 1.0, dim_cap=12)
    assert (excinfo.value.bound, excinfo.value.limit) == ("coherent_dim", 12)


def test_oracle_joint_error_names_the_largest_cutoff():
    # One tensor is built, at the largest cutoff (82 levels at N = 1),
    # so the joint error carries 82 x the 1163-level environment.
    with pytest.raises(BudgetError) as excinfo:
        gaussian_ensemble_report(params(0.6, 50.0), 1.0)
    assert (excinfo.value.bound, excinfo.value.limit) == ("joint_dim", 4096)
    assert excinfo.value.value == 82 * 1163


def test_verify_decomposition_examples():
    p = params(0.5, 1.0)
    vac_out = apply_channel(p, coherent_state(0.0, 8))
    assert abs(mean_photon_number(vac_out) - 0.5) <= 1e-9

    rep = verify_decomposition_fock(
        p, [coherent_state(0.0, 8), coherent_state(1.0, 24)]
    )
    assert rep.passed
    assert rep.max_discrepancy <= 1e-8
    assert len(rep.discrepancies) == 2

    out = apply_channel(p, coherent_state(1.0, 24))
    mean, cov = quadrature_moments(out)
    np.testing.assert_allclose(cov, 2.0 * np.eye(2), atol=1e-8)
    np.testing.assert_allclose(mean, [2.0 * math.sqrt(0.5), 0.0], atol=1e-8)


def test_verify_decomposition_thermal_input():
    # The hot environment (N_E = 5) needs a larger joint space.
    rep = verify_decomposition_fock(
        params(0.8, 5.0), [thermal_state(2.0, 64)], max_joint_dim=8192
    )
    assert rep.passed
    out = apply_channel(params(0.8, 5.0), thermal_state(2.0, 64), max_joint_dim=8192)
    assert abs(mean_photon_number(out) - 2.6) <= 1e-8


def test_apply_channel_joint_dimension_cap():
    with pytest.raises(BudgetError):
        apply_channel(params(0.5, 5.0), thermal_state(2.0, 64), max_joint_dim=64)


def test_fock_density_matrix_validation():
    with pytest.raises(ValueError):
        FockDensityMatrix(np.array([[0.5, 0.3], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        FockDensityMatrix(np.eye(2))  # trace 2 without a matching deficit
    # Positivity is enforced where the spectrum is computed.
    with pytest.raises(ValueError):
        von_neumann_entropy(FockDensityMatrix(np.diag([1.5, -0.5])))
