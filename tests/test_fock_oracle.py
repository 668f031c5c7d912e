"""Tests for the truncated Fock-space oracle: states, channel, entropies."""

import cmath
import math
import tracemalloc
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from thermalcap import fock_oracle, gfunc
from thermalcap.bounds import LN2, holevo_lower
from thermalcap.fock_oracle import (
    DEFAULT_CHI_DIM_CAP,
    DEFAULT_MAX_JOINT_DIM,
    DEFAULT_TAIL_TOL,
    BudgetError,
    _LEVELS_PER_PHOTON,
    FockDensityMatrix,
    GridSpec,
    _coherent_cutoff,
    _thermal_cutoff,
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
    env_probs, _ = fock_oracle._env_distribution(0.5)

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
    dim, tail = _thermal_cutoff(1.0)
    assert thermal_tail_bound(1.0, dim) <= 1e-10
    assert tail <= 1e-10
    dim, _ = _coherent_cutoff(1.0, DEFAULT_MAX_JOINT_DIM)
    assert poisson_tail_bound(1.0, dim) <= 1e-10


@settings(derandomize=True, deadline=None)
@given(mu=st.floats(0.0, 50.0), phase=st.floats(0.0, 2.0 * math.pi))
def test_coherent_budget_is_the_smallest_cutoff_meeting_both_rules(mu, phase):
    # The Poisson tail alone sizes the cutoff: the smallest dim with a tail
    # within DEFAULT_TAIL_TOL.  That is never more levels than starting at
    # 4|alpha|^2 (the coherent_state precondition) and growing to the tail.
    alpha = math.sqrt(mu) * cmath.exp(1j * phase)
    mu = abs(alpha) ** 2

    def meets(dim):
        return poisson_tail_bound(mu, dim) <= DEFAULT_TAIL_TOL

    dim, tail = _coherent_cutoff(mu, DEFAULT_MAX_JOINT_DIM)
    assert meets(dim)
    assert tail == poisson_tail_bound(mu, dim)
    assert dim == 1 or not meets(dim - 1)
    grown = max(math.ceil(_LEVELS_PER_PHOTON * mu), 1)
    while not meets(grown):
        grown += 1
    assert dim <= grown
    # The oracle pushes the truncated vector, which may hold fewer than
    # 4|alpha|^2 levels: it is the Poisson photon count renormalized, and
    # what it drops is within the tail.
    vec = fock_oracle._coherent_vector(alpha, dim)
    poisson = np.array([
        math.exp(n * math.log(mu) - mu - math.lgamma(n + 1.0)) if mu > 0.0 else float(n == 0)
        for n in range(dim)
    ])
    kept = math.fsum(poisson)
    assert 1.0 - kept <= tail + 1e-15
    np.testing.assert_allclose(np.abs(vec) ** 2, poisson / kept, rtol=1e-9, atol=0.0)


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
    out = apply_channel(params(0.8, 1.5), rho)
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


def _lag_blocks(transfer):
    # T_delta of a packed tensor, each cut to its support; the group
    # padding outside that support must hold zeros.
    dim_out, dim_in = transfer[0].shape[1:]
    blocks = [block for group in transfer for block in group]
    assert len(blocks) == dim_in
    for delta, block in enumerate(blocks):
        rows, cols = dim_out - delta, dim_in - delta
        assert not block[rows:].any() and not block[:, cols:].any()
    return [block[: dim_out - d, : dim_in - d] for d, block in enumerate(blocks)]


def test_transfer_tensor_slices_the_largest_build():
    # The oracle builds one tensor at its largest cutoff and slices it for
    # the smaller ones; each lag block of a build at a smaller cutoff is
    # bit for bit the leading slice of that lag's block in the largest.
    for n_env in (0.0, 0.5, 2.0):
        env_probs, _ = fock_oracle._env_distribution(n_env)
        dim_env = len(env_probs)
        largest = _lag_blocks(fock_oracle._transfer_tensor(0.6, env_probs, 40))
        for dim in (1, 17, 39):
            fresh = _lag_blocks(fock_oracle._transfer_tensor(0.6, env_probs, dim))
            for delta, block in enumerate(fresh):
                rows, cols = dim + dim_env - 1 - delta, dim - delta
                assert block.shape == (rows, cols)
                assert np.array_equal(largest[delta][:rows, :cols], block)


def _transfer_by_einsum(lam, env_probs, dim_in):
    # An independent reference for the packed build: the per-lag einsum it
    # once used, over amp[e, p, n] = sqrt(p_e) B[n+e][p, n] read off the
    # full blocks, T_delta[p, k] = sum_e amp[e, p, k] amp[e, p+delta, k+delta].
    dim_env = len(env_probs)
    dim_out = dim_in + dim_env - 1
    blocks = beamsplitter_blocks(lam, dim_out - 1)
    amp = np.zeros((dim_env, dim_out, dim_in))
    for e in range(dim_env):
        for n in range(dim_in):
            amp[e, : n + e + 1, n] = math.sqrt(env_probs[e]) * blocks[n + e][:, n]
    return [
        np.einsum("epk,epk->pk", amp[:, : dim_out - d, : dim_in - d], amp[:, d:, d:])
        for d in range(dim_in)
    ]


@pytest.mark.parametrize("n_env", [0.0, 0.5, 2.0])
def test_transfer_tensor_matches_the_einsum_reference(n_env):
    # The Gram-product build agrees with the per-lag einsum to rounding
    # (at most 1.1e-16 measured), its padding included.
    env_probs, _ = fock_oracle._env_distribution(n_env)
    for dim in (1, 2, 17, 40, 164):
        packed = _lag_blocks(fock_oracle._transfer_tensor(0.6, env_probs, dim))
        reference = _transfer_by_einsum(0.6, env_probs, dim)
        for block, expected in zip(packed, reference):
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-15)


def test_rotated_real_push_matches_the_complex_push():
    # A coherent push runs at the real amplitude |alpha| and rotates the
    # real output by phase covariance; pushing the complex vector gives
    # the same output.
    for n_env in (0.0, 0.5):
        transfer, env_tail = fock_oracle._channel_transfer(params(0.6, n_env), 24)
        real, _, _ = fock_oracle._coherent_output(transfer, env_tail, 1.3, 24)
        assert real.dtype == np.float64
        for alpha in (1.3 * cmath.exp(0.7j), -0.9, 2.0j, 0.4 - 1.1j):
            psi = fock_oracle._coherent_vector(complex(alpha), 24)
            diags = fock_oracle._diagonals(np.outer(psi, psi.conj()))
            direct = fock_oracle._push(transfer, diags, env_tail)
            rotated, _, _ = fock_oracle._coherent_output(transfer, env_tail, alpha, 24)
            assert rotated.dtype == np.complex128
            np.testing.assert_allclose(rotated, direct, rtol=0, atol=1e-15)


def test_transfer_tensor_stores_only_the_support():
    # A dense T[delta, p, j] at the oracle's 164 levels (N_E 0.5, so 21
    # environment levels) would hold 164 * 184 * 164 floats.  The packed
    # build stores at most half of that, and its peak stays below it.
    env_probs, _ = fock_oracle._env_distribution(0.5)
    dense_bytes = 164 * (164 + len(env_probs) - 1) * 164 * 8
    tracemalloc.start()
    try:
        transfer = fock_oracle._transfer_tensor(0.6, env_probs, 164)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(group.nbytes for group in transfer) <= dense_bytes / 2
    assert peak < dense_bytes


def _apply_by_output_offsets(lam, n_env, rho):
    # The channel as first written: a Hadamard kernel per output offset,
    # W_off[i, j] = sum_e p_e kd[e, e-off, i] kd[e, e-off, j] with the
    # Kraus diagonals kd[e, f, n] = B[n+e][n+e-f, n], applied as
    # out[i+off, j+off] += W_off[i, j] rho[i, j].
    env_probs, _ = fock_oracle._env_distribution(n_env)
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
    transfer, _ = fock_oracle._channel_transfer(params(0.6, 0.5), 92)
    assert report.member_dims.max() == 92 and report.dim_env == 21
    assert report.transfer_bytes == sum(group.nbytes for group in transfer)


def test_report_times_its_tensor_fetch_and_eigensolves():
    # A cold report builds its tensor; a repeated one finds it cached.
    fock_oracle._channel_transfer.cache_clear()
    cold = gaussian_ensemble_report(params(0.6, 0.5), 1.0, dim_cap=96)
    warm = gaussian_ensemble_report(params(0.6, 0.5), 1.0, dim_cap=96)
    for report in (cold, warm):
        for seconds in (report.transfer_seconds, report.eigensolve_seconds):
            assert type(seconds) is float and seconds >= 0.0
    assert warm.transfer_seconds < cold.transfer_seconds


def test_push_rejects_an_output_outside_the_trace_window():
    # A kernel output that gains trace, or is NaN, is caught by the kernel
    # itself, not only by a FockDensityMatrix wrapped around it.
    transfer, env_tail = fock_oracle._channel_transfer(params(0.6, 0.5), 6)
    psi = fock_oracle._coherent_vector(0.5, 6)
    diags = fock_oracle._diagonals(np.outer(psi, psi.conj()))
    fock_oracle._push(transfer, diags, env_tail)
    for scale in (1.5, math.nan):
        with pytest.raises(RuntimeError, match="trace accounting violated"):
            fock_oracle._push(tuple(scale * g for g in transfer), diags, env_tail)


def test_pure_entropy_and_vacuum_chi_are_positive_zero():
    # max(x, 0.0) keeps -0.0, which would print as "-0"; the clamps are
    # max(0.0, x).
    assert math.copysign(1.0, von_neumann_entropy(coherent_state(0.0, 4))) == 1.0
    report = gaussian_ensemble_report(params(0.6, 0.0), 0.0)
    assert math.copysign(1.0, report.chi_bits) == 1.0


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


def test_grid_spec_insufficient_coverage():
    with pytest.raises(BudgetError):
        GridSpec(n_radial=3).nodes(1.0)
    # From 187 nodes numpy's Gauss-Laguerre weights overflow, so such a
    # rule is refused before it is computed; 186 nodes run cleanly.
    with pytest.raises(ValueError, match="Gauss-Laguerre"):
        GridSpec(n_radial=187)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GridSpec(n_radial=186).nodes(1.0)


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
    # At dim_cap 4 the Poisson tail cannot reach DEFAULT_TAIL_TOL; the report
    # carries the tail it reached instead of raising.
    report = gaussian_ensemble_report(params(0.6, 0.5), 0.02, dim_cap=4)
    assert report.member_dims.max() == 4
    assert report.max_tail_bound == pytest.approx(3.9936e-3, rel=1e-4)


def test_oracle_checks_the_coherent_cutoff_before_the_environment():
    # Both fail here; the coherent rule runs once per radius before any
    # environment is sized, so its bound is the one raised.
    with pytest.raises(BudgetError) as excinfo:
        gaussian_ensemble_report(params(0.6, 500.0), 1.0, dim_cap=12)
    assert (excinfo.value.bound, excinfo.value.limit) == ("coherent_dim", 12)


def test_oracle_joint_error_names_the_largest_cutoff():
    # One tensor is built, at the largest cutoff (59 levels at N = 1),
    # so the joint error carries 59 x the 1163-level environment.
    with pytest.raises(BudgetError) as excinfo:
        gaussian_ensemble_report(params(0.6, 50.0), 1.0)
    assert (excinfo.value.bound, excinfo.value.limit) == ("joint_dim", 4096)
    assert excinfo.value.value == 59 * 1163


def test_oracle_sizes_a_hot_point_by_its_tail():
    # At N_E 1 the environment takes 34 levels.  The largest radius at N = 2
    # has 4|alpha|^2 = 164, which would put the joint space over its cap
    # (5,576 > 4,096); its Poisson tail needs only 92 levels.
    p = params(0.6, 1.0)
    report = gaussian_ensemble_report(p, 2.0)
    assert report.member_dims.max() * report.dim_env == 92 * 34
    assert abs(report.chi_bits - holevo_lower(p, 2.0)) <= 1e-3
    spread = float(np.abs(report.member_entropies_nats - gfunc.g(0.4)).max())
    assert spread <= 1e-6


@pytest.mark.parametrize(
    "n_env, n_signal, dim_cap, binding",
    [
        (0.5, 1.0, DEFAULT_CHI_DIM_CAP, "environment_tail"),
        (0.0, 1.0, DEFAULT_CHI_DIM_CAP, "coherent_tail"),
        (0.5, 0.02, 4, "dim_cap"),
        # At N = 0.02 the largest radius needs exactly 11 levels: a cap of
        # 11 does not bind, and one of 10 does.
        (0.0, 0.02, 11, "coherent_tail"),
        (0.0, 0.02, 10, "dim_cap"),
    ],
)
def test_oracle_names_the_budget_that_sets_its_tail(n_env, n_signal, dim_cap, binding):
    report = gaussian_ensemble_report(params(0.6, n_env), n_signal, dim_cap=dim_cap)
    assert report.binding_budget == binding
    env_tail = _thermal_cutoff(n_env)[1]
    coherent = max(
        poisson_tail_bound(abs(alpha) ** 2, int(dim))
        for alpha, dim in zip(report.alphas, report.member_dims)
    )
    # |alpha|^2 from a node's phase differs from the radius squared by an ulp.
    source = env_tail if binding == "environment_tail" else coherent
    assert source == max(env_tail, coherent)
    assert report.max_tail_bound == pytest.approx(source, rel=1e-12)


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
    # The hot environment (N_E = 5) takes 127 levels, so a 32-level input
    # fills 4064 of the 4096-level joint cap.
    rho = thermal_state(2.0, 32)
    rep = verify_decomposition_fock(params(0.8, 5.0), [rho])
    assert rep.passed
    out = apply_channel(params(0.8, 5.0), rho)
    expected = 0.8 * mean_photon_number(rho) + 0.2 * 5.0
    assert abs(mean_photon_number(out) - expected) <= 1e-8


def test_apply_channel_joint_dimension_cap():
    # 64 input levels times the 127-level environment at N_E = 5.
    with pytest.raises(BudgetError) as excinfo:
        apply_channel(params(0.5, 5.0), thermal_state(2.0, 64))
    assert (excinfo.value.bound, excinfo.value.value) == ("joint_dim", 64 * 127)
    assert excinfo.value.limit == DEFAULT_MAX_JOINT_DIM


def test_fock_density_matrix_validation():
    with pytest.raises(ValueError):
        FockDensityMatrix(np.array([[0.5, 0.3], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        FockDensityMatrix(np.eye(2))  # trace 2 without a matching deficit
    # Positivity is enforced where the spectrum is computed.
    with pytest.raises(ValueError):
        von_neumann_entropy(FockDensityMatrix(np.diag([1.5, -0.5])))
