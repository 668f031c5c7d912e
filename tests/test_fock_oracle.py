"""Tests for the truncated Fock-space oracle: states, channel, entropies."""

import cmath
import dataclasses
import json
import math
import os
from pathlib import Path
import subprocess
import sys
import tracemalloc
import warnings

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from thermalcap import fock_oracle, gfunc
from thermalcap.bounds import LN2, holevo_lower
from thermalcap.fock_oracle import (
    DEFAULT_CHI_DIM_CAP,
    DEFAULT_MAX_TRANSFER_BYTES,
    DEFAULT_TAIL_TOL,
    BudgetError,
    FockDensityMatrix,
    GridSpec,
    _coherent_cutoff,
    _poisson_tail_bound,
    _quadrature_moments,
    _thermal_cutoff,
    apply_channel,
    beamsplitter_blocks,
    coherent_state,
    gaussian_ensemble_report,
    mean_photon_number,
    thermal_entropy_tail,
    thermal_state,
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


def env_probs_at(n_env):
    """The environment's level probabilities on its tail-sized cutoff."""
    return fock_oracle._thermal_probs(n_env, _thermal_cutoff(n_env)[0])


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
    env_probs = env_probs_at(0.5)

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


def _reference_blocks(lam, count, dim_env, dim_in):
    # The block recurrence as first written: a fresh zero-bordered parent
    # and fresh square roots for every block.
    c, s = math.sqrt(lam), math.sqrt(1.0 - lam)
    blk = np.ones((1, 1))
    yield blk
    for total in range(1, count):
        cols = np.arange(max(0, total - dim_env), min(total, dim_in - 1) + 1.0)
        shift, width = int(total > dim_env), len(cols)
        pad = np.zeros((total + 2, blk.shape[1] + 2))
        pad[1:-1, 1:-1] = blk
        left = pad[:, shift : shift + width]
        right = pad[:, shift + 1 : shift + 1 + width]
        p = np.sqrt(np.arange(total + 1.0))[:, None]
        q = p[::-1]
        blk = (
            np.sqrt(cols) * (c * p * left[:-1] - s * q * left[1:])
            + np.sqrt(total - cols) * (s * p * right[:-1] + c * q * right[1:])
        ) / total
        yield blk


@pytest.mark.parametrize(
    "lam, count, dim_env, dim_in",
    [
        (1.0, 30, 30, 30),
        (0.6, 114, 23, 92),    # an oracle build at N_E 0.55, N 2
        (0.3, 91, 16, 76),
        (0.99, 60, 57, 4),
        (0.5, 21, 21, 1),
        (0.05, 31, 1, 31),
        (0.6, 40, 5, 20),      # empty windows past total dim_in + dim_env - 2
    ],
)
def test_blocks_match_the_reference_recurrence_bit_for_bit(lam, count, dim_env, dim_in):
    # The table-driven recurrence rounds each entry as the formula does, so
    # every window, its shape included, is bit for bit the reference's.
    windows = list(fock_oracle._blocks(lam, count, dim_env, dim_in))
    reference = list(_reference_blocks(lam, count, dim_env, dim_in))
    assert len(windows) == len(reference) == count
    for window, expected in zip(windows, reference):
        assert window.shape == expected.shape
        assert np.array_equal(window, expected)


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
    assert abs(thermal_entropy_tail(1.0, 40) - 2.6477374907260764e-11) < 1e-24
    assert abs(thermal_entropy_tail(2.0, 66) - 6.8455480838377270e-11) < 1e-24
    assert _poisson_tail_bound(1.0, 30) < 1e-31


def test_truncation_budget_sizes_dimensions():
    dim, tail = _thermal_cutoff(1.0)
    assert thermal_state(1.0, dim).deficit == tail <= 1e-10
    dim, _ = _coherent_cutoff(1.0, sys.maxsize)
    assert _poisson_tail_bound(1.0, dim) <= 1e-10


@settings(derandomize=True, deadline=None)
@given(mu=st.floats(0.0, 50.0), phase=st.floats(0.0, 2.0 * math.pi))
def test_coherent_budget_is_the_smallest_cutoff_meeting_both_rules(mu, phase):
    # The Poisson tail alone sizes the cutoff: the smallest dim with a tail
    # within DEFAULT_TAIL_TOL.  That is never more levels than starting at
    # 4|alpha|^2 and growing to the tail.
    alpha = math.sqrt(mu) * cmath.exp(1j * phase)
    mu = abs(alpha) ** 2

    def meets(dim):
        return _poisson_tail_bound(mu, dim) <= DEFAULT_TAIL_TOL

    dim, tail = _coherent_cutoff(mu, sys.maxsize)
    assert meets(dim)
    assert tail == _poisson_tail_bound(mu, dim)
    assert dim == 1 or not meets(dim - 1)
    grown = max(math.ceil(4.0 * mu), 1)
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
    # coherent_state refuses by the tail rule: the value is the cutoff
    # |alpha|^2 = 9 needs, the limit the levels it was given.
    with pytest.raises(BudgetError) as excinfo:
        coherent_state(3.0, 36)
    needed, _ = _coherent_cutoff(9.0, sys.maxsize)
    error = excinfo.value
    assert (error.bound, error.value, error.limit) == ("coherent_dim", needed, 36)
    assert needed == 37
    assert coherent_state(3.0, needed).dim == needed


def test_coherent_state_refuses_an_overflowing_expansion_without_a_warning():
    # |alpha|^2 = 1444 fits its 1710-level tail cutoff, but the expansion's
    # terms overflow before e^-722 scales them.  The caller gets the
    # documented BudgetError, also where warnings are errors.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BudgetError) as excinfo:
            coherent_state(38.0, 1710)
    error = excinfo.value
    assert (error.bound, error.value, error.limit) == ("coherent_dim", 1444.0, 1710)


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
    # not a multiple of the grid's phase step 2 pi / 24.
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


# Builds at each (N_E, largest cutoff), and the smaller cutoffs sliced from
# it; at N_E 2 the 133-163-level slices of a 164-level build are those
# whose Gram products OpenBLAS splits differently on two threads.
_SLICED_BUILDS = [
    (0.0, 40, (1, 17, 39)),
    (0.5, 40, (1, 17, 39)),
    (2.0, 40, (1, 17, 39)),
    (2.0, 164, (133, 148, 163)),
]
_SLICE_CHECK = """
import json
import numpy as np
from thermalcap import fock_oracle

def lags(transfer):
    dim_out, dim_in = transfer[0].shape[1:]
    blocks = [block for group in transfer for block in group]
    return [block[: dim_out - d, : dim_in - d] for d, block in enumerate(blocks)]

differ = []
for n_env, largest, dims in json.loads({builds!r}):
    env_probs = fock_oracle._thermal_probs(n_env, fock_oracle._thermal_cutoff(n_env)[0])
    full = lags(fock_oracle._transfer_tensor(0.6, env_probs, largest))
    for dim in dims:
        fresh = lags(fock_oracle._transfer_tensor(0.6, env_probs, dim))
        if not all(np.array_equal(full[d][: len(b), : dim - d], b) for d, b in enumerate(fresh)):
            differ.append([n_env, largest, dim])
print(json.dumps(differ))
"""


def test_transfer_tensor_slices_the_largest_build():
    # The oracle builds one tensor at its largest cutoff and slices it for
    # the smaller ones; each lag block of a build at a smaller cutoff is
    # bit for bit the leading slice of that lag's block in the largest.
    # That holds on one BLAS thread, so the builds run in a fresh process
    # with the three thread variables set to 1, whatever the caller's.
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(
            [str(Path(fock_oracle.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        ),
    }
    script = _SLICE_CHECK.format(builds=json.dumps(_SLICED_BUILDS))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


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
    env_probs = env_probs_at(n_env)
    for dim in (1, 2, 17, 40, 164):
        packed = _lag_blocks(fock_oracle._transfer_tensor(0.6, env_probs, dim))
        reference = _transfer_by_einsum(0.6, env_probs, dim)
        for block, expected in zip(packed, reference):
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-15)


def test_transfer_tensor_stores_only_the_support():
    # A dense T[delta, p, j] at the oracle's 164 levels (N_E 0.5, so 21
    # environment levels) would hold 164 * 184 * 164 floats.  The packed
    # build stores at most half of that, and its peak stays below it.
    env_probs = env_probs_at(0.5)
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
    env_probs = env_probs_at(n_env)
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
            # The truncated coherent projector at any cutoff, the tail's
            # or not: the push is checked, not the truncation.
            vec = fock_oracle._coherent_vector(0.3 * math.sqrt(dim) * np.exp(0.7j), dim)
            states = (
                FockDensityMatrix(np.outer(vec, vec.conj())),
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
    rho = coherent_state(0.5, 9)
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
        _, cov_fock = _quadrature_moments(out)
        cov_expected = apply_thermal(p, thermal_covariance(n)).matrix
        assert float(np.abs(cov_fock - cov_expected).max()) <= 1e-8


def test_fixed_grid_covers_its_radius_and_its_arcs_never_bind():
    # The 24-node rule keeps nodes out to t = 20.49 >= 16 = 4^2, so it
    # covers radius 4 sqrt(N) at every N; its radial spacing refuses every
    # N from 2.413 on, and below that the arc between its 24 phases at the
    # modal radius sqrt(N) is within the 0.5 spacing budget.
    grid = GridSpec()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alphas, _ = grid.nodes(1.0)
    assert np.abs(alphas).max() ** 2 >= 16.0
    radii = np.unique(np.abs(alphas).round(12))
    spacing = np.diff(radii[radii <= 2.0]).max()
    n_max = (GridSpec.MAX_SPACING / spacing) ** 2
    assert 2.41 < n_max < 2.42
    grid.nodes(n_max * (1.0 - 1e-9))
    with pytest.raises(BudgetError) as excinfo:
        grid.nodes(n_max * (1.0 + 1e-9))
    assert excinfo.value.bound == "grid_radial_spacing"
    assert math.sqrt(n_max) * 2.0 * math.pi / GridSpec.N_ANGULAR <= GridSpec.MAX_SPACING
    assert dataclasses.fields(GridSpec) == ()


def test_gauss_laguerre_rule_matches_numpys_laggauss():
    # The Golub-Welsch eigensolve gives numpy's 24-node rule: the same
    # nodes, and the same 14 weights above the floor, to rounding.
    from numpy.polynomial.laguerre import laggauss

    nodes, weights = fock_oracle._gauss_laguerre(GridSpec.N_RADIAL)
    expected_nodes, expected_weights = laggauss(GridSpec.N_RADIAL)
    np.testing.assert_allclose(nodes, expected_nodes, rtol=1e-14, atol=0.0)
    kept = weights >= GridSpec.WEIGHT_FLOOR
    assert np.array_equal(kept, expected_weights >= GridSpec.WEIGHT_FLOOR)
    assert kept.sum() == 14
    np.testing.assert_allclose(weights[kept], expected_weights[kept], rtol=1e-12, atol=0.0)
    # Past 186 nodes laggauss overflows; the eigensolve stays finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nodes, weights = fock_oracle._gauss_laguerre(200)
    assert np.isfinite(weights).all() and abs(weights.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(nodes) > 0.0)


_COLD_REPORT = """
import sys
from thermalcap.fock_oracle import gaussian_ensemble_report
from thermalcap.gaussian_core import ChannelParams
gaussian_ensemble_report(ChannelParams(0.6, 0.5), 2.0)
print("numpy.polynomial" in sys.modules)
"""


def test_cold_report_leaves_numpy_polynomial_unloaded():
    # A report in a fresh process pays no import beyond the package's own.
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(Path(fock_oracle.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        ),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_REPORT], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_report_measures_its_ensembles_photon_mean():
    # The weight floor and the truncated vectors leave the ensemble about
    # 7.2e-9 photons short of N = 2, and chi sits above holevo_lower at the
    # ensemble's own mean, below it at N.
    p = params(0.6, 0.5)
    report = gaussian_ensemble_report(p, 2.0)
    assert 2.0 - report.mean_photons == pytest.approx(7.201e-9, rel=1e-3)
    lower_at_mean = holevo_lower(p, report.mean_photons)
    assert 0.0 < report.chi_bits - lower_at_mean < 2e-9
    assert report.chi_bits < holevo_lower(p, 2.0)
    # sum w n over the nodes, n measured on each node's truncated vector.
    photons = []
    for alpha, dim in zip(report.alphas, report.member_dims):
        probs = np.abs(fock_oracle._coherent_vector(abs(alpha), int(dim))) ** 2
        photons.append(np.arange(dim) @ probs / probs.sum())
    assert report.mean_photons == pytest.approx(math.fsum(report.weights * photons), rel=1e-14)


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
        (500.0, DEFAULT_CHI_DIM_CAP, "transfer_bytes", 64 * 2**20),
        (50.0, DEFAULT_CHI_DIM_CAP, "transfer_bytes", 64 * 2**20),
    ],
)
def test_oracle_raises_the_budget_it_cannot_meet(n_env, dim_cap, bound, limit):
    with pytest.raises(BudgetError) as excinfo:
        gaussian_ensemble_report(params(0.6, n_env), 1.0, dim_cap=dim_cap)
    assert (excinfo.value.bound, excinfo.value.limit) == (bound, limit)
    if bound == "coherent_dim":
        # Radii are sized in ascending order, so the refusal names the first
        # whose tail-sized cutoff exceeds the cap of 12: 13 levels, not the
        # largest radius's 59.
        assert excinfo.value.value == 13


def test_oracle_reports_the_tail_a_capped_cutoff_reaches():
    # At dim_cap 4 the largest radius's Poisson tail reaches only 3.9936e-3,
    # far above DEFAULT_TAIL_TOL.  No report carries that tail: the point is
    # refused at the first radius needing more than 4 levels, which needs 5.
    with pytest.raises(BudgetError) as excinfo:
        gaussian_ensemble_report(params(0.6, 0.5), 0.02, dim_cap=4)
    error = excinfo.value
    assert (error.bound, error.value, error.limit) == ("coherent_dim", 5, 4)
    radii = GridSpec().nodes(0.02)[0][:: GridSpec.N_ANGULAR].real
    reached = max(_poisson_tail_bound(r * r, 4) for r in radii)
    assert reached == pytest.approx(3.9936e-3, rel=1e-4)
    assert reached > DEFAULT_TAIL_TOL


def test_oracle_checks_the_coherent_cutoff_before_the_environment():
    # Both fail here; the coherent rule runs once per radius before any
    # environment is sized, so its bound is the one raised.
    with pytest.raises(BudgetError) as excinfo:
        gaussian_ensemble_report(params(0.6, 500.0), 1.0, dim_cap=12)
    assert (excinfo.value.bound, excinfo.value.limit) == ("coherent_dim", 12)


def test_oracle_joint_error_names_the_largest_cutoff():
    # One tensor is built, at the largest cutoff (59 levels at N = 1),
    # so the error carries the bytes of a 59-level build beside the
    # 1163-level environment: `diag` (1221, 1163, 60) and four lag groups
    # of 15, 15, 15 and 14 lags on (1221 - lo, 59 - lo), lo = 0, 15, 30, 45.
    with pytest.raises(BudgetError) as excinfo:
        gaussian_ensemble_report(params(0.6, 50.0), 1.0)
    assert (excinfo.value.bound, excinfo.value.limit) == ("transfer_bytes", 64 * 2**20)
    groups = 15 * 1221 * 59 + 15 * 1206 * 44 + 15 * 1191 * 29 + 14 * 1176 * 14
    assert excinfo.value.value == 8 * (1221 * 1163 * 60 + groups) == 702_612_048


def test_oracle_sizes_a_hot_point_by_its_tail():
    # At N_E 1 the environment takes 34 levels.  The largest radius at N = 2
    # has 4|alpha|^2 = 164, which would make a 28.4 MiB transfer build;
    # its Poisson tail needs only 92 levels, a 7.1 MiB build.
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
        # At N = 0.02 the radii need 4 to 11 levels for their Poisson tails:
        # a cap of 4 refuses the second radius (5 levels), and a cap of 11
        # runs while one of 10 refuses the largest.
        (0.5, 0.02, 4, "dim_cap"),
        (0.0, 0.02, 11, "coherent_tail"),
        (0.0, 0.02, 10, "dim_cap"),
    ],
)
def test_oracle_names_the_budget_that_sets_its_tail(n_env, n_signal, dim_cap, binding):
    if binding == "dim_cap":
        # Where the cap stops a cutoff short of DEFAULT_TAIL_TOL, the cap is
        # named by a refusal, with the cutoff the tail needs; no degraded
        # report is returned.
        with pytest.raises(BudgetError) as excinfo:
            gaussian_ensemble_report(params(0.6, n_env), n_signal, dim_cap=dim_cap)
        error = excinfo.value
        assert (error.bound, error.value, error.limit) == ("coherent_dim", dim_cap + 1, dim_cap)
        return
    report = gaussian_ensemble_report(params(0.6, n_env), n_signal, dim_cap=dim_cap)
    assert report.binding_budget == binding
    env_tail = _thermal_cutoff(n_env)[1]
    coherent = max(
        _poisson_tail_bound(abs(alpha) ** 2, int(dim))
        for alpha, dim in zip(report.alphas, report.member_dims)
    )
    # |alpha|^2 from a node's phase differs from the radius squared by an ulp.
    source = env_tail if binding == "environment_tail" else coherent
    assert source == max(env_tail, coherent)
    assert report.max_tail_bound == pytest.approx(source, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n_env=st.floats(0.0, 1.0),
    n_signal=st.floats(0.0, 2.4),
    dim_cap=st.integers(1, DEFAULT_CHI_DIM_CAP),
)
@example(n_env=0.5, n_signal=0.02, dim_cap=4)  # within 4|alpha|^2, short of the tail
@example(n_env=0.0, n_signal=0.02, dim_cap=10)
def test_oracle_meets_the_tail_tolerance_or_refuses(n_env, n_signal, dim_cap):
    # Every cutoff meets DEFAULT_TAIL_TOL or the point is refused; no
    # report carries a tail above it.
    try:
        report = gaussian_ensemble_report(params(0.6, n_env), n_signal, dim_cap=dim_cap)
    except BudgetError as error:
        assert error.bound == "coherent_dim"
        assert error.value > error.limit == dim_cap
        return
    assert report.max_tail_bound <= DEFAULT_TAIL_TOL
    assert report.member_dims.max() <= dim_cap
    assert report.binding_budget in {"environment_tail", "coherent_tail"}


@pytest.mark.parametrize(
    "n_signal, dim_cap, levels",
    [
        # The largest radius's Poisson tail sizes the cutoff, not the
        # 4|alpha|^2 of `coherent_state` (98 at N = 2, 197 at N = 2.4).
        (2.0, 96, 92),
        (2.4, DEFAULT_CHI_DIM_CAP, 104),
    ],
)
def test_oracle_runs_where_the_tail_fits_the_cap(n_signal, dim_cap, levels):
    p = params(0.6, 0.5)
    report = gaussian_ensemble_report(p, n_signal, dim_cap=dim_cap)
    assert report.member_dims.max() == levels
    assert report.max_tail_bound <= DEFAULT_TAIL_TOL
    assert abs(report.chi_bits - holevo_lower(p, n_signal)) <= 1e-3


def test_verify_decomposition_examples():
    p = params(0.5, 1.0)
    vac_out = apply_channel(p, coherent_state(0.0, 8))
    assert abs(mean_photon_number(vac_out) - 0.5) <= 1e-9

    for state in (coherent_state(0.0, 8), coherent_state(1.0, 24)):
        assert verify_decomposition_fock(p, [state]) <= 1e-8
    assert verify_decomposition_fock(p, []) == 0.0

    out = apply_channel(p, coherent_state(1.0, 24))
    mean, cov = _quadrature_moments(out)
    np.testing.assert_allclose(cov, 2.0 * np.eye(2), atol=1e-8)
    np.testing.assert_allclose(mean, [2.0 * math.sqrt(0.5), 0.0], atol=1e-8)


def test_verify_decomposition_thermal_input():
    # The hot environment (N_E = 5) takes 127 levels, so a 32-level input
    # makes a 5.8 MiB transfer build, `diag` 5.1 MiB of it.
    rho = thermal_state(2.0, 32)
    assert verify_decomposition_fock(params(0.8, 5.0), [rho]) <= 1e-8
    out = apply_channel(params(0.8, 5.0), rho)
    expected = 0.8 * mean_photon_number(rho) + 0.2 * 5.0
    assert abs(mean_photon_number(out) - expected) <= 1e-8


def test_apply_channel_joint_dimension_cap():
    # 64 input levels beside the 127-level environment at N_E = 5 make a
    # 15.4 MiB build, within the cap; beside the 472 levels at N_E = 20
    # they make 135.4 MiB: `diag` (535, 472, 65) and lag groups of 16
    # lags on (535 - lo, 64 - lo), lo = 0, 16, 32, 48.
    rho = thermal_state(2.0, 64)
    assert apply_channel(params(0.5, 5.0), rho).dim == 64 + 127 - 1
    with pytest.raises(BudgetError) as excinfo:
        apply_channel(params(0.5, 20.0), rho)
    groups = 16 * (535 * 64 + 519 * 48 + 503 * 32 + 487 * 16)
    assert (excinfo.value.bound, excinfo.value.value) == (
        "transfer_bytes", 8 * (535 * 472 * 65 + groups)
    )
    assert excinfo.value.limit == DEFAULT_MAX_TRANSFER_BYTES


@pytest.mark.parametrize("n_env", [1e-12, 0.5, 2.0, 1e6, 1e9, 1e15])
def test_thermal_cutoff_is_the_smallest_dim_its_deficit_allows(n_env):
    # Where q = N/(N+1) rounds below 1 the tail is q**dim, the deficit
    # `thermal_state` reports, within the tolerance one level sooner never.
    # At N_E 1e15 the rounded q sits 0.08% of 1 - q off N/(N+1), which
    # moves the cutoff ~1.8e13 levels past log1p's estimate.
    dim, tail = _thermal_cutoff(n_env)
    q = n_env / (n_env + 1.0)
    assert tail == q**dim <= DEFAULT_TAIL_TOL < q ** (dim - 1)
    if dim <= 100:
        assert thermal_state(n_env, dim).deficit == tail


@pytest.mark.parametrize("n_env", [1e15, 1e17, 1e300, sys.float_info.max])
def test_thermal_cutoff_sizes_any_environment_and_the_build_refuses_it(n_env):
    # From N_E ~ 1e16 on q rounds to 1 and -ln q is log1p(1/N); at the
    # largest float the cutoff overflows a float and stays an exact int.
    dim, tail = _thermal_cutoff(n_env)
    assert isinstance(dim, int) and dim > 20 * int(n_env)
    assert 0.0 < tail <= DEFAULT_TAIL_TOL
    with pytest.raises(BudgetError) as excinfo:
        apply_channel(params(0.6, n_env), coherent_state(0.0, 1))
    error = excinfo.value
    assert (error.bound, error.limit) == ("transfer_bytes", DEFAULT_MAX_TRANSFER_BYTES)
    assert error.value >= 16 * dim**2


@pytest.mark.parametrize("n_env", [50.0, 1e6])
def test_transfer_bytes_are_refused_before_anything_is_allocated(n_env, monkeypatch):
    # At (0.6, 50, 1) the build would hold 670 MiB, and at N_E 1e6 its
    # `diag` alone 16 x 23-million-level squared bytes; neither the
    # environment's probabilities nor any array of the build is made.
    def refuse(*args, **kwargs):
        raise AssertionError("a refused build allocated")

    monkeypatch.setattr(fock_oracle, "_thermal_probs", refuse)
    monkeypatch.setattr(fock_oracle, "_transfer_tensor", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as excinfo:
            gaussian_ensemble_report(params(0.6, n_env), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert excinfo.value.bound == "transfer_bytes"
    assert excinfo.value.value > 670 * 2**20 > excinfo.value.limit
    assert peak < 2**20


@pytest.mark.parametrize("lam, n_env, dim", [(0.6, 2.0, 92), (0.8, 5.0, 32)])
def test_counted_transfer_bytes_are_what_a_build_allocates(lam, n_env, dim, monkeypatch):
    # The refusal counts `diag` and the lag groups; a real build allocates
    # exactly those float arrays, and the rest of its peak is a few
    # percent: the Gram buffer, the block buffer and one block at a time.
    p = params(lam, n_env)
    monkeypatch.setattr(fock_oracle, "DEFAULT_MAX_TRANSFER_BYTES", 0)
    with pytest.raises(BudgetError) as excinfo:
        fock_oracle._channel_transfer(p, dim)
    counted = excinfo.value.value
    monkeypatch.undo()
    made = []
    zeros = np.zeros

    def recording(*args, **kwargs):
        made.append(zeros(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np, "zeros", recording)
    fock_oracle._channel_transfer.cache_clear()
    tracemalloc.start()
    try:
        transfer, _ = fock_oracle._channel_transfer(p, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    builds = [array for array in made if array.ndim == 3]
    assert len(builds) == 1 + len(transfer)
    assert sum(array.nbytes for array in builds) == counted
    assert counted <= peak <= 1.05 * counted


def test_oracle_runs_a_hot_point_within_the_byte_cap():
    # At (0.6, 2, 2) the 92-level input beside the 57-level environment
    # (5,244 levels, over 4,096) is an 11.0 MiB build; chi sits within
    # criterion 7's 1e-3 bits of the closed-form bound (1.5e-9 measured).
    p = params(0.6, 2.0)
    report = gaussian_ensemble_report(p, 2.0)
    assert (report.member_dims.max(), report.dim_env) == (92, 57)
    assert report.max_tail_bound <= DEFAULT_TAIL_TOL
    assert abs(report.chi_bits - holevo_lower(p, 2.0)) <= 1e-3


def test_fock_density_matrix_validation():
    with pytest.raises(ValueError):
        FockDensityMatrix(np.array([[0.5, 0.3], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        FockDensityMatrix(np.eye(2))  # trace 2 without a matching deficit
    # Positivity is enforced where the spectrum is computed.
    with pytest.raises(ValueError):
        von_neumann_entropy(FockDensityMatrix(np.diag([1.5, -0.5])))
