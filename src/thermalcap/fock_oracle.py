"""Truncated Fock-space simulation of the thermal noise channel.

Everything here exists to check the closed-form results in `gfunc`,
`gaussian_core`, and `bounds` by brute force: build states as explicit
density matrices on the first D Fock levels, push them through the
beamsplitter-with-thermal-environment channel, and compare entropies and
moments against the analytic predictions.

Truncation is never silent.  Every constructor carries an analytic bound
on the probability weight it discards, `apply_channel` propagates those
bounds, and requests that cannot meet their budget raise `BudgetError`
naming the violated bound.  Each cutoff is decided in one place:
`TruncationBudget.for_thermal` sizes a thermal environment from its
geometric tail, for `_channel_transfer` and so for every channel push;
`_coherent_cutoff` sizes a coherent state from its Chernoff-Poisson tail,
starting at 4|alpha|^2 levels (`_LEVELS_PER_PHOTON`, the precondition of
`coherent_state`, which the optimizer's ring radius respects too), for
both `TruncationBudget.for_coherent` and `gaussian_ensemble_report`.  The
one degraded answer is the oracle's: a coherent cutoff stopped by
dim_cap reports the tail it reached in `ChiReport.max_tail_bound`.

The beamsplitter unitary conserves total photon number, so it is built
block by block: within the span of |n, M-n> the unitary is a finite
orthogonal rotation, which a stable two-term photon-adding recurrence
builds from the block before it.  The channel is phase-covariant, so
diagonal delta of the input feeds only diagonal delta of the output;
tracing out the thermal environment collapses the block columns into one
real transfer tensor per channel, and `apply_channel` is a single batched
matmul over the input's diagonals, without ever materializing the joint
Hilbert space.  `_channel_transfer` keeps its last 8 transfer tensors,
keyed by its arguments; a tensor build streams the block columns it
reads and keeps none.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
import functools
import math

import numpy as np

from .gaussian_core import ChannelParams, decompose

__all__ = [
    "BudgetError",
    "FockDensityMatrix",
    "TruncationBudget",
    "GridSpec",
    "ChiReport",
    "MomentCheckReport",
    "thermal_state",
    "coherent_state",
    "beamsplitter_blocks",
    "apply_channel",
    "von_neumann_entropy",
    "mean_photon_number",
    "quadrature_moments",
    "thermal_tail_bound",
    "thermal_entropy_tail",
    "dim_for_thermal_entropy",
    "poisson_tail_bound",
    "gaussian_ensemble_report",
    "verify_decomposition_fock",
    "HERMITICITY_TOL",
    "EIGENVALUE_TOL",
    "ENTROPY_EIGENVALUE_FLOOR",
    "TRACE_TOL",
    "DEFAULT_TAIL_TOL",
    "DEFAULT_MAX_JOINT_DIM",
    "DEFAULT_CHI_DIM_CAP",
    "MOMENT_TOL",
]

HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10         # most negative eigenvalue a physical state may show
ENTROPY_EIGENVALUE_FLOOR = 1e-15
TRACE_TOL = 1e-9
DEFAULT_TAIL_TOL = 1e-10
DEFAULT_MAX_JOINT_DIM = 4096
DEFAULT_CHI_DIM_CAP = 192
MOMENT_TOL = 1e-8

_LN2 = math.log(2.0)
# A coherent state on dim levels needs |alpha|^2 <= dim / _LEVELS_PER_PHOTON.
_LEVELS_PER_PHOTON = 4.0


class BudgetError(Exception):
    """A truncation or grid budget cannot be met.

    Attributes name the violated bound so callers can tell an undersized
    Fock cutoff from an undersized quadrature grid without parsing the
    message.
    """

    def __init__(self, message: str, *, bound: str, value: float, limit: float):
        super().__init__(message)
        self.bound = bound
        self.value = value
        self.limit = limit


def _as_positive_dim(dim: int) -> int:
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    return int(dim)


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on Fock levels 0..dim-1 with an explicit trace deficit.

    `deficit` is an analytic upper bound on the probability weight living
    above the truncation, so trace must lie in [1 - deficit, 1] up to
    float tolerance.  The matrix is symmetrized on construction and
    stored read-only.  Positivity (eigenvalues >= -1e-10) holds for
    every state this module constructs and is enforced wherever a
    spectral decomposition is computed anyway.
    """

    matrix: np.ndarray
    deficit: float = 0.0

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("density matrix entries must be finite")
        asym = float(np.max(np.abs(m - m.conj().T)))
        if asym > HERMITICITY_TOL:
            raise ValueError(
                f"density matrix asymmetry {asym:.3e} exceeds {HERMITICITY_TOL:.0e}"
            )
        if not (math.isfinite(self.deficit) and self.deficit >= 0.0):
            raise ValueError(f"trace deficit must be nonnegative, got {self.deficit}")
        m = (m + m.conj().T) / 2.0
        tr = float(m.trace().real)
        if tr > 1.0 + TRACE_TOL or tr < 1.0 - self.deficit - TRACE_TOL:
            raise ValueError(
                f"trace {tr!r} outside [1 - deficit, 1] for deficit {self.deficit:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "deficit", float(self.deficit))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)


@dataclass(frozen=True)
class TruncationBudget:
    """A Fock cutoff together with the analytic tail bound it guarantees."""

    dim: int
    tail_bound: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _as_positive_dim(self.dim))
        if not (math.isfinite(self.tail_bound) and self.tail_bound >= 0.0):
            raise ValueError(f"tail bound must be nonnegative, got {self.tail_bound}")

    @classmethod
    def for_thermal(
        cls,
        n_mean: float,
        tol: float = DEFAULT_TAIL_TOL,
        max_dim: int = DEFAULT_MAX_JOINT_DIM,
    ) -> "TruncationBudget":
        """Smallest cutoff whose geometric tail (N/(N+1))^D is at most tol."""
        n_mean = _check_photon_number(n_mean)
        if not (0.0 < tol < 1.0):
            raise ValueError(f"tail tolerance must be in (0, 1), got {tol}")
        if n_mean == 0.0:
            return cls(1, 0.0)
        q = n_mean / (n_mean + 1.0)
        dim = max(1, math.ceil(math.log(tol) / math.log(q)))
        while q**dim > tol:          # guard against rounding in the ceil
            dim += 1
        if dim > max_dim:
            raise BudgetError(
                f"thermal cutoff {dim} for tail {tol:g} exceeds limit {max_dim}",
                bound="thermal_dim", value=dim, limit=max_dim,
            )
        return cls(dim, q**dim)

    @classmethod
    def for_coherent(
        cls,
        alpha: complex,
        tol: float = DEFAULT_TAIL_TOL,
        max_dim: int = DEFAULT_MAX_JOINT_DIM,
    ) -> "TruncationBudget":
        """Cutoff for a coherent state: Chernoff-Poisson tail at most tol.

        The cutoff comes from `_coherent_cutoff`, so dim >= 4|alpha|^2,
        the precondition of `coherent_state`.  Raises BudgetError
        (coherent_dim) when either needs more than max_dim levels; the
        oracle instead reports the tail its capped cutoff reached.
        """
        mu = abs(complex(alpha)) ** 2
        if not math.isfinite(mu):
            raise ValueError(f"amplitude must be finite, got {alpha!r}")
        dim, tail = _coherent_cutoff(mu, tol, max_dim)
        if tail > tol:
            raise BudgetError(
                f"coherent cutoff for |alpha|^2 = {mu:g}, tail {tol:g} "
                f"exceeds limit {max_dim}",
                bound="coherent_dim", value=dim + 1, limit=max_dim,
            )
        return cls(dim, tail)


def _coherent_cutoff(mu: float, tol: float, max_dim: int) -> tuple[int, float]:
    """The coherent-cutoff rule: (dim, Poisson tail reached) for |alpha|^2 = mu.

    Starts at max(ceil(4 mu), 1), the precondition of `coherent_state`
    (BudgetError coherent_dim if that exceeds max_dim), and grows until
    the tail is at most tol or max_dim stops it.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tail tolerance must be in (0, 1), got {tol}")
    dim = max(math.ceil(_LEVELS_PER_PHOTON * mu), 1)
    if dim > max_dim:
        raise BudgetError(
            f"|alpha|^2 = {mu:g} needs cutoff {dim} > limit {max_dim}",
            bound="coherent_dim", value=dim, limit=max_dim,
        )
    while dim < max_dim and poisson_tail_bound(mu, dim) > tol:
        dim += 1
    return dim, poisson_tail_bound(mu, dim)


def _check_photon_number(n_mean: float) -> float:
    n_mean = float(n_mean)
    if not (math.isfinite(n_mean) and n_mean >= 0.0):
        raise ValueError(f"mean photon number must be finite and >= 0, got {n_mean}")
    return n_mean


def poisson_tail_bound(mu: float, dim: int) -> float:
    """Chernoff bound on P(n >= dim) for a Poisson(mu) photon count.

    exp(-mu) (e mu / dim)^dim, valid and below 1 for dim > mu; returns
    1.0 when the cutoff is too small for the bound to say anything.
    """
    mu = _check_photon_number(mu)
    dim = _as_positive_dim(dim)
    if mu == 0.0:
        return 0.0
    if dim <= mu:
        return 1.0
    log_bound = -mu + dim * (1.0 + math.log(mu) - math.log(dim))
    return math.exp(min(log_bound, 0.0))


def thermal_tail_bound(n_mean: float, dim: int) -> float:
    """Exact probability weight of a thermal state above level dim-1."""
    n_mean = _check_photon_number(n_mean)
    dim = _as_positive_dim(dim)
    return (n_mean / (n_mean + 1.0)) ** dim


def thermal_entropy_tail(n_mean: float, dim: int) -> float:
    """Exact entropy (nats) carried by thermal levels at or above dim.

    With q = N/(N+1) the discarded levels contribute
    q^dim * (ln(N+1) + (dim + N) ln(1 + 1/N)), so the eigenvalue entropy
    of `thermal_state(N, dim)` equals g(N) minus exactly this amount.
    """
    n_mean = _check_photon_number(n_mean)
    dim = _as_positive_dim(dim)
    if n_mean == 0.0:
        return 0.0
    q = n_mean / (n_mean + 1.0)
    return q**dim * (math.log(n_mean + 1.0) + (dim + n_mean) * math.log1p(1.0 / n_mean))


def dim_for_thermal_entropy(
    n_mean: float, tol: float, max_dim: int = DEFAULT_MAX_JOINT_DIM
) -> int:
    """Smallest cutoff whose thermal entropy tail is at most tol nats."""
    n_mean = _check_photon_number(n_mean)
    if not (0.0 < tol < 1.0):
        raise ValueError(f"entropy tolerance must be in (0, 1), got {tol}")
    dim = 1
    while thermal_entropy_tail(n_mean, dim) > tol:
        dim += 1
        if dim > max_dim:
            raise BudgetError(
                f"thermal entropy cutoff for N = {n_mean:g}, tol {tol:g} "
                f"exceeds limit {max_dim}",
                bound="thermal_dim", value=dim, limit=max_dim,
            )
    return dim


def _thermal_probs(n_mean: float, dim: int) -> np.ndarray:
    """p_n = q^n / (N+1) with q = N/(N+1), n < dim; N = 0 gives the vacuum."""
    q = n_mean / (n_mean + 1.0)
    return q ** np.arange(dim) / (n_mean + 1.0)


def thermal_state(n_mean: float, dim: int) -> FockDensityMatrix:
    """Thermal state diag(p_n) with p_n = N^n / (N+1)^(n+1), n < dim.

    The trace deficit is the exact geometric tail (N/(N+1))^dim.
    """
    n_mean = _check_photon_number(n_mean)
    dim = _as_positive_dim(dim)
    probs = _thermal_probs(n_mean, dim).astype(complex)
    return FockDensityMatrix(np.diag(probs), thermal_tail_bound(n_mean, dim))


def _coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Renormalized truncated Fock expansion of |alpha>."""
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    amps *= math.exp(-abs(alpha) ** 2 / 2.0)
    return amps / np.linalg.norm(amps)


def coherent_state(alpha: complex, dim: int) -> FockDensityMatrix:
    """Projector onto the truncated, renormalized coherent expansion.

    Requires |alpha|^2 <= dim/4 so the discarded Poisson weight is far
    into the tail; renormalization then makes the trace exactly 1, and
    the mean photon number sits within the tail budget of |alpha|^2.
    """
    alpha = complex(alpha)
    dim = _as_positive_dim(dim)
    mu = abs(alpha) ** 2
    if not math.isfinite(mu):
        raise ValueError(f"amplitude must be finite, got {alpha!r}")
    if mu > dim / _LEVELS_PER_PHOTON:
        raise BudgetError(
            f"|alpha|^2 = {mu:g} exceeds dim/4 = {dim / _LEVELS_PER_PHOTON:g}; "
            f"enlarge the cutoff",
            bound="coherent_dim", value=_LEVELS_PER_PHOTON * mu, limit=dim,
        )
    vec = _coherent_vector(alpha, dim)
    return FockDensityMatrix(np.outer(vec, vec.conj()), 0.0)


def beamsplitter_blocks(transmissivity: float, max_total: int) -> list[np.ndarray]:
    """Blocks B[M][m, n] = <m, M-m| U |n, M-n> for M = 0..max_total.

    U is the two-mode beamsplitter with cos(theta) = sqrt(transmissivity),
    phase convention U a U^dag = c a - s b, U b U^dag = s a + c b.  Each
    block is a real orthogonal (M+1) x (M+1) matrix, the Wigner d-matrix
    of the rotation, built whole by the recurrence of `_blocks`.
    """
    lam = float(transmissivity)
    if isinstance(transmissivity, bool) or not (math.isfinite(lam) and 0.0 < lam <= 1.0):
        raise ValueError(f"transmissivity must be in (0, 1], got {transmissivity!r}")
    integral = isinstance(max_total, (int, np.integer)) and not isinstance(max_total, bool)
    if not (integral and max_total >= 0):
        raise ValueError(f"max_total must be a nonnegative integer, got {max_total!r}")
    count = int(max_total) + 1
    return list(_blocks(lam, count, count, count))


def _blocks(lam: float, count: int, dim_env: int, dim_in: int) -> Iterator[np.ndarray]:
    """Columns max(0, M - dim_env) .. min(M, dim_in - 1) of B[M], for M < count.

    Since |n, M-n> = (sqrt(n) a^dag |n-1, M-n> + sqrt(M-n) b^dag |n, M-n-1>) / M
    and U a^dag U^dag = c a^dag - s b^dag, U b^dag U^dag = s a^dag + c b^dag,
    column n of B[M] combines columns n-1 and n of B[M-1] (the spin-1/2
    addition of Risbo, J. Geodesy 70, 383, 1996).  The window holds every
    column the next block needs, so a block costs O(M * dim_env); each
    entry takes the same float operations whatever the window, so a
    windowed column is bit for bit that column of the full block.  Unlike
    one-sided raising recurrences, the parents weigh sqrt(n)/M and
    sqrt(M-n)/M, and the recurrence is stable: B B^T is the identity to
    3.2e-14 up to total 214 (5.8e-14 up to 400), and entries at totals 40,
    120 and 215 lie within 4.9e-15 of a 130-digit closed-form evaluation.
    """
    c, s = math.sqrt(lam), math.sqrt(1.0 - lam)
    blk = np.ones((1, 1))
    yield blk
    for total in range(1, count):
        cols = np.arange(max(0, total - dim_env), min(total, dim_in - 1) + 1.0)
        # Zero-bordered parent; its column shift + k holds column cols[k] - 1.
        shift, width = int(total > dim_env), len(cols)
        pad = np.zeros((total + 2, blk.shape[1] + 2))
        pad[1:-1, 1:-1] = blk
        left = pad[:, shift : shift + width]            # columns n - 1
        right = pad[:, shift + 1 : shift + 1 + width]   # columns n
        p = np.sqrt(np.arange(total + 1.0))[:, None]
        q = p[::-1]                                     # sqrt(total - p)
        blk = (
            np.sqrt(cols) * (c * p * left[:-1] - s * q * left[1:])
            + np.sqrt(total - cols) * (s * p * right[:-1] + c * q * right[1:])
        ) / total
        yield blk


def _env_distribution(
    n_env: float, tail_tol: float, max_dim: int
) -> tuple[np.ndarray, float]:
    budget = TruncationBudget.for_thermal(n_env, tail_tol, max_dim)
    return _thermal_probs(n_env, budget.dim), budget.tail_bound


def _transfer_tensor(lam: float, env_probs: np.ndarray, dim_in: int) -> np.ndarray:
    """Real tensor T[delta, p, j] carrying input diagonal delta to the output.

    out[p, p + delta] = sum_j T[delta, p, j] rho[j - delta, j], where

        T[delta, p, j] = sum_e p_e B[j-delta+e][p, j-delta] B[j+e][p+delta, j]:

    the environment starts in |e> with probability p_e, input level n and
    |e> share the block of total n + e, and the environment's output level
    is traced out.  The input is indexed by its column j, so no entry
    depends on the input cutoff; `_blocks` yields only the at most
    dim_env + 1 block columns the build reads, bit for bit those of the
    full block, so the tensor for d levels is the slice
    T[:d, :d + dim_env - 1, :d] of any larger build, bit for bit.  It
    holds dim_in^2 * (dim_in + dim_env - 1) floats.
    """
    dim_env = len(env_probs)
    dim_out = dim_in + dim_env - 1
    # amp[e, p, n] = B[n+e][p, n]: input |n> with environment |e> to output |p>.
    amp = np.zeros((dim_env, dim_out, dim_in))
    for total, blk in enumerate(_blocks(lam, dim_out, dim_env, dim_in)):
        ns = np.arange(max(0, total - dim_env + 1), min(dim_in - 1, total) + 1)
        amp[total - ns, : total + 1, ns] = blk[:, ns - max(0, total - dim_env)].T
    # Scaling amp by sqrt(p_e) in place makes each term one product;
    # summing over the environment one diagonal at a time keeps every
    # temporary smaller than amp.
    amp *= np.sqrt(env_probs)[:, None, None]
    transfer = np.zeros((dim_in, dim_out, dim_in))
    for delta in range(dim_in):
        rows, cols = dim_out - delta, dim_in - delta
        np.einsum(
            "epj,epj->pj", amp[:, :rows, :cols], amp[:, delta:, delta:],
            out=transfer[delta, :rows, delta:],
        )
    transfer.setflags(write=False)
    return transfer


@functools.lru_cache(maxsize=8)
def _channel_transfer(
    params: ChannelParams, dim_in: int, env_tail_tol: float, max_joint_dim: int
) -> tuple[np.ndarray, float]:
    """Transfer tensor for dim_in input levels, and the environment tail.

    The environment cutoff is sized from its geometric tail at
    env_tail_tol; BudgetError when input and environment together exceed
    max_joint_dim.  The last 8 results are kept, keyed by the arguments
    (`ChannelParams` is frozen, so it hashes); the tensor is read-only.
    A BudgetError is not kept, so it is raised again on every call.
    """
    env_probs, env_tail = _env_distribution(
        params.environment_photons, env_tail_tol, max_joint_dim
    )
    dim_env = len(env_probs)
    joint = dim_in * dim_env
    if joint > max_joint_dim:
        raise BudgetError(
            f"joint dimension {dim_in} x {dim_env} = {joint} exceeds cap {max_joint_dim}",
            bound="joint_dim", value=joint, limit=max_joint_dim,
        )
    return _transfer_tensor(params.transmissivity, env_probs, dim_in), env_tail


def _push(transfer: np.ndarray, diags: np.ndarray, deficit: float) -> np.ndarray:
    """Channel output for the input diagonals diags[delta, j] = rho[j - delta, j].

    diags is a C-contiguous complex (dim_in, dim_in) array, zero where
    j < delta.  It goes through the transfer tensor in one real batched
    matmul (real and imaginary parts side by side), and the lower
    triangle of the output is filled by Hermiticity, so the result is
    exactly Hermitian.  Raises RuntimeError unless the output's trace lies
    in [1 - deficit, 1] up to rounding, `deficit` being the input's own
    deficit plus the environment tail; a NaN trace raises too.
    """
    dim_in = len(diags)
    dim_out = transfer.shape[1]
    pushed = np.matmul(transfer, diags.view(float).reshape(dim_in, dim_in, 2))
    # pushed[delta, p] = out[p, p + delta]; it is zero for p + delta >=
    # dim_out, which the padding columns absorb.
    lag = np.arange(dim_in)
    levels = np.arange(dim_out)
    upper = np.zeros((dim_out, dim_out + dim_in), dtype=complex)
    upper[levels, levels + lag[:, None]] = pushed.view(complex)[..., 0]
    upper = upper[:, :dim_out]
    out = upper + upper.conj().T
    out.flat[:: dim_out + 1] *= 0.5
    lost = 1.0 - float(out.trace().real)
    if not (-TRACE_TOL <= lost <= deficit + 1e-12):
        raise RuntimeError(
            f"trace accounting violated: lost {lost:.3e} outside [0, {deficit:.3e}]"
        )
    return out


def _diagonals(psi: np.ndarray) -> np.ndarray:
    """Upper diagonals of |psi><psi| in the layout `_push` takes.

    diags[delta, j] = psi[j - delta] conj(psi[j]), zero for j < delta,
    read off the vector without forming the projector.
    """
    dim = len(psi)
    lag = np.arange(dim)
    padded = np.zeros(2 * dim, dtype=complex)
    padded[dim:] = psi
    return padded[dim + lag - lag[:, None]] * psi.conj()


def apply_channel(
    params: ChannelParams,
    rho: FockDensityMatrix,
    *,
    env_tail_tol: float = DEFAULT_TAIL_TOL,
    max_joint_dim: int = DEFAULT_MAX_JOINT_DIM,
) -> FockDensityMatrix:
    """Mix rho with a thermal environment on a beamsplitter, trace it out.

    The environment cutoff is sized from its geometric tail at
    env_tail_tol.  The output lives on dim + env_dim - 1 levels, enough
    to hold every photon the truncated joint state can carry, so no
    weight is lost beyond the input deficit plus the environment tail;
    that accounting is checked on every call.  The work is done by the
    kernel `_push` on the upper diagonals of rho, through the cached
    transfer tensor.
    """
    if not isinstance(rho, FockDensityMatrix):
        raise TypeError(f"expected FockDensityMatrix, got {type(rho).__name__}")
    dim_in = rho.dim
    transfer, env_tail = _channel_transfer(params, dim_in, env_tail_tol, max_joint_dim)
    # diags[delta, j] = rho[j - delta, j], read from [0 | rho^T] so that
    # j < delta lands in the zero block.
    lag = np.arange(dim_in)
    padded = np.zeros((dim_in, 2 * dim_in), dtype=complex)
    padded[:, dim_in:] = rho.matrix.T
    diags = padded[lag, dim_in + lag - lag[:, None]]
    deficit = rho.deficit + env_tail
    return FockDensityMatrix(_push(transfer, diags, deficit), deficit)


def von_neumann_entropy(rho: FockDensityMatrix) -> float:
    """Eigenvalue entropy -sum mu ln mu in nats, over eigenvalues > 1e-15.

    Truncation makes the trace fall short of 1, so this is the entropy
    of the kept weight; the discarded contribution is bounded by the
    analytic tail formulas.  Weight below the eigenvalue floor adds at
    most dim * 35e-15 nats, far below every tolerance used here.
    """
    if not isinstance(rho, FockDensityMatrix):
        raise TypeError(f"expected FockDensityMatrix, got {type(rho).__name__}")
    return _eigenvalue_entropy(np.linalg.eigvalsh(rho.matrix))


def _eigenvalue_entropy(vals: np.ndarray) -> float:
    """-sum mu ln mu (nats) over ascending eigenvalues mu > 1e-15.

    Raises ValueError when the smallest eigenvalue shows the state is
    unphysical.  Shared with `chi_opt`, which has the spectrum already.
    """
    if vals[0] < -EIGENVALUE_TOL:
        raise ValueError(
            f"state is unphysical: eigenvalue {vals[0]:.3e} below -{EIGENVALUE_TOL:.0e}"
        )
    kept = vals[vals > ENTROPY_EIGENVALUE_FLOOR]
    if kept.size == 0:
        return 0.0
    return max(float(-np.sum(kept * np.log(kept))), 0.0)


def mean_photon_number(rho: FockDensityMatrix) -> float:
    """Trace-normalized occupation expectation of the number operator."""
    if not isinstance(rho, FockDensityMatrix):
        raise TypeError(f"expected FockDensityMatrix, got {type(rho).__name__}")
    diag = rho.matrix.diagonal().real
    return float(np.arange(rho.dim) @ diag / rho.trace)


def quadrature_moments(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """First and second quadrature moments, trace-normalized.

    Quadratures Q = a + a^dag and P = -i(a - a^dag), so the vacuum
    covariance is the identity.  Returns (mean, covariance) with
    mean = (<Q>, <P>) and the symmetrized 2x2 covariance of the
    fluctuations.
    """
    if not isinstance(rho, FockDensityMatrix):
        raise TypeError(f"expected FockDensityMatrix, got {type(rho).__name__}")
    m = rho.matrix
    tr = rho.trace
    n = np.arange(rho.dim)
    exp_a = complex(np.sum(np.sqrt(n[1:]) * m.diagonal(-1))) / tr
    exp_aa = complex(np.sum(np.sqrt(n[2:] * (n[2:] - 1.0)) * m.diagonal(-2))) / tr if rho.dim > 2 else 0.0
    exp_n = float(n @ m.diagonal().real) / tr

    mean = np.array([2.0 * exp_a.real, 2.0 * exp_a.imag])
    qq = 2.0 * exp_aa.real + 2.0 * exp_n + 1.0 - mean[0] ** 2
    pp = -2.0 * exp_aa.real + 2.0 * exp_n + 1.0 - mean[1] ** 2
    qp = 2.0 * exp_aa.imag - mean[0] * mean[1]
    return mean, np.array([[qq, qp], [qp, pp]])


@dataclass(frozen=True)
class GridSpec:
    """Radial-angular discretization of the isotropic Gaussian ensemble.

    The radial direction uses Gauss-Laguerre nodes in t = |alpha|^2 / N
    (the exact weight of the Gaussian in that variable), the angular
    direction is uniform.  Nodes with radial weight below weight_floor
    are dropped and the rest renormalized; the floor at its default
    discards under 2e-10 of the distribution while keeping the largest
    node at t ~ 20.5, which both covers the required phase-space radius
    4 sqrt(N) and keeps the per-node Fock cutoffs inside the joint cap.
    """

    n_radial: int = 24
    n_angular: int = 24
    weight_floor: float = 1e-9

    COVERAGE_FACTOR = 4.0      # required reach, in units of sqrt(N)
    MAX_SPACING = 0.5          # node spacing budget, in alpha units

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_radial", _as_positive_dim(self.n_radial))
        object.__setattr__(self, "n_angular", _as_positive_dim(self.n_angular))
        if not (0.0 <= self.weight_floor < 1.0):
            raise ValueError(f"weight floor must be in [0, 1), got {self.weight_floor}")

    def nodes(self, n_signal: float) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes and weights for mean photon number n_signal.

        Returns (alphas, weights) with weights summing to 1.  Raises
        BudgetError when the surviving nodes cannot cover radius
        4 sqrt(N) or resolve the distribution at spacing 0.5: coverage
        needs the largest kept t node to reach 16, the radial spacing
        check applies inside r <= 2 sqrt(N), and the angular arc length
        is checked at the modal radius sqrt(N).
        """
        n_signal = _check_photon_number(n_signal)
        if n_signal == 0.0:
            return np.array([0.0 + 0.0j]), np.array([1.0])
        t_nodes, t_weights = np.polynomial.laguerre.laggauss(self.n_radial)
        keep = t_weights >= self.weight_floor
        t_nodes, t_weights = t_nodes[keep], t_weights[keep]
        if t_nodes.size == 0:
            raise BudgetError(
                f"weight floor {self.weight_floor:g} removed every radial node",
                bound="grid_coverage", value=0.0, limit=self.COVERAGE_FACTOR**2,
            )
        t_weights = t_weights / t_weights.sum()

        t_required = self.COVERAGE_FACTOR**2
        if t_nodes[-1] < t_required:
            raise BudgetError(
                f"grid reaches t = {t_nodes[-1]:.3f} < {t_required:g}; "
                f"increase n_radial or lower weight_floor",
                bound="grid_coverage", value=t_nodes[-1], limit=t_required,
            )
        radii = np.sqrt(n_signal * t_nodes)
        bulk = radii <= 2.0 * math.sqrt(n_signal)
        if bulk.sum() >= 2:
            spacing = float(np.diff(radii[: int(bulk.sum())]).max())
            if spacing > self.MAX_SPACING:
                raise BudgetError(
                    f"radial spacing {spacing:.3f} exceeds {self.MAX_SPACING} "
                    f"in the bulk; increase n_radial",
                    bound="grid_radial_spacing", value=spacing, limit=self.MAX_SPACING,
                )
        arc = math.sqrt(n_signal) * 2.0 * math.pi / self.n_angular
        if arc > self.MAX_SPACING:
            raise BudgetError(
                f"angular arc spacing {arc:.3f} at the modal radius exceeds "
                f"{self.MAX_SPACING}; increase n_angular",
                bound="grid_angular_spacing", value=arc, limit=self.MAX_SPACING,
            )

        phases = np.exp(2j * math.pi * np.arange(self.n_angular) / self.n_angular)
        alphas = (radii[:, None] * phases[None, :]).ravel()
        weights = np.repeat(t_weights / self.n_angular, self.n_angular)
        return alphas, weights


@dataclass(frozen=True)
class ChiReport:
    """Everything the Gaussian-ensemble Holevo quantity run produced.

    chi_bits is S(average output) minus the weighted member entropies,
    in bits.  alphas, weights, member_dims and member_entropies (nats)
    hold one entry per grid node, in node order.  Member entropies are
    computed once per radius and repeated over its phases, so their
    spread compares radii.  max_tail_bound is the larger of the
    environment tail and the worst Poisson tail the nodes' cutoffs
    reached; where dim_cap stopped a cutoff short of env_tail_tol it is
    that degraded tail, reported rather than raised.
    """

    chi_bits: float
    average_entropy_nats: float
    member_entropies_nats: np.ndarray
    alphas: np.ndarray
    weights: np.ndarray
    member_dims: np.ndarray
    max_tail_bound: float

    def __post_init__(self) -> None:
        for name in ("member_entropies_nats", "alphas", "weights", "member_dims"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def gaussian_ensemble_report(
    params: ChannelParams,
    n_signal: float,
    grid: GridSpec = GridSpec(),
    dim_cap: int = DEFAULT_CHI_DIM_CAP,
    *,
    env_tail_tol: float = DEFAULT_TAIL_TOL,
    max_joint_dim: int = DEFAULT_MAX_JOINT_DIM,
) -> ChiReport:
    """Holevo quantity of the discretized isotropic Gaussian coherent ensemble.

    Each grid node is a coherent signal pushed through the channel with a
    per-node Fock cutoff from `_coherent_cutoff`: Poisson tail at most
    env_tail_tol where dim_cap allows, and otherwise the tail reached at
    dim_cap, reported in max_tail_bound.  BudgetError is raised when a
    node needs more than dim_cap levels for 4|alpha|^2 (coherent_dim),
    then by `_channel_transfer` at the largest cutoff when the
    environment or the joint space exceeds max_joint_dim (thermal_dim,
    joint_dim).  Every radius is sized before the environment, so when
    both fail coherent_dim is the one raised, and the joint_dim error's
    value is the largest cutoff times the environment dimension.

    The channel is phase-covariant: with U(phi) = diag(e^{i n phi}),
    the input U |alpha> gives the output U rho_out U^dag.  So the nodes
    on one radius share one output entropy, and the average of their
    outputs over the n_angular uniform phases is exactly the phase-0
    output with every entry (m, n) zeroed unless m - n is a multiple of
    n_angular.  Each radius therefore costs one push of its coherent
    vector through the channel kernel and one entropy, as an optimizer
    member does.  One transfer tensor is built, at the largest cutoff; a
    smaller cutoff d takes its slice [:d, :d + dim_env - 1, :d], which is
    bit for bit the tensor a build at d gives.
    """
    n_signal = _check_photon_number(n_signal)
    dim_cap = _as_positive_dim(dim_cap)
    alphas, weights = grid.nodes(n_signal)
    # Nodes come radius-major; N = 0 has the single node alpha = 0.
    per_radius = grid.n_angular if n_signal > 0.0 else 1
    radii = alphas[::per_radius].real
    radius_weights = weights.reshape(-1, per_radius).sum(axis=1)
    dims, tails = zip(*(_coherent_cutoff(r * r, env_tail_tol, dim_cap) for r in radii))
    transfer, env_tail = _channel_transfer(params, max(dims), env_tail_tol, max_joint_dim)
    dims = np.array(dims)
    dim_out = transfer.shape[1]
    dim_env = dim_out - transfer.shape[2] + 1
    levels = np.arange(dim_out)
    mask = (levels[:, None] - levels[None, :]) % per_radius == 0
    average = np.zeros((dim_out, dim_out), dtype=complex)
    entropies = np.empty(len(radii))
    # Largest cutoff first, the order that fixes the average's rounding.
    for k in np.argsort(-dims, kind="stable"):
        d = int(dims[k])
        out = _push(
            transfer[:d, : d + dim_env - 1, :d],
            _diagonals(_coherent_vector(radii[k], d)),
            env_tail,
        )
        entropies[k] = _eigenvalue_entropy(np.linalg.eigvalsh(out))
        average[: len(out), : len(out)] += radius_weights[k] * out

    average_entropy = von_neumann_entropy(FockDensityMatrix(average * mask, env_tail))
    chi_bits = max((average_entropy - float(radius_weights @ entropies)) / _LN2, 0.0)
    return ChiReport(
        chi_bits=chi_bits,
        average_entropy_nats=average_entropy,
        member_entropies_nats=np.repeat(entropies, per_radius),
        alphas=alphas,
        weights=weights,
        member_dims=np.repeat(dims, per_radius),
        max_tail_bound=max(*tails, env_tail),
    )


@dataclass(frozen=True)
class MomentCheckReport:
    """Per-state moment discrepancies between the two channel routes."""

    max_discrepancy: float
    discrepancies: tuple[float, ...]
    passed: bool


def verify_decomposition_fock(
    params: ChannelParams,
    test_states: list[FockDensityMatrix],
    *,
    env_tail_tol: float = DEFAULT_TAIL_TOL,
    max_joint_dim: int = DEFAULT_MAX_JOINT_DIM,
) -> MomentCheckReport:
    """Check the amplifier-after-loss factorization at the moment level.

    For each test state the first and second quadrature moments of the
    simulated channel output are compared against the input moments
    mapped through the pure-loss stage (transmissivity lam/G) followed
    by the amplifier stage (gain G).  Passes when the largest absolute
    discrepancy over all entries is at most 1e-8.
    """
    dec = decompose(params)
    lam_loss = dec.pure_loss_transmissivity
    gain = dec.gain
    discrepancies = []
    for rho in test_states:
        out = apply_channel(
            params, rho, env_tail_tol=env_tail_tol, max_joint_dim=max_joint_dim
        )
        mean_direct, cov_direct = quadrature_moments(out)
        mean_in, cov_in = quadrature_moments(rho)
        mean_pred = math.sqrt(gain) * math.sqrt(lam_loss) * mean_in
        cov_pred = gain * (lam_loss * cov_in + (1.0 - lam_loss) * np.eye(2)) + (
            gain - 1.0
        ) * np.eye(2)
        disc = max(
            float(np.max(np.abs(mean_direct - mean_pred))),
            float(np.max(np.abs(cov_direct - cov_pred))),
        )
        discrepancies.append(disc)
    worst = max(discrepancies) if discrepancies else 0.0
    return MomentCheckReport(
        max_discrepancy=worst,
        discrepancies=tuple(discrepancies),
        passed=worst <= MOMENT_TOL,
    )
