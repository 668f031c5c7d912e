"""Truncated Fock-space simulation of the thermal noise channel.

Everything here exists to check the closed-form results in `gfunc`,
`gaussian_core`, and `bounds` by brute force: build states as explicit
density matrices on the first D Fock levels, push them through the
beamsplitter-with-thermal-environment channel, and compare entropies and
moments against the analytic predictions.

Truncation is never silent.  Every constructor carries an analytic bound
on the probability weight it discards, `apply_channel` propagates those
bounds, and requests that cannot meet their budget raise `BudgetError`
naming the violated bound.  Each cutoff is decided in one place, at the
one tail tolerance DEFAULT_TAIL_TOL: `_thermal_cutoff` sizes a thermal
environment from its geometric tail, for `_channel_transfer` and so for
every channel push, and `_coherent_cutoff` sizes every coherent push (each
ring `_push_rings` pushes, for the oracle and `chi_opt` alike, and
`coherent_state`) by its Poisson tail alone, and refuses one whose cutoff
exceeds its cap: no answer is degraded, and `ChiReport.binding_budget`
says which tail set its `max_tail_bound`.

The beamsplitter unitary conserves total photon number, so it is built
block by block: within the span of |n, M-n> the unitary is a finite
orthogonal rotation, which a stable two-term photon-adding recurrence
builds from the block before it.  The channel is phase-covariant, so
diagonal delta of the input feeds only diagonal delta of the output;
tracing out the thermal environment collapses the block columns into one
real transfer tensor per channel, and `apply_channel` is one matmul per
lag group over the input's diagonals, without ever materializing the
joint Hilbert space.  The tensor is packed: each lag keeps only the
rectangle its entries can be nonzero in, and at most four groups of lags
store about half of a dense (dim_in, dim_out, dim_in) array, whose
nonzero share is about a fifth (3.8 MB instead of 7.6 MB at the
oracle's 92 levels with 21 environment levels).  It is built by one
BLAS Gram product per output-minus-input diagonal, which yields every
lag at once, and one plain strided slice per lag group and diagonal;
the blocks come from one square-root table and one reused zero-bordered
buffer, with the float operations of the block-by-block recurrence.
Every push truncates alike, at DEFAULT_TAIL_TOL, and no build allocates
more than DEFAULT_MAX_TRANSFER_BYTES.  `_channel_transfer` keeps only its
last tensor: an oracle report or an optimizer run fetches one and slices
it for each smaller state, and a tensor build streams the block columns
it reads and keeps none.

Each step of a Holevo quantity is written once, for the oracle and
`chi_opt` alike: the kernel `_push` runs only under `apply_channel`, on
the diagonals `_diagonals` reads, and `_push_rings`, which sizes, fetches
a tensor for and pushes every coherent ring (each oracle radius and each
optimizer ring) on diagonals read from its vector, and `_holevo` turns an
average output into chi.  A ring is pushed at its real radius: the
vector, its diagonals, the kernel's matmuls, the output and the
entropy's eigensolve are all real, and so are the oracle's average and
every one of its eigensolves; `apply_channel` keeps the complex path for
arbitrary states.

The oracle's radial rule is Gauss-Laguerre, taken from one symmetric
eigensolve of its Jacobi matrix (Golub and Welsch, Math. Comp. 23, 221,
1969), so a report imports nothing beyond `numpy.linalg`.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
import functools
import math
import sys
import time

import numpy as np

from .gaussian_core import ChannelParams, decompose

__all__ = [
    "BudgetError",
    "FockDensityMatrix",
    "GridSpec",
    "ChiReport",
    "thermal_state",
    "coherent_state",
    "beamsplitter_blocks",
    "apply_channel",
    "von_neumann_entropy",
    "mean_photon_number",
    "thermal_entropy_tail",
    "gaussian_ensemble_report",
    "verify_decomposition_fock",
    "DEFAULT_CHI_DIM_CAP",
]

HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10         # most negative eigenvalue a physical state may show
ENTROPY_EIGENVALUE_FLOOR = 1e-15
TRACE_TOL = 1e-9
DEFAULT_TAIL_TOL = 1e-10
DEFAULT_MAX_TRANSFER_BYTES = 64 * 2**20
DEFAULT_CHI_DIM_CAP = 192

_LN2 = math.log(2.0)
_LOG_FLOOR = 1e-18             # eigenvalue floor of the average's logarithm
# Lag groups of a packed transfer tensor: more groups store fewer zeros,
# and each costs one more matmul per push.
_LAG_GROUPS = 4


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


def _thermal_cutoff(n_mean: float) -> tuple[int, float]:
    """The thermal-cutoff rule: (dim, geometric tail) for N = n_mean.

    dim is the smallest cutoff whose tail is at most DEFAULT_TAIL_TOL; it
    only sizes, and `_channel_transfer` refuses a build too large to hold.
    Where q = N/(N+1) rounds below 1 the tail is q**dim, bit for bit the
    deficit of `thermal_state(N, dim)`, and dim is bisected on that very
    tail below sys.maxsize, where every q < 1 meets it.  From N ~ 1e16 on
    q rounds to 1: -ln q is then log1p(1/N), dim the exact ratio of the
    two logarithms rounded up (an int even past the float range), and the
    tail exp(-dim log1p(1/N)).
    """
    n_mean = _check_photon_number(n_mean)
    if n_mean == 0.0:
        return 1, 0.0
    q = n_mean / (n_mean + 1.0)
    if q == 1.0:
        top, bottom = (-math.log(DEFAULT_TAIL_TOL)).as_integer_ratio()
        num, den = math.log1p(1.0 / n_mean).as_integer_ratio()
        dim = -(-top * den // (bottom * num))
        return dim, math.exp(-(dim * num / den))
    dim = 1 + bisect.bisect_left(
        range(1, sys.maxsize), True, key=lambda d: q**d <= DEFAULT_TAIL_TOL
    )
    return dim, q**dim


def _coherent_cutoff(mu: float, max_dim: int) -> tuple[int, float]:
    """The coherent-cutoff rule: (dim, Poisson tail) for |alpha|^2 = mu.

    dim is the smallest cutoff whose `_poisson_tail_bound` is at most
    DEFAULT_TAIL_TOL; BudgetError (coherent_dim, value dim) when it
    exceeds max_dim.  The bound is 1 up to mu, falls strictly after it
    and is at most e^-dim from ceil(e^2 mu + ln(1 / DEFAULT_TAIL_TOL))
    levels on, so a bisection below that (capped at sys.maxsize, the
    longest range) finds dim exactly.
    """
    top = min(math.ceil(math.e**2 * mu - math.log(DEFAULT_TAIL_TOL)), sys.maxsize)
    dim = 1 + bisect.bisect_left(
        range(1, top), True, key=lambda d: _poisson_tail_bound(mu, d) <= DEFAULT_TAIL_TOL
    )
    if dim > max_dim:
        raise BudgetError(
            f"|alpha|^2 = {mu:g} needs cutoff {dim} > limit {max_dim}",
            bound="coherent_dim", value=dim, limit=max_dim,
        )
    return dim, _poisson_tail_bound(mu, dim)


def _check_photon_number(n_mean: float) -> float:
    n_mean = float(n_mean)
    if not (math.isfinite(n_mean) and n_mean >= 0.0):
        raise ValueError(f"mean photon number must be finite and >= 0, got {n_mean}")
    return n_mean


def _poisson_tail_bound(mu: float, dim: int) -> float:
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
    return FockDensityMatrix(np.diag(probs), (n_mean / (n_mean + 1.0)) ** dim)


def _coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Renormalized truncated Fock expansion of |alpha>; real for a float alpha.

    BudgetError (coherent_dim, value |alpha|^2, limit dim) when its norm
    is not finite and positive, as from |alpha| ~ 38 on, where the terms
    overflow before e^(-|alpha|^2 / 2) scales them.  The overflow is that
    error's cause, so it raises no floating-point warning of its own.
    """
    amps = np.empty(dim, dtype=complex if isinstance(alpha, complex) else float)
    amps[0] = 1.0
    mu = abs(alpha) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, dim):
            amps[n] = amps[n - 1] * alpha / math.sqrt(n)
        amps *= math.exp(-mu / 2.0)
        norm = np.linalg.norm(amps)
    if not (math.isfinite(norm) and norm > 0.0):
        raise BudgetError(
            f"|alpha|^2 = {mu:g} has no normalizable expansion on {dim} levels",
            bound="coherent_dim", value=mu, limit=dim,
        )
    return amps / norm


def coherent_state(alpha: complex, dim: int) -> FockDensityMatrix:
    """Projector onto the truncated, renormalized coherent expansion.

    Requires the cutoff `_coherent_cutoff` gives |alpha|^2, else BudgetError
    (coherent_dim, value that cutoff); renormalization then makes the trace
    exactly 1, and the mean photon number sits within the tail budget.
    """
    alpha = complex(alpha)
    dim = _as_positive_dim(dim)
    mu = abs(alpha) ** 2
    if not math.isfinite(mu):
        raise ValueError(f"amplitude must be finite, got {alpha!r}")
    _coherent_cutoff(mu, dim)
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

    Entry (p, n) is (sqrt(n) (c sqrt(p) L[p-1] - s sqrt(M-p) L[p])
    + sqrt(M-n) (s sqrt(p) R[p-1] + c sqrt(M-p) R[p])) / M, with L and R
    the parent columns n - 1 and n.  Every square root and its products
    with c and s come from one table, and the parent sits in one reused
    zero-bordered buffer, so a block costs a handful of array operations;
    each entry is rounded as by that formula evaluated left to right.
    Each yielded block is a new array.
    """
    c, s = math.sqrt(lam), math.sqrt(1.0 - lam)
    root = np.sqrt(np.arange(count + 1.0))
    # Rows p of these columns give c sqrt(p) and s sqrt(p); rows taken in
    # reverse from M give c sqrt(M - p) and s sqrt(M - p).
    c_root, s_root = (c * root)[:, None], (s * root)[:, None]
    # Parent block at rows 1..M and columns 1..width, zero around it.
    pad = np.zeros((count + 1, min(dim_env, dim_in - 1) + 3))
    blk = np.ones((1, 1))
    yield blk
    for total in range(1, count):
        lo, hi = max(0, total - dim_env), min(total, dim_in - 1)
        # Column shift + k of pad holds column lo + k - 1 of the parent.
        shift, width, parent = int(total > dim_env), max(hi - lo + 1, 0), blk.shape[1]
        pad[1 : total + 1, 1 : parent + 1] = blk
        pad[1 : total + 1, parent + 1] = 0.0   # left over from a wider block
        up = pad[: total + 1, shift : shift + width + 1]        # parent rows p - 1
        down = pad[1 : total + 2, shift : shift + width + 1]    # parent rows p
        blk = c_root[: total + 1] * up[:, :-1]                  # columns n - 1
        blk -= s_root[total::-1] * down[:, :-1]
        right = s_root[: total + 1] * up[:, 1:]                 # columns n
        right += c_root[total::-1] * down[:, 1:]
        blk *= root[lo : hi + 1]
        right *= root[total - hi : total - lo + 1][::-1]
        blk += right
        blk /= total
        yield blk


def _transfer_shapes(dim_in: int, dim_env: int) -> list[tuple[int, int, int]]:
    """Shapes of the float arrays a transfer build allocates: `diag`, then each lag group."""
    dim_out = dim_in + dim_env - 1
    size = -(-dim_in // _LAG_GROUPS)
    return [(dim_out, dim_env, dim_in + 1)] + [
        (min(size, dim_in - lo), dim_out - lo, dim_in - lo) for lo in range(0, dim_in, size)
    ]


def _strided(
    base: np.ndarray, offset: int, shape: tuple[int, ...], strides: tuple[int, ...]
) -> np.ndarray:
    """View of the C-contiguous array base, with offset and strides in elements.

    The ndarray constructor checks that the view stays inside base and is
    far cheaper than `as_strided`; a tensor build makes one view per block.
    """
    item = base.itemsize
    return np.ndarray(shape, base.dtype, base, offset * item, tuple(s * item for s in strides))


def _transfer_tensor(
    lam: float, env_probs: np.ndarray, dim_in: int
) -> tuple[np.ndarray, ...]:
    """Packed real transfer tensor carrying each input diagonal to the output.

    The block for lag delta, indexed by the input row k = j - delta, is

        T_delta[p, k] = sum_e p_e B[k+e][p, k] B[k+delta+e][p+delta, k+delta],

    so out[p, p + delta] = sum_k T_delta[p, k] rho[k, k + delta]: the
    environment starts in |e> with probability p_e, input level n and |e>
    share the block of total n + e, and the environment's output level is
    traced out.  T_delta vanishes unless p < dim_out - delta and
    k < dim_in - delta, and only that rectangle is stored.  The lags are
    kept in at most _LAG_GROUPS groups of consecutive lags: the group from
    lag lo is one read-only array of shape (lags, dim_out - lo,
    dim_in - lo), zero outside each lag's rectangle, so group 0 has shape
    (lags, dim_out, dim_in) and each group starts at the lag after the
    last one of the group before.  The groups hold about half the floats
    of a dense (dim_in, dim_out, dim_in) tensor, which never exists.

    Every lag is contracted at once, one diagonal s = p - k at a time:
    with V_s[e, k] = sqrt(p_e) B[k+e][k+s, k], T_delta[k+s, k] is entry
    (k, k + delta) of the Gram matrix V_s^T V_s, one BLAS product.  Each
    Gram goes into a zero-padded buffer, so that a superdiagonal read past
    its end gives zeros.  Read with a row stride one larger, that buffer
    holds bands[j, d] = gram[j, j + d], and each lag group takes one plain
    strided slice of it per diagonal, through a 2-D view of the group.
    A 1 x 1 Gram gets a zero second column, so that it is a matrix
    product like the others and not a dot product, whose rounding differs.

    No entry depends on the input cutoff: `_blocks` yields only the at most
    dim_env + 1 block columns the build reads, bit for bit those of the
    full block, and V_s at d levels is the leading columns of V_s in any
    larger build, so T_delta of a build at d levels is the leading
    (d + dim_env - 1 - delta, d - delta) slice of T_delta in any larger
    build, bit for bit when BLAS runs on one thread.  With more threads
    OpenBLAS may split a large Gram product differently at the two sizes,
    and a slice then agrees to rounding: at most 1e-19 at N_E 2 on two
    threads, up to 164 levels.
    """
    dim_env = len(env_probs)
    diag_shape, *group_shapes = _transfer_shapes(dim_in, dim_env)
    dim_out, _, width = diag_shape
    # diag[r, e, n] = sqrt(p_e) B[n+e][p, n] on diagonal r = n - p + dim_env - 1,
    # so V_s = diag[dim_env - 1 - s]; column dim_in is the zero pad.
    diag = np.zeros(diag_shape)
    for total, blk in enumerate(_blocks(lam, dim_out, dim_env, dim_in)):
        # Input levels n0..n1 meet environment level total - n; the window
        # starts at column max(0, total - dim_env).
        n0, n1 = max(0, total - dim_env + 1), min(dim_in - 1, total)
        first = n0 - max(0, total - dim_env)
        # Rows in reverse order p = total - i, so that both strides are positive.
        target = _strided(
            diag,
            ((n0 - total + dim_env - 1) * dim_env + total - n0) * width + n0,
            (total + 1, n1 - n0 + 1),
            (dim_env * width, (dim_env - 1) * width + 1),
        )
        target[...] = blk[::-1, first : first + n1 - n0 + 1]
    diag *= np.sqrt(env_probs)[:, None]
    groups = [np.zeros(shape) for shape in group_shapes]
    # (first lag, lags, input levels, the group as (lags, rows * levels)).
    planes = [
        (dim_in - levels, lags, levels, group.reshape(lags, -1))
        for group, (lags, _, levels) in zip(groups, group_shapes)
    ]
    rows, stride = max(dim_in, 2), dim_in + len(groups[0]) + 1
    buffer = np.zeros(rows * (stride + 1))
    gram = buffer[: rows * stride].reshape(rows, stride)
    lagged = buffer.reshape(rows, stride + 1).T     # lagged[d, j] = gram[j, j + d]
    # Descending r: the Grams only grow, so the buffer past each is zero.
    for r in range(dim_out - 1, -1, -1):
        s, k0 = dim_env - 1 - r, max(0, r - dim_env + 1)
        cols = max(dim_in - k0, 2)
        v = diag[r, :, k0 : k0 + cols]
        # Two operands, so that NumPy calls gemm: syrk, which it takes for
        # v.T @ v, rounds its diagonal blocks otherwise and breaks the slices.
        np.matmul(v.T, v.copy(), out=gram[:cols, :cols])
        for lo, lags, levels, plane in planes:
            count = levels - k0
            if count <= 0:
                break
            # group[i, k + s, k] = gram[k - k0, k - k0 + lo + i] for k >= k0.
            start = (k0 + s) * levels + k0
            plane[:, start : start + count * (levels + 1) : levels + 1] = (
                lagged[lo : lo + lags, :count]
            )
    for group in groups:
        group.setflags(write=False)
    return tuple(groups)


@functools.lru_cache(maxsize=1)
def _channel_transfer(
    params: ChannelParams, dim_in: int
) -> tuple[tuple[np.ndarray, ...], float]:
    """Packed transfer tensor for dim_in input levels, and the environment tail.

    The environment cutoff is sized from its geometric tail at
    DEFAULT_TAIL_TOL.  BudgetError (transfer_bytes, value the bytes) when
    `diag` and the lag groups of the build would exceed
    DEFAULT_MAX_TRANSFER_BYTES, counted from their shapes before anything
    is allocated; `diag` alone holds at least 16 dim_env^2 bytes, so no
    environment above 2,048 levels passes.  Only the last result is kept,
    so a process holds one tensor (`ChannelParams` is frozen, so it
    hashes); the tensor is read-only.  Each caller fetches once per state,
    report or run and slices for smaller states.  A BudgetError is not
    kept, so it is raised again on every call.
    """
    n_env = params.environment_photons
    dim_env, env_tail = _thermal_cutoff(n_env)
    nbytes = 8 * sum(math.prod(shape) for shape in _transfer_shapes(dim_in, dim_env))
    if nbytes > DEFAULT_MAX_TRANSFER_BYTES:
        raise BudgetError(
            f"transfer_bytes {nbytes} for {dim_in} input x {dim_env} environment "
            f"levels exceeds limit {DEFAULT_MAX_TRANSFER_BYTES}",
            bound="transfer_bytes", value=nbytes, limit=DEFAULT_MAX_TRANSFER_BYTES,
        )
    env_probs = _thermal_probs(n_env, dim_env)
    return _transfer_tensor(params.transmissivity, env_probs, dim_in), env_tail


def _push(
    transfer: tuple[np.ndarray, ...], diags: np.ndarray, deficit: float
) -> np.ndarray:
    """Channel output for the input diagonals diags[delta, k] = rho[k, k + delta].

    diags is a C-contiguous real or complex (d, d) array, zero where
    k >= d - delta, and transfer a packed tensor from `_transfer_tensor`
    for at least d input levels: its lag blocks' leading slices are the
    build at d, bit for bit when BLAS runs on one thread and to rounding
    otherwise (see `_transfer_tensor`).  The output has the dtype of
    diags.  Each lag group takes one real matmul (for complex diags, real
    and imaginary parts side by side), and the lower triangle of the
    output is filled by Hermiticity, so the result is exactly Hermitian.
    Raises RuntimeError unless the output's trace lies in [1 - deficit, 1]
    up to rounding, `deficit` being the input's own deficit plus the
    environment tail; a NaN trace raises too.
    """
    dim_in = len(diags)
    dim_out = dim_in + transfer[0].shape[1] - transfer[0].shape[2]
    terms = _parts(diags)
    # upper[p, p + delta] sits at flat[p * (width + 1) + delta], so
    # lags[delta, p] = upper[p, p + delta] is a strided view that each
    # group's matmul writes into.  Lag delta is zero for p + delta >=
    # dim_out, or lands in the padding columns, which are dropped.
    width = dim_out + dim_in
    flat = np.zeros((dim_out + 1) * width, dtype=diags.dtype)
    lags = flat[: dim_out * (width + 1)].reshape(dim_out, width + 1)[:, :dim_in]
    lags = _parts(lags).transpose(1, 0, 2)
    lo = 0
    for group in transfer:
        if lo >= dim_in:
            break
        hi = min(lo + len(group), dim_in)
        rows, cols = dim_out - lo, dim_in - lo
        np.matmul(
            group[: hi - lo, :rows, :cols], terms[lo:hi, :cols], out=lags[lo:hi, :rows]
        )
        lo = hi
    upper = flat[: dim_out * width].reshape(dim_out, width)[:, :dim_out]
    out = upper + upper.conj().T
    out.flat[:: dim_out + 1] *= 0.5
    lost = 1.0 - float(out.trace().real)
    if not (-TRACE_TOL <= lost <= deficit + 1e-12):
        raise RuntimeError(
            f"trace accounting violated: lost {lost:.3e} outside [0, {deficit:.3e}]"
        )
    return out


def _parts(array: np.ndarray) -> np.ndarray:
    """A float view with a last axis of parts: (re, im) if complex, one if real."""
    return array.view(float).reshape(*array.shape, -1)


def _diagonals(matrix: np.ndarray) -> np.ndarray:
    """Upper diagonals of a square matrix in the layout `_push` takes.

    diags[delta, k] = matrix[k, k + delta], zero for k >= dim - delta,
    read from [matrix | 0] so that k + delta >= dim lands in the zero
    block; real for a real matrix, complex for a complex one.  Entry
    (k, k + delta) of the padded matrix sits at k (2 dim + 1) + delta, so
    the diagonals are one strided view of it, copied.
    """
    dim = len(matrix)
    padded = np.zeros((dim, 2 * dim), dtype=matrix.dtype)
    padded[:, :dim] = matrix
    return _strided(padded, 0, (dim, dim), (1, 2 * dim + 1)).copy()


@dataclass(frozen=True)
class _Rings:
    """The coherent rings `_push_rings` pushed, one entry per radius in its order.

    Per ring: its real output on cutoff + dim_env - 1 levels, the
    output's entropy in nats, the photons of its truncated vector, its
    cutoff and its Poisson tail.  Then the environment tail every output
    lost, the bytes of the one tensor, the seconds its fetch and the
    outputs' eigensolves took, and the sum of the cubed output level
    counts over those eigensolves.
    """

    outputs: tuple[np.ndarray, ...]
    entropies: np.ndarray
    photons: np.ndarray
    cutoffs: tuple[int, ...]
    tails: tuple[float, ...]
    env_tail: float
    transfer_bytes: int
    transfer_seconds: float
    eigensolve_seconds: float
    eigensolve_n3: int


def _push_rings(params: ChannelParams, radii: Sequence[float], dim_cap: int) -> _Rings:
    """Push the coherent vector at each real radius >= 0 through the channel.

    Every radius is sized by `_coherent_cutoff` in the order given before
    anything is fetched, so BudgetError (coherent_dim) names the first
    radius whose cutoff exceeds dim_cap.  Then one transfer tensor is
    fetched, at the largest cutoff, where `_channel_transfer` may refuse
    a build over its byte cap (transfer_bytes).  The vector psi, its
    diagonals psi[k + delta] psi[k], the tensor and the output are all
    real, so each lag group takes one real matmul and the entropy a real
    eigensolve.  Each push reads the leading slice of the tensor's lag
    blocks, bit for bit the build at its own cutoff when BLAS runs on one
    thread, and to rounding with more (see `_transfer_tensor`).  The
    photons are measured on the truncated vector, as `mean_photon_number`
    measures its projector, not taken as the radius squared.
    """
    cutoffs, tails = zip(*(_coherent_cutoff(r * r, dim_cap) for r in radii))
    start = time.perf_counter()
    transfer, env_tail = _channel_transfer(params, max(cutoffs))
    transfer_seconds = time.perf_counter() - start
    outputs, entropies, photons, solves = [], [], [], []
    for radius, dim in zip(radii, cutoffs):
        psi = _coherent_vector(radius, dim)
        # diags[delta, k] = psi[k + delta] psi[k]: a strided view of [psi | 0] times psi.
        padded = np.concatenate([psi, np.zeros(dim)])
        out = _push(transfer, _strided(padded, 0, (dim, dim), (1, 1)) * psi, env_tail)
        start = time.perf_counter()
        entropies.append(_eigenvalue_entropy(np.linalg.eigvalsh(out)))
        solves.append(time.perf_counter() - start)
        probs = psi * psi
        photons.append(float(np.arange(dim) @ probs / probs.sum()))
        outputs.append(out)
    return _Rings(
        tuple(outputs), np.array(entropies), np.array(photons), cutoffs, tails, env_tail,
        sum(group.nbytes for group in transfer), transfer_seconds, math.fsum(solves),
        sum(len(out) ** 3 for out in outputs),
    )


def apply_channel(params: ChannelParams, rho: FockDensityMatrix) -> FockDensityMatrix:
    """Mix rho with a thermal environment on a beamsplitter, trace it out.

    The environment cutoff is sized from its geometric tail at
    DEFAULT_TAIL_TOL; BudgetError (transfer_bytes) when the transfer build
    for rho's levels exceeds DEFAULT_MAX_TRANSFER_BYTES.  The output lives
    on dim + env_dim - 1 levels, enough to hold every photon the truncated
    joint state can carry, so no weight is lost beyond the input deficit
    plus the environment tail; that accounting is checked on every call.
    The work is done by the kernel `_push` on the upper diagonals of rho,
    through the transfer tensor for rho's dimension.
    """
    if not isinstance(rho, FockDensityMatrix):
        raise TypeError(f"expected FockDensityMatrix, got {type(rho).__name__}")
    transfer, env_tail = _channel_transfer(params, rho.dim)
    deficit = rho.deficit + env_tail
    return FockDensityMatrix(_push(transfer, _diagonals(rho.matrix), deficit), deficit)


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
    unphysical.  Clamped with max(0.0, .) so a pure state gives +0.0.
    """
    if vals[0] < -EIGENVALUE_TOL:
        raise ValueError(
            f"state is unphysical: eigenvalue {vals[0]:.3e} below -{EIGENVALUE_TOL:.0e}"
        )
    kept = vals[vals > ENTROPY_EIGENVALUE_FLOOR]
    if kept.size == 0:
        return 0.0
    return max(0.0, float(-np.sum(kept * np.log(kept))))


def _holevo(
    average: np.ndarray, mean_entropy: float
) -> tuple[float, float, np.ndarray | None]:
    """Chi in bits, S(average) in nats, and for a 1-D average ln(average).

    chi = S(average) - mean_entropy (the members' weighted output
    entropies, nats), clamped at +0.0; an unphysical average raises
    ValueError.  A 2-D average takes one eigvalsh and gives no log.  A 1-D
    average is the diagonal of a diagonal matrix: its entries are its
    eigenvalues, so it takes no eigensolve, and its ln is floored at 1e-18.
    """
    if average.ndim == 2:
        vals, ln_avg = np.linalg.eigvalsh(average), None
    else:
        vals, ln_avg = np.sort(average), np.log(np.maximum(average, _LOG_FLOOR))
    entropy = _eigenvalue_entropy(vals)
    return max(0.0, (entropy - mean_entropy) / _LN2), entropy, ln_avg


def mean_photon_number(rho: FockDensityMatrix) -> float:
    """Trace-normalized occupation expectation of the number operator."""
    if not isinstance(rho, FockDensityMatrix):
        raise TypeError(f"expected FockDensityMatrix, got {type(rho).__name__}")
    diag = rho.matrix.diagonal().real
    return float(np.arange(rho.dim) @ diag / rho.trace)


def _quadrature_moments(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
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


def _gauss_laguerre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Laguerre rule.

    The weight function is e^-t on t >= 0.  By Golub and Welsch (Math.
    Comp. 23, 221, 1969) the nodes are the eigenvalues of the symmetric
    Jacobi matrix of the Laguerre polynomials, diagonal 2i + 1 and
    off-diagonal i, and each weight is the squared first component of
    its unit eigenvector; the weights are normalized to sum to 1.  One
    eigensolve, so no weight overflows at any n: numpy's `laggauss`
    overflows from 187 nodes on, while this rule stays finite.
    """
    i = np.arange(n, dtype=float)
    jacobi = np.diag(2.0 * i + 1.0) + np.diag(i[1:], 1) + np.diag(i[1:], -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0] ** 2
    return nodes, weights / weights.sum()


@dataclass(frozen=True)
class GridSpec:
    """Radial-angular discretization of the isotropic Gaussian ensemble.

    The radial direction uses the N_RADIAL Gauss-Laguerre nodes in
    t = |alpha|^2 / N (the exact weight of the Gaussian in that
    variable), from the Golub-Welsch eigensolve `_gauss_laguerre`, which
    stays finite at any node count (numpy's `laggauss` overflows past 186
    nodes), the angular direction N_ANGULAR uniform phases.  Nodes with radial weight below WEIGHT_FLOOR are
    dropped and the rest renormalized; the floor discards under 2e-10 of
    the distribution while keeping the largest node at t ~ 20.5, which
    covers the required phase-space radius 4 sqrt(N) at every N; at
    N = 2 that node's Poisson tail needs 92 levels.  The rule is computed
    on each call, not at import.
    """

    N_RADIAL = 24
    N_ANGULAR = 24
    MAX_SPACING = 0.5          # node spacing budget, in alpha units
    WEIGHT_FLOOR = 1e-9        # smallest radial weight kept

    def nodes(self, n_signal: float) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes and weights for mean photon number n_signal.

        Returns (alphas, weights) with weights summing to 1.  Raises
        BudgetError (grid_radial_spacing) when the radial spacing inside
        r <= 2 sqrt(N), the six nodes with t <= 4, exceeds 0.5: from
        N = 2.413 on.  The arc between phases at the modal radius
        sqrt(N) stays within 0.5 up to N = 3.65, so it never binds.
        """
        n_signal = _check_photon_number(n_signal)
        if n_signal == 0.0:
            return np.array([0.0 + 0.0j]), np.array([1.0])
        t_nodes, t_weights = _gauss_laguerre(self.N_RADIAL)
        keep = t_weights >= self.WEIGHT_FLOOR
        t_nodes, t_weights = t_nodes[keep], t_weights[keep]
        t_weights = t_weights / t_weights.sum()

        radii = np.sqrt(n_signal * t_nodes)
        bulk = radii <= 2.0 * math.sqrt(n_signal)
        spacing = float(np.diff(radii[: int(bulk.sum())]).max())
        if spacing > self.MAX_SPACING:
            raise BudgetError(
                f"radial spacing {spacing:.3f} exceeds {self.MAX_SPACING} in the bulk",
                bound="grid_radial_spacing", value=spacing, limit=self.MAX_SPACING,
            )

        phases = np.exp(2j * math.pi * np.arange(self.N_ANGULAR) / self.N_ANGULAR)
        alphas = (radii[:, None] * phases[None, :]).ravel()
        weights = np.repeat(t_weights / self.N_ANGULAR, self.N_ANGULAR)
        return alphas, weights


@dataclass(frozen=True)
class ChiReport:
    """Everything the Gaussian-ensemble Holevo quantity run produced.

    chi_bits is S(average output) minus the weighted member entropies,
    in bits.  alphas, weights, member_dims and member_entropies (nats)
    hold one entry per grid node, in node order.  Member entropies are
    computed once per radius and repeated over its phases, so their
    spread compares radii.  max_tail_bound is the larger of the
    environment tail and the worst Poisson tail of the nodes' cutoffs,
    so it is at most DEFAULT_TAIL_TOL.  binding_budget names which set
    it: "coherent_tail" when a radius's Poisson tail is above the
    environment's, else "environment_tail".
    The largest cutoff is member_dims.max().  dim_env is the
    environment's cutoff and transfer_bytes what the report's one packed
    transfer tensor holds.  transfer_seconds is the time the report spent
    fetching that tensor (its build, unless it was cached), and
    eigensolve_seconds the time spent in the output eigensolves, the
    members' and the average's.  mean_photons is the ensemble's own
    photon mean, sum w n over its truncated coherent vectors (math.fsum
    of the radius weights times each radius's photons): the weight floor
    and the truncation leave it short of the requested N.
    """

    chi_bits: float
    average_entropy_nats: float
    member_entropies_nats: np.ndarray
    alphas: np.ndarray
    weights: np.ndarray
    member_dims: np.ndarray
    max_tail_bound: float
    binding_budget: str
    dim_env: int
    transfer_bytes: int
    transfer_seconds: float
    eigensolve_seconds: float
    mean_photons: float

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
) -> ChiReport:
    """Holevo quantity of the discretized isotropic Gaussian coherent ensemble.

    Each radius is pushed once by `_push_rings`, at its real phase-0
    amplitude as an optimizer ring is, on the cutoff `_coherent_cutoff`
    gives its Poisson tail at DEFAULT_TAIL_TOL, through one packed
    transfer tensor built at the largest cutoff.  BudgetError is raised
    when a radius's cutoff exceeds dim_cap (coherent_dim, the first such
    radius in ascending order), then at the largest cutoff when the
    transfer build exceeds DEFAULT_MAX_TRANSFER_BYTES (transfer_bytes).
    Every radius is sized before the environment, so when both fail
    coherent_dim is the one raised, and the transfer_bytes error's value
    is the bytes of a build at the largest cutoff.

    The channel is phase-covariant: with U(phi) = diag(e^{i n phi}),
    the input U |alpha> gives the output U rho_out U^dag.  So the nodes
    on one radius share one output entropy, and the average of their
    outputs over the 24 uniform phases is exactly the phase-0 output with
    every entry (m, n) zeroed unless m - n is a multiple of 24.  The
    outputs are added into one real average matrix, largest cutoff
    first, the mask is applied, and chi comes from `_holevo`, so every
    eigensolve of the report is real.
    """
    n_signal = _check_photon_number(n_signal)
    dim_cap = _as_positive_dim(dim_cap)
    alphas, weights = grid.nodes(n_signal)
    # Nodes come radius-major; N = 0 has the single node alpha = 0.
    per_radius = grid.N_ANGULAR if n_signal > 0.0 else 1
    radius_weights = weights.reshape(-1, per_radius).sum(axis=1)
    rings = _push_rings(params, alphas[::per_radius].real, dim_cap)
    dims = np.array(rings.cutoffs)
    dim_out = max(map(len, rings.outputs))
    levels = np.arange(dim_out)
    mask = (levels[:, None] - levels[None, :]) % per_radius == 0
    average = np.zeros((dim_out, dim_out))
    # Largest cutoff first, the order that fixes the average's rounding.
    for k in np.argsort(-dims, kind="stable"):
        out = rings.outputs[k]
        average[: len(out), : len(out)] += radius_weights[k] * out

    average *= mask
    FockDensityMatrix(average, rings.env_tail)  # checks the average: finite, symmetric, trace
    start = time.perf_counter()
    chi_bits, average_entropy, _ = _holevo(average, float(radius_weights @ rings.entropies))
    average_seconds = time.perf_counter() - start
    max_tail = max(rings.tails)
    return ChiReport(
        chi_bits=chi_bits,
        average_entropy_nats=average_entropy,
        member_entropies_nats=np.repeat(rings.entropies, per_radius),
        alphas=alphas,
        weights=weights,
        member_dims=np.repeat(dims, per_radius),
        max_tail_bound=max(max_tail, rings.env_tail),
        binding_budget="coherent_tail" if max_tail > rings.env_tail else "environment_tail",
        dim_env=dim_out - int(dims.max()) + 1,
        transfer_bytes=rings.transfer_bytes,
        transfer_seconds=rings.transfer_seconds,
        eigensolve_seconds=rings.eigensolve_seconds + average_seconds,
        mean_photons=math.fsum(radius_weights * rings.photons),
    )


def verify_decomposition_fock(
    params: ChannelParams, test_states: list[FockDensityMatrix]
) -> float:
    """Check the amplifier-after-loss factorization at the moment level.

    For each test state the first and second quadrature moments of the
    simulated channel output, from `apply_channel` and so truncated as
    every push is, are compared against the input moments mapped through
    the pure-loss stage (transmissivity lam/G) followed by the amplifier
    stage (gain G).  Returns the largest absolute discrepancy over all
    states and entries, 0.0 for no state.
    """
    dec = decompose(params)
    lam_loss = dec.pure_loss_transmissivity
    gain = dec.gain
    worst = 0.0
    for rho in test_states:
        out = apply_channel(params, rho)
        mean_direct, cov_direct = _quadrature_moments(out)
        mean_in, cov_in = _quadrature_moments(rho)
        mean_pred = math.sqrt(gain) * math.sqrt(lam_loss) * mean_in
        cov_pred = gain * (lam_loss * cov_in + (1.0 - lam_loss) * np.eye(2)) + (
            gain - 1.0
        ) * np.eye(2)
        worst = max(
            worst,
            float(np.max(np.abs(mean_direct - mean_pred))),
            float(np.max(np.abs(cov_direct - cov_pred))),
        )
    return worst
