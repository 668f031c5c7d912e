"""Ascent search for the Holevo quantity over small pure-state ensembles.

The interval in `bounds` brackets the constrained capacity analytically;
this module probes the inside of that interval numerically.  It
maximizes

    chi = S(sum_k w_k E(psi_k)) - sum_k w_k S(E(psi_k))

over ensembles of at most MAX_MEMBERS (16) Fock-truncated pure states
under the mean photon-number constraint, using the channel kernel and
entropy routine of `fock_oracle`.  Pure members lose nothing: under a
linear photon constraint chi is maximized on pure-state ensembles,
because splitting a mixed member into its eigenvectors keeps the photon
mean and, by concavity of the entropy, cannot lower chi (Schumacher and
Westmoreland, PRA 56, 131, 1997).  A mixed member of an `initial`
ensemble is split that way before the search starts.

The search alternates two kinds of steps.  The weight step is a
Blahut-Arimoto style exponentiated reweighting toward members with a
larger relative-entropy contribution, with a Lagrange multiplier (the
photon tilt, found by a bracketed Newton solve) holding the photon
budget; on fixed states this is the classical capacity iteration and is
monotone, but we still guard every step by re-evaluating chi and
rejecting regressions.  The state step displaces individual members and
keeps only improvements.  The channel is displacement-covariant,
E(D(d) rho D(d)^dag) = D(sqrt(lam) d) E(rho) D(sqrt(lam) d)^dag, so a
member's chi gradient comes from C = ln of the average output alone:
with A = a^dag - a and B = i (a^dag + a) on the output levels, member k
gains sqrt(lam) (tr(rho_k [A, C]) + i tr(rho_k [B, C])) nats per unit
weight and unit displacement, and its photon cost grows by 2 <a>_k.
Each sweep steps every member along that direction, net of the photon
multiplier, and adds one random probe.

When a full sweep stalls, the ensemble first grows: in the manner of
particle Blahut-Arimoto, coherent states that violate the stationarity
condition of the constrained capacity problem are inserted, one at a
time, until MAX_MEMBERS is reached or no candidate helps.  A stall that
inserts nothing shrinks the perturbation scale geometrically: it
halves, down to a fixed floor.  A sweep whose gradient steps all fail
halves it too, but not below half the insertion grid's spacing, so the
steps stay short enough to be accepted while the weights converge.

Inside a run the members are unit state vectors, each at its own
dimension.  A displacement is two matvecs on a vector through one cached
eigenbasis of a^dag - a per dimension (`_displacement_basis`), and a
vector's upper diagonals go straight into `fock_oracle._push` with the
transfer tensor that `fock_oracle._channel_transfer` caches;
density-matrix objects are built only for the `Ensemble` a run starts
from and returns.  Every chi in this module, `chi` included, comes from
one evaluator over the members' channel outputs stacked as a (members,
D_out, D_out) array: the average output, all relative-entropy scores
and all displacement gradients are one matvec each, and the entropy of
the average goes through `fock_oracle`'s eigenvalue routine,
physicality check included.

Everything is deterministic under a fixed seed, and the result is
numerical evidence only: no claim of a global optimum is made, and a
value above the certified upper bound signals a truncation or budget
problem, not a capacity violation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
import cmath
import functools
import math

import numpy as np

from .gaussian_core import ChannelParams
from .fock_oracle import (
    DEFAULT_MAX_JOINT_DIM,
    DEFAULT_TAIL_TOL,
    EIGENVALUE_TOL,
    FockDensityMatrix,
    _LEVELS_PER_PHOTON,
    _channel_transfer,
    _coherent_vector,
    _diagonals,
    _eigenvalue_entropy,
    _push,
    apply_channel,
    coherent_state,
    mean_photon_number,
    von_neumann_entropy,
)

__all__ = [
    "Ensemble",
    "OptimizerConfig",
    "OptimizationResult",
    "OptimizerStats",
    "chi",
    "optimize",
    "MAX_MEMBERS",
    "MAX_DIM",
    "WEIGHT_SUM_TOL",
    "CONSTRAINT_SLACK",
]

MAX_MEMBERS = 16
MAX_DIM = 32
WEIGHT_SUM_TOL = 1e-12
CONSTRAINT_SLACK = 1e-9

# Perturbation schedule: each stall halves the step, down to the floor,
# and so does a sweep that accepts no gradient step, down to half the
# insertion grid's spacing (see `optimize`).
_STEP_DECAY = 0.5
_STEP_FLOOR = 1e-4

# Moves per member and sweep, at `axis` = step * sqrt(N): a gradient step
# of length axis, repeated if accepted and retried at this fraction if
# not, then one complex Gaussian probe of this rms size in units of axis.
_RETRY_FRACTION = 0.25
_PROBE_SCALE = 0.35

# Insertion candidates: rings x points per ring (see `_Pool`).
_POOL_RADII = 16
_POOL_ANGLES = 32

_LN2 = math.log(2.0)
_LOG_FLOOR = 1e-18


@dataclass(frozen=True)
class Ensemble:
    """A finite ensemble of Fock-truncated states with probability weights."""

    members: tuple[tuple[FockDensityMatrix, float], ...]

    def __post_init__(self) -> None:
        members = tuple((state, float(weight)) for state, weight in self.members)
        if not members:
            raise ValueError("ensemble must have at least one member")
        for state, weight in members:
            if not isinstance(state, FockDensityMatrix):
                raise ValueError(f"ensemble member is not a density matrix: {state!r}")
            if not (math.isfinite(weight) and weight >= 0.0):
                raise ValueError(f"ensemble weight must be nonnegative, got {weight}")
        total = math.fsum(w for _, w in members)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"ensemble weights sum to {total!r}, not 1")
        object.__setattr__(self, "members", members)

    @property
    def mean_photons(self) -> float:
        return math.fsum(w * mean_photon_number(s) for s, w in self.members if w > 0.0)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OptimizerConfig:
    """Search-space size, starting step, and termination settings.

    `ensemble_size` is the starting member count when no `initial`
    ensemble is given; `optimize` may insert members up to MAX_MEMBERS.
    `initial_step` is the starting length of the gradient steps and rms
    size of the probes, in units of sqrt(n_signal); `optimize` halves
    it as it goes, down to a fixed floor of 1e-4, so it must not start
    below that floor.
    """

    ensemble_size: int = 8
    dim: int = 24
    max_iterations: int = 1000
    tolerance: float = 1e-7
    seed: int = 0
    initial_step: float = 0.5
    initial: Ensemble | None = None

    def __post_init__(self) -> None:
        if not (1 <= self.ensemble_size <= MAX_MEMBERS):
            raise ValueError(
                f"ensemble_size must be in [1, {MAX_MEMBERS}], got {self.ensemble_size}"
            )
        if not (2 <= self.dim <= MAX_DIM):
            raise ValueError(f"dim must be in [2, {MAX_DIM}], got {self.dim}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not (math.isfinite(self.initial_step) and self.initial_step >= _STEP_FLOOR):
            raise ValueError(
                f"initial_step must be finite and >= {_STEP_FLOOR:g}, got {self.initial_step}"
            )
        if self.initial is not None:
            if len(self.initial) > MAX_MEMBERS:
                raise ValueError(
                    f"initial ensemble has {len(self.initial)} members, cap is {MAX_MEMBERS}"
                )
            for state, _ in self.initial.members:
                if state.dim > MAX_DIM:
                    raise ValueError(
                        f"initial member dimension {state.dim} exceeds cap {MAX_DIM}"
                    )


@dataclass(frozen=True)
class OptimizerStats:
    """Work counts of one ascent run; a repeated run repeats them exactly.

    Proposals are the displacement moves judged by the acceptance rule,
    in total and split by type: steps along the chi gradient and random
    probes.  Weight-step rejections count guarded reweightings that would
    have lowered chi; insertions count members added by growth.  Channel
    pushes cover the whole run, the insertion pool included.
    Eigensolves count the spectra of channel outputs: one per push, for
    its entropy, and one per chi evaluation, for the average output.
    One-off operator builds (transfer tensors, the displacement
    eigenbasis) and the split of mixed `initial` members are not counted.
    """

    displacements_proposed: int = 0
    displacements_accepted: int = 0
    gradient_steps_proposed: int = 0
    gradient_steps_accepted: int = 0
    probes_proposed: int = 0
    probes_accepted: int = 0
    weight_steps_rejected: int = 0
    insertions: int = 0
    channel_pushes: int = 0
    eigensolves: int = 0


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one ascent run.

    `history` records (iteration, chi_bits) after every sweep, including
    any members inserted at its end, starting from the initial ensemble
    at iteration 0, and is nondecreasing.  `converged` means the schedule
    finished: a full sweep at the minimum step size improved chi by less
    than the tolerance, and no member could be inserted after it (the
    ensemble was at MAX_MEMBERS, or no candidate raised chi).
    `ensemble` may hold more members than `OptimizerConfig.ensemble_size`,
    and every member is a pure state.
    """

    best_chi_bits: float
    ensemble: Ensemble
    iterations: int
    converged: bool
    history: tuple[tuple[int, float], ...] = field(repr=False)
    stats: OptimizerStats = field(default_factory=OptimizerStats)


def chi(
    params: ChannelParams,
    ensemble: Ensemble,
    *,
    env_tail_tol: float = DEFAULT_TAIL_TOL,
    max_joint_dim: int = DEFAULT_MAX_JOINT_DIM,
) -> float:
    """Holevo quantity of the ensemble through the channel, in bits.

    Single-member ensembles give exactly 0.  Member outputs are embedded
    into the largest common output dimension before mixing, which is
    lossless; truncation error is bounded by the members' own deficits
    as propagated by `apply_channel`.  Raises ValueError if a member's
    output or the average output is unphysical.
    """
    if not isinstance(ensemble, Ensemble):
        raise ValueError(f"expected an Ensemble, got {ensemble!r}")
    if len(ensemble) == 1:
        return 0.0
    outs = [
        apply_channel(params, state, env_tail_tol=env_tail_tol, max_joint_dim=max_joint_dim)
        for state, _ in ensemble.members
    ]
    weights = np.array([weight for _, weight in ensemble.members])
    entropies = np.array(
        [von_neumann_entropy(out) if w > 0.0 else 0.0 for out, w in zip(outs, weights)]
    )
    return _holevo(_stack([o.matrix for o in outs]), entropies, weights)[0]


def _stack(matrices: list[np.ndarray], dim: int | None = None) -> np.ndarray:
    """Square matrices zero-padded to dim (default: the largest), stacked."""
    dim = dim or max(len(m) for m in matrices)
    stack = np.zeros((len(matrices), dim, dim), dtype=complex)
    for k, m in enumerate(matrices):
        stack[k, : len(m), : len(m)] = m
    return stack


def _holevo(
    outs: np.ndarray, entropies: np.ndarray, weights: np.ndarray, with_log: bool = False
) -> tuple[float, np.ndarray | None]:
    """Chi in bits of stacked member outputs, and ln of the average output.

    The average output is one real matvec over the stack, and its
    entropy comes from the eigenvalue routine of `von_neumann_entropy`,
    so an unphysical average raises ValueError.  With `with_log` the
    matrix logarithm of the average (eigenvalues floored at 1e-18) comes
    from the same eigh and is returned for the relative-entropy scores;
    otherwise only eigenvalues are computed and None is returned.
    """
    members, dim = outs.shape[:2]
    average = (weights @ outs.view(float).reshape(members, -1)).view(complex)
    average = average.reshape(dim, dim)
    if with_log:
        vals, vecs = np.linalg.eigh(average)
    else:
        vals = np.linalg.eigvalsh(average)
    value = max((_eigenvalue_entropy(vals) - float(weights @ entropies)) / _LN2, 0.0)
    if not with_log:
        return value, None
    return value, (vecs * np.log(np.maximum(vals, _LOG_FLOOR))) @ vecs.conj().T


@functools.lru_cache(maxsize=MAX_DIM)
def _displacement_basis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and their adjoint of i (a^dag - a) on dim levels.

    Kept for every member dimension a run can use; the arrays are read-only.
    """
    ladder = np.sqrt(np.arange(1.0, dim))
    rows = np.arange(dim - 1)
    herm = np.zeros((dim, dim), dtype=complex)  # i (a^dag - a)
    herm[rows + 1, rows] = 1j * ladder
    herm[rows, rows + 1] = -1j * ladder
    freq, vecs = np.linalg.eigh(herm)
    basis = (freq, vecs, np.ascontiguousarray(vecs.conj().T))
    for array in basis:
        array.setflags(write=False)
    return basis


def _displace(delta: complex, psi: np.ndarray) -> np.ndarray:
    """exp(delta a^dag - conj(delta) a) psi on the truncated Fock space of psi.

    With delta = r e^{i phi} the truncated generator is the diagonal
    similarity diag(e^{i n phi}) of r (a^dag - a), so one eigenbasis of
    the real generator per dimension, from `_displacement_basis`, serves
    every move: two matvecs and no eigensolve per displacement.
    """
    dim = len(psi)
    freq, vecs, vecs_h = _displacement_basis(dim)
    phase = np.exp(1j * cmath.phase(delta) * np.arange(dim))
    spectral = np.exp(-1j * abs(delta) * freq) * (vecs_h @ (phase.conj() * psi))
    return phase * (vecs @ spectral)


def _tilted_weights(raw: np.ndarray, photons: np.ndarray, budget: float) -> np.ndarray:
    """Renormalize exp-weights, tilting by the photon cost when needed.

    Returns weights proportional to raw * exp(-mu * photons) with the
    smallest mu >= 0 whose ensemble mean is within the budget, to float
    resolution.  Raises ValueError if min(photons) > budget (never while
    the current ensemble is feasible) or if the tilt overflows first.

    The tilted mean photon number falls monotonically in mu, with slope
    minus the tilted photon variance, so Newton steps from mu = 0 kept
    inside the bracket [overdrawn, feasible] converge quadratically.  A
    step finer than a few ulps is stretched to cross the root, and
    bisection takes over whenever a step leaves the bracket, so the loop
    ends with the bracket down to adjacent floats and returns the
    weights at its feasible end.
    """

    logr = np.log(np.maximum(raw, 1e-300))
    excess = photons - budget

    def tilted(mu: float) -> np.ndarray:
        # Unnormalized weights; the sign of w @ excess says overdrawn.
        logw = logr - mu * photons
        return np.exp(logw - logw.max())

    square, dearer = excess * excess, np.where(photons > photons.min(), 1.0, 0.0)
    w = tilted(0.0)
    overdraft = float(w @ excess)
    if not overdraft > 0.0:
        return w / w.sum()
    mu, lo, hi, w_hi = 0.0, 0.0, math.inf, w
    while True:
        total = float(w.sum())
        mean = overdraft / total
        variance = float(w @ square) / total - mean * mean
        cand = mu + mean / variance if variance > 0.0 else math.inf
        if math.isfinite(cand):
            nudge = 4.0 * math.ulp(cand)
            if abs(cand - mu) < nudge:
                cand = mu + math.copysign(nudge, cand - mu)
        if not lo < cand < hi:
            # Bisect, or double while no feasible tilt is known yet.
            cand = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo + 1.0
            if not lo < cand < hi:
                if hi == math.inf:
                    raise ValueError("photon tilt overflowed before meeting the budget")
                break
        mu = cand
        w = tilted(mu)
        overdraft = float(w @ excess)
        if overdraft > 0.0:
            lo = mu
            # Still overdrawn with all weight on the cheapest members: no tilt helps.
            if hi == math.inf and w @ dearer == 0.0:
                raise ValueError("photon constraint cannot be met by reweighting")
        else:
            hi, w_hi = mu, w
    return w_hi / w_hi.sum()


def _scores(outs: np.ndarray, entropies: np.ndarray, ln_avg: np.ndarray) -> np.ndarray:
    """Relative entropies D(E(rho_k) || average output) in nats, stacked.

    For Hermitian matrices tr(out ln_avg) is the real inner product of
    their (re, im) entries, so the whole stack takes one matvec.
    """
    members, dim = outs.shape[:2]
    log_avg = np.ascontiguousarray(ln_avg[:dim, :dim]).view(float).reshape(-1)
    return -entropies - outs.view(float).reshape(members, -1) @ log_avg


def _photons(psi: np.ndarray) -> float:
    """Mean photon number of a state vector, normalized by its squared norm."""
    probs = (psi * psi.conj()).real
    return float(np.arange(len(psi)) @ probs / probs.sum())


def _mean_amplitude(psi: np.ndarray) -> complex:
    """<a> of a unit vector: sum_n sqrt(n) conj(psi[n-1]) psi[n]."""
    return complex(np.sqrt(np.arange(1.0, len(psi))) @ (psi[:-1].conj() * psi[1:]))


def _pure_members(ensemble: Ensemble) -> tuple[list[np.ndarray], np.ndarray]:
    """Unit state vectors and weights equivalent to the ensemble.

    A member w * rho with rho = sum_i lam_i |v_i><v_i| becomes the members
    v_i with weights w * lam_i / sum(lam).  For a trace-one rho the
    ensemble's average state, and so its photon mean and average output,
    are unchanged, while chi can only rise: the output entropy is
    concave, so the members' mean entropy cannot grow.  Eigenvalues at
    or below the positivity tolerance EIGENVALUE_TOL are rounding and
    are dropped, so a pure member stays one member.  Raises ValueError
    on an unphysical member, or when the split needs more than
    MAX_MEMBERS members.
    """
    vectors: list[np.ndarray] = []
    weights: list[float] = []
    for state, weight in ensemble.members:
        vals, vecs = np.linalg.eigh(state.matrix)
        if vals[0] < -EIGENVALUE_TOL:
            raise ValueError(
                f"initial member is unphysical: eigenvalue {vals[0]:.3e} "
                f"below -{EIGENVALUE_TOL:.0e}"
            )
        keep = vals > EIGENVALUE_TOL
        kept = vals[keep]
        vectors.extend(vecs[:, keep].T)
        weights.extend(weight * kept / kept.sum())
    if len(vectors) > MAX_MEMBERS:
        raise ValueError(
            f"initial ensemble splits into {len(vectors)} pure members, "
            f"cap is {MAX_MEMBERS}"
        )
    return vectors, np.array(weights)


class _Run:
    """Mutable state of one optimization: members, weights, channel outputs.

    `psis` lists the members as unit vectors, each at its own dimension.
    `outs` stacks the members' channel outputs, zero-padded to the
    largest one, so the average output and every relative-entropy score
    take one matvec each.  `counts` gathers the run's `OptimizerStats`.
    """

    def __init__(
        self,
        params: ChannelParams,
        budget: float,
        vectors: list[np.ndarray],
        weights: np.ndarray,
    ):
        self.params = params
        self.budget = budget
        self.counts: Counter[str] = Counter()
        self.psis = list(vectors)
        self.weights = weights.copy()
        self.outs, self.entropies, self.photons = self.outputs(vectors)
        self.current_chi = self._chi(self.weights)[0]

    def output(self, psi: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Channel output of a unit vector, its entropy, and the vector's photons."""
        transfer, env_tail = _channel_transfer(
            self.params, len(psi), DEFAULT_TAIL_TOL, DEFAULT_MAX_JOINT_DIM
        )
        out = _push(transfer, _diagonals(psi), env_tail)
        self.counts["channel_pushes"] += 1
        self.counts["eigensolves"] += 1
        entropy = _eigenvalue_entropy(np.linalg.eigvalsh(out))
        return out, entropy, _photons(psi)

    def outputs(
        self, vectors: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`output` of each vector: the outputs stacked, entropies, photons."""
        outs, entropies, photons = zip(*(self.output(v) for v in vectors))
        return _stack(list(outs)), np.array(entropies), np.array(photons)

    def _chi(
        self, weights: np.ndarray, with_log: bool = False, outs: np.ndarray | None = None
    ) -> tuple[float, np.ndarray | None]:
        self.counts["eigensolves"] += 1
        outs = self.outs if outs is None else outs
        return _holevo(outs, self.entropies, weights, with_log)

    def _reweight(self, weights: np.ndarray) -> tuple[float, np.ndarray, float]:
        """Chi at `weights`, one reweighting step from them, and chi there.

        The step scales each weight by exp of the member's relative-entropy
        score against the average output at `weights`; the photon tilt
        then restores the budget.  Fixed points of this map with a nonzero
        tilt saturate the constraint at stationary weights.
        """
        value, ln_avg = self._chi(weights, with_log=True)
        scores = _scores(self.outs, self.entropies, ln_avg)
        raw = weights * np.exp(scores - scores.max())
        candidate = _tilted_weights(raw, self.photons, self.budget)
        return value, candidate, self._chi(candidate)[0]

    def weight_step(self) -> None:
        chi_now, candidate, chi_candidate = self._reweight(self.weights)
        if chi_candidate >= chi_now - 1e-15:
            self.weights = candidate
            self.current_chi = chi_candidate
        else:
            self.counts["weight_steps_rejected"] += 1
            self.current_chi = chi_now

    def _multiplier(self, scores: np.ndarray) -> float:
        """Photon multiplier mu, in nats per photon, from member scores.

        It is the weighted slope of score against photons over the
        members, and zero while the budget is slack.
        """
        w = self.weights
        mean = float(w @ self.photons)
        if not mean > self.budget * (1.0 - CONSTRAINT_SLACK):
            return 0.0
        centred = self.photons - mean
        spread = float(w @ (centred * centred))
        if not spread > 0.0:
            return 0.0
        return max(float(w @ (centred * scores)) / spread, 0.0)

    def directions(self) -> np.ndarray:
        """Each member's ascent direction for a displacement, per unit weight.

        Entry k is dchi/dx + i dchi/dy in nats, for the displacement
        x + i y of member k, minus mu times the same derivative of its
        photon number, 2 <a>_k.  By displacement covariance dchi/dx is
        sqrt(lam) tr(rho_k [A, C]) with C = ln of the average output and
        A = a^dag - a, and dchi/dy is the same with B = i (a^dag + a).
        Both commutators are Hermitian, so all members take one real
        matvec over the stacked outputs, as in `_scores`.
        """
        _, ln_avg = self._chi(self.weights, with_log=True)
        mu = self._multiplier(_scores(self.outs, self.entropies, ln_avg))
        members, dim = self.outs.shape[:2]
        lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)  # a
        generators = np.stack([lower.T - lower, 1j * (lower.T + lower)])
        commutators = generators @ ln_avg - ln_avg @ generators
        traces = self.outs.view(float).reshape(members, -1) @ (
            commutators.view(float).reshape(2, -1).T
        )
        gradient = math.sqrt(self.params.transmissivity) * (traces[:, 0] + 1j * traces[:, 1])
        return gradient - 2.0 * mu * np.array([_mean_amplitude(psi) for psi in self.psis])

    def move(self, k: int, delta: complex, kind: str) -> bool:
        """Displace member k by delta through `try_member`; counted under kind."""
        moved = _displace(delta, self.psis[k])
        accepted = self.try_member(k, moved / np.linalg.norm(moved))
        self.counts[f"{kind}_proposed"] += 1
        self.counts[f"{kind}_accepted"] += int(accepted)
        return accepted

    def try_member(self, k: int, psi: np.ndarray) -> bool:
        """Install the unit vector psi as member k if it improves chi.

        The move is judged jointly with the weight response.  A move that
        overdraws the photon budget gets its weights re-tilted back into
        feasibility, and a reweighting step is evaluated alongside the
        unchanged weights, so moves that only pay off after the weights
        adapt stay reachable even when the constraint is active.  Moves
        keep a member's dimension, so the new output fills the old one's
        place in the stack.
        """
        self.counts["displacements_proposed"] += 1
        before = self.current_chi
        out, entropy, photons = self.output(psi)
        old = (self.outs[k].copy(), self.entropies[k], self.photons[k])
        self.outs[k, : len(out), : len(out)] = out
        self.entropies[k] = entropy
        self.photons[k] = photons
        weights = self.weights
        if float(weights @ self.photons) > self.budget:
            if float(self.photons.min()) > self.budget:
                # No reweighting can restore feasibility; reject outright.
                self.outs[k], self.entropies[k], self.photons[k] = old
                return False
            weights = _tilted_weights(weights, self.photons, self.budget)
        best, reweighted, chi_reweighted = self._reweight(weights)
        best_weights = weights
        if chi_reweighted > best:
            best_weights, best = reweighted, chi_reweighted
        if best > before:
            self.psis[k] = psi
            self.weights = best_weights
            self.current_chi = best
            self.counts["displacements_accepted"] += 1
            return True
        self.outs[k], self.entropies[k], self.photons[k] = old
        return False

    def grow(self, pool: _Pool) -> bool:
        """Insert pool states one at a time, up to MAX_MEMBERS; True if any.

        At a constrained optimum no input state scores above the members:
        every input's relative entropy to the average output, minus mu
        times its photon number, is at most chi - mu * N (the stationarity
        condition of the cq-channel capacity problem, with mu the photon
        multiplier).  Each insertion takes the pool state that most
        violates this against the current ensemble and gives it the
        weight, from a halving ladder, that raises chi the most once the
        weights are re-tilted into the budget.  Growth stops at the cap,
        when no pool state violates the condition, or when the most
        violating one does not raise chi.
        """
        grew = False
        while len(self.psis) < MAX_MEMBERS and self._insert(pool):
            self.counts["insertions"] += 1
            grew = True
        return grew

    def _insert(self, pool: _Pool) -> bool:
        w = self.weights
        outs = self.outs
        dim = max(outs.shape[-1], pool.outs.shape[-1])
        _, ln_avg = self._chi(w, with_log=True, outs=_stack(outs, dim))
        scores = _scores(outs, self.entropies, ln_avg)
        mu = self._multiplier(scores)
        violation = (
            pool.scores(ln_avg)
            - mu * pool.photons
            - float(w @ (scores - mu * self.photons))
        )
        j = int(np.argmax(violation))
        if not violation[j] > 0.0:
            return False
        psi, out = pool.candidate(j)
        self.outs = _stack([*outs, out], dim)
        self.entropies = np.append(self.entropies, pool.entropies[j])
        self.photons = np.append(self.photons, pool.photons[j])
        best, best_weights = self.current_chi, None
        share = 0.5
        for _ in range(12):
            weights = np.append((1.0 - share) * w, share)
            if float(weights @ self.photons) > self.budget:
                weights = _tilted_weights(weights, self.photons, self.budget)
            value = self._chi(weights)[0]
            if value > best:
                best, best_weights = value, weights
            share *= 0.5
        if best_weights is None:
            self.outs = outs
            self.entropies = self.entropies[:-1]
            self.photons = self.photons[:-1]
            return False
        self.psis.append(psi)
        self.weights = best_weights
        self.current_chi = best
        return True

    def ensemble(self) -> Ensemble:
        total = self.weights.sum()
        return Ensemble(
            tuple(
                (FockDensityMatrix(np.outer(psi, psi.conj())), w / total)
                for psi, w in zip(self.psis, self.weights)
            )
        )


def _radius_cap(dim: int) -> float:
    """Largest ring radius on dim levels: |alpha|^2 stays below dim/4."""
    return 0.98 * math.sqrt(dim / _LEVELS_PER_PHOTON)


def _ring(radius: float, count: int, offset: float) -> list[complex]:
    """count amplitudes radius e^{i a} at angles a = 2 pi (j + offset) / count."""
    return [
        radius * complex(math.cos(a), math.sin(a))
        for a in (2.0 * math.pi * (j + offset) / count for j in range(count))
    ]


class _Pool:
    """Coherent candidates for insertion, pushed through the channel by ring.

    A polar grid on the disc |alpha|^2 <= dim/4 where `coherent_state`
    truncates safely: the origin plus _POOL_RADII rings of _POOL_ANGLES
    points, alternate rings offset by half an angle step.  `spacing` is
    the radial distance between rings.  The channel is phase-covariant:
    the output at r e^{i phi} is the output at r with entry (m, n) times
    e^{i (m - n) phi}, with the same entropy, and the input has the same
    photon number.  So only the origin and one point per ring, at phase
    0, are pushed, through the run, which counts them; a candidate's
    output is made by rotating its ring's only when it is inserted.
    """

    def __init__(self, run: _Run, dim: int):
        self.dim = dim
        self.spacing = _radius_cap(dim) / _POOL_RADII
        radii = [i * self.spacing for i in range(_POOL_RADII + 1)]
        self.outs, entropies, photons = run.outputs([_coherent_vector(r, dim) for r in radii])
        self.alphas: list[complex] = [0.0]
        rings = [0]
        for i in range(1, _POOL_RADII + 1):
            self.alphas += _ring(radii[i], _POOL_ANGLES, 0.5 * (i % 2))
            rings += [i] * _POOL_ANGLES
        self.rings = np.array(rings)
        self.entropies = entropies[self.rings]
        self.photons = photons[self.rings]
        # e^{i delta phi} at each candidate for lags delta >= 0, doubled for
        # delta > 0 to count the conjugate lag -delta as well.
        self.phases = np.exp(1j * np.outer(np.angle(self.alphas), np.arange(self.outs.shape[-1])))
        self.phases[:, 1:] *= 2.0

    def scores(self, ln_avg: np.ndarray) -> np.ndarray:
        """Relative entropies of all candidates' outputs to the average, in nats.

        With h_r[delta] = sum over m - n = delta of out_r[m, n] C[n, m],
        for C = ln_avg and ring output out_r, a candidate at phase phi on
        ring r has tr(out C) = Re sum_delta h_r[delta] e^{i delta phi}.
        """
        dim = self.outs.shape[-1]
        products = self.outs * ln_avg[:dim, :dim].T
        lag_sums = np.stack(
            [np.trace(products, offset=-lag, axis1=1, axis2=2) for lag in range(dim)], axis=1
        )
        traces = np.einsum("jd,jd->j", lag_sums[self.rings], self.phases).real
        return -self.entropies - traces

    def candidate(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """State vector and channel output of candidate j."""
        alpha = self.alphas[j]
        phase = np.exp(1j * np.angle(alpha) * np.arange(self.outs.shape[-1]))
        out = self.outs[self.rings[j]] * np.outer(phase, phase.conj())
        return _coherent_vector(alpha, self.dim), out


def _initial_states(
    n_signal: float, size: int, dim: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Vacuum plus up to two rings of coherent states, feasibly weighted.

    Ring radii are fractions of sqrt(N) that work well for the pure-loss
    channel at small N, clamped so every amplitude meets the coherent
    truncation precondition |alpha|^2 <= dim/4; the optimizer refines
    them anyway.  Weights are tilted toward the vacuum just enough to
    respect the photon budget.
    """
    scale = math.sqrt(n_signal)
    radius_cap = _radius_cap(dim)
    alphas: list[complex] = [0.0]
    if size == 2:
        alphas.append(min(scale, radius_cap))
    elif size > 2:
        n_inner = (size - 1) // 2
        n_outer = size - 1 - n_inner
        r_inner = min(0.9 * scale, 0.7 * radius_cap)
        r_outer = min(1.8 * scale, radius_cap)
        alphas += _ring(r_inner, n_inner, 0.0)
        alphas += _ring(r_outer, n_outer, 0.5)
    vectors = [_coherent_vector(a, dim) for a in alphas]
    photons = np.array([abs(a) ** 2 for a in alphas])
    raw = np.exp(-photons / max(n_signal, 1e-12))
    weights = _tilted_weights(raw, photons, 0.95 * n_signal)
    return vectors, weights


def optimize(
    params: ChannelParams,
    n_signal: float,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Maximize chi over ensembles with mean photon number <= n_signal.

    Alternates guarded reweighting with displacements of the members,
    starting from `config.ensemble_size` coherent states, or from
    `config.initial` with its mixed members split into eigenvectors
    (ValueError if that needs more than MAX_MEMBERS members).  Each sweep
    reweights, gives every member a step of length step * sqrt(n_signal)
    along its chi gradient net of the photon multiplier (repeated once
    if accepted, retried at a quarter of the length if not) and one
    Gaussian probe drawn from `config.seed`, each kept only if it raises
    chi, and reweights again.  A sweep that accepts no gradient step
    halves the step, down to half the insertion grid's spacing (steps
    already shorter stay).  A sweep that improves chi by less than the
    tolerance is a stall.  At a stall below MAX_MEMBERS, coherent
    states that violate stationarity are inserted (`_Run.grow`); if any
    is, the perturbation scale halves, or drops further to half the
    candidate grid's spacing, and the search goes on.  Any other stall
    halves the scale, down to a floor of 1e-4 times sqrt(n_signal).
    `converged` is True only when a sweep at that floor stalls and
    nothing can be inserted; hitting the iteration cap first reports
    converged=False.
    """
    if config is None:
        config = OptimizerConfig()
    if not isinstance(params, ChannelParams):
        raise ValueError(f"expected ChannelParams, got {params!r}")
    n = float(n_signal)
    if not (math.isfinite(n) and n >= 0.0):
        raise ValueError(f"photon-number constraint must be >= 0, got {n_signal}")

    if n == 0.0:
        vacuum = Ensemble(((coherent_state(0.0, 2), 1.0),))
        return OptimizationResult(
            best_chi_bits=0.0,
            ensemble=vacuum,
            iterations=0,
            converged=True,
            history=((0, 0.0),),
        )

    if config.initial is not None:
        if config.initial.mean_photons > n + CONSTRAINT_SLACK:
            raise ValueError(
                f"initial ensemble mean photons {config.initial.mean_photons:.6g} "
                f"exceeds constraint {n}"
            )
        vectors, weights = _pure_members(config.initial)
    else:
        vectors, weights = _initial_states(n, config.ensemble_size, config.dim)

    rng = np.random.default_rng(config.seed)
    run = _Run(params, n, vectors, weights)

    current = run.current_chi
    history = [(0, current)]
    step = config.initial_step
    scale = math.sqrt(n)
    # Half the insertion grid's spacing, in units of sqrt(n).
    grid_step = 0.5 * _radius_cap(config.dim) / _POOL_RADII / scale
    converged = False
    iterations = 0
    pool = None

    for iteration in range(1, config.max_iterations + 1):
        iterations = iteration
        before = current
        accepted = run.counts["gradient_steps_accepted"]
        run.weight_step()
        axis = step * scale
        for k, direction in enumerate(run.directions()):
            if direction != 0.0:  # e.g. a lone vacuum member: its output is diagonal
                delta = axis * direction / abs(direction)
                if not run.move(k, delta, "gradient_steps"):
                    delta *= _RETRY_FRACTION
                run.move(k, delta, "gradient_steps")
            gauss = rng.standard_normal(2)
            run.move(k, _PROBE_SCALE * axis * complex(*gauss) / math.sqrt(2.0), "probes")
        run.weight_step()
        current = run.current_chi
        history.append((iteration, current))
        if run.counts["gradient_steps_accepted"] == accepted:
            # Every gradient step overshot: shorten it without waiting for
            # the weights alone to stall the sweep.
            step = max(step * _STEP_DECAY, min(step, grid_step))
        if current - before < config.tolerance:
            if len(run.psis) < MAX_MEMBERS:
                if pool is None:
                    pool = _Pool(run, config.dim)
                if run.grow(pool):
                    current = run.current_chi
                    history[-1] = (iteration, current)
                    # New members sit within half a grid cell of where
                    # they belong; the old ones were refined at `step`.
                    step = max(min(step * _STEP_DECAY, grid_step), _STEP_FLOOR)
                    continue
            if step <= _STEP_FLOOR * (1.0 + 1e-12):
                converged = True
                break
            step = max(step * _STEP_DECAY, _STEP_FLOOR)

    return OptimizationResult(
        best_chi_bits=current,
        ensemble=run.ensemble(),
        iterations=iterations,
        converged=converged,
        history=tuple(history),
        stats=OptimizerStats(**run.counts),
    )
