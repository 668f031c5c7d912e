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
Westmoreland, PRA 56, 131, 1997).  Every run starts from coherent
states, so nothing needs splitting.

The search alternates two kinds of steps.  The weight step is a
Blahut-Arimoto style exponentiated reweighting toward members with a
larger relative-entropy contribution, with a Lagrange multiplier (the
photon tilt, found by a bracketed Newton-type solve that stops within
rounding noise of its root) holding the photon budget; on fixed states
this is the classical capacity iteration and is monotone, but we still
guard every step by re-evaluating chi and rejecting regressions.  The
state step displaces individual members and keeps only improvements,
judged at the moved weights and at one reweighting step from them.  The
scores that step is built from also bound chi at its end, by the
Blahut-Arimoto auxiliary bound (Arimoto, IEEE T-IT 18, 14, 1972;
Blahut, IEEE T-IT 18, 460, 1972; see `_chi_ceiling`), so a move whose
bound falls short of chi before it is rejected without the step's
eigensolve, as that eigensolve would have rejected it.  The channel is
displacement-covariant,
E(D(d) rho D(d)^dag) = D(sqrt(lam) d) E(rho) D(sqrt(lam) d)^dag, so a
member's chi gradient comes from C = ln of the average output alone:
with A = a^dag - a and B = i (a^dag + a) on the output levels, member k
gains sqrt(lam) (tr(rho_k [A, C]) + i tr(rho_k [B, C])) nats per unit
weight and unit displacement, and its photon cost grows by 2 alpha_k.
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

Members are coherent amplitudes alpha: a displacement by delta moves
alpha to alpha + delta.  Every push hands an amplitude to
`fock_oracle._coherent_output` on the cutoff `_coherent_cutoff` gives
|alpha|^2, as for each oracle radius, up to DEFAULT_CHI_DIM_CAP levels;
it builds the truncated coherent vector, and returns its output, output
entropy and photons.  State vectors and density matrices are built here
only for the `Ensemble` a run returns.  The members' channel outputs are
stacked, zero-padded to the largest, as a (members, D_out, D_out) array,
so the average output, all relative-entropy scores and all displacement
gradients are one matvec each.  Every chi in this module, `chi`
included, comes from `fock_oracle._holevo` on that average, the
evaluator the oracle uses, physicality check included.

Everything is deterministic under a fixed seed, and the result is
numerical evidence only: no claim of a global optimum is made, and a
value above the certified upper bound signals a truncation or budget
problem, not a capacity violation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
import math

import numpy as np

from .gaussian_core import ChannelParams
from .fock_oracle import (
    DEFAULT_CHI_DIM_CAP,
    EIGENVALUE_TOL,
    BudgetError,
    FockDensityMatrix,
    _LN2,
    _LOG_FLOOR,
    _channel_transfer,
    _coherent_cutoff,
    _coherent_output,
    _coherent_vector,
    _holevo,
    _phase_rotated,
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
]

MAX_MEMBERS = 16
WEIGHT_SUM_TOL = 1e-12
CONSTRAINT_SLACK = 1e-9

# Perturbation schedule, in units of sqrt(N): the step starts at
# _INITIAL_STEP; each stall halves it, down to the floor, and so does a
# sweep that accepts no gradient step, down to half the insertion grid's
# spacing (see `optimize`).
_INITIAL_STEP = 0.5
_STEP_DECAY = 0.5
_STEP_FLOOR = 1e-4

# Moves per member and sweep, at `axis` = step * sqrt(N): a gradient step
# of length axis, repeated if accepted and retried at this fraction if
# not, then one complex Gaussian probe of this rms size in units of axis.
_RETRY_FRACTION = 0.25
_PROBE_SCALE = 0.35

# Rounding allowance of `_chi_ceiling`, in nats.
_CEILING_ROUNDING = 1e-12

# Insertion candidates: rings x points per ring (see `_Pool`).
_POOL_RADII = 16
_POOL_ANGLES = 32


def _mean_photons(weights: np.ndarray, photons: np.ndarray) -> float:
    """sum_k w_k n_k: the rounded products, summed exactly by `math.fsum`.

    The one photon mean of the module: `Ensemble.mean_photons` reports
    it and `_tilted_weights` and the optimizer hold it to the budget, so
    a budget met in the search is met as reported.
    """
    return math.fsum((weights * photons).tolist())


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
        weights = np.array([w for _, w in self.members])
        photons = np.array([mean_photon_number(s) if w > 0.0 else 0.0 for s, w in self.members])
        return _mean_photons(weights, photons)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OptimizerConfig:
    """Search-space size and termination settings.

    `ensemble_size` is the starting member count; `optimize` may insert
    members up to MAX_MEMBERS.  Every member, started, moved or inserted,
    lives on the cutoff its Poisson tail needs (`_coherent_cutoff`).
    """

    ensemble_size: int = 8
    max_iterations: int = 1000
    tolerance: float = 1e-7
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("ensemble_size", "max_iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (1 <= self.ensemble_size <= MAX_MEMBERS):
            raise ValueError(
                f"ensemble_size must be in [1, {MAX_MEMBERS}], got {self.ensemble_size}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        real = isinstance(self.tolerance, (int, float, np.integer, np.floating))
        if isinstance(self.tolerance, bool) or not real:
            raise ValueError(f"tolerance must be a number, got {self.tolerance!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


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
    Moves decided by the bound are rejected moves whose reweighted
    candidate `_chi_ceiling` ruled out, so its chi took no eigensolve.
    Tilt evaluations count the tilted weights `_tilted_weights` computed
    over every re-tilt of the run, its starting weights' aside.
    The one-off build of the run's transfer tensor is not counted.
    """

    displacements_proposed: int = 0
    displacements_accepted: int = 0
    gradient_steps_proposed: int = 0
    gradient_steps_accepted: int = 0
    probes_proposed: int = 0
    probes_accepted: int = 0
    weight_steps_rejected: int = 0
    moves_decided_by_bound: int = 0
    insertions: int = 0
    channel_pushes: int = 0
    eigensolves: int = 0
    tilt_evaluations: int = 0


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
    The run's truncation: `environment_tail` is the thermal environment's
    tail, which every output lost, and `max_member_tail` the largest
    `_poisson_tail_bound` of a returned member's |alpha|^2 on the levels
    it lives on, each at most DEFAULT_TAIL_TOL by `_coherent_cutoff`.
    Both are 0 when nothing was pushed (N = 0).
    """

    best_chi_bits: float
    ensemble: Ensemble
    iterations: int
    converged: bool
    history: tuple[tuple[int, float], ...] = field(repr=False)
    stats: OptimizerStats = field(default_factory=OptimizerStats)
    environment_tail: float = 0.0
    max_member_tail: float = 0.0


def chi(params: ChannelParams, ensemble: Ensemble) -> float:
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
    outs = [apply_channel(params, state) for state, _ in ensemble.members]
    weights = np.array([weight for _, weight in ensemble.members])
    entropies = np.array(
        [von_neumann_entropy(out) if w > 0.0 else 0.0 for out, w in zip(outs, weights)]
    )
    average = _average(_stack([o.matrix for o in outs]), weights)
    return _holevo(average, float(weights @ entropies))[0]


def _stack(matrices: list[np.ndarray]) -> np.ndarray:
    """Square matrices zero-padded to the largest, stacked."""
    dim = max(len(m) for m in matrices)
    stack = np.zeros((len(matrices), dim, dim), dtype=complex)
    for k, m in enumerate(matrices):
        stack[k, : len(m), : len(m)] = m
    return stack


def _average(outs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted average of stacked outputs: one real matvec over the stack."""
    members, dim = outs.shape[:2]
    average = (weights @ outs.view(float).reshape(members, -1)).view(complex)
    return average.reshape(dim, dim)


def _tilted_weights(
    raw: np.ndarray,
    photons: np.ndarray,
    budget: float,
    counts: Counter[str] | None = None,
) -> np.ndarray:
    """Renormalize exp-weights, tilting by the photon cost when needed.

    Returns weights proportional to raw * exp(-mu * photons), normalized,
    with mu = 0 if that meets the budget, else a feasible mu within
    rounding noise of the root.  Feasible means two things: the
    unnormalized weights' overdraft, which the steps follow, is not
    positive, and `_mean_photons` of the returned weights, the mean
    `Ensemble.mean_photons` reports, is at most the budget.  Within
    rounding noise means the tilted mean excess is at most `noise` below
    zero: one ulp per member of the mean absolute excess, what the
    overdraft's sum may round by, plus four ulps of the budget, what the
    reported mean may.  Raises ValueError if min(photons) > budget (never
    while the current ensemble is feasible) or if the tilt overflows
    first.  Each evaluation of the tilted weights adds one to
    counts["tilt_evaluations"] when counts is given.

    The tilted mean excess falls monotonically in mu, with slope minus
    the tilted photon variance and curvature the third central moment.
    Each step fits c + a exp(-rate mu) to the three and solves it for a
    target half the noise band past the root, so a converged step lands
    in the band and ends the solve.  The fit is exact where one dear
    member's weight decays against members the tilt barely moves, as at
    tiny budgets, where Newton on the mean itself creeps: a 5.76-photon
    member's weight falls by e per 1/5.76 of tilt, one step each.  Near
    the root it is Newton's step with a curvature correction.  Where the
    fit levels off above the target, the step decays its exponential
    part to the target's size, or is the plain Newton step if that is
    longer.  A step shorter than the stretch (a few ulps), or one away
    from the root (where the two tests of feasible disagree), is
    replaced by a stretch toward it.  The stretch doubles after each step
    that stays on its side without halving the overdraft, so a root
    blurred by rounding is crossed in a few steps.  Bisection takes over
    whenever a step leaves the bracket [overdrawn, feasible], and the
    solve also ends when the bracket closes to adjacent floats.

    A tilt below `floor`, an ulp of the largest log-weight per photon of
    the dearest member, is lost in rounding, and the overdraft there is
    noise; the re-tilt of an ensemble overdrawn by an ulp sits there.
    So a step toward a candidate within `floor` of 0 is at least
    `stretch` floors long, not `stretch` ulps of the candidate, and the
    first feasible tilt within four floors is returned, since no smaller
    tilt is resolved.  The sums run over Python floats: at 8 to 16
    members that is quicker than numpy's temporaries.
    """
    if counts is None:
        counts = Counter()
    cost = photons.tolist()
    if min(cost) > budget:
        raise ValueError("photon constraint cannot be met by reweighting")
    logr = [math.log(max(r, 1e-300)) for r in raw.tolist()]
    excess = [p - budget for p in cost]
    eps = math.ulp(1.0)
    size = len(cost)

    def tilted(mu: float) -> tuple[list[float], float, float, float, float, float]:
        # Unnormalized weights at tilt mu, their total, their overdraft
        # (positive: overdrawn), the second and third moments of the
        # excess, and the rounding noise of the overdraft per unit total.
        counts["tilt_evaluations"] += 1
        logw = [lr - mu * p for lr, p in zip(logr, cost)]
        top = max(logw)
        w = [math.exp(x - top) for x in logw]
        total = overdraft = second = third = spread = 0.0
        for wk, e in zip(w, excess):
            we = wk * e
            total += wk
            overdraft += we
            second += we * e
            third += we * e * e
            spread += abs(we)
        noise = eps * (size * spread / total + 4.0 * budget)
        return w, total, overdraft, second, third, noise

    def within(w: list[float], total: float, overdraft: float) -> np.ndarray | None:
        # The normalized weights if they meet the budget, else None.
        if overdraft > 0.0:
            return None
        normalized = np.array(w) / total
        return normalized if _mean_photons(normalized, photons) <= budget else None

    w, total, overdraft, second, third, noise = tilted(0.0)
    feasible = within(w, total, overdraft)
    if feasible is not None:
        return feasible
    mu, lo, hi, w_hi = 0.0, 0.0, math.inf, None
    stretch = 4.0
    dearest = max(cost)
    floor = math.ulp(max(map(abs, logr))) / dearest if dearest > 0.0 else 0.0
    while True:
        mean = overdraft / total
        variance = second / total - mean * mean
        skew = third / total - mean * (3.0 * second / total - 2.0 * mean * mean)
        # The tilted mean excess to aim at: half the noise band past the
        # root, where the band is at most (2 size + 4) ulps of the budget.
        target = -0.5 * min(noise, (2 * size + 4) * eps * budget)
        gap = mean - target
        cand = math.inf
        if variance > 0.0:
            # The fit c + a exp(-rate mu) meets the target a step of
            # -ln(1 - x) / rate on, x = gap * rate / variance: Newton's
            # step gap / variance times -ln(1 - x) / x.
            rate = skew / variance
            x = gap * rate / variance
            if x < 1.0:
                cand = mu + gap / variance * (-math.log1p(-x) / x if x else 1.0)
            elif gap > 0.0:
                # The fit levels off above the target.  Its exponential
                # part a exp(-rate mu) = variance / rate decays to the
                # target's size, unless the plain Newton step is longer,
                # as when the dear member that sets the fit weighs too
                # little to matter.
                decay = math.log(variance / (rate * -target)) / rate if target < 0.0 else math.inf
                cand = mu + max(gap / variance, decay)
        # Toward the root: up from an overdrawn tilt, down from a feasible one.
        toward = 1.0 if mu == lo else -1.0
        if math.isfinite(cand):
            nudge = stretch * (floor if abs(cand) < floor else math.ulp(cand))
            if (cand - mu) * toward < nudge:
                cand = mu + toward * nudge
        if not lo < cand < hi:
            # Bisect, or double while no feasible tilt is known yet.
            cand = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo + 1.0
            if not lo < cand < hi:
                if hi == math.inf:
                    raise ValueError("photon tilt overflowed before meeting the budget")
                break
        mu, previous = cand, overdraft
        w, total, overdraft, second, third, noise = tilted(mu)
        feasible = within(w, total, overdraft)
        if feasible is None:
            lo = mu
        else:
            hi, w_hi = mu, feasible
            if overdraft >= -noise * total or hi <= 4.0 * floor:
                break
        if (mu == lo) == (toward > 0.0) and abs(overdraft) >= 0.5 * abs(previous):
            # Still on the same side, and the overdraft not halved: the step
            # was lost in rounding, so the shortest step doubles.
            stretch *= 2.0
    return w_hi


def _scores(outs: np.ndarray, entropies: np.ndarray, ln_avg: np.ndarray) -> np.ndarray:
    """Relative entropies D(E(rho_k) || average output) in nats, stacked.

    For Hermitian matrices tr(out ln_avg) is the real inner product of
    their (re, im) entries, so the whole stack takes one matvec.
    """
    members, dim = outs.shape[:2]
    log_avg = np.ascontiguousarray(ln_avg[:dim, :dim]).view(float).reshape(-1)
    return -entropies - outs.view(float).reshape(members, -1) @ log_avg


def _chi_ceiling(
    outs: np.ndarray, scores: np.ndarray, weights: np.ndarray, candidate: np.ndarray
) -> float:
    """An upper bound, in bits, on chi at `candidate`, without its eigensolve.

    scores are the members' D(rho_k || sigma) in nats (`_scores`) against
    sigma, the average output at `weights` with its eigenvalues floored
    at _LOG_FLOOR, as `_holevo` takes its logarithm.  With avg the average
    at `candidate`, in nats

        chi(candidate) = sum_k candidate_k scores_k - D(avg || sigma),

    and Klein's inequality D(avg || sigma) >= tr avg - tr sigma turns this
    into the Blahut-Arimoto auxiliary bound chi <= candidate @ scores +
    tr sigma - tr avg.  tr sigma - tr avg is (weights - candidate) @ the
    member traces plus the floor's excess.  That excess is at most
    _LOG_FLOOR + EIGENVALUE_TOL per output level, since `_holevo` refuses
    an average with an eigenvalue below -EIGENVALUE_TOL; _CEILING_ROUNDING
    nats more cover the rounding of the two entropies.
    """
    members, dim = outs.shape[:2]
    traces = outs.reshape(members, -1)[:, :: dim + 1].real.sum(axis=1)
    excess = dim * (_LOG_FLOOR + EIGENVALUE_TOL) + _CEILING_ROUNDING
    slack = float((weights - candidate) @ traces) + excess
    return (float(candidate @ scores) + slack) / _LN2


class _Run:
    """Mutable state of one optimization: members, weights, channel outputs.

    `alphas` lists the members as coherent amplitudes; each stands for
    the truncated coherent vector at that amplitude on its own cutoff,
    which `output` builds for each push and `ensemble` for the result.
    `outs` stacks their channel outputs (`unpadded`) zero-padded to the
    largest, so the average output and every relative-entropy score take
    one matvec each.  `counts` gathers the run's `OptimizerStats`.  The
    transfer tensor, fetched at the insertion disc's edge, serves every
    push of the run but those of a member past that edge.
    """

    def __init__(
        self, params: ChannelParams, budget: float, alphas: list[complex], weights: np.ndarray
    ):
        self.params = params
        self.budget = budget
        edge, _ = _coherent_cutoff(_radius_cap(budget) ** 2, DEFAULT_CHI_DIM_CAP)
        self.transfer, self.env_tail = _channel_transfer(params, edge)
        self.counts: Counter[str] = Counter()
        self.alphas = list(alphas)
        self.weights = weights.copy()
        self.unpadded, self.entropies, self.photons = self.outputs(self.alphas)
        self.outs = _stack(self.unpadded)
        self.current_chi = self._chi(self.weights)[0]

    def output(self, alpha: complex) -> tuple[np.ndarray, float, float]:
        """`fock_oracle._coherent_output` at alpha on its own cutoff, counted.

        It gives the channel output, its entropy and the photons of the
        truncated vector, as `Ensemble.mean_photons` measures them; each
        call counts one push and one eigensolve, unless it raises BudgetError.
        """
        dim, _ = _coherent_cutoff(abs(alpha) ** 2, DEFAULT_CHI_DIM_CAP)
        if dim > self.transfer[0].shape[2]:  # group 0 holds every input level
            self.transfer, self.env_tail = _channel_transfer(self.params, dim)
        self.counts["channel_pushes"] += 1
        self.counts["eigensolves"] += 1
        return _coherent_output(self.transfer, self.env_tail, alpha, dim)

    def outputs(self, alphas: list[complex]) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """`output` at each amplitude: the outputs, entropies and photons."""
        outs, entropies, photons = zip(*(self.output(a) for a in alphas))
        return list(outs), np.array(entropies), np.array(photons)

    def _chi(
        self, weights: np.ndarray, with_log: bool = False
    ) -> tuple[float, np.ndarray | None]:
        self.counts["eigensolves"] += 1
        value, _, ln_avg = _holevo(
            _average(self.outs, weights), float(weights @ self.entropies), with_log
        )
        return value, ln_avg

    def _reweight(
        self, weights: np.ndarray, to_beat: float = -math.inf
    ) -> tuple[float, np.ndarray, float]:
        """Chi at `weights`, one reweighting step from them, and chi there.

        The step scales each weight by exp of the member's relative-entropy
        score against the average output at `weights`; the photon tilt
        then restores the budget.  Fixed points of this map with a nonzero
        tilt saturate the constraint at stationary weights.
        When chi at `weights` is at most `to_beat` and `_chi_ceiling`
        shows chi at the step below it too, the step's eigensolve is
        skipped and its chi reads -inf: neither can beat `to_beat`.
        """
        value, ln_avg = self._chi(weights, with_log=True)
        scores = _scores(self.outs, self.entropies, ln_avg)
        raw = weights * np.exp(scores - scores.max())
        candidate = _tilted_weights(raw, self.photons, self.budget, self.counts)
        if value <= to_beat and _chi_ceiling(self.outs, scores, weights, candidate) < to_beat:
            self.counts["moves_decided_by_bound"] += 1
            return value, candidate, -math.inf
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
        photon number |alpha_k|^2, which is 2 alpha_k.  By displacement
        covariance dchi/dx is sqrt(lam) tr(rho_k [A, C]) with C = ln of
        the average output and A = a^dag - a, and dchi/dy is the same
        with B = i (a^dag + a).
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
        return gradient - 2.0 * mu * np.array(self.alphas)

    def move(self, k: int, delta: complex, kind: str) -> bool:
        """Move member k to amplitude alpha_k + delta if that improves chi.

        The proposal is counted, in total and under kind.  The move is
        judged jointly with the weight response.  A move that overdraws
        the photon budget gets its weights re-tilted back into
        feasibility, and a reweighting step is evaluated alongside the
        unchanged weights, so moves that only pay off after the weights
        adapt stay reachable even when the constraint is active.  The new
        output takes the old one's place in the stack.  The reweighting
        step's chi takes a second eigensolve only when `_chi_ceiling`
        cannot show it below chi before the move (see `_reweight`), so a
        move the bound settles is rejected exactly as that eigensolve
        would have it; about 92% of rejected moves are settled so.  A move
        no cutoff within the caps can hold is rejected outright.
        """
        self.counts["displacements_proposed"] += 1
        self.counts[f"{kind}_proposed"] += 1
        alpha = self.alphas[k] + delta
        try:
            old = self._swap(k, *self.output(alpha))
        except BudgetError:
            return False
        before = self.current_chi
        weights = self.weights
        if _mean_photons(weights, self.photons) > self.budget:
            if float(self.photons.min()) > self.budget:
                # No reweighting can restore feasibility; reject outright.
                self._swap(k, *old)
                return False
            weights = _tilted_weights(weights, self.photons, self.budget, self.counts)
        best, reweighted, chi_reweighted = self._reweight(weights, before)
        best_weights = weights
        if chi_reweighted > best:
            best_weights, best = reweighted, chi_reweighted
        if best > before:
            self.alphas[k] = alpha
            self.weights = best_weights
            self.current_chi = best
            self.counts["displacements_accepted"] += 1
            self.counts[f"{kind}_accepted"] += 1
            return True
        self._swap(k, *old)
        return False

    def _swap(
        self, k: int, out: np.ndarray, entropy: float, photons: float
    ) -> tuple[np.ndarray, float, float]:
        """Make out, entropy and photons member k's; return those they replace."""
        old = (self.unpadded[k], self.entropies[k], self.photons[k])
        self.unpadded[k], self.entropies[k], self.photons[k] = out, entropy, photons
        if max(map(len, self.unpadded)) != len(self.outs[0]):
            self.outs = _stack(self.unpadded)
        else:
            self.outs[k] = 0.0
            self.outs[k, : len(out), : len(out)] = out
        return old

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
        while len(self.alphas) < MAX_MEMBERS and self._insert(pool):
            self.counts["insertions"] += 1
            grew = True
        return grew

    def _insert(self, pool: _Pool) -> bool:
        w = self.weights
        outs = self.outs
        _, ln_avg = self._chi(w, with_log=True)
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
        alpha, out = pool.candidate(j)
        self.unpadded.append(out)
        self.outs = _stack(self.unpadded)
        self.entropies = np.append(self.entropies, pool.entropies[j])
        self.photons = np.append(self.photons, pool.photons[j])
        best, best_weights = self.current_chi, None
        share = 0.5
        for _ in range(12):
            weights = np.append((1.0 - share) * w, share)
            if _mean_photons(weights, self.photons) > self.budget:
                weights = _tilted_weights(weights, self.photons, self.budget, self.counts)
            value = self._chi(weights)[0]
            if value > best:
                best, best_weights = value, weights
            share *= 0.5
        if best_weights is None:
            self.outs = outs
            self.unpadded.pop()
            self.entropies = self.entropies[:-1]
            self.photons = self.photons[:-1]
            return False
        self.alphas.append(alpha)
        self.weights = best_weights
        self.current_chi = best
        return True

    def ensemble(self) -> Ensemble:
        """The members as pure density matrices on their cutoffs, weights normalized.

        A matrix's photons, as `mean_photon_number` reads them, can differ
        from its pushed vector's by rounding, so weights that meet the
        budget on the run's photons may overdraw it on the matrices' by
        an ulp; they are then re-tilted against the matrices' own.
        """
        cutoffs = (_coherent_cutoff(abs(a) ** 2, DEFAULT_CHI_DIM_CAP)[0] for a in self.alphas)
        vectors = (_coherent_vector(a, dim) for a, dim in zip(self.alphas, cutoffs))
        states = [FockDensityMatrix(np.outer(psi, psi.conj())) for psi in vectors]
        photons = np.array([mean_photon_number(state) for state in states])
        weights = self.weights / self.weights.sum()
        if _mean_photons(weights, photons) > self.budget:
            weights = _tilted_weights(weights, photons, self.budget, self.counts)
        return Ensemble(tuple(zip(states, weights)))


def _radius_cap(n_signal: float) -> float:
    """Insertion disc radius 2.40 sqrt(N): e^-5.76 of `holevo_lower`'s ensemble lies past it."""
    return 0.98 * math.sqrt(6.0 * n_signal)


def _ring(radius: float, count: int, offset: float) -> list[complex]:
    """count amplitudes radius e^{i a} at angles a = 2 pi (j + offset) / count."""
    return [
        radius * complex(math.cos(a), math.sin(a))
        for a in (2.0 * math.pi * (j + offset) / count for j in range(count))
    ]


class _Pool:
    """Coherent candidates for insertion, pushed through the channel by ring.

    A polar grid on the disc of radius `_radius_cap`: the origin plus
    _POOL_RADII rings of _POOL_ANGLES points, alternate rings offset by
    half an angle step.  `spacing` is the radial distance between rings.
    The channel is phase-covariant: the output at r e^{i phi} is the
    output at r with entry (m, n) times e^{i (m - n) phi}, with the same
    entropy, and the input has the same photon number.  So only the
    origin and one point per ring, at phase 0, are pushed, through the
    run, which counts them; a candidate's output is made by rotating its
    ring's, on that ring's own cutoff, only when it is inserted.
    """

    def __init__(self, run: _Run):
        self.spacing = _radius_cap(run.budget) / _POOL_RADII
        radii = [i * self.spacing for i in range(_POOL_RADII + 1)]
        self.ring_outs, entropies, photons = run.outputs(radii)
        self.outs = _stack(self.ring_outs)
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
        Past the average's levels C is the zero-padded average's: ln _LOG_FLOOR on the diagonal.
        """
        dim, size = self.outs.shape[-1], min(self.outs.shape[-1], len(ln_avg))
        log = np.diag(np.full(dim, math.log(_LOG_FLOOR))).astype(ln_avg.dtype)
        log[:size, :size] = ln_avg[:size, :size]
        products = self.outs * log.T
        lag_sums = np.stack(
            [np.trace(products, offset=-lag, axis1=1, axis2=2) for lag in range(dim)], axis=1
        )
        traces = np.einsum("jd,jd->j", lag_sums[self.rings], self.phases).real
        return -self.entropies - traces

    def candidate(self, j: int) -> tuple[complex, np.ndarray]:
        """Amplitude and channel output of candidate j."""
        alpha = self.alphas[j]
        return alpha, _phase_rotated(self.ring_outs[self.rings[j]], np.angle(alpha))


def _initial_states(n_signal: float, size: int) -> tuple[list[complex], np.ndarray]:
    """Vacuum plus up to two rings of coherent amplitudes, feasibly weighted.

    Ring radii are fractions of sqrt(N) that work well for the pure-loss
    channel at small N, inside the insertion disc; the optimizer refines
    them anyway.  Weights are tilted toward the vacuum just enough to
    respect the photon budget.
    """
    scale = math.sqrt(n_signal)
    alphas: list[complex] = [0.0]
    if size == 2:
        alphas.append(scale)
    elif size > 2:
        n_inner = (size - 1) // 2
        n_outer = size - 1 - n_inner
        alphas += _ring(0.9 * scale, n_inner, 0.0)
        alphas += _ring(1.8 * scale, n_outer, 0.5)
    photons = np.array([abs(a) ** 2 for a in alphas])
    raw = np.exp(-photons / max(n_signal, 1e-12))
    weights = _tilted_weights(raw, photons, 0.95 * n_signal)
    return alphas, weights


def optimize(
    params: ChannelParams,
    n_signal: float,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Maximize chi over ensembles with mean photon number <= n_signal.

    Alternates guarded reweighting with displacements of the members,
    starting from `config.ensemble_size` coherent states
    (`_initial_states`); every member, started, moved or inserted, is a
    coherent amplitude on the cutoff its Poisson tail needs.  BudgetError,
    before the search, when no cutoff within the caps holds the insertion
    disc's edge.  Each sweep reweights,
    gives every member's amplitude a step of length step * sqrt(n_signal)
    along its chi gradient net of the photon multiplier (repeated once if
    accepted, retried at a quarter of the length if not) and one Gaussian
    probe drawn from `config.seed`, each kept only if it raises chi, and
    reweights again.  A sweep that accepts no gradient step halves the
    step, down to half the insertion grid's spacing (steps already
    shorter stay).  A sweep that improves chi by less than the tolerance
    is a stall.  At a stall below MAX_MEMBERS, coherent states that
    violate stationarity are inserted (`_Run.grow`); if any is, the
    perturbation scale halves, or drops further to half the candidate
    grid's spacing, and the search goes on.  Any other stall halves the
    scale, down to a floor of 1e-4 times sqrt(n_signal).
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
        vacuum = Ensemble(((coherent_state(0.0, 1), 1.0),))
        return OptimizationResult(
            best_chi_bits=0.0,
            ensemble=vacuum,
            iterations=0,
            converged=True,
            history=((0, 0.0),),
        )

    alphas, weights = _initial_states(n, config.ensemble_size)
    rng = np.random.default_rng(config.seed)
    run = _Run(params, n, alphas, weights)

    current = run.current_chi
    history = [(0, current)]
    step = _INITIAL_STEP
    scale = math.sqrt(n)
    # Half the insertion grid's spacing, in units of sqrt(n).
    grid_step = 0.5 * _radius_cap(n) / _POOL_RADII / scale
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
            if len(run.alphas) < MAX_MEMBERS:
                if pool is None:
                    pool = _Pool(run)
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

    tails = [_coherent_cutoff(abs(a) ** 2, DEFAULT_CHI_DIM_CAP)[1] for a in run.alphas]
    return OptimizationResult(
        best_chi_bits=current,
        ensemble=run.ensemble(),
        iterations=iterations,
        converged=converged,
        history=tuple(history),
        stats=OptimizerStats(**run.counts),
        environment_tail=run.env_tail,
        max_member_tail=max(tails),
    )
