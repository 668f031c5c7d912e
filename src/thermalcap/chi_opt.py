"""Blahut-Arimoto search for the Holevo quantity over coherent rings.

The interval in `bounds` brackets the constrained capacity analytically;
this module probes the inside of that interval numerically.  It
maximizes

    chi = S(sum_k w_k E(psi_k)) - sum_k w_k S(E(psi_k))

under the mean photon-number constraint over phase-uniform rings of
coherent states: ring i holds the coherent states r_i e^{i phi} at every
phase, with weight w_i spread evenly over them.  Nothing is lost by
searching rings.  Pure members suffice under a linear photon constraint
(Schumacher and Westmoreland, PRA 56, 131, 1997); twirling any coherent
ensemble over phase rotations keeps each member's photons and output
entropy, by phase covariance, and can only raise the entropy of the
average output, by concavity; and Gaussian-modulated coherent states,
which are rings, reach the capacity (Giovannetti, Garcia-Patron, Cerf and
Holevo, Nat. Photon. 8, 796, 2014), the paper's `holevo_lower`.

The rings are the origin and `OptimizerConfig.ensemble_size` radii
evenly spaced out to `_radius_cap` (2.40 sqrt(N)).  `fock_oracle._push_rings`,
the ring push the oracle uses too, sizes them innermost first, fetches
one transfer tensor at the largest cutoff and pushes each once, at its
real radius.  A ring averaged over K >= D_out phases has the diagonal of
that output as its output, so the run keeps each ring's output diagonal,
its output entropy and its photons, and takes no spectrum after the
pushes: every average output is diagonal, and `fock_oracle._holevo`
reads chi off it as a vector.

The weights follow cost-constrained Blahut-Arimoto (Arimoto, IEEE T-IT
18, 14, 1972; Blahut, IEEE T-IT 18, 460, 1972).  Score ring i by
D(E(ring i) || average) in nats, reweight by exp(gamma score_i), and let
the photon tilt `_tilted_weights` restore the budget.  The step takes
gamma = 2, and the plain gamma = 1 step where the longer one would lower
chi, so chi never falls.  The dual bound min over mu >= 0 of
max_i [score_i - mu (n_i - N)] caps chi over every ring ensemble on the
grid; each iteration records its gap to chi.

Every chi in this module, `chi` included, comes from `fock_oracle._holevo`.
The search is deterministic, and the result is numerical evidence only:
no claim of a global optimum is made, and a value above the certified
upper bound signals a truncation or budget problem, not a capacity
violation.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass, field
import functools
import math

import numpy as np

from .gaussian_core import ChannelParams
from .fock_oracle import (
    DEFAULT_CHI_DIM_CAP,
    FockDensityMatrix,
    _LN2,
    _holevo,
    _push_rings,
    _Rings,
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
]

WEIGHT_SUM_TOL = 1e-12

# Exponent of the accelerated Blahut-Arimoto step; gamma = 1 is the plain one.
_ACCELERATION = 2.0


def _mean_photons(weights: np.ndarray, photons: np.ndarray) -> float:
    """sum_k w_k n_k: the rounded products, summed exactly by `math.fsum`.

    The one photon mean of the module: `Ensemble.mean_photons` and
    `OptimizationResult.mean_photons` report it and `_tilted_weights` and
    the optimizer hold it to the budget, so a budget met in the search is
    met as reported.
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
    """Search-grid size and termination settings.

    `ensemble_size` is the number of rings beside the origin.  `seed` is
    validated and kept for callers that pass one; the search is
    deterministic and does not read it.
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
        if self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
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
    """Work counts of one run; a repeated run repeats them exactly.

    Channel pushes count the rings pushed, and eigensolves the spectra
    taken, one per push for its output entropy: every average output is
    diagonal, so no iteration takes one.  `eigensolve_n3` sums the cubed
    output level counts over those eigensolves, their exact work.  Tilt
    evaluations count the tilted weights `_tilted_weights` computed over
    the run.  Fallback steps count the iterations whose accelerated step
    would have lowered chi and that took the plain step instead.  The
    one-off build of the run's transfer tensor is not counted.
    """

    channel_pushes: int = 0
    eigensolves: int = 0
    eigensolve_n3: int = 0
    tilt_evaluations: int = 0
    fallback_steps: int = 0


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one run.

    `history` records (iteration, chi_bits) from the starting weights at
    iteration 0 through every iteration, and is nondecreasing;
    `dual_gaps` records (iteration, gap_bits) alike, where the gap is the
    dual bound min over mu >= 0 of max_i [score_i - mu (n_i - N)] less
    chi, and `dual_gap_bits` is its last entry.  `converged` means an
    iteration gained less than the tolerance; reaching the iteration cap
    first reports converged=False.  `mean_photons` is the rings' own
    photon mean, sum_i w_i n_i over their truncated vectors, at most
    `n_signal`.
    The rings: `radii`, `ring_weights` (summing to 1), each ring's cutoff
    `ring_cutoffs` and Poisson tail `ring_tails`, and `ring_phases`, the
    phases its explicit members take (its output levels, or 1 where the
    output is diagonal already, as at the origin).  `ensemble` is built
    from them on first read: each ring as that many pure coherent states,
    re-tilted into the budget against the matrices' own photons.
    `environment_tail` is the thermal environment's tail, which every
    output lost, and `max_member_tail` the largest ring tail, each at
    most DEFAULT_TAIL_TOL.  Both are 0 when nothing was pushed (N = 0).
    """

    best_chi_bits: float
    iterations: int
    converged: bool
    n_signal: float
    mean_photons: float
    radii: tuple[float, ...]
    ring_weights: tuple[float, ...]
    ring_cutoffs: tuple[int, ...]
    ring_tails: tuple[float, ...]
    ring_phases: tuple[int, ...]
    history: tuple[tuple[int, float], ...] = field(repr=False)
    dual_gaps: tuple[tuple[int, float], ...] = field(repr=False)
    stats: OptimizerStats = field(default_factory=OptimizerStats)
    environment_tail: float = 0.0
    max_member_tail: float = 0.0

    @property
    def dual_gap_bits(self) -> float:
        return self.dual_gaps[-1][1]

    @functools.cached_property
    def ensemble(self) -> Ensemble:
        """The rings as explicit pure states on their cutoffs, weights normalized.

        A matrix's photons, as `mean_photon_number` reads them, can differ
        from its pushed vector's by rounding, so weights that meet the
        budget on the run's photons may overdraw it on the matrices' by
        an ulp; they are then re-tilted against the matrices' own.
        """
        states, weights = [], []
        for radius, weight, dim, phases in zip(
            self.radii, self.ring_weights, self.ring_cutoffs, self.ring_phases
        ):
            for j in range(phases):
                states.append(coherent_state(cmath.rect(radius, 2.0 * math.pi * j / phases), dim))
                weights.append(weight / phases)
        photons = np.array([mean_photon_number(state) for state in states])
        weights = np.array(weights) / math.fsum(weights)
        if _mean_photons(weights, photons) > self.n_signal:
            weights = _tilted_weights(weights, photons, self.n_signal)
        return Ensemble(tuple(zip(states, weights)))


def chi(params: ChannelParams, ensemble: Ensemble) -> float:
    """Holevo quantity of the ensemble through the channel, in bits.

    Single-member ensembles give exactly 0.  Member outputs are embedded
    into the largest common output dimension before mixing, which is
    lossless; truncation error is bounded by the members' own deficits
    as propagated by `apply_channel`.  Each output is added into the
    average as it is pushed, so memory holds one output at a time.
    Raises ValueError if a member's output or the average output is
    unphysical.
    """
    if not isinstance(ensemble, Ensemble):
        raise ValueError(f"expected an Ensemble, got {ensemble!r}")
    if len(ensemble) == 1:
        return 0.0
    average = np.zeros((0, 0), dtype=complex)
    weights, entropies = [], []
    for state, weight in ensemble.members:
        out = apply_channel(params, state)
        if out.dim > len(average):
            average = np.pad(average, (0, out.dim - len(average)))
        average[: out.dim, : out.dim] += weight * out.matrix
        weights.append(weight)
        entropies.append(von_neumann_entropy(out) if weight > 0.0 else 0.0)
    return _holevo(average, float(np.array(weights) @ np.array(entropies)))[0]


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
    tilt is resolved.  The sums run over Python floats: at a few dozen
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


def _radius_cap(n_signal: float) -> float:
    """Disc radius 2.40 sqrt(N): e^-5.76 of `holevo_lower`'s ensemble lies past it."""
    return 0.98 * math.sqrt(6.0 * n_signal)


def _ring_diagonals(rings: _Rings) -> np.ndarray:
    """Each ring's output diagonal, one row per ring, zero-padded to the largest.

    The average output and every score then take one matvec.
    """
    diagonals = np.zeros((len(rings.outputs), max(map(len, rings.outputs))))
    for k, out in enumerate(rings.outputs):
        diagonals[k, : len(out)] = out.diagonal()
    return diagonals


def _evaluate(
    diagonals: np.ndarray, entropies: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Chi in bits at the ring weights, and each ring's score in nats.

    The score is D(E(ring i) || average) = -S_i - d_i . ln(average), with
    d_i the rows of `_ring_diagonals` and S_i the ring entropies, the
    average's logarithm floored as `_holevo` floors it; sum_i w_i score_i
    is chi in nats.
    """
    value, _, ln_avg = _holevo(weights @ diagonals, float(weights @ entropies))
    return value, -entropies - diagonals @ ln_avg


def _dual_gap(scores: np.ndarray, photons: np.ndarray, budget: float, chi_bits: float) -> float:
    """min over mu >= 0 of max_i [score_i - mu (n_i - N)], in bits, less chi.

    By Blahut's dual bound this caps chi over every ensemble of the rings.
    The bracket is convex and piecewise linear in mu, so its minimum sits
    at mu = 0 or where two of its lines cross.
    """
    excess = photons - budget
    rise = scores[:, None] - scores[None, :]
    run = excess[:, None] - excess[None, :]
    crossings = rise[run > 0.0] / run[run > 0.0]
    mus = np.concatenate([[0.0], crossings[crossings > 0.0]])
    bracket = (scores[None, :] - mus[:, None] * excess[None, :]).max(axis=1)
    return float(bracket.min()) / _LN2 - chi_bits


def optimize(
    params: ChannelParams,
    n_signal: float,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Maximize chi over ring ensembles with mean photon number <= n_signal.

    Pushes the origin and `config.ensemble_size` rings evenly spaced out
    to `_radius_cap` (`fock_oracle._push_rings`), starts from uniform
    weights tilted into the budget, and iterates the
    Blahut-Arimoto step: each weight times exp(2 score_i), or exp(score_i)
    where that would lower chi, re-tilted by `_tilted_weights`.  Should
    both lower chi, which rounding alone can do near the fixed point, the
    weights stay.  An iteration that gains less than the tolerance ends
    the run as converged; reaching `config.max_iterations` first does
    not.  BudgetError (coherent_dim), before any tensor is built, names
    the innermost ring whose cutoff exceeds DEFAULT_CHI_DIM_CAP.
    """
    if config is None:
        config = OptimizerConfig()
    if not isinstance(params, ChannelParams):
        raise ValueError(f"expected ChannelParams, got {params!r}")
    n = float(n_signal)
    if not (math.isfinite(n) and n >= 0.0):
        raise ValueError(f"photon-number constraint must be >= 0, got {n_signal}")

    if n == 0.0:
        return OptimizationResult(
            best_chi_bits=0.0, iterations=0, converged=True, n_signal=0.0, mean_photons=0.0,
            radii=(0.0,), ring_weights=(1.0,), ring_cutoffs=(1,), ring_tails=(0.0,),
            ring_phases=(1,), history=((0, 0.0),), dual_gaps=((0, 0.0),),
        )

    cap, count = _radius_cap(n), config.ensemble_size
    radii = tuple(cap * i / count for i in range(count + 1))
    rings = _push_rings(params, radii, DEFAULT_CHI_DIM_CAP)
    diagonals = _ring_diagonals(rings)
    counts: Counter[str] = Counter(
        channel_pushes=len(radii), eigensolves=len(radii), eigensolve_n3=rings.eigensolve_n3
    )
    weights = _tilted_weights(np.ones(len(radii)), rings.photons, n, counts)
    current, scores = _evaluate(diagonals, rings.entropies, weights)
    history = [(0, current)]
    gaps = [(0, _dual_gap(scores, rings.photons, n, current))]
    converged = False
    iterations = 0

    for iteration in range(1, config.max_iterations + 1):
        iterations = iteration
        before = current
        for gamma in (_ACCELERATION, 1.0):
            raw = weights * np.exp(gamma * (scores - scores.max()))
            candidate = _tilted_weights(raw, rings.photons, n, counts)
            value, candidate_scores = _evaluate(diagonals, rings.entropies, candidate)
            if value >= before:
                weights, current, scores = candidate, value, candidate_scores
                break
            if gamma == _ACCELERATION:
                counts["fallback_steps"] += 1
        history.append((iteration, current))
        gaps.append((iteration, _dual_gap(scores, rings.photons, n, current)))
        if current - before < config.tolerance:
            converged = True
            break

    # A ring on one level is the vacuum at every phase: its output is diagonal.
    phases = tuple(len(out) if dim > 1 else 1 for out, dim in zip(rings.outputs, rings.cutoffs))
    return OptimizationResult(
        best_chi_bits=current,
        iterations=iterations,
        converged=converged,
        n_signal=n,
        mean_photons=_mean_photons(weights, rings.photons),
        radii=radii,
        ring_weights=tuple(weights.tolist()),
        ring_cutoffs=rings.cutoffs,
        ring_tails=rings.tails,
        ring_phases=phases,
        history=tuple(history),
        dual_gaps=tuple(gaps),
        stats=OptimizerStats(**counts),
        environment_tail=rings.env_tail,
        max_member_tail=max(rings.tails),
    )
