"""Explore-then-Commit adaptation for unknown payoff tables.

Exploration visits every (arm, state) pair in the relaxation's domain at
least m times using a deterministic schedule, estimates the means, then
commits to the planner run on the estimates for the remaining rounds. The
number of samples m and the precision eta follow the Hoeffding-based tuning
with confidence 1 - 1/T.

The horizon T is assumed known; an anytime variant via a doubling schedule
of restarts would wrap etc_run unchanged and is left as an extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lp import build_lp, solve_lp, tau_L_from_epsilon
from .model import Instance, ModelError, PayoffTable, column_state, require_int, state_column
from .planner import PlannerRuns, planner_runs, simulate_planner, states_from_actions
from .rng import seed_range, stream


class ExplorationTooLongError(ModelError):
    """The horizon cannot fit the exploration phase."""

    def __init__(self, T: int, exploration_length: int):
        self.min_viable_T = exploration_length + 1
        super().__init__(
            f"T={T} is too small: exploration needs {exploration_length} rounds, "
            f"minimum viable T is {self.min_viable_T}"
        )


@dataclass(frozen=True)
class EtcConfig:
    epsilon: float
    T: int
    tau_L: int
    eta: float
    delta: float
    m: int


def etc_config(instance: Instance, T: int, epsilon: float) -> EtcConfig:
    """Horizon-tuned parameters: eta balances exploration cost against the
    per-round estimation loss; delta = 1/T; m from Hoeffding + union bound."""
    tau_L = tau_L_from_epsilon(epsilon)
    n, k, tau_max = instance.n, instance.k, instance.tau_max
    span = tau_max - tau_L
    eta = ((n * (tau_max**2 - tau_L + 2) * math.log(2 * n * span * T)) / (2 * k * T)) ** (1.0 / 3.0)
    delta = 1.0 / T
    m = math.ceil(math.log(2 * n * span / delta) / (2 * eta**2))
    return EtcConfig(epsilon=epsilon, T=T, tau_L=tau_L, eta=eta, delta=delta, m=m)


def exploration_schedule(n: int, k: int, tau_max: int, tau_L: int, m: int) -> np.ndarray:
    """Deterministic (n, rounds) bool play matrix collecting >= m samples
    per required pair; arm i plays in round t + 1 where it is set.

    Arms are grouped into ceil(n/k) cohorts that always act in lockstep, so
    at most k arms play per round. Each cohort first walks the positive
    states: one play at a saturated state (a tau_max sample), then exact-gap
    plays for tau_max and each state down to 2, then a single gap-2 play at
    state 1. Negative states come from "dive waves": m consecutive blocks of
    (rest, play, -tau_L more plays); from the second block of a run onward
    the block's lead play happens at state 1, which supplies the remaining
    state-1 samples. The length is ``exploration_length`` of the same
    arguments, at most ceil(n/k) * m * (tau_max**2 - tau_L + 2).

    Every cohort's rounds are built in closed form, with no loop over m:
    the walks are one cumulative sum of the gaps, each cohort's a round
    after the one before it ends, and the waves one broadcast over
    (cohort, wave, play).
    """
    length = exploration_length(n, k, tau_max, tau_L, m)
    cohort = np.arange(-(-n // k))[:, None, None]
    rounds = []  # per cohort, blocks of its 1-based rounds
    t = 0  # the round before the first wave
    if tau_max >= 2:
        # the gaps after the first play: m - 1 more at tau_max, m exact gaps
        # per state from tau_max - 1 down to 2, and the gap-2 play at state 1
        gaps = np.repeat(np.r_[tau_max + 1, np.arange(tau_max, 1, -1)],
                         [m - 1] + [m] * (tau_max - 2) + [1])
        walk = np.r_[0, np.cumsum(gaps)]
        # the first cohort starts at round tau_max, each later one a round
        # after the one before it ends
        rounds.append(tau_max + cohort * (walk[-1] + 1) + walk)
        t = tau_max + cohort.size * (walk[-1] + 1) - 1
    # wave j of cohort c: a rest round, then -tau_L + 1 plays
    wave = (2 - tau_L) * (m * cohort + np.arange(m)[:, None])
    rounds.append(t + 2 + wave + np.arange(1 - tau_L))
    schedule = np.zeros((cohort.size, length), dtype=bool)
    rows = cohort.reshape(-1, 1)
    for block in rounds:
        schedule[rows, block.reshape(cohort.size, -1) - 1] = True
    return schedule[np.arange(n) // k]  # a cohort's arms play in lockstep


def exploration_length(n: int, k: int, tau_max: int, tau_L: int, m: int) -> int:
    """The exact number of rounds of ``exploration_schedule`` with these
    arguments, in closed form, so that a caller can refuse a schedule
    without building it."""
    require_int("m", m, least=1)
    require_int("tau_L", tau_L, most=-1)
    cohorts = -(-n // k)
    rounds = cohorts * m * (2 - tau_L)  # the dive waves
    if tau_max >= 2:
        # a cohort's walk after its first play: the gaps, then the gap-2 play
        walk = (m - 1) * (tau_max + 1) + m * (tau_max * (tau_max + 1) // 2 - 3) + 2
        # the first cohort starts at round tau_max, each later one a round
        # after the one before it ends
        rounds += tau_max + walk + (cohorts - 1) * (walk + 1)
    return rounds


def schedule_length_bound(n: int, k: int, tau_max: int, tau_L: int, m: int) -> int:
    """Guaranteed ceiling on the schedule length (exact n/k when k | n)."""
    return math.ceil(n / k) * m * (tau_max**2 - tau_L + 2)


@dataclass
class ExplorationResult:
    counts: np.ndarray       # (n, width) samples per required state
    sums: np.ndarray         # realized payoff totals per required state
    realized_total: float
    mean_total: float
    end_states: tuple[int, ...]


def simulate_exploration(
    instance: Instance,
    schedule: np.ndarray,
    tau_L: int,
    noise_rng: np.random.Generator,
) -> ExplorationResult:
    """Run the (n, rounds) play matrix on the true dynamics, recording every
    sample where it lands (positive states above tau_max count as tau_max by
    saturation). Noise is drawn play by play: rounds in order, then arms."""
    n, tau_max = instance.n, instance.tau_max
    if schedule.shape[0] != n:
        raise ModelError(f"the schedule has {schedule.shape[0]} arms, the instance {n}")
    width = tau_max - tau_L
    # one trailing idle column, so the last column holds the end states
    played = np.zeros((n, schedule.shape[1] + 1), dtype=bool)
    played[:, :-1] = schedule
    states = states_from_actions(played)

    t_idx, arm_idx = np.nonzero(played.T)
    tau = states[arm_idx, t_idx]
    p = instance.means[arm_idx, state_column(tau, instance.tau_min, tau_max)]
    hits = np.where(noise_rng.random(tau.size) < p, 1.0, 0.0)
    # cumsum adds in play order; np.sum's pairwise order would round differently
    mean_total = float(np.cumsum(p)[-1:].sum())

    keep = tau >= tau_L
    cell = arm_idx[keep] * width + state_column(tau[keep], tau_L, tau_max)
    counts = np.bincount(cell, minlength=n * width).reshape(n, width)
    sums = np.bincount(cell, weights=hits[keep], minlength=n * width).reshape(n, width)
    return ExplorationResult(
        counts=counts,
        sums=sums,
        realized_total=float(hits.sum()),
        mean_total=mean_total,
        end_states=tuple(states[:, -1].tolist()),
    )


def estimate_payoffs(
    instance_k: int, tau_max: int, tau_L: int, counts: np.ndarray, sums: np.ndarray
) -> PayoffTable:
    """Empirical means per (arm, state) over [tau_L, tau_max]. Every required
    pair must have at least one sample; the schedule guarantees m of them."""
    if np.any(counts == 0):
        missing = np.argwhere(counts == 0)
        arm, col = missing[0]
        raise ModelError(
            f"no samples for arm {arm} at state {column_state(col, tau_L)} "
            f"({len(missing)} pairs missing)"
        )
    return PayoffTable(k=instance_k, tau_min=tau_L, tau_max=tau_max, means=sums / counts)


@dataclass
class EtcResult:
    config: EtcConfig
    exploration_length: int
    realized_total: float      # R(T): payoff actually collected
    mean_total: float          # same trajectory scored by true means
    planner_total: float       # full-information planner on the same streams
    benchmark_total: Optional[float] = None
    min_sample_count: int = 0

    @property
    def T(self) -> int:
        return self.config.T

    @property
    def regret_vs_planner(self) -> float:
        return self.planner_total - self.realized_total

    @property
    def regret(self) -> Optional[float]:
        return None if self.benchmark_total is None else self.benchmark_total - self.realized_total


def etc_run(
    instance: Instance,
    T: int,
    epsilon: float,
    seed: int,
    benchmark_total: Optional[float] = None,
) -> EtcResult:
    """Explore, estimate, and commit; also runs the full-information planner
    on the same random streams as a paired reference.

    The reference, the larger planner run, goes first, so a horizon past the
    planner's cap is refused before the exploration is built. The commit is
    scored from its window alone (see ``_commit_hits``), and both runs' mean
    totals are ``totals`` of their actual payoff series, so nothing here
    grows with T but the exploration.

    ``benchmark_total`` is the scaled optimum (1-eps) * gamma_k * OPT(T) when
    the caller has it; the recorded regret is benchmark - R(T). Raises
    ModelError unless T is an integer >= 1.
    """
    require_int("T", T, least=1)
    cfg = etc_config(instance, T, epsilon)
    args = instance.n, instance.k, instance.tau_max, cfg.tau_L, cfg.m
    rounds = exploration_length(*args)
    if rounds >= T:  # before the schedule's (n, rounds) matrix exists
        raise ExplorationTooLongError(T, rounds)
    full_info = solve_lp(build_lp(instance, cfg.tau_L))
    reference = simulate_planner(instance, full_info, T, seed)
    planner_total = float(reference.totals(reference.window[5], 0)[0])
    schedule = exploration_schedule(*args)

    noise = stream(seed, "noise")
    expl = simulate_exploration(instance, schedule, cfg.tau_L, noise)
    estimates = estimate_payoffs(
        instance.k, instance.tau_max, cfg.tau_L, expl.counts, expl.sums
    )

    solution = solve_lp(build_lp(estimates, cfg.tau_L))
    commit = simulate_planner(instance, solution, T - rounds, seed,
                              selection=estimates, init_states=expl.end_states)
    realized_total = expl.realized_total + float(_commit_hits(instance, commit, noise))
    mean_total = expl.mean_total + float(commit.totals(commit.window[5], 0)[0])
    return EtcResult(config=cfg, exploration_length=rounds, realized_total=realized_total,
                     mean_total=mean_total, planner_total=planner_total,
                     benchmark_total=benchmark_total, min_sample_count=int(expl.counts.min()))


def _commit_hits(instance: Instance, commit: PlannerRuns, noise: np.random.Generator) -> int:
    """The Bernoulli hits of a one-run ``commit`` against the true means,
    drawn from ``noise`` by its window.

    A window column's hit threshold is the true mean at the arm's actual
    state where it played, -1 where it rested. Each (arm, window column)
    draws one uniform against it, in (arm, column) order; with W == T that
    is one draw per (arm, round) cell. Every round t > W copies window
    column W - P + (t - W) mod P (see ``PlannerRuns``), so it hits with
    that column's probability: the last period's columns then add one
    Binomial(q or q + 1, p) each, q, r = divmod(T - W, P), the first r
    columns q + 1, drawn after the uniforms in (arm, column) order.
    """
    played, actual = commit.window[2][0], commit.window[3][0]
    col = state_column(actual, instance.tau_min, instance.tau_max)
    threshold = np.where(played, instance.means[np.arange(instance.n)[:, None], col], -1.0)
    hits = np.count_nonzero(noise.random(size=threshold.shape) < threshold)
    W, P = threshold.shape[1], commit.period
    if W < commit.T:
        q, r = divmod(commit.T - W, P)
        counts = np.full(P, q)
        counts[:r] += 1
        hits += int(noise.binomial(counts, np.maximum(threshold[:, W - P:], 0.0)).sum())
    return hits


@dataclass
class RobustnessReport:
    etas: list[float]
    deficits: list[float]      # mean per-round payoff lost to perturbation
    standard_errors: list[float]
    fitted_slope: float        # deficit ~ fitted_slope * (eta * k)
    k: int


def robustness_gap(
    instance: Instance,
    etas: list[float],
    T: int,
    n_seeds: int,
    epsilon: float,
    seed: int,
) -> RobustnessReport:
    """Per-round payoff deficit of the planner run on eta-perturbed tables.

    Each seed fixes a Rademacher sign pattern; the same pattern is scaled by
    every eta (common random numbers), the planner re-plans on the perturbed
    tables, and the deficit against the matched unperturbed run is averaged.
    Each run's per-round payoff is ``totals`` of its actual payoff series
    over T, summed from its window and one period. Perturbations may break
    monotonicity; feasibility is unaffected.
    """
    seeds = seed_range(seed, n_seeds)
    require_int("T", T, least=1)
    if not etas:
        raise ModelError("the slope needs at least one eta, got []")
    for eta in etas:
        if not 0 <= eta < math.inf:  # nan fails both
            raise ModelError(f"eta must be finite and >= 0, got {eta}")
    tau_L = tau_L_from_epsilon(epsilon)
    truth = instance.means
    true_solution = solve_lp(build_lp(instance, tau_L))

    base_runs = planner_runs(instance, true_solution, T, seeds)
    base_rates = np.concatenate([runs.totals(runs.window[5], 0) / T for runs in base_runs])
    per_eta: list[np.ndarray] = [np.zeros(n_seeds) for _ in etas]
    for s, run_seed in enumerate(seeds):
        signs = np.where(stream(run_seed, "perturb").random(truth.shape) < 0.5, -1.0, 1.0)
        for j, eta in enumerate(etas):
            means = np.clip(truth + eta * signs, 0.0, 1.0)
            tables = PayoffTable(instance.k, instance.tau_min, instance.tau_max, means)
            sol = solve_lp(build_lp(tables, tau_L))
            trace = simulate_planner(instance, sol, T, run_seed, selection=tables)
            per_eta[j][s] = base_rates[s] - float(trace.totals(trace.window[5], 0)[0] / T)

    deficits = [float(v.mean()) for v in per_eta]
    ses = [float(v.std(ddof=1) / math.sqrt(n_seeds)) if n_seeds > 1 else 0.0 for v in per_eta]
    xs = np.array([eta * instance.k for eta in etas])
    ys = np.array(deficits)
    denom = float((xs**2).sum())
    slope = float((xs * ys).sum() / denom) if denom > 0 else 0.0
    return RobustnessReport(
        etas=list(etas),
        deficits=deficits,
        standard_errors=ses,
        fitted_slope=slope,
        k=instance.k,
    )
