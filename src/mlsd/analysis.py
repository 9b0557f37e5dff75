"""Guarantee constants, reference instances, and desk-scale experiments."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .learning import etc_run
from .lp import build_lp, check_lp_size, solve_lp, tau_L_from_epsilon
from .model import Instance, ModelError, require_int
from .oracle import dp_optimal
from .planner import planner_runs, stretch
from .rng import seed_range

_MAX_TIGHT_CELLS = 2**20  # payoff cells make_tight_instance may build, M*k x (M+1)


def gamma_k(k: int) -> float:
    """Guarantee constant 1 - k^k / (e^k k!), evaluated in log space."""
    require_int("k", k, least=1)
    return 1.0 - math.exp(k * math.log(k) - k - math.lgamma(k + 1))


def make_step_instance() -> Instance:
    """Single arm whose payoff steps from 0 to 1 at state -1.

    The unique optimal policy cycles (play, play, rest) for an average
    payoff of 2/3, and the relaxation with cutoff -2 matches it exactly.
    """
    return Instance(k=1, tau_min=-2, tau_max=1, means=[[0.0, 1.0, 1.0]])


def make_tight_instance(k: int, m: int) -> Instance:
    """m*k identical arms paying 1 at states >= m and 0 below.

    Batched round-robin keeps k arms productive per round asymptotically,
    while the planner's candidate count is binomial, which is what makes the
    guarantee constant tight as m grows. Raises ModelError, before building
    anything, unless k and m are integers >= 1 and the m*k x (m + 1) payoff
    table holds at most _MAX_TIGHT_CELLS cells.
    """
    require_int("k", k, least=1)
    require_int("m", m, least=1)
    if m * k * (m + 1) > _MAX_TIGHT_CELLS:
        raise ModelError(
            f"the tight instance with k={k}, m={m} has a {m * k} x {m + 1} payoff table, "
            f"more than {_MAX_TIGHT_CELLS} cells"
        )
    row = [0.0] * m + [1.0]
    return Instance(k=k, tau_min=-1, tau_max=m, means=[row] * (m * k))


@dataclass
class TightnessResult:
    k: int
    m: int
    T: int
    n_seeds: int
    coverage: float            # mean over rounds/seeds of min(candidates, k)/k
    ratio: float               # planner rate over the optimal rate m*k/(m+1)
    se: float                  # standard error of the ratio across seeds
    gamma: float               # reference constant for this k

    def to_dict(self) -> dict:
        return asdict(self)


def tightness_experiment(
    k: int, m: int, T: int, n_seeds: int, seed: int
) -> TightnessResult:
    """Measure the planner's per-round candidate coverage on the threshold
    instance and normalize it by the optimal rate.

    Every candidate is worth exactly 1 at its virtual state here, so the
    collected rate equals E[min(candidates, k)]. The coverage E[...]/k is
    the large-m limit of the ratio; dividing by the exact optimal rate
    m*k/(m+1) instead makes the degenerate m=1 case come out at 1. Actual
    states start at m (the steady regime of the batched optimum); candidate
    counts depend only on sampled cycles and offsets.
    """
    seeds = seed_range(seed, n_seeds)
    require_int("T", T, least=1)
    check_lp_size(m * k, m, tau_L=-1)  # before the (m k, m + 1) table exists
    instance = make_tight_instance(k, m)
    solution = solve_lp(build_lp(instance, tau_L=-1))
    rates = np.concatenate([  # counts from the window: no (S, n, T) array is built
        np.minimum(stretch(runs.period, T, runs.window[1].sum(axis=1))[0], k).mean(axis=1)
        for runs in planner_runs(instance, solution, T, seeds, init_states=[m] * instance.n)
    ])
    # the long-run optimal rate: a productive play needs m idle rounds after
    # the previous play, so each of the m*k arms pays at most one unit per
    # m+1 rounds, and a rotating schedule achieves that
    ratios = rates / (m * k / (m + 1))
    se = float(ratios.std(ddof=1) / math.sqrt(n_seeds)) if n_seeds > 1 else 0.0
    return TightnessResult(
        k=k, m=m, T=T, n_seeds=n_seeds,
        coverage=float(rates.mean()) / k,
        ratio=float(ratios.mean()), se=se, gamma=gamma_k(k),
    )


@dataclass
class ExperimentReport:
    """Per-round planner payoff vs the scaled relaxation value."""

    descriptor: str
    n_seeds: int
    T: int
    epsilon: float
    lp_value: float
    gamma: float
    bound: float = field(init=False)  # gamma * lp_value
    mean_virtual: float
    se_virtual: float
    mean_actual: float
    se_actual: float
    bound_satisfied: bool = field(init=False)
    actual_dominates: bool = field(init=False)

    def __post_init__(self):
        self.bound = self.gamma * self.lp_value
        self.bound_satisfied = self.mean_virtual >= self.bound - 3.0 * self.se_virtual
        self.actual_dominates = self.mean_actual >= self.mean_virtual - 1e-12

    def to_dict(self) -> dict:
        return asdict(self)


def approximation_experiment(
    instance: Instance,
    epsilon: float,
    T: int,
    n_seeds: int,
    seed: int,
    descriptor: str = "instance",
) -> ExperimentReport:
    """Monte Carlo check of the per-round guarantee gamma_k * LP value.

    Per-seed means are taken over rounds tau_max..T, where the virtual state
    is dominated by the actual one; the report compares the virtual-payoff
    mean against the bound and confirms the actual stream collects at least
    as much. Raises ModelError, before any seed runs, unless n_seeds is an
    integer >= 30, its seeds stream seeds and T at least tau_max.
    """
    require_int("n_seeds (need >= 30 seeds for the interval)", n_seeds, least=30)
    seeds = seed_range(seed, n_seeds)
    if T < instance.tau_max:
        raise ModelError(f"T={T} leaves no round from tau_max={instance.tau_max} on to average")
    tau_L = tau_L_from_epsilon(epsilon)
    solution = solve_lp(build_lp(instance, tau_L))
    start = instance.tau_max - 1  # columns are rounds 1..T
    virt, act = [], []
    for runs in planner_runs(instance, solution, T, seeds):
        virt.append(runs.virtual_payoff[:, start:].mean(axis=1))
        act.append(runs.actual_payoff[:, start:].mean(axis=1))
    virt, act = np.concatenate(virt), np.concatenate(act)
    return ExperimentReport(
        descriptor=descriptor,
        n_seeds=n_seeds,
        T=T,
        epsilon=epsilon,
        lp_value=solution.objective,
        gamma=gamma_k(instance.k),
        mean_virtual=float(virt.mean()),
        se_virtual=float(virt.std(ddof=1) / math.sqrt(n_seeds)),
        mean_actual=float(act.mean()),
        se_actual=float(act.std(ddof=1) / math.sqrt(n_seeds)),
    )


@dataclass
class RegretTrendPoint:
    T: int
    exploration_length: float
    mean_R: float
    mean_regret: Optional[float]        # vs (1-eps) * gamma_k * OPT(T)
    mean_regret_vs_planner: float       # vs the full-information planner


@dataclass
class RegretTrend:
    epsilon: float
    n_seeds: int
    slope: float                # log-log slope of regret_vs_planner in T
    rates_decreasing: bool = field(init=False)  # regret_vs_planner / T falls
    points: list[RegretTrendPoint]

    def __post_init__(self):
        rates = [p.mean_regret_vs_planner / p.T for p in self.points]
        self.rates_decreasing = all(a > b for a, b in zip(rates, rates[1:]))


def regret_trend(
    instance: Instance,
    T_grid: list[int],
    n_seeds: int,
    epsilon: float,
    seed: int,
    oracle_budget: float = 1e8,
) -> RegretTrend:
    """Mean learning regret across horizons, with a log-log slope fit.

    Regret is recorded both against the scaled optimum (the formal target,
    which a strong planner can beat, making it negative) and against the
    paired full-information planner run, whose gap is positive and is the
    sublinear quantity the trend is fitted on. The oracle values come
    first, largest horizon first: the oracle's cost grows with T, so an
    OracleBudgetError comes before any learning run.
    """
    seeds = seed_range(seed, n_seeds)
    if len(set(T_grid)) < 2:
        raise ModelError(f"the slope needs at least two distinct horizons, got {list(T_grid)}")
    for T in T_grid:
        require_int("T", T, least=1)
    tau_L_from_epsilon(epsilon)  # refuses a bad epsilon before the oracle runs
    opts = {T: dp_optimal(instance, T, budget=oracle_budget)[0]
            for T in sorted(set(T_grid), reverse=True)}
    points = []
    for T in T_grid:
        benchmark = (1.0 - epsilon) * gamma_k(instance.k) * opts[T]
        results = [etc_run(instance, T, epsilon, s, benchmark_total=benchmark) for s in seeds]
        points.append(
            RegretTrendPoint(
                T=T,
                exploration_length=float(np.mean([r.exploration_length for r in results])),
                mean_R=float(np.mean([r.realized_total for r in results])),
                mean_regret=float(np.mean([r.regret for r in results])),
                mean_regret_vs_planner=float(
                    np.mean([r.regret_vs_planner for r in results])
                ),
            )
        )
    xs = np.log([p.T for p in points])
    ys = np.log([max(p.mean_regret_vs_planner, 1e-9) for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return RegretTrend(epsilon=epsilon, n_seeds=n_seeds, slope=slope, points=points)
