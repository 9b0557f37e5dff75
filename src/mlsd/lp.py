"""Linear relaxation over recurrent-interval occupancies.

One variable x[i, u, l] per (arm, interval): the long-run fraction of time
arm i spends inside cycles of I(u, l). The budget row bounds the total play
fraction by k (an interval of lower state l plays -l rounds per cycle); the
per-arm rows say each arm's cycles cannot overlap (total occupancy <= 1).
The objective sums per-cycle payoffs weighted by occupancy.

Scaled by cycle length, y = (u - l) * x, the program is the linear
relaxation of a multiple-choice knapsack: each arm picks at most one unit of
y, an interval costs -l / (u - l) budget and pays q / (u - l) per unit.
``solve_lp`` solves it exactly by the greedy over upper concave hulls
(Sinha & Zoltners, Oper. Res. 27, 1979).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intervals import aggregated_payoff, interval_grid
from .model import ModelError, PayoffTable, require_int

_MAX_CELLS = 2**27  # A_ub entries plus objective terms build_lp may hold at once
_FEASIBLE_TOL = 1e-8  # largest violation check_feasible accepts


@dataclass(frozen=True)
class LpProblem:
    """Dense description of the relaxation for one instance and cutoff tau_L,
    its variables in ``interval_grid`` order within each arm. ``solve_lp``
    reads the objective, not the dense rows ``a_ub`` and ``b_ub``."""

    n: int
    k: int
    tau_max: int
    tau_L: int
    objective: np.ndarray  # (num_vars,) per-cycle payoffs q_i(u, l)
    a_ub: np.ndarray       # (1 + n, num_vars) budget row then per-arm rows
    b_ub: np.ndarray

    @property
    def depth(self) -> int:
        return -self.tau_L

    @property
    def num_vars(self) -> int:
        return self.n * self.tau_max * self.depth


@dataclass(frozen=True)
class LpSolution:
    """Optimal occupancies as a dense (n, tau_max, depth) tensor.

    x[i, u-1, -l-1] is the occupancy of arm i in interval I(u, l).
    """

    x: np.ndarray
    objective: float
    tau_L: int

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def tau_max(self) -> int:
        return self.x.shape[1]


def check_lp_size(n: int, tau_max: int, tau_L: int) -> None:
    """Raise ModelError unless tau_L is an integer <= -1 and the dense
    relaxation of n arms up to tau_max holds at most _MAX_CELLS."""
    require_int("tau_L", tau_L, most=-1)
    num_vars = n * tau_max * -tau_L
    # (1 + n) rows of A_ub plus up to depth terms per objective entry
    if num_vars * (1 + n - tau_L) > _MAX_CELLS:
        raise ModelError(
            f"the relaxation with n={n}, tau_max={tau_max}, tau_L={tau_L} has "
            f"{num_vars} variables, too large for a dense program"
        )


def build_lp(table: PayoffTable, tau_L: int) -> LpProblem:
    """Assemble objective and constraint rows for ``table``.

    True instances and estimated or perturbed tables all qualify; the
    latter may be non-monotone, which is fine here. Raises ModelError, before
    allocating anything, when the dense program is larger than _MAX_CELLS.
    """
    n, tau_max = table.n, table.tau_max
    check_lp_size(n, tau_max, tau_L)
    u, l = interval_grid(tau_max, -tau_L)
    a = np.zeros((1 + n, n * u.size))
    a[0] = np.tile(-l, n)  # plays per cycle
    # arm i's packing row covers its own tau_max * depth variables only
    a[1:].reshape(n, n, -1)[np.arange(n), np.arange(n)] = u - l  # cycle length
    b = np.ones(1 + n)
    b[0] = table.k
    return LpProblem(
        n=n, k=table.k, tau_max=tau_max, tau_L=tau_L,
        objective=aggregated_payoff(table, u, l).ravel(), a_ub=a, b_ub=b,
    )


def solve_lp(problem: LpProblem) -> LpSolution:
    """Maximize the relaxation exactly and return the occupancy tensor.

    Reads only ``n``, ``k``, ``tau_max``, ``tau_L`` and ``objective``. Each
    interval of arm i is a point (w, v) = (-l, q) / (u - l): its budget and
    payoff per unit of y = (u - l) * x. The greedy

    1. builds the rising part of each arm's upper concave hull from the
       null point (0, 0) through its points in increasing w: its
       increments, all of positive slope;
    2. sorts all increments by slope, highest first, equal slopes by
       (arm, step);
    3. takes whole increments while they fit in the budget k and the first
       that does not fit in part, then stops;
    4. maps back with x = y / (u - l); the objective is q . x.

    So every arm sits on one interval with y = 1 or on none, except at most
    one arm that splits its unit between two neighbouring hull points.

    The hull walk skips every point whose v is at most the highest v before
    it in w order, the null point's 0 included. This is exact: the highest
    point M so far is always on the stack, with a positive slope into it. A
    skipped point could only pop or join the tail of non-positive slopes
    after M, and the next point above M pops that whole tail and then meets
    M with the same float operands as without the skip. So the rising part,
    every increment's (slope, arm, step) and the greedy are unchanged.

    Ties: of points with equal w only the highest v is kept, the first in
    variable order among equal ones. A point is dropped from the hull unless
    the slope into it, as computed, is strictly above the slope out of it,
    so points on a hull edge (collinear ones, as clamped states below
    tau_min make them) are dropped and only the extreme points are used.
    """
    n = problem.n
    u, l = interval_grid(problem.tau_max, problem.depth)
    length = u - l
    w = (-l / length).tolist()
    v = (problem.objective.reshape(n, -1) / length).tolist()
    by_weight = sorted(range(len(w)), key=w.__getitem__)  # stable: variable order

    increments = []  # (-slope, arm, step, column, previous column or -1)
    for arm, values in enumerate(v):
        hull = [(0.0, 0.0, -1, np.inf)]  # (w, v, column, slope into it)
        best = 0.0  # the highest v so far, the null point's included
        for j in by_weight:
            vj = values[j]
            if vj <= best:
                continue  # dominated: off the hull's rising part
            best, wj = vj, w[j]
            if wj == hull[-1][0]:
                hull.pop()
            while True:
                w0, v0, _, slope_in = hull[-1]
                slope = (vj - v0) / (wj - w0)
                if slope < slope_in:
                    break
                hull.pop()
            hull.append((wj, vj, j, slope))
        for step, (_, _, j, slope) in enumerate(hull[1:]):
            increments.append((-slope, arm, step, j, hull[step][2]))
    increments.sort()

    # the budget left, exactly: a count of 1/scale units, scale the lcm of
    # the cycle lengths met so far (index -1 of plays and cycle: null point)
    plays, cycle = (-l).tolist() + [0], length.tolist() + [1]
    y = np.zeros((n, len(w)))
    room, scale = problem.k, 1
    for _, arm, _, j, j0 in increments:
        c, c0 = cycle[j], cycle[j0]
        if scale % c or scale % c0:
            grown = math.lcm(scale, c, c0)
            room, scale = room * (grown // scale), grown
        dw = plays[j] * (scale // c) - plays[j0] * (scale // c0)
        t = 1.0 if dw <= room else room / dw  # below 1 only for the split arm, the last
        y[arm, j] = t
        if j0 >= 0:
            y[arm, j0] = 1.0 - t
        if dw > room:
            break
        room -= dw
    x = y / length
    return LpSolution(
        x=x.reshape(n, problem.tau_max, problem.depth),
        objective=float(problem.objective @ x.ravel()),
        tau_L=problem.tau_L,
    )


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    max_violation: float


def check_feasible(solution: LpSolution, model) -> FeasibilityReport:
    """Largest violation of the budget row, per-arm rows, and nonnegativity."""
    x = solution.x
    n, tau_max, depth = x.shape
    if n != model.n or tau_max != model.tau_max:
        raise ModelError(
            f"solution shape {x.shape} does not match model (n={model.n}, tau_max={model.tau_max})"
        )
    u, l = interval_grid(tau_max, depth)
    x = x.reshape(n, -1)
    budget = float(np.sum(x * -l)) - model.k
    per_arm = np.sum(x * (u - l), axis=1) - 1.0
    neg = -float(x.min()) if x.size else 0.0
    worst = max(budget, float(per_arm.max()) if per_arm.size else 0.0, neg, 0.0)
    return FeasibilityReport(feasible=worst <= _FEASIBLE_TOL, max_violation=worst)


def solution_to_dict(solution: LpSolution) -> dict:
    """The objective, the shape and every positive occupancy, in variable order."""
    u, l = interval_grid(solution.tau_max, -solution.tau_L)
    x = solution.x.reshape(solution.n, -1)
    arms, cols = np.nonzero(x > 0.0)
    entries = [
        {"i": int(i), "u": int(u[j]), "l": int(l[j]), "value": float(x[i, j])}
        for i, j in zip(arms, cols)
    ]
    return {
        "objective": solution.objective,
        "tau_L": solution.tau_L,
        "n": solution.n,
        "tau_max": solution.tau_max,
        "entries": entries,
    }


def tau_L_from_epsilon(epsilon: float) -> int:
    """Relaxation cutoff -ceil(1/epsilon) for a target accuracy epsilon."""
    if not (0.0 < epsilon < 1.0):
        raise ModelError(f"epsilon must be in (0, 1), got {epsilon}")
    if not np.isfinite(1.0 / epsilon):
        raise ModelError(f"epsilon {epsilon} is too small: 1/epsilon overflows")
    return -int(np.ceil(1.0 / epsilon))
