"""Linear relaxation over recurrent-interval occupancies.

One variable x[i, u, l] per (arm, interval): the long-run fraction of time
arm i spends inside cycles of I(u, l). The budget row bounds the total play
fraction by k (an interval of lower state l plays -l rounds per cycle); the
per-arm rows say each arm's cycles cannot overlap (total occupancy <= 1).
The objective sums per-cycle payoffs weighted by occupancy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .intervals import aggregated_payoff, interval_grid
from .model import PayoffTable

_MAX_CELLS = 2**27  # A_ub entries plus objective terms build_lp may hold at once


class LpError(RuntimeError):
    """The relaxation is too large to build, or HiGHS did not solve it."""


@dataclass(frozen=True)
class LpProblem:
    """Dense description of the relaxation for one instance and cutoff tau_L,
    its variables in ``interval_grid`` order within each arm."""

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
    """Raise ValueError unless tau_L <= -1, and LpError when the dense
    relaxation of n arms up to tau_max would hold more than _MAX_CELLS."""
    if tau_L > -1:
        raise ValueError(f"tau_L must be <= -1, got {tau_L}")
    num_vars = n * tau_max * -tau_L
    # (1 + n) rows of A_ub plus up to depth terms per objective entry
    if num_vars * (1 + n - tau_L) > _MAX_CELLS:
        raise LpError(
            f"the relaxation with n={n}, tau_max={tau_max}, tau_L={tau_L} has "
            f"{num_vars} variables, too large for a dense program"
        )


def build_lp(table: PayoffTable, tau_L: int) -> LpProblem:
    """Assemble objective and constraint rows for ``table``.

    True instances and estimated or perturbed tables all qualify; the
    latter may be non-monotone, which is fine here. Raises LpError, before
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
    """Maximize the relaxation with HiGHS and return the occupancy tensor."""
    res = linprog(
        -problem.objective,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise LpError(f"HiGHS status {res.status}: {res.message}")
    x = np.asarray(res.x).reshape(problem.n, problem.tau_max, problem.depth)
    return LpSolution(x=x, objective=float(-res.fun), tau_L=problem.tau_L)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    max_violation: float


def check_feasible(solution: LpSolution, model, tol: float = 1e-8) -> FeasibilityReport:
    """Largest violation of the budget row, per-arm rows, and nonnegativity."""
    x = solution.x
    n, tau_max, depth = x.shape
    if n != model.n or tau_max != model.tau_max:
        raise ValueError(
            f"solution shape {x.shape} does not match model (n={model.n}, tau_max={model.tau_max})"
        )
    u, l = interval_grid(tau_max, depth)
    x = x.reshape(n, -1)
    budget = float(np.sum(x * -l)) - model.k
    per_arm = np.sum(x * (u - l), axis=1) - 1.0
    neg = -float(x.min()) if x.size else 0.0
    worst = max(budget, float(per_arm.max()) if per_arm.size else 0.0, neg, 0.0)
    return FeasibilityReport(feasible=worst <= tol, max_violation=worst)


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


def save_solution(solution: LpSolution, path) -> None:
    with open(path, "w") as f:
        json.dump(solution_to_dict(solution), f, indent=2)
        f.write("\n")


def tau_L_from_epsilon(epsilon: float) -> int:
    """Relaxation cutoff -ceil(1/epsilon) for a target accuracy epsilon."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not np.isfinite(1.0 / epsilon):
        raise ValueError(f"epsilon {epsilon} is too small: 1/epsilon overflows")
    return -int(np.ceil(1.0 / epsilon))
