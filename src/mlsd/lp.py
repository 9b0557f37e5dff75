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

from .intervals import RecurrentInterval, aggregated_payoff
from .model import PayoffTable

_MAX_CELLS = 2**27  # A_ub entries plus objective additions build_lp may take on


class LpError(RuntimeError):
    pass


class LpInfeasibleError(LpError):
    """The solver reported infeasibility (never expected: x = 0 is feasible)."""


class LpSolverError(LpError):
    """The solver failed for a reason other than infeasibility."""


@dataclass(frozen=True)
class LpProblem:
    """Dense description of the relaxation for one instance and cutoff tau_L."""

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

    def var_index(self, arm: int, u: int, l: int) -> int:
        if not (1 <= u <= self.tau_max):
            raise IndexError(f"u={u} outside [1, {self.tau_max}]")
        if not (self.tau_L <= l <= -1):
            raise IndexError(f"l={l} outside [{self.tau_L}, -1]")
        return (arm * self.tau_max + (u - 1)) * self.depth + (-l - 1)


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

    def value(self, arm: int, u: int, l: int) -> float:
        return float(self.x[arm, u - 1, -l - 1])

    def iter_entries(self):
        """Yields (arm, u, l, value) over all variables in index order."""
        n, tau_max, depth = self.x.shape
        for i in range(n):
            for u in range(1, tau_max + 1):
                for d in range(depth):
                    yield i, u, -(d + 1), float(self.x[i, u - 1, d])


def build_lp(table: PayoffTable, tau_L: int) -> LpProblem:
    """Assemble objective and constraint rows for ``table``.

    True instances and estimated or perturbed tables all qualify; the
    latter may be non-monotone, which is fine here. Raises LpError, before
    allocating anything, when the dense program is larger than _MAX_CELLS.
    """
    if tau_L > -1:
        raise ValueError(f"tau_L must be <= -1, got {tau_L}")
    n, tau_max = table.n, table.tau_max
    depth = -tau_L
    num_vars = n * tau_max * depth
    # (1 + n) rows of A_ub plus ~depth additions per objective entry
    if num_vars * (1 + n + depth) > _MAX_CELLS:
        raise LpError(
            f"the relaxation with n={n}, tau_max={tau_max}, tau_L={tau_L} has "
            f"{num_vars} variables, too large for a dense program"
        )
    c = np.empty((n, tau_max, depth))
    for u in range(1, tau_max + 1):
        for d in range(depth):
            interval = RecurrentInterval(u=u, l=-(d + 1))
            c[:, u - 1, d] = aggregated_payoff(table, slice(None), interval)
    plays = np.arange(1.0, depth + 1)  # -l per depth slot
    lengths = np.arange(1.0, tau_max + 1)[:, None] + plays  # u - l
    a = np.zeros((1 + n, num_vars))
    a[0] = np.tile(plays, n * tau_max)
    # arm i's packing row covers its own tau_max * depth variables only
    a[1:].reshape(n, n, -1)[np.arange(n), np.arange(n)] = lengths.ravel()
    b = np.ones(1 + n)
    b[0] = table.k
    return LpProblem(
        n=n, k=table.k, tau_max=tau_max, tau_L=tau_L, objective=c.ravel(), a_ub=a, b_ub=b
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
    if res.status == 2:
        raise LpInfeasibleError(res.message)
    if res.status != 0:
        raise LpSolverError(f"status {res.status}: {res.message}")
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
    plays = np.arange(1, depth + 1, dtype=float)            # -l per depth slot
    lengths = np.arange(1, tau_max + 1, dtype=float)[:, None] + plays[None, :]
    budget = float(np.sum(x * plays[None, None, :])) - model.k
    per_arm = np.sum(x * lengths[None, :, :], axis=(1, 2)) - 1.0
    neg = -float(x.min()) if x.size else 0.0
    worst = max(budget, float(per_arm.max()) if per_arm.size else 0.0, neg, 0.0)
    return FeasibilityReport(feasible=worst <= tol, max_violation=worst)


def solution_to_dict(solution: LpSolution) -> dict:
    entries = [
        {"i": i, "u": u, "l": l, "value": v}
        for i, u, l, v in solution.iter_entries()
        if v > 0.0
    ]
    return {
        "objective": solution.objective,
        "tau_L": solution.tau_L,
        "n": solution.n,
        "tau_max": solution.tau_max,
        "entries": entries,
    }


def solution_from_dict(d: dict) -> LpSolution:
    x = np.zeros((d["n"], d["tau_max"], -d["tau_L"]))
    for e in d["entries"]:
        x[e["i"], e["u"] - 1, -e["l"] - 1] = e["value"]
    return LpSolution(x=x, objective=d["objective"], tau_L=d["tau_L"])


def save_solution(solution: LpSolution, path) -> None:
    with open(path, "w") as f:
        json.dump(solution_to_dict(solution), f, indent=2)
        f.write("\n")


def tau_L_from_epsilon(epsilon: float) -> int:
    """Relaxation cutoff -ceil(1/epsilon) for a target accuracy epsilon."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return -int(np.ceil(1.0 / epsilon))
