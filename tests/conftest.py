"""Shared test helpers: instance draws, an independent LP oracle and the
seeds that no random stream takes."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from mlsd.model import Instance, random_instance
from mlsd.rng import stream

# seeds outside [0, 2**64 - 1] or not integers, each with its ModelError
BAD_SEEDS = {
    "negative": (-1, "seed must be >= 0, got -1"),
    "fractional": (1.5, "seed must be an integer, got 1.5"),
    "bool": (True, "seed must be an integer, got True"),
    "past-2**64": (2**64, "seed must be <= 18446744073709551615, got 18446744073709551616"),
}


def draw_instance(
    seed: int,
    n_range=(2, 4),
    tau_max_range=(1, 3),
    tau_min_range=(-3, -1),
    allow_k_equal_n: bool = False,
) -> Instance:
    rng = stream(seed, "instance")
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    tau_max = int(rng.integers(tau_max_range[0], tau_max_range[1] + 1))
    tau_min = int(rng.integers(tau_min_range[0], tau_min_range[1] + 1))
    hi = n if allow_k_equal_n else n - 1
    k = int(rng.integers(1, max(hi, 1) + 1))
    return random_instance(n, k, tau_max, tau_min, rng)


def vertex_optimal(objective, a_ub, b_ub, tol: float = 1e-9) -> float:
    """Exact LP maximum by enumerating basic feasible points.

    Stacks the inequality rows with the nonnegativity bounds, tries every
    choice of num_vars rows at equality, and keeps the best feasible
    solution. Exponential, but exact for the desk-size programs under test.
    """
    c = np.asarray(objective, dtype=float)
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    v = c.size
    rows = np.vstack([a, -np.eye(v)])
    rhs = np.concatenate([b, np.zeros(v)])
    best = -np.inf
    for subset in itertools.combinations(range(rows.shape[0]), v):
        sub = rows[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, rhs[list(subset)])
        if np.all(rows @ x <= rhs + tol):
            best = max(best, float(c @ x))
    if not np.isfinite(best):
        raise AssertionError("no feasible vertex found")
    return best


@pytest.fixture
def no_alloc(monkeypatch):
    """Make numpy's ``empty`` and ``zeros`` fail, so that a test of a size
    guard (``build_lp``, ``dp_optimal``) can never build the huge arrays it
    guards against."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated past a size guard")

    monkeypatch.setattr(np, "empty", refuse)
    monkeypatch.setattr(np, "zeros", refuse)


@pytest.fixture
def no_draws():
    """An rng stub whose ``uniform`` fails, so that a test of a size guard
    (``random_instance``) can never draw the huge table it guards against."""
    class NoDraws:
        def uniform(self, *args, **kwargs):
            raise AssertionError("drew past a size guard")

    return NoDraws()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))
