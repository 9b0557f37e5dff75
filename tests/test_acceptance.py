"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] PASS ...` line (visible under pytest -s)
and asserts the criterion at its stated tolerance. Everything is seeded, so
reruns are exact repeats.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest

from conftest import draw_instance
from reference import (
    candidate_marginals,
    decompose,
    exhaustive_optimal,
    marginal_expectations,
    normalize_schedule,
    schedule_payoff,
)

from mlsd.analysis import (
    approximation_experiment,
    gamma_k,
    make_step_instance,
    make_tight_instance,
    regret_trend,
    tightness_experiment,
)
from mlsd.learning import exploration_schedule, simulate_exploration
from mlsd.lp import build_lp, solve_lp
from mlsd.model import random_instance
from mlsd.oracle import dp_optimal
from mlsd.planner import domination_margin, simulate_planner
from mlsd.rng import stream


def _report(num: int, ok: bool, started: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({time.time() - started:.1f}s) {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# The numbers criteria 5, 7 and 8 report, as float.hex, pinned from the runs
# the criteria check. 5: one SHA-256 of every report's mean_virtual,
# se_virtual, mean_actual and se_actual in instance order, then the minimum
# slack; 7: ratio, coverage and se of the k = 1 and k = 2 runs; 8: the
# slope, then each point's mean_regret_vs_planner. Re-pin by running this
# module under MLSD_PRINT_GOLDEN=1 with -s and copying the printed rows.
_BITS = {
    5: ("90617ba973beaf82b488e29504dbd2a4dd6d29670d049b0bdceb7f885b8d10e1",
        "0x1.44e99107c259cp-4"),
    7: ("0x1.4abdd68fc42dcp-1", "0x1.4441a52d9327ep-1", "0x1.329916aa40c5cp-7",
        "0x1.7774e4ae6ae21p-1", "0x1.70183f91e6470p-1", "0x1.93fdcbce3dd27p-8"),
    8: ("0x1.6172986349230p-1", "0x1.7c3d70a3d70a4p+6", "0x1.321eb851eb852p+7",
        "0x1.ee1eb851eb852p+7", "0x1.8d0f5c28f5c29p+8", "0x1.4187ae147ae14p+9",
        "0x1.03c3d70a3d70ap+10", "0x1.a343d70a3d70ap+10"),
}


def _pin(num: int, bits: tuple[str, ...]):
    if os.environ.get("MLSD_PRINT_GOLDEN"):
        print(f"    {num}: {bits!r},")
    assert bits == _BITS[num], f"criterion {num}'s numbers moved: {bits}"


def test_criterion_1_step_instance_reproduction():
    started = time.time()
    inst = make_step_instance()
    opt3, _ = dp_optimal(inst, 3)
    opt30, _ = dp_optimal(inst, 30)
    lp_value = solve_lp(build_lp(inst, -2)).objective
    ok = (
        opt3 == 2.0
        and abs(opt30 / 30 - 2.0 / 3.0) <= 1.0 / 30
        and abs(lp_value - 2.0 / 3.0) <= 1e-6
    )
    _report(1, ok, started,
            f"OPT(3)={opt3}, OPT(30)/30={opt30 / 30:.6f}, LP*={lp_value:.8f}")


def test_criterion_2_oracle_equivalence():
    started = time.time()
    mismatches = 0
    for i in range(100):
        inst = draw_instance(
            9000 + i, n_range=(1, 2), tau_max_range=(1, 3), tau_min_range=(-2, -1),
            allow_k_equal_n=True,
        )
        T = 2 + i % 7  # horizons 2..8
        dp, _ = dp_optimal(inst, T)
        if dp != exhaustive_optimal(inst, T):
            mismatches += 1
    _report(2, mismatches == 0, started,
            f"100 instances, exact dp/exhaustive mismatches={mismatches}")


def test_criterion_3_virtual_state_domination():
    started = time.time()
    violations = 0
    sims = 0
    for i in range(200):
        inst = draw_instance(20000 + i, n_range=(2, 5), tau_max_range=(1, 3),
                             tau_min_range=(-3, -1))
        tau_L = -1 - (i % 3)
        solution = solve_lp(build_lp(inst, tau_L))
        for s in range(5):
            trace = simulate_planner(inst, solution, 200, seed=31 * i + s)
            if domination_margin(trace, inst.tau_max) < 0:
                violations += 1
            sims += 1
    _report(3, violations == 0, started,
            f"{sims} co-simulations, domination violations={violations}")


def test_criterion_4_candidate_triple_marginals():
    started = time.time()
    samples = 100_000
    worst = 0.0
    bad = 0
    for i in range(10):
        inst = draw_instance(30000 + i, n_range=(2, 3), tau_max_range=(1, 3))
        solution = solve_lp(build_lp(inst, -2))
        expected = marginal_expectations(solution)
        for t in sorted({1, inst.tau_max, 2 * inst.tau_max}):
            counts, N = candidate_marginals(solution, t, samples, seed=500 + i)
            for key in set(expected) | set(counts):
                x = expected.get(key, 0.0)
                freq = counts.get(key, 0) / N
                if x < 1e-9:
                    if counts.get(key, 0) != 0:
                        bad += 1
                    continue
                se = math.sqrt(x * (1 - x) / N)
                dev = abs(freq - x) / se
                worst = max(worst, dev)
                if dev > 4.0:
                    bad += 1
    _report(4, bad == 0, started,
            f"10 instances x 3 rounds, worst deviation {worst:.2f} SE, misses={bad}")


def test_criterion_5_per_round_guarantee():
    started = time.time()
    failures = 0
    slack_min = float("inf")
    reported = []
    from mlsd.model import Instance

    for i in range(50):
        inst = draw_instance(40000 + i, n_range=(2, 4), tau_max_range=(1, 3),
                             tau_min_range=(-2, -1))
        if inst.k > 2:
            inst = Instance(k=2, tau_min=inst.tau_min, tau_max=inst.tau_max, means=inst.means)
        report = approximation_experiment(
            inst, epsilon=0.25, T=500, n_seeds=200, seed=7 * i, descriptor=f"r{i}"
        )
        slack = report.mean_virtual - (report.bound - 3 * report.se_virtual)
        slack_min = min(slack_min, slack)
        if not (report.bound_satisfied and report.actual_dominates):
            failures += 1
        reported += [report.mean_virtual, report.se_virtual, report.mean_actual, report.se_actual]
    _report(5, failures == 0, started,
            f"50 instances x 200 seeds, min slack {slack_min:.5f}, failures={failures}")
    digest = hashlib.sha256(" ".join(v.hex() for v in reported).encode()).hexdigest()
    _pin(5, (digest, slack_min.hex()))


def test_criterion_6_relaxation_upper_bound():
    started = time.time()
    violations = 0
    for i in range(50):
        inst = draw_instance(50000 + i, n_range=(2, 2), tau_max_range=(1, 3),
                             tau_min_range=(-2, -1))
        tau_L = -1 - (i % 2)
        T = 5 + i % 11  # horizons 5..15
        lp_value = solve_lp(build_lp(inst, tau_L)).objective
        opt, _ = dp_optimal(inst, T)
        bound = (1.0 - 1.0 / (1.0 - tau_L)) * opt - inst.n
        if T * lp_value + 1e-7 < bound:
            violations += 1
    _report(6, violations == 0, started, f"50 instances, violations={violations}")


def test_criterion_7_tightness_of_the_guarantee():
    started = time.time()
    r1 = tightness_experiment(k=1, m=50, T=10_000, n_seeds=30, seed=0)
    r2 = tightness_experiment(k=2, m=50, T=10_000, n_seeds=30, seed=1)
    d1, d2 = abs(r1.ratio - gamma_k(1)), abs(r2.ratio - gamma_k(2))
    c1, c2 = abs(r1.coverage - gamma_k(1)), abs(r2.coverage - gamma_k(2))
    ok = max(d1, c1) <= 0.02 and max(d2, c2) <= 0.02
    _report(7, ok, started,
            f"k=1: ratio {r1.ratio:.4f} vs {gamma_k(1):.4f}; "
            f"k=2: ratio {r2.ratio:.4f} vs {gamma_k(2):.4f}")
    _pin(7, tuple(v.hex() for r in (r1, r2) for v in (r.ratio, r.coverage, r.se)))


def test_criterion_8_learning_regret_trend():
    # The literal regret (1-eps)*gamma_k*OPT - R is negative here (the
    # planner's 2/3 rate beats the scaled benchmark), so its log-log slope
    # is undefined; the sublinear trend is asserted on the regret against
    # the paired full-information planner instead, and the literal regret
    # is checked to stay below zero (guarantee met with room).
    started = time.time()
    inst = make_step_instance()
    grid = [2**j for j in range(10, 17)]
    trend = regret_trend(inst, grid, n_seeds=50, epsilon=0.25, seed=123)
    literal_all_negative = all(p.mean_regret < 0 for p in trend.points)
    ok = (
        trend.slope <= 0.85
        and trend.rates_decreasing
        and all(p.mean_regret_vs_planner > 0 for p in trend.points)
        and literal_all_negative
    )
    rates = [p.mean_regret_vs_planner / p.T for p in trend.points]
    _report(8, ok, started,
            f"slope {trend.slope:.3f} <= 0.85, Reg/T {rates[0]:.4f}->{rates[-1]:.4f}, "
            f"literal regret negative at all 7 points")
    _pin(8, tuple(v.hex() for v in [trend.slope] + [p.mean_regret_vs_planner for p in trend.points]))


def test_criterion_9_exploration_schedule_audit():
    started = time.time()
    rng = stream(99, "misc")
    bad = 0
    # the schedule-length claim n*m*(tau_max^2 - tau_L + 2)/k presumes arm
    # batches of exactly k, i.e. k | n; configurations honor that, and the
    # ceil(n/k) version is asserted separately for arbitrary shapes
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = k * int(rng.integers(2, 5))
        tau_max = int(rng.integers(1, 5))
        tau_L = -int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        sched = exploration_schedule(n, k, tau_max, tau_L, m)
        inst = random_instance(n, k, tau_max, min(tau_L, -1),
                               stream(n + 17 * m, "instance"))
        res = simulate_exploration(inst, sched, tau_L, stream(0, "noise"))
        feasible = sched.sum(axis=0).max() <= k
        covered = res.counts.min() >= m
        within = sched.shape[1] <= n * m * (tau_max**2 - tau_L + 2) / k
        if not (feasible and covered and within):
            bad += 1
    for _ in range(20):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n))
        tau_max = int(rng.integers(1, 5))
        tau_L = -int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        sched = exploration_schedule(n, k, tau_max, tau_L, m)
        ceil_bound = math.ceil(n / k) * m * (tau_max**2 - tau_L + 2)
        if not (sched.sum(axis=0).max() <= k and sched.shape[1] <= ceil_bound):
            bad += 1
    _report(9, bad == 0, started, f"20 + 20 configurations, failures={bad}")


def test_criterion_10_schedule_normalization_bound():
    started = time.time()
    violations = 0
    dirty = 0
    for i in range(50):
        inst = draw_instance(60000 + i, n_range=(2, 2), tau_max_range=(1, 3),
                             tau_min_range=(-2, -1))
        tau_L = -1 - (i % 2)
        T = 8 + i % 5
        opt, schedule = dp_optimal(inst, T)
        normalized = [normalize_schedule(seq, tau_L) for seq in schedule.tolist()]
        value = schedule_payoff(inst, np.array(normalized))
        bound = (1.0 - 1.0 / (1.0 - tau_L)) * opt - inst.n
        if value + 1e-9 < bound:
            violations += 1
        for seq in normalized:
            intervals, _ = decompose(seq)
            if any(iv.l < tau_L for iv in intervals):
                dirty += 1
    ok = violations == 0 and dirty == 0
    _report(10, ok, started,
            f"50 instances, bound violations={violations}, bad decompositions={dirty}")
