"""The measuring loop and the layer tracing of the benchmark.

Imports mlsd, so ``run.py`` imports this module only after putting the
tree's ``src/`` on the path.
"""

from __future__ import annotations

import statistics
import time

from mlsd import analysis, cli, intervals, learning, lp, model, oracle, planner
from spans import Patcher
from workloads import Pass, init_states_of


def run_pass(workload, gate, tracer=None):
    """One pass; with a tracer, the layer wrappers are installed for it only."""
    p = Pass(gate, tracer)
    patcher = Patcher()
    if tracer is not None:
        install_tracing(patcher, tracer)
        frame = tracer.open("bench.pass")
    try:
        workload.run_pass(p)
    except Exception as exc:  # shared work failed: report it, stop measuring
        p.failures.append(f"pass aborted: {type(exc).__name__}: {exc}")
        p.aborted = True
    finally:
        if tracer is not None:
            tracer.close(frame)
        patcher.undo()
    return p


def measure(workload, gate, seconds: float, min_ops: int, deadline: float,
            tracer=None, between=None) -> list:
    """A warm-up pass (checked, not timed), then whole passes until they took
    ``seconds`` and ran ``min_ops`` ops, but none started after ``deadline``
    (a ``perf_counter`` time). With a tracer, passes alternate between
    untraced and traced, so drift over the run hits both alike.
    ``between(fraction)`` runs before each measured pass, with the fraction
    of ``seconds`` the passes have taken so far."""
    passes = [run_pass(workload, gate)]
    spent = 0.0
    while not passes[-1].aborted and (
        len(passes) < 5 or spent < seconds
        or sum(len(p.latencies) for p in passes[1:]) < min_ops
    ):
        if time.perf_counter() > deadline:
            break
        if between is not None:
            between(spent / seconds)
        traced = tracer is not None and len(passes) % 2 == 0
        t0 = time.perf_counter()
        passes.append(run_pass(workload, gate, tracer if traced else None))
        spent += time.perf_counter() - t0
    return passes


def install_tracing(patcher, tracer) -> None:
    """Spans at the public layer functions; counters at hot leaf calls."""
    def run_planner_name(args, kwargs):
        init = init_states_of(args, kwargs) is not None
        return "planner.run_planner_init" if init else "planner.run_planner"

    spans = [
        (lp, "build_lp", "lp.build_lp"),
        (lp, "solve_lp", "lp.solve_lp"),
        (planner, "run_planner", run_planner_name),
        (planner, "round_intervals", "planner.round_intervals"),
        (planner, "simulate_planner", "planner.simulate_planner"),
        (oracle, "dp_optimal", "oracle.dp_optimal"),
        (learning, "etc_run", "learning.etc_run"),
        (learning, "exploration_schedule", "learning.exploration_schedule"),
        (learning, "simulate_exploration", "learning.simulate_exploration"),
        (learning, "estimate_payoffs", "learning.estimate_payoffs"),
        (analysis, "approximation_experiment", "analysis.approximation_experiment"),
        (cli, "main", "cli.main"),
    ]
    counters = [
        (model.Instance, "payoff", "model.payoff"),
        (model, "transition", "model.transition"),
        (intervals, "aggregated_payoff", "intervals.aggregated_payoff"),
        (intervals.RecurrentInterval, "cycle_states", "intervals.cycle_states"),
    ]
    for owner, attr, name in spans:
        patcher.replace(owner, attr, lambda fn, name=name: tracer.span(name, fn))
    for owner, attr, name in counters:
        patcher.replace(owner, attr, lambda fn, name=name: tracer.counter(name, fn))


SPAN_LAYERS = (
    "lp.build_lp", "lp.solve_lp", "planner.run_planner", "planner.run_planner_init",
    "planner.round_intervals", "planner.simulate_planner", "oracle.dp_optimal",
    "learning.etc_run", "learning.exploration_schedule", "learning.simulate_exploration",
    "learning.estimate_payoffs", "analysis.approximation_experiment", "cli.main",
)
COUNTED = ("model.payoff", "model.transition", "intervals.aggregated_payoff",
           "intervals.cycle_states")


def layer_metrics(tracer, traced: list, untraced: list) -> dict:
    """Per-pass layer figures from the traced passes; ``traced`` and
    ``untraced`` are in run order."""
    n = len(traced)

    def per_pass(total: int):
        return total // n if total % n == 0 else total / n

    out = {}
    for name in SPAN_LAYERS:
        out[f"{name}.calls"] = per_pass(tracer.calls.get(name, 0))
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / n
    for name in COUNTED:
        out[f"{name}.calls"] = per_pass(tracer.counts.get(name, 0))
    s = traced[0].stats
    out["lp.vars"] = s["lp.vars"]
    out["lp.a_ub_mb"] = s["lp.a_ub_bytes"] / 2**20
    out["lp.nonzero_frac"] = s["lp.nonzero"] / s["lp.vars"] if s["lp.vars"] else 0.0
    out["planner.arm_rounds"] = s["planner.arm_rounds"]
    out["planner.play_fill"] = (s["planner.plays"] / s["planner.budget_slots"]
                                if s["planner.budget_slots"] else 0.0)
    out["planner.short_rounds"] = (s["planner.short_rounds"] / s["planner.rounds"]
                                   if s["planner.rounds"] else 0.0)
    out["learning.explore_rounds"] = s["learning.explore_rounds"]
    out["learning.commit_rounds"] = s["learning.commit_rounds"]
    out["oracle.evals"] = s["oracle.evals"]
    out["cli.bytes_written"] = s["cli.bytes_written"]
    # Passes alternate untraced, traced: pairing neighbours cancels the
    # machine's slow speed drift, which is larger than the tracing cost.
    out["trace.overhead_s"] = statistics.median(
        t.busy - u.busy for u, t in zip(untraced, traced)
    )
    return out
