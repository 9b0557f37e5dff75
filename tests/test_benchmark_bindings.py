"""Smoke test of the benchmark's bindings to the library: the correctness
gate and the layer tracing of ``perfbench/`` must still find and wrap the
functions they name, and the gate must see the LP solves and planner runs
of both an experiment and a learning run."""

import sys
from pathlib import Path

from mlsd import analysis, learning

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_gate_and_tracing_see_lp_solves_and_planner_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import harness
    import spans
    import workloads

    inst = analysis.make_step_instance()
    gate, tracer, patcher = workloads.Gate(), spans.Tracer(), spans.Patcher()
    gate.install(patcher)
    harness.install_tracing(patcher, tracer)
    try:
        for op, seeds in (
            (lambda: analysis.approximation_experiment(inst, 0.25, 200, 30, 0), 30),
            (lambda: learning.etc_run(inst, 512, 0.25, 0), None),
        ):
            op()
            assert gate.lps and gate.runs
            if seeds is not None:  # every seed's run goes through run_planner
                assert sum(trace.played.shape[0] for _, _, trace in gate.runs) == seeds
            assert gate.check(dict.fromkeys(workloads.STAT_KEYS, 0)) == []
    finally:
        patcher.undo()
    for layer in ("lp.solve_lp", "planner.run_planner", "planner.run_planner_init",
                  "planner.round_intervals", "planner.simulate_planner"):
        assert tracer.calls.get(layer), layer
