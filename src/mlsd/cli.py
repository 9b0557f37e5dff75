"""Command-line front end wiring instances, solver, planner, oracle, and
experiments into reproducible runs.

Every command is fully determined by its flags and --seed: rerunning writes
byte-identical files. CSV floats are formatted at 12 significant digits; arm
sets are semicolon-joined 0-based indices.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from typing import Iterable

import numpy as np

from . import analysis, learning, lp, model, oracle, planner
from .rng import seed_range, stream


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _labels(values: np.ndarray, label) -> np.ndarray:
    """label(v) for each entry, as an object array of the same shape; label
    runs once per distinct value present."""
    ordered = np.sort(values, axis=None)  # np.unique is 3x slower here
    distinct = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    table = np.array([label(v) for v in distinct.tolist()], dtype=object)
    return table[np.searchsorted(distinct, values)]


def _state_labels(states: np.ndarray) -> np.ndarray:
    """The ``nu_i`` label of each state, blank for state 0: from one table
    over ``lo..hi`` when ``hi - lo`` is less than the number of states,
    else from ``_labels`` (a plan file's states may reach -2**62)."""
    def label(nu: int) -> str:
        return str(nu) if nu else ""

    lo, hi = int(states.min()), int(states.max())
    if hi - lo >= states.size:
        return _labels(states, label)
    return np.array([label(nu) for nu in range(lo, hi + 1)], dtype=object)[states - lo]


def _arm_sets(members: np.ndarray) -> list[str]:
    """Each round's arms in an (n, T) play matrix, semicolon-joined."""
    arms = np.nonzero(members.T)[1]
    names = np.array([str(i) for i in range(members.shape[0])], dtype=object)[arms].tolist()
    ends = np.cumsum(np.count_nonzero(members, axis=0)).tolist()
    return [";".join(names[a:b]) for a, b in zip([0] + ends, ends)]


def _write_csv(path, header: list[str], rows: Iterable[list[str]]) -> None:
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def _build_instance(args) -> model.Instance:
    if args.kind == "random":
        rng = stream(args.seed, "instance")
        return model.random_instance(args.n, args.k, args.tau_max, args.tau_min, rng)
    if args.kind == "appendix-c1":
        return analysis.make_tight_instance(args.k, args.m)
    return analysis.make_step_instance()


def cmd_gen(args) -> int:
    instance = _build_instance(args)
    model.save_instance(instance, args.out)
    print(f"wrote {args.out} (n={instance.n}, k={instance.k}, "
          f"tau_max={instance.tau_max}, tau_min={instance.tau_min})")
    return 0


def _instance_arg(args) -> model.Instance:
    if args.instance is None:
        raise model.ModelError(f"{args.kind} needs --instance")
    return model.load_instance(args.instance)


def cmd_solve_lp(args) -> int:
    instance = model.load_instance(args.instance)
    tau_L = lp.tau_L_from_epsilon(args.epsilon)
    solution = lp.solve_lp(lp.build_lp(instance, tau_L))
    if args.out:
        model.save_json(lp.solution_to_dict(solution), args.out)
    print(f"LP*={_fmt(solution.objective)} tau_L={tau_L}")
    return 0


def cmd_plan(args) -> int:
    instance = model.load_instance(args.instance)
    tau_L = lp.tau_L_from_epsilon(args.epsilon)
    solution = lp.solve_lp(lp.build_lp(instance, tau_L))
    plan = planner.round_intervals(solution, [args.seed])
    model.save_json(planner.plan_to_dict(solution, plan), args.out)
    active = np.count_nonzero(plan.u)
    print(f"LP*={_fmt(solution.objective)} tau_L={tau_L} active_arms={active}/{instance.n}")
    return 0


_BLOCK_CELLS = 2**14  # (arm, round) cells the trace writer formats at a time


def _write_trace(path, runs: planner.PlannerRuns) -> None:
    """Run 0 as CSV, one row per round, formatted column-wise in blocks of
    rounds read one at a time with ``runs.columns``; ``nu_i`` is blank for
    an arm without an interval (state 0)."""
    n, T = runs.n, runs.T
    header = ["t"] + [f"nu_{i}" for i in range(n)] + [
        "candidates", "played", "virtual_payoff", "actual_payoff",
    ]
    step = max(1, _BLOCK_CELLS // n)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for a in range(0, T, step):
            b = min(a + step, T)
            virtual, candidates, played, _ = runs.columns(a, b)
            cells = np.empty((b - a, n + 5), dtype=object)
            cells[:, 0] = [str(t) for t in range(a + 1, b + 1)]
            cells[:, 1:-4] = _state_labels(virtual[0]).T
            cells[:, -4] = _arm_sets(candidates[0])
            cells[:, -3] = _arm_sets(played[0])
            cells[:, -2] = _labels(runs.virtual_payoff[0, a:b], _fmt)
            cells[:, -1] = _labels(runs.actual_payoff[0, a:b], _fmt)
            f.write("".join([",".join(row) + "\n" for row in cells.tolist()]))


def cmd_simulate(args) -> int:
    instance = model.load_instance(args.instance)
    if args.plan:
        with open(args.plan) as f:
            plan = json.load(f)
        trace = planner.run_planner(instance, planner.plan_from_dict(plan), args.T)
    else:
        solution = lp.solve_lp(lp.build_lp(instance, lp.tau_L_from_epsilon(args.epsilon)))
        trace = planner.simulate_planner(instance, solution, args.T, args.seed)
    _write_trace(args.out, trace)
    print(
        f"T={args.T} mean_virtual={_fmt(trace.virtual_payoff.mean())} "
        f"mean_actual={_fmt(trace.actual_payoff.mean())}"
    )
    return 0


def cmd_oracle(args) -> int:
    instance = model.load_instance(args.instance)
    value, schedule = oracle.dp_optimal(instance, args.T, budget=args.budget)
    if args.out:
        rows = zip(map(str, range(1, args.T + 1)), _arm_sets(schedule))
        _write_csv(args.out, ["t", "played"], rows)
    print(f"OPT={_fmt(value)}")
    return 0


def cmd_learn(args) -> int:
    instance = model.load_instance(args.instance)
    seeds = seed_range(args.seed, args.seeds)
    tau_L = lp.tau_L_from_epsilon(args.epsilon)
    try:
        opt, _ = oracle.dp_optimal(instance, args.T, budget=args.budget)
        label = "oracle"
    except oracle.OracleBudgetError:
        solution = lp.solve_lp(lp.build_lp(instance, tau_L))
        opt = args.T * solution.objective
        label = "LP*_upper_bound"
    benchmark = (1.0 - args.epsilon) * analysis.gamma_k(instance.k) * opt
    rows = []
    for s in seeds:
        res = learning.etc_run(instance, args.T, args.epsilon, s, benchmark_total=benchmark)
        rows.append([
            str(s), str(args.T), str(res.exploration_length),
            _fmt(res.realized_total), _fmt(res.regret),
        ])
    _write_csv(args.out, ["seed", "T", "exploration_length", "R", "Reg"], rows)
    mean_reg = float(np.mean([float(r[4]) for r in rows]))
    print(f"benchmark={label} mean_R={_fmt(np.mean([float(r[3]) for r in rows]))} "
          f"mean_Reg={_fmt(mean_reg)}")
    return 0


def _regret_trend(args) -> analysis.RegretTrend:
    instance = _instance_arg(args)  # before parsing --T-list
    grid = [int(x) for x in args.T_list.split(",")]
    return analysis.regret_trend(
        instance, grid, args.seeds, args.epsilon, args.seed, oracle_budget=args.budget
    )


def cmd_experiment(args) -> int:
    if args.kind == "approximation":
        instance = _instance_arg(args)
        report = analysis.approximation_experiment(
            instance, args.epsilon, args.T, args.seeds, args.seed,
            descriptor=args.instance,
        )
        payload = report.to_dict()
    elif args.kind == "tightness":
        result = analysis.tightness_experiment(
            args.k, args.m, args.T, args.seeds, args.seed
        )
        payload = result.to_dict()
    elif args.kind == "regret-trend":
        payload = asdict(_regret_trend(args))
    else:  # robustness
        instance = _instance_arg(args)
        etas = [float(x) for x in args.eta_list.split(",")]
        report = learning.robustness_gap(
            instance, etas, args.T, args.seeds, args.epsilon, args.seed
        )
        payload = asdict(report)
    model.save_json(payload, args.out)
    if args.csv:
        _write_flat_csv(args.csv, payload)
        print(f"wrote {args.out} and {args.csv}")
    else:
        print(f"wrote {args.out}")
    return 0


def _write_flat_csv(path, payload: dict) -> None:
    """One row per scalar field; list-valued fields become one row per item."""
    rows = []
    for key, value in payload.items():
        if isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    for sub, v in item.items():
                        rows.append([f"{key}[{i}].{sub}", _fmt_any(v)])
                else:
                    rows.append([f"{key}[{i}]", _fmt_any(item)])
        else:
            rows.append([key, _fmt_any(value)])
    _write_csv(path, ["field", "value"], rows)


def _fmt_any(v) -> str:
    if isinstance(v, bool) or v is None or isinstance(v, (str, int)):
        return str(v)
    return _fmt(v)


def cmd_plot_data(args) -> int:
    rows = []
    if args.kind == "ratio-vs-m":
        ms = [int(x) for x in args.m_list.split(",")]
        for m in ms:
            res = analysis.tightness_experiment(args.k, m, args.T, args.seeds, args.seed)
            rows.append(["ratio", str(m), _fmt(res.ratio)])
        for m in ms:
            rows.append(["gamma", str(m), _fmt(analysis.gamma_k(args.k))])
    else:  # regret-vs-T
        trend = _regret_trend(args)
        for p in trend.points:
            rows.append(["regret_vs_planner", str(p.T), _fmt(p.mean_regret_vs_planner)])
        for p in trend.points:
            rows.append(["regret_vs_benchmark", str(p.T), _fmt(p.mean_regret)])
    _write_csv(args.out, ["series", "x", "y"], rows)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mlsd")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write an instance file")
    g.add_argument("kind", choices=["random", "appendix-c1", "appendix-c2"])
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--m", type=int, default=3)
    g.add_argument("--tau-max", type=int, default=3, dest="tau_max")
    g.add_argument("--tau-min", type=int, default=-2, dest="tau_min")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="instance.json")
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("solve-lp", help="solve the interval relaxation")
    s.add_argument("--instance", required=True)
    s.add_argument("--epsilon", type=float, default=0.5)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_solve_lp)

    pl = sub.add_parser("plan", help="round the relaxation into per-arm cycles")
    pl.add_argument("--instance", required=True)
    pl.add_argument("--epsilon", type=float, default=0.5)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--out", default="plan.json")
    pl.set_defaults(fn=cmd_plan)

    si = sub.add_parser("simulate", help="run the planner against the environment")
    si.add_argument("--instance", required=True)
    si.add_argument("--plan", default=None)
    si.add_argument("--epsilon", type=float, default=0.5)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--T", type=int, required=True)
    si.add_argument("--out", default="trace.csv")
    si.set_defaults(fn=cmd_simulate)

    o = sub.add_parser("oracle", help="exact optimum by backward induction")
    o.add_argument("--instance", required=True)
    o.add_argument("--T", type=int, required=True)
    o.add_argument("--budget", type=float, default=1e8)
    o.add_argument("--out", default=None)
    o.set_defaults(fn=cmd_oracle)

    le = sub.add_parser("learn", help="explore-then-commit runs")
    le.add_argument("--instance", required=True)
    le.add_argument("--T", type=int, required=True)
    le.add_argument("--epsilon", type=float, default=0.25)
    le.add_argument("--seed", type=int, default=0)
    le.add_argument("--seeds", type=int, default=1)
    le.add_argument("--budget", type=float, default=1e8)
    le.add_argument("--out", default="regret.csv")
    le.set_defaults(fn=cmd_learn)

    e = sub.add_parser("experiment", help="reproducible experiment reports")
    e.add_argument("kind", choices=["approximation", "tightness", "regret-trend", "robustness"])
    e.add_argument("--instance", default=None)
    e.add_argument("--epsilon", type=float, default=0.25)
    e.add_argument("--T", type=int, default=500)
    e.add_argument("--T-list", default="1024,4096,16384", dest="T_list")
    e.add_argument("--eta-list", default="0.0,0.05,0.1,0.2", dest="eta_list")
    e.add_argument("--k", type=int, default=1)
    e.add_argument("--m", type=int, default=50)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--seeds", type=int, default=50)
    e.add_argument("--budget", type=float, default=1e8)
    e.add_argument("--out", default="experiment.json")
    e.add_argument("--csv", default=None)
    e.set_defaults(fn=cmd_experiment)

    pd = sub.add_parser("plot-data", help="emit (x, y) series as CSV")
    pd.add_argument("kind", choices=["ratio-vs-m", "regret-vs-T"])
    pd.add_argument("--instance", default=None)
    pd.add_argument("--epsilon", type=float, default=0.25)
    pd.add_argument("--T", type=int, default=2000)
    pd.add_argument("--T-list", default="1024,4096,16384", dest="T_list")
    pd.add_argument("--k", type=int, default=1)
    pd.add_argument("--m-list", default="5,10,20,50", dest="m_list")
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--seeds", type=int, default=30)
    pd.add_argument("--budget", type=float, default=1e8)
    pd.add_argument("--out", default="plot.csv")
    pd.set_defaults(fn=cmd_plot_data)

    return p


_main_parser = functools.cache(build_parser)  # main's parser, built on its first call


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        for name in ("T", "seeds"):
            if getattr(args, name, 1) <= 0:
                raise model.ModelError(f"--{name} must be positive, got {getattr(args, name)}")
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:  # a directory or an unreadable path, say
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except oracle.OracleBudgetError as exc:
        print(f"error: oracle budget exceeded: {exc}", file=sys.stderr)
        return 1
    except (ValueError, planner.PlannerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
