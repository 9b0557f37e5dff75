"""The benchmark's workloads and the correctness gate applied to their ops.

Each workload turns the benchmark seed into generated inputs once (set-up)
and then runs the same pass over them as often as the run lasts. A pass is a
closed loop of ops on one thread; the pass wall time also covers work shared
by its ops, such as ``OPT(T)`` in ``regret``. Because every pass repeats the
same inputs, its output digest and its counts must repeat exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time

import numpy as np

import speed
from mlsd import analysis, cli, learning, lp, model, oracle, planner

EPSILON = 0.25


def _fmt(x) -> str:
    return format(float(x), ".12g")


def init_states_of(args, kwargs):
    """``init_states`` of a ``run_planner`` call (its sixth parameter)."""
    if "init_states" in kwargs:
        return kwargs["init_states"]
    return args[5] if len(args) > 5 else None


class Gate:
    """Captures every LP solve and planner run made inside an op, so they can
    be checked after the op's clock has stopped."""

    def __init__(self):
        self.lps: list = []
        self.runs: list = []

    def install(self, patcher) -> None:
        def capture_solve(fn):
            def solve_lp(problem):
                solution = fn(problem)
                self.lps.append((problem, solution))
                return solution
            return solve_lp

        def capture_run(fn):
            def run_planner(*args, **kwargs):
                trace = fn(*args, **kwargs)
                self.runs.append((args[0], init_states_of(args, kwargs) is None, trace))
                return trace
            return run_planner

        patcher.replace(lp, "solve_lp", capture_solve)
        patcher.replace(planner, "run_planner", capture_run)

    def check(self, stats: dict) -> list[str]:
        """Check and forget what the last op captured; returns the broken
        invariants and adds the LP and planner counts to ``stats``."""
        errors = []
        for problem, solution in self.lps:
            report = lp.check_feasible(solution, problem)
            if not report.feasible:
                errors.append(f"LP solution infeasible by {report.max_violation:.3g}")
            stats["lp.vars"] += problem.num_vars
            stats["lp.nonzero"] += int(np.count_nonzero(solution.x > 0.0))
            stats["lp.a_ub_bytes"] = max(stats["lp.a_ub_bytes"], problem.a_ub.nbytes)
        for instance, from_ones, trace in self.runs:
            plays = trace.played.sum(axis=1)
            if plays.size and int(plays.max()) > instance.k:
                errors.append(f"{int(plays.max())} arms played in a round, budget {instance.k}")
            # Domination holds for runs that start with every arm at +1; a
            # commit phase starts from the exploration's end states instead.
            if from_ones and planner.domination_margin(trace, instance.tau_max) < 0:
                errors.append("actual state below virtual state after tau_max")
            stats["planner.arm_rounds"] += trace.n * trace.T
            stats["planner.plays"] += int(plays.sum())
            stats["planner.budget_slots"] += instance.k * trace.T
            stats["planner.rounds"] += trace.T
            stats["planner.short_rounds"] += int(
                np.count_nonzero(trace.candidates.sum(axis=1) < instance.k)
            )
        self.lps.clear()
        self.runs.clear()
        return errors


STAT_KEYS = (
    "lp.vars", "lp.nonzero", "lp.a_ub_bytes",
    "planner.arm_rounds", "planner.plays", "planner.budget_slots",
    "planner.rounds", "planner.short_rounds",
    "learning.explore_rounds", "learning.commit_rounds",
    "oracle.evals", "cli.bytes_written",
)


class Pass:
    """One pass over a workload's inputs: op latencies, busy time, failures,
    output digest, exact counts, recorded statistical outcomes, and the
    calibration kernel's time after each op (see ``speed``)."""

    def __init__(self, gate: Gate, tracer=None):
        self.gate = gate
        self.tracer = tracer
        self.latencies: list[float] = []
        self.kernel_s: list[float] = []
        self.busy = 0.0
        self.failures: list[str] = []
        self.stats = dict.fromkeys(STAT_KEYS, 0)
        self.outcomes: dict = {}
        self.aborted = False
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def record(self, data) -> None:
        """Add one output to the pass digest."""
        self._digest.update(data if isinstance(data, bytes) else data.encode())
        self._digest.update(b"\n")

    def shared(self, fn, *args):
        """Time work that the pass's ops share; it counts in the wall time."""
        t0 = time.perf_counter()
        out = fn(*args)
        self.busy += time.perf_counter() - t0
        return out

    def op(self, check, fn, *args, **kwargs):
        """Time one op, then run the gate and ``check(result)`` and time the
        calibration kernel, outside the op's clock. Returns the result, or
        None if the op failed."""
        frame = self.tracer.open("bench.op") if self.tracer else None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            errors = []
        except Exception as exc:  # an op that raises is a failed op
            out = None
            errors = [f"raised {type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        if frame is not None:
            self.tracer.close(frame)
        self.latencies.append(dt)
        self.busy += dt
        errors += self.gate.check(self.stats)
        if out is not None:
            errors += check(out)
        self.kernel_s.append(speed.time_kernel())
        if errors:
            self.failures.append("; ".join(errors))
            return None
        return out


class Regret:
    """ETC on the step instance over horizons 2^9..2^13 (criterion 8, reduced).

    The horizons are 15 geometric steps, one ETC seed and one ``OPT(T)``
    each. On the step instance an op's work does not depend on its seed,
    and every pass repeats the same ops, so the pooled latencies form one
    group per horizon. 15 is odd and 0.9 x 15 ends in .5, so p50 falls in
    the middle of the 8th group and p90 in the middle of the 14th, and each
    reads that horizon's typical latency. With 20 horizons both fell on the
    edge between two groups and jumped between them from run to run.
    """

    N_HORIZONS = 15
    T_RANGE = (2**9, 2**13)

    def __init__(self, seed: int, workdir):
        self.instance = analysis.make_step_instance()
        lo, hi = self.T_RANGE
        k = self.N_HORIZONS - 1
        rng = np.random.default_rng([seed, 1])
        self.runs = [
            (round(lo * (hi / lo) ** (j / k)), int(rng.integers(0, 2**31)))
            for j in range(self.N_HORIZONS)
        ]

    def run_pass(self, p: Pass) -> None:
        inst = self.instance
        actions = sum(math.comb(inst.n, s) for s in range(inst.k + 1))
        gamma = analysis.gamma_k(inst.k)
        points = []
        for T, etc_seed in self.runs:
            opt, _ = p.shared(oracle.dp_optimal, inst, T)
            p.stats["oracle.evals"] += (inst.tau_max - inst.tau_min) ** inst.n * T * actions
            p.record(f"OPT {T} {_fmt(opt)}")
            # The step instance's optimum cycles (play, play, rest).
            if opt != (2 * T + 2) // 3:
                raise RuntimeError(f"OPT({T}) = {opt}, expected {(2 * T + 2) // 3}")
            benchmark = (1.0 - EPSILON) * gamma * opt

            def check(r, T=T, opt=opt):
                p.record(" ".join([str(T), str(r.exploration_length)] + [
                    _fmt(v) for v in (r.realized_total, r.mean_total, r.planner_total, r.regret)
                ]))
                p.stats["learning.explore_rounds"] += r.exploration_length
                p.stats["learning.commit_rounds"] += T - r.exploration_length
                errors = []
                if r.min_sample_count < r.config.m:
                    errors.append(f"min sample count {r.min_sample_count} < m={r.config.m}")
                for what, total in (("ETC", r.mean_total), ("planner", r.planner_total)):
                    if total > opt + 1e-9 * opt:
                        errors.append(f"{what} mean payoff {total} exceeds OPT({T})={opt}")
                return errors

            r = p.op(check, learning.etc_run, inst, T, EPSILON, etc_seed, benchmark_total=benchmark)
            if r is not None:
                points.append((T, r.regret_vs_planner))
        xs = np.log([T for T, _ in points])
        ys = np.log([max(g, 1e-9) for _, g in points])
        p.outcomes["regret_slope"] = float(np.polyfit(xs, ys, 1)[0])


class Approx:
    """Criterion 5's unit on random small instances, three per shape; the
    seed-to-seed spread of the pass time falls with the instance count."""

    SHAPES = [
        (n, k, tau_max, tau_min)
        for n in (2, 3, 4)
        for k in (1, 2)
        for tau_max in (1, 2, 3)
        for tau_min in (-2, -1)
    ]
    PER_SHAPE = 3
    T = 500
    N_SEEDS = 50

    def __init__(self, seed: int, workdir):
        self.cases = []
        for i, (n, k, tau_max, tau_min) in enumerate(self.SHAPES * self.PER_SHAPE):
            rng = np.random.default_rng([seed, 2, i])
            instance = model.random_instance(n, k, tau_max, tau_min, rng)
            self.cases.append((instance, int(rng.integers(0, 2**31))))

    def run_pass(self, p: Pass) -> None:
        satisfied = 0

        def check(report):
            nonlocal satisfied
            d = report.to_dict()
            p.record(" ".join(f"{key}={_fmt(v) if isinstance(v, float) else v}" for key, v in d.items()))
            satisfied += bool(report.bound_satisfied)
            return [] if report.actual_dominates else ["actual payoff below virtual payoff"]

        for instance, s in self.cases:
            p.op(check, analysis.approximation_experiment, instance, EPSILON, self.T, self.N_SEEDS, s)
        p.outcomes["bound_satisfied"] = f"{satisfied}/{len(self.cases)}"


class Plan:
    """In-process ``mlsd simulate`` calls, one fresh random instance each.

    Arm counts run geometrically from 25 to 100, so the median call is at
    n = 50 and op latencies spread over a factor of four. When the machine's
    speed drifts during a run, a spread-out latency distribution moves p50
    in proportion. A narrow one would make p50 jump between the slow and
    the fast speed. Every pass repeats the same calls, so the pooled
    latencies form one group per call; with 35 calls, p50 and p90 fall in
    the middle of a group (0.5 and 0.9 x 35 end in .5), not on an edge.
    """

    N_INSTANCES = 35
    N_RANGE = (25, 100)
    SHAPE = dict(k=5, tau_max=10, tau_min=-4)
    T = 500

    def __init__(self, seed: int, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        lo, hi = self.N_RANGE
        self.cases = []
        for i in range(self.N_INSTANCES):
            n = round(lo * (hi / lo) ** (i / (self.N_INSTANCES - 1)))
            rng = np.random.default_rng([seed, 3, i])
            instance = model.random_instance(n=n, rng=rng, **self.SHAPE)
            path = workdir / f"instance-{i}.json"
            model.save_instance(instance, path)
            argv = [
                "simulate", "--instance", str(path), "--T", str(self.T),
                "--epsilon", str(EPSILON), "--seed", str(int(rng.integers(0, 2**31))),
                "--out", str(workdir / f"trace-{i}.csv"),
            ]
            self.cases.append((argv, instance.n, instance.k))

    @staticmethod
    def _simulate(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def run_pass(self, p: Pass) -> None:
        for argv, n, k in self.cases:
            csv_path = argv[argv.index("--out") + 1]

            def check(result, csv_path=csv_path, n=n, k=k):
                code, stdout = result
                if code != 0:
                    return [f"exit code {code}"]
                with open(csv_path, "rb") as f:
                    data = f.read()
                p.record(data)
                p.record(stdout)
                p.stats["cli.bytes_written"] += len(data)
                return self._check_csv(data.decode(), n, k)

            p.op(check, self._simulate, argv)

    def _check_csv(self, text: str, n: int, k: int) -> list[str]:
        lines = text.splitlines()
        header = lines[0].split(",")
        if len(header) != n + 5 or len(lines) != self.T + 1:
            return [f"trace CSV has {len(header)} columns and {len(lines) - 1} rounds"]
        cand_col, play_col = header.index("candidates"), header.index("played")
        for line in lines[1:]:
            fields = line.split(",")
            played = set(fields[play_col].split(";")) - {""}
            if len(played) > k:
                return [f"round {fields[0]}: {len(played)} arms played, budget {k}"]
            if not played <= set(fields[cand_col].split(";")):
                return [f"round {fields[0]}: a played arm is not a candidate"]
        return []


WORKLOADS = {"regret": Regret, "approx": Approx, "plan": Plan}
