"""Run one workload of the mlsd benchmark, check its outputs and print metrics.

    python3 perfbench/run.py --workload {regret,approx,plan} --seed N \
        --seconds S --trace {0,1}

The program is imported from the tree's ``src/``; nothing needs installing.
The set-up (import plus generating the workload's inputs from the seed) is
repeated in fresh interpreter processes, between the measured passes, and
its median reported as ``setup_s``. After one warm-up pass, which is checked
but not timed, whole passes over the inputs repeat until they took
``--seconds`` and at least 110 ops ran, so that p90 has ten samples beyond
it.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured with
only the correctness gate installed. ``wall_s`` and the op latencies are
scaled by the machine's speed during each pass, which a calibration kernel
timed after every op tracks (see ``speed``); the record keeps them unscaled
as well. ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics: calls and self time per
pass at each layer boundary, counts per pass, and the traced minus untraced
pass wall time.

The last line of stdout is the result as JSON. A fuller record with
provenance, output digest and recorded outcomes goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``, and a traced run's
spans to ``perfbench/out/<workload>-seed<seed>-spans.csv.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from spans import Patcher, Tracer

START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_PROBES = 5
MIN_OPS = 110
DEADLINE_S = 150.0  # stop starting passes after this, whatever the settings


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["regret", "approx", "plan"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print 'ready' and exit (used to time set-up)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    return args


def import_program() -> None:
    """Put the tree's ``src/`` first on the path and import mlsd from it."""
    src = ROOT / "src"
    if not (src / "mlsd" / "__init__.py").is_file():
        raise SystemExit(f"error: no mlsd package under {src}")
    os.environ.pop("MLSD_THREADS", None)  # the program's default worker count
    # One thread: numpy's and scipy's BLAS would otherwise each start a pool.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    import mlsd

    if Path(mlsd.__file__).resolve().parent != src / "mlsd":
        raise SystemExit(f"error: imported mlsd from {mlsd.__file__}, not {src}")


class SetupTimer:
    """Times the set-up in fresh interpreters, spread over the run.

    One sample is seconds from spawning ``run.py --setup-probe`` to its
    'ready' line. The machine's speed drifts, so the samples are taken
    between measured passes rather than all at once.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
        self.samples: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        self.samples.append(elapsed)

    def due(self, fraction: float) -> None:
        """Probe until the samples keep pace with ``fraction`` of the run."""
        while len(self.samples) < min(SETUP_PROBES, 1 + int(fraction * SETUP_PROBES)):
            self.probe()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return self.samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the tree's git repository, read from .git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the program's source files, to identify it outside git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": len(os.listdir("/proc/self/task")),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "MLSD_THREADS": os.environ.get("MLSD_THREADS"),
    }


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pass_times(passes, scales: list[float]) -> dict:
    """``wall_s``, the median pass time, and the op latency percentiles,
    with each pass's times multiplied by its scale."""
    latencies = [x * s for p, s in zip(passes, scales) for x in p.latencies]
    return {
        "wall_s": statistics.median(p.busy * s for p, s in zip(passes, scales)),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    # These import mlsd or numpy, so only after import_program().
    import harness
    import speed
    from workloads import WORKLOADS, Gate

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        units = declared_metrics(args.trace)
        setup = None if args.trace else SetupTimer(args)

        gate = Gate()
        gate.install(Patcher())
        tracer = Tracer() if args.trace else None
        passes = harness.measure(workload, gate, args.seconds, 0 if args.trace else MIN_OPS,
                                 START + DEADLINE_S, tracer, setup.due if setup else None)
        timed = passes[1:]
        if len(timed) < (2 if args.trace else 1):
            raise SystemExit(f"error: nothing measured: {passes[-1].failures[:1]}")
        if args.trace:
            values = harness.layer_metrics(tracer, [p for p in timed if p.tracer],
                                           [p for p in timed if not p.tracer])
        else:
            # A pass aborted before its first op has no kernel times of its own.
            pooled_kernel_s = [x for p in timed for x in p.kernel_s] or [speed.NOMINAL_S]
            values = {
                "setup_s": statistics.median(setup.finish()),
                **pass_times(timed, [speed.scale(p.kernel_s or pooled_kernel_s) for p in timed]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            raw_times = pass_times(timed, [1.0] * len(timed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # A pass whose shared work raised counts as one more failed op.
    attempted = sum(len(p.latencies) + p.aborted for p in passes)
    failures = [f for p in passes for f in p.failures]
    digests = sorted({p.digest for p in passes})
    deterministic = len(digests) == 1 and all(p.stats == passes[0].stats for p in passes)
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not failures and deterministic,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }

    record = {
        "provenance": provenance(args),
        "result": result,
        "passes": len(passes),
        "ops_per_pass": [len(p.latencies) for p in passes],
        "pass_wall_s": [p.busy for p in passes],
        "pass_traced": [p.tracer is not None for p in passes],
        "setup_samples_s": setup.samples if setup else [],
        "pass_kernel_s": [statistics.median(p.kernel_s) if p.kernel_s else None for p in passes],
        "unscaled": None if args.trace else raw_times,
        "digest": digests[0] if deterministic else digests,
        "deterministic": deterministic,
        "counts_per_pass": passes[0].stats,
        "outcomes": passes[0].outcomes,
        "failures": failures[:20],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record_path = OUT / f"{stem}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.csv.gz")

    print(f"# {args.workload} seed={args.seed}: {len(passes)} passes, {attempted} ops, "
          f"digest {record['digest'] if deterministic else 'NOT REPEATABLE'}")
    for name, m in metrics.items():
        print(f"#   {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"# record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
