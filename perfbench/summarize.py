"""Summarize run records into one baseline file.

    python3 perfbench/summarize.py --seeds 201-210 --trace-seed 201 \
        --out perfbench/baselines/NAME.json

Reads ``perfbench/out/<workload>-seed<seed>-trace0.json`` for every seed and
``<workload>-seed<trace-seed>-trace1.json``, as ``run.py`` writes them, and
records for each workload and end-to-end metric the values, their median and
their spread (quartile distance over median, quartiles as
``statistics.quantiles(values, n=4)`` gives them), the output digest of every
seed, and the traced run's per-layer metrics with the share of the pass time
spent in each layer's own code.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(workload: str, seed: int, trace: int) -> dict:
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json") as f:
        return json.load(f)


def summarize_workload(workload: str, seeds: list[int], trace_seed: int) -> dict:
    runs = [load(workload, s, 0) for s in seeds]
    metrics = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "spread": (q3 - q1) / statistics.median(values),
            "values": values,
        }
    traced = load(workload, trace_seed, 1)
    layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    walls = [w for w, t in zip(traced["pass_wall_s"][1:], traced["pass_traced"][1:]) if t]
    wall = statistics.median(walls)
    shares = {
        k[: -len(".self_s")]: v / wall
        for k, v in layers.items() if k.endswith(".self_s") and v > 0
    }
    return {
        "seeds": seeds,
        "all_correct": all(r["result"]["correct"] for r in runs + [traced]),
        "failed": sum(r["result"]["failed"] for r in runs + [traced]),
        "attempted": [r["result"]["attempted"] for r in runs],
        "end_to_end": metrics,
        "digests": {str(s): r["digest"] for s, r in zip(seeds, runs)},
        "outcomes": {str(s): r["outcomes"] for s, r in zip(seeds, runs)},
        "traced": {
            "seed": trace_seed,
            "digest": traced["digest"],
            "per_layer": layers,
            "traced_pass_wall_s": wall,
            "self_share_of_traced_pass": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 101-110")
    p.add_argument("--trace-seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    workloads = ["regret", "approx", "plan"]
    first = load(workloads[0], args.seeds[0], 0)["provenance"]
    summary = {
        "provenance": {k: v for k, v in first.items() if k not in ("workload", "seed", "trace")},
        "workloads": {w: summarize_workload(w, args.seeds, args.trace_seed) for w in workloads},
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
