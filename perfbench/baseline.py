"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py [--seeds 1-10] [--seconds 12] [--out perfbench/baseline.json]

Runs every workload once per seed untraced and once (first seed) traced,
from the root of a checkout, and writes per workload: the median and
quartiles of every end-to-end metric with the spread (interquartile range
over median, as the acceptance check computes it), the per-layer metrics
of the traced run, the self-time share of each layer in the workload's own
phase (read back from the span file), and the src/ line count, which is
informational only.
"""

from __future__ import annotations

import argparse
import gzip
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, layer_of  # noqa: E402

HELD_OUT_SEED = 1009


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def span_shares(path):
    """Self-time share of each layer among all spans of a trace file."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        data = json.load(handle)
    names, spans = data["names"], data["spans"]
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns = {}
    for i, (name_id, start, end, _) in enumerate(spans):
        layer = layer_of(names[name_id])
        self_ns[layer] = self_ns.get(layer, 0) + (end - start) - child[i]
    total = sum(self_ns.values())
    return {layer: self_ns.get(layer, 0) / total for layer in LAYERS + ("bench",)}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = {
        "seeds": seeds,
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": args.seconds,
        "src_lines": src_lines(Path.cwd()),
        "workloads": {},
    }
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [run(name, seed, args.seconds, 0) for seed in seeds]
        traced = run(name, seeds[0], args.seconds, 1)
        trace_file = HERE / "out" / f"trace-{name}-{seeds[0]}-primary.json.gz"
        result["workloads"][name] = {
            "why": entry["why"],
            "family": workloads.FAMILY[name],
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {
                metric: spread([r["metrics"][metric]["value"] for r in runs])
                for metric in runs[0]["metrics"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "primary_self_shares": span_shares(trace_file),
        }
        print(f"{name}: done", file=sys.stderr)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
