"""Benchmark worker: runs passes of workload inputs against lctkit.

Started by run.py with PYTHONPATH pointing at the checkout's src/, and kept
alive for the whole run. It reads one JSON command per line on stdin and
answers each with one JSON line on stdout:

    {"cmd": "pass", "family": "pole", "role": "primary", "seed": 1, "index": 0}
        run one pass of inputs; answer {"ops": [...]}
    {"cmd": "trace", "phases": [[family, role], ...], "seed": 1, "path": ...}
        for each phase run pass 0 untraced and traced in turn; answer the
        wall times, the span summary and the counters
    {"cmd": "rss"}
        answer {"peak_rss_kb": ...}

Every call is a closed loop: one caller, no threads; the next input starts
when the previous verdict is in.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

import calibration
import workloads
from tracer import Tracer, install

import lctkit  # noqa: F401
from lctkit import blowup, catalogue, estimator, newton, parser, zeta
from lctkit.algebra import GAUSS
from lctkit.errors import UnreliableEstimateError


def _frac(value):
    return None if value is None else str(value)


def _error(err: BaseException) -> dict:
    return {"error": f"{type(err).__name__}: {err}"}


# Each runner calls lctkit through module attributes, so an installed
# tracer sees the calls, and returns (seconds, outcome).


def run_pole(op):
    variables = tuple(op["vars"].split(","))
    t0 = time.perf_counter()
    try:
        f = parser.parse_poly(op["text"], GAUSS, variables)
        tree = blowup.resolve(f, blowup.Auto(max_depth=op["depth"]))
        report = zeta.lambda_uncapped(tree, newton.lambda_newton(f))
        depth_limited = tree.has_depth_limit()
    except Exception as err:  # any raise is a recorded failure, not a crash
        return time.perf_counter() - t0, _error(err)
    seconds = time.perf_counter() - t0
    return seconds, {
        "lam": _frac(report.lambda_uncapped),
        "certified": report.certified,
        "depth_limited": depth_limited,
        "newton": _frac(report.newton_value),
    }


def run_audit(op):
    t0 = time.perf_counter()
    try:
        rows = [catalogue.verify(family, n, op["depth"]) for family, n in op["verify"]]
    except Exception as err:
        return time.perf_counter() - t0, _error(err)
    seconds = time.perf_counter() - t0
    return seconds, {
        "members": [
            {
                "label": row.label,
                "newton": _frac(row.newton_value),
                "engine": _frac(row.engine_value),
                "certified": row.engine_certified,
                "depth_limited": row.depth_limited,
            }
            for row in rows
        ]
    }


def run_newton(op):
    variables = tuple(op["vars"].split(","))
    t0 = time.perf_counter()
    try:
        f = parser.parse_poly(op["text"], GAUSS, variables)
        data = newton.lambda_newton(f)
    except Exception as err:
        return time.perf_counter() - t0, _error(err)
    return time.perf_counter() - t0, {"lam": _frac(data.lambda_np)}


def run_estimate(op):
    variables = tuple(op["vars"].split(","))
    t0 = time.perf_counter()
    try:
        f = parser.parse_poly(op["text"], GAUSS, variables)
        config = estimator.EstimatorConfig(
            mode=op["mode"], samples_per_level=op["samples"], seed=op["sampler_seed"]
        )
        result = estimator.estimate(f, config)
    except UnreliableEstimateError:
        return time.perf_counter() - t0, {"unreliable": True}
    except Exception as err:
        return time.perf_counter() - t0, _error(err)
    seconds = time.perf_counter() - t0
    return seconds, {
        "unreliable": False,
        "lambda_hat": result.lambda_hat if math.isfinite(result.lambda_hat) else None,
        "stderr": result.stderr if math.isfinite(result.stderr) else None,
    }


RUNNERS = {
    "pole": run_pole,
    "audit": run_audit,
    "newton": run_newton,
    "estimate": run_estimate,
}


def run_pass(family, role, seed, index, tracer=None, calibrate=True):
    """One pass. With `calibrate`, a calibration loop runs before the first
    call, then whenever CAL_EVERY seconds have passed, and once after the
    last; each call records the mean of the loops before and after it as
    `loop_s`. With a tracer, each call is a root span `bench.<family>`."""
    runner = RUNNERS[family]
    kind = calibration.kind_of(family)
    records, loops = [], []
    last = -math.inf
    start = time.perf_counter()
    for op in workloads.phase_ops(family, role, seed, index):
        if calibrate and time.perf_counter() - last >= calibration.CAL_EVERY:
            loops.append((len(records), calibration.measure(kind)))
            last = time.perf_counter()
        span = tracer.open(f"bench.{family}") if tracer else None
        seconds, outcome = runner(op)
        if tracer:
            tracer.close(span)
        records.append({"id": op["id"], "text": op.get("text"),
                        "seconds": seconds, **outcome})
    wall = time.perf_counter() - start
    if calibrate:
        loops.append((len(records), calibration.measure(kind)))
        for (first, before), (end, after) in zip(loops, loops[1:]):
            for rec in records[first:end]:
                rec["loop_s"] = (before + after) / 2
    return records, wall


def peak_rss_kb() -> int:
    """This process's peak resident set. VmHWM starts afresh at exec, unlike
    getrusage's ru_maxrss, which keeps the forking parent's peak."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_trace(cmd):
    """Per phase: a warm-up pass, then untraced and traced passes in turn,
    U T U T U. The first traced pass feeds the report, the second a
    throwaway tracer; the overhead is the mean traced time minus the mean
    untraced time."""
    tracer = Tracer()
    phases = []
    for family, role in cmd["phases"]:
        records, _ = run_pass(family, role, cmd["seed"], 0, calibrate=False)
        untraced, traced = [], []
        for sink in (tracer, Tracer(), None):
            untraced.append(run_pass(family, role, cmd["seed"], 0, calibrate=False)[1])
            if sink is None:
                break
            patch = install(sink)
            try:
                again, seconds = run_pass(family, role, cmd["seed"], 0, sink, False)
            finally:
                patch.restore()
            traced.append(seconds)
            # Tracing must observe, never change: outcomes repeat exactly.
            changed = sum(1 for a, b in zip(records, again)
                          if workloads.outcome(a) != workloads.outcome(b))
        phases.append({"family": family, "role": role, "ops": records,
                       "untraced_s": statistics.mean(untraced),
                       "traced_s": statistics.mean(traced),
                       "spans_s": traced[0], "changed": changed})
    if cmd.get("path"):
        tracer.write(cmd["path"])
    return {"phases": phases, "spans": tracer.summary(),
            "counters": dict(tracer.counters), "maxima": tracer.maxima}


def handle(cmd):
    if cmd["cmd"] == "pass":
        records, _ = run_pass(cmd["family"], cmd["role"], cmd["seed"], cmd["index"])
        return {"ops": records}
    if cmd["cmd"] == "trace":
        return run_trace(cmd)
    if cmd["cmd"] == "rss":
        return {"peak_rss_kb": peak_rss_kb()}
    raise ValueError(f"unknown command {cmd['cmd']!r}")


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(handle(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
