"""lctkit benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload pole-auto --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; lctkit is imported from ./src. A run first
checks the benchmark's own rules (failure rule, reference tables, seeding),
then makes ROUNDS rounds, each of which:

1. times SETUP_PER_ROUND cold `import lctkit`, each in a fresh interpreter
   (normalised by calibration loops run in this process around it);
2. runs the workload's own family in the primary worker process: whole
   passes of seeded inputs, as many as fit in seconds/ROUNDS, new passes in
   every round;
3. runs the other three families' fixed probes once in a second worker, so
   every run reports every end-to-end metric.

The speed of a shared machine drifts by a third over stretches of seconds.
Every call time is therefore normalised by calibration loops run next to
it (see calibration.py), interleaving spreads every family's samples over
the whole run, and every figure is a median or quantile over them. Every
output is checked against the hand-written references (Newton values
against scipy's LP), and a probe output that changes between rounds is a
violation. The metrics are printed by name with units and, last, as one
JSON object. Peak RSS is the primary worker's.

With --trace 1 each worker instead runs one pass per phase traced, between
untraced ones, and the JSON carries the per-layer metrics; the spans are
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import check  # noqa: E402
import selftest  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, layer_of  # noqa: E402

ROUNDS = 5
SETUP_PER_ROUND = 2
TRACE_SETUP_RUNS = 5
DEADLINE_S = 170
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import lctkit; "
    "print(time.perf_counter() - t)"
)

# Metric names and units, in BENCHMARK.json's order.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    # Imports use cached bytecode, as an installed package's do; the first
    # cold import of a run writes the cache and is not a sample.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cold_import(root, env, importtime=False):
    """Seconds `import lctkit` takes in a fresh interpreter, and with
    importtime the seconds numpy's import took inside it."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", IMPORT_CODE]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import lctkit failed: {proc.stderr.strip()[-2000:]}")
    numpy_s = None
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            numpy_s = int(fields[1]) / 1e6
    if importtime and numpy_s is None:
        raise BenchError("numpy import time not found in -X importtime output")
    return float(proc.stdout.split()[-1]), numpy_s


class Worker:
    """A worker process fed one JSON command per line."""

    def __init__(self, root, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def call(self, **cmd):
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # still busy after an error
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------
# Checking.


def check_phase(family, role, seed, passes, outs):
    """Each op with its outcome and status, and the violations."""
    ops = []
    for k in range(passes):
        ops.extend(workloads.phase_ops(family, role, seed, k))
    if [o["id"] for o in ops] != [o["id"] for o in outs] or any(
        op.get("text") != out["text"] for op, out in zip(ops, outs)
    ):
        raise BenchError(f"{family}: worker inputs differ from the seeded inputs")
    rows, violations = [], []
    for op, out in zip(ops, outs):
        if family == "audit":
            if "error" in out:
                rows.append((op, out, "error", None))
                violations.append(f"{op['id']}: raised {out['error']}")
                continue
            members = []
            for member in out["members"]:
                status, why = check.classify_member(member)
                members.append(status)
                if why:
                    violations.append(why)
            if sorted(m["label"] for m in out["members"]) != op["members"]:
                violations.append(f"{op['id']}: audit members differ from the catalogue")
            rows.append((op, out, None, members))
            continue
        if family == "pole":
            status, why = check.classify_pole(op, out)
        elif family == "newton":
            status, why = check.classify_newton(op, out, check.lp_lambda(op["support"]))
        else:
            status, why = check.classify_estimate(op, out)
        rows.append((op, out, status, None))
        if why:
            violations.append(why)
    return rows, violations


def statuses(rows):
    out = []
    for _, _, status, members in rows:
        out.extend(members if members is not None else [status])
    return out


def normalised(rec, family):
    """A call's seconds at the calibration loop's nominal speed."""
    kind = calibration.kind_of(family)
    return rec["seconds"] * calibration.NOMINAL[kind] / rec["loop_s"]


def family_metrics(family, rows, rounds):
    """The family's end-to-end metrics, from normalised call times (see
    calibration.py). Latencies are quantiles over every call of every round;
    rates are the median over rounds of the round's work over its time;
    shares count the outcomes of the inputs."""
    times = [normalised(rec, family) for records in rounds for rec in records]
    st = statuses(rows)
    right = st.count("right") / len(st)
    if family == "pole" and len(times) < 100:
        raise BenchError(f"only {len(times)} pole calls timed; p90 needs 100")

    def work(op, members):
        if family == "audit":
            return len(members or ())
        return op["samples"] / 1e6 if family == "estimate" else 1

    work_of = {op["id"]: work(op, members) for op, _, _, members in rows}

    def rate():
        return statistics.median(
            sum(work_of[rec["id"]] for rec in records)
            / sum(normalised(rec, family) for rec in records)
            for records in rounds)

    if family == "audit":
        return {"audit_members_per_s": rate(),
                "audit_certified_share": right}
    if family == "pole":
        return {"pole_p50_ms": statistics.median(times) * 1e3,
                "pole_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3,
                "pole_certified_share": right}
    if family == "newton":
        return {"newton_p50_ms": statistics.median(times) * 1e3,
                "newton_solves_per_s": rate()}
    return {"estimate_msamples_per_s": rate(),
            "estimate_covered_share": right}


def describe(family, rows):
    """One line per family: counts by status, and by class where wrong."""
    st = statuses(rows)
    counts = {s: st.count(s) for s in ("right", "verdict", "wrong", "error")}
    line = f"  {family}: {len(st)} ops, " + ", ".join(f"{k} {v}" for k, v in counts.items())
    wrong = {}
    for op, _, status, _ in rows:
        if status == "wrong":
            wrong[op["cls"]] = wrong.get(op["cls"], 0) + 1
    if wrong:
        line += " (wrong by class: " + ", ".join(f"{k} {v}" for k, v in sorted(wrong.items())) + ")"
    return line


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run.

def layer_metrics(results, numpy_s):
    spans, counters, maxima = {}, {}, {}
    untraced = traced = spans_wall = 0.0
    for res in results:
        for name, row in res["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, value in res["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in res["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)
        for phase in res["phases"]:
            untraced += phase["untraced_s"]
            traced += phase["traced_s"]
            spans_wall += phase["spans_s"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def layer_self(layer):
        return sum(row["self_s"] for name, row in spans.items() if layer_of(name) == layer)

    m = {
        "import.numpy_s": statistics.median(numpy_s),
        "parser.parse_poly.calls": span("parser.parse_poly", "calls"),
        "parser.parse_poly.self_s": span("parser.parse_poly", "self_s"),
        "parser.parse_script.self_s": span("parser.parse_script", "self_s"),
        "algebra.mul.calls": span("algebra.mul", "calls"),
        "algebra.mul.self_s": span("algebra.mul", "self_s"),
        "algebra.substitute.calls": span("algebra.substitute", "calls"),
        "algebra.substitute.self_s": span("algebra.substitute", "self_s"),
        "algebra.max_terms": maxima.get("algebra.max_terms", 0),
        "algebra.max_coeff_bits": maxima.get("algebra.max_coeff_bits", 0),
        "blowup.step.calls": span("blowup.step", "calls"),
        "blowup.step.self_s": span("blowup.step", "self_s"),
        "blowup.identity_check.calls": span("blowup.identity_check", "calls"),
        "blowup.identity_check.s": span("blowup.identity_check", "s"),
        "blowup.jacobian_audit.calls": span("blowup.jacobian_audit", "calls"),
        "blowup.charts": counters.get("blowup.charts", 0),
        "zeta.report.s": span("zeta.report", "s"),
        "newton.dual.s": span("newton.dual", "s"),
        "newton.primal.s": span("newton.primal", "s"),
        "newton.support_size": counters.get("newton.support_terms", 0)
        / max(1, counters.get("newton.solves", 0)),
        "newton.enumerated": counters.get("newton.enumerated", 0),
        "estimator.sample.s": span("estimator.sample", "self_s"),
        "estimator.evaluate.s": span("estimator.evaluate", "self_s"),
        "estimator.sort.s": span("estimator.sort", "self_s"),
        "estimator.fit.s": span("estimator.fit", "self_s"),
        "estimator.term_powers": counters.get("estimator.term_powers", 0),
    }
    for status in ("UnitStrict", "SmoothStrict", "DepthLimit"):
        m[f"blowup.leaves.{status}"] = counters.get(f"blowup.leaves.{status}", 0)
    # shares of the wall time of the traced passes that recorded the spans
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self(layer) / spans_wall
    m["trace.covered_share"] = sum(layer_self(layer) for layer in LAYERS) / spans_wall
    m["trace.overhead_s"] = traced - untraced
    m["trace.overhead_share"] = (traced - untraced) / untraced
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lctkit" / "__init__.py").is_file():
        print("perfbench: run from a checkout of lctkit (no src/lctkit here)",
              file=sys.stderr)
        return 2

    def overtime(signum, frame):
        raise BenchError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, overtime)
    signal.alarm(DEADLINE_S)
    try:
        return bench(root, args)
    except (BenchError, selftest.SelfTestError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)


def measure(root, env, args, family, probes, workers):
    """ROUNDS interleaved rounds. Returns the set-up samples, each phase as
    (family, role, passes, records per round), and the primary worker's
    peak RSS in KiB."""
    primary, prober = workers
    cold_import(root, env)  # fills the bytecode cache; not a sample

    def setup_sample():
        # normalised like every call time, by the loops before and after it
        before = calibration.measure("exact")
        seconds = cold_import(root, env)[0]
        loop = (before + calibration.measure("exact")) / 2
        return seconds * calibration.NOMINAL["exact"] / loop

    setup = []
    executions = {(family, "primary"): [], **{(f, "probe"): [] for f in probes}}
    per_round, index = 1, 0
    for r in range(ROUNDS):
        setup += [setup_sample() for _ in range(SETUP_PER_ROUND)]
        records = []
        start = time.perf_counter()
        for _ in range(per_round):
            records += primary.call(cmd="pass", family=family, role="primary",
                                    seed=args.seed, index=index)["ops"]
            index += 1
            if r == 0:
                # as many whole passes per round as fit in seconds / ROUNDS
                spent = time.perf_counter() - start
                per_round = max(1, round(args.seconds / ROUNDS / spent))
        executions[(family, "primary")].append(records)
        for f in probes:
            executions[(f, "probe")].append(prober.call(
                cmd="pass", family=f, role="probe", seed=args.seed, index=0)["ops"])
    phases = [(f, role, index if role == "primary" else 1, rounds)
              for (f, role), rounds in executions.items()]
    return setup, phases, primary.call(cmd="rss")["peak_rss_kb"]


def measure_traced(root, env, args, family, probes, workers):
    """numpy's import times (-X importtime), then the traced passes of every
    phase (see worker.run_trace)."""
    numpy_s = [cold_import(root, env, importtime=True)[1]
               for _ in range(TRACE_SETUP_RUNS + 1)][1:]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    results = []
    for worker, name, phases in ((workers[0], "primary", [[family, "primary"]]),
                                 (workers[1], "probes", [[f, "probe"] for f in probes])):
        path = out_dir / f"trace-{args.workload}-{args.seed}-{name}.json.gz"
        results.append(worker.call(cmd="trace", phases=phases, seed=args.seed,
                                   path=str(path)))
    phases = []
    for res in results:
        for ph in res["phases"]:
            if ph["changed"]:
                raise BenchError(f"tracing changed {ph['changed']} {ph['family']} outputs")
            phases.append((ph["family"], ph["role"], 1, [ph["ops"]]))
    return numpy_s, phases, results


def bench(root, args) -> int:
    started = time.perf_counter()
    selftest.quick(args.workload, args.seed)
    env = _env(root)
    family = workloads.FAMILY[args.workload]
    probes = [f for f in workloads.FAMILIES if f != family]
    with ExitStack() as stack:
        workers = []
        for _ in range(2):
            workers.append(Worker(root, env))
            stack.callback(workers[-1].close)
        if args.trace:
            numpy_s, phases, traced = measure_traced(root, env, args, family,
                                                     probes, workers)
        else:
            setup, phases, peak_kb = measure(root, env, args, family, probes, workers)

    metrics, violations, lines = {}, [], []
    attempted = errors = 0
    for f, role, passes, rounds in phases:
        # a probe repeats its fixed inputs every round; they must repeat exactly
        if role == "probe" and any(
            list(map(workloads.outcome, r)) != list(map(workloads.outcome, rounds[0]))
            for r in rounds
        ):
            violations.append(f"{f}: probe outputs changed between rounds")
        records = rounds[0] if role == "probe" else [rec for r in rounds for rec in r]
        rows, bad = check_phase(f, role, args.seed, passes, records)
        violations += bad
        st = statuses(rows)
        attempted += len(st)
        errors += st.count("error")
        if not args.trace:
            metrics.update(family_metrics(f, rows, rounds))
        lines.append(describe(f"{f} ({role}, {passes} pass{'' if passes == 1 else 'es'})", rows))
        if role == "primary":
            metrics["ok_share"] = 1 - (st.count("wrong") + st.count("error")) / len(st)

    if args.trace:
        values, units = layer_metrics(traced, numpy_s), PER_LAYER_UNITS
    else:
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = peak_kb / 1024
        values, units = metrics, END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")

    print(f"lctkit benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {time.perf_counter() - started:.1f} s")
    for line in lines:
        print(line)
    for name in units:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    for why in violations[:20]:
        print(f"  violation: {why}")
    print(json.dumps({
        "correct": not violations and errors == 0,
        "attempted": attempted,
        "failed": errors,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
