"""Self-tests of the benchmark's own rules.

`quick(workload, seed)` runs at the start of every benchmark run and costs
milliseconds: the failure rule on hand-made outcomes, the reference tables
against their closed forms, the scipy reference on known supports, and the
seeding (same seed, same bytes; another seed, other inputs). Run this file
from a checkout's root to also check that the tracer wraps lctkit and puts
every attribute back:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads  # noqa: E402


class SelfTestError(Exception):
    pass


def _expect(cond, what):
    if not cond:
        raise SelfTestError(f"self-test failed: {what}")


def _pole(ref="4/3", gated=True):
    return {"id": "t", "ref": ref, "gated": gated, "cls": "bp"}


def failure_rule() -> None:
    out = {"lam": "3/2", "certified": True, "depth_limited": False}
    status, why = check.classify_pole(_pole(), out)
    _expect(status == "wrong" and why, "a certified wrong value on a gated input is flagged")
    status, why = check.classify_pole(_pole(gated=False), out)
    _expect(status == "wrong" and why is None,
            "a certified wrong value on a disguised input fails without a violation")
    out = {"lam": "3/2", "certified": False, "depth_limited": False}
    _expect(check.classify_pole(_pole(), out) == ("verdict", None),
            "an uncertified result is not flagged")
    out = {"lam": "41/40", "certified": False, "depth_limited": True}
    _expect(check.classify_pole(_pole(ref="1"), out) == ("verdict", None),
            "a depth-limited result is not flagged")
    out = {"lam": "4/3", "certified": True, "depth_limited": False}
    _expect(check.classify_pole(_pole(), out) == ("right", None),
            "a certified right value counts as right")
    out = {"lam": "1/3", "certified": False, "depth_limited": False}
    _expect(check.classify_pole(_pole(), out)[0] == "wrong",
            "a value below the log canonical threshold is flagged")
    _expect(check.classify_pole(_pole(), {"error": "ChartError: x"})[0] == "error",
            "a raise is a failure")

    est = {"id": "e", "ref": "1", "mode": "complex"}
    _expect(check.classify_estimate(est, {"unreliable": True}) == ("verdict", None),
            "exit 4 is a verdict, not a failure")
    miss = {"unreliable": False, "lambda_hat": 0.9085, "stderr": 0.0053}
    _expect(check.classify_estimate(est, miss) == ("verdict", None),
            "a missed interval is a verdict")
    hit = {"unreliable": False, "lambda_hat": 0.99, "stderr": 0.01}
    _expect(check.classify_estimate(est, hit)[0] == "right", "a covering interval is right")

    member = {"label": "A2", "newton": "4/3", "engine": "3/2",
              "certified": False, "depth_limited": False}
    _expect(check.classify_member(member) == ("verdict", None),
            "an uncertified audit engine value is not flagged")
    _expect(check.classify_member({**member, "certified": True})[0] == "wrong",
            "a certified wrong audit value is flagged")
    _expect(check.classify_member({**member, "newton": "3/2"})[0] == "wrong",
            "a wrong audit Newton value is flagged")

    op = {"id": "n"}
    _expect(check.classify_newton(op, {"lam": "41/42"}, 41 / 42)[0] == "right",
            "a Newton value equal to the LP passes")
    _expect(check.classify_newton(op, {"lam": "1"}, 41 / 42)[0] == "wrong",
            "a Newton value off the LP is flagged")


def reference_tables() -> None:
    for n in range(1, 21):
        _expect(Fraction(workloads.DU_VAL[f"A{n}"]) == Fraction(n + 2, n + 1), f"A{n}")
    for n in range(4, 13):
        _expect(Fraction(workloads.DU_VAL[f"D{n}"]) == Fraction(2 * n - 1, 2 * n - 2), f"D{n}")
    for label, weights in (("E6", (2, 3, 4)), ("E8", (2, 3, 5))):
        _expect(Fraction(workloads.DU_VAL[label]) == sum(Fraction(1, a) for a in weights), label)
    _expect(Fraction(workloads.DU_VAL["E7"]) == Fraction(1, 2) + Fraction(1, 3) + Fraction(2, 9),
            "E7")
    for exps, ref in workloads.BRIESKORN_PHAM:
        _expect(Fraction(ref) == sum(Fraction(1, a) for a in exps), f"sum 1/a_i for {exps}")
    _expect(abs(check.lp_lambda([[2, 0, 0], [0, 3, 0], [0, 0, 7]]) - 41 / 42) < 1e-12,
            "scipy LP on x^2+y^3+z^7")
    _expect(abs(check.lp_lambda([[2, 0, 0], [0, 2, 2]]) - 1) < 1e-12,
            "scipy LP on x^2+y^2*z^2")


def seeding(workload: str, seed: int) -> None:
    first = workloads.fingerprint(workload, seed)
    _expect(first == workloads.fingerprint(workload, seed),
            f"{workload}: seed {seed} gives identical inputs")
    if workload != "audit":  # the catalogue fixes the audit's inputs
        _expect(first != workloads.fingerprint(workload, seed + 1),
                f"{workload}: another seed gives other inputs")


def quick(workload: str, seed: int) -> None:
    failure_rule()
    reference_tables()
    seeding(workload, seed)


def wrappers_restored() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import lctkit
    from lctkit import algebra, blowup, catalogue
    from tracer import Tracer, install

    before = {
        "mul": algebra.Polynomial.__dict__["__mul__"],
        "rmul": algebra.Polynomial.__dict__["__rmul__"],
        "resolve": blowup.resolve,
        "catalogue.resolve": catalogue.resolve,
        "lctkit.parse_poly": lctkit.parse_poly,
    }
    tracer = Tracer()
    patch = install(tracer)
    try:
        _expect(algebra.Polynomial.__dict__["__mul__"] is not before["mul"], "mul wrapped")
        _expect(catalogue.resolve is not before["catalogue.resolve"],
                "re-exported bindings are wrapped too")
        f = lctkit.parse_poly("x^2+y^2+z^2")
        lctkit.resolve(f, lctkit.Auto(4))
    finally:
        patch.restore()
    after = {
        "mul": algebra.Polynomial.__dict__["__mul__"],
        "rmul": algebra.Polynomial.__dict__["__rmul__"],
        "resolve": blowup.resolve,
        "catalogue.resolve": catalogue.resolve,
        "lctkit.parse_poly": lctkit.parse_poly,
    }
    _expect(all(after[k] is before[k] for k in before), "every wrapped attribute restored")
    names = tracer.summary()
    _expect({"parser.parse_poly", "blowup.resolve", "blowup.step", "algebra.mul"} <= set(names),
            "spans recorded while installed")
    _expect(tracer.counters["blowup.charts"] == 4, "tree walked after resolve")


def main() -> int:
    try:
        for workload in workloads.WORKLOADS:
            quick(workload, 1)
        wrappers_restored()
    except SelfTestError as err:
        print(err, file=sys.stderr)
        return 1
    print("perfbench self-test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
