"""Checking outputs against the references: the failure rule and the
independent Newton reference.

Every op gets one status:

- "right":   a verdict at the reference value (certified at it, a Newton
             value equal to it, an estimate whose lambda_hat +- 2*stderr
             covers it);
- "verdict": an honest non-answer: uncertified, depth-limited (exit 2), an
             unreliable estimate (exit 4), an estimate that misses;
- "wrong":   a certified pole value, an audit engine or Newton value, or a
             Newton lambda that differs from the reference;
- "error":   the call raised anything but the exit-4 verdict.

"wrong" and "error" are failures; the share of ops that are neither is the
end-to-end metric `ok_share`, one minus the failed share.

Separately, `violations` lists outputs that break a guarantee the program
makes today; any violation makes the run incorrect. They are: an error; a
wrong certificate on a gated input (one given in coordinates where it is
nondegenerate, see workloads.py); any wrong audit or Newton value; a
resolution value below the log canonical threshold (no divisor can beat
it); a non-finite estimate. A wrong certificate on a disguised input or a
squared linear form is the known soundness gap of the certificate: it
counts as a failure in `ok_share`, but it is not a violation, so the
benchmark runs on today's program and a fix shows up as a gain.
"""

from __future__ import annotations

from fractions import Fraction

import workloads

# Newton lambda vs the float LP optimum of the same support.
LP_TOLERANCE = 1e-9


def _frac(text):
    return None if text is None else Fraction(text)


def classify_pole(op, out):
    """(status, violation or None) for one pole verdict."""
    if "error" in out:
        return "error", f"{op['id']}: raised {out['error']}"
    ref = Fraction(op["ref"])
    lam = _frac(out["lam"])
    if lam is not None and lam < min(Fraction(1), ref):
        return "wrong", f"{op['id']}: value {lam} below the threshold {min(1, ref)}"
    if not out["certified"]:
        return "verdict", None
    if lam == ref:
        return "right", None
    if op["gated"]:
        return "wrong", f"{op['id']}: certified {lam}, reference {ref}"
    return "wrong", None


def classify_member(member):
    """(status, violation or None) for one audit row."""
    ref = Fraction(workloads.DU_VAL[member["label"]])
    label = member["label"]
    if _frac(member["newton"]) != ref:
        return "wrong", f"{label}: Newton {member['newton']}, reference {ref}"
    if not member["certified"]:
        return "verdict", None
    if _frac(member["engine"]) != ref:
        return "wrong", f"{label}: certified {member['engine']}, reference {ref}"
    return "right", None


def classify_newton(op, out, lp_value):
    if "error" in out:
        return "error", f"{op['id']}: raised {out['error']}"
    lam = Fraction(out["lam"])
    if abs(float(lam) - lp_value) > LP_TOLERANCE * max(1.0, abs(lp_value)):
        return "wrong", f"{op['id']}: Newton {lam} vs LP {lp_value!r}"
    return "right", None


def classify_estimate(op, out):
    if "error" in out:
        return "error", f"{op['id']}: raised {out['error']}"
    if out["unreliable"]:
        return "verdict", None
    lam, err = out["lambda_hat"], out["stderr"]
    if lam is None or err is None:
        return "verdict", f"{op['id']}: non-finite estimate"
    if abs(lam - float(Fraction(op["ref"]))) <= 2 * err:
        return "right", None
    return "verdict", None


def lp_lambda(support) -> float:
    """1/t0 of min t s.t. sum_j l_j a_j <= t*1, sum_j l_j = 1, l >= 0,
    solved in floating point by scipy's HiGHS; independent of lctkit."""
    from scipy.optimize import linprog

    n, d = len(support), len(support[0])
    cost = [0.0] * n + [1.0]
    a_ub = [[float(support[j][c]) for j in range(n)] + [-1.0] for c in range(d)]
    a_eq = [[1.0] * n + [0.0]]
    res = linprog(cost, A_ub=a_ub, b_ub=[0.0] * d, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (n + 1), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return 1.0 / res.fun
