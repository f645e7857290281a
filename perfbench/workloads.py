"""Seeded inputs and hand-written references for the four workloads.

Pure standard library: the benchmark process and its workers both import
this module, and neither lctkit nor scipy may be loaded through it. Every
generator is a function of (seed, pass index) only, so the same seed gives
byte-identical inputs in every process. lctkit sees only the polynomial text
(and, for `estimate`, the mode and sampler seed); the reference values stay
on the benchmark's side.

An input is a dict. Keys read by the worker: `text` and `vars`; `depth`
(pole, audit); `mode`, `samples` and `sampler_seed` (estimate); `verify`
(audit: the members to verify). Keys read only by the checker: `ref` (exact
reference value as "p/q"), `gated` (whether a certified value must equal
`ref` for the run to count as correct; see check.py), `members`, `support`,
`cls` (input class) and `template` (the template a pole input came from).
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("audit", "pole-auto", "newton-grid", "estimate")

# Which family of end-to-end metrics each workload measures in bulk. The
# other three families are measured on the fixed probes below, so that every
# run reports every end-to-end metric.
FAMILY = {
    "audit": "audit",
    "pole-auto": "pole",
    "newton-grid": "newton",
    "estimate": "estimate",
}
FAMILIES = ("audit", "pole", "newton", "estimate")

# Probes are seed-independent: they exist to report a family's metrics on a
# workload that does not exercise it, and a fixed input keeps those figures
# steady from seed to seed.
PROBE_SEED = 0

AUDIT_DEPTH = 12
POLE_DEPTH = 5
ESTIMATE_SAMPLES = 1_000_000

# ---------------------------------------------------------------------------
# Hand-written references.

# du Val members: the minimal pole index of the quasihomogeneous generator,
# i.e. the sum of its Euler weights. A_n: x^2+y^2+z^(n+1) -> (n+2)/(n+1);
# D_n: x^2+y^2*z+z^(n-1) -> (2n-1)/(2n-2); E6 x^2+y^3+z^4 -> 13/12;
# E7 x^2+y^3+y*z^3 -> 19/18; E8 x^2+y^3+z^5 -> 31/30.
DU_VAL = {
    "A1": "3/2", "A2": "4/3", "A3": "5/4", "A4": "6/5", "A5": "7/6",
    "A6": "8/7", "A7": "9/8", "A8": "10/9", "A9": "11/10", "A10": "12/11",
    "A11": "13/12", "A12": "14/13", "A13": "15/14", "A14": "16/15",
    "A15": "17/16", "A16": "18/17", "A17": "19/18", "A18": "20/19",
    "A19": "21/20", "A20": "22/21",
    "D4": "7/6", "D5": "9/8", "D6": "11/10", "D7": "13/12", "D8": "15/14",
    "D9": "17/16", "D10": "19/18", "D11": "21/20", "D12": "23/22",
    "E6": "13/12", "E7": "19/18", "E8": "31/30",
}

# Brieskorn-Pham exponents (a, b, c) of x^a + y^b + z^c and the sum of
# 1/a_i, which no linear change of coordinates alters.
BRIESKORN_PHAM = (
    ((2, 2, 2), "3/2"),
    ((2, 2, 3), "4/3"),
    ((2, 2, 4), "5/4"),
    ((2, 2, 5), "6/5"),
    ((2, 2, 6), "7/6"),
    ((2, 3, 3), "7/6"),
    ((2, 3, 4), "13/12"),
    ((2, 3, 5), "31/30"),
    ((3, 3, 3), "1"),
)

# Non-isolated inputs whose automatic tree doubles per depth level; the
# value is that of the Newton polyhedron, which these nondegenerate inputs
# attain (it is also their log canonical threshold).
TREE_DOUBLING = (
    ("{a}^2+{b}^2*{c}^2", "1"),
    ("{a}^2+{b}^2*{c}^3", "5/6"),
)

# The square of a linear form: non-reduced, value 1/2 whatever the form.
SQUARE_REF = "1/2"

# Estimator inputs: template over slots a, b, c; mode; the capped value the
# volume scaling measures in that mode. Complex mode sees min(1, lct). Real
# mode sees the real threshold: the sum of 1/a_i when the real zero set is
# only a linear subspace (all exponents even), min(1, .) otherwise.
ESTIMATE_TEMPLATES = (
    ("{a}^2+{b}^2+{c}^2", "complex", "1"),
    ("{c}^2", "complex", "1/2"),
    ("{c}^3", "complex", "1/3"),
    ("{a}^2+{b}^3", "complex", "5/6"),
    ("{a}^2+{b}^4", "complex", "3/4"),
    ("{a}^2+{b}^3+{c}^5", "real", "1"),
    ("{a}^2+{b}^2", "real", "1"),
    ("{a}^4+{b}^4", "real", "1/2"),
    ("{a}^2+{b}^2+{c}^3", "real", "1"),
    ("{a}^2", "real", "1/2"),
    ("{a}^2+{b}^2+{c}^2", "real", "3/2"),
    ("{a}*{b}*{c}", "real", "1"),
)

# Probes: small fixed inputs, run once per round. Each is sized at about half
# a second, and its counts put the median (and the pole p90) well inside one
# group of similar inputs rather than on the edge between two.
ESTIMATE_PROBE_SAMPLES = 500_000
ESTIMATE_PROBE = (
    ("x^2+y^2+z^2", "complex", "1", 11),
    ("z^2", "complex", "1/2", 12),
    ("x^2+y^3+z^5", "real", "1", 13),
    ("x^2+y^2", "real", "1", 14),
)
AUDIT_MEMBERS = (tuple(("A", n) for n in range(1, 21))
                 + tuple(("D", n) for n in range(4, 13))
                 + (("E6", None), ("E7", None), ("E8", None)))
AUDIT_PROBE = tuple(("A", n) for n in range(1, 13)) + (
    ("D", 4), ("D", 5), ("D", 6), ("E6", None))
POLE_PROBE = (((2, 2, 3), 9), ((2, 2, 4), 12), ((2, 2, 6), 9))

# ((variables, terms), count) per newton-grid pass. The (3, 8) cell holds the
# middle of the count, so the median lands inside it; the few large supports,
# where the two brute-force enumerations climb, dominate the time.
NEWTON_CELLS = (
    ((3, 4), 2), ((3, 6), 3), ((3, 8), 5), ((4, 6), 1), ((4, 8), 1),
    ((5, 6), 1), ((4, 10), 1),
)
NEWTON_PROBE_CELLS = (((3, 4), 3), ((3, 6), 11), ((3, 8), 3))
NEWTON_VARS = ("x", "y", "z", "u", "v")
NEWTON_MAX_DEGREE = 6

XYZ = ("x", "y", "z")


def _rng(*parts) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random("/".join(str(p) for p in parts))


def _scaled(coef: int, base: str, exp: int) -> str:
    power = base if exp == 1 else f"{base}^{exp}"
    return power if coef == 1 else f"{coef}*{power}"


# ---------------------------------------------------------------------------
# pole-auto


def _pole_record(ident, cls, template, text, ref, gated):
    return {
        "id": ident,
        "text": text,
        "vars": "x,y,z",
        "depth": POLE_DEPTH,
        "cls": cls,
        "template": template,
        "ref": ref,
        "gated": gated,
    }


def _bp_text(rng, exps, shear=None) -> str:
    """c1*X^a + c2*Y^b + c3*Z^c over a random relabelling of x, y, z.

    With `shear` = (i, j) slot i's coordinate becomes (v_i + m*v_j), a
    unimodular change. Coefficients and the multiplier are positive, so no
    expanded term cancels and every seed sees the same support shape.
    """
    names = rng.sample(XYZ, 3)
    bases = list(names)
    if shear is not None:
        i, j = shear
        m = rng.choice((1, 2, 3))
        bases[i] = f"({names[i]}+{_scaled(m, names[j], 1)})"
    coefs = [rng.choice((1, 2, 3)) for _ in exps]
    return "+".join(_scaled(c, b, e) for c, b, e in zip(coefs, bases, exps))


def _square_text(rng) -> str:
    coefs = [rng.choice((1, 2, 3)) * rng.choice((1, -1)) for _ in XYZ]
    text = ""
    for c, v in zip(coefs, XYZ):
        text += ("-" if c < 0 else "+") + _scaled(abs(c), v, 1)
    return f"({text.lstrip('+')})^2"


def _tree_text(rng, template) -> str:
    a, b, c = rng.sample(XYZ, 3)
    body = template.format(a=a, b=b, c=c)
    first, rest = body.split("+", 1)
    return f"{_scaled(rng.choice((1, 2, 3)), first, 1)}+{rest}"


# Slot i's coordinate becomes v_i + m*v_j for each (i, j); with exponents
# sorted a <= b <= c the cycle covers a low slot sheared by a higher one,
# (1, 2) as in x^2+(y-z)^2+z^3, and a high slot sheared by the lowest.
SHEARS = ((0, 1), (1, 2), (2, 0))


def pole_pass(seed: int, index: int) -> list[dict]:
    """One pass of the pole-auto corpus: every Brieskorn-Pham template plain
    and under each shear of SHEARS, both tree-doubling inputs and two
    squared linear forms, in seeded order with seeded labels, coefficients
    and shear multipliers."""
    rng = _rng("pole-auto", seed, index)
    out = []
    for exps, ref in BRIESKORN_PHAM:
        name = ",".join(map(str, exps))
        out.append(("bp", name, _bp_text(rng, exps), ref, True))
        for shear in SHEARS:
            out.append(("disguised", name, _bp_text(rng, exps, shear), ref, False))
    for template, ref in TREE_DOUBLING:
        out.append(("tree", template, _tree_text(rng, template), ref, True))
    for _ in range(2):
        out.append(("square", "(ax+by+cz)^2", _square_text(rng), SQUARE_REF, False))
    rng.shuffle(out)
    return [
        _pole_record(f"pole/{seed}/{index}/{k}", *row) for k, row in enumerate(out)
    ]


def pole_probe() -> list[dict]:
    """Cheap plain inputs of three templates (no disguise, no tree
    doubling); the middle one holds the median, the last the p90."""
    rng = _rng("pole-probe", PROBE_SEED)
    refs = dict(BRIESKORN_PHAM)
    out = []
    for exps, count in POLE_PROBE:
        for _ in range(count):
            out.append(("bp", ",".join(map(str, exps)), _bp_text(rng, exps),
                        refs[exps], True))
    return [_pole_record(f"pole-probe/{k}", *row) for k, row in enumerate(out)]


# ---------------------------------------------------------------------------
# newton-grid


def _support(rng, dims: int, terms: int) -> list[tuple[int, ...]]:
    """A support touching every axis (one pure power per variable) plus
    random mixed monomials of total degree 2..NEWTON_MAX_DEGREE."""
    pts = set()
    for i in range(dims):
        e = [0] * dims
        e[i] = rng.randint(2, NEWTON_MAX_DEGREE)
        pts.add(tuple(e))
    while len(pts) < terms:
        e = tuple(rng.randint(0, NEWTON_MAX_DEGREE - 1) for _ in range(dims))
        if 2 <= sum(e) <= NEWTON_MAX_DEGREE:
            pts.add(e)
    return sorted(pts)


def _newton_ops(rng, cells, prefix) -> list[dict]:
    out = []
    for (dims, terms), count in cells:
        for _ in range(count):
            pts = _support(rng, dims, terms)
            names = NEWTON_VARS[:dims]
            monos = []
            for p in pts:
                factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, p) if e]
                monos.append(_scaled(rng.choice((1, 2, 3)), "*".join(factors), 1))
            out.append({
                "text": "+".join(monos),
                "vars": ",".join(names),
                "cls": f"{dims}v{terms}t",
                "support": [list(p) for p in pts],
            })
    rng.shuffle(out)
    for k, op in enumerate(out):
        op["id"] = f"{prefix}/{k}"
    return out


def newton_pass(seed: int, index: int) -> list[dict]:
    return _newton_ops(_rng("newton-grid", seed, index), NEWTON_CELLS,
                       f"newton/{seed}/{index}")


def newton_probe() -> list[dict]:
    return _newton_ops(_rng("newton-probe", PROBE_SEED), NEWTON_PROBE_CELLS,
                       "newton-probe")


# ---------------------------------------------------------------------------
# estimate


def _estimate_record(ident, text, mode, ref, sampler_seed, samples=ESTIMATE_SAMPLES):
    return {
        "id": ident,
        "text": text,
        "vars": "x,y,z",
        "mode": mode,
        "sampler_seed": sampler_seed,
        "samples": samples,
        "cls": mode,
        "ref": ref,
    }


def estimate_pass(seed: int, index: int) -> list[dict]:
    """Every estimator template once, with seeded variable labels, seeded
    sampler seeds and, in complex mode only, seeded unit coefficients
    (+-1, +-i: a rotation of one coordinate disk, which leaves the volume
    law unchanged). Real mode keeps + signs, which shape the real zero set."""
    rng = _rng("estimate", seed, index)
    out = []
    for template, mode, ref in ESTIMATE_TEMPLATES:
        a, b, c = rng.sample(XYZ, 3)
        text = template.format(a=a, b=b, c=c)
        if mode == "complex":
            terms = text.split("+")
            text = "".join(
                ("" if k == 0 else "+") + rng.choice(("", "i*", "-", "-i*")) + t
                for k, t in enumerate(terms)
            )
        out.append((text, mode, ref, rng.randrange(2**32)))
    rng.shuffle(out)
    return [
        _estimate_record(f"estimate/{seed}/{index}/{k}", *row)
        for k, row in enumerate(out)
    ]


def estimate_probe() -> list[dict]:
    return [
        _estimate_record(f"estimate-probe/{k}", *row, samples=ESTIMATE_PROBE_SAMPLES)
        for k, row in enumerate(ESTIMATE_PROBE)
    ]


# ---------------------------------------------------------------------------
# audit


def _member_ops(members, prefix) -> list[dict]:
    out = []
    for family, n in members:
        label = f"{family}{'' if n is None else n}"
        out.append({"id": f"{prefix}/{label}", "depth": AUDIT_DEPTH, "cls": "verify",
                    "verify": [[family, n]], "members": [label]})
    return out


def audit_pass(seed: int, index: int) -> list[dict]:
    """The 32 catalogue members in verify_all's order, one verify call each
    (verify_all is exactly this loop), so every member is timed on its own.
    The catalogue fixes them; the seed cannot vary them."""
    return _member_ops(AUDIT_MEMBERS, f"audit/{index}")


def audit_probe() -> list[dict]:
    """The sixteen cheapest members."""
    return _member_ops(AUDIT_PROBE, "audit-probe")


PASS = {
    "audit": audit_pass,
    "pole": pole_pass,
    "newton": newton_pass,
    "estimate": estimate_pass,
}
PROBE = {
    "audit": audit_probe,
    "pole": pole_probe,
    "newton": newton_probe,
    "estimate": estimate_probe,
}


def phase_ops(family: str, role: str, seed: int, index: int) -> list[dict]:
    """The ops of one pass: `role` is "primary" (seeded, one pass per index)
    or "probe" (fixed, one pass)."""
    if role == "probe":
        return PROBE[family]()
    return PASS[family](seed, index)


def outcome(record: dict) -> dict:
    """A worker's record without its timings."""
    return {k: v for k, v in record.items() if k not in ("seconds", "loop_s")}


def fingerprint(workload: str, seed: int, passes: int = 2) -> bytes:
    """Canonical bytes of a workload's first passes, for the seed checks."""
    family = FAMILY[workload]
    ops = [phase_ops(family, "primary", seed, k) for k in range(passes)]
    return json.dumps(ops, sort_keys=True).encode()

