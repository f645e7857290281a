"""Digest of the outputs of CLI runs and script replays: one sha256 per group.

Each CLI run calls `lctkit.cli.main` in-process and records its argv, exit
code, stdout and stderr. Each replay run resolves a polynomial along a
script with `tests/member_scripts.replay` and records the pole JSON and the
tree JSON of `lctkit.serialize`, or the type, span and message of the error
it raises. Two checkouts that print the same lines give byte-identical
outputs on the whole corpus. Run it from any checkout:

    python3 tools/output_digest.py          # one line per group
    python3 tools/output_digest.py --runs   # one line per run, to find a diff

The groups:
- members: the 32 du Val members, replayed at depth 12 along the hand
  scripts of `tests/member_scripts.py` (the replay reads past an `orbit`
  line, so each divisor is listed once), `pole --json` and `resolve --json`
  at depth 6, and `newton --json`;
- verify: `verify --all` as text and as JSON;
- pole-auto: `pole --json` on pass 0 of the benchmark's pole workload for
  seeds 1, 2 and 1009 (the inputs are only read);
- fields: `parse`, `pole` and the replay of a rewrite under 15 `--field`
  moduli, refused ones included;
- refusals: scripts that the walk refuses, replayed;
- newton-grid: `parse --json` and `newton --json` on pass 0 of the
  benchmark's newton workload for seeds 1, 2 and 1009 (the inputs are only
  read).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from lctkit import LctkitError, lambda_newton, lambda_uncapped  # noqa: E402
from lctkit.catalogue import MEMBERS, generator  # noqa: E402
from lctkit.cli import _parse_field, main  # noqa: E402
from lctkit.parser import format_poly, parse_poly, parse_script  # noqa: E402
from lctkit.serialize import dump_json, pole_json, tree_json  # noqa: E402
from member_scripts import replay, script_text  # noqa: E402
from perfbench.workloads import phase_ops  # noqa: E402

# Generator name and minimal polynomial in t. The first eight are refused:
# reducible, not squarefree, of degree 4, or zero.
FIELDS = (
    "a:t^2-1",
    "a:(t+1/2)^3",
    "a:t^3-t",
    "a:(t-1)^2*(t+2)",
    "a:t^2-1000000000000000000",
    "a:t^3-1000003000003000001",
    "a:t^4+3*t^2+2",
    "a:0",
    "a:t-1/2",
    "a:t^2+1",
    "a:t^2+t+1",
    "a:t^2-2/9",
    "a:t^3-2",
    "a:t^3-t-1",
    "a:t^3+1000000000000000003",
)

# (polynomial, variables, script): each one is refused at some step.
REFUSALS = (
    ("(x - y^2)^2", "x,y", "blowup x y\nchart y\nsubst x := x - y\ntranslate x := x + 1\n"),
    ("x^2+y^2+z^3", "x,y,z", "blowup x y z\nchart z\ntranslate z := z + 1\ntranslate z := z - 1\n"),
    ("(x+y)^2", "x,y", "subst x := x + y\n"),
    ("x^2+y^2+z^3", "x,y,z", "blowup x y z\nchart z\ntranslate z := z + 0\n"),
    ("x^2+y^2+z^3", "x,y,z", "blowup x y z\nchart z\nsubst z := z + x\n"),
    ("x^2+y^2+z^3", "x,y,z", "subst x := y\n"),
    ("x^2+y^2+z^3", "x,y,z", "subst x := x + 1\n"),
    ("x^2+y^2+z^3", "x,y,z", "subst x := x + y^2 + x*y\n"),
    ("x^2+y^2+z^3", "x,y,z", "subst x := x + x*y\n"),
    ("x^2+y^2+z^2", "x,y,z", "blowup x y z\nchart z\nblowup x y z\n"),
    ("x^2+y^2+z^3", "x,y,z", "blowup x y\nchart x\n"),
    ("x^2+y^2+z^3", "x,y,z", "blowup x q\n"),
)


Run = tuple[str, list[str]]  # its label and its outputs


def _cli(*argv: str) -> Run:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return " ".join(argv), [str(code), out.getvalue(), err.getvalue()]


def _replay(poly: str, script: str, depth: int, names="x,y,z", field="i:t^2+1") -> Run:
    label = f"replay {poly} --vars {names} --field {field} --max-depth {depth} {script!r}"
    variables = tuple(names.split(","))
    try:
        ring = _parse_field(field)
        f = parse_poly(poly, ring, variables)
        tree = replay(f, parse_script(script, ring, variables), depth)
        report = lambda_uncapped(tree, lambda_newton(f))
    except LctkitError as err:
        span = getattr(err, "span", None)
        where = f" at line {span.line} col {span.column}" if span else ""
        return label, [f"{type(err).__name__}{where}: {err}"]
    return label, [dump_json(pole_json(tree, report)), dump_json(tree_json(tree, depth))]


def _corpus() -> dict[str, list[Run]]:
    """The runs of every group."""
    members = []
    for family, n in MEMBERS:
        poly = format_poly(generator(family, n))
        members.append(_replay(poly, script_text(family, n), 12))
        for command in ("pole", "resolve"):
            members.append(_cli(command, poly, "--max-depth", "6", "--json"))
        members.append(_cli("newton", poly, "--json"))

    pole_auto = [
        _cli("pole", op["text"], "--vars", op["vars"], "--max-depth", str(op["depth"]), "--json")
        for seed in (1, 2, 1009)
        for op in phase_ops("pole", "primary", seed, 0)
    ]

    newton_grid = [
        _cli(command, op["text"], "--vars", op["vars"], "--json")
        for seed in (1, 2, 1009)
        for op in phase_ops("newton", "primary", seed, 0)
        for command in ("parse", "newton")
    ]

    fields = []
    for field in FIELDS:
        fields.append(_cli("parse", "(x + a)^3 - a*y + 1/3", "--field", field))
        fields.append(_cli("pole", "x^2 + a*y^2 + z^3", "--field", field, "--max-depth", "6"))
        fields.append(
            _replay("x^2 + y^3 + z^5", "subst x := (2 + a)*x + a*y\n", 4, field=field)
        )

    return {
        "members": members,
        "verify": [_cli("verify", "--all"), _cli("verify", "--all", "--json")],
        "pole-auto": pole_auto,
        "fields": fields,
        "refusals": [_replay(poly, text, 24, names) for poly, names, text in REFUSALS],
        "newton-grid": newton_grid,
    }


def main_digest(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", action="store_true", help="one line per run")
    args = parser.parse_args(argv)
    for group, runs in _corpus().items():
        digest = hashlib.sha256()
        for label, outputs in runs:
            run = hashlib.sha256("\0".join([label, *outputs]).encode())
            digest.update(run.digest())
            if args.runs:
                print(f"{run.hexdigest()[:16]}  {group}  {label}")
        print(f"{digest.hexdigest()}  {group} ({len(runs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
