"""Digest of the CLI's outputs over a fixed corpus: one sha256 per group.

Each run calls `lctkit.cli.main` in-process and records its argv, exit
code, stdout and stderr; the temporary directory that holds the scripts is
masked in every output. Two checkouts that print the same lines give
byte-identical outputs on the whole corpus. Run it from any checkout:

    python3 tools/output_digest.py          # one line per group
    python3 tools/output_digest.py --runs   # one line per run, to find a diff

The groups:
- members: the 32 du Val members, `pole --json` and `resolve --json` at
  depth 12 along the hand scripts of `tests/member_scripts.py`, the same at
  depth 6 without a script, and `newton --json`;
- verify: `verify --all` as text and as JSON;
- pole-auto: `pole --json` on pass 0 of the benchmark's pole workload for
  seeds 1, 2 and 1009 (the inputs are only read);
- fields: `parse`, `pole` and a scripted rewrite under 15 `--field` moduli,
  refused ones included;
- refusals: scripts that the walk refuses, each under `pole` and
  `resolve --json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from lctkit.catalogue import MEMBERS, generator  # noqa: E402
from lctkit.cli import main  # noqa: E402
from lctkit.parser import format_poly  # noqa: E402
from member_scripts import script_text  # noqa: E402
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


def _run(argv: list[str], tmp: str) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = "\0".join([" ".join(argv), str(code), out.getvalue(), err.getvalue()])
    return text.replace(tmp, "<tmp>").encode()


def _corpus(tmp: Path) -> dict[str, list[list[str]]]:
    """The argv lists of every run, by group; scripts go into tmp."""

    def script(name: str, text: str) -> str:
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    members = []
    for family, n in MEMBERS:
        label = f"{family}{n or ''}"
        poly = format_poly(generator(family, n))
        path = script(f"{label}.script", script_text(family, n))
        for command in ("pole", "resolve"):
            members.append([command, poly, "--script", path, "--max-depth", "12", "--json"])
            members.append([command, poly, "--max-depth", "6", "--json"])
        members.append(["newton", poly, "--json"])

    pole_auto = [
        ["pole", op["text"], "--vars", op["vars"], "--max-depth", str(op["depth"]), "--json"]
        for seed in (1, 2, 1009)
        for op in phase_ops("pole", "primary", seed, 0)
    ]

    rewrite = script("rewrite.script", "subst x := (2 + a)*x + a*y\n")
    fields = []
    for field in FIELDS:
        fields.append(["parse", "(x + a)^3 - a*y + 1/3", "--field", field])
        fields.append(["pole", "x^2 + a*y^2 + z^3", "--field", field, "--max-depth", "6"])
        fields.append(
            ["pole", "x^2 + y^3 + z^5", "--field", field, "--script", rewrite, "--max-depth", "4"]
        )

    refusals = []
    for k, (poly, variables, text) in enumerate(REFUSALS):
        path = script(f"refusal{k}.script", text)
        for tail in ([], ["--json"]):
            command = "resolve" if tail else "pole"
            refusals.append([command, poly, "--vars", variables, "--script", path, *tail])

    return {
        "members": members,
        "verify": [["verify", "--all"], ["verify", "--all", "--json"]],
        "pole-auto": pole_auto,
        "fields": fields,
        "refusals": refusals,
    }


def main_digest(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", action="store_true", help="one line per run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for group, runs in _corpus(Path(tmp)).items():
            digest = hashlib.sha256()
            for argv_run in runs:
                run = hashlib.sha256(_run(argv_run, tmp))
                digest.update(run.digest())
                if args.runs:
                    shown = " ".join(argv_run).replace(tmp, "<tmp>")
                    print(f"{run.hexdigest()[:16]}  {group}  {shown}")
            print(f"{digest.hexdigest()}  {group} ({len(runs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
