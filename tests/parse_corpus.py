"""The parse corpora: seeded inputs for `parse_poly` and `parse_script` and
their recorded outcomes.

    PYTHONPATH=<src of the reference tree> python tests/parse_corpus.py [expressions|scripts]

writes tests/golden/parse_corpus.json (the default) or
tests/golden/script_corpus.json from whichever `lctkit` is importable.
The committed expression corpus was written by the parser that built
Polynomials with ring operators (before the term-dict parser), the script
corpus by the script parser that split lines with str.splitlines and took
each directive's span from a second token scan; its texts break lines with
'\n' only, where the two splits agree. test_parser.py checks that the
current parsers reproduce every entry: an error's type, message and span,
or the terms in dict insertion order (for a script, each step's fields).
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import sys
from pathlib import Path

from lctkit import FieldElement, Polynomial, SourceSpan, parse_poly
from lctkit.parser import parse_script
from lctkit.catalogue import MEMBERS
from member_scripts import script_text

ALPHABET = "xyzi0123 +-*/^()\n:=$w"
EDGE_CASES = ["", "  \n  ", "x y", "1/0", "(x+y", "--x^2", "0^0", "(1+i)^5*x"]
# Inputs on which the reference parser raised a bare ValueError (or, for
# "x ²", misread a non-decimal digit as an integer literal).
FIXED_CASES = ["x^²", "²", "x ²"] + [
    "x^" + "1" * 5000,
    "1" * 5000 + "/2*x",
    "x + 1/" + "1" * 5000,
]
PATH = Path(__file__).parent / "golden" / "parse_corpus.json"
SCRIPT_PATH = Path(__file__).parent / "golden" / "script_corpus.json"
# Script edits draw from the commands' letters too, '#' and '²' included,
# and half the time insert, delete or replace whitespace, which keeps more
# scripts valid with their spans moved.
SCRIPT_ALPHABET = "xyzi0124#:=+-*^()abcehlnoprstuw²" + " " * 20 + "\t" * 6 + "\n" * 6
# Two-digit exponents on random sums could take minutes to expand.
_BIG_EXPONENT = re.compile(r"\^\s*\d\d")


def _expression(rng: random.Random, depth: int) -> str:
    """A random expression that the grammar accepts."""
    if not depth or rng.random() < 0.2:
        leaf = rng.randrange(3)
        if leaf == 0:
            return rng.choice("xyzi")
        if leaf == 1:
            num = str(rng.choice([0, 1, 2, 3, 12, 30]))
            return num + (f"/{rng.randint(1, 3)}" if rng.random() < 0.3 else "")
        return f"{rng.choice('xyz')}^{rng.randint(0, 3)}"
    r = rng.random()
    if r < 0.1:
        return "-" + _expression(rng, depth - 1)
    if r < 0.25:
        return f"({_expression(rng, depth - 1)})^{rng.choice([0, 1, 2, 2, 3])}"
    if r < 0.45:
        return f"({_expression(rng, depth - 1)})*({_expression(rng, depth - 1)})"
    op = rng.choice(["+", "-", " + ", " - ", "\n+", "*", " * "])
    return _expression(rng, depth - 1) + op + _expression(rng, depth - 1)


def _mutate(rng: random.Random, text: str, alphabet: str = ALPHABET) -> str:
    """One random character inserted, deleted or replaced."""
    at = rng.randint(0, len(text))
    char = rng.choice(alphabet)
    edit = rng.randrange(3)
    if edit == 0 or not text:
        return text[:at] + char + text[at:]
    at = min(at, len(text) - 1)
    return text[:at] + ("" if edit == 1 else char) + text[at + 1 :]


def inputs(seed: int = 2024, count: int = 2000) -> list[str]:
    """`count` seeded strings over ALPHABET: half are random characters,
    half random expressions of which a third carry one random edit."""
    rng = random.Random(seed)
    out: list[str] = []
    while len(out) < count:
        if len(out) % 2:
            text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 16)))
        else:
            text = _expression(rng, 4)
            if rng.random() < 1 / 3:
                text = _mutate(rng, text)
        if not _BIG_EXPONENT.search(text):
            out.append(text)
    return out


def scripts() -> list[str]:
    """The distinct hand scripts of the 32 catalogue members, in the
    order of the audit table (E7 and E8 share the one-step A1 script)."""
    return list(dict.fromkeys(script_text(family, n) for family, n in MEMBERS))


def script_inputs(seed: int = 2026, edits: int = 40) -> list[str]:
    """Each bundled script, then `edits` seeded copies of it with 1-3
    random characters inserted, deleted or replaced."""
    rng = random.Random(seed)
    out: list[str] = []
    for text in scripts():
        out.append(text)
        for _ in range(edits):
            edited = text
            for _ in range(rng.randint(1, 3)):
                edited = _mutate(rng, edited, SCRIPT_ALPHABET)
            out.append(edited)
    return out


def _error(err: Exception) -> dict:
    span = getattr(err, "span", None)
    return {
        "type": type(err).__name__,
        "message": getattr(err, "message", str(err)),
        "line": span and span.line,
        "column": span and span.column,
        "length": span and span.length,
    }


def _terms(poly: Polynomial) -> list:
    return [
        [list(exps), [str(c) for c in coeff.coeffs]]
        for exps, coeff in poly.terms.items()
    ]


def record(text: str) -> dict:
    """What `parse_poly(text)` does: its error or its terms in order."""
    try:
        poly = parse_poly(text)
    except Exception as err:  # the reference parser also raised ValueError
        return {"text": text, "error": _error(err)}
    return {"text": text, "terms": _terms(poly)}


def _field(value):
    if isinstance(value, SourceSpan):
        return [value.line, value.column, value.length]
    if isinstance(value, Polynomial):
        return _terms(value)
    if isinstance(value, FieldElement):
        return [str(c) for c in value.coeffs]
    return list(value) if isinstance(value, tuple) else value


def record_script(text: str) -> dict:
    """What `parse_script(text)` does: its error, or each step's kind and
    fields in order."""
    try:
        script = parse_script(text)
    except Exception as err:
        return {"text": text, "error": _error(err)}
    steps = [
        {"kind": type(step).__name__}
        | {f.name: _field(getattr(step, f.name)) for f in dataclasses.fields(step)}
        for step in script.steps
    ]
    return {"text": text, "steps": steps}


def main(corpus: str = "expressions") -> None:
    if corpus == "expressions":
        path, entries = PATH, [record(t) for t in EDGE_CASES + FIXED_CASES + inputs()]
    elif corpus == "scripts":
        path, entries = SCRIPT_PATH, [record_script(t) for t in script_inputs()]
    else:
        raise SystemExit(f"unknown corpus {corpus!r}: expressions or scripts")
    path.write_text(render(entries))
    print(f"wrote {len(entries)} entries to {path}")


def render(entries: list[dict]) -> str:
    """The corpus file's text: one JSON entry per line."""
    lines = ",\n".join(json.dumps(e, ensure_ascii=False) for e in entries)
    return f"[\n{lines}\n]\n"


if __name__ == "__main__":
    main(*sys.argv[1:2])
