"""The parse corpus: seeded inputs for `parse_poly` and their recorded outcomes.

    PYTHONPATH=<src of the reference tree> python tests/parse_corpus.py

writes tests/golden/parse_corpus.json from whichever `lctkit` is importable.
The committed file was written by the parser that built Polynomials with
ring operators (before the term-dict parser), and test_parser.py checks that
the current parser reproduces every entry: an error's type, message and
span, or the terms in dict insertion order.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from lctkit import parse_poly

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


def _mutate(rng: random.Random, text: str) -> str:
    """One random character inserted, deleted or replaced."""
    at = rng.randint(0, len(text))
    char = rng.choice(ALPHABET)
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


def record(text: str) -> dict:
    """What `parse_poly(text)` does: its error or its terms in order."""
    try:
        poly = parse_poly(text)
    except Exception as err:  # the reference parser also raised ValueError
        span = getattr(err, "span", None)
        return {
            "text": text,
            "error": {
                "type": type(err).__name__,
                "message": getattr(err, "message", str(err)),
                "line": span and span.line,
                "column": span and span.column,
                "length": span and span.length,
            },
        }
    terms = [
        [list(exps), [str(c) for c in coeff.coeffs]]
        for exps, coeff in poly.terms.items()
    ]
    return {"text": text, "terms": terms}


def main() -> None:
    texts = EDGE_CASES + FIXED_CASES + inputs()
    entries = [record(text) for text in texts]
    lines = ",\n".join(json.dumps(e, ensure_ascii=False) for e in entries)
    PATH.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {len(entries)} entries to {PATH}")


if __name__ == "__main__":
    main()
