"""Outside-in tracing of lctkit: spans recorded around its public functions.

`install(tracer)` replaces module and class attributes of lctkit with
wrappers for as long as the traced run lasts, and `Patch.restore()` puts
every original back and proves it did. Nothing under src/ changes, and code
measured without tracing runs the untouched functions.

A span is (name, start, end, parent). Spans stay in memory and are written
once, when the run ends; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from collections import Counter

# (module, attribute path, span name). Every binding of the same function
# object in any lctkit module (re-exports, `from .x import y`) is replaced,
# so calls made through any of them are seen.
TARGETS = (
    ("lctkit.parser", "parse_poly", "parser.parse_poly"),
    ("lctkit.parser", "parse_script", "parser.parse_script"),
    ("lctkit.parser", "format_poly", "parser.format_poly"),
    ("lctkit.algebra", "Polynomial.__mul__", "algebra.mul"),
    ("lctkit.algebra", "Polynomial.substitute", "algebra.substitute"),
    ("lctkit.blowup", "resolve", "blowup.resolve"),
    ("lctkit.blowup", "blowup_origin", "blowup.step"),
    ("lctkit.blowup", "translate", "blowup.step"),
    ("lctkit.blowup", "apply_affine", "blowup.step"),
    ("lctkit.blowup", "_assert_step_identity", "blowup.identity_check"),
    ("lctkit.blowup", "verify_jacobian", "blowup.jacobian_audit"),
    ("lctkit.zeta", "lambda_uncapped", "zeta.report"),
    ("lctkit.newton", "lambda_newton", "newton.oracle"),
    ("lctkit.newton", "_facet_normals", "newton.dual"),
    ("lctkit.newton", "_t0_primal", "newton.primal"),
    ("lctkit.estimator", "estimate", "estimator.fit"),
    ("lctkit.estimator", "hit_counts", "estimator.sort"),
    ("lctkit.estimator", "_abs_values", "estimator.evaluate"),
    ("lctkit.estimator", "_sample_chunk", "estimator.sample"),
    ("lctkit.catalogue", "verify", "catalogue.verify"),
)

LAYERS = ("parser", "algebra", "blowup", "zeta", "newton", "estimator", "catalogue")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                walk = self.open("bench.walk")
                try:
                    after(self, args, result)
                finally:
                    self.close(walk)
            return result

        traced.__wrapped__ = fn
        return traced

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

    def peak(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, -1):
            self.maxima[key] = value

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            name = self.names[i]
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            # Inclusive time counts only the outermost span of a name, so a
            # nested call of the same layer is not counted twice.
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                row["s"] += dur
        return out

    def write(self, path) -> None:
        names = sorted(set(self.names))
        ids = {name: k for k, name in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        payload = {
            "names": names,
            "spans": [
                [ids[self.names[i]], round((self.starts[i] - t0) * 1e9),
                 round((self.ends[i] - t0) * 1e9), self.parents[i]]
                for i in range(len(self.names))
            ],
            "counters": dict(self.counters),
            "maxima": self.maxima,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Counters taken at layer boundaries.


def _poly_size(poly, tracer: Tracer) -> None:
    tracer.peak("algebra.max_terms", len(poly.terms))
    bits = 0
    for coeff in poly.terms.values():
        for c in coeff.coeffs:
            bits = max(bits, c.numerator.bit_length() + c.denominator.bit_length())
    tracer.peak("algebra.max_coeff_bits", bits)


def _after_resolve(tracer: Tracer, args, tree) -> None:
    for node in tree.nodes():
        chart = node.chart
        tracer.bump("blowup.charts")
        if node.is_leaf:
            tracer.bump(f"blowup.leaves.{chart.status.value}")
        _poly_size(chart.strict, tracer)
        if chart.map_from_root is not None:
            for image in chart.map_from_root.values():
                _poly_size(image, tracer)


def _after_newton(tracer: Tracer, args, data) -> None:
    n, d = len(data.support), len(args[0].variables)
    tracer.bump("newton.solves")
    tracer.bump("newton.support_terms", n)
    # Both enumerations visit sum_s C(n, s) * C(d, d - s) candidate systems.
    tracer.bump("newton.enumerated",
                sum(math.comb(n, s) * math.comb(d, d - s) for s in range(1, d + 1)))


def _after_estimate(tracer: Tracer, args, result) -> None:
    f, config = args
    tracer.bump("estimator.term_powers",
                config.samples_per_level * sum(
                    sum(1 for e in exps if e) for exps in f.terms))


AFTER = {
    "blowup.resolve": _after_resolve,
    "newton.oracle": _after_newton,
}


def _estimate_counted(tracer, fn):
    # An unreliable estimate raises, yet it sampled and evaluated everything.
    def counted(f, config):
        _after_estimate(tracer, (f, config), None)
        return fn(f, config)

    counted.__wrapped__ = fn
    return counted


# ---------------------------------------------------------------------------
# Installing and removing the wrappers.


def _lookup(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patch:
    """The attributes replaced by `install`, and their originals."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self.replaced
            if owner.__dict__.get(attr) is not original
        ]
        if stale:
            raise RuntimeError(f"tracer left wrapped attributes behind: {stale}")


def install(tracer: Tracer) -> Patch:
    import lctkit  # noqa: F401  (loads every submodule the targets name)

    originals = {}
    for module_name, path, span in TARGETS:
        owner, attr = _lookup(module_name, path)
        fn = owner.__dict__[attr]
        wrapped = tracer.wrap(span, fn, AFTER.get(span))
        if span == "estimator.fit":
            wrapped = _estimate_counted(tracer, wrapped)
        originals[id(fn)] = (fn, wrapped)
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "lctkit" or name.startswith("lctkit.")]
    owners.append(sys.modules["lctkit.algebra"].Polynomial)
    patch = Patch()
    try:
        for owner in owners:
            for attr, value in list(owner.__dict__.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    patch.replaced.append((owner, attr, value))
    except BaseException:
        patch.restore()
        raise
    return patch


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
