"""Spans around the public functions of each reeslab layer.

`Tracer.install()` wraps every public function a layer module defines,
plus `Ideal.groebner`, and rebinds each alias of it in every loaded
`reeslab` module, so that a caller who imported the function by name
goes through the wrapper too.  A span records its name, start, end and
parent span; spans stay in memory until `summary()` folds them into the
per-layer metrics.  `count_field_ops()` is the separate count-only pass
for the field arithmetic, which is called too often to time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "groebner",
    "lengths",
    "asymptotics",
    "reduction",
    "multiplicity",
    "filtrations",
    "session",
    "runner",
)

# a function's work count: its metric name, and how to read it from
# the function's result
_WORK = {
    "groebner.buchberger": ("basis_len", len),
    "lengths.staircase_histogram": ("monomials", sum),
}

# the per-layer metrics, in the order BENCHMARK.json lists them
_TIMED = (
    "groebner.buchberger",
    "groebner.divide",
    "groebner.interreduce",
    "groebner.ideal_power",
    "groebner.ideal_product",
    "groebner.intersection",
    "groebner.colon",
    "groebner.eliminate",
    "groebner.radical_membership",
    "lengths.staircase_histogram",
    "lengths.subquotient_length",
    "lengths.colength",
    "asymptotics.fit_eventual_polynomial",
    "session.parse_session",
)
_COUNTED = (
    "groebner.Ideal.groebner",
    "lengths.hilbert_samples",
    "reduction.rees_function",
    "reduction.reduction_test",
    "reduction.rees_criterion",
    "reduction.local_dimension",
    "reduction.analytic_spread",
    "reduction.d_sequence_check",
    "reduction.radical_colon_stability",
    "reduction.depth_positive",
    "multiplicity.multiplicity_function",
    "multiplicity.module_multiplicity",
    "runner.run_task",
)
_LAYER_SELF = (
    "groebner",
    "lengths",
    "reduction",
    "multiplicity",
    "filtrations",
    "runner",
)
FIELD_OPS = (
    ("RationalField", "mul"),
    ("RationalField", "invert"),
    ("PrimeField", "mul"),
    ("PrimeField", "invert"),
)


def metric_names():
    """Every per-layer metric name with its unit and better direction."""
    out = []
    for name in _TIMED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in _WORK:
            out.append((f"{name}.{_WORK[name][0]}", "count", "lower"))
    for name in _COUNTED:
        out.append((f"{name}.calls", "count", "lower"))
    out.append(("groebner.Ideal.groebner.hit_ratio", "ratio", "higher"))
    for layer in _LAYER_SELF:
        out.append((f"{layer}.self_s", "s", "lower"))
    for cls, op in FIELD_OPS:
        out.append((f"ring.{cls}.{op}.calls", "count", "lower"))
    return out


def _rebind(originals):
    """Point every alias of a wrapped original at its wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (
            mod_name == "reeslab" or mod_name.startswith("reeslab.")
        ):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and wrapper[0] is value:
                setattr(mod, attr, wrapper[1])


class Tracer:
    def __init__(self):
        # one span: [name, start, end, parent index, work count]
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        work = _WORK[name][1] if name in _WORK else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(result)
            return result

        return traced

    def install(self):
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"reeslab.{layer}")
            for attr, value in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__
                ):
                    continue
                originals[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        _rebind(originals)
        ideal = importlib.import_module("reeslab.groebner").Ideal
        ideal.groebner = self.wrap("groebner.Ideal.groebner", ideal.groebner)

    def self_times(self):
        """Per-span self time: duration minus its children's durations."""
        self_s = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_s[s[3]] -= s[2] - s[1]
        return self_s

    def summary(self):
        """The per-layer metrics, except the field counts, plus the
        summed run_task span time the self times must add up to."""
        calls = defaultdict(int)
        self_by_name = defaultdict(float)
        work = defaultdict(int)
        gb_parents = set()
        self_s = self.self_times()
        for i, s in enumerate(self.spans):
            calls[s[0]] += 1
            self_by_name[s[0]] += self_s[i]
            work[s[0]] += s[4]
            if s[0] == "groebner.buchberger" and s[3] >= 0:
                gb_parents.add(s[3])
        out = {}
        for name in _TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_by_name[name]
            if name in _WORK:
                out[f"{name}.{_WORK[name][0]}"] = work[name]
        for name in _COUNTED:
            out[f"{name}.calls"] = calls[name]
        gb_calls = [
            i
            for i, s in enumerate(self.spans)
            if s[0] == "groebner.Ideal.groebner"
        ]
        hits = sum(1 for i in gb_calls if i not in gb_parents)
        out["groebner.Ideal.groebner.hit_ratio"] = (
            hits / len(gb_calls) if gb_calls else 0.0
        )
        for layer in _LAYER_SELF:
            out[f"{layer}.self_s"] = sum(
                (v for k, v in self_by_name.items() if k.startswith(layer + ".")),
                0.0,
            )
        run_task_s = sum(
            s[2] - s[1] for s in self.spans if s[0] == "runner.run_task"
        )
        return out, run_task_s, self._under_run_task(self_s)

    def _under_run_task(self, self_s):
        """Summed self time of the spans inside run_task spans."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, s in enumerate(self.spans):
            # a parent is always recorded before its children
            inside[i] = s[0] == "runner.run_task" or (
                s[3] >= 0 and inside[s[3]]
            )
            if inside[i]:
                total += self_s[i]
        return total


def count_field_ops():
    """Count the field multiplications and inversions; returns the
    live counter dict, keyed by metric name."""
    ring = importlib.import_module("reeslab.ring")
    counts = {}
    for cls_name, op in FIELD_OPS:
        cls = getattr(ring, cls_name)
        key = f"ring.{cls_name}.{op}.calls"
        counts[key] = 0
        setattr(cls, op, _counted(counts, key, getattr(cls, op)))
    return counts


def _counted(counts, key, fn):
    @functools.wraps(fn)
    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted
