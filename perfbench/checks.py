"""Answer checks, run on the reports after the timed region.

`Checker(workload, root)` prepares whatever reference answers the
workload needs once per run; `failures(reports)` then returns the set
of (session, task index) pairs whose record errored or whose answer is
wrong, with one message per wrong answer.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os

import workloads

ANSWERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")
DEFAULT_SEED = 1

# the answer fields of each groebner task kind that a sign change of
# the variables leaves alone; they are frozen per catalogue ideal
INVARIANT_FIELDS = {
    "spread": ("spread",),
    "grade": ("grade",),
    "dseq": ("weak", "strict", "failing_witness"),
    "radcolon": ("stable_from", "radical_is_maximal"),
    "reduction": (
        "is_reduction",
        "reduction_number",
        "method",
        "certified",
        "n_max_searched",
    ),
}


def invariant_answers(report):
    return [
        {k: r.get(k) for k in INVARIANT_FIELDS[r["kind"]]}
        for r in report["tasks"]
    ]


def task_digests(report):
    """One digest of all the answers of each task, for the default seed."""
    return [
        hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
        for r in report["tasks"]
    ]


def _load_oracle(root):
    path = os.path.join(root, "tests", "oracle.py")
    spec = importlib.util.spec_from_file_location("reeslab_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Checker:
    def __init__(self, workload, seed, root):
        self.workload = workload
        self.seed = seed
        if workload == "corpus":
            from reeslab.corpus import CHECKS

            self.corpus_checks = CHECKS
        elif workload == "rees-monomial":
            oracle = _load_oracle(root)
            self.rees = {
                name: (nv, oracle.subquotient(a, b, nv))
                for name, nv, a, b in workloads.rees_catalogue()
            }
        else:
            with open(ANSWERS) as fh:
                self.frozen = json.load(fh)[workload]

    def failures(self, reports):
        bad = {}
        for name, report in reports.items():
            for i, r in enumerate(report["tasks"]):
                if r["status"] != "ok":
                    bad[(name, i)] = f"{r['error']['type']}: {r['error']['message']}"
        check = {
            "corpus": self._corpus,
            "rees-monomial": self._rees,
        }.get(self.workload, self._groebner)
        for name, report in reports.items():
            for i, message in check(name, report):
                bad.setdefault((name, i), message)
        return bad

    def _corpus(self, name, report):
        for c in self.corpus_checks:
            if c.session != name:
                continue
            got = report
            try:
                for step in c.path:
                    got = got[step]
            except (KeyError, IndexError, TypeError):
                got = "<missing>"
            if got != c.expected:
                yield c.path[1], f"{c.name}: got {got!r}, want {c.expected!r}"

    def _rees(self, name, report):
        nv, length = self.rees[name]
        t_length, t_red, t_rees = report["tasks"]
        if t_length.get("length") != length:
            yield 0, f"length {t_length.get('length')}, oracle {length}"
        table = t_rees.get("table", {}).get("values", [None])
        if table[0] != length:
            yield 2, f"rees table starts at {table[0]}, oracle {length}"
        degree = t_rees.get("degree")
        if t_red.get("certified") and t_red.get("is_reduction"):
            if degree != "ZERO" and not (isinstance(degree, int) and degree < nv):
                yield 2, f"certified reduction but rees degree {degree} >= {nv}"

    def _groebner(self, name, report):
        nv = len(report["ring"]["variables"])
        got = invariant_answers(report)
        want = self.frozen["answers"][name]
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                yield i, f"answer {g}, frozen {w}"
        grade, spread = got[1].get("grade"), got[0].get("spread")
        if isinstance(grade, int) and isinstance(spread, int):
            if not grade <= spread <= nv:
                yield 0, f"grade {grade}, spread {spread}, nvars {nv}"
        if self.seed == DEFAULT_SEED:
            frozen = self.frozen["digests"][name]
            for i, (g, w) in enumerate(zip(task_digests(report), frozen)):
                if g != w:
                    yield i, "answer differs from the frozen default-seed one"
