"""Write answers.json: the groebner workloads' answers at the default seed.

Usage: python3 perfbench/freeze.py

Run it only at a commit whose answers are trusted; the benchmark then
compares every later run against the file.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from checks import ANSWERS, DEFAULT_SEED, invariant_answers, task_digests  # noqa: E402
from reeslab import parse_session, run_session  # noqa: E402


def freeze(workload):
    answers, digests = {}, {}
    for name, text in workloads.WORKLOADS[workload](DEFAULT_SEED):
        report = run_session(parse_session(text))
        for record in report["tasks"]:
            if record["status"] != "ok":
                raise SystemExit(f"{workload} {name}: {record}")
            del record["elapsed_ms"]
        answers[name] = invariant_answers(report)
        digests[name] = task_digests(report)
    return {"answers": dict(sorted(answers.items())),
            "digests": dict(sorted(digests.items()))}


if __name__ == "__main__":
    frozen = {w: freeze(w) for w in ("groebner-q", "groebner-fp")}
    with open(ANSWERS, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
