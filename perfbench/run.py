"""reeslab benchmark: seeded session workloads, end-to-end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs the workload's sessions through `run_session` in a
fresh interpreter (perfbench/child.py), at the program's defaults.
With --trace 0 the repetitions fill S seconds, at least two of them,
and the end-to-end metrics are printed; with --trace 1 one untraced, one
traced and one count-only repetition give the per-layer metrics.  The
answers are checked outside the timed region.  The last line of
standard output is one JSON object; a results file with provenance is
written under perfbench/results/.  The exit code is 0 only when every
answer is right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
import workloads
from checks import Checker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# fresh interpreters that only import and parse, per untraced run, on
# top of the repetitions, so that setup_s is a median of several
SETUP_SAMPLES = 9
MIN_REPETITIONS = 2
CHILD_TIMEOUT_S = 170


def _child(mode, sessions):
    """Run one repetition in a fresh interpreter; its JSON result."""
    job = json.dumps({"src": SRC, "sessions": sessions})
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), mode],
        input=job,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{mode} repetition failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(sessions, seconds):
    """Repetitions until the next one would end more than half a
    repetition after `seconds`, but at least MIN_REPETITIONS; then the
    end-to-end metrics."""
    setups = [_child("setup", sessions)["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps = []
    begin = time.perf_counter()
    while True:
        rep_begin = time.perf_counter()
        reps.append(_child("plain", sessions))
        now = time.perf_counter()
        if len(reps) >= MIN_REPETITIONS and now + (now - rep_begin) / 2 > begin + seconds:
            break
    setups += [rep["setup_s"] for rep in reps]
    # each session's median over the repetitions, so that a burst of
    # machine noise during one repetition moves only its own samples
    wall_s = sum(
        statistics.median(rep["session_s"][name] for rep in reps)
        for name, _ in sessions
    )
    metrics = {
        "wall_s": _metric(wall_s, "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(
            statistics.median(r["peak_rss_mb"] for r in reps), "MiB"
        ),
    }
    # each task's median over the repetitions, then their median: task
    # latency is kept out of the metrics, see README.md
    task_ms = [statistics.median(ms) for ms in zip(*(r["task_ms"] for r in reps))]
    detail = {
        "task_p50_ms": statistics.median(task_ms),
        "repetitions": len(reps),
        "repetition_wall_s": [r["wall_s"] for r in reps],
        "repetition_session_s": [r["session_s"] for r in reps],
        "repetition_task_ms": [r["task_ms"] for r in reps],
        "setup_s_samples": setups,
        "tasks": len(task_ms),
    }
    return reps, metrics, detail


def per_layer(sessions):
    plain = _child("plain", sessions)
    traced = _child("trace", sessions)
    counted = _child("count", sessions)
    units = {name: unit for name, unit, _ in tracer.metric_names()}
    values = dict(traced["layers"])
    values.update(counted["layers"])
    metrics = {name: _metric(values[name], units[name]) for name in units}
    detail = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "tracing_overhead_s": traced["wall_s"] - plain["wall_s"],
        "count_only_wall_s": counted["wall_s"],
        "spans": traced["spans"],
        "run_task_span_s": traced["run_task_s"],
        "self_s_inside_run_task": traced["inside_s"],
    }
    return [plain, traced, counted], metrics, detail


def _git_commit():
    """HEAD's commit, read from ROOT/.git without running git; None in
    a checkout that is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, sessions):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sessions": len(sessions),
        "tasks_per_repetition": sum(
            text.count("\ntask ") for _, text in sessions
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "reeslab", "__init__.py")):
        raise SystemExit(f"no reeslab sources under {SRC}")
    if "REESLAB_BUDGET" in os.environ:
        raise SystemExit("unset REESLAB_BUDGET: the benchmark runs at the defaults")
    sys.path.insert(0, SRC)
    sessions = workloads.WORKLOADS[args.workload](args.seed)
    checker = Checker(args.workload, args.seed, ROOT)
    if args.trace:
        reps, metrics, detail = per_layer(sessions)
    else:
        reps, metrics, detail = end_to_end(sessions, args.seconds)

    attempted = failed = 0
    wrong = []
    for rep in reps:
        bad = checker.failures(rep["reports"])
        attempted += sum(len(r["tasks"]) for r in rep["reports"].values())
        failed += len(bad)
        wrong += [f"{s} task {i}: {msg}" for (s, i), msg in sorted(bad.items())]
    for line in wrong:
        print("WRONG", line, file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(
            {
                "provenance": provenance(args, sessions),
                "failed_frac": {"failed": failed, "attempted": attempted},
                "detail": detail,
                **result,
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
