"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py MODE < sessions.json

MODE is `setup` (import and parse only), `plain` (the timed run),
`trace` (spans around every layer) or `count` (field operations
counted).  Standard input holds {"src": DIR, "sessions": [[name, text],
...]}; the last line of standard output is one JSON object.
"""

import json
import os
import resource
import sys
import time


def main():
    mode = sys.argv[1]
    job = json.load(sys.stdin)
    if "REESLAB_BUDGET" in os.environ:
        raise SystemExit("REESLAB_BUDGET is set; the benchmark runs at the defaults")
    sys.path.insert(0, job["src"])
    clock = time.perf_counter
    start = clock()
    import reeslab

    tracer = None
    if mode == "trace":
        # spans must exist before parsing, for session.parse_session
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sessions = [(name, reeslab.parse_session(text)) for name, text in job["sessions"]]
    setup_s = clock() - start
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    _guard(reeslab)

    counts = None
    if mode == "count":
        from tracer import count_field_ops

        counts = count_field_ops()
    from reeslab import runner

    task_ms = []
    run_task = runner.run_task

    def timed_run_task(session, task):
        begin = clock()
        record = run_task(session, task)
        task_ms.append((clock() - begin) * 1000.0)
        return record

    runner.run_task = timed_run_task
    reports = {}
    session_s = {}
    for name, session in sessions:
        begin = clock()
        reports[name] = reeslab.run_session(session)
        session_s[name] = clock() - begin
    _guard(reeslab)

    for report in reports.values():
        for record in report["tasks"]:
            del record["elapsed_ms"]
    out = {
        "setup_s": setup_s,
        "wall_s": sum(session_s.values()),
        "session_s": session_s,
        "task_ms": task_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reports": reports,
    }
    if tracer is not None:
        layers, run_task_s, inside_s = tracer.summary()
        out.update(layers=layers, run_task_s=run_task_s, inside_s=inside_s,
                   spans=len(tracer.spans))
    if counts is not None:
        out["layers"] = dict(counts)
    print(json.dumps(out))


def _guard(reeslab):
    """The run must see the default budget, untouched."""
    if reeslab.BUDGET != reeslab.ResourceBudget():
        raise SystemExit(f"BUDGET is not the default: {reeslab.BUDGET}")


if __name__ == "__main__":
    main()
