"""Fold the results files of many runs into one summary, as JSON.

Usage: python3 perfbench/summarize.py [RESULTS_DIR] > summary.json

For each workload: every metric's median and quartiles over the runs
(one run per seed), the seeds, the summed failure base, and for traced
runs the tracing overhead.  The provenance of the first file is kept.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _stats(values):
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def summarize(results_dir):
    runs = {}
    provenance = None
    for path in sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json"))):
        with open(path) as fh:
            run = json.load(fh)
        p = run["provenance"]
        if provenance is None:
            provenance = {k: p[k] for k in ("python", "nproc", "platform", "git_commit")}
        runs.setdefault((p["workload"], "per_layer" if p["trace"] else "end_to_end"), []).append(run)
    workloads = {}
    for (workload, kind), group in sorted(runs.items()):
        entry = workloads.setdefault(workload, {})
        metrics = {}
        for name in group[0]["metrics"]:
            metrics[name] = _stats([r["metrics"][name]["value"] for r in group])
            metrics[name]["unit"] = group[0]["metrics"][name]["unit"]
        section = {
            "seeds": sorted(r["provenance"]["seed"] for r in group),
            "tasks_per_repetition": group[0]["provenance"]["tasks_per_repetition"],
            "attempted": sum(r["attempted"] for r in group),
            "failed": sum(r["failed"] for r in group),
            "metrics": metrics,
        }
        if kind == "per_layer":
            section["tracing_overhead_s"] = _stats(
                [r["detail"]["tracing_overhead_s"] for r in group]
            )
        entry[kind] = section
    return {"provenance": provenance, "workloads": workloads}


if __name__ == "__main__":
    results_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, "results")
    json.dump(summarize(results_dir), sys.stdout, indent=1)
    sys.stdout.write("\n")
