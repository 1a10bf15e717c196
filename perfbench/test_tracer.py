"""Self-test of the tracing: every per-layer metric is populated.

Run with: python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402

ROOT = os.path.dirname(HERE)

TINY = """\
ring {field}[x,y]
ideal I = x^2, x*y, y^2
ideal J = x^2, y^2
ideal K = x*y, x^2
ideal L = x^2
ideal M = x
ideal N = x^2, x*y
poly f = x^2
poly g = y^2
task length I J
task length I
task rees I J nrange=1..4
task reduction I J nmax=3
task spread J
task grade J
task dseq f g
task radcolon I J nmax=2
task mult I J nrange=1..5
task mult K L nrange=1..5
task mult M N nrange=1..5
task filtration power I:J mrange=1..3 nmax=3
"""

SESSIONS = [["q", TINY.format(field="q")], ["fp", TINY.format(field="f<7>")]]


def _child(mode):
    job = json.dumps({"src": os.path.join(ROOT, "src"), "sessions": SESSIONS})
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), mode],
        input=job,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return _child("trace")


@pytest.fixture(scope="module")
def counted():
    return _child("count")


def test_every_task_succeeds(traced):
    for report in traced["reports"].values():
        assert [r["status"] for r in report["tasks"]] == ["ok"] * 12


def test_every_layer_metric_is_populated(traced, counted):
    values = dict(traced["layers"])
    values.update(counted["layers"])
    for name, _, _ in tracer.metric_names():
        assert values[name] > 0, name


def test_self_times_add_up_to_run_task_time(traced):
    assert traced["run_task_s"] > 0
    assert traced["inside_s"] == pytest.approx(traced["run_task_s"], rel=1e-9)


def test_aliases_are_rebound():
    """No reeslab module keeps a reference to an unwrapped function."""
    code = """
import inspect, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {here!r})
import reeslab, tracer
tracer.Tracer().install()
left = []
for name, mod in list(sys.modules.items()):
    if not name.startswith("reeslab"):
        continue
    for attr, value in vars(mod).items():
        if (inspect.isfunction(value) and not attr.startswith("_")
                and value.__module__.split(".")[-1] in tracer.LAYERS
                and not hasattr(value, "__wrapped__")):
            left.append(name + "." + attr)
print(left)
""".format(src=os.path.join(ROOT, "src"), here=HERE)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"
