"""Command line front end: run session files, check the bundled corpus.

Exit codes: 0 all tasks or checks succeeded, 1 a task errored or a
check failed, 2 the input could not be used at all.

Each invocation runs its tasks serially under one immutable budget,
dropped when the command returns.  REESLAB_BUDGET sets its caps: a bare
integer (the basis size) or pairs such as `basis=8000,pairs=500000`,
each a positive integer, each key at most once.  Command line flags
win over the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .corpus import run_corpus
from .errors import ParseError, PreconditionError
from .groebner import _ACTIVE_BUDGET, BUDGET, ResourceBudget
from .runner import run_session
from .session import _TASK_OPTIONS, Task, parse_session

_BUDGET_KEYS = {"basis": "max_basis", "pairs": "max_pairs"}


def _apply_budget_env(text):
    """The default budget with the caps of a REESLAB_BUDGET value."""
    text = text.strip()
    if not text:
        return BUDGET
    if text.isdecimal():
        text = f"basis={text}"
    caps = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if (
            key not in _BUDGET_KEYS
            or _BUDGET_KEYS[key] in caps
            or not value.isdecimal()
            or int(value) < 1
        ):
            raise ValueError(
                f"bad REESLAB_BUDGET entry {part!r}; use basis=N,pairs=N, "
                "each key once, or a bare integer, each N a positive integer"
            )
        caps[_BUDGET_KEYS[key]] = int(value)
    return ResourceBudget(**caps)


def _int_at_least(least):
    def integer(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return integer


def _override_nmax(session, nmax):
    # an explicit filtration admits no nmax, though its kind lists one
    tasks = []
    for task in session.tasks:
        explicit = task.kind == "filtration" and task.args[0] == "explicit"
        if "nmax" in _TASK_OPTIONS[task.kind] and not explicit:
            options = dict(task.options)
            options["nmax"] = nmax
            task = Task(task.kind, task.args, options)
        tasks.append(task)
    session.tasks = tuple(tasks)


def _task_line(record):
    label = " ".join([record["kind"], *record.get("args", [])])
    if record["status"] == "ok":
        return f"[ok] {label} ({record['elapsed_ms']} ms)"
    err = record["error"]
    return f"[error] {label}: {err['type']}: {err['message']}"


def _emit(lines):
    """Print and flush the lines.  When the reader has gone away, as
    `head` does, the rest of the output goes to the null device, so
    neither this nor the interpreter's final flush raises again."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_json(path, data):
    """Write data as JSON; False, with a message, if path is unwritable."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args):
    try:
        with open(args.session, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"cannot read {args.session}: {exc}", file=sys.stderr)
        return 2
    try:
        session = parse_session(text)
    except ParseError as exc:
        print(f"{args.session}: {exc}", file=sys.stderr)
        return 2
    if args.nmax is not None:
        _override_nmax(session, args.nmax)
    report = run_session(session)
    code = 0 if report["ok"] else 1
    _emit(_task_line(record) for record in report["tasks"])
    if args.json:
        if not _write_json(args.json, report):
            return 2
        _emit([f"report written to {args.json}"])
    else:
        _emit([json.dumps(report, indent=2)])
    return code


def _cmd_verify(args):
    try:
        result = run_corpus(args.filter)
    except PreconditionError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for check in result["checks"]:
        if check["status"] == "PASS":
            print(f"PASS {check['name']} ({check['session']})")
        else:
            print(
                f"FAIL {check['name']} ({check['session']}): "
                f"expected {check['expected']!r}, got {check['got']!r}"
            )
    total = result["passed"] + result["failed"]
    print(f"{result['passed']}/{total} checks passed")
    if args.json and not _write_json(args.json, result):
        return 2
    return 0 if result["failed"] == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reeslab",
        description="reduction, multiplicity, and filtration toolkit "
        "for polynomial ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a session file")
    run_p.add_argument("session", help="path to the session file")
    run_p.add_argument("--json", metavar="OUT", help="write the report here")
    run_p.add_argument(
        "--budget-gb-size",
        type=_int_at_least(1),
        metavar="N",
        help="cap the number of basis elements per Groebner run",
    )
    run_p.add_argument(
        "--nmax",
        type=_int_at_least(0),
        metavar="N",
        help="override the nmax option on every task that takes one",
    )
    run_p.set_defaults(func=_cmd_run)
    ver_p = sub.add_parser(
        "verify-paper", help="run the bundled corpus checks"
    )
    ver_p.add_argument("--filter", metavar="TAG", help="keep one tag only")
    ver_p.add_argument("--json", metavar="OUT", help="write results here")
    ver_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget = _apply_budget_env(os.environ.get("REESLAB_BUDGET", ""))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if getattr(args, "budget_gb_size", None) is not None:
        budget = ResourceBudget(
            max_basis=args.budget_gb_size, max_pairs=budget.max_pairs
        )
    token = _ACTIVE_BUDGET.set(budget)
    try:
        return args.func(args)
    finally:
        _ACTIVE_BUDGET.reset(token)


if __name__ == "__main__":
    sys.exit(main())
