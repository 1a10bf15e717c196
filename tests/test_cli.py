"""Command line behaviour, budget knobs, and the bundled corpus."""

import json
import os
import sys

import jsonschema
import pytest

from reeslab import (
    BUDGET,
    REPORT_SCHEMA,
    ResourceBudget,
    parse_session,
    run_session,
)
from reeslab.cli import _apply_budget_env, _override_nmax, main
from reeslab.corpus import CHECKS, CORPUS, run_corpus

GOOD_SESSION = """\
ring q[x,y]
ideal I = x^2, x*y, y^2
ideal J = x^2, y^2
task length I J
task reduction I J nmax=4
"""

BAD_TASK_SESSION = """\
ring q[x,y]
ideal A = x
ideal B = y
task length A B
"""


# B's basis queues several S-pairs, so a pairs cap of 2 trips it; the
# length is 6 at the defaults
PAIRS_SESSION = """\
ring q[x,y]
ideal A = x, y
ideal B = x^2 + y^3, x*y^2 + y^4, y^5 - x^3
task length A B
"""


def test_budget_env_bare_integer():
    assert _apply_budget_env("123").max_basis == 123


def test_budget_env_pairs():
    budget = _apply_budget_env("basis=11,pairs=22")
    assert budget.max_basis == 11
    assert budget.max_pairs == 22


def test_budget_env_rejects_garbage():
    with pytest.raises(ValueError):
        _apply_budget_env("basis=many")
    with pytest.raises(ValueError):
        _apply_budget_env("speed=9")


def test_budget_is_scoped_to_one_invocation(tmp_path, capsys, monkeypatch):
    src = tmp_path / "s.txt"
    src.write_text(PAIRS_SESSION)
    monkeypatch.setenv("REESLAB_BUDGET", "pairs=2")
    assert main(["run", str(src)]) == 1
    out = capsys.readouterr().out
    assert "ResourceBudgetError" in out
    assert "REESLAB_BUDGET pairs=" in out
    # the tripped cap does not outlive the invocation
    report = run_session(parse_session(PAIRS_SESSION))
    assert report["ok"] is True
    assert report["tasks"][0]["length"] == 6
    assert BUDGET == ResourceBudget()
    with pytest.raises(AttributeError):
        BUDGET.max_basis = 1
    assert BUDGET.max_basis == ResourceBudget().max_basis


def test_override_nmax():
    session = parse_session(
        GOOD_SESSION
        + "task filtration power I:J\ntask filtration explicit I,J J,J\n"
    )
    _override_nmax(session, 7)
    kinds = {t.kind: t for t in session.tasks}
    assert kinds["reduction"].options["nmax"] == 7
    assert "nmax" not in kinds["length"].options
    power, explicit = session.tasks[-2:]
    assert power.options["nmax"] == 7
    # an explicit filtration admits no nmax, so none is written into it
    assert "nmax" not in explicit.options
    assert parse_session(session.canonical_text()) == session


def test_run_ok(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_text(GOOD_SESSION)
    out = tmp_path / "report.json"
    code = main(["run", str(src), "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["ok"] is True
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("[ok] length I J") for line in lines)


def test_run_task_error_exit_code(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_text(BAD_TASK_SESSION)
    code = main(["run", str(src)])
    assert code == 1
    assert "[error] length A B" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, code", [(GOOD_SESSION, 0), (BAD_TASK_SESSION, 1)]
)
def test_run_reader_gone(tmp_path, monkeypatch, text, code):
    # `reeslab run S | head -1`: every write to stdout raises
    # BrokenPipeError once the reader has closed its end
    src = tmp_path / "s.txt"
    src.write_text(text)
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = os.fdopen(write_end, "w", buffering=1)
    try:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["run", str(src)]) == code
        # later writes and the final flush go nowhere, quietly
        print("more")
        stdout.flush()
    finally:
        monkeypatch.undo()
        stdout.close()


def test_run_json_unwritable(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_text(GOOD_SESSION)
    out = tmp_path / "missing" / "report.json"
    assert main(["run", str(src), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"cannot write {out}" in captured.err
    assert "[ok] length I J" in captured.out


def test_run_missing_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.txt")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_run_parse_error(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_text("ring q[x]\ntask bogus\n")
    code = main(["run", str(src)])
    assert code == 2
    assert "task kind" in capsys.readouterr().err


def test_run_budget_flag_trips(tmp_path, capsys):
    # monomial work never grows the basis, so use a pair whose
    # computation genuinely appends new elements
    src = tmp_path / "s.txt"
    src.write_text("ring q[x,y]\nideal K = x^2 - y, x*y - 1\ntask grade K\n")
    code = main(["run", str(src), "--budget-gb-size", "1"])
    assert code == 1
    assert "ResourceBudgetError" in capsys.readouterr().out


def test_run_env_budget_malformed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REESLAB_BUDGET", "nope")
    src = tmp_path / "s.txt"
    src.write_text(GOOD_SESSION)
    code = main(["run", str(src)])
    assert code == 2
    assert "REESLAB_BUDGET" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_run_budget_flag_rejects_nonpositive(tmp_path, capsys, value):
    src = tmp_path / "s.txt"
    src.write_text(GOOD_SESSION)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(src), "--budget-gb-size", value])
    assert exit_info.value.code == 2
    assert "--budget-gb-size" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["basis=0", "0", "pairs=-5"])
def test_run_env_budget_rejects_nonpositive(
    tmp_path, capsys, monkeypatch, value
):
    monkeypatch.setenv("REESLAB_BUDGET", value)
    src = tmp_path / "s.txt"
    src.write_text(GOOD_SESSION)
    assert main(["run", str(src)]) == 2
    err = capsys.readouterr().err
    assert "REESLAB_BUDGET" in err
    assert "positive integer" in err


def test_run_env_budget_rejects_truncation(tmp_path, capsys, monkeypatch):
    # lengths read no truncation window, so the key names no cap
    monkeypatch.setenv("REESLAB_BUDGET", "basis=9,truncation=60")
    src = tmp_path / "s.txt"
    src.write_text(GOOD_SESSION)
    assert main(["run", str(src)]) == 2
    assert "'truncation=60'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["basis=5,basis=7", "pairs=9, pairs=9"])
def test_run_env_budget_rejects_a_repeated_key(
    tmp_path, capsys, monkeypatch, value
):
    # a second value for one key would silently replace the first
    monkeypatch.setenv("REESLAB_BUDGET", value)
    src = tmp_path / "s.txt"
    src.write_text(GOOD_SESSION)
    assert main(["run", str(src)]) == 2
    repeated = value.split(",")[1]
    assert f"bad REESLAB_BUDGET entry {repeated!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["\u00b2", "basis=\u00b2", "pairs=1\u00b2"])
def test_run_env_budget_rejects_non_decimal_digits(
    tmp_path, capsys, monkeypatch, value
):
    # str.isdigit accepts a superscript two, which int() refuses
    monkeypatch.setenv("REESLAB_BUDGET", value)
    src = tmp_path / "s.txt"
    src.write_text(GOOD_SESSION)
    assert main(["run", str(src)]) == 2
    assert "bad REESLAB_BUDGET entry" in capsys.readouterr().err


def test_run_negative_nmax_rejected(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_text(GOOD_SESSION)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(src), "--nmax", "-1"])
    assert exit_info.value.code == 2
    assert "--nmax" in capsys.readouterr().err


def test_corpus_all_pass():
    result = run_corpus()
    assert result["failed"] == 0
    assert result["passed"] == len(CHECKS) == 20


def test_corpus_filter_subsets():
    result = run_corpus("deg1")
    names = {c["name"] for c in result["checks"]}
    assert names == {c.name for c in CHECKS if "deg1" in c.tags}
    assert result["failed"] == 0


def test_corpus_unknown_tag_lists_known():
    from reeslab import PreconditionError

    with pytest.raises(PreconditionError) as err:
        run_corpus("nonsense")
    assert "known tags" in str(err.value)


def test_corpus_perturbation_caught():
    result = run_corpus("deg1", perturb={"deg1.degree": 9})
    fails = [c for c in result["checks"] if c["status"] == "FAIL"]
    assert len(fails) == 1
    assert fails[0]["name"] == "deg1.degree"
    assert fails[0]["expected"] == 9
    assert fails[0]["got"] == 1


def test_verify_cli(tmp_path, capsys):
    out = tmp_path / "checks.json"
    code = main(["verify-paper", "--filter", "deg1", "--json", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout
    data = json.loads(out.read_text())
    assert data["failed"] == 0


def test_verify_cli_json_unwritable(tmp_path, capsys):
    out = tmp_path / "missing" / "checks.json"
    code = main(["verify-paper", "--filter", "deg1", "--json", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert f"cannot write {out}" in captured.err
    assert "4/4 checks passed" in captured.out


def test_verify_cli_unknown_tag(capsys):
    code = main(["verify-paper", "--filter", "bogus"])
    assert code == 2
    assert "known tags" in capsys.readouterr().err


def test_corpus_sessions_parse():
    for name, text in CORPUS.items():
        session = parse_session(text)
        assert session.ring is not None, name
        assert session.tasks, name
