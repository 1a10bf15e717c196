"""Session grammar, canonical text, report assembly, and the schema."""

import re

import jsonschema
import pytest

from reeslab import (
    ParseError,
    REPORT_SCHEMA,
    parse_session,
    run_session,
)

FULL_TEXT = """\
# a session touching every construct
ring q[x,y]
ideal I = x^2, x*y, y^2
ideal J = x^2, y^2
poly f = x + y
poly g = -y
task length I J
task rees I J nrange=1..6
task reduction I J nmax=6
task spread I
task grade J
task dseq f g
task radcolon I J nmax=3
task mult I J
task filtration power I:J weights=1 nmax=4 mrange=1..5 d=2
task filtration explicit I,J J,J
"""


def assert_no_floats(node, path="$"):
    if isinstance(node, bool):
        return
    assert not isinstance(node, float), f"float at {path}"
    if isinstance(node, dict):
        for k, v in node.items():
            assert_no_floats(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            assert_no_floats(v, f"{path}[{i}]")


def test_round_trip():
    for source in (FULL_TEXT, FULL_TEXT.replace("q[", "f<32003>[", 1)):
        session = parse_session(source)
        text = session.canonical_text()
        again = parse_session(text)
        assert again == session
        assert again.canonical_text() == text


def test_parsed_shapes():
    session = parse_session(FULL_TEXT)
    assert session.ring.variables == ("x", "y")
    assert session.names == ("I", "J", "f", "g")
    assert session.kinds["I"] == "ideal"
    assert session.kinds["f"] == "poly"
    assert len(session.tasks) == 10
    rees = session.tasks[1]
    assert rees.kind == "rees"
    assert rees.options["nrange"] == range(1, 7)
    power = session.tasks[8]
    assert power.args[1] == (("I", "J"),)
    assert power.options["weights"] == (1,)


def test_comment_and_blank_lines():
    session = parse_session("\n# nothing here\n\nring q[x]\n")
    assert session.ring is not None
    assert session.tasks == ()


def test_empty_session():
    session = parse_session("")
    assert session.ring is None
    report = run_session(session)
    assert report["ok"] is True
    assert report["ring"] is None
    assert report["tasks"] == []
    jsonschema.validate(report, REPORT_SCHEMA)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("ring z[x]", 1, "field"),
        ("ideal I = x", 1, "ring"),
        ("ring q[x]\npoly f = x + w", 2, "unknown"),
        ("ring q[x]\npoly f = x^f", 2, "exponent"),
        ("ring q[x]\ntask frobnicate", 2, "task kind"),
        ("ring q[x]\ntask verify", 2, "task kind"),
        ("ring f<8>[x]", 1, "prime"),
        ("ring q[x]\nideal I = x\ntask rees I K", 3, "unknown name"),
        ("ring q[x]\npoly f = x\nideal I = x\ntask rees I f", 4, "bound"),
        ("ring q[x]\nideal I = x\nideal I = x^2", 3, "duplicate"),
        ("ring q[x,y]\nideal x = y", 2, "variable"),
        ("ring q[x]\nideal I = x\ntask spread I nmax=3", 3, "option"),
        ("ring q[x]\nideal I = x\ntask length I extra=1", 3, "option"),
        ("ring q[x]\nideal I = x\ntask mult I I nrange=5..2", 3, "range"),
        ("ring q[x]\nideal I = x\ntask reduction I I nmax=1,2", 3, "shape"),
        ("ring q[x]\nideal I = x\ntask reduction I I nmax=-1", 3, "integer"),
        ("ring q[x]\nideal I = x\ntask rees I I window=3,4", 3, "shape"),
        ("ring q[x]\nideal I = x\ntask filtration power I:I d=1,2", 3, "shape"),
    ],
)
def test_parse_errors(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert err.value.line == line
    assert fragment in str(err.value).lower()


def test_parse_error_caret_position():
    with pytest.raises(ParseError) as err:
        parse_session("ring q[x,y]\npoly f = x + w")
    assert err.value.line == 2
    assert err.value.column == 14
    rendered = str(err.value)
    assert "poly f = x + w" in rendered
    assert rendered.splitlines()[-1].index("^") == 2 + (err.value.column - 1)


def test_report_shape_and_schema():
    session = parse_session(FULL_TEXT)
    report = run_session(session)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["ok"] is True
    assert report["version"] == "1"
    assert "localization" in report["convention"]
    assert [t["kind"] for t in report["tasks"]] == [
        t.kind for t in session.tasks
    ]
    assert_no_floats(report)
    by_kind = {t["kind"]: t for t in report["tasks"]}
    assert by_kind["length"]["length"] == 1
    assert by_kind["rees"]["degree"] == 1
    assert by_kind["reduction"]["is_reduction"] is True
    assert by_kind["spread"]["spread"] == 2
    assert by_kind["grade"]["grade"] == 2
    assert by_kind["dseq"]["strict"] is True
    assert by_kind["radcolon"]["stable_from"] == 1
    assert by_kind["radcolon"]["radical_is_maximal"] is True
    assert by_kind["mult"]["t"] == 0
    assert by_kind["mult"]["degree"] == 1
    assert all(isinstance(t["elapsed_ms"], int) for t in report["tasks"])


def test_error_lands_in_report():
    text = "ring q[x,y]\nideal A = x\nideal B = y\ntask length A B"
    report = run_session(parse_session(text))
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["ok"] is False
    task = report["tasks"][0]
    assert task["status"] == "error"
    assert task["error"]["type"] == "ContainmentError"
    assert task["error"]["message"]


def test_zero_degree_marker():
    text = "ring q[x,y]\nideal I = x, y\ntask rees I I"
    report = run_session(parse_session(text))
    task = report["tasks"][0]
    assert task["degree"] == "ZERO"
    assert task["fit"]["degree"] == "ZERO"
    jsonschema.validate(report, REPORT_SCHEMA)


def test_zero_outer_ideal_is_a_typed_refusal():
    # the colon chain divides by the outer ideal; a zero one is refused
    # per task, and the records before and after it survive
    text = (
        "ring q[x,y]\n"
        "ideal I = 0\n"
        "ideal J = 0\n"
        "ideal K = x, y\n"
        "task length K\n"
        "task radcolon I J nmax=2\n"
        "task mult I J\n"
        "task length K\n"
    )
    report = run_session(parse_session(text))
    statuses = [t["status"] for t in report["tasks"]]
    assert statuses == ["ok", "error", "error", "ok"]
    for record in report["tasks"][1:3]:
        assert record["error"]["type"] == "PreconditionError"
        assert "outer ideal" in record["error"]["message"]
    jsonschema.validate(report, REPORT_SCHEMA)


def test_zero_candidate_is_a_certified_non_reduction():
    # zero reduces no nonzero ideal of the domain R_m; the verdict is
    # certified before any search, and zero does reduce zero
    text = (
        "ring q[x,y]\n"
        "ideal I = x^2, y\n"
        "ideal Z = 0\n"
        "task reduction I Z nmax=3\n"
        "task reduction Z Z nmax=3\n"
    )
    report = run_session(parse_session(text))
    jsonschema.validate(report, REPORT_SCHEMA)
    refuted, trivial = report["tasks"]
    assert refuted["status"] == "ok"
    assert refuted["is_reduction"] is False
    assert refuted["reduction_number"] is None
    assert refuted["certified"] is True
    assert trivial["is_reduction"] is True
    assert trivial["reduction_number"] == 0


def test_a_generator_past_the_field_width_answers():
    # g has degree 2^31, past the 31 value bits of the bases it meets;
    # each colon of the d-sequence test fits its basis to g, so the task
    # answers instead of overflowing
    for field in ("q", "f<32003>"):
        text = (
            f"ring {field}[x,y]\n"
            "poly f = y^2\n"
            "poly g = x^2147483648 + y\n"
            "task dseq f g\n"
        )
        report = run_session(parse_session(text))
        jsonschema.validate(report, REPORT_SCHEMA)
        (dseq,) = report["tasks"]
        assert dseq["status"] == "ok"
        assert dseq["weak"] is True and dseq["strict"] is True


def test_locally_equal_pairs_read_the_same_verdicts():
    # (y) ⊃ (xy^2 - y^2) is (y) ⊃ (y^2) in R_m, since x - 1 is a unit
    # there: the radicals behind radcolon and mult are read locally
    records = []
    for inner in ("x*y^2 - y^2", "y^2"):
        text = (
            "ring q[x,y]\n"
            "ideal I = y\n"
            f"ideal J = {inner}\n"
            "task radcolon I J nmax=3\n"
            "task mult I J\n"
        )
        report = run_session(parse_session(text))
        jsonschema.validate(report, REPORT_SCHEMA)
        records.append(report["tasks"])
    (rad, mult), (rad2, mult2) = records
    for key in ("stable_from", "radical_is_maximal"):
        assert rad[key] == rad2[key]
    assert mult["verdicts"] == mult2["verdicts"]
    assert mult["hypotheses"] == mult2["hypotheses"]
    assert mult["hypotheses"]["radical_strictly_larger"] == "failed"
    assert mult["verdicts"]["height_separation"] == "not_applicable"


def _renamed(node, names):
    # node with every name token of every string renamed
    if isinstance(node, str):
        return re.sub(
            r"[A-Za-z_][A-Za-z0-9_]*", lambda m: names.get(m[0], m[0]), node
        )
    if isinstance(node, list):
        return [_renamed(v, names) for v in node]
    if isinstance(node, dict):
        return {k: _renamed(v, names) for k, v in node.items()}
    return node


def test_auxiliary_names_do_not_collide():
    # t, z, h, s and u1 are the names that intersection,
    # radical_membership, the Lazard basis and analytic_spread give their
    # auxiliary variables, and e0, e1, ... those of the components of
    # the colon's syzygy run, which radcolon reaches with up to three
    # generators outside a; a ring that already uses them gets fresh
    # ones and the same report
    text = """\
ring q[x,y,w,v,r]
ideal J = x^2 - y*w, y^2 + x*w
ideal I = x^2 - y*w, y^2 + x*w, x*y
ideal A = x^2, x*y, y^2
ideal B = x^2, y^2
ideal K = w*v, r^2, w^2
ideal N = x^2 - x^3, y, w + y*v, v, r
task spread I
task spread K
task grade J
task radcolon I J nmax=2
task mult A B
task length N
task reduction I J nmax=3
"""
    plain = run_session(parse_session(text))
    for record in plain["tasks"]:
        del record["elapsed_ms"]
    assert plain["ok"] is True
    for names in (("t", "z", "h", "s", "u1"), ("e0", "e1", "e2", "e3", "e")):
        clash = dict(zip("xywvr", names))
        back = {new: old for old, new in clash.items()}
        clashing = run_session(parse_session(_renamed(text, clash)))
        for record in clashing["tasks"]:
            del record["elapsed_ms"]
        assert clashing["ring"]["variables"] == list(names)
        assert _renamed(clashing, back) == plain
