"""Bundled example sessions with their expected values.

Each session is stored as source text so running the corpus also
exercises the parser.  A check names one value inside the report of one
session and the integer, boolean, or string it must equal.  The
`perturb` hook exists for the harness self-test: swapping in a wrong
expectation must produce exactly one failure.
"""

from __future__ import annotations

from .errors import FrozenValue, PreconditionError
from .runner import run_session
from .session import parse_session

CORPUS = {
    "deg1": """\
# two-variable pair with linear quotient growth
ring q[x,y]
ideal J = x*y^2, x^4
ideal I = x^4, x*y^2, x^3*y
task length I J
task rees I J nrange=1..8
task reduction I J nmax=8
""",
    "fourvar": """\
# four-variable pair: grade two, strict d-sequence, spread three
ring q[x,y,z,w]
ideal I = x*z, x*w, y*z, y*w
ideal J = x*z, y*w, x*w + y*z
poly f1 = x*z
poly f2 = y*w
poly f3 = x*w + y*z
task grade J
task dseq f1 f2 f3
task spread J
task rees I J nrange=1..6
""",
    "stab": """\
# colon-chain stabilization and the multiplicity pipeline
ring q[x,y,z,w]
ideal I = x*z, x*w, y*z, y*w
ideal J = x*z, y*w, x*w + y*z
task radcolon I J nmax=3
task mult I J nrange=1..5
""",
    "spread3": """\
# spread three with a monomial integrally dependent on the rest
ring q[x,y,z,w]
ideal J = x*y*w^2, x*y*z^2, x*w^2 + y*z^2
ideal I = x*y*w^2, x*y*z^2, x*w^2 + y*z^2, x*y*z*w
task spread J
task reduction I J nmax=4
task radcolon I J nmax=3
""",
    "filt": """\
# level-listed filtrations whose quotients stay bounded
ring q[x,y]
ideal L1 = x
ideal L2 = x^2
ideal L3 = x^3
ideal L4 = x^4
ideal L5 = x^5
ideal L6 = x^6
ideal L7 = x^7
ideal L8 = x^8
ideal M1 = x^2, x*y
ideal M2 = x^3, x^2*y
ideal M3 = x^4, x^3*y
ideal M4 = x^5, x^4*y
ideal M5 = x^6, x^5*y
ideal M6 = x^7, x^6*y
ideal M7 = x^8, x^7*y
ideal M8 = x^9, x^8*y
task filtration explicit L1,L2,L3,L4,L5,L6,L7,L8 M1,M2,M3,M4,M5,M6,M7,M8 d=2
task reduction L1 M1 nmax=8
task rees L1 M1 nrange=1..6
""",
}


class CorpusCheck(FrozenValue):
    name: str
    tags: frozenset
    session: str
    path: tuple
    expected: object


def _check(name, tags, session, path, expected):
    return CorpusCheck(name, frozenset(tags), session, tuple(path), expected)


CHECKS = (
    _check("deg1.length", {"deg1", "reduction"}, "deg1",
           ("tasks", 0, "length"), 1),
    _check("deg1.degree", {"deg1", "reduction"}, "deg1",
           ("tasks", 1, "degree"), 1),
    _check("deg1.reduction", {"deg1", "reduction"}, "deg1",
           ("tasks", 2, "is_reduction"), True),
    _check("deg1.reduction_number", {"deg1", "reduction"}, "deg1",
           ("tasks", 2, "reduction_number"), 1),
    _check("fourvar.grade", {"fourvar", "reduction"}, "fourvar",
           ("tasks", 0, "grade"), 2),
    _check("fourvar.dseq_strict", {"fourvar", "reduction"}, "fourvar",
           ("tasks", 1, "strict"), True),
    _check("fourvar.spread", {"fourvar", "reduction"}, "fourvar",
           ("tasks", 2, "spread"), 3),
    _check("fourvar.degree", {"fourvar", "reduction"}, "fourvar",
           ("tasks", 3, "degree"), 2),
    _check("stab.stable_from", {"stab", "multiplicity"}, "stab",
           ("tasks", 0, "stable_from"), 1),
    _check("stab.radical_maximal", {"stab", "multiplicity"}, "stab",
           ("tasks", 0, "radical_is_maximal"), True),
    _check("stab.t", {"stab", "multiplicity"}, "stab",
           ("tasks", 1, "t"), 0),
    _check("stab.e_degree", {"stab", "multiplicity"}, "stab",
           ("tasks", 1, "degree"), 2),
    _check("stab.depth_hypothesis", {"stab", "multiplicity"}, "stab",
           ("tasks", 1, "hypotheses", "depth_positive"), "failed"),
    _check("spread3.spread", {"spread3", "multiplicity"}, "spread3",
           ("tasks", 0, "spread"), 3),
    _check("spread3.integral", {"spread3", "multiplicity"}, "spread3",
           ("tasks", 1, "is_reduction"), True),
    _check("spread3.stable_from", {"spread3", "multiplicity"}, "spread3",
           ("tasks", 2, "stable_from"), 1),
    _check("filt.levels", {"filt", "filtration"}, "filt",
           ("tasks", 0, "table", "values"), [1] * 8),
    _check("filt.normalized", {"filt", "filtration"}, "filt",
           ("tasks", 0, "normalized", "verdict"), "VANISHES"),
    _check("filt.reduction", {"filt", "filtration"}, "filt",
           ("tasks", 1, "is_reduction"), False),
    _check("filt.degree", {"filt", "filtration"}, "filt",
           ("tasks", 2, "degree"), 2),
)


def _get(report, path):
    value = report
    for step in path:
        value = value[step]
    return value


def run_corpus(filter_tag=None, perturb=None):
    """Run the bundled sessions and compare every selected check.

    filter_tag keeps only the checks carrying that tag; sessions no
    check needs are not run.  perturb maps check names to replacement
    expectations, for the self-test that a wrong value is caught.
    """
    checks = [
        c for c in CHECKS if filter_tag is None or filter_tag in c.tags
    ]
    if not checks:
        known = sorted({t for c in CHECKS for t in c.tags})
        raise PreconditionError(
            f"no corpus checks carry the tag {filter_tag!r}; "
            f"known tags: {', '.join(known)}"
        )
    needed = sorted({c.session for c in checks})
    reports = {
        name: run_session(parse_session(CORPUS[name])) for name in needed
    }
    results = []
    passed = failed = 0
    for check in checks:
        expected = check.expected
        if perturb and check.name in perturb:
            expected = perturb[check.name]
        try:
            got = _get(reports[check.session], check.path)
        except (KeyError, IndexError, TypeError):
            got = "<missing>"
        ok = got == expected
        passed += ok
        failed += not ok
        results.append(
            {
                "name": check.name,
                "session": check.session,
                "tags": sorted(check.tags),
                "expected": expected,
                "got": got,
                "status": "PASS" if ok else "FAIL",
            }
        )
    return {"checks": results, "passed": passed, "failed": failed}
