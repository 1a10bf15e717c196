"""Execute parsed sessions and emit exact JSON reports.

Every number in a report is an integer or a {"num","den"} string pair;
floats never appear.  Task failures of the expected kinds (budget,
certification, containment) are recorded in the report and the run
moves on; genuine bugs still raise.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .asymptotics import fit_eventual_polynomial
from .errors import LengthCertificationError, ReeslabError
from .filtrations import (
    ExplicitFiltration,
    PowerFiltrationFamily,
    explicit_filtration_table,
    multi_reduction_test,
    normalized_limit_estimate,
    product_power_table,
)
from .lengths import colength, subquotient_length
from .multiplicity import multiplicity_function
from .reduction import (
    analytic_spread,
    d_sequence_check,
    grade_cm,
    radical_colon_stability,
    radical_contains_variables,
    reduction_test,
    rees_function,
)
from .ring import RationalField, poly_str
from .session import TASK_KINDS, _arg_text, _option_text

CONVENTION = (
    "all invariants are computed in the localization at the ideal "
    "generated by the variables; lengths count at the origin"
)

REPORT_VERSION = "1"


def _frac_json(q):
    q = Fraction(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _fit_json(fit):
    return {
        "binomial_coeffs": [_frac_json(c) for c in fit.binomial_coeffs],
        "degree": "ZERO" if fit.is_zero else fit.degree,
        "stab_index": fit.stabilization_index,
        "window": fit.window,
    }


def _table_json(table):
    return {"start": table.start, "values": list(table.values)}


def _verdict_json(v):
    return {
        "is_reduction": v.is_reduction,
        "reduction_number": v.reduction_number,
        "method": v.method,
        "certified": v.certified,
        "n_max_searched": v.n_max_searched,
    }


def _gens_json(ideal):
    return [poly_str(g) for g in ideal.gens]


def _run_length(session, task):
    ideals = [session.bindings[n] for n in task.args]
    if len(ideals) == 1:
        return {"length": colength(ideals[0])}
    return {"length": subquotient_length(ideals[0], ideals[1])}


def _run_rees(session, task):
    outer = session.bindings[task.args[0]]
    inner = session.bindings[task.args[1]]
    n_range = task.options.get("nrange", range(1, 9))
    window = task.options.get("window", 3)
    table = rees_function(outer, inner, n_range)
    fit = fit_eventual_polynomial(table.values, table.start, window)
    return {
        "table": _table_json(table),
        "fit": _fit_json(fit),
        "degree": "ZERO" if fit.is_zero else fit.degree,
    }


def _run_reduction(session, task):
    outer = session.bindings[task.args[0]]
    inner = session.bindings[task.args[1]]
    verdict = reduction_test(outer, inner, task.options.get("nmax", 10))
    return _verdict_json(verdict)


def _run_spread(session, task):
    return {"spread": analytic_spread(session.bindings[task.args[0]])}


def _run_grade(session, task):
    return {"grade": grade_cm(session.bindings[task.args[0]])}


def _run_dseq(session, task):
    seq = [session.bindings[n] for n in task.args]
    report = d_sequence_check(seq)
    return {
        "weak": report.is_d_sequence_weak,
        "strict": report.is_d_sequence_strict,
        "failing_witness": report.failing_witness,
    }


def _run_radcolon(session, task):
    outer = session.bindings[task.args[0]]
    inner = session.bindings[task.args[1]]
    report = radical_colon_stability(outer, inner, task.options.get("nmax", 3))
    return {
        "stable_from": report.stable_from,
        "proxy_generators": _gens_json(report.proxy),
        "radical_is_maximal": radical_contains_variables(report.proxy),
        "chain": [_gens_json(c) for c in report.chain],
    }


def _run_mult(session, task):
    outer = session.bindings[task.args[0]]
    inner = session.bindings[task.args[1]]
    report = multiplicity_function(
        outer,
        inner,
        n_range=task.options.get("nrange"),
        stab_n_max=task.options.get("nmax", 3),
        window=task.options.get("window", 3),
    )
    return {
        "t": report.t,
        "stable_from": report.r,
        "proxy_generators": _gens_json(report.proxy),
        "e_table": _table_json(report.e_table),
        "e_fit": _fit_json(report.e_fit),
        "degree": "ZERO" if report.e_fit.is_zero else report.e_fit.degree,
        "verdicts": dict(report.verdicts),
        "hypotheses": dict(report.hypotheses),
    }


def _normalized_json(nl):
    return {
        "values": [_frac_json(v) for v in nl.values],
        "verdict": nl.verdict,
        "d": nl.d,
        "fit": _fit_json(nl.fit),
        "basis": nl.basis,
    }


def _run_filtration(session, task):
    mode = task.args[0]
    d = task.options.get("d", session.ring.dim)
    if mode == "explicit":
        levels_a = task.args[1]
        levels_b = task.args[2]
        levels_a = levels_a if isinstance(levels_a, tuple) else (levels_a,)
        levels_b = levels_b if isinstance(levels_b, tuple) else (levels_b,)
        fi = ExplicitFiltration([session.bindings[n] for n in levels_a])
        fj = ExplicitFiltration([session.bindings[n] for n in levels_b])
        table = explicit_filtration_table(fi, fj)
        out = {"mode": "explicit", "table": _table_json(table)}
        if len(table.values) >= 5:
            out["normalized"] = _normalized_json(
                normalized_limit_estimate(table, d)
            )
        return out
    pairs = [
        (session.bindings[a], session.bindings[b]) for a, b in task.args[1]
    ]
    family = PowerFiltrationFamily(pairs, task.options.get("weights"))
    out = {"mode": "power"}
    # the level quotients may have infinite length even when every
    # reduction verdict is computable; keep the verdicts in that case
    try:
        table = product_power_table(
            family, task.options.get("mrange", range(1, 6))
        )
    except LengthCertificationError as exc:
        out["table_error"] = str(exc)
    else:
        out["table"] = _table_json(table)
        if len(table.values) >= 5:
            out["normalized"] = _normalized_json(
                normalized_limit_estimate(table, d)
            )
    multi = multi_reduction_test(family, task.options.get("nmax", 10))
    out["reduction"] = {
        "per_pair": [_verdict_json(v) for v in multi.per_pair],
        "product": _verdict_json(multi.product),
        "consistent": multi.consistent,
        "grade_positive": multi.grade_positive,
        "basis": multi.basis,
    }
    return out


_DISPATCH = {
    "length": _run_length,
    "rees": _run_rees,
    "reduction": _run_reduction,
    "spread": _run_spread,
    "grade": _run_grade,
    "dseq": _run_dseq,
    "radcolon": _run_radcolon,
    "mult": _run_mult,
    "filtration": _run_filtration,
}


def run_task(session, task):
    record = {
        "kind": task.kind,
        "args": [_arg_text(a) for a in task.args],
        "options": {
            k: _option_text(v) if not isinstance(v, int) else v
            for k, v in task.options.items()
        },
    }
    begin = time.perf_counter()
    try:
        record.update(_DISPATCH[task.kind](session, task))
        record["status"] = "ok"
    except ReeslabError as exc:
        record["status"] = "error"
        record["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
        }
    record["elapsed_ms"] = int(round((time.perf_counter() - begin) * 1000))
    return record


def run_session(session):
    """Run every task and assemble the report; task order is kept."""
    if session.ring is None:
        ring_json = None
    else:
        field = session.ring.field
        ring_json = {
            "field": "q" if isinstance(field, RationalField) else f"f<{field.p}>",
            "variables": list(session.ring.variables),
        }
    bindings_json = []
    for name in session.names:
        bound = session.bindings[name]
        entry = {"name": name, "kind": session.kinds[name]}
        if session.kinds[name] == "ideal":
            entry["generators"] = _gens_json(bound)
        else:
            entry["generators"] = [poly_str(bound)]
        bindings_json.append(entry)
    records = [run_task(session, t) for t in session.tasks]
    return {
        "version": REPORT_VERSION,
        "convention": CONVENTION,
        "ring": ring_json,
        "bindings": bindings_json,
        "tasks": records,
        "ok": all(r["status"] == "ok" for r in records),
    }


_FRACTION_SCHEMA = {
    "type": "object",
    "required": ["num", "den"],
    "properties": {
        "num": {"type": "string", "pattern": "^-?[0-9]+$"},
        "den": {"type": "string", "pattern": "^[0-9]+$"},
    },
    "additionalProperties": False,
}

_FIT_SCHEMA = {
    "type": "object",
    "required": ["binomial_coeffs", "degree", "stab_index", "window"],
    "properties": {
        "binomial_coeffs": {
            "type": "array",
            "items": {"$ref": "#/definitions/fraction"},
        },
        "degree": {
            "oneOf": [
                {"type": "integer", "minimum": 0},
                {"const": "ZERO"},
            ]
        },
        "stab_index": {"type": "integer"},
        "window": {"type": "integer", "minimum": 3},
    },
}

_TABLE_SCHEMA = {
    "type": "object",
    "required": ["start", "values"],
    "properties": {
        "start": {"type": "integer"},
        "values": {"type": "array", "items": {"type": "integer"}},
    },
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "convention", "ring", "bindings", "tasks", "ok"],
    "definitions": {
        "fraction": _FRACTION_SCHEMA,
        "fit": _FIT_SCHEMA,
        "table": _TABLE_SCHEMA,
    },
    "properties": {
        "version": {"const": REPORT_VERSION},
        "convention": {"type": "string"},
        "ring": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["field", "variables"],
                    "properties": {
                        "field": {"type": "string"},
                        "variables": {
                            "type": "array",
                            "items": {"type": "string"},
                        },
                    },
                },
            ]
        },
        "bindings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "kind", "generators"],
                "properties": {
                    "name": {"type": "string"},
                    "kind": {"enum": ["ideal", "poly"]},
                    "generators": {
                        "type": "array",
                        "items": {"type": "string"},
                    },
                },
            },
        },
        "tasks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "status", "elapsed_ms"],
                "properties": {
                    "kind": {"enum": list(TASK_KINDS)},
                    "status": {"enum": ["ok", "error"]},
                    "elapsed_ms": {"type": "integer", "minimum": 0},
                    "table": {"$ref": "#/definitions/table"},
                    "e_table": {"$ref": "#/definitions/table"},
                    "fit": {"$ref": "#/definitions/fit"},
                    "e_fit": {"$ref": "#/definitions/fit"},
                },
            },
        },
        "ok": {"type": "boolean"},
    },
}
