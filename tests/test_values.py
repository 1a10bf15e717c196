"""Value semantics of the package's frozen value classes.

Each class below was a frozen dataclass.  The checks pin what callers
and reports see of them: the constructor signature, equality and hash
over the field tuple, the `repr` text, and immutability.
"""

from fractions import Fraction

import pytest

from reeslab import (
    BlockElimination,
    EventualPolynomial,
    FunctionTable,
    GrevLex,
    Ideal,
    Lex,
    PolyRing,
    PrimeField,
    RationalField,
    ResourceBudget,
)
from reeslab.corpus import CorpusCheck
from reeslab.errors import FrozenValue
from reeslab.filtrations import MultiReductionReport, NormalizedLimit
from reeslab.multiplicity import MultiplicityReport
from reeslab.reduction import (
    CriterionReport,
    DSequenceReport,
    RadicalColonReport,
    ReductionVerdict,
)
from reeslab.session import Task, Token

R = PolyRing(("x", "y"))
x, y = R.gens()
IDEAL = Ideal(R, [x, y])
TABLE = FunctionTable(1, (0, 1, 3))
FIT = EventualPolynomial((Fraction(1, 2), 1), 2, 1, 3)
VERDICT = ReductionVerdict(True, 1, "direct", 10, True)

# each class with its fields, in declaration order
CASES = [
    (RationalField, {}),
    (PrimeField, {"p": 7}),
    (GrevLex, {}),
    (Lex, {}),
    (BlockElimination, {"first_block": 2}),
    (ResourceBudget, {"max_basis": 10, "max_pairs": 20}),
    (
        EventualPolynomial,
        {
            "binomial_coeffs": (Fraction(1, 2), 1),
            "degree": 2,
            "stabilization_index": 1,
            "window": 3,
        },
    ),
    (FunctionTable, {"start": 1, "values": (0, 1, 3)}),
    (
        NormalizedLimit,
        {
            "values": (Fraction(1, 4), Fraction(1, 9)),
            "verdict": "GROWS",
            "d": 2,
            "fit": FIT,
            "basis": "OBSERVED",
        },
    ),
    (
        MultiReductionReport,
        {
            "per_pair": (VERDICT,),
            "product": VERDICT,
            "consistent": True,
            "grade_positive": False,
            "basis": "OBSERVED",
        },
    ),
    (
        MultiplicityReport,
        {
            "proxy": IDEAL,
            "r": 1,
            "t": 2,
            "e_table": TABLE,
            "e_fit": FIT,
            "verdicts": {"theorem": "HOLDS"},
            "hypotheses": {"m_primary": True},
        },
    ),
    (
        ReductionVerdict,
        {
            "is_reduction": True,
            "reduction_number": 1,
            "method": "direct",
            "n_max_searched": 10,
            "certified": True,
        },
    ),
    (
        CriterionReport,
        {"verdict": "REDUCTION", "table": TABLE, "fit": FIT, "dim": 2},
    ),
    (
        DSequenceReport,
        {
            "is_d_sequence_weak": True,
            "is_d_sequence_strict": False,
            "failing_witness": None,
        },
    ),
    (RadicalColonReport, {"stable_from": 1, "proxy": IDEAL, "chain": (IDEAL,)}),
    (Token, {"kind": "name", "text": "x", "column": 3}),
    (Task, {"kind": "length", "args": ("I", "J"), "options": {}}),
    (
        CorpusCheck,
        {
            "name": "deg1.length",
            "tags": frozenset({"deg1"}),
            "session": "deg1",
            "path": ("tasks", 0, "length"),
            "expected": 1,
        },
    ),
]


@pytest.mark.parametrize(
    "cls, fields", CASES, ids=[cls.__name__ for cls, _ in CASES]
)
def test_value_semantics(cls, fields):
    values = tuple(fields.values())
    value = cls(*values)
    assert cls(**fields) == value
    for name, v in fields.items():
        assert getattr(value, name) is v

    # equality: field by field, and only within one class
    twin = type(cls.__name__, (FrozenValue,), {"__annotations__": dict(fields)})
    assert value != twin(*values)
    assert value != values
    assert value.__eq__(values) is NotImplemented
    if fields:
        first = next(iter(fields))
        # 11 differs from every first value here, and is prime
        assert value != cls(**{**fields, first: 11})
    try:
        want = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == want
        assert len({value, cls(*values)}) == 1

    inner = ", ".join(f"{name}={v!r}" for name, v in fields.items())
    assert repr(value) == f"{cls.__name__}({inner})"

    # frozen: no field or new attribute can be set or deleted
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, "other")
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "extra")
    assert value == cls(*values)
    for name, v in fields.items():
        assert getattr(value, name) is v

    # the constructor takes the fields and nothing else
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    if fields:
        with pytest.raises(TypeError):
            cls(*values, **{first: values[0]})
    if fields and cls is not ResourceBudget:  # its fields all have defaults
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in fields.items() if k != first})


def test_defaults_fill_trailing_fields():
    assert ResourceBudget() == ResourceBudget(5000, 200000)
    assert ResourceBudget(max_pairs=9) == ResourceBudget(5000, 9)
    limit = NormalizedLimit((1,), "GROWS", 2, FIT)
    assert limit.basis == "OBSERVED"
    assert limit == NormalizedLimit((1,), "GROWS", 2, FIT, "OBSERVED")
    with pytest.raises(TypeError):
        NormalizedLimit((1,), "GROWS", basis="OBSERVED")


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="6 is not prime"):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(p=1)
