"""Shared exception types, and the base of the package's value classes."""

_setattr = object.__setattr__
_EMPTY_HASH = hash(())


def _same_class(self, other):
    return other.__class__ is self.__class__ or NotImplemented


def _empty_hash(self):
    return _EMPTY_HASH


class FrozenValue:
    """Base of the package's immutable value classes.

    A subclass declares its fields as class annotations, in order, and a
    default by assignment, as for a frozen dataclass.  It gets the
    constructor over those fields, then its `__post_init__`; `repr` text
    `Name(f=v, ...)`; equality only with an instance of its own class,
    field by field; `hash` of the field tuple; and AttributeError on
    assignment or deletion.  The fields live in the instance `__dict__`,
    in declaration order.

    It replaces `dataclasses`, whose cost every command paid in a fresh
    interpreter.  On Python 3.11.7, `import reeslab` took 46 ms: 5.7 ms
    of it importing `dataclasses`, which loads 12 more modules
    (`inspect`, `ast`, `dis`, `tokenize`, ...), and about 10 ms of it
    generating the methods of 17 frozen dataclasses by `exec`.  These
    methods are written once, here.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        if not cls._fields:
            # RationalField and the orders: every ring equality compares
            # a field, and every Groebner cache lookup hashes an order
            cls.__eq__, cls.__hash__ = _same_class, _empty_hash

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # a fresh dict: filling `self.__dict__` in place made attribute
        # reads about three times slower on CPython 3.11
        _setattr(self, "__dict__", dict(zip(fields, args)))
        self.__post_init__()

    def _bind(self, args, kwargs):
        # the field values in order, from a call that does not pass every
        # field by position; raises TypeError as a plain function would
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            given[key] = value
        given = {**self._defaults, **given}
        missing = [f for f in fields if f not in given]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [given[f] for f in fields]

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in self.__dict__.items())
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ReeslabError(Exception):
    """Base class for every error raised by this package."""


class RingMismatchError(ReeslabError):
    """Operands belong to different rings."""


class ZeroPolynomialError(ReeslabError):
    """Leading-term data requested from the zero polynomial."""


class ResourceBudgetError(ReeslabError):
    """A Groebner run exceeded its configured basis/pair budget."""


class ExponentOverflowError(ReeslabError):
    """An exponent or degree outgrew the packed fields of a Groebner run."""


class NotStabilizedError(ReeslabError):
    """A sample table did not settle into a polynomial within its window."""


class LengthCertificationError(ReeslabError):
    """A requested length is not a finite certified value: the quotient
    has infinite length, or its Hilbert series contradicts a containment."""


class ContainmentError(ReeslabError):
    """A required ideal containment does not hold."""


class PreconditionError(ReeslabError):
    """An operation's documented precondition failed."""


class ParseError(ReeslabError):
    """A session file failed to parse; carries the offending location."""

    def __init__(self, message, line, column, text=""):
        self.line = line
        self.column = column
        self.text = text
        caret = ""
        if text:
            caret = f"\n  {text}\n  {' ' * (column - 1)}^"
        super().__init__(f"line {line}, column {column}: {message}{caret}")

