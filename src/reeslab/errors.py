"""Shared exception types."""


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

