"""Session files: a small line-oriented language for driving the toolkit.

A session declares one ring, binds ideals and polynomials to names, and
queues tasks.  The statement forms:

    ring q[x,y]            rationals; f<p>[...] for the prime field
    ideal NAME = expr, expr, ...
    poly NAME = expr
    task KIND arg ... key=val ...
    # comment (whole line or trailing)

Expressions admit integers, ring variables, + - * ^ and parentheses.
Every parse failure names its line and column and repeats the line with
a caret under the offending spot.
"""

from __future__ import annotations

import re

from .errors import FrozenValue, ParseError
from .groebner import Ideal
from .ring import PolyRing, PrimeField, RationalField, poly_str

# the task kinds, in this order, and the key=val options each admits
_TASK_OPTIONS = {
    "length": (),
    "rees": ("nrange", "window"),
    "reduction": ("nmax",),
    "spread": (),
    "grade": (),
    "dseq": (),
    "radcolon": ("nmax",),
    "mult": ("nrange", "nmax", "window"),
    "filtration": ("d", "mrange", "weights", "nmax"),
}

TASK_KINDS = tuple(_TASK_OPTIONS)

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)"
    r"|(?P<dots>\.\.)"
    r"|(?P<op>[-+*^()=,\[\]<>:])"
)


class Token(FrozenValue):
    kind: str
    text: str
    column: int


class _Cursor:
    """Token stream over one line, with located errors."""

    __slots__ = ("tokens", "pos", "line_no", "text")

    def __init__(self, tokens, line_no, text):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.text = text

    def error(self, message, column=None):
        if column is None:
            if self.pos < len(self.tokens):
                column = self.tokens[self.pos].column
            else:
                column = len(self.text.rstrip()) + 1
        raise ParseError(message, self.line_no, column, self.text.rstrip("\n"))

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def expect(self, what, kind=None, text=None):
        tok = self.peek()
        if tok is None or (kind and tok.kind != kind) or (text and tok.text != text):
            self.error(f"expected {what}")
        self.pos += 1
        return tok

    def at_end(self):
        return self.pos >= len(self.tokens)


def _tokenize(line, line_no):
    cut = line.find("#")
    body = line if cut < 0 else line[:cut]
    tokens = []
    pos = 0
    while pos < len(body):
        m = _TOKEN.match(body, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {body[pos]!r}",
                line_no,
                pos + 1,
                line.rstrip("\n"),
            )
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    return tokens


def _parse_expression(cur, ring):
    def atom():
        tok = cur.peek()
        if tok is None:
            cur.error("expected a number, variable, or '('")
        if tok.kind == "int":
            cur.next()
            return ring.const(int(tok.text))
        if tok.kind == "name":
            cur.next()
            try:
                return ring.var(tok.text)
            except KeyError:
                cur.error(f"unknown variable {tok.text!r}", tok.column)
        if tok.kind == "op" and tok.text == "(":
            cur.next()
            inner = expr()
            cur.expect("')'", kind="op", text=")")
            return inner
        cur.error("expected a number, variable, or '('")

    def factor():
        tok = cur.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            cur.next()
            return -factor()
        base = atom()
        tok = cur.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            cur.next()
            e = cur.expect("an integer exponent", kind="int")
            return base ** int(e.text)
        return base

    def term():
        f = factor()
        while True:
            tok = cur.peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                return f
            cur.next()
            f = f * factor()

    def expr():
        t = term()
        while True:
            tok = cur.peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return t
            cur.next()
            other = term()
            t = t + other if tok.text == "+" else t - other

    return expr()


class Task(FrozenValue):
    kind: str
    args: tuple
    options: dict


class Session:
    """One parsed session: ring, ordered bindings, ordered tasks."""

    __slots__ = ("ring", "bindings", "kinds", "names", "tasks")

    def __init__(self, ring, bindings, kinds, names, tasks):
        self.ring = ring
        self.bindings = bindings
        self.kinds = kinds
        self.names = tuple(names)
        self.tasks = tuple(tasks)

    def __eq__(self, other):
        if not isinstance(other, Session):
            return NotImplemented
        if (self.ring is None) != (other.ring is None):
            return False
        if self.ring is not None and self.ring != other.ring:
            return False
        if self.names != other.names or self.tasks != other.tasks:
            return False
        for name in self.names:
            if self.kinds[name] != other.kinds[name]:
                return False
            mine, theirs = self.bindings[name], other.bindings[name]
            if self.kinds[name] == "ideal":
                if tuple(mine.gens) != tuple(theirs.gens):
                    return False
            elif mine != theirs:
                return False
        return True

    def canonical_text(self):
        """Stable emission; reparsing it reproduces this session."""
        lines = []
        if self.ring is not None:
            field = self.ring.field
            vars_ = ",".join(self.ring.variables)
            if isinstance(field, RationalField):
                lines.append(f"ring q[{vars_}]")
            else:
                lines.append(f"ring f<{field.p}>[{vars_}]")
        for name in self.names:
            bound = self.bindings[name]
            if self.kinds[name] == "ideal":
                body = ", ".join(
                    poly_str(g, allow_fractions=False) for g in bound.gens
                )
                lines.append(f"ideal {name} = {body}")
            else:
                lines.append(
                    f"poly {name} = {poly_str(bound, allow_fractions=False)}"
                )
        for task in self.tasks:
            lines.append(_task_text(task))
        return "\n".join(lines) + "\n"


def _arg_text(arg):
    if isinstance(arg, tuple) and arg and isinstance(arg[0], tuple):
        return ",".join(":".join(item) for item in arg)
    if isinstance(arg, tuple):
        return ",".join(arg)
    return arg


def _option_text(value):
    if isinstance(value, range):
        return f"{value.start}..{value.stop - 1}"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _task_text(task):
    parts = ["task", task.kind]
    parts.extend(_arg_text(a) for a in task.args)
    for key in sorted(task.options):
        parts.append(f"{key}={_option_text(task.options[key])}")
    return " ".join(parts)


def _parse_ring(cur):
    tok = cur.expect("a field letter, q or f", kind="name")
    if tok.text == "q":
        field = RationalField()
    elif tok.text == "f":
        cur.expect("'<'", kind="op", text="<")
        p = cur.expect("a prime", kind="int")
        cur.expect("'>'", kind="op", text=">")
        try:
            field = PrimeField(int(p.text))
        except ValueError as exc:
            cur.error(str(exc), p.column)
    else:
        cur.error(f"unknown field {tok.text!r}; use q or f<p>", tok.column)
    cur.expect("'['", kind="op", text="[")
    names = []
    while True:
        name = cur.expect("a variable name", kind="name")
        if name.text in names:
            cur.error(f"duplicate variable {name.text!r}", name.column)
        names.append(name.text)
        tok = cur.peek()
        if tok is not None and tok.kind == "op" and tok.text == ",":
            cur.next()
            continue
        break
    cur.expect("']'", kind="op", text="]")
    if not cur.at_end():
        cur.error("unexpected text after ring declaration")
    return PolyRing(tuple(names), field)


def _parse_range_value(cur, tok):
    lo = int(tok.text)
    nxt = cur.peek()
    if nxt is not None and nxt.kind == "dots":
        cur.next()
        hi_tok = cur.expect("an integer after '..'", kind="int")
        hi = int(hi_tok.text)
        if hi < lo:
            cur.error("empty range", hi_tok.column)
        return range(lo, hi + 1)
    if nxt is not None and nxt.kind == "op" and nxt.text == ",":
        values = [lo]
        while nxt is not None and nxt.kind == "op" and nxt.text == ",":
            cur.next()
            v = cur.expect("an integer", kind="int")
            values.append(int(v.text))
            nxt = cur.peek()
        return tuple(values)
    return lo


def _parse_task(cur, session_names, kinds):
    kind_tok = cur.expect("a task kind", kind="name")
    kind = kind_tok.text
    if kind not in TASK_KINDS:
        cur.error(f"unknown task kind {kind!r}", kind_tok.column)
    args = []
    options = {}
    while not cur.at_end():
        tok = cur.expect("a name or option", kind="name")
        nxt = cur.peek()
        if nxt is not None and nxt.kind == "op" and nxt.text == "=":
            cur.next()
            key = tok.text
            if key not in _TASK_OPTIONS[kind]:
                cur.error(f"task {kind} takes no option {key!r}", tok.column)
            if key in options:
                cur.error(f"duplicate option {key!r}", tok.column)
            val_tok = cur.expect("an integer", kind="int")
            value = _parse_range_value(cur, val_tok)
            wants_range = key in ("nrange", "mrange")
            if wants_range and isinstance(value, int):
                value = range(value, value + 1)
            if key == "weights" and isinstance(value, int):
                value = (value,)
            shape = range if wants_range else tuple if key == "weights" else int
            if not isinstance(value, shape):
                cur.error(f"option {key} has the wrong shape", val_tok.column)
            options[key] = value
            continue
        if options:
            cur.error("positional arguments must precede options", tok.column)
        # an argument: NAME, NAME:NAME, or a comma list of those
        items = []
        while True:
            item = tok.text
            nxt = cur.peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == ":":
                cur.next()
                second = cur.expect("a name after ':'", kind="name")
                item = (tok.text, second.text)
            items.append(item)
            nxt = cur.peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == ",":
                cur.next()
                tok = cur.expect("a name", kind="name")
                continue
            break
        if len(items) == 1 and not isinstance(items[0], tuple):
            args.append(items[0])
        else:
            args.append(tuple(items))
    task = Task(kind, tuple(args), options)
    _check_task(task, cur, kind_tok, session_names, kinds)
    return task


def _require_bound(cur, col, name, session_names, kinds, want):
    if name not in session_names:
        cur.error(f"unknown name {name!r}", col)
    if kinds[name] != want:
        cur.error(f"{name!r} is bound to a {kinds[name]}, not a {want}", col)


def _check_task(task, cur, kind_tok, session_names, kinds):
    kind = task.kind
    col = kind_tok.column

    def need_ideals(names):
        for n in names:
            if not isinstance(n, str):
                cur.error(f"task {kind} takes plain names", col)
            _require_bound(cur, col, n, session_names, kinds, "ideal")

    if kind == "length":
        if len(task.args) not in (1, 2):
            cur.error("task length takes one or two ideal names", col)
        need_ideals(task.args)
    elif kind in ("rees", "reduction", "radcolon", "mult"):
        if len(task.args) != 2:
            cur.error(f"task {kind} takes exactly two ideal names", col)
        need_ideals(task.args)
    elif kind in ("spread", "grade"):
        if len(task.args) != 1:
            cur.error(f"task {kind} takes exactly one ideal name", col)
        need_ideals(task.args)
    elif kind == "dseq":
        if not task.args:
            cur.error("task dseq needs at least one polynomial name", col)
        for n in task.args:
            if not isinstance(n, str):
                cur.error("task dseq takes plain names", col)
            _require_bound(cur, col, n, session_names, kinds, "poly")
    elif kind == "filtration":
        if not task.args or task.args[0] not in ("explicit", "power"):
            cur.error(
                "task filtration starts with 'explicit' or 'power'", col
            )
        if task.args[0] == "explicit":
            if len(task.args) != 3:
                cur.error(
                    "explicit filtration takes two comma lists of levels", col
                )
            for arg in task.args[1:]:
                levels = arg if isinstance(arg, tuple) else (arg,)
                need_ideals(levels)
            for key in ("weights", "nmax"):
                if key in task.options:
                    cur.error(
                        f"option {key} applies to power families only", col
                    )
        else:
            pairs = task.args[1:]
            if len(pairs) != 1:
                cur.error("power filtration takes one list of I:J pairs", col)
            lst = pairs[0]
            if isinstance(lst, tuple) and lst and isinstance(lst[0], str):
                cur.error("power filtration pairs are written I:J", col)
            lst = lst if isinstance(lst, tuple) else (lst,)
            for item in lst:
                if not isinstance(item, tuple):
                    cur.error("power filtration pairs are written I:J", col)
                need_ideals(item)
            if "weights" in task.options and len(
                task.options["weights"]
            ) != len(lst):
                cur.error("one weight per pair", col)
    window = task.options.get("window")
    if window is not None and window < 3:
        cur.error("window must be at least 3", col)
    for key in ("nmax", "d"):
        if key in task.options and task.options[key] < 0:
            cur.error(f"{key} must be nonnegative", col)
    if "weights" in task.options and any(
        w < 1 for w in task.options["weights"]
    ):
        cur.error("weights must be positive", col)
    if "mrange" in task.options and task.options["mrange"].start < 1:
        cur.error("mrange must start at 1 or later", col)


def parse_session(text):
    ring = None
    bindings = {}
    kinds = {}
    names = []
    tasks = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if not tokens:
            continue
        cur = _Cursor(tokens, line_no, raw)
        head = cur.expect("a statement", kind="name")
        if head.text == "ring":
            if ring is not None:
                cur.error("the ring is already declared", head.column)
            if names or tasks:
                cur.error(
                    "the ring must be declared before bindings and tasks",
                    head.column,
                )
            ring = _parse_ring(cur)
        elif head.text in ("ideal", "poly"):
            if ring is None:
                cur.error("declare the ring first", head.column)
            name_tok = cur.expect("a name", kind="name")
            name = name_tok.text
            if name in bindings:
                cur.error(f"duplicate name {name!r}", name_tok.column)
            if name in ring.variables:
                cur.error(
                    f"{name!r} is a ring variable; pick another name",
                    name_tok.column,
                )
            cur.expect("'='", kind="op", text="=")
            if head.text == "poly":
                value = _parse_expression(cur, ring)
                if not cur.at_end():
                    cur.error("unexpected text after expression")
                kinds[name] = "poly"
            else:
                gens = [_parse_expression(cur, ring)]
                while not cur.at_end():
                    cur.expect("','", kind="op", text=",")
                    gens.append(_parse_expression(cur, ring))
                value = Ideal(ring, tuple(gens))
                kinds[name] = "ideal"
            bindings[name] = value
            names.append(name)
        elif head.text == "task":
            tasks.append(_parse_task(cur, bindings, kinds))
        else:
            cur.error(
                f"unknown statement {head.text!r}; expected ring, ideal, "
                "poly, or task",
                head.column,
            )
    return Session(ring, bindings, kinds, names, tasks)
