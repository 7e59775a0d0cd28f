"""AST, parser, pretty printer and length metric for strategic-epistemic formulas.

The language has atoms, boolean connectives, coalition temporal operators
(next / globally / until, with "finally" as sugar for a trivial until),
individual and mutual knowledge, and a quantitative uncertainty operator
that compares the log-count of valuation classes against a threshold.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import reduce
from operator import attrgetter, is_

CMPS = ("<", "<=", ">", ">=", "=")

# Deepest formula the parser accepts. The parser recurses up to four times per
# parenthesis, so this stays far below Python's default recursion limit of
# 1000. Nothing else recurses over a formula: `==` and `hash` run on
# `subformula_rows`, and the other walkers keep their own stacks too (`fold`
# runs on those rows, and `pretty_print`), so translations may build far
# deeper ones.
MAX_DEPTH = 100


class FormulaError(ValueError):
    """Raised for malformed formula text or ill-formed AST nodes."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


# the longest formula, by `formula_length`, that `repr` prints in full
_REPR_MAX_LENGTH = 10_000

# Constructors store fields with this: `_Frozen` refuses plain assignment.
_set = object.__setattr__


class _Frozen:
    """Immutable slotted values: formula nodes and thresholds.

    Each class lists its fields in `__slots__` and takes them, in that
    order, as constructor arguments; `__reduce__` relies on it, so pickle
    and `copy.deepcopy` rebuild a value through its constructor.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class _Fields:
    """`dataclasses.fields(node)` for code that walks nodes that way, as the
    benchmark's input counts do: each node class's fields as those of a
    matching dataclass, made when first read. Only an instance has them, so
    `dataclasses.is_dataclass` stays false for nodes and their classes."""

    def __init__(self):
        self.made: dict = {}  # class -> its fields

    def __get__(self, node, cls):
        if node is None:
            raise AttributeError("__dataclass_fields__")
        if cls not in self.made:
            from dataclasses import make_dataclass

            self.made[cls] = make_dataclass(cls.__name__, cls.__slots__).__dataclass_fields__
        return self.made[cls]


class _Node(_Frozen):
    """Shared behaviour for all formula nodes.

    Each class lists its own fields, then its child fields, in `__slots__`
    (`__match_args__` is the same tuple). Structure is the one equality
    rule: two nodes are equal when `member_rows` gives them one row.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    # Child fields, the last fields of every formula class; see `children`.
    _kids: tuple[str, ...] = ()
    __dataclass_fields__ = _Fields()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        t = type(self)
        if type(other) is not t or _KEYS[t](self) != _KEYS[t](other):
            return False
        mine, theirs = member_rows((self, other))
        return mine == theirs

    def __hash__(self):
        # the row keys of one walk: linear in the DAG, equal for equal nodes
        return hash(tuple((type(g), _KEYS[type(g)](g), kids) for g, kids in subformula_rows(self)))

    def __str__(self) -> str:
        return pretty_print(self)

    def __repr__(self) -> str:
        # a shared DAG can print exponentially long; past the cap, say how long
        length = formula_length(self)
        if length > _REPR_MAX_LENGTH:
            return f"{type(self).__name__}(<{length} nodes>)"
        return f"{type(self).__name__}({pretty_print(self)!r})"


def _is_name(text: str) -> bool:
    """A letter or `_`, then letters, digits or `_` (`str.isalpha`, `str.isalnum`)."""
    return (text[:1].isalpha() or text[:1] == "_") and text.replace("_", "a").isalnum()


def _coalition(agents) -> tuple[str, ...]:
    """A coalition as stored: sorted and without repeats."""
    if isinstance(agents, str):  # would split into one-letter agents
        raise FormulaError(f"a coalition is a collection of agent names, not the string {agents!r}")
    return tuple(sorted(set(agents)))


class Atom(_Node):
    """A named atomic proposition; its name prints back as itself."""

    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not _is_name(name) or name in ("true", "false"):
            raise FormulaError(f"bad atom name {name!r}")
        _set(self, "name", name)


class TrueF(_Node):
    """The constant true."""

    __slots__ = ()


class FalseF(_Node):
    """The constant false."""

    __slots__ = ()


class Not(_Node):
    __slots__ = __match_args__ = _kids = ("sub",)

    def __init__(self, sub: Formula):
        _set(self, "sub", sub)


class And(_Node):
    __slots__ = __match_args__ = _kids = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class Or(_Node):
    __slots__ = __match_args__ = _kids = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class CoalX(_Node):
    """Coalition can enforce `sub` in the next state."""

    __slots__ = __match_args__ = ("coalition", "sub")
    _kids = __slots__[1:]

    def __init__(self, coalition: tuple[str, ...], sub: Formula):
        _set(self, "coalition", _coalition(coalition))
        _set(self, "sub", sub)


class CoalG(_Node):
    """Coalition can enforce `sub` forever."""

    __slots__ = __match_args__ = ("coalition", "sub")
    _kids = __slots__[1:]

    def __init__(self, coalition: tuple[str, ...], sub: Formula):
        _set(self, "coalition", _coalition(coalition))
        _set(self, "sub", sub)


class CoalU(_Node):
    """Coalition can enforce `hold` until `goal`; F is the `hold = true` case."""

    __slots__ = __match_args__ = ("coalition", "hold", "goal")
    _kids = __slots__[1:]

    def __init__(self, coalition: tuple[str, ...], hold: Formula, goal: Formula):
        _set(self, "coalition", _coalition(coalition))
        _set(self, "hold", hold)
        _set(self, "goal", goal)


class CoalFG(_Node):
    """Coalition can reach `goal` and then maintain `invariant` forever.

    This is the one admitted path pattern that nests G under a coalition F;
    `goal = true` stands for a bare `<A> F (G invariant)`.
    """

    __slots__ = __match_args__ = ("coalition", "goal", "invariant")
    _kids = __slots__[1:]

    def __init__(self, coalition: tuple[str, ...], goal: Formula, invariant: Formula):
        _set(self, "coalition", _coalition(coalition))
        _set(self, "goal", goal)
        _set(self, "invariant", invariant)


class Knows(_Node):
    """Agent knows `sub`: it holds on the agent's whole epistemic class."""

    __slots__ = __match_args__ = ("agent", "sub")
    _kids = __slots__[1:]

    def __init__(self, agent: str, sub: Formula):
        _set(self, "agent", agent)
        _set(self, "sub", sub)


class MutualKnows(_Node):
    """Every coalition member knows `sub`."""

    __slots__ = __match_args__ = ("coalition", "sub")
    _kids = __slots__[1:]

    def __init__(self, coalition: tuple[str, ...], sub: Formula):
        coalition = _coalition(coalition)
        if not coalition:
            raise FormulaError("mutual knowledge needs a non-empty coalition")
        _set(self, "coalition", coalition)
        _set(self, "sub", sub)


class _Threshold(_Frozen):
    """A threshold of one field, equal to another of its class and value."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, _Threshold):
            return NotImplemented
        return _threshold_key(self) == _threshold_key(other)

    def __hash__(self):
        return hash(_threshold_key(self))

    def __repr__(self) -> str:
        name = self.__slots__[0]
        return f"{type(self).__name__}({name}={getattr(self, name)!r})"


class LogOfCount(_Threshold):
    """Threshold written `log(k)`: compares the class count against k exactly."""

    __slots__ = __match_args__ = ("count",)

    def __init__(self, count: int):
        _set(self, "count", count)
        _printable(self)
        if type(count) is not int or count < 1:  # `log(True)` would not parse
            raise FormulaError(f"log threshold needs a positive int count, got {count!r}")

    def __str__(self) -> str:
        return f"log({self.count})"


class Real(_Threshold):
    """Threshold given as a non-negative rational number of bits."""

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: Fraction):
        _set(self, "value", Fraction(value))
        _printable(self)
        if self.value < 0:
            raise FormulaError(f"uncertainty threshold must be non-negative, got {self.value}")

    def __str__(self) -> str:
        return _format_rational(self.value)


Threshold = LogOfCount | Real


def _printable(threshold) -> None:
    """Refuse a threshold holding an int too long for `str`: its repr,
    its error messages and maybe its str would raise ValueError."""
    try:
        repr(threshold)  # every int it holds
    except ValueError:  # over `sys.get_int_max_str_digits()`
        limit = sys.get_int_max_str_digits()
        raise FormulaError(f"threshold has an integer of more than {limit} digits") from None


class Hartley(_Node):
    """Agent's uncertainty about the formulas in `beta` compares to `threshold`."""

    __slots__ = __match_args__ = ("agent", "cmp", "threshold", "beta")
    _kids = ("beta",)  # the one field holding a tuple of children

    def __init__(self, agent: str, cmp: str, threshold: Threshold, beta):
        beta = tuple(beta)
        if cmp not in CMPS:
            raise FormulaError(f"unknown comparison {cmp!r}")
        if type(threshold) not in (LogOfCount, Real):
            raise FormulaError(f"threshold must be LogOfCount or Real, got {type(threshold).__name__}")
        if not beta:
            raise FormulaError("empty formula set in uncertainty operator")
        if len(beta) > 1 and _tops_repeat(beta):  # else no two are equal
            seen = set()
            for b, row in zip(beta, member_rows(beta)):
                if row in seen:
                    raise FormulaError(f"duplicate formula in uncertainty set: {pretty_print(b)}")
                seen.add(row)
        _set(self, "agent", agent)
        _set(self, "cmp", cmp)
        _set(self, "threshold", threshold)
        _set(self, "beta", beta)


Formula = (
    Atom | TrueF | FalseF | Not | And | Or
    | CoalX | CoalG | CoalU | CoalFG | Knows | MutualKnows | Hartley
)


class _PathG(_Node):
    """Parse-time placeholder for a bare G inside `<A> F (...)`, with the G's position."""

    __slots__ = __match_args__ = ("line", "col", "sub")
    _kids = __slots__[2:]

    def __init__(self, line: int, col: int, sub: Formula):
        _set(self, "line", line)
        _set(self, "col", col)
        _set(self, "sub", sub)


def _format_rational(value: Fraction) -> str:
    """Render a rational exactly: as a decimal when possible, else `p/q`."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    try:
        text = str(value.numerator * 10**digits // value.denominator).rjust(digits + 1, "0")
    except ValueError:  # more digits than `str` converts
        return f"{value.numerator}/{value.denominator}"
    if digits == 0:
        return text
    return f"{text[:-digits]}.{text[-digits:]}"


# ---------------------------------------------------------------------------
# Walking the tree: every walker below keeps its own stack, so formulas far
# deeper than the recursion limit (translations build them) are fine.


def _getter(names):
    """Function returning the fields `names` of a node as a tuple."""
    if len(names) == 1:
        name = names[0]
        return lambda f: (getattr(f, name),)
    return attrgetter(*names) if names else lambda f: ()


_CHILDREN = {cls: _getter(cls._kids) for cls in (*Formula.__args__, _PathG)}
_CHILDREN[Hartley] = attrgetter("beta")
_OTHER_FIELDS = {
    cls: _getter(cls.__slots__[: len(cls.__slots__) - len(cls._kids)]) for cls in Formula.__args__
}


def children(f: Formula) -> tuple:
    """The child formulas of `f`, in printed order."""
    try:
        get = _CHILDREN[type(f)]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None
    return get(f)


def rebuild(f: Formula, kids) -> Formula:
    """`f` with its children replaced by `kids`, or `f` itself if none changed.

    Rewriting can map two members of an uncertainty set to the same formula.
    Equal members add identical coordinates to every valuation pattern, so
    they are merged, first seen first, without changing the pattern count.
    """
    if all(map(is_, kids, children(f))):
        return f
    if type(f) is Hartley:
        kids = (tuple(distinct_members(kids)),)
    return type(f)(*_OTHER_FIELDS[type(f)](f), *kids)


def fold(f: Formula, step):
    """`step(node, values of its children)` for `f`, computed bottom-up once
    per row of `subformula_rows(f)`: a subformula that occurs several times,
    shared object or not, is done once, for the first of its nodes walked."""
    return _row_values(subformula_rows(f), step)[-1]


def _row_values(rows, step) -> list:
    """`step(node, values of its child rows)` for each of `rows`, in order."""
    values: list = []
    for g, kids in rows:
        values.append(step(g, [values[k] for k in kids]))
    return values


def _length(g: Formula, kids) -> int:
    """A `fold` step: `g`'s own length (connective, coalition) plus `kids`'."""
    t = type(g)
    if t is MutualKnows:
        own = len(g.coalition)
    elif t is CoalFG:  # 2 for F, 1 for G, 1 for &; a `true` goal and its & count 0
        own = len(g.coalition) + (2 if type(g.goal) is TrueF else 4)
    else:
        own = len(g.coalition) + 1 if t in (CoalX, CoalG, CoalU) else 1
    return own + sum(kids)


def formula_length(f: Formula) -> int:
    """Node-count length: atoms cost 1, each connective 1, a coalition |A|."""
    return fold(f, _length)


def _threshold_key(t: Threshold) -> tuple:
    """A threshold as a dedupe key: its type and value, no hash of its own."""
    return (LogOfCount, t.count) if type(t) is LogOfCount else (Real, t.value)


# Per node class, the own fields that decide equality along with the
# children, as a tuple that hashes no formula or threshold (a `_PathG`'s
# position takes no part in equality).
_KEYS = dict(_OTHER_FIELDS)
_KEYS[Hartley] = lambda g: (g.agent, g.cmp, *_threshold_key(g.threshold))
_KEYS[_PathG] = lambda g: ()


class _Members(tuple):
    """Pseudo-node whose children are the formulas `member_rows` walks."""


_CHILDREN[_Members] = lambda g: g
_KEYS[_Members] = lambda g: ()


def _tops_repeat(members) -> bool:
    """Whether two of `members` share a class and own fields, as equal
    formulas must; a member that is not a formula raises `TypeError`."""
    seen = set()
    for g in members:
        t = type(g)
        if t not in _KEYS:
            children(g)  # raises
        key = (t, _KEYS[t](g))
        if key in seen:
            return True
        seen.add(key)
    return False


def subformula_rows(f: Formula) -> list[tuple]:
    """Each distinct subformula of `f` once, children before parents, as
    `(node, row numbers of its children)`; the final row is `f` itself.

    Rows come in the order of a recursive post-order walk, children left
    to right. Members of an uncertainty set count as subformulas of the
    operator. Equal nodes share the row of the first one walked: the key is
    the class, the node's own fields (a threshold by its type and value) and
    its children's rows, so no formula is printed or hashed.
    """
    rows: list[tuple] = []
    row_of: dict = {}  # key -> row number
    done: dict = {}  # id(node) -> row number; every node stays alive under `f`
    vals: list[int] = []  # row numbers of finished nodes not yet taken
    stack: list[tuple] = [(f, None)]  # (node, None) to visit, (node, kids) to finish
    while stack:
        g, kids = stack.pop()
        if kids is None:
            i = done.get(id(g))
            if i is not None:  # a node met again, as in And(x, x)
                vals.append(i)
                continue
            kids = children(g)
            stack.append((g, kids))
            for k in reversed(kids):
                stack.append((k, None))
            continue
        n = len(kids)
        if n:  # not for a leaf: vals[-0:] is the whole list
            kid_rows = tuple(vals[-n:])
            del vals[-n:]
        else:
            kid_rows = ()
        t = type(g)
        key = (t, _KEYS[t](g), kid_rows)
        i = row_of.get(key)
        if i is None:
            i = row_of[key] = len(rows)
            rows.append((g, kid_rows))
        done[id(g)] = i
        vals.append(i)
    return rows


def row_texts(rows) -> list[str]:
    """The printed text of each row of `subformula_rows`, made from its
    children's texts: equal to `pretty_print` of the row's node."""
    texts: list[str] = []
    precs: list[int] = []
    for g, kids in rows:
        parts = []
        for p in _TEMPLATES[type(g)](g):
            if type(p) is str:
                parts.append(p)
            else:
                k = kids[p[0]]
                parts.append(texts[k] if precs[k] >= p[1] else "(" + texts[k] + ")")
        texts.append("".join(parts))
        precs.append(_PREC.get(type(g), _PREC_UNARY))
    return texts


def printed_order(rows, texts) -> list[int]:
    """The row numbers of `subformula_rows` in printed order: shortest first,
    ties by printed text (`texts`, from `row_texts`).

    Every proper subformula is shorter than its parent, so this order too
    lists children first, and `f` itself last.
    """
    lengths = _row_values(rows, _length)
    return sorted(range(len(rows)), key=lambda i: (lengths[i], texts[i]))


def subformulas_by_length(f: Formula) -> list[Formula]:
    """The nodes of `subformula_rows(f)` in `printed_order`: all distinct
    subformulas, shortest first with ties by printed text, `f` last."""
    rows = subformula_rows(f)
    return [rows[i][0] for i in printed_order(rows, row_texts(rows))]


def member_rows(formulas) -> tuple[int, ...]:
    """Each of `formulas`' row in one `subformula_rows` walk over all of them:
    two formulas get one row exactly when they are equal."""
    return subformula_rows(_Members(formulas))[-1][1]


def distinct_members(formulas) -> list[Formula]:
    """The first of each group of equal `formulas`, in order."""
    formulas = tuple(formulas)
    first: dict = {}  # row -> formula
    for g, row in zip(formulas, member_rows(formulas)):
        first.setdefault(row, g)
    return list(first.values())


# ---------------------------------------------------------------------------
# Pretty printer

_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3
_PREC = {Or: _PREC_OR, And: _PREC_AND}  # every other node binds as tightly as unary
_PREC_WRAP = _PREC_UNARY + 1  # no node binds this tightly: always in parentheses


def _coalition_text(coalition: tuple[str, ...]) -> str:
    return "<" + ", ".join(coalition) + ">"


def _hartley_template(f: Hartley) -> list:
    pieces: list = [f"H[{f.agent}] {f.cmp} {f.threshold} {{", (0, _PREC_OR)]
    for i in range(1, len(f.beta)):
        pieces += [", ", (i, _PREC_OR)]
    return pieces + ["}"]


# Per node class, the printed form as strings and `(i, least)` pairs: child i,
# in parentheses if it binds less tightly than `least`.
_TEMPLATES = {
    Atom: lambda f: (f.name,),
    TrueF: lambda f: ("true",),
    FalseF: lambda f: ("false",),
    Not: lambda f: ("!", (0, _PREC_UNARY)),
    And: lambda f: ((0, _PREC_AND), " & ", (1, _PREC_UNARY)),
    Or: lambda f: ((0, _PREC_OR), " | ", (1, _PREC_AND)),
    CoalX: lambda f: (_coalition_text(f.coalition) + " X ", (0, _PREC_UNARY)),
    CoalG: lambda f: (_coalition_text(f.coalition) + " G ", (0, _PREC_UNARY)),
    CoalU: lambda f: (
        (_coalition_text(f.coalition) + " F ", (1, _PREC_UNARY))
        if type(f.hold) is TrueF
        else (
            _coalition_text(f.coalition) + " (",
            (0, _PREC_WRAP if _ends_in_atom_g(f.hold) else _PREC_OR),
            " U ",
            (1, _PREC_OR),
            ")",
        )
    ),
    CoalFG: lambda f: (
        (_coalition_text(f.coalition) + " F (G ", (1, _PREC_UNARY), ")")
        if type(f.goal) is TrueF
        else (_coalition_text(f.coalition) + " F (", (0, _PREC_AND), " & G ", (1, _PREC_UNARY), ")")
    ),
    Knows: lambda f: (f"K[{f.agent}] ", (0, _PREC_UNARY)),
    MutualKnows: lambda f: ("E[" + ", ".join(f.coalition) + "] ", (0, _PREC_UNARY)),
    Hartley: _hartley_template,
    _PathG: lambda f: ("G ", (0, _PREC_UNARY)),
}


def _ends_in_atom_g(f: Formula) -> bool:
    """Whether the last token printed for `f` is the atom `G`: the end of its
    chain of rightmost children, unless one of them is parenthesized.

    An until's hold that ends so is printed in parentheses, since the parser
    reads `G U` as a bare G over the atom `U`.
    """
    while type(f) is not Atom:
        if type(f) is CoalU and type(f.hold) is not TrueF:
            return False  # ends in ')', and its template would walk its own hold
        last = _TEMPLATES[type(f)](f)[-1]
        if type(last) is str:
            return False
        f, least = children(f)[last[0]], last[1]
        if _PREC.get(type(f), _PREC_UNARY) < least:
            return False
    return f.name == "G"


def pretty_print(f: Formula) -> str:
    """Concrete syntax for `f`; parsing the result reproduces `f` exactly."""
    out = []
    stack: list = [(f, _PREC_OR)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, least = item
        kids = children(g)
        wrap = _PREC.get(type(g), _PREC_UNARY) < least
        if wrap:
            stack.append(")")
        for p in reversed(_TEMPLATES[type(g)](g)):
            stack.append(p if type(p) is str else (kids[p[0]], p[1]))
        if wrap:
            stack.append("(")
    return "".join(out)


# ---------------------------------------------------------------------------
# Parser

# One token per match, after any blanks: a newline, a comment, a number, an
# identifier, punctuation, any other character (an error), or the end. Every
# position matches, so `finditer` skips no text, and the end branch takes
# trailing blanks in one match instead of a search from each of them.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(\n)|#[^\n]*|(\d+(?:\.\d+)?)|(\w+)|(<=|>=|[!&|()\[\]{}<>=,/])|(.)|\Z)"
)
_KINDS = (None, None, "number", "ident", "punct")


class _Token:
    """One token: its kind ('ident', 'number', 'punct', 'eof'), text and position."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    """Split formula text into tokens, each with its line and column.

    Only space, tab and CR are blanks, one column each; a newline starts the
    next line at column 1. `#` starts a comment up to the end of the line,
    which advances no column: the end of input after a trailing comment is
    reported at the `#`. A number is decimal digits (`str.isdecimal`),
    optionally with a fraction part. An identifier starts with a letter
    (`str.isalpha`) or `_` and goes on with `str.isalnum` characters or `_`.
    Any other character is an error at its own position.
    """
    tokens: list[_Token] = []
    line, start = 1, 0  # start: index of the current line's first character
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind is None:  # a comment, or blanks up to the end
            continue
        i = m.start(kind)
        if kind == 1:
            line, start = line + 1, i + 1
            continue
        word = m.group(kind)
        if kind == 5 or (kind == 3 and not (word[0].isalpha() or word[0] == "_")):
            raise FormulaError(f"unexpected character {word[0]!r}", line, i - start + 1)
        tokens.append(_Token(_KINDS[kind], word, line, i - start + 1))
    end = text.find("#", start)
    tokens.append(_Token("eof", "", line, (len(text) if end < 0 else end) - start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # parse_unary calls in progress: the parser's own recursion
        self.nodes: dict = {}  # key -> node, see `make`; keeps every node alive
        self.depths: dict = {}  # id(node) -> tree depth, as parsed
        self.bare = 0  # `_PathG` nodes made and not absorbed by an F

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> FormulaError:
        tok = tok or self.peek()
        return FormulaError(message, tok.line, tok.col)

    def too_deep(self, tok: _Token) -> FormulaError:
        return self.error(f"formula nested deeper than {MAX_DEPTH} levels", tok)

    def make(self, tok: _Token, cls, own: tuple, *kids: Formula, depth: int = 0) -> Formula:
        """The node `cls(*own, *kids)` read at token `tok`, built once per parse
        (`Hartley` takes its members as one tuple).

        The key is the class, the own fields (coalitions come normalised),
        `depth` and the children's ids. Children come from `make` too, so
        equal subformulas are one object and ids compare them in constant
        time. The tree depth is one above the deepest child unless `depth`
        gives it: a reach-then-maintain F counts one level above its body
        as written, which `x` and `y` of `<A> F (x & G y)` do not determine.
        A new node is built before its depth is checked, so an uncertainty
        set's duplicate member is reported first.
        """
        key = (cls, own, depth, *map(id, kids))
        f = self.nodes.get(key)
        if f is None:
            try:
                f = cls(*own, kids) if cls is Hartley else cls(*own, *kids)
            except FormulaError as exc:
                raise self.error(str(exc), tok) from None
            if not depth:  # one level above the deepest child
                depth = 1
                for i in key[3:]:
                    depth = max(depth, 1 + self.depths[i])
            if depth > MAX_DEPTH:
                raise self.too_deep(tok)
            self.nodes[key] = f
            self.depths[id(f)] = depth
        return f

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def expect_ident(self, what: str = "identifier") -> _Token:
        tok = self.next()
        if tok.kind != "ident":
            raise self.error(f"expected {what}, found {tok.text or 'end of input'!r}", tok)
        return tok

    # grammar: disj := conj ('|' conj)*
    def parse_disj(self) -> Formula:
        f = self.parse_conj()
        while self.peek().text == "|":
            tok = self.next()
            right = self.parse_conj()
            f = self.make(tok, Or, (), f, right)
        return f

    def parse_conj(self) -> Formula:
        f = self.parse_unary()
        while self.peek().text == "&":
            tok = self.next()
            right = self.parse_unary()
            f = self.make(tok, And, (), f, right)
        return f

    def parse_unary(self) -> Formula:
        nots = []
        while self.peek().text == "!":
            nots.append(self.next())
        self.open += 1
        if self.open > MAX_DEPTH:
            raise self.too_deep(self.peek())
        try:
            f = self.parse_atom()
        finally:
            self.open -= 1
        for tok in reversed(nots):
            f = self.make(tok, Not, (), f)
        return f

    def _starts_unary(self) -> bool:
        tok = self.peek()
        return tok.kind == "ident" or tok.text in ("!", "(", "<")

    def parse_atom(self) -> Formula:
        tok = self.next()
        if tok.text == "(":
            f = self.parse_disj()
            self.expect(")")
            return f
        if tok.text == "<":
            coalition = self.parse_coalition_tail()
            return self.parse_temporal(coalition)
        if tok.kind != "ident":
            raise self.error(f"expected a formula, found {tok.text or 'end of input'!r}", tok)
        name = tok.text
        if name == "true":
            return self.make(tok, TrueF, ())
        if name == "false":
            return self.make(tok, FalseF, ())
        if name == "K" and self.peek().text == "[":
            self.next()
            agent = self.expect_ident("agent name").text
            self.expect("]")
            return self.make(tok, Knows, (agent,), self.parse_unary())
        if name == "E" and self.peek().text == "[":
            self.next()
            agents = [self.expect_ident("agent name").text]
            while self.peek().text == ",":
                self.next()
                agents.append(self.expect_ident("agent name").text)
            self.expect("]")
            return self.make(tok, MutualKnows, (_coalition(agents),), self.parse_unary())
        if name == "H" and self.peek().text == "[":
            return self.parse_hartley(tok)
        if name == "G" and self._starts_unary():
            sub = self.parse_unary()
            self.bare += 1
            # its position is an own field, so no two bare Gs are one node
            return self.make(tok, _PathG, (tok.line, tok.col), sub)
        return self.make(tok, Atom, (name,))

    def parse_coalition_tail(self) -> tuple[str, ...]:
        if self.peek().text == ">":
            self.next()
            return ()
        agents = [self.expect_ident("agent name").text]
        while self.peek().text == ",":
            self.next()
            agents.append(self.expect_ident("agent name").text)
        self.expect(">")
        return _coalition(agents)

    def parse_temporal(self, coalition: tuple[str, ...]) -> Formula:
        tok = self.next()
        if tok.text == "X":
            return self.make(tok, CoalX, (coalition,), self.parse_unary())
        if tok.text == "G":
            return self.make(tok, CoalG, (coalition,), self.parse_unary())
        if tok.text == "F":
            return self.finish_finally(coalition, self.parse_unary(), tok)
        if tok.text == "(":
            hold = self.parse_disj()
            self.expect("U")
            goal = self.parse_disj()
            self.expect(")")
            return self.make(tok, CoalU, (coalition,), hold, goal)
        raise self.error(f"expected X, G, F or '(', found {tok.text or 'end of input'!r}", tok)

    def finish_finally(self, coalition, body, tok: _Token) -> Formula:
        """Turn `<A> F body` into an until, or the reach-then-maintain pattern."""
        conjuncts = _flatten_and(body)
        path_parts = [c for c in conjuncts if isinstance(c, _PathG)]
        if not path_parts:
            return self.make(tok, CoalU, (coalition,), self.make(tok, TrueF, ()), body)
        if len(path_parts) > 1:
            raise self.error("at most one G conjunct is supported under F", tok)
        self.bare -= 1
        rest = [c for c in conjuncts if not isinstance(c, _PathG)]
        goal = (
            reduce(lambda x, y: self.make(tok, And, (), x, y), rest)
            if rest else self.make(tok, TrueF, ())
        )
        depth = 1 + self.depths[id(body)]
        return self.make(tok, CoalFG, (coalition,), goal, path_parts[0].sub, depth=depth)

    def parse_hartley(self, tok: _Token) -> Formula:
        self.expect("[")
        agent = self.expect_ident("agent name").text
        self.expect("]")
        cmp_tok = self.next()
        if cmp_tok.text not in CMPS:
            raise self.error(f"unknown comparison token {cmp_tok.text!r}", cmp_tok)
        threshold = self.parse_threshold()
        self.expect("{")
        if self.peek().text == "}":
            raise self.error("empty formula set in uncertainty operator")
        beta = [self.parse_disj()]
        while self.peek().text == ",":
            self.next()
            beta.append(self.parse_disj())
        self.expect("}")
        return self.make(tok, Hartley, (agent, cmp_tok.text, threshold), *beta)

    def numeral(self, tok: _Token) -> Fraction:
        """The value of a number token."""
        try:
            return Fraction(tok.text)
        except ValueError:  # more digits than `int` converts
            raise self.error(f"numeral too long: {len(tok.text)} characters", tok) from None

    def parse_threshold(self) -> Threshold:
        tok = self.next()
        if tok.kind == "ident" and tok.text == "log":
            self.expect("(")
            num = self.next()
            if num.kind != "number" or "." in num.text or self.numeral(num) < 1:
                raise self.error("log threshold needs a positive integer", num)
            self.expect(")")
            return LogOfCount(self.numeral(num).numerator)
        if tok.kind == "number":
            value = self.numeral(tok)
            if self.peek().text == "/" and "." not in tok.text:
                self.next()
                den = self.next()
                if den.kind != "number" or "." in den.text or self.numeral(den) == 0:
                    raise self.error("fraction threshold needs a positive integer denominator", den)
                return Real(value / self.numeral(den))
            return Real(value)
        raise self.error(f"expected a threshold, found {tok.text or 'end of input'!r}", tok)


def _flatten_and(f: Formula) -> list[Formula]:
    """Conjuncts along the left spine, in source order."""
    parts: list[Formula] = []
    while isinstance(f, And):
        parts.insert(0, f.right)
        f = f.left
    parts.insert(0, f)
    return parts


def _first_bare_g(g, kids):
    """The first `_PathG` under `g` in printed order (equal ones share a row), or None."""
    return g if type(g) is _PathG else next(filter(None, kids), None)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into an AST; raises FormulaError with position."""
    parser = _Parser(text)
    f = parser.parse_disj()
    tok = parser.peek()
    if tok.kind != "eof":
        raise parser.error(f"unexpected {tok.text!r} after formula", tok)
    if parser.bare:
        bare = fold(f, _first_bare_g)
        raise FormulaError(
            "bare G is only supported as a conjunct inside <A> F (...)", bare.line, bare.col
        )
    return f
