"""AST, parser, pretty printer and length metric for strategic-epistemic formulas.

The language has atoms, boolean connectives, coalition temporal operators
(next / globally / until, with "finally" as sugar for a trivial until),
individual and mutual knowledge, and a quantitative uncertainty operator
that compares the log-count of valuation classes against a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

CMPS = ("<", "<=", ">", ">=", "=")

# Deepest formula the parser accepts. The tree walkers recurse once or twice
# per level and the parser up to four times per parenthesis, so this stays
# far below Python's default recursion limit of 1000.
MAX_DEPTH = 100


class FormulaError(ValueError):
    """Raised for malformed formula text or ill-formed AST nodes."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


def _canon_coalition(agents) -> tuple[str, ...]:
    return tuple(sorted(set(agents)))


class _Node:
    """Shared behaviour for all formula nodes."""

    def __str__(self) -> str:
        return pretty_print(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({pretty_print(self)!r})"


@dataclass(frozen=True, repr=False)
class Atom(_Node):
    """A named atomic proposition."""

    name: str


@dataclass(frozen=True, repr=False)
class TrueF(_Node):
    """The constant true."""


@dataclass(frozen=True, repr=False)
class FalseF(_Node):
    """The constant false."""


@dataclass(frozen=True, repr=False)
class Not(_Node):
    sub: "Formula"


@dataclass(frozen=True, repr=False)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, repr=False)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, repr=False)
class CoalX(_Node):
    """Coalition can enforce `sub` in the next state."""

    coalition: tuple[str, ...]
    sub: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "coalition", _canon_coalition(self.coalition))


@dataclass(frozen=True, repr=False)
class CoalG(_Node):
    """Coalition can enforce `sub` forever."""

    coalition: tuple[str, ...]
    sub: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "coalition", _canon_coalition(self.coalition))


@dataclass(frozen=True, repr=False)
class CoalU(_Node):
    """Coalition can enforce `hold` until `goal`; F is the `hold = true` case."""

    coalition: tuple[str, ...]
    hold: "Formula"
    goal: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "coalition", _canon_coalition(self.coalition))


@dataclass(frozen=True, repr=False)
class CoalFG(_Node):
    """Coalition can reach `goal` and then maintain `invariant` forever.

    This is the one admitted path pattern that nests G under a coalition F;
    `goal = true` stands for a bare `<A> F (G invariant)`.
    """

    coalition: tuple[str, ...]
    goal: "Formula"
    invariant: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "coalition", _canon_coalition(self.coalition))


@dataclass(frozen=True, repr=False)
class Knows(_Node):
    """Agent knows `sub`: it holds on the agent's whole epistemic class."""

    agent: str
    sub: "Formula"


@dataclass(frozen=True, repr=False)
class MutualKnows(_Node):
    """Every coalition member knows `sub`."""

    coalition: tuple[str, ...]
    sub: "Formula"

    def __post_init__(self):
        coal = _canon_coalition(self.coalition)
        if not coal:
            raise FormulaError("mutual knowledge needs a non-empty coalition")
        object.__setattr__(self, "coalition", coal)


@dataclass(frozen=True)
class LogOfCount:
    """Threshold written `log(k)`: compares the class count against k exactly."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise FormulaError(f"log threshold needs a positive count, got {self.count}")

    def __str__(self) -> str:
        return f"log({self.count})"


@dataclass(frozen=True)
class Real:
    """Threshold given as a non-negative rational number of bits."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value < 0:
            raise FormulaError(f"uncertainty threshold must be non-negative, got {self.value}")

    def __str__(self) -> str:
        return _format_rational(self.value)


Threshold = LogOfCount | Real


@dataclass(frozen=True, repr=False)
class Hartley(_Node):
    """Agent's uncertainty about the formulas in `beta` compares to `threshold`."""

    agent: str
    cmp: str
    threshold: Threshold
    beta: tuple["Formula", ...]

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(self.beta))
        if self.cmp not in CMPS:
            raise FormulaError(f"unknown comparison {self.cmp!r}")
        if not self.beta:
            raise FormulaError("empty formula set in uncertainty operator")
        seen = set()
        for b in self.beta:
            if b in seen:
                raise FormulaError(f"duplicate formula in uncertainty set: {pretty_print(b)}")
            seen.add(b)


Formula = (
    Atom | TrueF | FalseF | Not | And | Or
    | CoalX | CoalG | CoalU | CoalFG | Knows | MutualKnows | Hartley
)


@dataclass(frozen=True, repr=False)
class _PathG(_Node):
    """Parse-time placeholder for a bare G inside `<A> F (...)`."""

    sub: "Formula"
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


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
    scaled = value.numerator * 10**digits // value.denominator
    text = str(scaled).rjust(digits + 1, "0")
    if digits == 0:
        return text
    return f"{text[:-digits]}.{text[-digits:]}"


# ---------------------------------------------------------------------------
# Length metric


def formula_length(f: Formula) -> int:
    """Node-count length: atoms cost 1, each connective 1, a coalition |A|."""
    match f:
        case Atom() | TrueF() | FalseF():
            return 1
        case Not(sub):
            return 1 + formula_length(sub)
        case And(left, right) | Or(left, right):
            return formula_length(left) + formula_length(right) + 1
        case CoalX(coalition, sub) | CoalG(coalition, sub):
            return len(coalition) + 1 + formula_length(sub)
        case CoalU(coalition, hold, goal):
            return len(coalition) + formula_length(hold) + formula_length(goal) + 1
        case CoalFG(coalition, goal, invariant):
            body = 1 + formula_length(invariant)
            if not isinstance(goal, TrueF):
                body += formula_length(goal) + 1
            return len(coalition) + 2 + body
        case Knows(_, sub):
            return 1 + formula_length(sub)
        case MutualKnows(coalition, sub):
            return len(coalition) + formula_length(sub)
        case Hartley(_, _, _, beta):
            return 1 + sum(formula_length(b) for b in beta)
    raise TypeError(f"not a formula: {f!r}")


def subformulas_by_length(f: Formula) -> list[Formula]:
    """All distinct subformulas, shortest first, ties by printed text.

    Members of an uncertainty set count as subformulas of the operator.
    Every proper subformula sorts strictly before its parent, so the list
    doubles as an evaluation order; the final element is `f` itself.
    """
    seen: set[Formula] = set()

    def walk(g: Formula) -> None:
        if g in seen:
            return
        seen.add(g)
        match g:
            case Not(sub) | CoalX(_, sub) | CoalG(_, sub) | Knows(_, sub) | MutualKnows(_, sub):
                walk(sub)
            case And(left, right) | Or(left, right):
                walk(left)
                walk(right)
            case CoalU(_, hold, goal):
                walk(hold)
                walk(goal)
            case CoalFG(_, goal, invariant):
                walk(goal)
                walk(invariant)
            case Hartley(_, _, _, beta):
                for b in beta:
                    walk(b)
    walk(f)
    return sorted(seen, key=lambda g: (formula_length(g), pretty_print(g)))


# ---------------------------------------------------------------------------
# Pretty printer

_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3


def _coalition_text(coalition: tuple[str, ...]) -> str:
    return "<" + ", ".join(coalition) + ">"


def _print(f: Formula, min_prec: int) -> str:
    text, prec = _print_raw(f)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def _print_raw(f: Formula) -> tuple[str, int]:
    match f:
        case Atom(name):
            return name, _PREC_UNARY
        case TrueF():
            return "true", _PREC_UNARY
        case FalseF():
            return "false", _PREC_UNARY
        case Not(sub):
            return "!" + _print(sub, _PREC_UNARY), _PREC_UNARY
        case And(left, right):
            return _print(left, _PREC_AND) + " & " + _print(right, _PREC_UNARY), _PREC_AND
        case Or(left, right):
            return _print(left, _PREC_OR) + " | " + _print(right, _PREC_AND), _PREC_OR
        case CoalX(coalition, sub):
            return _coalition_text(coalition) + " X " + _print(sub, _PREC_UNARY), _PREC_UNARY
        case CoalG(coalition, sub):
            return _coalition_text(coalition) + " G " + _print(sub, _PREC_UNARY), _PREC_UNARY
        case CoalU(coalition, hold, goal):
            if isinstance(hold, TrueF):
                return _coalition_text(coalition) + " F " + _print(goal, _PREC_UNARY), _PREC_UNARY
            inner = _print(hold, _PREC_OR) + " U " + _print(goal, _PREC_OR)
            return _coalition_text(coalition) + " (" + inner + ")", _PREC_UNARY
        case CoalFG(coalition, goal, invariant):
            tail = "G " + _print(invariant, _PREC_UNARY)
            if isinstance(goal, TrueF):
                inner = tail
            else:
                inner = _print(goal, _PREC_AND) + " & " + tail
            return _coalition_text(coalition) + " F (" + inner + ")", _PREC_UNARY
        case Knows(agent, sub):
            return f"K[{agent}] " + _print(sub, _PREC_UNARY), _PREC_UNARY
        case MutualKnows(coalition, sub):
            return "E[" + ", ".join(coalition) + "] " + _print(sub, _PREC_UNARY), _PREC_UNARY
        case Hartley(agent, cmp, threshold, beta):
            members = ", ".join(_print(b, _PREC_OR) for b in beta)
            return f"H[{agent}] {cmp} {threshold} {{{members}}}", _PREC_UNARY
        case _PathG(sub):
            return "G " + _print(sub, _PREC_UNARY), _PREC_UNARY
    raise TypeError(f"not a formula: {f!r}")


def pretty_print(f: Formula) -> str:
    """Concrete syntax for `f`; parsing the result reproduces `f` exactly."""
    return _print(f, _PREC_OR)


# ---------------------------------------------------------------------------
# Parser

_PUNCT = ("<=", ">=", "!", "&", "|", "(", ")", "[", "]", "{", "}", "<", ">", "=", ",", "/")


@dataclass
class _Token:
    kind: str  # 'ident', 'number', 'punct', 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token("punct", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise FormulaError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # parse_unary calls in progress: the parser's own recursion
        self.depths: dict = {}  # id(node) -> (tree depth, node kept alive)

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

    def node(self, tok: _Token, f: Formula, *kids: Formula) -> Formula:
        """Record the tree depth of `f` built from `kids` at token `tok`."""
        depth = 1 + max(self.depths.get(id(k), (1,))[0] for k in kids)
        if depth > MAX_DEPTH:
            raise self.too_deep(tok)
        self.depths[id(f)] = (depth, f)
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
            f = self.node(tok, Or(f, right), f, right)
        return f

    def parse_conj(self) -> Formula:
        f = self.parse_unary()
        while self.peek().text == "&":
            tok = self.next()
            right = self.parse_unary()
            f = self.node(tok, And(f, right), f, right)
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
            f = self.node(tok, Not(f), f)
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
            return TrueF()
        if name == "false":
            return FalseF()
        if name == "K" and self.peek().text == "[":
            self.next()
            agent = self.expect_ident("agent name").text
            self.expect("]")
            sub = self.parse_unary()
            return self.node(tok, Knows(agent, sub), sub)
        if name == "E" and self.peek().text == "[":
            self.next()
            agents = [self.expect_ident("agent name").text]
            while self.peek().text == ",":
                self.next()
                agents.append(self.expect_ident("agent name").text)
            self.expect("]")
            sub = self.parse_unary()
            return self.node(tok, MutualKnows(tuple(agents), sub), sub)
        if name == "H" and self.peek().text == "[":
            return self.parse_hartley(tok)
        if name == "G" and self._starts_unary():
            sub = self.parse_unary()
            return self.node(tok, _PathG(sub, tok.line, tok.col), sub)
        return Atom(name)

    def parse_coalition_tail(self) -> tuple[str, ...]:
        if self.peek().text == ">":
            self.next()
            return ()
        agents = [self.expect_ident("agent name").text]
        while self.peek().text == ",":
            self.next()
            agents.append(self.expect_ident("agent name").text)
        self.expect(">")
        return tuple(agents)

    def parse_temporal(self, coalition: tuple[str, ...]) -> Formula:
        tok = self.next()
        if tok.text == "X":
            sub = self.parse_unary()
            return self.node(tok, CoalX(coalition, sub), sub)
        if tok.text == "G":
            sub = self.parse_unary()
            return self.node(tok, CoalG(coalition, sub), sub)
        if tok.text == "F":
            body = self.parse_unary()
            return self.node(tok, self.finish_finally(coalition, body, tok), body)
        if tok.text == "(":
            hold = self.parse_disj()
            self.expect("U")
            goal = self.parse_disj()
            self.expect(")")
            return self.node(tok, CoalU(coalition, hold, goal), hold, goal)
        raise self.error(f"expected X, G, F or '(', found {tok.text or 'end of input'!r}", tok)

    def finish_finally(self, coalition, body, tok: _Token) -> Formula:
        """Turn `<A> F body` into an until, or the reach-then-maintain pattern."""
        conjuncts = _flatten_and(body)
        path_parts = [c for c in conjuncts if isinstance(c, _PathG)]
        if not path_parts:
            return CoalU(coalition, TrueF(), body)
        if len(path_parts) > 1:
            raise self.error("at most one G conjunct is supported under F", tok)
        rest = [c for c in conjuncts if not isinstance(c, _PathG)]
        goal: Formula = TrueF()
        if rest:
            goal = rest[0]
            for c in rest[1:]:
                goal = And(goal, c)
        return CoalFG(coalition, goal, path_parts[0].sub)

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
        try:
            f = Hartley(agent, cmp_tok.text, threshold, tuple(beta))
        except FormulaError as exc:
            raise self.error(str(exc), tok) from None
        return self.node(tok, f, *beta)

    def parse_threshold(self) -> Threshold:
        tok = self.next()
        if tok.kind == "ident" and tok.text == "log":
            self.expect("(")
            num = self.next()
            if num.kind != "number" or "." in num.text or int(num.text) < 1:
                raise self.error("log threshold needs a positive integer", num)
            self.expect(")")
            return LogOfCount(int(num.text))
        if tok.kind == "number":
            if self.peek().text == "/" and "." not in tok.text:
                self.next()
                den = self.next()
                if den.kind != "number" or "." in den.text or int(den.text) == 0:
                    raise self.error("fraction threshold needs a positive integer denominator", den)
                return Real(Fraction(int(tok.text), int(den.text)))
            return Real(Fraction(tok.text))
        raise self.error(f"expected a threshold, found {tok.text or 'end of input'!r}", tok)


def _flatten_and(f: Formula) -> list[Formula]:
    """Conjuncts along the left spine, in source order."""
    parts: list[Formula] = []
    while isinstance(f, And):
        parts.insert(0, f.right)
        f = f.left
    parts.insert(0, f)
    return parts


def _check_no_pathg(f: Formula) -> None:
    match f:
        case _PathG():
            raise FormulaError(
                "bare G is only supported as a conjunct inside <A> F (...)", f.line, f.col
            )
        case Not(sub) | CoalX(_, sub) | CoalG(_, sub) | Knows(_, sub) | MutualKnows(_, sub):
            _check_no_pathg(sub)
        case And(left, right) | Or(left, right):
            _check_no_pathg(left)
            _check_no_pathg(right)
        case CoalU(_, hold, goal):
            _check_no_pathg(hold)
            _check_no_pathg(goal)
        case CoalFG(_, goal, invariant):
            _check_no_pathg(goal)
            _check_no_pathg(invariant)
        case Hartley(_, _, _, beta):
            for b in beta:
                _check_no_pathg(b)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into an AST; raises FormulaError with position."""
    parser = _Parser(text)
    f = parser.parse_disj()
    tok = parser.peek()
    if tok.kind != "eof":
        raise parser.error(f"unexpected {tok.text!r} after formula", tok)
    _check_no_pathg(f)
    return f
