"""Propositional formulas over a countable set of atoms plus absurdity.

The grammar is

    X ::= atom | bot | X & X | X "|" X | X -> X

with negation ``~X`` as sugar for ``X -> bot``.  Negation is never a
constructor: parsing ``~p`` yields the implication, and the printer folds
``X -> bot`` back into ``~X``.  Formulas are immutable values with structural
equality, so evaluators are free to memoize on them.  Each formula computes
its hash once, at construction, from its class and its children's cached
hashes (_Value), so a lookup never walks the tree and Conj(a, b), Disj(a, b)
and Impl(a, b) hash apart.  A compound formula also keeps its printed text
once it has been printed, and its set of atoms once it has been asked for,
outside comparison, repr, hash and pickle.  Decoding is memoized per text in a
bounded cache that never keeps an error: equal texts give the same formula
object, and a malformed text raises afresh on every call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, Mapping

__all__ = [
    "Formula",
    "Atom",
    "Absurdity",
    "Conj",
    "Disj",
    "Impl",
    "BOT",
    "neg",
    "is_neg",
    "FormulaSyntaxError",
    "MAX_NESTING",
    "parse_formula",
    "format_formula",
    "substitute",
    "atoms_of",
    "formula_to_obj",
    "formula_from_obj",
]


class _Value:
    """An immutable value that keeps its hash.  A subclass is a frozen
    dataclass with an ``_hash`` field, calls _keep on its fields in
    __post_init__, and writes ``__hash__ = _Value.__hash__`` in its body, as
    a frozen dataclass replaces an inherited hash.  The hash mixes in the
    class name, so values of two classes over equal fields hash apart.  A
    pickle holds only the init fields and rebuilds through the constructor,
    so the hash is computed afresh under the loading process's hash seed."""

    __slots__ = ()

    def _keep(self, *values: object) -> None:
        object.__setattr__(self, "_hash", hash((type(self).__name__, *values)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


class Formula(_Value):
    """Base class for formula values; construct the subclasses only."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _ATOM_RE.fullmatch(self.name):
            raise ValueError(f"not an atom name: {self.name!r}")
        if self.name == "bot":
            # absurdity is a distinct constant, never a named atom
            raise ValueError("'bot' is reserved for absurdity; use Absurdity()")
        self._keep(self.name)

    __hash__ = _Value.__hash__


@dataclass(frozen=True, slots=True)
class Absurdity(Formula):
    pass


@dataclass(frozen=True, slots=True)
class _Binary(Formula):
    """The fields, equality and cached hash the three connectives share;
    equality also compares the class, so Conj(a, b) != Disj(a, b)."""

    left: Formula
    right: Formula
    _hash: int = field(init=False, repr=False, compare=False)
    # format_formula's text and atoms_of's set, each set on first use; left
    # unset until then, so construction does not pay for them
    _text: str = field(init=False, repr=False, compare=False)
    _atoms: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._keep(self.left, self.right)

    __hash__ = _Value.__hash__


class Conj(_Binary):
    __slots__ = ()


class Disj(_Binary):
    __slots__ = ()


class Impl(_Binary):
    __slots__ = ()


BOT = Absurdity()

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def neg(f: Formula) -> Formula:
    return Impl(f, BOT)


def is_neg(f: Formula) -> bool:
    return isinstance(f, Impl) and f.right == BOT


class _SyntaxError(ValueError):
    """A message about a position in a line; the two syntax errors share it."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.message = message
        self.text = text
        self.pos = pos


class FormulaSyntaxError(_SyntaxError):
    """Raised on malformed formula text; carries the offending position."""


class _Scanner:
    """The tokens of one line, read left to right: (kind, value, position)
    for each match of the token pattern, named by its group, then
    ("end", "", len(text)).  A parser subclasses it and raises the given
    error class."""

    def __init__(self, text: str, token_re: re.Pattern, error: type) -> None:
        self.text = text
        self.error = error
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = token_re.match(text, pos)
            if m is None:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                raise error(
                    f"unexpected character {rest[0]!r}", text, len(text) - len(rest)
                )
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> str:
        tok = self.take()
        if tok[0] != kind:
            raise self.error(f"expected {what}", self.text, tok[2])
        return tok[1]

    def end(self) -> None:
        kind, _, pos = self.peek()
        if kind != "end":
            raise self.error("trailing input", self.text, pos)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<amp>&)|(?P<bar>\|)|(?P<tilde>~)"
    rf"|(?P<lpar>\()|(?P<rpar>\))|(?P<word>{_ATOM_RE.pattern}))"
)


# The deepest a formula text may nest: each parenthesis pair, negation and
# connective is a level.  Parsing, evaluating under each relation, building
# and checking witness arguments, and printing all recurse once per level,
# several frames each, so at this depth all three relations answer well
# inside Python's default recursion limit; deeper text is a syntax error.
# The same limit bounds formula objects (formula_from_obj), the discharge
# nesting of rules, and the height of a reduct the reduction walk keeps.
MAX_NESTING = 100


class _Parser(_Scanner):
    """Recursive descent with precedence ~ > & > | > -> and right-assoc ->.
    Each method returns a formula with its nesting, the height of its parse
    tree, where a parenthesized formula sits a level above what it encloses.
    A text nested deeper than MAX_NESTING fails at the operator that makes
    the level too many, or, on the way down, at the '(', '~' or '->' that
    opens it, before the recursion goes any deeper."""

    opened = 0  # the "(", "~" and "->" levels open around the current token

    def _level(self, height: int, pos: int) -> int:
        if height > MAX_NESTING:
            raise self.error(
                f"formula nested deeper than {MAX_NESTING} levels", self.text, pos
            )
        return height

    def _inside(
        self, parse: Callable[[], tuple[Formula, int]], pos: int
    ) -> tuple[Formula, int]:
        """parse, one level further down."""
        self.opened += 1
        self._level(self.opened, pos)
        got = parse()
        self.opened -= 1
        return got

    def implication(self) -> tuple[Formula, int]:
        left, h = self.disjunction()
        if self.peek()[0] != "arrow":
            return left, h
        pos = self.take()[2]
        right, k = self._inside(self.implication, pos)
        return Impl(left, right), self._level(max(h, k) + 1, pos)

    def disjunction(self) -> tuple[Formula, int]:
        f, h = self.conjunction()
        while self.peek()[0] == "bar":
            pos = self.take()[2]
            g, k = self.conjunction()
            f, h = Disj(f, g), self._level(max(h, k) + 1, pos)
        return f, h

    def conjunction(self) -> tuple[Formula, int]:
        f, h = self.unary()
        while self.peek()[0] == "amp":
            pos = self.take()[2]
            g, k = self.unary()
            f, h = Conj(f, g), self._level(max(h, k) + 1, pos)
        return f, h

    def unary(self) -> tuple[Formula, int]:
        kind, value, pos = self.peek()
        if kind == "tilde":
            self.take()
            f, h = self._inside(self.unary, pos)
            return neg(f), self._level(h + 1, pos)
        if kind == "word":
            self.take()
            return (BOT if value == "bot" else Atom(value)), 0
        if kind == "lpar":
            self.take()
            f, h = self._inside(self.implication, pos)
            self.expect("rpar", "')'")
            return f, self._level(h + 1, pos)
        raise self.error("expected a formula", self.text, pos)


def parse_formula(text: str) -> Formula:
    """The formula a text denotes; FormulaSyntaxError if it is malformed or
    nested deeper than MAX_NESTING.  Memoized per text, bounded: equal texts
    give one object, and a malformed text raises on every call, since no
    error is kept.  A non-string (a JSON list, say) is parsed uncached, to
    fail as it always did rather than as unhashable."""
    return (_parsed if isinstance(text, str) else _parsed.__wrapped__)(text)


@lru_cache(maxsize=4096)
def _parsed(text: str) -> Formula:
    parser = _Parser(text, _TOKEN_RE, FormulaSyntaxError)
    f, _ = parser.implication()
    parser.end()
    return f


def _prec(f: Formula) -> int:
    # 4 = atoms, bot, printed negations; 3 = &; 2 = |; 1 = ->
    if isinstance(f, (Atom, Absurdity)) or is_neg(f):
        return 4
    if isinstance(f, Conj):
        return 3
    if isinstance(f, Disj):
        return 2
    return 1


def format_formula(f: Formula) -> str:
    """Minimal-parentheses text; parse_formula(format_formula(f)) == f.

    A compound formula renders once and keeps its text."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Absurdity):
        return "bot"
    try:
        return f._text
    except AttributeError:
        text = _render(f)
        object.__setattr__(f, "_text", text)
        return text


def _render(f: Formula) -> str:
    def wrap(g: Formula, floor: int) -> str:
        s = format_formula(g)
        return f"({s})" if _prec(g) < floor else s

    if is_neg(f):
        assert isinstance(f, Impl)
        return "~" + wrap(f.left, 4)
    if isinstance(f, Conj):
        return f"{wrap(f.left, 3)} & {wrap(f.right, 4)}"
    if isinstance(f, Disj):
        return f"{wrap(f.left, 2)} | {wrap(f.right, 3)}"
    assert isinstance(f, Impl)
    # right-associative: parenthesize an implication on the left only
    return f"{wrap(f.left, 2)} -> {format_formula(f.right)}"


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for atoms; bot is untouched."""
    if isinstance(f, Atom):
        return mapping.get(f.name, f)
    if isinstance(f, Absurdity):
        return f
    ctor: Callable[[Formula, Formula], Formula] = type(f)  # type: ignore[assignment]
    assert isinstance(f, (Conj, Disj, Impl))
    return ctor(substitute(f.left, mapping), substitute(f.right, mapping))


def atoms_of(f: Formula) -> frozenset[str]:
    """Named atoms occurring in f; absurdity is excluded.

    A compound formula computes its set once and keeps it."""
    if isinstance(f, Atom):
        return frozenset({f.name})
    if isinstance(f, Absurdity):
        return frozenset()
    try:
        return f._atoms
    except AttributeError:
        atoms = atoms_of(f.left) | atoms_of(f.right)
        object.__setattr__(f, "_atoms", atoms)
        return atoms


_OPS = {"and": Conj, "or": Disj, "imp": Impl}


def formula_to_obj(f: Formula) -> object:
    """JSON-ready structure mirroring the constructors."""
    if isinstance(f, Atom):
        return {"op": "atom", "name": f.name}
    if isinstance(f, Absurdity):
        return {"op": "bot"}
    for tag, ctor in _OPS.items():
        if isinstance(f, ctor):
            return {
                "op": tag,
                "left": formula_to_obj(f.left),
                "right": formula_to_obj(f.right),
            }
    raise TypeError(f"not a formula: {f!r}")


def formula_from_obj(obj: object, _opened: int = 0) -> Formula:
    """The formula formula_to_obj gave obj for; ValueError if obj is
    malformed or nests connectives deeper than MAX_NESTING, which fails at
    the connective one too many, before the recursion goes any deeper.
    _opened counts the connectives above obj."""
    if not isinstance(obj, dict) or "op" not in obj:
        raise ValueError(f"not a formula object: {obj!r}")
    op = obj["op"]
    if op == "atom":
        return Atom(obj["name"])
    if op == "bot":
        return BOT
    if op in _OPS:
        if _opened >= MAX_NESTING:
            raise ValueError(f"formula nested deeper than {MAX_NESTING} levels")
        return _OPS[op](
            formula_from_obj(obj["left"], _opened + 1),
            formula_from_obj(obj["right"], _opened + 1),
        )
    raise ValueError(f"unknown formula op: {op!r}")
