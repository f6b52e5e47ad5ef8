"""Higher-level atomic rules, bases, and derivability.

A rule has a conclusion atom and finitely many premises; each premise is a
pair (discharged rule set, atom) meaning: derive the atom with the discharged
rules temporarily available.  A premise (C, a) is the same thing as the rule
"from C infer a", and the two views convert into each other losslessly
(premise_to_rule / rule_to_premise).  Levels follow the usual recurrence:
axioms are level 0, otherwise 1 + the maximal level of the premise rules.
A consequence of the recurrence is that a level-k rule only ever discharges
rules of level at most k - 2.

``bot`` is an ordinary atom here: deriving it is not special unless the
explosion option is switched on, and a Base refuses construction when its
rules derive bot outright.

Derivability is decided by saturating the finite family of reachable rule
contexts (the closure of the initial rule supply under adding discharged
sets).  A positive answer carries a derivation tree that an independent
checker (check_derivation) replays against the rule supply.

Concrete rule syntax, one rule per line in base files:

    p.                      axiom
    (p, q => r)             premises p and q, conclusion r
    ([p => q] => r)         one premise: derive q with the axiom p available
    ([(p => q) => q] => r)  the discharged set may hold compound rules

Comments run from '#' to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from prooflab.syntax import Absurdity, Atom, BOT, Conj, Formula, Impl

__all__ = [
    "Premise",
    "AtomicRule",
    "axiom",
    "premise",
    "premise_to_rule",
    "rule_to_premise",
    "level",
    "Base",
    "base_level",
    "atoms_of_rule",
    "atoms_of_base",
    "DerivationNode",
    "DeriveResult",
    "derive",
    "derivable_atoms",
    "check_consistency",
    "check_derivation",
    "DerivationCheckError",
    "InconsistentBaseError",
    "ResourceLimitExceeded",
    "RuleSyntaxError",
    "star_translate",
    "star_translate_base",
    "parse_rule",
    "parse_base_text",
    "format_rule",
    "format_base",
    "explosion_rules",
]

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

DEFAULT_MAX_STEPS = 1_000_000


class InconsistentBaseError(ValueError):
    pass


class ResourceLimitExceeded(RuntimeError):
    """Raised when saturation runs past its step budget; distinct from NO."""


@dataclass(frozen=True, slots=True)
class Premise:
    """(discharged rule set, atom to derive while they are available)."""

    discharged: frozenset[AtomicRule]
    conclusion: str

    def __post_init__(self) -> None:
        if not _ATOM_RE.fullmatch(self.conclusion):
            raise ValueError(f"premise conclusion is not an atom: {self.conclusion!r}")


@dataclass(frozen=True, slots=True)
class AtomicRule:
    premises: tuple[Premise, ...]
    conclusion: str

    def __post_init__(self) -> None:
        if not _ATOM_RE.fullmatch(self.conclusion):
            raise ValueError(f"rule conclusion is not an atom: {self.conclusion!r}")
        # canonical premise order makes equality independent of listing order
        object.__setattr__(
            self, "premises", tuple(sorted(self.premises, key=_premise_key))
        )

    def __str__(self) -> str:
        return format_rule(self)


def _rule_key(r: AtomicRule):
    return (r.conclusion, tuple(_premise_key(p) for p in r.premises))


def _premise_key(p: Premise):
    return (p.conclusion, tuple(sorted(_rule_key(s) for s in p.discharged)))


def axiom(name: str) -> AtomicRule:
    return AtomicRule(premises=(), conclusion=name)


def premise(conclusion: str, discharged: Iterable[AtomicRule] = ()) -> Premise:
    return Premise(discharged=frozenset(discharged), conclusion=conclusion)


def premise_to_rule(p: Premise) -> AtomicRule:
    """(C, a) viewed as the rule deriving a from the rules in C."""
    return AtomicRule(
        premises=tuple(rule_to_premise(s) for s in sorted(p.discharged, key=_rule_key)),
        conclusion=p.conclusion,
    )


def rule_to_premise(r: AtomicRule) -> Premise:
    return Premise(
        discharged=frozenset(premise_to_rule(q) for q in r.premises),
        conclusion=r.conclusion,
    )


def level(r: AtomicRule) -> int:
    if not r.premises:
        return 0
    return 1 + max(
        0 if not p.discharged else 1 + max(level(s) for s in p.discharged)
        for p in r.premises
    )


def atoms_of_rule(r: AtomicRule) -> frozenset[str]:
    """All named atoms a rule mentions; bot is excluded."""
    out: set[str] = set()

    def walk(rule: AtomicRule) -> None:
        if rule.conclusion != "bot":
            out.add(rule.conclusion)
        for p in rule.premises:
            if p.conclusion != "bot":
                out.add(p.conclusion)
            for s in p.discharged:
                walk(s)

    walk(r)
    return frozenset(out)


@dataclass(frozen=True)
class Base:
    """A finite, consistent set of atomic rules."""

    rules: frozenset[AtomicRule] = field(default_factory=frozenset)
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", frozenset(self.rules))
        if not check_consistency(self.rules):
            raise InconsistentBaseError(
                f"rules derive bot: {{{', '.join(sorted(map(format_rule, self.rules)))}}}"
            )

    @classmethod
    def of(cls, *rules: AtomicRule, name: str | None = None) -> "Base":
        return cls(rules=frozenset(rules), name=name)

    def __str__(self) -> str:
        return format_base(self)


def base_level(b: Base) -> int:
    return max((level(r) for r in b.rules), default=0)


def atoms_of_base(b: Base) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for r in b.rules:
        out |= atoms_of_rule(r)
    return out


# ---------------------------------------------------------------------------
# derivability by context saturation


@dataclass(frozen=True, slots=True)
class DerivationNode:
    """One rule application; children follow the rule's premise order."""

    conclusion: str
    rule: AtomicRule
    children: tuple["DerivationNode", ...]


class _Saturation:
    """Fixpoint of 'atom a is derivable in context R' over reachable contexts.

    Justifications reference only facts recorded earlier, so witness
    extraction is well-founded even through cyclic rule supplies.
    """

    def __init__(self, initial: frozenset[AtomicRule], max_steps: int) -> None:
        self.initial = initial
        contexts = {initial}
        stack = [initial]
        steps = 0
        while stack:
            ctx = stack.pop()
            for rule in ctx:
                for p in rule.premises:
                    steps += 1
                    if steps > max_steps:
                        raise ResourceLimitExceeded(
                            f"context closure exceeded {max_steps} steps"
                        )
                    if p.discharged:
                        nxt = ctx | p.discharged
                        if nxt not in contexts:
                            contexts.add(nxt)
                            stack.append(nxt)
        self.contexts = contexts
        # facts[ctx][atom] = (rule, premise contexts, insertion index)
        self.facts: dict[frozenset[AtomicRule], dict[str, tuple]] = {
            ctx: {} for ctx in contexts
        }
        counter = 0
        changed = True
        while changed:
            changed = False
            for ctx in contexts:
                known = self.facts[ctx]
                for rule in ctx:
                    if rule.conclusion in known:
                        continue
                    steps += 1
                    if steps > max_steps:
                        raise ResourceLimitExceeded(
                            f"saturation exceeded {max_steps} steps"
                        )
                    targets = []
                    for p in rule.premises:
                        tctx = ctx | p.discharged if p.discharged else ctx
                        if p.conclusion not in self.facts[tctx]:
                            break
                        targets.append(tctx)
                    else:
                        known[rule.conclusion] = (rule, tuple(targets), counter)
                        counter += 1
                        changed = True

    def derivable(self, goal: str) -> bool:
        return goal in self.facts[self.initial]

    def tree(self, goal: str) -> DerivationNode:
        def extract(ctx: frozenset[AtomicRule], atom: str) -> DerivationNode:
            rule, targets, _ = self.facts[ctx][atom]
            children = tuple(
                extract(tctx, p.conclusion)
                for p, tctx in zip(rule.premises, targets)
            )
            return DerivationNode(conclusion=atom, rule=rule, children=children)

        return extract(self.initial, goal)


@lru_cache(maxsize=16384)
def _saturate(initial: frozenset, max_steps: int = DEFAULT_MAX_STEPS) -> _Saturation:
    return _Saturation(initial, max_steps)


@dataclass(frozen=True, slots=True)
class DeriveResult:
    derivable: bool
    tree: DerivationNode | None


def explosion_rules(atoms: Iterable[str]) -> frozenset[AtomicRule]:
    """bot-to-anything rules, for the optional explosive reading of bot."""
    return frozenset(
        AtomicRule(premises=(premise("bot"),), conclusion=a)
        for a in atoms
        if a != "bot"
    )


def derive(
    base: Base,
    assumed: Iterable[AtomicRule] = (),
    goal: str = "bot",
    *,
    explosion: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> DeriveResult:
    """Decide whether goal is derivable from base plus assumed rules.

    A YES carries a derivation tree; replay it with check_derivation against
    base.rules | assumed (plus the explosion rules when that option is on).
    Budget exhaustion raises ResourceLimitExceeded rather than answering NO.
    """
    supply = base.rules | frozenset(assumed)
    if explosion:
        atoms = atoms_of_base(base) | {goal}
        for r in assumed:
            atoms |= atoms_of_rule(r)
        supply |= explosion_rules(atoms)
    sat = _saturate(supply, max_steps)
    if not sat.derivable(goal):
        return DeriveResult(derivable=False, tree=None)
    return DeriveResult(derivable=True, tree=sat.tree(goal))


def derivable_atoms(base: Base, assumed: Iterable[AtomicRule] = ()) -> frozenset[str]:
    """Every atom (bot included) derivable from base plus assumed rules."""
    supply = base.rules | frozenset(assumed)
    sat = _saturate(supply)
    return frozenset(sat.facts[supply].keys())


def check_consistency(rules: Iterable[AtomicRule]) -> bool:
    """True when the rules do not derive bot on their own."""
    supply = frozenset(rules)
    return not _saturate(supply).derivable("bot")


class DerivationCheckError(ValueError):
    pass


def check_derivation(node: DerivationNode, available: frozenset[AtomicRule]) -> bool:
    """Replay a derivation tree against a rule supply; raises on any defect.

    Deliberately independent of the search: a plain structural recursion
    that re-checks rule membership and premise alignment at every node.
    """
    if node.rule not in available:
        raise DerivationCheckError(f"rule not available: {format_rule(node.rule)}")
    if node.rule.conclusion != node.conclusion:
        raise DerivationCheckError(
            f"conclusion mismatch: node {node.conclusion}, rule {node.rule.conclusion}"
        )
    if len(node.children) != len(node.rule.premises):
        raise DerivationCheckError(
            f"premise count mismatch for {format_rule(node.rule)}"
        )
    for p, child in zip(node.rule.premises, node.children):
        if child.conclusion != p.conclusion:
            raise DerivationCheckError(
                f"premise {p.conclusion} proved as {child.conclusion}"
            )
        check_derivation(child, available | p.discharged)
    return True


# ---------------------------------------------------------------------------
# star translation into disjunction-free formulas


def _atom_formula(name: str) -> Formula:
    return BOT if name == "bot" else Atom(name)


def star_translate(r: AtomicRule) -> Formula:
    """Level-0 rules map to their atom; otherwise to (/\\ premises*) -> atom."""
    if not r.premises:
        return _atom_formula(r.conclusion)
    parts = [star_translate(premise_to_rule(p)) for p in r.premises]
    conj = parts[-1]
    for part in reversed(parts[:-1]):
        conj = Conj(part, conj)
    return Impl(conj, _atom_formula(r.conclusion))


def star_translate_base(b: Base | Iterable[AtomicRule]) -> frozenset[Formula]:
    rules = b.rules if isinstance(b, Base) else frozenset(b)
    return frozenset(star_translate(r) for r in rules)


# ---------------------------------------------------------------------------
# concrete syntax


class RuleSyntaxError(ValueError):
    def __init__(self, message: str, text: str, pos: int) -> None:
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos


_RULE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>=>)|(?P<lpar>\()|(?P<rpar>\))|(?P<lbr>\[)|(?P<rbr>\])"
    r"|(?P<comma>,)|(?P<dot>\.)|(?P<word>[A-Za-z_][A-Za-z0-9_']*))"
)


class _RuleParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _RULE_TOKEN_RE.match(text, pos)
            if m is None or m.lastgroup is None:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                raise RuleSyntaxError(
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
            raise RuleSyntaxError(f"expected {what}", self.text, tok[2])
        return tok[1]

    def rule(self) -> AtomicRule:
        kind, value, pos = self.peek()
        if kind == "word":
            self.take()
            return axiom(value)
        if kind == "lpar":
            self.take()
            premises = [self.premise()]
            while self.peek()[0] == "comma":
                self.take()
                premises.append(self.premise())
            self.expect("arrow", "'=>'")
            conclusion = self.expect("word", "an atom")
            self.expect("rpar", "')'")
            return AtomicRule(premises=tuple(premises), conclusion=conclusion)
        raise RuleSyntaxError("expected a rule", self.text, pos)

    def premise(self) -> Premise:
        kind, value, pos = self.peek()
        if kind == "word":
            self.take()
            return premise(value)
        if kind == "lbr":
            self.take()
            discharged: list[AtomicRule] = []
            if self.peek()[0] != "arrow":
                discharged.append(self.rule())
                while self.peek()[0] == "comma":
                    self.take()
                    discharged.append(self.rule())
            self.expect("arrow", "'=>'")
            conclusion = self.expect("word", "an atom")
            self.expect("rbr", "']'")
            return premise(conclusion, discharged)
        raise RuleSyntaxError("expected a premise", self.text, pos)


def parse_rule(text: str) -> AtomicRule:
    parser = _RuleParser(text)
    r = parser.rule()
    if parser.peek()[0] == "dot":
        parser.take()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise RuleSyntaxError("trailing input", text, pos)
    return r


def parse_base_text(text: str, name: str | None = None) -> Base:
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rules.append(parse_rule(line))
        except RuleSyntaxError as e:
            raise RuleSyntaxError(f"line {lineno}: {e.args[0]}", raw, e.pos) from None
    return Base(rules=frozenset(rules), name=name)


def format_rule(r: AtomicRule) -> str:
    if not r.premises:
        return r.conclusion
    parts = []
    for p in r.premises:
        if not p.discharged:
            parts.append(p.conclusion)
        else:
            inner = ", ".join(
                format_rule(s) for s in sorted(p.discharged, key=_rule_key)
            )
            parts.append(f"[{inner} => {p.conclusion}]")
    return f"({', '.join(parts)} => {r.conclusion})"


def format_base(b: Base) -> str:
    lines = []
    for r in sorted(b.rules, key=lambda r: (level(r), _rule_key(r))):
        text = format_rule(r)
        lines.append(text + "." if not r.premises else text)
    return "\n".join(lines) + ("\n" if lines else "")


def iter_subrules(r: AtomicRule) -> Iterator[AtomicRule]:
    """The rule itself plus every rule nested in a discharged set."""
    yield r
    for p in r.premises:
        for s in p.discharged:
            yield from iter_subrules(s)
