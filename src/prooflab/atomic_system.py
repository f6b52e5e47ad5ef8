"""Higher-level atomic rules, bases, and derivability.

A rule has a conclusion atom and finitely many premises; each premise is a
pair (discharged rule set, atom) meaning: derive the atom with the discharged
rules temporarily available.  A premise (C, a) is the same thing as the rule
"from C infer a", and the two views convert into each other losslessly
(premise_to_rule / rule_to_premise).  Levels follow the usual recurrence:
axioms are level 0, otherwise 1 + the maximal level of the premise rules.
A consequence of the recurrence is that a level-k rule only ever discharges
rules of level at most k - 2.  A rule computes its level once, when it is
built, from the levels its discharged rules keep.

``bot`` is an ordinary atom here: deriving it is not special, except that a
Base refuses construction when its rules derive bot outright.

Derivability is decided goal first, as in tabled resolution: a base's
rules, with every rule nested in them and the axiom of every atom they
mention, are numbered once.  An assumed rule so numbered, such as the axiom
of an atom the base mentions, is one more bit of the supply's context.  A
context is a bitmask over those numbers, and a worklist of goals (context,
atom), seeded with every atom in the supply's context, grounds only the
rules of a goal's context that conclude its atom.  Each premise asks for a
fact in the context its discharged rules extend to, so a context is opened
only when some goal asks for a fact in it.  The facts each goal completes
propagate through per-application counters of unmet premises, as in
linear-time Horn satisfiability, before the next goal is taken, and a goal
whose fact is already recorded grounds nothing.  A derivation's leaves are
axioms, so a supply with no axiom in it or in any discharged set is
answered before any goal is asked: nothing is derivable.  Derivability is
monotone in the context, so a newly opened context starts with the atoms of
the context that opened it, and a fact recorded later in a context is
passed to every larger context it has asked into.  A positive answer carries a
derivation tree that an independent checker (check_derivation) replays
against the rule supply.  Each fact is justified by the first way it is
recorded, in the order goals were asked, and a fact passed on shares the
tree of the smaller context's fact, so the tree does not depend on the hash
seed.  A saturation keeps the set of atoms derivable in the supply's
context and the tables a tree is read from, and builds no tree until one is
asked for: a query for atoms alone, or a NO, costs no tree work.  The first
tree asked for builds, in one pass over the recorded facts, a node for each
fact a rule recorded, so every tree of that context is built once, and the
trees of one supply share their common subtrees.

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
from typing import Any, Iterable

from prooflab.syntax import (
    BOT,
    MAX_NESTING,
    Atom,
    Conj,
    Formula,
    Impl,
    _ATOM_RE,
    _Scanner,
    _SyntaxError,
    _Value,
)

__all__ = [
    "Premise",
    "AtomicRule",
    "axiom",
    "premise",
    "premise_to_rule",
    "rule_to_premise",
    "level",
    "Base",
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
    "parse_rule",
    "parse_base_text",
    "format_rule",
    "format_base",
]

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
    # (conclusion, sorted keys of the discharged rules), computed once
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _ATOM_RE.fullmatch(self.conclusion):
            raise ValueError(f"premise conclusion is not an atom: {self.conclusion!r}")
        object.__setattr__(
            self,
            "_key",
            (self.conclusion, tuple(sorted(s._key for s in self.discharged))),
        )


@dataclass(frozen=True, slots=True)
class AtomicRule(_Value):
    premises: tuple[Premise, ...]
    conclusion: str
    # canonical sort key and hash (_Value), computed once: the key,
    # (conclusion, premise keys in canonical order), tells rules apart
    # exactly as equality does and does not depend on the hash seed
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    # the rule's level, computed once from the discharged rules' own
    _level: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _ATOM_RE.fullmatch(self.conclusion):
            raise ValueError(f"rule conclusion is not an atom: {self.conclusion!r}")
        # canonical premise order makes equality independent of listing order
        premises = tuple(sorted(self.premises, key=lambda p: p._key))
        object.__setattr__(self, "premises", premises)
        # one pass for the key and the level: a premise that discharges
        # nothing gives 1, one that does 2 + the highest level it
        # discharges, and the rule's level is the highest of these
        keys = []
        lvl = 0
        for p in premises:
            keys.append(p._key)
            top = -1
            for s in p.discharged:
                if s._level > top:
                    top = s._level
            if top + 2 > lvl:
                lvl = top + 2
        object.__setattr__(self, "_key", (self.conclusion, tuple(keys)))
        object.__setattr__(self, "_level", lvl)
        self._keep(premises, self.conclusion)

    __hash__ = _Value.__hash__

    def __str__(self) -> str:
        return format_rule(self)


# One rule per recent axiom name, so that a set lookup or difference finds
# an assumed axiom by identity, without building it or checking its name.
@lru_cache(maxsize=1024)
def axiom(name: str) -> AtomicRule:
    return AtomicRule(premises=(), conclusion=name)


def premise(conclusion: str, discharged: Iterable[AtomicRule] = ()) -> Premise:
    return Premise(discharged=frozenset(discharged), conclusion=conclusion)


def premise_to_rule(p: Premise) -> AtomicRule:
    """(C, a) viewed as the rule deriving a from the rules in C."""
    return AtomicRule(
        premises=tuple(
            rule_to_premise(s) for s in sorted(p.discharged, key=lambda s: s._key)
        ),
        conclusion=p.conclusion,
    )


def rule_to_premise(r: AtomicRule) -> Premise:
    return Premise(
        discharged=frozenset(premise_to_rule(q) for q in r.premises),
        conclusion=r.conclusion,
    )


def level(r: AtomicRule) -> int:
    """The rule's level: 0 for an axiom, otherwise 1 + the highest level of
    its premises viewed as rules.  Kept on the rule when it is built, from
    the kept levels of the rules it discharges, so a call reads one field."""
    return r._level


def atoms_of_rule(r: AtomicRule) -> frozenset[str]:
    """All named atoms a rule mentions; bot is excluded."""
    out: set[str] = set()
    todo = [r]
    while todo:
        rule = todo.pop()
        out.add(rule.conclusion)
        for p in rule.premises:
            out.add(p.conclusion)
            todo.extend(p.discharged)
    out.discard("bot")
    return frozenset(out)


@dataclass(frozen=True)
class Base(_Value):
    """A finite, consistent set of atomic rules."""

    rules: frozenset[AtomicRule] = field(default_factory=frozenset)
    # the kept hash (_Value)
    _hash: int = field(init=False, repr=False, compare=False)
    # the base's own evaluation context, set by base_semantics.base_context
    # on first use, so a later lookup is one attribute read
    _context: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", frozenset(self.rules))
        if not check_consistency(self.rules):
            raise InconsistentBaseError(
                f"rules derive bot: {{{', '.join(sorted(map(format_rule, self.rules)))}}}"
            )
        self._keep(self.rules)

    __hash__ = _Value.__hash__

    def __str__(self) -> str:
        return format_base(self)


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


class _Numbering:
    """A rule set numbered for saturation, whole and in one pass.

    order lists the rules by number: the set's and every rule nested in a
    discharged set, in key order, and index maps each rule to its number;
    atoms numbers the atoms in the order the rules first mention them.
    Every atom's axiom has a number too, held in the set or not: those the
    rules do not hold follow them, in atom-number order, so assuming the
    axiom of an atom the set mentions only adds a bit to a context.
    shapes[i] is rule i's ((premise atom, discharged mask), ...),
    concluding[a] the mask of the rules concluding atom a, axioms[a] the
    bit of a's axiom, and initial the mask of the set itself.  Two masks
    tell from the rules' shape alone whether a supply can derive anything:
    nested, every rule some discharged set holds, and axiom_bits, every
    rule without premises, held in the set or not.  Every context is
    initial, with assumed bits, OR'd with some of nested, and a derivation
    ends in axioms, so a supply none of whose reachable rules is an axiom
    derives nothing.
    """

    __slots__ = ("order", "index", "atoms", "shapes", "concluding", "axioms",
                 "nested", "axiom_bits", "initial")

    def __init__(self, rules: frozenset[AtomicRule]) -> None:
        index: dict[AtomicRule, int] = {}
        todo = list(rules)
        while todo:
            r = todo.pop()
            if r not in index:
                index[r] = -1
                for p in r.premises:
                    todo.extend(p.discharged)
        self.order: list[AtomicRule] = []
        self.index = index
        self.atoms: dict[str, int] = {}
        self.shapes: list[tuple[tuple[int, int], ...]] = []
        self.concluding: dict[int, int] = {}
        self.axioms: dict[int, int] = {}
        self.nested = self.axiom_bits = 0
        self._number(sorted(index, key=lambda r: r._key))
        atoms, axioms = self.atoms, self.axioms
        self._number([axiom(a) for a, i in atoms.items() if i not in axioms])
        self.initial = self._mask(rules)

    def _mask(self, rules: Iterable[AtomicRule]) -> int:
        index = self.index
        m = 0
        for r in rules:
            m |= 1 << index[r]
        return m

    def _number(self, new: list[AtomicRule]) -> None:
        """Give the rules the next numbers, in the order listed."""
        index, atoms, concluding = self.index, self.atoms, self.concluding
        start = len(self.order)
        for i, r in enumerate(new, start):
            index[r] = i
        self.order += new
        nested = axiom_bits = 0
        for i, r in enumerate(new, start):
            prems = []
            for p in r.premises:
                dmask = 0
                for s in p.discharged:
                    dmask |= 1 << index[s]
                nested |= dmask
                prems.append((atoms.setdefault(p.conclusion, len(atoms)), dmask))
            self.shapes.append(tuple(prems))
            head = atoms.setdefault(r.conclusion, len(atoms))
            concluding[head] = concluding.get(head, 0) | 1 << i
            if not prems:
                self.axioms[head] = 1 << i
                axiom_bits |= 1 << i
        self.nested |= nested
        self.axiom_bits |= axiom_bits


# The numberings of recent rule sets, keyed by the set, never by a Base: an
# entry that held a base would keep it, and its evaluation context, alive.
# A base asked under several assumed sets is numbered once.
@lru_cache(maxsize=256)
def _numbering(rules: frozenset, /) -> _Numbering:
    return _Numbering(rules)


class _Saturation:
    """Fixpoint of 'atom a is derivable in context R' over the facts asked.

    A context is the supply plus some of the rules that premises discharge.
    A supply none of whose reachable rules is an axiom (no bit of initial
    or of the numbering's nested mask is in its axiom_bits) derives
    nothing, in any context: it is answered at once, with no atoms, one
    context and no fact recorded, and counts no step.  Others are built
    in two steps:

    1. Number every rule: the supply and every rule nested in a discharged
       set (_Numbering).  A base's rules are numbered once, in the fixed
       order of the rule keys, followed by the axioms of its atoms that it
       lacks.  Assumed rules the numbering holds, such as the axiom of any
       atom the base mentions, are bits of the supply's context (initial)
       and cost no numbering.  A context is then an int bitmask over those
       numbers, and a premise's target context is the current one OR'd
       with the premise's discharged-rule mask.
    2. Answer goals (context c, atom a) from a worklist, as tabled
       resolution does (Tamaki & Sato 1986; Chen & Warren 1996), and pass
       on the facts each goal completes before the next goal is taken.
       The worklist starts with every atom in the supply's context.  A goal
       whose fact is already recorded grounds nothing.  One whose context
       holds a's axiom is met by the axiom alone; otherwise it grounds the
       rules of c that conclude a, in rule-number order, and stops at the
       first whose premises are all recorded already.  Each unmet premise
       (b, discharged mask) asks for the fact (c | mask, b), which joins
       the worklist the first time it is asked.  Facts are passed on with
       counters, as in linear-time Horn satisfiability (Dowling & Gallier
       1984): each application counts its unmet premises; a newly recorded
       fact decrements the applications that watch it, and one whose count
       reaches zero records its conclusion.

    Derivability is monotone in the context, and the worklist uses that
    as call subsumption does in tabled evaluation (Swift & Warren 2012,
    "XSB: Extending Prolog with tabled logic programming").  A context is
    opened only when a goal of a smaller one asks for a fact in it, and it
    starts with every atom recorded in the context that opened it.  Each
    context keeps its ask edges, the larger contexts its goals have asked
    into, and a fact recorded in it later is passed along each of them;
    no context is ever scanned for its supersets.  A saturation that opens
    one context keeps no edge and passes nothing.

    A fact never asked can feed only applications never asked, and a fact
    passed along an edge holds where it arrives, so the asked facts reach
    the least fixpoint of every reachable context.  Each fact is justified
    by the first way it is recorded: an axiom, the first of its
    applications to complete, or the fact of the smaller context it was
    passed on from, whose tree it shares.  Each justification references
    only facts recorded before it, so the trees can be built in recorded
    order, each node after its premises' nodes, even through cyclic rule
    supplies.  Every order followed comes from the rule numbering, never
    from iterating a set, so the witness does not depend on the hash seed.

    Kept afterwards: atoms, the frozenset of atoms derivable in the
    supply's context (context 0), and until the first tree() call the
    tables a tree is read from: the numbering, each recorded fact's
    justification, the contexts by number and by mask, and the recorded
    facts in order.  The first tree() call builds the DerivationNodes from
    those tables in one pass, keeps context 0's by atom and drops the
    tables; a saturation asked only for atoms builds no node.
    """

    __slots__ = ("atoms", "_tables", "_trees")

    def __init__(self, numbering: _Numbering, initial: int, max_steps: int) -> None:
        self._trees: dict[str, DerivationNode] = {}
        if not (initial | numbering.nested) & numbering.axiom_bits:
            # no reachable axiom: nothing is derivable, in any context
            self.atoms: frozenset[str] = frozenset()
            self._tables: tuple | None = (numbering, {}, [initial], {initial: 0}, [])
            return
        shapes, concluding = numbering.shapes, numbering.concluding
        axioms = numbering.axioms
        n = len(numbering.atoms)

        # a fact (context c, atom a) is the number c * n + a.  Application k
        # is rule app_rule[k] concluding fact app_head[k], with counts[k]
        # premises unmet.  goals lists the facts asked, in the order asked;
        # watchers[f] lists the applications waiting on fact f (once per
        # premise) until it is recorded, and bit t of asks[c] is set when c
        # has asked into context t.  just[f] is the rule that recorded fact f, or ~g when
        # f was passed on from fact g, itself recorded by a rule; queue
        # lists the recorded facts in order, the first `done` passed on.
        ids = {initial: 0}
        masks = [initial]
        asks = [0]
        goals = list(range(n))
        watchers: dict[int, list[int]] = {}
        just: dict[int, int] = {}
        app_rule: list[int] = []
        app_head: list[int] = []
        counts: list[int] = []
        queue: list[int] = []
        done = steps = 0
        for f in goals:  # goals grows as premises ask for new facts
            if f in just:
                continue
            c, a = divmod(f, n)
            m = masks[c]
            bit = m & axioms.get(a, 0)
            if bit:
                # the axiom: the other rules concluding a add nothing
                just[f] = bit.bit_length() - 1
                queue.append(f)
                rest = 0
            else:
                rest = m & concluding.get(a, 0)
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                prems = shapes[i]
                steps += len(prems)
                k = len(counts)
                unmet = 0
                for b, dmask in prems:
                    tm = m | dmask
                    if tm == m:
                        t = c
                    else:
                        t = ids.get(tm)
                        if t is None:
                            # a new context starts with c's recorded atoms
                            t = ids[tm] = len(masks)
                            masks.append(tm)
                            asks.append(0)
                            for h in range(c * n, c * n + n):
                                j = just.get(h)
                                if j is not None:
                                    steps += 1
                                    moved = h + (t - c) * n
                                    just[moved] = j if j < 0 else ~h
                                    queue.append(moved)
                        asks[c] |= 1 << t
                    g = t * n + b
                    if g in just:
                        continue
                    unmet += 1
                    waiting = watchers.get(g)
                    if waiting is None:
                        watchers[g] = [k]
                        if g >= n:  # the supply's context's atoms are goals
                            goals.append(g)
                    else:
                        waiting.append(k)
                if not unmet:
                    # complete at once: the later rules for a add nothing
                    just[f] = i
                    queue.append(f)
                    break
                app_rule.append(i)
                app_head.append(f)
                counts.append(unmet)
            if steps > max_steps:
                raise ResourceLimitExceeded(f"saturation exceeded {max_steps} steps")
            while done < len(queue):  # queue grows as facts are recorded
                g = queue[done]
                done += 1
                waiting = watchers.get(g)
                if waiting is not None:
                    steps += len(waiting)
                    for k in waiting:
                        left = counts[k] - 1
                        counts[k] = left
                        if not left:
                            head = app_head[k]
                            if head not in just:
                                just[head] = app_rule[k]
                                queue.append(head)
                # and along the ask edges of its context, in context order
                c = g // n
                to = asks[c]
                if to:
                    j = just[g]
                    src = j if j < 0 else ~g
                    while to:
                        low = to & -to
                        to ^= low
                        h = g + (low.bit_length() - 1 - c) * n
                        steps += 1
                        if h not in just:
                            just[h] = src
                            queue.append(h)
                if steps > max_steps:
                    raise ResourceLimitExceeded(
                        f"saturation exceeded {max_steps} steps"
                    )

        names = list(numbering.atoms)
        self.atoms = frozenset(names[a] for a in range(n) if a in just)
        self._tables = (numbering, just, masks, ids, queue)

    def tree(self, goal: str) -> DerivationNode:
        """The derivation of a derivable atom of the supply's context.

        The first call builds a node for each fact a rule recorded, in
        recorded order, so each premise's node exists before the nodes
        that use it, and then drops the saturation's tables; later calls
        look the tree up.  A fact passed on from a smaller context gets no
        node of its own: its tree is that context's, the same object.
        Trees of one supply share their common subtrees.
        """
        if self._tables is not None:
            numbering, just, masks, ids, queue = self._tables
            order, shapes = numbering.order, numbering.shapes
            names = list(numbering.atoms)
            n = len(names)
            nodes: dict[int, DerivationNode] = {}
            trees = self._trees
            for f in queue:
                i = just[f]
                if i < 0:
                    continue  # passed on: premises use the node of ~i
                m = masks[f // n]
                children = []
                for b, dmask in shapes[i]:
                    g = ids[m | dmask] * n + b
                    j = just[g]
                    children.append(nodes[~j if j < 0 else g])
                node = nodes[f] = DerivationNode(
                    names[f % n], order[i], tuple(children)
                )
                if f < n:
                    trees[names[f]] = node
            self._tables = None
        return self._trees[goal]


# A few recent saturations, for repeated derive() calls on one supply (one
# per goal atom of the same base under the same assumed rules), keyed by
# the base's rules and the assumed rules it lacks.  Assumed rules the base's
# numbering holds are bits of the supply's context, on the base's numbering
# itself.  A supply with any other assumed rule is numbered as the rule set
# rules | extra, so it saturates, and breaks ties, as the base of those
# rules does.  A base's own saturation lives in its evaluation context
# (base_semantics), so this cache need not hold every base's for as long as
# it lives.
@lru_cache(maxsize=256)
def _saturate(rules: frozenset, extra: frozenset, max_steps: int, /) -> _Saturation:
    numbering = _numbering(rules)
    if extra <= numbering.index.keys():
        initial = numbering.initial | numbering._mask(extra)
    else:
        numbering = _numbering(rules | extra)
        initial = numbering.initial
    return _Saturation(numbering, initial, max_steps)


@dataclass(frozen=True, slots=True)
class DeriveResult:
    derivable: bool
    tree: DerivationNode | None


def derive(
    base: Base,
    assumed: Iterable[AtomicRule] = (),
    goal: str = "bot",
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> DeriveResult:
    """Decide whether goal is derivable from base plus assumed rules.

    A YES carries a derivation tree; replay it with check_derivation
    against the base's rules | assumed.  Budget exhaustion raises
    ResourceLimitExceeded rather than answering NO, except on a supply
    with no axiom in it or in any discharged set: that is a NO that counts
    no step.  Otherwise a step is one grounded premise (a premise of an
    application some goal asked for), one counter decrement (a recorded
    fact passed on to one application watching it) or one fact passed
    along an ask edge (from a context to a larger one it has asked into,
    when that one is opened or later).  A NO builds no
    tree.  The 256 most recent saturations are kept, so asking for each
    atom of one supply in turn saturates it once, and the first YES builds
    every tree of the supply, once: a repeated call returns the same tree
    object, and trees of one supply share their common subtrees.  The
    numberings of the 256 most recent bases are kept too, so one base under
    several assumed sets is numbered once; an assumed axiom over an atom
    the base mentions costs no numbering work at all.
    """
    sat = _saturate(base.rules, frozenset(assumed) - base.rules, max_steps)
    if goal not in sat.atoms:
        return DeriveResult(derivable=False, tree=None)
    return DeriveResult(derivable=True, tree=sat.tree(goal))


def derivable_atoms(base: Base, assumed: Iterable[AtomicRule] = ()) -> frozenset[str]:
    """Every atom (bot included) derivable from base plus assumed rules.

    Read off the saturation derive() uses, which does no tree work for it:
    the saturation keeps the tables its trees are read from, and a later
    derive() YES on the same supply builds the trees from them.  Budget
    exhaustion raises ResourceLimitExceeded, as in derive(), except on a
    supply with no axiom in it or in any discharged set: that is the empty
    set, and counts no step.
    """
    extra = frozenset(assumed) - base.rules
    return _saturate(base.rules, extra, DEFAULT_MAX_STEPS).atoms


def check_consistency(rules: Iterable[AtomicRule]) -> bool:
    """True when the rules do not derive bot on their own.

    A derivation's last step applies one of the rules themselves (rules
    nested in a discharged set are only available above a premise), so
    when none of them concludes bot no saturation is needed.
    """
    supply = frozenset(rules)
    if all(r.conclusion != "bot" for r in supply):
        return True
    return "bot" not in _saturate(supply, frozenset(), DEFAULT_MAX_STEPS).atoms


class DerivationCheckError(ValueError):
    pass


def check_derivation(node: DerivationNode, available: frozenset[AtomicRule]) -> bool:
    """Replay a derivation tree against a rule supply; raises on any defect.

    Deliberately independent of the search: it re-checks rule membership
    and premise alignment at every node, depth first in premise order, on
    a stack of its own, so a tree of any depth replays.
    """
    stack = [(node, available, node.conclusion)]
    while stack:
        node, available, want = stack.pop()
        if node.conclusion != want:
            raise DerivationCheckError(f"premise {want} proved as {node.conclusion}")
        if node.rule not in available:
            raise DerivationCheckError(f"rule not available: {format_rule(node.rule)}")
        if node.rule.conclusion != node.conclusion:
            raise DerivationCheckError(
                f"conclusion mismatch: node {node.conclusion}, "
                f"rule {node.rule.conclusion}"
            )
        if len(node.children) != len(node.rule.premises):
            raise DerivationCheckError(
                f"premise count mismatch for {format_rule(node.rule)}"
            )
        for p, child in reversed(tuple(zip(node.rule.premises, node.children))):
            # shared when nothing is discharged: a copy per level is quadratic
            supply = available | p.discharged if p.discharged else available
            stack.append((child, supply, p.conclusion))
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


# ---------------------------------------------------------------------------
# concrete syntax


class RuleSyntaxError(_SyntaxError):
    """Raised on malformed rule text; carries the offending position."""


_RULE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>=>)|(?P<lpar>\()|(?P<rpar>\))|(?P<lbr>\[)|(?P<rbr>\])"
    rf"|(?P<comma>,)|(?P<dot>\.)|(?P<word>{_ATOM_RE.pattern}))"
)


class _RuleParser(_Scanner):
    """Recursive descent over the rule syntax.  A rule nested in more than
    MAX_NESTING discharged sets fails at the '[' that opens the set one too
    many, before the recursion goes any deeper: printing and the star
    translation recurse once per discharge."""

    opened = 0  # the discharged sets open around the current token

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
        raise self.error("expected a rule", self.text, pos)

    def premise(self) -> Premise:
        kind, value, pos = self.peek()
        if kind == "word":
            self.take()
            return premise(value)
        if kind == "lbr":
            self.take()
            self.opened += 1
            if self.opened > MAX_NESTING:
                raise self.error(
                    f"rule nested deeper than {MAX_NESTING} discharges", self.text, pos
                )
            discharged: list[AtomicRule] = []
            if self.peek()[0] != "arrow":
                discharged.append(self.rule())
                while self.peek()[0] == "comma":
                    self.take()
                    discharged.append(self.rule())
            self.opened -= 1
            self.expect("arrow", "'=>'")
            conclusion = self.expect("word", "an atom")
            self.expect("rbr", "']'")
            return premise(conclusion, discharged)
        raise self.error("expected a premise", self.text, pos)


def parse_rule(text: str) -> AtomicRule:
    """The rule a text denotes, an axiom's trailing dot optional;
    RuleSyntaxError if it is malformed or nested deeper than MAX_NESTING
    discharges.  Memoized per text, bounded, as parse_formula is: equal
    texts give the same rule, a malformed text raises on every call, and
    anything but a string is parsed uncached."""
    return (_parsed_rule if isinstance(text, str) else _parsed_rule.__wrapped__)(text)


@lru_cache(maxsize=4096)
def _parsed_rule(text: str) -> AtomicRule:
    parser = _RuleParser(text, _RULE_TOKEN_RE, RuleSyntaxError)
    r = parser.rule()
    if parser.peek()[0] == "dot":
        parser.take()
    parser.end()
    return r


def parse_base_text(text: str) -> Base:
    """The base of a file's text, one rule per line.  A syntax error names
    its line and quotes it whole, with the position in that line."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        try:
            rules.append(parse_rule(line))
        except RuleSyntaxError as e:
            indent = len(code) - len(code.lstrip())
            raise RuleSyntaxError(
                f"line {lineno}: {e.message}", raw, indent + e.pos
            ) from None
    return Base(rules=frozenset(rules))


def format_rule(r: AtomicRule) -> str:
    if not r.premises:
        return r.conclusion
    parts = []
    for p in r.premises:
        if not p.discharged:
            parts.append(p.conclusion)
        else:
            inner = ", ".join(
                format_rule(s) for s in sorted(p.discharged, key=lambda s: s._key)
            )
            parts.append(f"[{inner} => {p.conclusion}]")
    return f"({', '.join(parts)} => {r.conclusion})"


def format_base(b: Base) -> str:
    lines = []
    for r in sorted(b.rules, key=lambda r: (level(r), r._key)):
        text = format_rule(r)
        lines.append(text + "." if not r.premises else text)
    return "\n".join(lines) + ("\n" if lines else "")

