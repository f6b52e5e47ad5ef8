"""Two inductive consequence relations over a base of atomic rules.

The standard relation grounds atoms in derivability and treats the
disjunction clause disjunctively; the variant relation replaces the
disjunction clause with second-order elimination over a finite atom universe
(every atom C entailed by both disjuncts must itself hold).  Both relations
read a nonempty premise set materially over the same base, which is what
makes them non-monotonic: {p} entails q over the empty base vacuously and
stops entailing it once the base proves p.

The universe for the variant clause is truncated to the atoms of the base
and the sequent plus one fresh atom; a note in every trace records this.
The trailing formula of the variant disjunction clause is read as the
quantified atom itself (the natural reading; traces carry a note).

How a sequent is evaluated: each base gets one BaseContext, built on first
use, kept in the base and dropped with it.  It holds the derivable atoms
and decides truth for both relations by one classical valuation: read
materially, the clauses collapse to it, and the variant's fresh atom,
which no base derives, makes its disjunction clause collapse too.
models() answers from the context; only when a trace is asked for does an
Evaluator replay the clauses to render the trace's entries.  The context
also keeps the answer per sequent, so over one base the two relations and
the validity layer's models_alpha decide a sequent once.  An untraced call
reads that answer and returns an immutable result: the standard relation
has one per answer for the whole process.  Over one base the variant's
universe depends only on the sequent's atoms, which a sequent computes
once, so the context keeps the variant's two results per atom set, and a
warm untraced call of either relation builds nothing.  The validity layer
builds its atomic witness arguments from the trees of the context's
saturation and keeps them in the context; this module builds no argument
structures.

Also here: counterexample search over bases, a bounded monotone variant of
the relations, the export-principle harness, and a decision procedure for
intuitionistic propositional derivability (the contraction-free four-case
calculus) used to compare proof-theoretic consequence with derivability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Any, Iterable, Iterator

from prooflab.atomic_system import (
    DEFAULT_MAX_STEPS,
    AtomicRule,
    Base,
    InconsistentBaseError,
    atoms_of_base,
    axiom,
    _saturate,
    format_rule,
    star_translate,
)
from prooflab.syntax import (
    Absurdity,
    Atom,
    BOT,
    Conj,
    Disj,
    Formula,
    FormulaSyntaxError,
    Impl,
    _Value,
    atoms_of,
    format_formula,
    parse_formula,
)

__all__ = [
    "Sequent",
    "parse_sequent",
    "format_sequent",
    "SemanticsKind",
    "EvalTrace",
    "EvalResult",
    "models",
    "BaseContext",
    "base_context",
    "Evaluator",
    "fresh_atom",
    "SearchBounds",
    "SearchResult",
    "search_counterexample",
    "MonotoneResult",
    "models_monotone_bounded",
    "ExportReport",
    "export_principle_holds",
    "il_derives",
    "base_completeness_witness",
]


@dataclass(frozen=True)
class Sequent(_Value):
    premises: frozenset[Formula] = field(default_factory=frozenset)
    conclusion: Formula = BOT
    # the named atoms of the conclusion and the premises, and the kept hash
    # (_Value), each computed once
    _atoms: frozenset[str] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        premises = frozenset(self.premises)
        object.__setattr__(self, "premises", premises)
        object.__setattr__(
            self, "_atoms", atoms_of(self.conclusion).union(*map(atoms_of, premises))
        )
        self._keep(premises, self.conclusion)

    __hash__ = _Value.__hash__

    def __str__(self) -> str:
        return format_sequent(self)


def parse_sequent(text: str) -> Sequent:
    if text.count("|-") != 1:
        raise FormulaSyntaxError("expected exactly one '|-'", text, 0)
    left, right = text.split("|-")

    def parsed(part: str, pos: int) -> Formula:
        # an error in a part is reported at its offset in the whole text
        try:
            return parse_formula(part)
        except FormulaSyntaxError as e:
            raise FormulaSyntaxError(e.message, text, pos + e.pos) from None

    premises = []
    if left.strip():
        # a blank left side means no premises; a blank premise is an error
        pos = 0
        for part in left.split(","):
            if not part.strip():
                raise FormulaSyntaxError("expected a formula", text, pos)
            premises.append(parsed(part, pos))
            pos += len(part) + 1
    return Sequent(
        premises=frozenset(premises), conclusion=parsed(right, len(left) + 2)
    )


def format_sequent(s: Sequent) -> str:
    left = ", ".join(sorted(format_formula(g) for g in s.premises))
    return f"{left} |- {format_formula(s.conclusion)}" if left else f"|- {format_formula(s.conclusion)}"


class SemanticsKind(Enum):
    STANDARD = "standard"
    SANDQVIST = "sandqvist"


def fresh_atom(used: Iterable[str]) -> str:
    taken = set(used)
    if "c" not in taken:
        return "c"
    i = 1
    while f"c{i}" in taken:
        i += 1
    return f"c{i}"


@dataclass(frozen=True, slots=True)
class EvalTrace:
    """What an evaluation records: the relation, the variant's universe,
    the notes on its readings and, when a trace was asked for, one entry per
    (premises, goal) pair in the order the clauses reached them.  An
    untraced call's trace is shared by the untraced calls that read the
    same kept result, so it is immutable and its entries are the empty
    tuple; a traced call's trace is its own, with a fresh list."""

    kind: str
    universe: tuple[str, ...] | None
    notes: tuple[str, ...]
    entries: list[tuple[str, str, str, bool]] | tuple[()] = field(
        default_factory=list
    )
    # entry: (clause, premises rendered, formula rendered, result)


@dataclass(frozen=True, slots=True)
class EvalResult:
    holds: bool
    trace: EvalTrace


_VARIANT_NOTES = (
    "atom universe truncated to atoms(base) | atoms(sequent) | {one fresh atom}",
    "disjunction clause: the final consequent is read as the quantified atom C",
)


def _notes(kind: SemanticsKind) -> tuple[str, ...]:
    return _VARIANT_NOTES if kind is SemanticsKind.SANDQVIST else ()


class BaseContext:
    """Everything derived from one base, computed once for that base.

    It owns the saturation of the base's own rules (the validity layer
    reads its atomic witnesses off that saturation's trees) and, from it,
    the derivable atoms.  It holds the atoms the base mentions (the
    variant's universe starts from them).  It also decides truth: with a
    nonempty premise set read materially, both relations collapse to the
    classical valuation that makes exactly the derivable atoms true.  For
    the variant's disjunction clause this is because the universe always
    holds a fresh atom, which the base never derives, so the clause fails
    exactly when both disjuncts fail.  Truth values are memoized per
    formula, and the consequence answer per sequent: answers is filled on
    the first ask through entails, and the untraced models() of both
    relations and the validity layer's models_alpha all read it.  Like the
    truth memo it is unbounded, one bool per distinct sequent asked, and it
    dies with the context.  _variant keeps the variant relation's two
    untraced results, for answers False and True, per sequent atom set: the
    variant's universe depends only on the base's atoms, fixed here, and
    the sequent's.  It is unbounded too, but holds one pair per distinct
    atom set, not per sequent.  validity is the validity layer's state for
    the base (its witness arguments, its answers per sequent and budget and
    its suite provider), made by that layer on first use.  Nothing here
    references a base: a base holds its context, and a reference back would
    keep both alive until the next cyclic collection, not just as long as a
    base does.  Get the context of a base from base_context().
    """

    def __init__(self, base: Base) -> None:
        self.rules = base.rules
        self.saturation = _saturate(base.rules, frozenset(), DEFAULT_MAX_STEPS)
        self.derivable = self.saturation.atoms
        self.atoms = atoms_of_base(base)
        self._truth: dict[Formula, bool] = {}
        self.answers: dict[Sequent, bool] = {}
        self._variant: dict[frozenset[str], tuple[EvalResult, EvalResult]] = {}
        self.validity: Any = None

    def holds(self, f: Formula) -> bool:
        """Does the closed formula f hold over the base?"""
        if isinstance(f, Atom):
            return f.name in self.derivable
        got = self._truth.get(f)
        if got is None:
            if isinstance(f, Absurdity):
                got = "bot" in self.derivable
            elif isinstance(f, Conj):
                got = self.holds(f.left) and self.holds(f.right)
            elif isinstance(f, Disj):
                got = self.holds(f.left) or self.holds(f.right)
            else:
                assert isinstance(f, Impl)
                got = not self.holds(f.left) or self.holds(f.right)
            self._truth[f] = got
        return got

    def entails(self, premises: frozenset[Formula], goal: Formula) -> bool:
        """The premises, read materially, entail the goal."""
        return not all(map(self.holds, premises)) or self.holds(goal)

    def consequence(self, sequent: Sequent) -> bool:
        """The sequent's premises, read materially, entail its conclusion:
        the kept answer, decided through entails on the first ask."""
        got = self.answers.get(sequent)
        if got is None:
            got = self.answers[sequent] = self.entails(
                sequent.premises, sequent.conclusion
            )
        return got


def base_context(base: Base) -> BaseContext:
    """The evaluation context of the base: built on first use and kept in
    the base, so a later lookup is one attribute read."""
    ctx = base._context
    if ctx is None:
        ctx = BaseContext(base)
        object.__setattr__(base, "_context", ctx)
    return ctx


class Evaluator:
    """Renders the clause-by-clause trace of evaluations over one base,
    given the base's context.

    It replays the clauses of the chosen relation in their recursive order
    and records one entry per (premises, goal) pair the first time it is
    reached; every truth value comes from the base's context.  models()
    replays the clauses only when a trace is asked for.
    """

    def __init__(
        self,
        kind: SemanticsKind,
        context: BaseContext,
        universe: tuple[str, ...] | None,
    ) -> None:
        self.kind = kind
        self.context = context
        self.universe = universe
        self.seen: set[tuple[frozenset[Formula], Formula]] = set()
        self.entries: list[tuple[str, str, str, bool]] = []
        self.trace = EvalTrace(kind.value, universe, _notes(kind), self.entries)

    def _log(self, clause: str, premises: frozenset[Formula], goal: Formula, result: bool) -> None:
        rendered = ", ".join(sorted(format_formula(g) for g in premises))
        self.entries.append((clause, rendered, format_formula(goal), result))

    def entails(self, premises: frozenset[Formula], goal: Formula) -> bool:
        result = self.context.entails(premises, goal)
        key = (premises, goal)
        if key in self.seen:
            return result
        # every clause strictly shrinks the formula multiset, so a pair is
        # never reached again while its own clause is replayed
        self.seen.add(key)
        if premises:
            # in format_formula order, so the hash seed cannot move where
            # the replay stops
            ordered = sorted(premises, key=format_formula)
            if all(self.entails(frozenset(), g) for g in ordered):
                self.entails(frozenset(), goal)
            self._log("premises", premises, goal, result)
        else:
            self._closed(goal, result)
        return result

    def _closed(self, goal: Formula, result: bool) -> None:
        none: frozenset[Formula] = frozenset()
        if isinstance(goal, Atom):
            self._log("atom", none, goal, result)
        elif isinstance(goal, Absurdity):
            self._log("bot", none, goal, result)
        elif isinstance(goal, Conj):
            if self.entails(none, goal.left):
                self.entails(none, goal.right)
            self._log("conj", none, goal, result)
        elif isinstance(goal, Impl):
            self.entails(frozenset({goal.left}), goal.right)
            self._log("impl", none, goal, result)
        elif self.kind is SemanticsKind.STANDARD:
            if not self.entails(none, goal.left):
                self.entails(none, goal.right)
            self._log("disj", none, goal, result)
        else:
            # every atom C of the universe entailed by both disjuncts must
            # hold; the search stops at the first C that does not
            assert self.universe is not None
            for name in self.universe:
                c = Atom(name)
                if (
                    self.entails(frozenset({goal.left}), c)
                    and self.entails(frozenset({goal.right}), c)
                    and not self.entails(none, c)
                ):
                    break
            self._log("disj-elim", none, goal, result)


def _variant_universe(
    base_atoms: frozenset[str], sequent_atoms: frozenset[str]
) -> tuple[str, ...]:
    """The variant's universe: the atoms of the base and the sequent, sorted,
    then one fresh atom."""
    used = base_atoms | sequent_atoms
    return tuple(sorted(used)) + (fresh_atom(used),)


def _untraced(
    kind: SemanticsKind, universe: tuple[str, ...] | None, holds: bool
) -> EvalResult:
    """The result an untraced call with this relation, universe and answer
    returns."""
    trace = EvalTrace(kind.value, universe, _notes(kind), ())
    return EvalResult(holds=holds, trace=trace)


# the standard relation's two untraced results, indexed by the answer
_STANDARD = (
    _untraced(SemanticsKind.STANDARD, None, False),
    _untraced(SemanticsKind.STANDARD, None, True),
)


def models(
    kind: SemanticsKind, base: Base, sequent: Sequent, *, trace: bool = True
) -> EvalResult:
    """Does the sequent hold over the base under the chosen relation?

    The trace's entries are rendered only when trace is True, into a trace
    of the call's own.  An untraced call reads the answer the base's
    context keeps for the sequent (unbounded, one per distinct sequent,
    gone with the context) and returns a shared, immutable result of its
    relation, universe and answer, whose entries are the empty tuple.  It
    indexes a pair of results with the answer:
    the standard relation's one pair, or the variant's pair for the
    sequent's atom set, which the context builds on the first ask for that
    atom set and keeps."""
    ctx = base_context(base)
    if not trace:
        if kind is SemanticsKind.STANDARD:
            return _STANDARD[ctx.consequence(sequent)]
        pair = ctx._variant.get(sequent._atoms)
        if pair is None:
            universe = _variant_universe(ctx.atoms, sequent._atoms)
            pair = ctx._variant[sequent._atoms] = (
                _untraced(kind, universe, False),
                _untraced(kind, universe, True),
            )
        return pair[ctx.consequence(sequent)]
    universe = (
        _variant_universe(ctx.atoms, sequent._atoms)
        if kind is SemanticsKind.SANDQVIST
        else None
    )
    ev = Evaluator(kind, ctx, universe)
    holds = ev.entails(sequent.premises, sequent.conclusion)
    return EvalResult(holds=holds, trace=ev.trace)


# ---------------------------------------------------------------------------
# counterexample search


@dataclass(frozen=True)
class SearchBounds:
    """Caps on the bases search_counterexample tries: at most max_atoms of
    the sequent's atoms, at most max_rules rules.  max_level is accepted
    and reported but never read: the search tries axiom-only bases, which
    are exhaustive at any bounds (see search_counterexample), so no level
    cap can change an answer."""

    max_atoms: int = 3
    max_rules: int = 4
    max_level: int = 2


@dataclass(frozen=True)
class SearchResult:
    counterexample: Base | None
    examined: int
    bounds: SearchBounds
    note: str


def search_counterexample(
    kind: SemanticsKind, sequent: Sequent, bounds: SearchBounds = SearchBounds()
) -> SearchResult:
    """Smallest refuting base within bounds, or none.

    Axiom-only bases over the sequent's atoms are exhaustive for both
    relations at any bounds: no clause ever extends the base, so a verdict
    depends only on which of the sequent's atoms are derivable, every such
    derivability profile is realized by the axiom set itself, and for the
    variant clause an extra base atom is either derivable (its instances are
    vacuously satisfied) or indistinguishable from the fresh atom.  Rules of
    higher level therefore cannot refute anything the axiom sets cannot.
    """
    names = sorted(sequent._atoms)[: bounds.max_atoms]
    examined = 0
    limit = min(bounds.max_rules, len(names))
    for size in range(0, limit + 1):
        for chosen in combinations(names, size):
            b = Base(rules=frozenset(axiom(n) for n in chosen))
            examined += 1
            if not models(kind, b, sequent, trace=False).holds:
                return SearchResult(
                    counterexample=b,
                    examined=examined,
                    bounds=bounds,
                    note="axiom bases over the sequent's atoms are exhaustive here",
                )
    return SearchResult(
        counterexample=None,
        examined=examined,
        bounds=bounds,
        note="none found within bounds",
    )


# ---------------------------------------------------------------------------
# bounded monotone variant


@dataclass(frozen=True)
class MonotoneResult:
    holds: bool
    failing_extension: Base | None
    checked: int


def _subsets(items: tuple) -> Iterator[tuple]:
    for size in range(len(items) + 1):
        yield from combinations(items, size)


def models_monotone_bounded(
    kind: SemanticsKind,
    base: Base,
    sequent: Sequent,
    universe: Iterable[AtomicRule],
) -> MonotoneResult:
    """Quantify the premise clause over every consistent extension of the
    base inside the given finite rule universe."""
    extra = tuple(sorted(frozenset(universe) - base.rules, key=format_rule))
    checked = 0
    for subset in _subsets(extra):
        try:
            ext = Base(rules=base.rules | frozenset(subset))
        except InconsistentBaseError:
            continue
        checked += 1
        if not models(kind, ext, sequent, trace=False).holds:
            return MonotoneResult(holds=False, failing_extension=ext, checked=checked)
    return MonotoneResult(holds=True, failing_extension=None, checked=checked)


# ---------------------------------------------------------------------------
# export principle


@dataclass(frozen=True)
class ExportReport:
    kind: SemanticsKind
    left_holds: bool
    right_sequent: Sequent
    counterexample: Base | None
    examined: int
    verdict: str  # "confirmed-failure" | "no-counterexample-in-bounds"


def export_principle_holds(
    kind: SemanticsKind,
    base: Base,
    sequent: Sequent,
    assumed: Iterable[AtomicRule] = (),
    bounds: SearchBounds = SearchBounds(),
) -> ExportReport:
    """Test exporting a base and assumed rules into the object language.

    Left side: the sequent over the base joined with the assumed rules.
    Right side: premises extended with the star translations of the assumed
    rules and of the base, claimed over every base; refuted by searching for
    a counterexample base within bounds.  The verdict is confirmed-failure
    exactly when the left side holds and the right side has a refuting base.
    """
    assumed = frozenset(assumed)
    combined = Base(rules=base.rules | assumed)
    left = models(kind, combined, sequent, trace=False).holds
    stars = frozenset(star_translate(r) for r in assumed) | frozenset(
        star_translate(r) for r in base.rules
    )
    right_seq = Sequent(
        premises=sequent.premises | stars, conclusion=sequent.conclusion
    )
    search = search_counterexample(kind, right_seq, bounds)
    failed = left and search.counterexample is not None
    return ExportReport(
        kind=kind,
        left_holds=left,
        right_sequent=right_seq,
        counterexample=search.counterexample,
        examined=search.examined,
        verdict="confirmed-failure" if failed else "no-counterexample-in-bounds",
    )


# ---------------------------------------------------------------------------
# intuitionistic derivability (contraction-free four-case calculus)


@lru_cache(maxsize=65536)
def _ipc(gamma: frozenset, goal: Formula) -> bool:
    if BOT in gamma:
        return True
    if isinstance(goal, (Atom, Absurdity)) and goal in gamma:
        return True
    if isinstance(goal, Conj):
        return _ipc(gamma, goal.left) and _ipc(gamma, goal.right)
    if isinstance(goal, Impl):
        return _ipc(gamma | {goal.left}, goal.right)
    for f in gamma:
        if isinstance(f, Conj):
            return _ipc(gamma - {f} | {f.left, f.right}, goal)
        if isinstance(f, Disj):
            rest = gamma - {f}
            return _ipc(rest | {f.left}, goal) and _ipc(rest | {f.right}, goal)
        if isinstance(f, Impl):
            a = f.left
            if isinstance(a, (Atom, Absurdity)):
                if a in gamma:
                    return _ipc(gamma - {f} | {f.right}, goal)
            elif isinstance(a, Conj):
                return _ipc(
                    gamma - {f} | {Impl(a.left, Impl(a.right, f.right))}, goal
                )
            elif isinstance(a, Disj):
                return _ipc(
                    gamma - {f} | {Impl(a.left, f.right), Impl(a.right, f.right)},
                    goal,
                )
    if isinstance(goal, Disj):
        if _ipc(gamma, goal.left) or _ipc(gamma, goal.right):
            return True
    for f in gamma:
        if isinstance(f, Impl) and isinstance(f.left, Impl):
            rest = gamma - {f}
            if _ipc(rest | {Impl(f.left.right, f.right)}, f.left) and _ipc(
                rest | {f.right}, goal
            ):
                return True
    return False


def il_derives(premises: Iterable[Formula], conclusion: Formula) -> bool:
    """Intuitionistic propositional derivability, decided without loops:
    every rule of the four-case calculus strictly shrinks its sequent."""
    return _ipc(frozenset(premises), conclusion)


# ---------------------------------------------------------------------------
# base-completeness witness


def base_completeness_witness(kind: str = "standard") -> dict:
    """The vacuous consequence p over the empty base entails q, yet q is not
    intuitionistically derivable from p; any calculus closed under
    substitution that answered yes to p derives q would be inconsistent."""
    p, q = Atom("p"), Atom("q")
    seq = Sequent(premises=frozenset({p}), conclusion=q)
    empty = Base()
    if kind in ("standard", "sandqvist"):
        entailed = models(SemanticsKind(kind), empty, seq, trace=False).holds
    elif kind == "alpha":
        from prooflab.validity import models_alpha  # deferred: avoids a module cycle

        entailed = models_alpha(empty, seq).verdict.status.value == "valid"
    else:
        raise ValueError(f"unknown semantics kind: {kind!r}")
    derivable = il_derives((p,), q)
    monotone = models_monotone_bounded(
        SemanticsKind.STANDARD, empty, seq, universe={axiom("p")}
    )
    return {
        "kind": kind,
        "sequent": format_sequent(seq),
        "base": "empty",
        "models": entailed,
        "il_derives": derivable,
        "verdict": "not-base-complete" if entailed and not derivable else "inconclusive",
        "monotone_bounded_universe_p": monotone.holds,
    }
