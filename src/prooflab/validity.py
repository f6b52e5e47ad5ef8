"""Validity of arguments over a base, and consequence defined through it.

An argument is a structure together with justifications: reductions beyond
the standard detour set.  Validity is judged relative to a base B:

  * a closed argument with atomic conclusion is valid when it reduces,
    under its justifications, to a derivation in B;
  * a closed argument with compound conclusion is valid when it reduces to
    a canonical argument (root step an introduction) whose immediate
    sub-arguments are valid;
  * an open argument is valid when every way of closing it — replacing
    each assumption by a closed valid argument for it, possibly with
    extended justifications — yields a valid closed argument.

The open clause quantifies over all closed valid arguments, which no finite
run can enumerate, so the checker works relative to a supplied set of
closing instances (or a provider that builds them) and says so in its
verdict; a definite failure on one instance is still a definite failure.

Consequence: Γ is taken to the conclusion over B when some argument from
assumptions Γ is valid over B.  The evaluator rides on the equivalence with
the clause-defined consequence relation: it evaluates that relation first
and then synthesizes and rechecks a concrete witness argument, so a
positive answer always comes with an argument in hand.  The base's
evaluation context (base_semantics.base_context) answers the clause-defined
relation by its classical valuation, once per sequent, an answer the
untraced models() of both relations share, and its saturation's trees are
the atomic derivations the witnesses are built from.  The same context keeps
this layer's state for the base, for as long as the base lives: one closed
witness argument per formula, built once, so the same justification
objects come back on every call; one table of answers, one per sequent and
budget, keyed by the sequent's premise set, conclusion and the budget (a
witness's premise set is empty); and the suite provider built on those
witnesses.  An answer is models_alpha's whole result: the synthesized
argument, its verdict, checked once, and whether the sequent holds.  The
table answers every later check of that argument: a witness closing an
instance of the provider's own suite reads its entry's verdict, and a warm
models_alpha call is one lookup that builds nothing.  Its memory cost is
the argument each entry keeps: for a sequent with premises an Argument of
its own and, when every premise holds, a constant reduction; the answer,
the Argument and the Reduction have slots, so each entry is small.  One step builder makes both
synthesized one-step arguments: the body of an implication's witness and
the argument for a sequent with premises, each an inference from its
assumptions justified by a constant reduction to the conclusion's witness.
The inference itself, its assumption leaves in format_formula order,
depends on no base: one bounded module-wide cache keeps it for every base.
Equal verdicts are one object, and the checks of sub-arguments under a
parent's justifications are made afresh.  A strict call skips the lookup:
it synthesizes, and so refuses, on every call; an argument it lets through
is the one an unrestricted call builds, so its answer is kept and shared
as that call's is.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

from prooflab.arguments import (
    ArgumentStructure,
    Inference,
    StructureError,
    assumption,
    assumptions,
    conclusion,
    derivation_to_structure,
    impl_intro,
    instantiate,
    is_canonical,
    is_closed,
    or_intro_left,
    or_intro_right,
    and_intro,
    structure_of_inference,
    sub_structures,
)
from prooflab.atomic_system import Base
from prooflab.base_semantics import (
    BaseContext,
    SemanticsKind,
    Sequent,
    base_context,
    format_sequent,
    models,
)
from prooflab.reductions import (
    DEFAULT_BUDGET,
    Reduction,
    constant_reduction,
    search_reduct,
    standard_reductions,
)
from prooflab.syntax import (
    Absurdity,
    Atom,
    Conj,
    Disj,
    Formula,
    Impl,
    format_formula,
)

__all__ = [
    "Argument",
    "Status",
    "ValidityVerdict",
    "Suite",
    "Instantiation",
    "SuiteProvider",
    "check_valid",
    "AlphaResult",
    "models_alpha",
    "semantic_suite_provider",
    "compare_consequence_notions",
]


class Status(Enum):
    VALID = "valid"
    INVALID = "invalid"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ValidityVerdict:
    status: Status
    reason: str
    notes: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Argument:
    """A structure with its justifications; the standard reductions are
    always in force and need not be listed."""

    structure: ArgumentStructure
    justifications: tuple[Reduction, ...] = ()

    def reductions(self) -> tuple[Reduction, ...]:
        return _merge_reductions(standard_reductions(), self.justifications)


@dataclass(frozen=True)
class Instantiation:
    """One way of closing an open argument: a closed argument for each
    assumption, plus any justifications those arguments bring along."""

    assignment: tuple[tuple[Formula, "Argument"], ...]


@dataclass(frozen=True)
class Suite:
    """The closing instances an open argument is checked against.  An empty
    suite is only meaningful when the caller can vouch that no closed valid
    argument for some assumption exists (vacuous_reason says why)."""

    instances: tuple[Instantiation, ...] = ()
    vacuous_reason: str = ""


SuiteProvider = Callable[[ArgumentStructure], Suite]


def _merge_reductions(*groups: Sequence[Reduction]) -> tuple[Reduction, ...]:
    out: list[Reduction] = []
    for group in groups:
        for red in group:
            if red not in out:
                out.append(red)
    return tuple(out)


def check_valid(
    arg: Argument,
    base: Base,
    *,
    suite: Suite | None = None,
    suite_provider: SuiteProvider | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ValidityVerdict:
    """Decide validity over the base, as far as the budget and the supplied
    closing instances allow."""
    if is_closed(arg.structure):
        return _check_closed(arg, base, suite_provider, budget)
    return _check_open(arg, base, suite, suite_provider, budget)


def _check_closed(
    arg: Argument,
    base: Base,
    provider: SuiteProvider | None,
    budget: int,
) -> ValidityVerdict:
    struct = arg.structure
    reds = arg.reductions()
    goal = conclusion(struct)
    if isinstance(goal, (Atom, Absurdity)):
        out = search_reduct(struct, base, reds, budget=budget)
        if out.status == "yes":
            return ValidityVerdict(
                Status.VALID,
                f"reduces to a derivation of {format_formula(goal)} in the base"
                f" ({len(out.path)} steps)",
            )
        if out.status == "no":
            if out.by_normal_form:
                why = (
                    "the only normal form in its reduction closure, reached in "
                    f"{out.visited - 1} steps, is not one"
                )
            else:
                why = (
                    f"the whole reduction closure ({out.visited} structures) "
                    "was enumerated"
                )
            return ValidityVerdict(
                Status.INVALID, "no reduct is a derivation in the base; " + why
            )
        return ValidityVerdict(Status.INCONCLUSIVE, out.note)

    # a reduct settles the goal when it is canonical and its immediate
    # sub-arguments are valid; each is tried as the search builds it, so a
    # valid one ends the search before any later reduct is built: neither
    # the rest of its structure's rewrites nor the rest of the closure,
    # which may be unbounded
    notes: list[str] = []
    unsettled = False

    def settles(cand: ArgumentStructure) -> bool:
        nonlocal unsettled
        if not is_canonical(cand):
            return False
        verdicts = [
            check_valid(
                Argument(structure=sub, justifications=arg.justifications),
                base,
                suite_provider=provider,
                budget=budget,
            )
            for sub in sub_structures(cand)
        ]
        if all(v.status is Status.VALID for v in verdicts):
            return True
        if any(v.status is Status.INCONCLUSIVE for v in verdicts):
            unsettled = True
        notes.extend(v.reason for v in verdicts if v.status is not Status.VALID)
        return False

    out = search_reduct(struct, settles, reds, budget)
    if out.status == "yes":
        return ValidityVerdict(
            Status.VALID,
            "reduces to a canonical argument for "
            f"{format_formula(goal)} with valid sub-arguments",
        )
    if out.status == "no" and not unsettled:
        return ValidityVerdict(
            Status.INVALID,
            "no canonical reduct with valid sub-arguments; the whole "
            f"reduction closure ({out.visited} structures) was enumerated",
            notes=tuple(notes[:4]),
        )
    why = [out.note] if out.note else []
    if unsettled:
        why.append("a sub-argument could not be settled")
    return ValidityVerdict(Status.INCONCLUSIVE, "; ".join(why), notes=tuple(notes[:4]))


def _check_open(
    arg: Argument,
    base: Base,
    suite: Suite | None,
    provider: SuiteProvider | None,
    budget: int,
) -> ValidityVerdict:
    struct = arg.structure
    # the closings of the witnesses' own suite over their own base are
    # witnesses, whose answers the witnesses keep
    memo: _Witnesses | None = None
    if suite is None and provider is not None:
        try:
            suite = provider(struct)
        except StructureError as exc:
            # a witness no structure can hold: a derivation too deep
            return ValidityVerdict(
                Status.INCONCLUSIVE, f"no closing instance could be built: {exc}"
            )
        if isinstance(provider, _Witnesses) and provider.ctx is base_context(base):
            memo = provider
    if suite is None:
        return ValidityVerdict(
            Status.INCONCLUSIVE,
            "open argument and no closing instances supplied",
        )
    open_forms = assumptions(struct)
    if not suite.instances:
        if suite.vacuous_reason:
            return ValidityVerdict(
                Status.VALID,
                f"no way of closing it exists: {suite.vacuous_reason}",
            )
        return ValidityVerdict(
            Status.INCONCLUSIVE,
            "open argument checked against an empty set of closing instances",
        )
    notes: list[str] = []
    effective = 0
    for k, inst in enumerate(suite.instances):
        # a closing for a formula the argument does not assume plays no part
        sigma = {f: a for f, a in inst.assignment if f in open_forms}
        missing = sorted(format_formula(f) for f in open_forms - sigma.keys())
        if missing:
            return ValidityVerdict(
                Status.INCONCLUSIVE,
                f"closing instance {k} misses assumptions {missing}",
            )
        if not all(is_closed(a.structure) for a in sigma.values()):
            return ValidityVerdict(
                Status.INCONCLUSIVE,
                f"closing instance {k} supplies open arguments",
            )
        # only closings by arguments that are themselves valid count: an
        # instance built from an invalid one proves nothing either way
        for f, closing in sigma.items():
            if memo is None:
                v = _check_closed(closing, base, provider, budget)
            else:
                v = memo.result(_NO_PREMISES, f, closing, base, budget).verdict
            if v.status is Status.INVALID:
                notes.append(
                    f"closing instance {k} skipped: its argument for "
                    f"{format_formula(f)} is not valid"
                )
                break
            if v.status is Status.INCONCLUSIVE:
                return ValidityVerdict(
                    Status.INCONCLUSIVE,
                    f"closing instance {k}: validity of the argument for "
                    f"{format_formula(f)} could not be settled",
                )
        else:
            effective += 1
            closed = Argument(
                instantiate(struct, {f: a.structure for f, a in sigma.items()}),
                _merge_reductions(
                    arg.justifications, *[a.justifications for a in sigma.values()]
                ),
            )
            verdict = _check_closed(closed, base, provider, budget)
            if verdict.status is Status.INVALID:
                return ValidityVerdict(
                    Status.INVALID,
                    f"closing instance {k} yields an invalid closed argument: "
                    + verdict.reason,
                )
            if verdict.status is Status.INCONCLUSIVE:
                return ValidityVerdict(
                    Status.INCONCLUSIVE,
                    f"closing instance {k} could not be settled: " + verdict.reason,
                )
    if effective == 0:
        return ValidityVerdict(
            Status.INCONCLUSIVE,
            "no supplied closing instance was built from valid arguments",
            notes=tuple(notes),
        )
    return ValidityVerdict(
        Status.VALID,
        f"all {effective} usable closing instances yield valid closed "
        "arguments",
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# witnesses and the consequence evaluator


_NO_PREMISES: frozenset[Formula] = frozenset()
# one object per distinct verdict the memos keep, by its fields: the
# thousands of sequents a family of bases is asked about meet about a
# hundred verdicts.  An entry goes with the last memo that keeps its
# verdict (a verdict as its own key would keep itself alive).
_SHARED: weakref.WeakValueDictionary[
    tuple[Status, str, tuple[str, ...]], ValidityVerdict
] = weakref.WeakValueDictionary()


class _Witnesses:
    """The validity layer's state for one base, kept in the base's context:
    one closed witness argument per formula that holds, each built once, so
    the same justification objects come back every time; one answer per
    sequent and budget, the synthesized argument with its verdict, checked
    once, for witnesses and premise arguments alike; and, by calling it,
    the suite provider that closes open arguments with those witnesses.
    Its step builder makes the one-step arguments synthesized over the
    base, for implication witnesses and for sequents with premises alike:
    the inference comes from the cache every base shares, and the constant
    reduction and the Argument around it are built once per answer kept.
    It references the context, never the base."""

    def __init__(self, ctx: BaseContext) -> None:
        self.ctx = ctx
        self.args: dict[Formula, Argument] = {}
        self.results: dict[
            tuple[frozenset[Formula], Formula, int], AlphaResult
        ] = {}

    def witness(self, f: Formula) -> Argument:
        """A canonical closed argument for a formula that holds over the
        base, with the justifications it needs."""
        arg = self.args.get(f)
        if arg is None:
            arg = self.args[f] = self._build(f)
        return arg

    def _build(self, f: Formula) -> Argument:
        ctx = self.ctx
        if isinstance(f, Atom):
            if f.name not in ctx.derivable:
                raise StructureError(
                    f"no derivation of {f.name} although it was claimed to hold"
                )
            return Argument(
                derivation_to_structure(ctx.saturation.tree(f.name), ctx.rules)
            )
        if isinstance(f, Absurdity):
            raise StructureError("absurdity cannot hold over a consistent base")
        if isinstance(f, Conj):
            left, right = self.witness(f.left), self.witness(f.right)
            return Argument(
                and_intro(left.structure, right.structure),
                left.justifications + right.justifications,
            )
        if isinstance(f, Disj):
            if ctx.holds(f.left):
                sub = self.witness(f.left)
                return Argument(or_intro_left(sub.structure, f.right), sub.justifications)
            sub = self.witness(f.right)
            return Argument(or_intro_right(sub.structure, f.left), sub.justifications)
        if isinstance(f, Impl):
            body = self.step(frozenset((f.left,)), f.right, f"close[{f}]")
            return Argument(impl_intro(body.structure, f.left), body.justifications)
        raise StructureError(f"no witness for {format_formula(f)}")

    def step(
        self, prems: frozenset[Formula], concl: Formula, name: str
    ) -> Argument:
        """The one-step inference from assumptions prems to concl.  When all
        of prems hold it is justified by a constant reduction, named name,
        to concl's witness, so every closing of it reduces to that witness;
        otherwise no closed valid argument can close it and it needs no
        justification."""
        order, struct = _inference(prems, concl)
        if not all(map(self.ctx.holds, order)):
            return Argument(struct)
        target = self.witness(concl)
        close = constant_reduction(order, concl, target.structure, name=name)
        return Argument(struct, target.justifications + (close,))

    def result(
        self,
        prems: frozenset[Formula],
        concl: Formula,
        arg: Argument,
        base: Base,
        budget: int,
    ) -> AlphaResult:
        """models_alpha's answer for prems |- concl over base (this
        context's base), where arg is the argument synthesized for it: the
        witness of concl when prems is empty, else the one-step argument
        from prems.  arg is checked by check_valid, with this provider, once
        per sequent and budget, and the answer is kept with arg in it;
        equal verdicts are shared."""
        key = (prems, concl, budget)
        got = self.results.get(key)
        if got is None:
            verdict = check_valid(arg, base, suite_provider=self, budget=budget)
            fields = (verdict.status, verdict.reason, verdict.notes)
            verdict = _SHARED.setdefault(fields, verdict)
            got = self.results[key] = AlphaResult(
                verdict=verdict, witness=arg, holds=_HOLDS.get(verdict.status)
            )
        return got

    def __call__(self, struct: ArgumentStructure) -> Suite:
        """One instance mapping each assumption to its witness, or a
        vacuous suite when some assumption has no closed valid argument."""
        sigma: list[tuple[Formula, Argument]] = []
        for f in sorted(assumptions(struct), key=format_formula):
            if not self.ctx.holds(f):
                return Suite(
                    instances=(),
                    vacuous_reason=(
                        f"{format_formula(f)} has no closed valid argument "
                        "over this base"
                    ),
                )
            sigma.append((f, self.witness(f)))
        return Suite(instances=(Instantiation(assignment=tuple(sigma)),))


@lru_cache(maxsize=1024)
def _inference(
    prems: frozenset[Formula], concl: Formula
) -> tuple[tuple[Formula, ...], ArgumentStructure]:
    """The premises in format_formula order, and the one-step inference from
    them, as assumptions, to concl.  It depends on no base, so every base
    shares it; bounded, as the sequents asked about are not."""
    order = tuple(sorted(prems, key=format_formula))
    return order, structure_of_inference(
        Inference(subs=tuple(map(assumption, order)), conclusion=concl)
    )


def _witnesses(ctx: BaseContext) -> _Witnesses:
    if ctx.validity is None:
        ctx.validity = _Witnesses(ctx)
    return ctx.validity


def semantic_suite_provider(base: Base) -> SuiteProvider:
    """Closes open arguments with witnesses read off the semantics: one
    instance mapping each assumption to a canonical argument for it, or a
    vacuous suite when some assumption has no closed valid argument.  The
    same provider comes back for as long as the base lives."""
    return _witnesses(base_context(base))


def _synthesize(state: _Witnesses, sequent: Sequent, strict: bool) -> Argument:
    """An argument for the sequent read off the semantics, assuming the
    underlying consequence holds.  With strict=True only the standard
    reductions may be used, and synthesis refuses where that is not enough."""
    if sequent.premises:
        if strict and all(map(state.ctx.holds, sequent.premises)):
            raise StructureError(
                "a one-step argument from live premises needs a "
                "justification beyond the standard reductions"
            )
        return state.step(sequent.premises, sequent.conclusion, "close[premises]")
    arg = state.witness(sequent.conclusion)
    if strict and arg.justifications:
        raise StructureError(
            "the witness needs justifications beyond the standard reductions"
        )
    return arg


_HOLDS = {Status.VALID: True, Status.INVALID: False}


@dataclass(frozen=True, slots=True)
class AlphaResult:
    verdict: ValidityVerdict
    witness: Argument | None
    holds: bool | None  # None when the verdict is inconclusive


# models_alpha's answer whenever the underlying consequence fails
_FAILS = AlphaResult(
    verdict=ValidityVerdict(
        Status.INVALID,
        "the underlying consequence fails, so no argument from these "
        "assumptions is valid over this base",
    ),
    witness=None,
    holds=False,
)


def models_alpha(
    base: Base,
    sequent: Sequent,
    *,
    budget: int = DEFAULT_BUDGET,
    strict: bool = False,
) -> AlphaResult:
    """Consequence through valid arguments: the premises are taken to the
    conclusion when some argument with those assumptions is valid over the
    base.  Evaluates the clause-defined consequence first; a positive
    answer is then backed by a synthesized argument that is rechecked.
    The base's evaluation context answers the consequence from the answer
    it keeps per sequent, which the untraced models() of both relations
    read too (unbounded, like its truth memo, and gone with the context).
    It serves the witness and the closing suite, and keeps this layer's
    answer: a later call for the same sequent and budget returns the same
    AlphaResult object.  That kept answer is read first, before the
    consequence: an entry exists only where the consequence holds, since
    this function keeps one only after a true consequence and a witness
    closing keeps one only for |- f with f holding (the provider closes
    only assumptions that hold).  With strict=True the argument is
    synthesized, and refused where it needs more than the standard
    reductions, on every call."""
    state = _witnesses(base_context(base))
    prems, concl = sequent.premises, sequent.conclusion
    if not strict:
        got = state.results.get((prems, concl, budget))
        if got is not None:
            return got
    if not state.ctx.consequence(sequent):
        return _FAILS
    try:
        arg = _synthesize(state, sequent, strict)
    except StructureError as exc:
        return AlphaResult(
            verdict=ValidityVerdict(Status.INCONCLUSIVE, str(exc)),
            witness=None,
            holds=None,
        )
    return state.result(prems, concl, arg, base, budget)


def compare_consequence_notions(
    base: Base,
    sequents: Sequence[Sequent],
    *,
    budget: int = DEFAULT_BUDGET,
) -> list[dict]:
    """Side-by-side table: the quantified-disjunction variant against the
    argument-based notion, per sequent over one base."""
    rows = []
    for seq in sequents:
        variant = models(SemanticsKind.SANDQVIST, base, seq, trace=False)
        alpha = models_alpha(base, seq, budget=budget)
        agree = None if alpha.holds is None else variant.holds == alpha.holds
        rows.append(
            {
                "sequent": format_sequent(seq),
                "sandqvist": variant.holds,
                "alpha": alpha.verdict.status.value,
                "agree": agree,
            }
        )
    return rows
