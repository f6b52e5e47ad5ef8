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
relation by its classical valuation and supplies the atomic derivations the
witnesses are built from, one per atom.  The same context keeps this
layer's state for the base, for as long as the base lives: one closed
witness argument per formula, so the same justification objects come back
on every call; the verdict of each witness argument per budget, used
wherever that exact argument is checked again (as a closing instance, and
as models_alpha's argument for a sequent without premises); and the suite
provider built on those witnesses.  Nothing is kept per sequent, and the
checks of sub-arguments under a parent's justifications are made afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from prooflab.arguments import (
    ArgumentStructure,
    Inference,
    StructureError,
    assumption,
    assumptions,
    conclusion,
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
    Reachable,
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
    "synthesize_witness",
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


@dataclass(frozen=True)
class Argument:
    """A structure with its justifications; the standard reductions are
    always in force and need not be listed."""

    structure: ArgumentStructure
    justifications: tuple[Reduction, ...] = ()

    def reductions(self) -> tuple[Reduction, ...]:
        extra = tuple(
            r for r in self.justifications if r not in standard_reductions()
        )
        return standard_reductions() + extra


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

    # each reduct is tried as the search reaches it, so a valid one ends the
    # search before the rest of the closure, which may be unbounded, is built
    walk = Reachable(struct, reds, budget)
    notes: list[str] = []
    saw_inconclusive = False
    for cand in walk:
        if not is_canonical(cand):
            continue
        verdicts = []
        for sub in sub_structures(cand):
            sub_arg = Argument(structure=sub, justifications=arg.justifications)
            verdicts.append(
                check_valid(
                    sub_arg,
                    base,
                    suite_provider=provider,
                    budget=budget,
                )
            )
        if all(v.status is Status.VALID for v in verdicts):
            return ValidityVerdict(
                Status.VALID,
                "reduces to a canonical argument for "
                f"{format_formula(goal)} with valid sub-arguments",
            )
        if any(v.status is Status.INCONCLUSIVE for v in verdicts):
            saw_inconclusive = True
        notes.extend(
            v.reason for v in verdicts if v.status is not Status.VALID
        )
    if walk.complete and not saw_inconclusive:
        return ValidityVerdict(
            Status.INVALID,
            "no canonical reduct with valid sub-arguments; the whole "
            f"reduction closure ({len(walk.parents)} structures) was enumerated",
            notes=tuple(notes[:4]),
        )
    why = []
    why.extend(f"reduction {b} exhausted" for b in walk.exhausted)
    if saw_inconclusive:
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
    if suite is None and provider is not None:
        suite = provider(struct)
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
        sigma = dict(inst.assignment)
        missing = sorted(
            format_formula(f) for f in open_forms - set(sigma.keys())
        )
        if missing:
            return ValidityVerdict(
                Status.INCONCLUSIVE,
                f"closing instance {k} misses assumptions {missing}",
            )
        bad = [
            f
            for f, closing in sigma.items()
            if f in open_forms and not is_closed(closing.structure)
        ]
        if bad:
            return ValidityVerdict(
                Status.INCONCLUSIVE,
                f"closing instance {k} supplies open arguments",
            )
        # only closings by arguments that are themselves valid count: an
        # instance built from an invalid one proves nothing either way
        outside = False
        for f, closing in sigma.items():
            if f not in open_forms:
                continue
            if isinstance(provider, _Witnesses):
                v = provider.verdict(closing, base, budget)
            else:
                v = _check_closed(closing, base, provider, budget)
            if v.status is Status.INVALID:
                notes.append(
                    f"closing instance {k} skipped: its argument for "
                    f"{format_formula(f)} is not valid"
                )
                outside = True
                break
            if v.status is Status.INCONCLUSIVE:
                return ValidityVerdict(
                    Status.INCONCLUSIVE,
                    f"closing instance {k}: validity of the argument for "
                    f"{format_formula(f)} could not be settled",
                )
        if outside:
            continue
        effective += 1
        closed_struct = instantiate(
            struct, {f: a.structure for f, a in sigma.items() if f in open_forms}
        )
        joined = _merge_reductions(
            arg.justifications,
            *[a.justifications for f, a in sigma.items() if f in open_forms],
        )
        verdict = _check_closed(
            Argument(structure=closed_struct, justifications=joined),
            base,
            provider,
            budget,
        )
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


class _Witnesses:
    """The validity layer's state for one base, kept in the base's context:
    one closed witness argument per formula that holds, each built once, so
    the same justification objects come back every time; the verdict of
    each witness argument, per budget, checked once; and, by calling it,
    the suite provider that closes open arguments with those witnesses.  It
    references the context, never the base."""

    def __init__(self, ctx: BaseContext) -> None:
        self.ctx = ctx
        self.args: dict[Formula, Argument] = {}
        self.verdicts: dict[tuple[Argument, int], ValidityVerdict] = {}

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
            witness = ctx.atom_witness(f.name)
            if witness is None:
                raise StructureError(
                    f"no derivation of {f.name} although it was claimed to hold"
                )
            return Argument(witness)
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
            stub = structure_of_inference(
                Inference(subs=(assumption(f.left),), conclusion=f.right)
            )
            justs: tuple[Reduction, ...] = ()
            if ctx.holds(f.left):
                target = self.witness(f.right)
                close = constant_reduction(
                    [f.left],
                    f.right,
                    target.structure,
                    name=f"close[{format_formula(f)}]",
                )
                justs = target.justifications + (close,)
            return Argument(impl_intro(stub, f.left), justs)
        raise StructureError(f"no witness for {format_formula(f)}")

    def verdict(
        self, arg: Argument, base: Base, budget: int
    ) -> ValidityVerdict:
        """check_valid of an argument with this provider, remembered when
        the argument is one of the witnesses over this base."""
        if self.args.get(conclusion(arg.structure)) is not arg or (
            base_context(base) is not self.ctx
        ):
            return check_valid(arg, base, suite_provider=self, budget=budget)
        key = (arg, budget)
        got = self.verdicts.get(key)
        if got is None:
            got = check_valid(arg, base, suite_provider=self, budget=budget)
            self.verdicts[key] = got
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


def synthesize_witness(
    base: Base, sequent: Sequent, *, strict: bool = False
) -> Argument:
    """An argument for the sequent read off the semantics, assuming the
    underlying consequence holds.  With strict=True only the standard
    reductions may be used, and synthesis refuses where that is not enough."""
    return _synthesize(_witnesses(base_context(base)), sequent, strict)


def _synthesize(state: _Witnesses, sequent: Sequent, strict: bool) -> Argument:
    if sequent.premises:
        prems = sorted(sequent.premises, key=format_formula)
        struct = structure_of_inference(
            Inference(
                subs=tuple(assumption(g) for g in prems),
                conclusion=sequent.conclusion,
            )
        )
        if not all(map(state.ctx.holds, prems)):
            return Argument(struct)
        if strict:
            raise StructureError(
                "a one-step argument from live premises needs a "
                "justification beyond the standard reductions"
            )
        target = state.witness(sequent.conclusion)
        close = constant_reduction(
            prems, sequent.conclusion, target.structure, name="close[premises]"
        )
        return Argument(struct, target.justifications + (close,))
    arg = state.witness(sequent.conclusion)
    if strict and arg.justifications:
        raise StructureError(
            "the witness needs justifications beyond the standard reductions"
        )
    return arg


@dataclass(frozen=True)
class AlphaResult:
    verdict: ValidityVerdict
    witness: Argument | None
    holds: bool | None  # None when the verdict is inconclusive


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
    The base's evaluation context answers the consequence and serves the
    witness and the closing suite."""
    state = _witnesses(base_context(base))
    if not state.ctx.entails(sequent.premises, sequent.conclusion):
        return AlphaResult(
            verdict=ValidityVerdict(
                Status.INVALID,
                "the underlying consequence fails, so no argument from these "
                "assumptions is valid over this base",
            ),
            witness=None,
            holds=False,
        )
    try:
        arg = _synthesize(state, sequent, strict)
    except StructureError as exc:
        return AlphaResult(
            verdict=ValidityVerdict(Status.INCONCLUSIVE, str(exc)),
            witness=None,
            holds=None,
        )
    verdict = state.verdict(arg, base, budget)
    holds = {
        Status.VALID: True,
        Status.INVALID: False,
        Status.INCONCLUSIVE: None,
    }[verdict.status]
    return AlphaResult(verdict=verdict, witness=arg, holds=holds)


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
