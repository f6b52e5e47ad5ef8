"""Reductions on argument structures and the reachability search.

A reduction is a named partial rewrite: a domain predicate plus a
transformation that must preserve the conclusion and may only shrink the
assumptions.  The standard set removes introduction/elimination detours
(conjunction, disjunction, implication) and unwinds the two derived steps
(weakening an implication's antecedent by a conjunct, projecting a
disjunction) when their major premise is in introduced form.  Justifications
may add pointer reductions (one fixed structure to another) and constant
reductions (every instance of a one-step inference to one fixed closed
structure).

Rewrites apply at every position, under binders too, as in Prawitz's
detour conversions.  Discharges are stored as distances up the tree, so a
rewrite that moves a subtree to another depth adjusts the distances that
reach above the subtree, and a leaf discharged above the redex stays
discharged where it lands.

A structure is its root node, so a rewrite at a position grafts the
rewritten subtree back into the same tree of nodes.  Because discharges are
relative, whether a reduction applies to a subtree and what it rewrites to
depend only on that subtree's value: one helper computes a node's one-step
rewrites from its own and its children's, memoized per distinct subtree.
One breadth-first walk, Reachable, enumerates the reduction closure up to a
budget on distinct structures and records the step that first reached each
one; the structures it finds share most of their subtrees, and each distinct
subtree's rewrites are computed once per walk.  search_reduct and the
validity checker both stop it at the first structure they want.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from prooflab.arguments import (
    ArgumentStructure,
    Node,
    Path,
    StructureError,
    _graft,
    _moved,
    _with_children,
    assumptions,
    conclusion,
    is_closed,
    match_and_elim,
    match_and_intro,
    match_impl_elim,
    match_impl_intro,
    match_or_elim,
    match_or_intro,
    match_or_project,
    match_weaken,
    root_discharges,
    sub_structures,
)
from prooflab.syntax import Formula, format_formula

__all__ = [
    "Reduction",
    "CONJ_DETOUR",
    "DISJ_DETOUR",
    "IMP_DETOUR",
    "WEAKEN_DETOUR",
    "PROJECT_DETOUR",
    "standard_reductions",
    "pointer_reduction",
    "constant_reduction",
    "extract",
    "ReductionStep",
    "reduce_step",
    "successors",
    "SearchOutcome",
    "search_reduct",
    "Reachable",
]


@dataclass(eq=False, frozen=True)
class Reduction:
    name: str
    applies: Callable[[ArgumentStructure], bool]
    rewrite: Callable[[ArgumentStructure], ArgumentStructure]

    def __repr__(self) -> str:
        return f"<reduction {self.name}>"


# ---------------------------------------------------------------------------
# the standard detour conversions
#
# Each rewrite builds its result at the redex's own position from the
# redex's nodes.  The matchers rule out discharges at the eliminated steps
# other than the binder's own, so a moved subtree's escaping distances all
# reach above the redex and shrink by the levels it moves up.


def _conj_applies(d: ArgumentStructure) -> bool:
    side = match_and_elim(d)
    return side is not None and match_and_intro(sub_structures(d)[0])


def _conj_rewrite(d: ArgumentStructure) -> ArgumentStructure:
    side = match_and_elim(d)
    return _moved(d.children[0].children[side - 1], -2)


def _disj_applies(d: ArgumentStructure) -> bool:
    return match_or_elim(d) and match_or_intro(sub_structures(d)[0])


def _disj_rewrite(d: ArgumentStructure) -> ArgumentStructure:
    major = d.children[0]
    inner = major.children[0]
    case = 1 if inner.formula == major.formula.left else 2
    # the case's leaves discharged at the root take the introduced premise
    return _moved(d.children[case], -1, inner, -2)


def _imp_applies(d: ArgumentStructure) -> bool:
    return match_impl_elim(d) and match_impl_intro(sub_structures(d)[0])


def _imp_rewrite(d: ArgumentStructure) -> ArgumentStructure:
    major, minor = d.children
    return _moved(major.children[0], -2, minor, -1)


def _weaken_applies(d: ArgumentStructure) -> bool:
    return match_weaken(d) and match_impl_intro(sub_structures(d)[0])


def _weaken_rewrite(d: ArgumentStructure) -> ArgumentStructure:
    f = d.formula  # Impl(Conj(a, c), b)
    body = d.children[0].children[0]
    # a from the assumption a & c, which a new ->-intro at the root
    # discharges: two levels up from the leaf while the stub sits just
    # below the root
    stub = Node(f.left.left, (Node(f.left, bound=2),))
    return Node(f, (_moved(body, -1, stub),))


def _project_applies(d: ArgumentStructure) -> bool:
    if not (match_or_project(d) and match_or_intro(sub_structures(d)[0])):
        return False
    major = sub_structures(d)[0]
    return conclusion(sub_structures(major)[0]) == major.formula.left


def _project_rewrite(d: ArgumentStructure) -> ArgumentStructure:
    return _moved(d.children[0].children[0], -2)


CONJ_DETOUR = Reduction("conj-detour", _conj_applies, _conj_rewrite)
DISJ_DETOUR = Reduction("disj-detour", _disj_applies, _disj_rewrite)
IMP_DETOUR = Reduction("imp-detour", _imp_applies, _imp_rewrite)
WEAKEN_DETOUR = Reduction("weaken-detour", _weaken_applies, _weaken_rewrite)
PROJECT_DETOUR = Reduction("project-detour", _project_applies, _project_rewrite)

_STANDARD = (CONJ_DETOUR, DISJ_DETOUR, IMP_DETOUR, WEAKEN_DETOUR, PROJECT_DETOUR)


def standard_reductions() -> tuple[Reduction, ...]:
    """Always the same five objects, so membership tests stay meaningful."""
    return _STANDARD


# ---------------------------------------------------------------------------
# justification-supplied reductions


def pointer_reduction(
    source: ArgumentStructure, target: ArgumentStructure, name: str = "pointer"
) -> Reduction:
    """Rewrites exactly one structure to another with the same conclusion
    and no new assumptions."""
    if conclusion(target) != conclusion(source):
        raise StructureError("pointer reduction changes the conclusion")
    if not assumptions(target) <= assumptions(source):
        raise StructureError("pointer reduction introduces assumptions")
    return Reduction(name, lambda d: d == source, lambda d: target)


def constant_reduction(
    premises: Sequence[Formula],
    concl: Formula,
    target: ArgumentStructure,
    name: str = "constant",
) -> Reduction:
    """Rewrites every instance of the one-step inference with the given
    premises and conclusion to one fixed closed structure."""
    if conclusion(target) != concl:
        raise StructureError("constant reduction changes the conclusion")
    if not is_closed(target):
        raise StructureError(
            "constant reduction needs a closed target, got assumptions "
            f"{sorted(format_formula(f) for f in assumptions(target))}"
        )
    want = tuple(premises)

    def applies(d: ArgumentStructure) -> bool:
        if d.formula != concl or len(d.children) != len(want):
            return False
        if root_discharges(d):
            return False
        return all(
            conclusion(sub) == f for sub, f in zip(sub_structures(d), want)
        )

    return Reduction(name, applies, lambda d: target)


# ---------------------------------------------------------------------------
# applying reductions in place


def extract(struct: ArgumentStructure, at: Path) -> ArgumentStructure:
    """The subtree at a position as a structure of its own; a node
    discharged above the position is open in it."""
    return struct.node_at(at)


@dataclass(frozen=True)
class ReductionStep:
    position: Path
    rule: str
    result: ArgumentStructure


def _rewrites_of(
    node: Node,
    reductions: Sequence[Reduction],
    memo: dict[Node, list[tuple[Path, str, Node]]],
) -> list[tuple[Path, str, Node]]:
    """Every one-step rewrite of the subtree at node, as (position below
    node, rule name, rewritten node): the node's own rewrites, reductions in
    the given order, then each child's in turn with node rebuilt around it,
    so positions come outermost-first and leftmost.  Discharges are stored
    as distances, so what a subtree rewrites to depends on its value alone:
    memo maps each distinct subtree to its list, computed once, and is
    shared by every call for the same reductions."""
    found = memo.get(node)
    if found is not None:
        return found
    # grafting at the root only checks that the rewrite keeps the conclusion
    found = [
        ((), red.name, _graft(node, (), red.rewrite(node)))
        for red in reductions
        if red.applies(node)
    ]
    kids = node.children
    for i, child in enumerate(kids):
        for pos, name, new in _rewrites_of(child, reductions, memo):
            rebuilt = _with_children(node, kids[:i] + (new,) + kids[i + 1 :])
            found.append(((i, *pos), name, rebuilt))
    memo[node] = found
    return found


def reduce_step(
    struct: ArgumentStructure, reductions: Sequence[Reduction]
) -> ReductionStep | None:
    """The first applicable rewrite, outermost-first and leftmost."""
    found = _rewrites_of(struct, reductions, {})
    return ReductionStep(*found[0]) if found else None


def successors(
    struct: ArgumentStructure, reductions: Sequence[Reduction]
) -> list[ReductionStep]:
    """All one-step rewrites, positions outermost-first and leftmost,
    reductions in the given order at each."""
    return [ReductionStep(*step) for step in _rewrites_of(struct, reductions, {})]


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "yes" | "no" | "inconclusive"
    path: tuple[tuple[Path, str], ...] | None
    witness: ArgumentStructure | None
    visited: int  # structures the walk found, the start included
    note: str = ""


DEFAULT_BUDGET = 10_000


class Reachable:
    """Iterating yields the start and then every structure reachable from
    it by rewriting, breadth-first, each as it is found, up to the budget on
    distinct structures; a caller may stop at the first structure it wants
    without computing the rest.  parents maps each structure found to the
    step that first reached it, (previous structure, position, rule name),
    or None for the start, and path reads the steps back.  complete turns
    False when the budget cuts the enumeration short.  Each distinct subtree's
    one-step rewrites are computed once per walk, in a memo made when the
    walk first expands a structure and dropped when it ends."""

    def __init__(
        self,
        start: ArgumentStructure,
        reductions: Sequence[Reduction],
        budget: int = DEFAULT_BUDGET,
    ) -> None:
        self.start = start
        self.reductions = reductions
        self.budget = budget
        self.complete = True
        self.parents: dict[
            ArgumentStructure, tuple[ArgumentStructure, Path, str] | None
        ] = {}

    def __iter__(self) -> Iterator[ArgumentStructure]:
        parents = self.parents = {self.start: None}
        queue = deque([self.start])
        yield self.start
        memo: dict = {}
        while queue:
            cur = queue.popleft()
            for pos, name, new in _rewrites_of(cur, self.reductions, memo):
                if new in parents:
                    continue
                if len(parents) >= self.budget:
                    self.complete = False
                    return
                parents[new] = (cur, pos, name)
                queue.append(new)
                yield new

    def path(self, struct: ArgumentStructure) -> tuple[tuple[Path, str], ...]:
        """The (position, rule name) steps from the start to a structure
        found."""
        steps = []
        while self.parents[struct] is not None:
            struct, pos, name = self.parents[struct]
            steps.append((pos, name))
        return tuple(reversed(steps))


def search_reduct(
    start: ArgumentStructure,
    goal: ArgumentStructure | Callable[[ArgumentStructure], bool],
    reductions: Sequence[Reduction],
    budget: int = DEFAULT_BUDGET,
) -> SearchOutcome:
    """Breadth-first search for a reduct, reflexive and transitive: a fixed
    structure or anything satisfying a predicate, each structure tested as
    it is found.  "no" means the whole closure was enumerated; a search the
    budget cuts short is inconclusive."""
    pred = goal if callable(goal) else lambda d: d == goal
    walk = Reachable(start, reductions, budget)
    for cur in walk:
        if pred(cur):
            return SearchOutcome("yes", walk.path(cur), cur, len(walk.parents))
    if walk.complete:
        return SearchOutcome("no", None, None, len(walk.parents))
    note = f"budget of {budget} distinct structures exhausted"
    return SearchOutcome("inconclusive", None, None, len(walk.parents), note)
