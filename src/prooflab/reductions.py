"""Reductions on argument structures and the reachability search.

A reduction is a named partial rewrite: one function that matches a
structure and builds its reduct in one pass, returning None where the
reduction does not apply.  A reduct keeps the conclusion and may only
shrink the assumptions.  The standard set removes introduction/elimination detours
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
budget on distinct structures and a height budget, and records the step
that first reached each one; the structures it finds share most of their
subtrees, and each distinct subtree's rewrites are computed once per walk.
The validity checker's search for a canonical reduct walks it.

One more walk, normalize, follows a single path instead: it takes the
leftmost-outermost rewrite until no redex is left.  The detour conversions
normalize (Prawitz 1965); with the two derived steps the standard set is
taken to terminate and be locally confluent too, which the tests check
against the breadth-first walk on every closure they generate.  Then each
structure has exactly one normal form (Newman 1942): under the standard set
alone "some reduct is a normal X" is "the normal form is X".

search_reduct asks the one reachability question every caller has and
chooses the walk itself: the path to the normal form where the standard set
is the whole set and only a normal structure can be the goal, the
breadth-first walk anywhere else.
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
    _binds,
    _bound_at,
    _graft,
    _moved,
    _with_children,
    assumptions,
    conclusion,
    is_atomic_derivation,
    is_closed,
    match_and_intro,
    match_impl_intro,
    match_or_intro,
)
from prooflab.atomic_system import Base
from prooflab.syntax import MAX_NESTING, Conj, Disj, Formula, Impl, format_formula

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
    "SearchOutcome",
    "search_reduct",
    "Reachable",
    "normalize",
]


@dataclass(eq=False, frozen=True)
class Reduction:
    """A named partial rewrite: rewrite returns the reduct of a structure,
    or None where the reduction does not apply."""

    name: str
    rewrite: Callable[[ArgumentStructure], ArgumentStructure | None]

    def __repr__(self) -> str:
        return f"<reduction {self.name}>"


# ---------------------------------------------------------------------------
# the standard detour conversions
#
# Each matches an elimination whose major premise is in introduced form and
# builds the reduct at the redex's own position from the redex's nodes.
# Nothing may be discharged at an eliminated step but the binder's own
# leaves, so a moved subtree's escaping distances all reach above the redex
# and shrink by the levels it moves up.


def _conj_detour(d: ArgumentStructure) -> ArgumentStructure | None:
    """A conjunct of a conjunction just introduced: that conjunct's proof."""
    if len(d.children) != 1 or _binds(d):
        return None
    intro = d.children[0]
    if not match_and_intro(intro):
        return None
    if d.formula == intro.formula.left:
        return _moved(intro.children[0], -2)
    if d.formula == intro.formula.right:
        return _moved(intro.children[1], -2)
    return None


def _disj_detour(d: ArgumentStructure) -> ArgumentStructure | None:
    """A case split on a disjunction just introduced: the case it picks,
    its discharged leaves taking the introduced premise."""
    kids = d.children
    if len(kids) != 3 or not match_or_intro(kids[0]):
        return None
    g = kids[0].formula
    if kids[1].formula != d.formula or kids[2].formula != d.formula:
        return None
    # the root discharges only the cases' own assumption leaves
    if not all(
        not (node.children or node.axiomatic)
        and (path[0], node.formula) in ((1, g.left), (2, g.right))
        for path, node in _bound_at(d)
    ):
        return None
    inner = kids[0].children[0]
    case = 1 if inner.formula == g.left else 2
    return _moved(kids[case], -1, inner, -2)


def _imp_detour(d: ArgumentStructure) -> ArgumentStructure | None:
    """Modus ponens on an implication just introduced: its body with the
    minor premise for the discharged leaves."""
    if len(d.children) != 2 or _binds(d):
        return None
    major, minor = d.children
    g = major.formula
    if not (
        isinstance(g, Impl)
        and g.left == minor.formula
        and g.right == d.formula
        and match_impl_intro(major)
    ):
        return None
    return _moved(major.children[0], -2, minor, -1)


def _weaken_detour(d: ArgumentStructure) -> ArgumentStructure | None:
    """An implication just introduced, weakened to a & c -> b: the body
    under a new ->-intro, each a taken from the assumption a & c."""
    f = d.formula
    if not (isinstance(f, Impl) and isinstance(f.left, Conj)):
        return None
    if len(d.children) != 1 or _binds(d):
        return None
    intro = d.children[0]
    g = intro.formula
    if not (
        isinstance(g, Impl)
        and g.left == f.left.left
        and g.right == f.right
        and match_impl_intro(intro)
    ):
        return None
    # a from the assumption a & c, which the new ->-intro at the root
    # discharges: two levels up from the leaf while the stub sits just
    # below the root
    stub = Node(f.left.left, (Node(f.left, bound=2),))
    return Node(f, (_moved(intro.children[0], -1, stub),))


def _project_detour(d: ArgumentStructure) -> ArgumentStructure | None:
    """The left disjunct projected out of its own left introduction: its
    proof."""
    if len(d.children) != 1 or _binds(d):
        return None
    intro = d.children[0]
    g = intro.formula
    if not (isinstance(g, Disj) and g.left == d.formula and match_or_intro(intro)):
        return None
    inner = intro.children[0]
    return _moved(inner, -2) if inner.formula == g.left else None


CONJ_DETOUR = Reduction("conj-detour", _conj_detour)
DISJ_DETOUR = Reduction("disj-detour", _disj_detour)
IMP_DETOUR = Reduction("imp-detour", _imp_detour)
WEAKEN_DETOUR = Reduction("weaken-detour", _weaken_detour)
PROJECT_DETOUR = Reduction("project-detour", _project_detour)

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
    return Reduction(name, lambda d: target if d == source else None)


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

    def rewrite(d: ArgumentStructure) -> ArgumentStructure | None:
        if d.formula != concl or len(d.children) != len(want) or _binds(d):
            return None
        if any(c.formula != f for c, f in zip(d.children, want)):
            return None
        return target

    return Reduction(name, rewrite)


# ---------------------------------------------------------------------------
# applying reductions in place


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
    found = []
    for red in reductions:
        new = red.rewrite(node)
        if new is not None:
            # grafting at the root only checks that the reduct keeps the
            # conclusion
            found.append(((), red.name, _graft(node, (), new)))
    kids = node.children
    for i, child in enumerate(kids):
        for pos, name, new in _rewrites_of(child, reductions, memo):
            rebuilt = _with_children(node, kids[:i] + (new,) + kids[i + 1 :])
            found.append(((i, *pos), name, rebuilt))
    memo[node] = found
    return found


def _first_rewrite(
    node: Node, reductions: Sequence[Reduction]
) -> tuple[Path, str, Node] | None:
    """The first of _rewrites_of's list, found without building the rest:
    the node's own rewrites, reductions in the given order, then each
    child's in turn, stopping at the first that applies."""
    for red in reductions:
        new = red.rewrite(node)
        if new is not None:
            return (), red.name, _graft(node, (), new)
    kids = node.children
    for i, child in enumerate(kids):
        found = _first_rewrite(child, reductions)
        if found is not None:
            pos, name, new = found
            rebuilt = _with_children(node, kids[:i] + (new,) + kids[i + 1 :])
            return (i, *pos), name, rebuilt
    return None


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "yes" | "no" | "inconclusive"
    path: tuple[tuple[Path, str], ...] | None
    witness: ArgumentStructure | None
    visited: int  # structures the search found, the start included
    note: str = ""
    # the answer was read off the normal form, not a walk of the closure
    by_normal_form: bool = False


DEFAULT_BUDGET = 10_000
_HEIGHT_BUDGET = f"height budget of {MAX_NESTING} levels"


class Reachable:
    """Iterating yields the start and then every structure reachable from
    it by rewriting, breadth-first, each as it is found, up to the budget on
    distinct structures; a caller may stop at the first structure it wants
    without computing the rest.  parents maps each structure found to the
    step that first reached it, (previous structure, position, rule name),
    or None for the start, and path reads the steps back.  exhausted names
    each budget that cut the enumeration short, and complete is True when
    none did: the budget on distinct structures, which ends the walk, or
    the height budget, MAX_NESTING levels, past which a reduct is neither
    yielded nor expanded.  So a closure whose reducts grow a level with
    every step, as under a constant reduction whose target holds its own
    inference, stops well before the recursive walkers over structures
    reach Python's recursion limit.  Each distinct subtree's one-step rewrites are
    computed once per walk, in a memo made when the walk first expands a
    structure and dropped when it ends."""

    def __init__(
        self,
        start: ArgumentStructure,
        reductions: Sequence[Reduction],
        budget: int = DEFAULT_BUDGET,
    ) -> None:
        self.start = start
        self.reductions = reductions
        self.budget = budget
        self.exhausted: list[str] = []
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
                if new.height > MAX_NESTING:
                    if _HEIGHT_BUDGET not in self.exhausted:
                        self.exhausted.append(_HEIGHT_BUDGET)
                    continue
                if new in parents:
                    continue
                if len(parents) >= self.budget:
                    self.exhausted.append(
                        f"budget of {self.budget} distinct structures"
                    )
                    return
                parents[new] = (cur, pos, name)
                queue.append(new)
                yield new

    @property
    def complete(self) -> bool:
        return not self.exhausted

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
    goal: ArgumentStructure | Base | Callable[[ArgumentStructure], bool],
    reductions: Sequence[Reduction],
    budget: int = DEFAULT_BUDGET,
) -> SearchOutcome:
    """Search for a reduct, reflexive and transitive: a fixed structure,
    some derivation in a base, or anything satisfying a predicate.  Under
    exactly the standard set, a goal only a normal structure meets (a base,
    whose derivations have no connective, or a structure without a redex)
    is met by some reduct just when the normal form meets it; when the path
    there holds at most budget structures, the answer is read off its end,
    and visited counts the path.  Otherwise the closure is walked breadth
    first, each structure tested as it is found: "no" means the whole
    closure was enumerated, and a walk a budget cuts short is inconclusive."""
    if isinstance(goal, Base):
        pred = lambda d: is_atomic_derivation(d, goal)
    elif callable(goal):
        pred = goal
    else:
        pred = lambda d: d == goal
    if (
        not callable(goal)
        and set(reductions) == set(_STANDARD)
        and (isinstance(goal, Base) or _first_rewrite(goal, reductions) is None)
    ):
        end, path, normal = normalize(start, reductions, budget - 1)
        if normal:
            if pred(end):
                return SearchOutcome(
                    "yes", path, end, len(path) + 1, by_normal_form=True
                )
            return SearchOutcome("no", None, None, len(path) + 1, by_normal_form=True)
    walk = Reachable(start, reductions, budget)
    for cur in walk:
        if pred(cur):
            return SearchOutcome("yes", walk.path(cur), cur, len(walk.parents))
    if walk.complete:
        return SearchOutcome("no", None, None, len(walk.parents))
    note = "; ".join(f"{b} exhausted" for b in walk.exhausted)
    return SearchOutcome("inconclusive", None, None, len(walk.parents), note)


def normalize(
    start: ArgumentStructure, reductions: Sequence[Reduction], max_steps: int
) -> tuple[ArgumentStructure, tuple[tuple[Path, str], ...], bool]:
    """Rewrite leftmost-outermost, one redex at a time, until no redex is
    left or max_steps steps are taken: the structure it stopped at, the
    (position, rule name) steps that led there, and whether it stopped
    because no redex was left.  A rewrite that returns its input would be
    taken forever, so normalize stops there too: no normal form."""
    cur, path = start, []
    while (found := _first_rewrite(cur, reductions)) is not None:
        if len(path) >= max_steps:
            return cur, tuple(path), False
        pos, name, new = found
        # the cached hashes first, so a rewrite that changes the structure
        # costs no comparison of trees
        if hash(new) == hash(cur) and new == cur:
            return cur, tuple(path), False
        cur = new
        path.append((pos, name))
    return cur, tuple(path), True
