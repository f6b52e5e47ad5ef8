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
depend only on that subtree's value: one generator yields a node's one-step
rewrites, built one at a time from its own and its children's, and memoizes
each distinct subtree's list once it has yielded the whole of it.

The breadth-first walk of search_reduct enumerates the reduction closure
up to a budget on distinct structures and a height budget, tests each
rewrite as it is built, and records the step that first reached each
structure; a walk that meets its goal builds none of that structure's
later rewrites.  The structures it finds share most of their subtrees, and
each distinct subtree's rewrites are enumerated at most once per walk.  The
validity checker's searches, for a derivation in the base and for a
canonical reduct, both go through it.

One more walk, normalize, follows a single path instead: it takes the
first rewrite the same generator yields, the leftmost-outermost one, until
no redex is left, under one memo for the whole path and the breadth-first
walk's height budget.  The detour conversions
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
    "normalize",
]


@dataclass(eq=False, frozen=True, slots=True)
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


def _rewrites(
    node: Node,
    reductions: Sequence[Reduction],
    memo: dict[Node, list[tuple[Path, str, Node]]],
) -> Iterator[tuple[Path, str, Node]]:
    """Each one-step rewrite of the subtree at node, built as it is asked
    for, as (position below node, rule name, rewritten node): the node's own
    rewrites, reductions in the given order, then each child's in turn with
    node rebuilt around it, so positions come outermost-first and leftmost.
    Discharges are stored as distances, so what a subtree rewrites to
    depends on its value alone: memo maps each distinct subtree whose
    rewrites were all enumerated to their list, which a later call replays,
    and is shared by every call for the same reductions.  A caller that
    stops early leaves the unfinished subtrees out of memo.  A reduct that
    changes its subtree's conclusion raises StructureError."""
    found = memo.get(node)
    if found is not None:
        yield from found
        return
    found = []
    for red in reductions:
        new = red.rewrite(node)
        if new is not None:
            if new.formula != node.formula:
                raise StructureError(
                    f"{red.name} changes the conclusion "
                    f"{format_formula(node.formula)} to {format_formula(new.formula)}"
                )
            step = ((), red.name, new)
            found.append(step)
            yield step
    kids = node.children
    for i, child in enumerate(kids):
        for pos, name, new in _rewrites(child, reductions, memo):
            rebuilt = _with_children(node, kids[:i] + (new,) + kids[i + 1 :])
            step = ((i, *pos), name, rebuilt)
            found.append(step)
            yield step
    memo[node] = found


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
    there holds at most budget structures, none taller than the height
    budget, the answer is read off its end, and visited counts the path.
    Otherwise the closure is walked breadth
    first, each structure tested as it is found, so a caller's predicate can
    stop the walk at the first structure it wants without the rest, which
    may be unbounded, being built; visited counts the structures found, the
    start included.  A predicate goal always walks, so search_reduct with a
    predicate is the full walk the normal-form route is checked against.
    parents maps each structure found to the step that first reached it,
    and the path is read back from there.  "no" means the whole closure was
    enumerated; a walk a budget cuts short is inconclusive, its note naming
    each budget spent: the budget on distinct structures, which ends the
    walk, or the height budget, MAX_NESTING levels, past which a reduct is
    neither tested nor expanded.  So a closure whose reducts grow a level
    with every step, as under a constant reduction whose target holds its
    own inference, stops well before the recursive walkers over structures
    reach Python's recursion limit.  A structure's one-step rewrites are
    built one at a time, each tested as it is built, so the walk stops at
    the first that meets the goal without building the rest; each distinct
    subtree's rewrites are enumerated at most once per walk, in a memo made
    when the walk first expands a structure, so a start that meets the goal
    pays nothing."""
    if isinstance(goal, Base):
        pred = lambda d: is_atomic_derivation(d, goal)
    elif callable(goal):
        pred = goal
    else:
        pred = lambda d: d == goal
    if (
        not callable(goal)
        and set(reductions) == set(_STANDARD)
        and (isinstance(goal, Base) or not any(_rewrites(goal, reductions, {})))
    ):
        end, path, why = normalize(start, reductions, budget - 1)
        if not why:
            if pred(end):
                return SearchOutcome(
                    "yes", path, end, len(path) + 1, by_normal_form=True
                )
            return SearchOutcome("no", None, None, len(path) + 1, by_normal_form=True)
    parents: dict[
        ArgumentStructure, tuple[ArgumentStructure, Path, str] | None
    ] = {start: None}
    if pred(start):
        return SearchOutcome("yes", (), start, 1)
    exhausted: list[str] = []
    queue = deque([start])
    memo: dict = {}
    while queue:
        cur = queue.popleft()
        for pos, name, new in _rewrites(cur, reductions, memo):
            if new.height > MAX_NESTING:
                if _HEIGHT_BUDGET not in exhausted:
                    exhausted.append(_HEIGHT_BUDGET)
                continue
            if new in parents:
                continue
            if len(parents) >= budget:
                exhausted.append(f"budget of {budget} distinct structures")
                queue.clear()
                break
            parents[new] = (cur, pos, name)
            if pred(new):
                steps = [(pos, name)]
                while (step := parents[cur]) is not None:
                    cur, pos, name = step
                    steps.append((pos, name))
                return SearchOutcome("yes", tuple(reversed(steps)), new, len(parents))
            queue.append(new)
    if not exhausted:
        return SearchOutcome("no", None, None, len(parents))
    note = "; ".join(f"{b} exhausted" for b in exhausted)
    return SearchOutcome("inconclusive", None, None, len(parents), note)


def normalize(
    start: ArgumentStructure, reductions: Sequence[Reduction], max_steps: int
) -> tuple[ArgumentStructure, tuple[tuple[Path, str], ...], str]:
    """Rewrite leftmost-outermost, one redex at a time, until no redex is
    left or max_steps steps are taken: the structure it stopped at, the
    (position, rule name) steps that led there, and why it stopped short of
    a normal form, empty when no redex was left.  Each step is the first
    rewrite _rewrites yields, under one memo for the whole path.  Like the
    breadth-first walk, normalize takes no reduct taller than MAX_NESTING
    levels.  A rewrite that returns its input would be taken forever, so
    normalize stops there too, at a fixed point with no normal form on this
    path."""
    cur, path, memo = start, [], {}
    while (found := next(_rewrites(cur, reductions, memo), None)) is not None:
        if len(path) >= max_steps:
            why = f"step budget of {max_steps} exhausted before a normal form"
            return cur, tuple(path), why
        pos, name, new = found
        if new.height > MAX_NESTING:
            return cur, tuple(path), f"{_HEIGHT_BUDGET} exhausted before a normal form"
        # the cached hashes first, so a rewrite that changes the structure
        # costs no comparison of trees
        if hash(new) == hash(cur) and new == cur:
            why = (
                f"fixed point after step {len(path)}: the next rewrite returns "
                "the structure unchanged, so this path has no normal form"
            )
            return cur, tuple(path), why
        cur = new
        path.append((pos, name))
    return cur, tuple(path), ""
