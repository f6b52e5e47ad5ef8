"""Argument structures: labelled trees with a discharge function.

A structure is a finite rooted tree of formula-labelled nodes together with
a discharge map f; here a structure is its root node, which carries the
discharges.  Top-nodes (leaves) split into axiomatic and
non-axiomatic; f may send

  (a) a non-axiomatic leaf (an assumption occurrence),
  (b) an axiomatic leaf labelled by an atom (an assumed atomic axiom), or
  (c) the edge set joining an atom-labelled node to all its children, all
      atom-labelled too (an assumed atomic rule application, which carries
      the rule it stands for),

to a node strictly nearer the root.  Following the letter of the defining
clause, no assumption leaf may be discharged at the parent node of such an
edge set, nor at that edge set's own target; the validator enforces this and
validate() additionally flags the readings the clause leaves open (an
axiomatic leaf discharged there).

Each discharge is stored on its source node as the distance up to its
target, in the manner of de Bruijn indices, so a subtree is a value of its
own.  A node discharged above a subtree's root counts as undischarged in
that subtree (an open assumption, if it is a non-axiomatic leaf); moving a
subtree to another depth adjusts only those escaping distances.  Absolute
paths (tuples of child indexes from the root) address discharges only at
the boundary: bind checks the table of (source, target) entries that
hand-built structures and JSON files give and writes it onto the tree, and
Node.discharge reads it back for printing and serialization.

Assumptions are the labels of undischarged non-axiomatic leaves; a structure
is closed when it has none.  An instance replaces every assumption leaf by a
structure with the matching conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from prooflab.atomic_system import (
    AtomicRule,
    Base,
    DerivationNode,
    axiom,
    format_rule,
    parse_rule,
)
from prooflab.syntax import (
    Absurdity,
    Atom,
    BOT,
    Conj,
    Disj,
    Formula,
    Impl,
    MAX_NESTING,
    formula_from_obj,
    formula_to_obj,
    format_formula,
)

__all__ = [
    "Path",
    "Node",
    "AssumptionDischarge",
    "AxiomDischarge",
    "RuleDischarge",
    "DischargeItem",
    "ArgumentStructure",
    "bind",
    "StructureError",
    "leaf",
    "assumption",
    "axiom_leaf",
    "conclusion",
    "assumptions",
    "assumption_paths",
    "is_closed",
    "sub_structures",
    "instantiate",
    "replace",
    "Inference",
    "structure_of_inference",
    "and_intro",
    "or_intro_left",
    "or_intro_right",
    "impl_intro",
    "and_elim",
    "or_elim",
    "impl_elim",
    "weaken",
    "or_project",
    "rule_step",
    "match_and_intro",
    "match_or_intro",
    "match_impl_intro",
    "is_canonical",
    "derivation_to_structure",
    "is_atomic_derivation",
    "validate",
    "structure_to_obj",
    "structure_from_obj",
    "pretty",
]

Path = tuple[int, ...]

_CLOSED: frozenset = frozenset()


class StructureError(ValueError):
    pass


def _atomic_formula(f: Formula) -> bool:
    return isinstance(f, (Atom, Absurdity))


def _atom_name(f: Formula) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Absurdity):
        return "bot"
    raise StructureError(f"not an atomic label: {format_formula(f)}")


@dataclass(frozen=True, slots=True)
class Node:
    """A labelled node.  bound is how many levels up the node discharging
    this one sits, 0 when none does; what it discharges is an assumption at
    a non-axiomatic leaf, an assumed axiom at an axiomatic one and an
    assumed application of rule at an inner node.  free is derived: bit i
    is set when some node of the subtree is discharged i + 1 levels above
    this one.  open, derived too, summarizes the subtree's non-axiomatic
    leaves that the subtree itself does not discharge, as (formula,
    distance) pairs: distance 0 for a leaf nothing discharges, otherwise
    how many levels above this node the leaf's binder sits.  height, derived
    as well, is the number of levels below the node: 0 at a leaf.  The hash
    is computed once, beside them, from the children's cached hashes, so
    neither a lookup nor a question about assumptions or height walks the
    tree.  A node is also the structure rooted at it, discharges reaching
    above it left open."""

    formula: Formula
    children: tuple["Node", ...] = ()
    axiomatic: bool = False
    bound: int = 0
    rule: AtomicRule | None = None
    # derived, set once by __post_init__: without a default, the generated
    # __init__ does not set them first
    free: int = field(init=False, repr=False, compare=False)
    open: frozenset[tuple[Formula, int]] = field(
        init=False, repr=False, compare=False
    )
    height: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.axiomatic and self.children:
            raise StructureError("axiomatic mark on an inner node")
        free = 1 << self.bound - 1 if self.bound else 0
        opened = (
            _CLOSED
            if self.children or self.axiomatic
            else frozenset(((self.formula, self.bound),))
        )
        height = 0
        for child in self.children:
            free |= child.free >> 1
            if child.height >= height:
                height = child.height + 1
            sub = child.open
            if sub and child.free:
                # one level up: a leaf bound one level above the child is
                # discharged here
                sub = frozenset((f, d - 1 if d else 0) for f, d in sub if d != 1)
            if sub:
                opened = opened | sub if opened else sub
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "open", opened)
        object.__setattr__(self, "height", height)
        object.__setattr__(
            self,
            "_hash",
            hash((self.formula, self.children, self.axiomatic, self.bound, self.rule)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: a pickled hash would be stale in a
        # process with another hash seed
        return (
            Node,
            (self.formula, self.children, self.axiomatic, self.bound, self.rule),
        )

    @property
    def discharge(self) -> tuple[tuple[DischargeItem, Path], ...]:
        """The discharges with a target inside the structure, sources in
        preorder."""
        return tuple(_entries(self))

    def node_at(self, path: Path) -> Node:
        node = self
        for i in path:
            node = node.children[i]
        return node

    def __str__(self) -> str:
        return pretty(self)


# the paper's term for a tree with its discharges: its root node
ArgumentStructure = Node


def _with_children(node: Node, children: tuple[Node, ...]) -> Node:
    return Node(node.formula, children, node.axiomatic, node.bound, node.rule)


@dataclass(frozen=True, slots=True)
class AssumptionDischarge:
    leaf: Path


@dataclass(frozen=True, slots=True)
class AxiomDischarge:
    leaf: Path


@dataclass(frozen=True, slots=True)
class RuleDischarge:
    node: Path
    rule: AtomicRule


DischargeItem = AssumptionDischarge | AxiomDischarge | RuleDischarge


def _source(item: DischargeItem) -> Path:
    return item.leaf if isinstance(item, (AssumptionDischarge, AxiomDischarge)) else item.node


def _item(node: Node, path: Path) -> DischargeItem:
    """The discharge a node's bound stands for, its source at path."""
    if node.children:
        return RuleDischarge(node=path, rule=node.rule)
    if node.axiomatic:
        return AxiomDischarge(leaf=path)
    return AssumptionDischarge(leaf=path)


def _is_proper_prefix(short: Path, long: Path) -> bool:
    return len(short) < len(long) and long[: len(short)] == short


def iter_nodes(struct: ArgumentStructure) -> Iterator[tuple[Path, Node]]:
    return _walk(struct, ())


def _walk(node: Node, path: Path) -> Iterator[tuple[Path, Node]]:
    yield path, node
    for i, child in enumerate(node.children):
        yield from _walk(child, path + (i,))


def _entries(root: Node) -> Iterator[tuple[DischargeItem, Path]]:
    for path, node in _walk(root, ()):
        if 0 < node.bound <= len(path):
            yield _item(node, path), path[: len(path) - node.bound]


def _bound_at(node: Node, path: Path = ()) -> Iterator[tuple[Path, Node]]:
    """The nodes a binder discharges, with their paths from it, in
    preorder; node is the binder's descendant at path, the binder itself
    when path is empty."""
    for i, child in enumerate(node.children):
        if child.free >> len(path) & 1:
            sub = path + (i,)
            if child.bound == len(sub):
                yield sub, child
            yield from _bound_at(child, sub)


def bind(
    root: Node, entries: Sequence[tuple[DischargeItem, Path]]
) -> ArgumentStructure:
    """The structure root with a table of (item, target path) entries: each
    entry is checked against the tree and written onto its source node."""
    if not entries:
        return root
    nodes = dict(_walk(root, ()))
    marks: dict[Path, tuple[int, AtomicRule | None]] = {}
    for item, target in entries:
        src = _source(item)
        if src not in nodes:
            raise StructureError(f"discharge source {src} is not a node")
        if target not in nodes:
            raise StructureError(f"discharge target {target} is not a node")
        if not _is_proper_prefix(target, src):
            raise StructureError(
                f"discharge target {target} is not strictly below {src}"
            )
        node = nodes[src]
        bound = len(src) - len(target)
        if src in marks or node.bound not in (0, bound):
            raise StructureError(f"node {src} discharged twice")
        if isinstance(item, AssumptionDischarge):
            if node.children or node.axiomatic:
                raise StructureError(
                    f"assumption discharge at {src} needs a non-axiomatic leaf"
                )
        elif isinstance(item, AxiomDischarge):
            if node.children or not node.axiomatic:
                raise StructureError(
                    f"axiom discharge at {src} needs an axiomatic leaf"
                )
            if not _atomic_formula(node.formula):
                raise StructureError(
                    f"axiom discharge at {src} needs an atomic label"
                )
        else:
            if not node.children:
                raise StructureError(f"rule discharge at {src} needs children")
            if not _atomic_formula(node.formula):
                raise StructureError(f"rule discharge at {src} needs an atomic node")
            if any(not _atomic_formula(c.formula) for c in node.children):
                raise StructureError(
                    f"rule discharge at {src} needs atomic children"
                )
            if item.rule.conclusion != _atom_name(node.formula):
                raise StructureError(
                    f"rule discharge at {src}: rule concludes "
                    f"{item.rule.conclusion}, node is {format_formula(node.formula)}"
                )
            want = sorted(p.conclusion for p in item.rule.premises)
            got = sorted(_atom_name(c.formula) for c in node.children)
            if want != got:
                raise StructureError(
                    f"rule discharge at {src}: premises {want} vs children {got}"
                )
        marks[src] = (bound, item.rule if isinstance(item, RuleDischarge) else None)

    def mark(node: Node, path: Path) -> Node:
        bound, rule = marks.get(path, (node.bound, node.rule))
        children = tuple(mark(c, path + (i,)) for i, c in enumerate(node.children))
        return Node(node.formula, children, node.axiomatic, bound, rule)

    out = mark(root, ())
    # the defining clause forbids discharging an assumption at the parent
    # node of a discharged edge set or at that edge set's target
    clash = _on_rule_anchors(tuple(_entries(out)), AssumptionDischarge)
    if clash:
        raise StructureError(
            f"assumption discharged at {clash[0][1]}, which anchors a "
            "discharged rule application"
        )
    return out


def _on_rule_anchors(
    entries: Sequence[tuple[DischargeItem, Path]], kind: type
) -> list[tuple[DischargeItem, Path]]:
    """The entries of the given kind whose target is a rule-discharged node
    or the target of one."""
    anchors = set()
    for item, target in entries:
        if isinstance(item, RuleDischarge):
            anchors.add(item.node)
            anchors.add(target)
    return [(item, t) for item, t in entries if isinstance(item, kind) and t in anchors]


def validate(struct: ArgumentStructure) -> list[str]:
    """Hard checks run when a structure is built from a discharge table;
    returns the soft warnings."""
    return [
        f"axiom leaf {item.leaf} discharged at {target}, a node "
        "anchoring a discharged rule application; the defining "
        "clause leaves this reading open"
        for item, target in _on_rule_anchors(struct.discharge, AxiomDischarge)
    ]


# ---------------------------------------------------------------------------
# basic accessors and builders


def leaf(f: Formula, axiomatic: bool = False) -> Node:
    return Node(formula=f, axiomatic=axiomatic)


def assumption(f: Formula) -> ArgumentStructure:
    """The single-node structure: its own conclusion and only assumption."""
    return leaf(f)


def axiom_leaf(f: Formula) -> ArgumentStructure:
    return leaf(f, axiomatic=True)


def conclusion(struct: ArgumentStructure) -> Formula:
    return struct.formula


def _is_open(node: Node, depth: int) -> bool:
    """A non-axiomatic leaf at the given depth that nothing inside the
    structure discharges."""
    return not (node.children or node.axiomatic or 0 < node.bound <= depth)


def assumption_paths(struct: ArgumentStructure) -> dict[Path, Formula]:
    """Undischarged non-axiomatic leaves, in preorder."""
    return {
        path: node.formula
        for path, node in iter_nodes(struct)
        if _is_open(node, len(path))
    }


def assumptions(struct: ArgumentStructure) -> frozenset[Formula]:
    """The labels of the undischarged non-axiomatic leaves, read off the
    root's summary: whatever it lists, the structure leaves open."""
    return frozenset(f for f, _ in struct.open)


def is_closed(struct: ArgumentStructure) -> bool:
    return not struct.open


def _binds(struct: ArgumentStructure) -> bool:
    """Some node of the structure is discharged at its root."""
    return any(c.free & 1 for c in struct.children)


def sub_structures(struct: ArgumentStructure) -> tuple[ArgumentStructure, ...]:
    """Immediate sub-structures.  The nodes the root discharges stay marked
    one level above the sub-structure's root, so its leaves come out open
    again, and are discharged anew under the same inference."""
    return struct.children


def _moved(
    node: Node,
    by: int,
    fill: Node | None = None,
    fill_by: int = 0,
    depth: int = 0,
) -> Node:
    """A subtree moved by levels deeper (up, when negative): discharges
    that reach above it reach by levels further.  With a fill, the subtree
    comes from under an eliminated binder, its parent, and every leaf
    discharged there is replaced by the fill moved fill_by levels plus that
    leaf's depth."""
    if not node.free >> depth:
        return node
    if fill is not None and node.bound == depth + 1 and not node.children:
        return _moved(fill, fill_by + depth)
    bound = node.bound + by if node.bound > depth else node.bound
    children = tuple(_moved(c, by, fill, fill_by, depth + 1) for c in node.children)
    return Node(node.formula, children, node.axiomatic, bound, node.rule)


def _with_subtree(node: Node, path: Path, new: Node) -> Node:
    if not path:
        return new
    i = path[0]
    children = list(node.children)
    children[i] = _with_subtree(children[i], path[1:], new)
    return _with_children(node, tuple(children))


def instantiate(
    struct: ArgumentStructure, sigma: Mapping[Formula, ArgumentStructure]
) -> ArgumentStructure:
    """Replace every assumption leaf by the structure its label maps to."""
    targets = assumptions(struct)
    missing = sorted(format_formula(f) for f in targets - set(sigma.keys()))
    if missing:
        raise StructureError(f"instantiation misses assumptions: {missing}")
    for f, sub in sigma.items():
        if f in targets and conclusion(sub) != f:
            raise StructureError(
                f"instance for {format_formula(f)} concludes "
                f"{format_formula(conclusion(sub))}"
            )

    def fill(node: Node, depth: int) -> Node:
        if _is_open(node, depth):
            return _moved(sigma[node.formula], depth)
        if not node.children or all(d and d <= depth for _, d in node.open):
            # no leaf of the subtree is open in the structure
            return node
        return _with_children(node, tuple(fill(c, depth + 1) for c in node.children))

    return fill(struct, 0)


def replace(
    struct: ArgumentStructure, at: Path, replacement: ArgumentStructure
) -> ArgumentStructure:
    """Swap the subtree at a position for a structure with the same
    conclusion.  A node in the hole discharged above it would leave its
    binder without it and is rejected; discharges wholly inside the hole
    vanish with it, and the replacement's discharges that reach above its
    root land on the ancestors of the position."""
    if struct.node_at(at).free:
        raise StructureError(f"the hole at {at} holds a node discharged above it")
    return _graft(struct, at, replacement)


def _graft(
    struct: ArgumentStructure, at: Path, replacement: ArgumentStructure
) -> ArgumentStructure:
    """replace without the check on the hole: discharges of nodes in it
    vanish with them, as when a reduction drops a discharged leaf."""
    old = struct.node_at(at)
    if conclusion(replacement) != old.formula:
        raise StructureError(
            f"replacement concludes {format_formula(conclusion(replacement))}, "
            f"hole is {format_formula(old.formula)}"
        )
    return _with_subtree(struct, at, replacement)


# ---------------------------------------------------------------------------
# inferences


@dataclass(frozen=True)
class Inference:
    """One step: immediate sub-structures and a conclusion."""

    subs: tuple[ArgumentStructure, ...]
    conclusion: Formula


def structure_of_inference(inf: Inference) -> ArgumentStructure:
    """The structure an inference is uniquely associated to."""
    return Node(formula=inf.conclusion, children=tuple(inf.subs))


def and_intro(left: ArgumentStructure, right: ArgumentStructure) -> ArgumentStructure:
    return structure_of_inference(
        Inference(
            subs=(left, right),
            conclusion=Conj(conclusion(left), conclusion(right)),
        )
    )


def or_intro_left(sub: ArgumentStructure, right: Formula) -> ArgumentStructure:
    return structure_of_inference(
        Inference(subs=(sub,), conclusion=Disj(conclusion(sub), right))
    )


def or_intro_right(sub: ArgumentStructure, left: Formula) -> ArgumentStructure:
    return structure_of_inference(
        Inference(subs=(sub,), conclusion=Disj(left, conclusion(sub)))
    )


def _discharge_open(node: Node, f: Formula, depth: int = 1) -> Node:
    """node, depth levels below a new binder, with its open f-leaves
    discharged at the binder."""
    if not node.children:
        if node.formula == f and _is_open(node, depth - 1):
            return Node(f, bound=depth)
        return node
    children = tuple(_discharge_open(c, f, depth + 1) for c in node.children)
    return node if children == node.children else _with_children(node, children)


def impl_intro(sub: ArgumentStructure, antecedent: Formula) -> ArgumentStructure:
    """Discharges every open occurrence of the antecedent; vacuous is fine."""
    body = _discharge_open(sub, antecedent)
    return Node(Impl(antecedent, conclusion(sub)), (body,))


def and_elim(sub: ArgumentStructure, side: int) -> ArgumentStructure:
    f = conclusion(sub)
    if not isinstance(f, Conj):
        raise StructureError("and_elim needs a conjunction")
    return structure_of_inference(
        Inference(subs=(sub,), conclusion=f.left if side == 1 else f.right)
    )


def impl_elim(major: ArgumentStructure, minor: ArgumentStructure) -> ArgumentStructure:
    f = conclusion(major)
    if not isinstance(f, Impl) or f.left != conclusion(minor):
        raise StructureError("impl_elim needs a matching implication")
    return structure_of_inference(Inference(subs=(major, minor), conclusion=f.right))


def or_elim(
    major: ArgumentStructure,
    left_case: ArgumentStructure,
    right_case: ArgumentStructure,
) -> ArgumentStructure:
    f = conclusion(major)
    if not isinstance(f, Disj):
        raise StructureError("or_elim needs a disjunction")
    c = conclusion(left_case)
    if conclusion(right_case) != c:
        raise StructureError("or_elim cases conclude different formulas")
    cases = (
        _discharge_open(left_case, f.left),
        _discharge_open(right_case, f.right),
    )
    return Node(c, (major, *cases))


def weaken(sub: ArgumentStructure, extra: Formula) -> ArgumentStructure:
    f = conclusion(sub)
    if not isinstance(f, Impl):
        raise StructureError("weaken needs an implication")
    return structure_of_inference(
        Inference(subs=(sub,), conclusion=Impl(Conj(f.left, extra), f.right))
    )


def or_project(sub: ArgumentStructure) -> ArgumentStructure:
    f = conclusion(sub)
    if not isinstance(f, Disj):
        raise StructureError("or_project needs a disjunction")
    return structure_of_inference(Inference(subs=(sub,), conclusion=f.left))


def rule_step(rule: AtomicRule, subs: Sequence[ArgumentStructure]) -> ArgumentStructure:
    """One application of an atomic rule, children in premise order."""
    if len(subs) != len(rule.premises):
        raise StructureError("premise count mismatch")
    for p, sub in zip(rule.premises, subs):
        got = conclusion(sub)
        if _atom_name(got) != p.conclusion:
            raise StructureError(
                f"premise {p.conclusion} proved as {format_formula(got)}"
            )
    f: Formula = BOT if rule.conclusion == "bot" else Atom(rule.conclusion)
    return structure_of_inference(Inference(subs=tuple(subs), conclusion=f))


# introduction matchers ------------------------------------------------------


def match_and_intro(struct: ArgumentStructure) -> bool:
    f = struct.formula
    kids = struct.children
    return (
        isinstance(f, Conj)
        and len(kids) == 2
        and kids[0].formula == f.left
        and kids[1].formula == f.right
        and not _binds(struct)
    )


def match_or_intro(struct: ArgumentStructure) -> bool:
    f = struct.formula
    kids = struct.children
    return (
        isinstance(f, Disj)
        and len(kids) == 1
        and kids[0].formula in (f.left, f.right)
        and not _binds(struct)
    )


def match_impl_intro(struct: ArgumentStructure) -> bool:
    f = struct.formula
    kids = struct.children
    if not (isinstance(f, Impl) and len(kids) == 1 and kids[0].formula == f.right):
        return False
    return all(
        not (node.children or node.axiomatic) and node.formula == f.left
        for _, node in _bound_at(struct)
    )


def is_canonical(struct: ArgumentStructure) -> bool:
    """Root step is an introduction: conjunction, disjunction, implication."""
    return (
        match_and_intro(struct)
        or match_or_intro(struct)
        or match_impl_intro(struct)
    )


# ---------------------------------------------------------------------------
# atomic derivations as structures


def derivation_to_structure(
    tree: DerivationNode, base: Base | frozenset[AtomicRule]
) -> ArgumentStructure:
    """Encode a derivation tree: applications of base rules are plain steps,
    applications of assumed rules are discharged at the node that made them
    available (edge sets for proper rules, axiom leaves for axioms)."""
    return _encode(tree, base.rules if isinstance(base, Base) else base, 0, {})


# The recursions below are module functions passed the base's rules, not
# closures over them: a nested recursive function references itself through
# its closure cell, and every call would leave a cycle for the collector.


def _encode(
    node: DerivationNode,
    base_rules: frozenset[AtomicRule],
    depth: int,
    env: dict[AtomicRule, int],
) -> Node:
    formula: Formula = BOT if node.conclusion == "bot" else Atom(node.conclusion)
    bound = 0
    if node.rule not in base_rules:
        if node.rule not in env:
            what = "rule" if node.rule.premises else "axiom"
            raise StructureError(
                f"{what} {format_rule(node.rule)} is neither in the "
                "base nor assumed anywhere below"
            )
        bound = depth - env[node.rule]
    if not node.rule.premises:
        return Node(formula=formula, axiomatic=True, bound=bound)
    children = []
    for prem, child in zip(node.rule.premises, node.children):
        inner = dict(env)
        for s in prem.discharged:
            inner[s] = depth
        children.append(_encode(child, base_rules, depth + 1, inner))
    return Node(
        formula=formula,
        children=tuple(children),
        bound=bound,
        rule=node.rule if bound else None,
    )


def is_atomic_derivation(struct: ArgumentStructure, base: Base) -> bool:
    """Replay a structure as a derivation over the base: every label atomic,
    every leaf an available axiom, every step an available rule, where
    availability flows from the base and from discharged rule premises."""
    return _replays(struct, base.rules, 0, {})


def _replays(
    node: Node,
    base_rules: frozenset[AtomicRule],
    depth: int,
    env: dict[AtomicRule, set[int]],
) -> bool:
    """The replay of the subtree at node, depth levels down; env maps each
    assumed rule to the depths of the nodes on the way down that made it
    available."""
    if not _atomic_formula(node.formula):
        return False
    name = _atom_name(node.formula)
    assumed = 0 < node.bound <= depth
    if not node.children:
        if not node.axiomatic:
            return False
        ax = axiom(name)
        if assumed:
            return ax in env and depth - node.bound in env[ax]
        return ax in base_rules
    if assumed:
        if node.rule not in env or depth - node.bound not in env[node.rule]:
            return False
        candidates = [node.rule]
    else:
        candidates = [
            r
            for r in base_rules
            if r.conclusion == name and len(r.premises) == len(node.children)
        ]
    for rule in candidates:
        if rule.conclusion != name or len(rule.premises) != len(node.children):
            continue
        if _assign(node, base_rules, depth, rule, env, 0, frozenset()):
            return True
    return False


def _assign(
    node: Node,
    base_rules: frozenset[AtomicRule],
    depth: int,
    rule: AtomicRule,
    env: dict[AtomicRule, set[int]],
    i: int,
    used: frozenset[int],
) -> bool:
    """Whether the rule's premises not in used can be assigned to node's
    children from the i-th on, by conclusion name, each child replaying;
    backtracks over ties, because different premises may open different
    rule sets."""
    if i == len(node.children):
        return True
    child = node.children[i]
    if not _atomic_formula(child.formula):
        return False
    cname = _atom_name(child.formula)
    for j, prem in enumerate(rule.premises):
        if j in used or prem.conclusion != cname:
            continue
        inner = {r: set(depths) for r, depths in env.items()}
        for s in prem.discharged:
            inner.setdefault(s, set()).add(depth)
        if _replays(child, base_rules, depth + 1, inner) and _assign(
            node, base_rules, depth, rule, env, i + 1, used | {j}
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# serialization and pretty printing


def _node_to_obj(node: Node) -> object:
    out: dict = {"formula": formula_to_obj(node.formula)}
    if node.axiomatic:
        out["axiomatic"] = True
    if node.children:
        out["children"] = [_node_to_obj(c) for c in node.children]
    return out


def _node_from_obj(obj: dict, depth: int = 0) -> Node:
    """The node tree of obj, depth levels below the root; a node deeper
    than MAX_NESTING fails before the recursion goes any deeper."""
    if depth > MAX_NESTING:
        raise StructureError(f"structure nested deeper than {MAX_NESTING} levels")
    return Node(
        formula=formula_from_obj(obj["formula"]),
        children=tuple(_node_from_obj(c, depth + 1) for c in obj.get("children", [])),
        axiomatic=bool(obj.get("axiomatic", False)),
    )


def structure_to_obj(struct: ArgumentStructure) -> object:
    entries = []
    for item, target in struct.discharge:
        e: dict = {"target": list(target)}
        if isinstance(item, AssumptionDischarge):
            e["kind"] = "assume"
            e["path"] = list(item.leaf)
        elif isinstance(item, AxiomDischarge):
            e["kind"] = "axiom"
            e["path"] = list(item.leaf)
        else:
            e["kind"] = "rule"
            e["path"] = list(item.node)
            e["rule"] = format_rule(item.rule)
        entries.append(e)
    return {"root": _node_to_obj(struct), "discharge": entries}


def structure_from_obj(obj: dict) -> ArgumentStructure:
    entries: list[tuple[DischargeItem, Path]] = []
    for e in obj.get("discharge", []):
        path = tuple(e["path"])
        target = tuple(e["target"])
        if e["kind"] == "assume":
            entries.append((AssumptionDischarge(leaf=path), target))
        elif e["kind"] == "axiom":
            entries.append((AxiomDischarge(leaf=path), target))
        elif e["kind"] == "rule":
            entries.append(
                (RuleDischarge(node=path, rule=parse_rule(e["rule"])), target)
            )
        else:
            raise StructureError(f"unknown discharge kind: {e['kind']!r}")
    return bind(_node_from_obj(obj["root"]), entries)


def pretty(struct: ArgumentStructure) -> str:
    """Indented tree, conclusion first.  Discharge sources show as [k],
    their targets as (k); axiomatic leaves are starred."""
    index: dict[Path, list[str]] = {}
    for k, (item, target) in enumerate(struct.discharge, start=1):
        index.setdefault(_source(item), []).append(f"[{k}]")
        index.setdefault(target, []).append(f"({k})")

    lines: list[str] = []

    def walk(node: Node, path: Path, depth: int) -> None:
        marks = "".join(index.get(path, []))
        star = "*" if node.axiomatic else ""
        lines.append("  " * depth + format_formula(node.formula) + star + marks)
        for i, child in enumerate(node.children):
            walk(child, path + (i,), depth + 1)

    walk(struct, (), 0)
    return "\n".join(lines)
