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
edge set, nor at that edge set's own target; bind enforces this, and accepts
an axiomatic leaf discharged there, a reading the clause leaves open.

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
    _Value,
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
    "is_closed",
    "sub_structures",
    "instantiate",
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
    "match_and_intro",
    "match_or_intro",
    "match_impl_intro",
    "is_canonical",
    "derivation_to_structure",
    "is_atomic_derivation",
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


def _atom_name(f: Formula) -> str | None:
    """The atom an atomic label names, None for a compound formula."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Absurdity):
        return "bot"
    return None


@dataclass(frozen=True, slots=True)
class Node(_Value):
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
    is kept beside them (_Value), computed once from the fields and the
    children's kept hashes, so neither a lookup nor a question about
    assumptions or height walks the tree.  A node is also the structure
    rooted at it, discharges reaching above it left open."""

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
        self._keep(self.formula, self.children, self.axiomatic, self.bound, self.rule)

    __hash__ = _Value.__hash__

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


def _walk(node: Node, path: Path) -> Iterator[tuple[Path, Node]]:
    """Every node of the subtree at node with its path, in preorder, node's
    own path being path; one frame however deep the tree."""
    todo = [(path, node)]
    while todo:
        path, node = todo.pop()
        yield path, node
        kids = node.children
        # pushed last child first, so the first child comes out next
        for i in range(len(kids) - 1, -1, -1):
            todo.append((path + (i,), kids[i]))


def _entries(root: Node) -> Iterator[tuple[DischargeItem, Path]]:
    for path, node in _walk(root, ()):
        if 0 < node.bound <= len(path):
            yield _item(node, path), path[: len(path) - node.bound]


# The recursions of this module, _bound_at and those below it, are module
# functions passed what they work on, not closures over it: a nested
# recursive function references itself through its closure cell, and every
# call would leave a cycle for the collector.


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

    # reversed preorder reaches every child before its parent
    built: dict[Path, Node] = {}
    for path, node in reversed(nodes.items()):
        bound, rule = marks.get(path, (node.bound, node.rule))
        children = tuple(built.pop(path + (i,)) for i in range(len(node.children)))
        built[path] = Node(node.formula, children, node.axiomatic, bound, rule)
    out = built[()]
    # the defining clause forbids discharging an assumption at the parent
    # node of a discharged edge set or at that edge set's target
    entries = tuple(_entries(out))
    anchors = set()
    for item, target in entries:
        if isinstance(item, RuleDischarge):
            anchors.add(item.node)
            anchors.add(target)
    for item, target in entries:
        if isinstance(item, AssumptionDischarge) and target in anchors:
            raise StructureError(
                f"assumption discharged at {target}, which anchors a "
                "discharged rule application"
            )
    return out


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


def instantiate(
    struct: ArgumentStructure, sigma: Mapping[Formula, ArgumentStructure]
) -> ArgumentStructure:
    """Replace every assumption leaf by the structure its label maps to:
    sigma must cover every assumption, so _fill leaves none open."""
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
    return _fill(struct, 0, sigma)


def _fill(
    node: Node, depth: int, sigma: Mapping[Formula, ArgumentStructure]
) -> Node:
    """The subtree at node, depth levels down, with each assumption leaf
    whose label sigma maps replaced by its instance moved down to the leaf;
    the structure's other leaves stay as they are."""
    if _is_open(node, depth):
        sub = sigma.get(node.formula)
        return node if sub is None else _moved(sub, depth)
    if not node.children or all(
        d and d <= depth or f not in sigma for f, d in node.open
    ):
        # no open leaf of the subtree has a label sigma maps
        return node
    return _with_children(node, tuple(_fill(c, depth + 1, sigma) for c in node.children))


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
    return Node(Conj(conclusion(left), conclusion(right)), (left, right))


def or_intro_left(sub: ArgumentStructure, right: Formula) -> ArgumentStructure:
    return Node(Disj(conclusion(sub), right), (sub,))


def or_intro_right(sub: ArgumentStructure, left: Formula) -> ArgumentStructure:
    return Node(Disj(left, conclusion(sub)), (sub,))


def impl_intro(sub: ArgumentStructure, antecedent: Formula) -> ArgumentStructure:
    """Discharges every open occurrence of the antecedent (none is fine):
    _fill puts a leaf bound at the new root in place of each."""
    body = _fill(sub, 0, {antecedent: Node(antecedent, bound=1)})
    return Node(Impl(antecedent, conclusion(sub)), (body,))


def and_elim(sub: ArgumentStructure, side: int) -> ArgumentStructure:
    f = conclusion(sub)
    if not isinstance(f, Conj):
        raise StructureError("and_elim needs a conjunction")
    return Node(f.left if side == 1 else f.right, (sub,))


def impl_elim(major: ArgumentStructure, minor: ArgumentStructure) -> ArgumentStructure:
    f = conclusion(major)
    if not isinstance(f, Impl) or f.left != conclusion(minor):
        raise StructureError("impl_elim needs a matching implication")
    return Node(f.right, (major, minor))


def or_elim(
    major: ArgumentStructure,
    left_case: ArgumentStructure,
    right_case: ArgumentStructure,
) -> ArgumentStructure:
    """Each case's open occurrences of its own disjunct are discharged at
    the root, as impl_intro discharges its antecedent's."""
    f = conclusion(major)
    if not isinstance(f, Disj):
        raise StructureError("or_elim needs a disjunction")
    c = conclusion(left_case)
    if conclusion(right_case) != c:
        raise StructureError("or_elim cases conclude different formulas")
    cases = (
        _fill(left_case, 0, {f.left: Node(f.left, bound=1)}),
        _fill(right_case, 0, {f.right: Node(f.right, bound=1)}),
    )
    return Node(c, (major, *cases))


def weaken(sub: ArgumentStructure, extra: Formula) -> ArgumentStructure:
    f = conclusion(sub)
    if not isinstance(f, Impl):
        raise StructureError("weaken needs an implication")
    return Node(Impl(Conj(f.left, extra), f.right), (sub,))


def or_project(sub: ArgumentStructure) -> ArgumentStructure:
    f = conclusion(sub)
    if not isinstance(f, Disj):
        raise StructureError("or_project needs a disjunction")
    return Node(f.left, (sub,))


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
    available (edge sets for proper rules, axiom leaves for axioms).  A
    derivation deeper than MAX_NESTING levels fails before the recursion
    goes any deeper, as a structure read from JSON does."""
    return _encode(tree, base.rules if isinstance(base, Base) else base, 0, {})


def _encode(
    node: DerivationNode,
    base_rules: frozenset[AtomicRule],
    depth: int,
    env: dict[AtomicRule, int],
) -> Node:
    if depth > MAX_NESTING:
        raise StructureError(f"derivation nested deeper than {MAX_NESTING} levels")
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
        inner = env  # shared when nothing is discharged: env is only read
        if prem.discharged:
            inner = {**env, **dict.fromkeys(prem.discharged, depth)}
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
    availability flows from the base and from discharged rule premises.
    Memoized, and matching a step's children to its rule's premises, the
    replay runs in polynomial time."""
    return _replays(struct, base.rules, (), {})


def _replays(
    node: Node,
    base_rules: frozenset[AtomicRule],
    avail: tuple[frozenset[AtomicRule], ...],
    memo: dict,
) -> bool:
    """The replay of the subtree at node, len(avail) levels down; avail[d]
    is the discharged set of the premise the way down takes at its node d
    levels down, so a node bound k levels up is assumed from
    avail[len(avail) - k].  memo keeps an inner node's answer under the
    node and the entries of avail its free bits name: all the subtree reads."""
    name = _atom_name(node.formula)
    if name is None:
        return False
    depth = len(avail)
    assumed = 0 < node.bound <= depth
    rules = avail[depth - node.bound] if assumed else base_rules
    if not node.children:
        return node.axiomatic and axiom(name) in rules
    read = (avail[depth - 1 - i] for i in range(depth) if node.free >> i & 1)
    key = (node, tuple(read))
    if key in memo:
        return memo[key]
    memo[key] = False
    for rule in (node.rule,) if assumed else base_rules:
        if (
            rule not in rules
            or rule.conclusion != name
            or len(rule.premises) != len(node.children)
        ):
            continue
        fits = [
            [
                j
                for j, prem in enumerate(rule.premises)
                if prem.conclusion == _atom_name(child.formula)
                and _replays(child, base_rules, avail + (prem.discharged,), memo)
            ]
            for child in node.children
        ]
        owner: list[int | None] = [None] * len(fits)
        if all(_augment(i, fits, owner, set()) for i in range(len(fits))):
            memo[key] = True
            break
    return memo[key]


def _augment(i: int, fits: list[list[int]], owner: list, seen: set[int]) -> bool:
    """Kuhn's augmenting path: whether child i gets a premise j it fits, one
    not in seen taken over from its holder owner[j] if that one gets another."""
    for j in fits[i]:
        if j not in seen:
            seen.add(j)
            if owner[j] is None or _augment(owner[j], fits, owner, seen):
                owner[j] = i
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


def _json_list(value: object, what: str) -> list:
    """value, a JSON field that must be a list: iterated, a string would
    read as its characters and an object as its keys."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _node_from_obj(obj: dict, depth: int = 0) -> Node:
    """The node tree of obj, depth levels below the root; a node deeper
    than MAX_NESTING fails before the recursion goes any deeper."""
    if depth > MAX_NESTING:
        raise StructureError(f"structure nested deeper than {MAX_NESTING} levels")
    axiomatic = obj.get("axiomatic", False)
    if not isinstance(axiomatic, bool):
        raise ValueError(f"axiomatic must be a boolean, not {type(axiomatic).__name__}")
    children = _json_list(obj.get("children", []), "children")
    return Node(
        formula=formula_from_obj(obj["formula"]),
        children=tuple(_node_from_obj(c, depth + 1) for c in children),
        axiomatic=axiomatic,
    )


_KINDS = {AssumptionDischarge: "assume", AxiomDischarge: "axiom", RuleDischarge: "rule"}


def structure_to_obj(struct: ArgumentStructure) -> object:
    entries = []
    for item, target in struct.discharge:
        e: dict = {"target": list(target), "kind": _KINDS[type(item)]}
        e["path"] = list(_source(item))
        if isinstance(item, RuleDischarge):
            e["rule"] = format_rule(item.rule)
        entries.append(e)
    return {"root": _node_to_obj(struct), "discharge": entries}


def structure_from_obj(obj: dict) -> ArgumentStructure:
    entries: list[tuple[DischargeItem, Path]] = []
    for e in _json_list(obj.get("discharge", []), "discharge"):
        path = _json_list(e["path"], "a discharge's path")
        target = _json_list(e["target"], "a discharge's target")
        # compared, not looked up, so an unhashable kind is unknown too
        kind = next((k for k, name in _KINDS.items() if name == e["kind"]), None)
        if kind is None:
            raise StructureError(f"unknown discharge kind: {e['kind']!r}")
        rule = (parse_rule(e["rule"]),) if kind is RuleDischarge else ()
        entries.append((kind(tuple(path), *rule), tuple(target)))
    return bind(_node_from_obj(obj["root"]), entries)


def pretty(struct: ArgumentStructure) -> str:
    """Indented tree, conclusion first.  Discharge sources show as [k],
    their targets as (k); axiomatic leaves are starred."""
    index: dict[Path, list[str]] = {}
    for k, (item, target) in enumerate(struct.discharge, start=1):
        index.setdefault(_source(item), []).append(f"[{k}]")
        index.setdefault(target, []).append(f"({k})")

    return "\n".join(
        "  " * len(path)
        + format_formula(node.formula)
        + ("*" if node.axiomatic else "")
        + "".join(index.get(path, []))
        for path, node in _walk(struct, ())
    )
