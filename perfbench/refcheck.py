"""Reference computations the benchmark checks answers against.

Nothing here calls the package's deciders.  Derivability comes from the
bounded enumeration in ``tests/oracles.py`` or from the naive least fixpoint
below; the clause relations from the oracles' transcriptions; derivation
trees are replayed by a walker written here; reduction results are scanned
for redexes on their JSON form.
"""

from __future__ import annotations

import itertools
import os
import sys

_TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
if _TESTS not in sys.path:
    sys.path.append(_TESTS)

from oracles import enum_derivable, ref_standard, ref_variant  # noqa: E402

__all__ = [
    "enum_derivable",
    "ref_standard",
    "ref_variant",
    "formula_atoms",
    "sequent_atoms",
    "rule_atoms",
    "fresh_atom",
    "naive_derivable",
    "replay",
    "find_redex",
    "classically_refutable",
]


def formula_atoms(f) -> set[str]:
    name = type(f).__name__
    if name == "Atom":
        return {f.name}
    if name == "Absurdity":
        return set()
    return formula_atoms(f.left) | formula_atoms(f.right)


def sequent_atoms(seq) -> set[str]:
    out = formula_atoms(seq.conclusion)
    for g in seq.premises:
        out |= formula_atoms(g)
    return out


def rule_atoms(rules) -> set[str]:
    """Atoms a rule set mentions, discharged rules included, bot excluded."""
    out: set[str] = set()

    def walk(r):
        out.add(r.conclusion)
        for p in r.premises:
            out.add(p.conclusion)
            for s in p.discharged:
                walk(s)

    for r in rules:
        walk(r)
    out.discard("bot")
    return out


def fresh_atom(used) -> str:
    """The first of c, c1, c2, ... not in used: never derivable."""
    name, i = "c", 0
    while name in used:
        i += 1
        name = f"c{i}"
    return name


def naive_derivable(rules: frozenset) -> frozenset[str]:
    """Atoms derivable from the rules: the least fixpoint of 'a holds in
    context S', by repeated full passes over every reachable context.

    A context is the supply plus a subset of the rules that premises
    discharge, written as a bitmask over those rules.
    """
    extra: list = []
    index: dict = {}
    todo = list(rules)
    while todo:
        r = todo.pop()
        for p in r.premises:
            for s in p.discharged:
                if s not in rules and s not in index:
                    index[s] = len(extra)
                    extra.append(s)
                    todo.append(s)

    def mask_of(discharged) -> int:
        m = 0
        for s in discharged:
            if s in index:
                m |= 1 << index[s]
        return m

    # rules by position, as (conclusion, [(premise atom, premise mask)]):
    # hashing a rule walks all of it
    shapes = [
        (r.conclusion, [(p.conclusion, mask_of(p.discharged)) for p in r.premises])
        for r in list(rules) + extra
    ]
    n = len(rules)
    members: dict[int, list] = {}
    frontier = [0]
    while frontier:
        m = frontier.pop()
        if m in members:
            continue
        members[m] = shapes[:n] + [shapes[n + i] for i in range(len(extra)) if m >> i & 1]
        for _, prems in members[m]:
            for _, pm in prems:
                if (m | pm) not in members:
                    frontier.append(m | pm)
    holds: dict[int, set[str]] = {m: set() for m in members}
    changed = True
    while changed:
        changed = False
        for m, ctx_rules in members.items():
            facts = holds[m]
            for concl, prems in ctx_rules:
                if concl in facts:
                    continue
                if all(a in holds[m | pm] for a, pm in prems):
                    facts.add(concl)
                    changed = True
    return frozenset(holds[0])


def replay(node, available: frozenset) -> bool:
    """A derivation tree is sound when every step applies an available rule
    to children concluding its premises, each child replayed with that
    premise's discharged rules added."""
    rule = node.rule
    if rule not in available or rule.conclusion != node.conclusion:
        return False
    if len(node.children) != len(rule.premises):
        return False
    return all(
        child.conclusion == p.conclusion and replay(child, available | p.discharged)
        for p, child in zip(rule.premises, node.children)
    )


# ---------------------------------------------------------------------------
# redexes, on the JSON form of a structure


def _form(node: dict) -> dict:
    return node["formula"]


def find_redex(obj: dict) -> list[int] | None:
    """Path of the first standard redex in a serialized structure: an
    elimination whose major premise is the matching introduction.  None
    when the structure is detour-free."""

    def kids(node):
        return node.get("children", [])

    def is_intro(node, op: str) -> bool:
        f = _form(node)
        if f.get("op") != op:
            return False
        cs = kids(node)
        if op == "and":
            return len(cs) == 2 and [_form(c) for c in cs] == [f["left"], f["right"]]
        if op == "or":
            return len(cs) == 1 and _form(cs[0]) in (f["left"], f["right"])
        return len(cs) == 1 and _form(cs[0]) == f["right"]

    def elim_major(node):
        cs = kids(node)
        f = _form(node)
        if len(cs) == 1 and _form(cs[0]).get("op") == "and":
            g = _form(cs[0])
            if f in (g["left"], g["right"]):
                return cs[0], "and"
        if len(cs) == 2 and _form(cs[0]).get("op") == "imp":
            g = _form(cs[0])
            if g["left"] == _form(cs[1]) and g["right"] == f:
                return cs[0], "imp"
        if len(cs) == 3 and _form(cs[0]).get("op") == "or":
            if _form(cs[1]) == f and _form(cs[2]) == f:
                return cs[0], "or"
        return None

    def walk(node, path):
        hit = elim_major(node)
        if hit is not None and is_intro(*hit):
            return path
        for i, c in enumerate(kids(node)):
            found = walk(c, path + [i])
            if found is not None:
                return found
        return None

    return walk(obj["root"], [])


def classically_refutable(sequent, kind: str) -> bool:
    """Is there a set of the sequent's atoms whose axioms refute it?  Under
    the standard clauses (and their variant) a base of axioms is judged by
    which atoms it derives, so this is a search over valuations."""
    names = sorted(sequent_atoms(sequent))
    universe = frozenset(names) | {fresh_atom(names)}
    for k in range(len(names) + 1):
        for chosen in itertools.combinations(names, k):
            derivable = frozenset(chosen)
            if kind == "standard":
                holds = ref_standard(sequent.premises, sequent.conclusion, derivable)
            else:
                holds = ref_variant(
                    sequent.premises, sequent.conclusion, derivable, universe
                )
            if not holds:
                return True
    return False
