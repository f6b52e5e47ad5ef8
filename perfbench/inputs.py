"""Seeded inputs for the three workloads, built through the package's
public constructors."""

from __future__ import annotations

import itertools
import json
import os
import random

from prooflab.arguments import (
    and_elim,
    and_intro,
    assumption,
    axiom_leaf,
    impl_elim,
    impl_intro,
    or_elim,
    or_intro_left,
)
from prooflab import atomic_system, base_semantics, syntax
from prooflab.atomic_system import (
    AtomicRule,
    Base,
    Premise,
    axiom,
    format_rule,
    level,
    premise,
)
from prooflab.base_semantics import Sequent
from prooflab.syntax import BOT, Atom, Conj, Disj, Impl

# layer-boundary functions are called through their modules, so that a
# traced run sees set-up's calls as well

P, Q = Atom("p"), Atom("q")
FAMILY_ATOMS = ("p", "q")

# ---------------------------------------------------------------------------
# the acceptance family: two atoms, up to three rules, level up to two,
# deduplicated by derivability profile and level signature


def _level1_rules() -> set[AtomicRule]:
    out = set()
    for k in range(3):
        for prems in itertools.combinations(FAMILY_ATOMS, k):
            for c in FAMILY_ATOMS:
                out.add(AtomicRule(tuple(premise(a) for a in prems), c))
    return out


def _level2_rules(l1: set[AtomicRule]) -> set[AtomicRule]:
    return {
        AtomicRule((premise(pc, (r1,)),), c)
        for r1 in l1
        for pc in FAMILY_ATOMS
        for c in FAMILY_ATOMS
    }


_IMP_PQ = AtomicRule((premise("p"),), "q")
_IMP_QP = AtomicRule((premise("q"),), "p")
_TWO_PREMISE = (
    AtomicRule((premise("p"), premise("q", (_IMP_PQ,))), "q"),
    AtomicRule((premise("p", (_IMP_QP,)), premise("q", (_IMP_PQ,))), "p"),
    AtomicRule((premise("q"), premise("p", (_IMP_QP,))), "p"),
    AtomicRule((premise("p"), premise("p", (_IMP_PQ,))), "q"),
)
_PROFILE_CONTEXTS = ((), ("p",), ("q",), ("p", "q"))


def family_rule_pool() -> list[AtomicRule]:
    l1 = _level1_rules()
    return sorted(l1 | _level2_rules(l1) | set(_TWO_PREMISE), key=format_rule)


def base_family(max_rules: int = 3) -> tuple[Base, ...]:
    seen = set()
    family = []
    pool = family_rule_pool()
    for size in range(max_rules + 1):
        for combo in itertools.combinations(pool, size):
            b = Base(frozenset(combo))
            profile = tuple(
                atomic_system.derivable_atoms(b, tuple(axiom(a) for a in ctx))
                for ctx in _PROFILE_CONTEXTS
            )
            key = (profile, tuple(sorted(level(r) for r in b.rules)))
            if key not in seen:
                seen.add(key)
                family.append(b)
    return tuple(family)


# the family's rule sets as text, for workloads that pass rules on a command
# line and cannot afford to build the family; family-sweep checks on every
# run that it still matches base_family()
FAMILY_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "family_rules.json")


def family_rule_texts(family) -> list[list[str]]:
    return [sorted(format_rule(r) for r in b.rules) for b in family]


def load_family_rules() -> list[list[str]]:
    with open(FAMILY_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the seeded sequent pool over p, q (the acceptance gate's recipe)

GATE_SEED = 20260822  # the seed tests/test_acceptance.py draws its pool with

CURATED = (
    "((p -> q) -> p) -> p",
    "~~p -> p",
    "p | ~p",
    "(~p -> (q | p)) -> ((~p -> q) | (~p -> p))",
    "((p -> q) -> q) -> (p | q)",
    "~(p & q) -> (~p | ~q)",
    "(p -> q) | (q -> p)",
    "~~(p | ~p)",
)
CURATED_SEQUENTS = (
    "p |- q",
    "q |- p",
    "p -> q |- q",
    "p, p -> q |- q",
    "p | q |- p",
    "p & q |- q",
    "|- p -> p",
    "p |- ~~p",
)


def sample_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((P, Q, BOT))
    ctor = rng.choice((Conj, Disj, Impl))
    return ctor(sample_formula(rng, depth - 1), sample_formula(rng, depth - 1))


def sequent_pool(seed: int, scale: float = 1.0) -> tuple[Sequent, ...]:
    """Every depth-one formula, the curated ones and 50 seeded depth-three
    samples as closed sequents, then 60 one-premise and 20 two-premise
    seeded sequents and the curated sequents: 176 in all at full scale."""
    rng = random.Random(seed)
    atoms = [P, Q, BOT]
    formulas = list(atoms)
    for left in atoms:
        for right in atoms:
            formulas += [Conj(left, right), Disj(left, right), Impl(left, right)]
    formulas += [syntax.parse_formula(t) for t in CURATED]
    formulas += [sample_formula(rng, 3) for _ in range(round(50 * scale))]
    seqs = [Sequent(frozenset(), f) for f in formulas]
    for _ in range(round(60 * scale)):
        seqs.append(Sequent(frozenset({rng.choice(formulas)}), rng.choice(formulas)))
    for _ in range(round(20 * scale)):
        g1, g2, f = (rng.choice(formulas) for _ in range(3))
        seqs.append(Sequent(frozenset({g1, g2}), f))
    seqs += [base_semantics.parse_sequent(t) for t in CURATED_SEQUENTS]
    if scale < 1.0:
        seqs = rng.sample(seqs, max(4, round(len(seqs) * scale)))
    return tuple(seqs)


# ---------------------------------------------------------------------------
# random higher-level bases for the saturation tiers

TIERS = ((4, 8, 2), (6, 16, 3), (8, 32, 3), (10, 64, 4))
# rule contexts each tier's bases make saturation visit: fixed per tier, so
# that the cost of a base varies less from seed to seed
TIER_CONTEXTS = (2, 8, 16, 64)
DISCHARGED_PER_LEVEL = 3


def _rule_of_level(rng, atoms, lvl, pools) -> AtomicRule:
    """A rule of exactly the given level; what its premises discharge is
    drawn from the per-level pools, so the number of distinct discharged
    rules, and with it the number of reachable contexts, stays bounded."""
    if lvl == 0:
        return axiom(rng.choice(atoms))
    prems = []
    for i in range(rng.choice((1, 2))):
        if lvl >= 2 and i == 0:
            disc = frozenset({rng.choice(pools[lvl - 2])})
        elif lvl >= 2 and rng.random() < 0.5:
            disc = frozenset({rng.choice(pools[rng.randrange(lvl - 1)])})
        else:
            disc = frozenset()
        prems.append(Premise(disc, rng.choice(atoms)))
    return AtomicRule(tuple(prems), rng.choice(atoms))


def reachable_contexts(rules: frozenset) -> int:
    """How many rule contexts saturation visits: the supply closed under
    adding the rules a premise discharges.  Contexts are bitmasks over the
    discharged rules not already in the supply; rules are handled by
    position, since hashing a rule walks all of it."""
    supply = list(rules)
    index: dict[AtomicRule, int] = {}
    todo = list(supply)
    while todo:
        for p in todo.pop().premises:
            for s in p.discharged:
                if s not in rules and s not in index:
                    index[s] = len(index)
                    todo.append(s)
    every = supply + sorted(index, key=index.get)
    masks = [
        [sum(1 << index[s] for s in p.discharged if s in index) for p in r.premises]
        for r in every
    ]
    n = len(supply)
    seen, frontier = {0}, [0]
    while frontier:
        m = frontier.pop()
        members = list(range(n)) + [n + i for i in range(len(index)) if m >> i & 1]
        for j in members:
            for pm in masks[j]:
                if m | pm not in seen:
                    seen.add(m | pm)
                    frontier.append(m | pm)
    return len(seen)


def tier_base(rng: random.Random, n_atoms: int, n_rules: int, top: int, contexts: int):
    """A base of exactly n_rules rules over atoms a0.. with at least one
    rule of level top, whose saturation visits exactly `contexts` rule
    contexts (rule sets are drawn until one does); half of the atoms have
    an axiom.  Returns the atoms too.  No rule concludes bot, so every base
    is consistent."""
    atoms = [f"a{i}" for i in range(n_atoms)]
    while True:
        pools: list[list[AtomicRule]] = []
        for lvl in range(max(0, top - 1)):
            pool: set[AtomicRule] = set()
            while len(pool) < DISCHARGED_PER_LEVEL:
                pool.add(_rule_of_level(rng, atoms, lvl, pools))
            pools.append(sorted(pool, key=format_rule))
        rules: set[AtomicRule] = set()
        while len(rules) < max(1, n_atoms // 2):
            rules.add(axiom(rng.choice(atoms)))
        rules.add(_rule_of_level(rng, atoms, top, pools))
        while len(rules) < n_rules:
            rules.add(_rule_of_level(rng, atoms, rng.randint(1, top), pools))
        if reachable_contexts(frozenset(rules)) == contexts:
            return atoms, Base(frozenset(rules))


def assumed_contexts(rng: random.Random, atoms, base: Base, count: int):
    """count distinct assumed-axiom sets over atoms the base has no axiom
    for (so each one makes a rule supply that was never saturated): the
    singletons first, then pairs.  Half of the atoms are free, so a base
    of n atoms offers at least n/2 + (n/2 choose 2) sets."""
    free = [a for a in atoms if axiom(a) not in base.rules]
    cands = [frozenset({axiom(a)}) for a in free]
    cands += [frozenset({axiom(a), axiom(b)}) for a, b in itertools.combinations(free, 2)]
    if len(cands) < count:
        raise ValueError(f"only {len(cands)} assumed-axiom sets, {count} asked for")
    head, tail = cands[: len(free)], cands[len(free):]
    rng.shuffle(head)
    rng.shuffle(tail)
    return (head + tail)[:count]


# ---------------------------------------------------------------------------
# detour chains for the CLI session

DETOUR_KINDS = ("conj", "imp", "disj")


def wrap_detour(inner, kind: str, atom, side):
    """A detour concluding atom, as inner does, and reducing back to inner.
    side also concludes atom: it is the conj-detour's second conjunct and
    the disj-detour's right case (an open assumption in open chains)."""
    if kind == "conj":
        return and_elim(and_intro(inner, side), 1)
    if kind == "imp":
        return impl_elim(impl_intro(assumption(atom), atom), inner)
    # or-elim over an or-intro: the left case takes the grafted inner, the
    # right case ignores its assumption and repeats a closed derivation
    return or_elim(or_intro_left(inner, Q if atom != Q else P), assumption(atom), side)


def detour_kinds(depth: int) -> list[str]:
    """conj, imp, disj, conj, ... : one fixed order per depth, because the
    size of the reduction closure depends on the order."""
    return [DETOUR_KINDS[i % len(DETOUR_KINDS)] for i in range(depth)]


def detour_chain(inner, kinds, atom, side):
    out = inner
    for kind in kinds:
        out = wrap_detour(out, kind, atom, side)
    return out


def binder_detours():
    """Seed-independent detours under an ->-intro binder, each with its
    detour-free reduct: p -> p proved through a conj- and an imp-detour
    whose assumption the outer ->-intro discharges."""
    plain = impl_intro(assumption(P), P)
    conj = impl_intro(and_elim(and_intro(assumption(P), axiom_leaf(Q)), 1), P)
    imp = impl_intro(impl_elim(impl_intro(assumption(P), P), assumption(P)), P)
    return (("binder-conj", conj, plain), ("binder-imp", imp, plain))


if __name__ == "__main__":
    # PYTHONPATH=src python3 perfbench/inputs.py: rewrite FAMILY_FILE
    rows = [json.dumps(rules) for rules in family_rule_texts(base_family())]
    with open(FAMILY_FILE, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(rows) + "\n]\n")
