"""Rule layer: levels, derivability, consistency, star translation, syntax."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import enum_derivable, enum_derivable_atoms, naive_derivable
from prooflab import atomic_system
from prooflab.arguments import derivation_to_structure, is_atomic_derivation
from prooflab.atomic_system import (
    AtomicRule,
    Base,
    DerivationCheckError,
    DerivationNode,
    InconsistentBaseError,
    Premise,
    ResourceLimitExceeded,
    atoms_of_base,
    atoms_of_rule,
    axiom,
    check_consistency,
    check_derivation,
    derivable_atoms,
    derive,
    format_base,
    format_rule,
    level,
    parse_base_text,
    parse_rule,
    premise,
    premise_to_rule,
    rule_to_premise,
    star_translate,
    RuleSyntaxError,
    _numbering,
    _saturate,
)
from prooflab.syntax import MAX_NESTING, FormulaSyntaxError, parse_formula


def rule(text: str) -> AtomicRule:
    return parse_rule(text)


# ---------------------------------------------------------------------------
# levels


def test_level_examples():
    assert level(rule("p")) == 0
    assert level(rule("(p => q)")) == 1
    assert level(rule("(p, q => r)")) == 1
    # one premise that derives q with the axiom p available
    assert level(rule("([p => q] => r)")) == 2
    # discharging a level-1 rule pushes the level to 3
    assert level(rule("([(p => q) => q] => r)")) == 3


def test_level_discharge_gap():
    # a level-k rule can only mention discharged rules of level <= k - 2
    r = rule("([([p => q] => s) => t] => u)")
    assert level(r) == 4
    for p in r.premises:
        for s in p.discharged:
            assert level(s) <= level(r) - 2


@st.composite
def rules(draw, max_level: int = 3):
    names = st.sampled_from(["p", "q", "r", "bot"])
    if max_level <= 0 or draw(st.booleans()):
        return axiom(draw(st.sampled_from(["p", "q", "r"])))
    n = draw(st.integers(1, 2))
    prems = []
    for _ in range(n):
        if draw(st.booleans()):
            prems.append(premise(draw(names)))
        else:
            inner = draw(st.lists(rules(max_level=max_level - 2), min_size=1, max_size=2))
            prems.append(premise(draw(names), inner))
    return AtomicRule(premises=tuple(prems), conclusion=draw(names))


@given(rules())
def test_level_bounds_discharged_rules(r):
    k = level(r)
    for p in r.premises:
        for s in p.discharged:
            assert level(s) <= k - 2


def _recurrence_level(r: AtomicRule) -> int:
    """The level recurrence, recomputed recursively on every call."""
    if not r.premises:
        return 0
    return 1 + max(
        0 if not p.discharged else 1 + max(_recurrence_level(s) for s in p.discharged)
        for p in r.premises
    )


@given(rules(max_level=5))
def test_kept_level_matches_the_recurrence(r):
    assert level(r) == _recurrence_level(r)
    # a pickle rebuilds the rule, and with it the kept level
    assert level(pickle.loads(pickle.dumps(r))) == level(r)


def _dup_free(r: AtomicRule) -> bool:
    if len(set(r.premises)) != len(r.premises):
        return False
    return all(_dup_free(s) for p in r.premises for s in p.discharged)


@given(rules())
def test_premise_rule_isomorphism(r):
    # duplicate premises collapse in the set-of-rules view, so the round
    # trip is exact only for recursively duplicate-free premise lists
    if _dup_free(r):
        assert premise_to_rule(rule_to_premise(r)) == r
    # the level recurrence equals 1 + max level of the premise rules
    if r.premises:
        assert level(r) == 1 + max(level(premise_to_rule(p)) for p in r.premises)


def test_structural_equality_modulo_order():
    assert rule("(p, q => r)") == rule("(q, p => r)")
    assert rule("([p, q => r] => s)") == rule("([q, p => r] => s)")
    assert rule("(p => q)") != rule("(p => r)")


# ---------------------------------------------------------------------------
# derivability


def base(text: str) -> Base:
    return parse_base_text(text)


def test_axioms_derive_themselves():
    b = base("p.")
    assert derive(b, goal="p").derivable
    assert not derive(b, goal="q").derivable


def test_chained_rules():
    b = base("p.\n(p => q)\n(q => r)")
    assert derive(b, goal="r").derivable
    assert not derive(b, goal="s").derivable


def test_higher_level_discharge():
    # r needs q derivable with the axiom p available
    b = base("([p => q] => r)\n(p => q)")
    assert derive(b, goal="r").derivable
    assert not derive(b, goal="q").derivable  # p itself is not in the base
    assert not derive(base("([p => q] => r)"), goal="r").derivable
    assert derive(base("([p => q] => r)\nq."), goal="r").derivable


def test_level_three_discharge():
    # u needs t derivable with the rule (p => q) available
    b = base("([(p => q) => t] => u)\np.\n(q => t)")
    # with (p => q) assumed: p gives q gives t
    assert derive(b, goal="u").derivable
    assert not derive(base("([(p => q) => t] => u)\n(q => t)"), goal="u").derivable


def test_cyclic_supply_regression():
    # a naive backward search with an in-progress cut answers NO for x here
    b = base("a.\n(a => x)\n(x => g)\n(g => x)")
    assert derive(b, goal="x").derivable
    assert derive(b, goal="g").derivable
    assert derivable_atoms(b) == frozenset({"a", "x", "g"})


def test_assumed_rules_join_the_supply():
    b = base("(p => q)")
    assert not derive(b, goal="q").derivable
    assert derive(b, assumed={axiom("p")}, goal="q").derivable


def test_derive_monotone_in_supply():
    b = base("(p => q)")
    small = derivable_atoms(b)
    big = derivable_atoms(b, assumed={axiom("p")})
    assert small <= big


def test_witness_trees_replay():
    b = base("([p => q] => r)\n(p => q)\n(r => s)")
    res = derive(b, goal="s")
    assert res.derivable and res.tree is not None
    assert check_derivation(res.tree, b.rules)
    # corrupting the tree must be caught
    bad = res.tree.children[0]
    with pytest.raises(DerivationCheckError):
        check_derivation(bad, frozenset())


def _chain_tree(n, bottom=None):
    """The chain base p0., (p{i-1} => p{i}) for 0 < i < n, and its
    derivation of p{n-1}, built bottom up over bottom (the axiom p0 by
    default)."""
    rules = [axiom("p0")] + [rule(f"(p{i - 1} => p{i})") for i in range(1, n)]
    node = bottom or DerivationNode("p0", rules[0], ())
    for i in range(1, n):
        node = DerivationNode(f"p{i}", rules[i], (node,))
    return frozenset(rules), node


def test_check_derivation_replays_a_chain_deeper_than_the_python_stack():
    rules, tree = _chain_tree(5000)
    assert check_derivation(tree, rules)
    assert check_derivation(derive(Base(rules=rules), goal="p4999").tree, rules)


def test_check_derivation_finds_a_defect_near_the_bottom_of_a_deep_chain():
    rules, tree = _chain_tree(5000)
    missing = r"^rule not available: \(p1 => p2\)$"
    with pytest.raises(DerivationCheckError, match=missing):
        check_derivation(tree, rules - {rule("(p1 => p2)")})
    rules, tree = _chain_tree(5000, bottom=DerivationNode("q", axiom("q"), ()))
    with pytest.raises(DerivationCheckError, match="^premise p0 proved as q$"):
        check_derivation(tree, rules | {axiom("q")})


def test_check_derivation_names_a_misapplied_rule():
    # a node labelled with an atom its rule does not conclude
    with pytest.raises(
        DerivationCheckError, match="^conclusion mismatch: node p, rule q$"
    ):
        check_derivation(DerivationNode("p", axiom("q"), ()), frozenset({axiom("q")}))
    # a rule applied to fewer subtrees than it has premises
    short = DerivationNode("q", rule("(p => q)"), ())
    with pytest.raises(
        DerivationCheckError, match=r"^premise count mismatch for \(p => q\)$"
    ):
        check_derivation(short, frozenset({rule("(p => q)")}))


def test_check_derivation_raises_the_first_defect_in_premise_order():
    # the first premise's subtree fails two levels down, the second premise
    # at once: depth first in premise order meets the deep one first
    x = DerivationNode("x", axiom("x"), ())
    deep = DerivationNode("a", rule("(x => a)"), (x,))
    top = DerivationNode(
        "c", rule("(a, b => c)"), (deep, DerivationNode("z", axiom("z"), ()))
    )
    supply = frozenset({rule("(a, b => c)"), rule("(x => a)"), axiom("z")})
    with pytest.raises(DerivationCheckError, match=r"^rule not available: x\.?$"):
        check_derivation(top, supply)
    with pytest.raises(DerivationCheckError, match="^premise b proved as z$"):
        check_derivation(top, supply | {axiom("x")})


def test_consistency_guard():
    with pytest.raises(InconsistentBaseError):
        base("p.\n(p => bot)")
    assert check_consistency(frozenset({axiom("p")}))
    assert not check_consistency(frozenset({axiom("p"), rule("(p => bot)")}))
    # bot only reachable under a discharge does not poison the base
    b = base("([p => bot] => q)\n(p => bot)")
    assert derive(b, goal="q").derivable


@st.composite
def rule_sets(draw):
    return frozenset(
        draw(st.lists(rules(max_level=2), min_size=0, max_size=4))
    )


@settings(max_examples=60, deadline=None)
@given(rule_sets())
def test_derive_matches_exhaustive_enumeration(rs):
    atoms = {"p", "q", "r", "bot"}
    sat = {a for a in atoms if enum_derivable(rs, a, 6)}
    if "bot" in sat:
        return  # inconsistent sets cannot form a Base
    b = Base(rules=rs)
    got = derivable_atoms(b)
    assert got == frozenset(sat)
    for a in sat:
        res = derive(b, goal=a)
        assert res.derivable
        assert check_derivation(res.tree, b.rules)


@settings(max_examples=40, deadline=None)
@given(rule_sets(), rules(max_level=2))
def test_derivable_atoms_monotone(rs, extra):
    if not check_consistency(rs) or not check_consistency(rs | {extra}):
        return
    assert derivable_atoms(Base(rules=rs)) <= derivable_atoms(
        Base(rules=rs | {extra})
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(rules(max_level=4), min_size=0, max_size=4))
def test_derivable_atoms_match_naive_fixpoint(rs):
    # level 4 nests discharged rules that discharge again; the rules are
    # assumed over the empty base, so sets deriving bot are checked too
    rs = frozenset(rs)
    got = derivable_atoms(Base(), assumed=rs)
    assert got == naive_derivable(rs)
    for a in got:
        res = derive(Base(), assumed=rs, goal=a)
        assert res.derivable
        assert check_derivation(res.tree, rs)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(rules(max_level=4), min_size=0, max_size=4),
    st.lists(st.sets(st.sampled_from(["p", "q", "r"])), min_size=1, max_size=3),
)
def test_base_under_assumed_axioms_matches_naive_fixpoint(rs, assumed_sets):
    # one consistent base under several assumed-axiom sets, as the
    # benchmark's saturation tiers query it
    rs = frozenset(rs)
    if not check_consistency(rs):
        return
    b = Base(rules=rs)
    for names in assumed_sets:
        extra = frozenset(axiom(a) for a in names)
        got = derivable_atoms(b, assumed=extra)
        assert got == naive_derivable(rs | extra)
        for a in got:
            res = derive(b, assumed=extra, goal=a)
            assert res.derivable
            assert check_derivation(res.tree, rs | extra)


@settings(max_examples=100, deadline=None)
@given(st.lists(rules(max_level=4), min_size=1, max_size=4))
def test_derive_trees_replay_as_atomic_derivations(rs):
    # each tree, encoded as an argument structure with its assumed rules
    # discharged, replays over the base by the argument layer's own check
    rs = frozenset(rs)
    if not check_consistency(rs):
        return
    b = Base(rules=rs)
    for a in derivable_atoms(b):
        structure = derivation_to_structure(derive(b, goal=a).tree, b)
        assert is_atomic_derivation(structure, b)


def _rule_at_level(rng, atoms, lvl, pools, dead=()):
    """A rule of exactly level lvl over the atoms; a premise discharges
    only rules from the pools, one per level below lvl - 1, so that a base
    reaches few contexts however many rules it has.  A rule concluding a
    dead atom needs a dead atom outright, so no dead atom is derivable
    unless a discharged or assumed axiom gives one."""
    if lvl == 0:
        return axiom(rng.choice(atoms))
    head = rng.choice(atoms)
    prems = [premise(rng.choice(atoms)) for _ in range(rng.randint(0, 1))]
    if head in dead:
        prems.append(premise(rng.choice(dead)))
    if lvl == 1:
        prems.append(premise(rng.choice(atoms)))
    else:
        prems.append(premise(rng.choice(atoms), [rng.choice(pools[lvl - 2])]))
        if rng.random() < 0.3:
            low = pools[rng.randrange(lvl - 1)]
            prems.append(premise(rng.choice(atoms), [rng.choice(low)]))
    return AtomicRule(premises=tuple(prems), conclusion=head)


def _frontier_supplies(seed, count=30, n_atoms=10, n_rules=64, top=4):
    """count seeded bases of n_atoms atoms and n_rules rules, one of level
    top, each under two assumed-axiom sets.  A base has one to four
    axioms and up to three dead atoms, none of them assumed."""
    rng = random.Random(seed)
    atoms = [f"f{i}" for i in range(n_atoms)]
    for _ in range(count):
        dead = atoms[n_atoms - rng.randint(0, 3):]
        live = [a for a in atoms if a not in dead]
        pools = []
        for lvl in range(top - 1):
            pools.append([_rule_at_level(rng, atoms, lvl, pools) for _ in range(2)])
        rules = {axiom(a) for a in rng.sample(live, rng.randint(1, 4))}
        rules.add(_rule_at_level(rng, atoms, top, pools, dead))
        while len(rules) < n_rules:
            rules.add(_rule_at_level(rng, atoms, rng.randint(1, top), pools, dead))
        b = Base(rules=frozenset(rules))
        free = [a for a in live if axiom(a) not in b.rules]
        for k in (1, 2):
            yield atoms, b, frozenset(axiom(a) for a in rng.sample(free, k))


def test_frontier_size_supplies_match_naive_fixpoint():
    # the hypothesis tests draw at most four rules; here derived facts are
    # passed on between contexts, and goals already met are skipped, at
    # the largest benchmark tier's size.  A small budget may raise, but
    # whatever answer comes back is the fixpoint's.
    underivable = discharged = 0
    for atoms, b, assumed in _frontier_supplies(20261019):
        supply = b.rules | assumed
        want = naive_derivable(supply)
        assert derivable_atoms(b, assumed) == want
        underivable += len(set(atoms) - want)
        for a in atoms:
            res = derive(b, assumed, a)
            assert res.derivable == (a in want)
            if res.derivable:
                assert check_derivation(res.tree, supply)
                discharged += any(p.discharged for p in res.tree.rule.premises)
            for budget in (5, 50, 500):
                try:
                    small = derive(b, assumed, a, max_steps=budget)
                except ResourceLimitExceeded:
                    continue
                assert small.derivable == (a in want)
    assert underivable and discharged


def discharge_fan(k: int) -> str:
    """a0 plus k rules ([x_i => y] => z): 2^k reachable contexts."""
    return "a0.\n" + "\n".join(f"([x{i} => y] => z)" for i in range(k))


def test_step_budget_raises_rather_than_answering_no():
    b = base(discharge_fan(6) + "\n(x3 => y)")
    for goal in ("z", "y"):
        with pytest.raises(ResourceLimitExceeded):
            derive(b, goal=goal, max_steps=10)
    assert derive(b, goal="z").derivable
    assert not derive(b, goal="y").derivable


def without_axioms(r: AtomicRule) -> AtomicRule:
    """r with every rule without premises in it, at any depth, replaced by
    (a => a) over its atom a."""
    if not r.premises:
        return AtomicRule(premises=(premise(r.conclusion),), conclusion=r.conclusion)
    return AtomicRule(
        premises=tuple(
            premise(p.conclusion, map(without_axioms, p.discharged)) for p in r.premises
        ),
        conclusion=r.conclusion,
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(rules(max_level=4).map(without_axioms), max_size=4).map(frozenset))
def test_a_supply_without_axioms_derives_nothing_and_opens_one_context(rs):
    assert derivable_atoms(Base(rs)) == frozenset() == naive_derivable(rs)
    sat = _saturate.__wrapped__(rs, frozenset(), atomic_system.DEFAULT_MAX_STEPS)
    _, just, masks, _, queue = sat._tables
    assert len(masks) == 1 and not just and not queue


def test_a_supply_with_no_reachable_axiom_answers_no_within_any_budget():
    # 16 discharges of compound rules and no axiom anywhere: a NO that
    # counts no step, where saturating opened 17 contexts, past 10 steps
    fan = "\n".join(f"([(x{i} => w) => y] => z)" for i in range(16))
    assert not derive(base(fan), goal="z", max_steps=10).derivable
    # a discharged axiom is reachable, so the whole saturation runs
    with pytest.raises(ResourceLimitExceeded):
        derive(base(fan + "\n([x0 => y] => z)"), goal="z", max_steps=10)
    # a rule concludes bot, so the supply is saturated, and answers at once
    supply = frozenset({rule("(p => bot)")})
    assert check_consistency(supply)
    assert _saturate.__wrapped__(supply, frozenset(), 0).atoms == frozenset()


def test_consistency_needs_no_saturation_without_a_bot_rule():
    # no rule concludes bot, so building the base saturates nothing; and
    # deriving z opens only the 16 contexts its goals ask for, not all 2^16
    b = base(discharge_fan(16))
    assert len(b.rules) == 17
    assert not derive(b, goal="z", max_steps=1_000).derivable
    with pytest.raises(ResourceLimitExceeded):
        derive(b, goal="z", max_steps=10)
    # bot concluded only by a discharged rule: still consistent
    assert check_consistency(base("([(p => bot) => bot] => q)\np.").rules)


def test_fan_with_a_bot_rule_builds_at_once():
    # building the base asks for bot, hence for z: the 16 contexts z's
    # premises open, where the whole closure has 2^16
    start = time.perf_counter()
    b = base(discharge_fan(16) + "\n(z => bot)")
    assert time.perf_counter() - start < 1.0
    assert derivable_atoms(b) == {"a0"}


def test_fan_of_twenty_answers_within_the_default_budget():
    assert not derive(base(discharge_fan(20)), goal="z").derivable
    b = base(discharge_fan(20) + "\n(x7 => y)")
    res = derive(b, goal="z")
    assert res.derivable and check_derivation(res.tree, b.rules)


# discharges open several contexts, and justifications tie: two for r in
# the supply's context, two for s under the discharge of a, two for t
TIED_SUPPLY = """p.
q.
(p => r)
(q => r)
(r => s)
(a => s)
(b => s)
([a => s] => t)
([b => s] => t)
([(p => u) => u] => v)
"""

# assumed on top of TIED_SUPPLY: an axiom that opens a second way to s, and
# a rule for bot that never applies, so a consistency check saturates
TIED_ASSUMED = ("a.", "(w => bot)")

# the trees of TIED_SUPPLY, of TIED_SUPPLY under TIED_ASSUMED, and of the
# base of both; with the argument atoms-first, every saturation is asked for
# its atoms alone (derivable_atoms, and check_consistency while the base of
# both is built) before any tree is
PRINT_TREES = f"""
import sys
from prooflab.atomic_system import (
    Base, derivable_atoms, derive, format_rule, parse_base_text, parse_rule
)

def show(node, depth):
    print("  " * depth + node.conclusion + " by " + format_rule(node.rule))
    for child in node.children:
        show(child, depth + 1)

def trees(base, assumed=()):
    for a in "a b p q r s t u v w bot".split():
        res = derive(base, assumed, a)
        if res.derivable:
            show(res.tree, 0)

b = parse_base_text({TIED_SUPPLY!r})
assumed = frozenset(parse_rule(r) for r in {TIED_ASSUMED!r})
if sys.argv[1:] == ["atoms-first"]:
    derivable_atoms(b)
    derivable_atoms(b, assumed)
    both = Base(b.rules | assumed)
    trees(b)
    trees(b, assumed)
else:
    trees(b)
    trees(b, assumed)
    both = Base(b.rules | assumed)
trees(both)
"""


def test_one_supply_saturates_once():
    # derivable_atoms and derive ask for one saturation of one supply; atoms
    # no other test uses, so the supply is not cached already
    b = base("sat_once_a.\n(sat_once_a => sat_once_b)")
    before = _saturate.cache_info()
    assert derivable_atoms(b) == {"sat_once_a", "sat_once_b"}
    assert derive(b, (), "sat_once_b").derivable
    after = _saturate.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 1


def test_trees_independent_of_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = set()
    for seed in range(4):
        for order in ("trees-first", "atoms-first"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
            proc = subprocess.run(
                [sys.executable, "-c", PRINT_TREES, order],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
    assert len(outs) == 1
    roots = [line.split()[0] for line in outs.pop().splitlines() if line[0] != " "]
    assert roots == ["p", "q", "r", "s", "t", "v"] + ["a", "p", "q", "r", "s", "t", "v"] * 2


def tree_lines(node, depth=0):
    yield "  " * depth + node.conclusion + " by " + format_rule(node.rule)
    for child in node.children:
        yield from tree_lines(child, depth + 1)


def test_tied_supply_trees_are_pinned():
    # a base's own trees follow its rule numbering: the first way a fact is
    # recorded wins.  r's goal stops at (p => r), whose premise is already
    # recorded, and s's at (r => s).  t's premise s under the discharge of
    # a is passed on from the supply's context, which records s before the
    # context {a} is opened, so t reuses the supply's own s rather than
    # (a => s).  Asking the saturations for atoms alone first, the base's and the ones
    # with an assumed set, changes no tree.
    b = base(TIED_SUPPLY)
    assumed = frozenset(map(rule, TIED_ASSUMED))
    for atoms_first in (False, True):
        _saturate.cache_clear()
        if atoms_first:
            assert derivable_atoms(b) == {"p", "q", "r", "s", "t", "v"}
            assert derivable_atoms(b, assumed) == {"a", "p", "q", "r", "s", "t", "v"}
            assert check_consistency(b.rules | assumed)
        got = [line for a in "pqrstv" for line in tree_lines(derive(b, goal=a).tree)]
        assert got == [
            "p by p",
            "q by q",
            "r by (p => r)",
            "  p by p",
            "s by (r => s)",
            "  r by (p => r)",
            "    p by p",
            "t by ([a => s] => t)",
            "  s by (r => s)",
            "    r by (p => r)",
            "      p by p",
            "v by ([(p => u) => u] => v)",
            "  u by (p => u)",
            "    p by p",
        ]


def test_tie_under_an_assumed_axiom_the_base_numbers_is_pinned():
    # u is an atom the base mentions without an axiom, so its assumed axiom
    # is a bit of the base's numbering.  Under the discharge of (p => u)
    # both that rule and the axiom conclude u, and the axiom wins: the
    # supply's context records u by its axiom before that context is
    # opened, and v's premise reuses it.  t reuses the supply's s, as in
    # the test above; atoms first changes no tree.
    b = base(TIED_SUPPLY)
    assumed = {axiom("u")}
    for atoms_first in (False, True):
        _saturate.cache_clear()
        if atoms_first:
            assert derivable_atoms(b, assumed) == {"p", "q", "r", "s", "t", "u", "v"}
        got = [
            line for a in "pqrstuv" for line in tree_lines(derive(b, assumed, a).tree)
        ]
        assert got == [
            "p by p",
            "q by q",
            "r by (p => r)",
            "  p by p",
            "s by (r => s)",
            "  r by (p => r)",
            "    p by p",
            "t by ([a => s] => t)",
            "  s by (r => s)",
            "    r by (p => r)",
            "      p by p",
            "u by u",
            "v by ([(p => u) => u] => v)",
            "  u by u",
        ]


def test_a_fact_passed_on_shares_the_smaller_contexts_tree():
    # t's premise asks for s under the discharge of a; the supply's context
    # has recorded s already, so the context {a} starts with it and t's
    # tree holds the supply's own tree of s, the same object
    b = base(TIED_SUPPLY)
    assert derive(b, goal="t").tree.children[0] is derive(b, goal="s").tree
    # goals are taken in atom-number order: pe_g's goal opens the context
    # {pe_a} before pe_q's axiom is met, so the supply's context records
    # pe_x only later and passes it along the ask edge to {pe_a}
    b = base("pe_q.\n(pe_q => pe_x)\n([pe_a => pe_x] => pe_g)")
    assert derive(b, goal="pe_g").tree.children[0] is derive(b, goal="pe_x").tree


def test_repeated_derive_returns_the_same_tree():
    # atoms no other test uses, so the supply is not cached already
    b = base("rep_a.\n(rep_a => rep_b)\n(rep_b => rep_c)")
    c = derive(b, goal="rep_c").tree
    assert derive(b, goal="rep_c").tree is c
    assert derive(b, goal="rep_b").tree is c.children[0]
    assert derive(b, goal="rep_a").tree is c.children[0].children[0]


def test_tied_supply_trees_share_subtrees():
    b = base(TIED_SUPPLY)
    r, s = derive(b, goal="r").tree, derive(b, goal="s").tree
    assert s.children[0] is r
    assert r.children[0] is derive(b, goal="p").tree


def pruned_trees(sat):
    """The trees of a saturation's supply context as the two-pass builder
    made them, read off the tables tree() has not dropped yet: walk from
    the supply's context's facts through their justifications to every
    fact their trees use (the kept facts), then build those facts' nodes
    in recorded order."""
    numbering, just, masks, ids, queue = sat._tables
    order, shapes = numbering.order, numbering.shapes
    names = list(numbering.atoms)
    n = len(names)
    # the kept facts, each recorded by a rule, with that rule and its
    # premise facts in the rule's premise order; a premise fact passed on
    # is replaced by the fact it was passed on from
    kept = {}
    todo = [f for f in range(n) if f in just]
    while todo:
        f = todo.pop()
        if f in kept:
            continue
        m = masks[f // n]
        i = just[f]
        premises = []
        for b, dmask in shapes[i]:
            g = ids[m | dmask] * n + b
            j = just[g]
            premises.append(~j if j < 0 else g)
        kept[f] = (order[i], tuple(premises))
        todo.extend(premises)
    nodes, trees = {}, {}
    for f in queue:
        entry = kept.get(f)
        if entry is not None:
            rule, premises = entry
            node = nodes[f] = DerivationNode(
                names[f % n], rule, tuple(nodes[g] for g in premises)
            )
            if f < n:
                trees[names[f]] = node
    return trees


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(rule_sets(), st.lists(rules(max_level=4), max_size=4).map(frozenset)),
    st.sets(st.sampled_from(["p", "q", "r", "s"])),
)
def test_one_pass_trees_match_the_pruning_pass(rs, assumed):
    # a fresh saturation, past the cache; an assumed axiom over s, which no
    # drawn rule mentions, numbers the union of base and assumed rules
    extra = frozenset(map(axiom, assumed)) - rs
    sat = _saturate.__wrapped__(rs, extra, atomic_system.DEFAULT_MAX_STEPS)
    want = pruned_trees(sat)
    got = {a: sat.tree(a) for a in sorted(sat.atoms)}
    assert got.keys() == want.keys()
    # a walk of both at once, each reference node once: equal by value, and
    # a subtree the reference shares is the same object here too
    paired = {}
    todo = [(want[a], got[a]) for a in sorted(want)]
    while todo:
        ref, node = todo.pop()
        if id(ref) in paired:
            assert paired[id(ref)] is node
            continue
        paired[id(ref)] = node
        assert (node.conclusion, node.rule) == (ref.conclusion, ref.rule)
        assert len(node.children) == len(ref.children)
        todo += zip(ref.children, node.children)


def test_atoms_alone_build_no_tree(monkeypatch):
    built = []

    def node(*args):
        built.append(args[0])
        return DerivationNode(*args)

    monkeypatch.setattr(atomic_system, "DerivationNode", node)
    # atoms no other test uses; building the base saturates it, since one
    # rule concludes bot
    b = base("nb_a.\n(nb_a => nb_b)\n(nb_c => bot)")
    assumed = {axiom("nb_d"), rule("([nb_b => nb_c] => nb_e)")}
    assert check_consistency(b.rules)
    assert derivable_atoms(b) == {"nb_a", "nb_b"}
    assert derivable_atoms(b, assumed) == {"nb_a", "nb_b", "nb_d"}
    assert check_consistency(b.rules | assumed)
    # a NO reads the atom set alone too
    assert not derive(b, assumed, "nb_e").derivable
    assert built == []
    # the first tree builds the nodes of the supply's context's facts, once
    assert derive(b, goal="nb_a").derivable
    assert built == ["nb_a", "nb_b"]
    assert derive(b, goal="nb_b").tree.children[0] is derive(b, goal="nb_a").tree
    assert built == ["nb_a", "nb_b"]
    # the saturation under the assumed set, asked for atoms alone until
    # now, builds trees that replay
    for a in ("nb_a", "nb_b", "nb_d"):
        assert check_derivation(derive(b, assumed, a).tree, b.rules | assumed)
    # in recorded order: the facts each goal completes are passed on before
    # the next goal is taken, so nb_b, completed by nb_a's axiom, comes
    # before the axiom of nb_d, whose goal is taken later
    assert built == ["nb_a", "nb_b", "nb_a", "nb_b", "nb_d"]


def nested_rules(rs):
    """Every rule nested in a discharged set of the given rules, at any depth."""
    out, todo = set(), [s for r in rs for p in r.premises for s in p.discharged]
    while todo:
        r = todo.pop()
        if r not in out:
            out.add(r)
            todo.extend(s for p in r.premises for s in p.discharged)
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(rules(max_level=4), min_size=1, max_size=4), st.data())
def test_base_under_assumed_rules_matches_naive_fixpoint(rs, data):
    # assumed rules the base's numbering holds, the base's own and those
    # nested in its discharged sets, are bits of a context; with a new
    # compound rule the supply is numbered as one set
    rs = frozenset(rs)
    if not check_consistency(rs):
        return
    b = Base(rules=rs)
    known = sorted(rs | nested_rules(rs), key=lambda r: r._key)
    for _ in range(data.draw(st.integers(1, 3))):
        assumed = frozenset(
            data.draw(st.lists(rules(max_level=3), max_size=2))
            + data.draw(st.lists(st.sampled_from(known), max_size=2))
        )
        got = derivable_atoms(b, assumed)
        assert got == naive_derivable(rs | assumed)
        for a in got:
            res = derive(b, assumed, a)
            assert res.derivable
            assert check_derivation(res.tree, rs | assumed)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(rules(max_level=3), min_size=1, max_size=4),
    st.lists(rules(max_level=3), min_size=1, max_size=2),
)
@example(
    [rule("p"), rule("(p => q)"), rule("(r => p)"), rule("([p => q] => r)")],
    [rule("(q, q => r)")],
)
def test_other_assumed_rules_derive_as_the_base_of_both(rs, assumed):
    # a supply holding a rule the base's numbering lacks is numbered as the
    # rule set of both, so its trees, ties included, are that base's.  In
    # the example both (q, q => r) and ([p => q] => r) derive r, and the
    # first in key order over the whole supply wins.
    rs, assumed = frozenset(rs), frozenset(assumed)
    both = rs | assumed
    if assumed <= _numbering(rs).index.keys():
        return
    if not check_consistency(rs) or not check_consistency(both):
        return
    b = Base(rules=rs)
    for a in derivable_atoms(b, assumed):
        tree = derive(b, assumed, a).tree
        assert tree == derive(Base(rules=both), (), a).tree
        assert check_derivation(tree, both)


def test_one_base_is_numbered_once_under_several_assumed_sets():
    # atoms no other test uses, so the base is not numbered already; the
    # second set assumes a rule nested in the base, and the third a new one,
    # whose supply is numbered as one set with the base's rules
    b = base("n1_a.\n(n1_a, n1_b => n1_c)\n([n1_d => n1_c] => n1_e)")
    before = _numbering.cache_info()
    assert derivable_atoms(b) == {"n1_a"}
    assert derivable_atoms(b, {axiom("n1_b")}) == {"n1_a", "n1_b", "n1_c", "n1_e"}
    assert derivable_atoms(b, {axiom("n1_d")}) == {"n1_a", "n1_d"}
    assert derivable_atoms(b, {axiom("n1_b"), rule("(n1_c => n1_f)")}) == {
        "n1_a", "n1_b", "n1_c", "n1_e", "n1_f"
    }
    after = _numbering.cache_info()
    assert after.misses - before.misses == 2


def test_assumed_axioms_the_base_numbers_extend_nothing():
    # atoms no other test uses, so every supply here saturates afresh;
    # the base mentions ax_b and ax_c and nests the axiom ax_d
    b = base("ax_a.\n(ax_a, ax_b => ax_c)\n([ax_d => ax_c] => ax_e)")
    assert derivable_atoms(b) == {"ax_a"}
    before = _saturate.cache_info(), _numbering.cache_info()
    assert derivable_atoms(b, {axiom("ax_b")}) == {"ax_a", "ax_b", "ax_c", "ax_e"}
    assert derivable_atoms(b, {axiom("ax_c"), axiom("ax_e")}) == {
        "ax_a", "ax_c", "ax_e"
    }
    assert derivable_atoms(b, {axiom("ax_d")}) == {"ax_a", "ax_d"}
    res = derive(b, {axiom("ax_c")}, "ax_e")
    assert check_derivation(res.tree, b.rules | {axiom("ax_c")})
    assert _saturate.cache_info().misses - before[0].misses == 4
    assert _numbering.cache_info().misses == before[1].misses


def test_other_assumed_rules_number_the_union_once():
    # atoms no other test uses: ex_new is one the base never mentions
    b = base("ex_a.\n(ex_a, ex_b => ex_c)")
    assert derivable_atoms(b) == {"ex_a"}
    compound = rule("(ex_a => ex_b)")
    for assumed, atoms in (
        ({axiom("ex_new")}, {"ex_a", "ex_new"}),
        ({compound}, {"ex_a", "ex_b", "ex_c"}),
    ):
        before = _numbering.cache_info()
        assert derivable_atoms(b, assumed) == atoms
        for a in atoms:
            assert check_derivation(derive(b, assumed, a).tree, b.rules | assumed)
        # the base's numbering is looked up once and the union numbered
        # once; the later calls answer from the saturation
        after = _numbering.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        # and the numbering made was the union's
        _numbering(b.rules | assumed)
        assert _numbering.cache_info().misses == after.misses


def test_an_assumed_bot_axiom_derives_bot():
    # the first base never mentions bot, so its supply is numbered as one
    # set with bot's axiom; the second base numbers that axiom itself
    for text, numbered in (("bt_a.", 1), ("bt_a.\n(bt_b => bot)", 0)):
        b = base(text)
        assert derivable_atoms(b) == {"bt_a"}
        before = _numbering.cache_info().misses
        assert derivable_atoms(b, {axiom("bot")}) == {"bt_a", "bot"}
        res = derive(b, {axiom("bot")}, "bot")
        assert res.tree == DerivationNode("bot", axiom("bot"), ())
        assert _numbering.cache_info().misses - before == numbered


def test_one_rule_per_axiom_name():
    assert axiom("p") is axiom("p")
    assert parse_rule("p.") is axiom("p")
    again = pickle.loads(pickle.dumps(axiom("p")))
    assert again == axiom("p") and hash(again) == hash(axiom("p"))


# ---------------------------------------------------------------------------
# star translation


def test_star_examples():
    assert star_translate(rule("p")) == parse_formula("p")
    assert star_translate(rule("(p => q)")) == parse_formula("p -> q")
    assert star_translate(rule("([p => q] => r)")) == parse_formula("(p -> q) -> r")
    assert star_translate(rule("([(p => q) => q] => r)")) == parse_formula(
        "((p -> q) -> q) -> r"
    )
    assert star_translate(rule("(p, q => r)")) == parse_formula("p & q -> r")
    assert star_translate(rule("(p => bot)")) == parse_formula("~p")


@given(rules())
def test_star_is_disjunction_free(r):
    assert "|" not in str(star_translate(r))


# ---------------------------------------------------------------------------
# concrete syntax


def test_parse_format_round_trip():
    texts = [
        "p",
        "(p => q)",
        "(p, q => r)",
        "([p => q] => r)",
        "([p, q => r] => s)",
        "([(p => q) => q] => r)",
        "(p, [q => r] => bot)",
    ]
    for t in texts:
        r = rule(t)
        assert parse_rule(format_rule(r)) == r


@given(rules())
def test_rule_round_trip_property(r):
    assert parse_rule(format_rule(r)) == r


def test_base_file_round_trip():
    text = "p.\n# a comment\n(p => q)\n\n([p => q] => r)\n"
    b = parse_base_text(text)
    assert len(b.rules) == 3
    assert parse_base_text(format_base(b)) == b


def test_axiom_lines_take_a_dot():
    assert parse_rule("p.") == axiom("p")
    assert "p." in format_base(base("p."))


def test_rule_syntax_errors():
    for t in ["", "(p =>)", "(=> q)", "[p => q]", "(p => q", "(p q => r)", "p q"]:
        with pytest.raises(RuleSyntaxError):
            parse_rule(t)


def test_base_file_syntax_error_names_its_line_once():
    text = "p.\n  (p => q  # a comment\n"
    with pytest.raises(RuleSyntaxError) as info:
        parse_base_text(text)
    raw = text.splitlines()[1]
    assert str(info.value) == f"line 2: expected ')' at position 9: {raw!r}"
    assert info.value.message == "line 2: expected ')'"
    assert info.value.text == raw
    # the position indexes the line as written, comment and indent included
    assert info.value.pos == 9 and raw[:9] == "  (p => q"


def test_rule_and_formula_errors_are_distinct_classes():
    assert not issubclass(RuleSyntaxError, FormulaSyntaxError)
    assert not issubclass(FormulaSyntaxError, RuleSyntaxError)
    with pytest.raises(RuleSyntaxError) as info:
        parse_rule("(p => q")
    assert str(info.value) == "expected ')' at position 7: '(p => q'"
    assert (info.value.message, info.value.pos) == ("expected ')'", 7)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_rule, "(p => q"),
        (parse_rule, "([" * (MAX_NESTING + 1) + "p"),
        (parse_rule, []),
        (parse_base_text, "p.\n  (p => q  # a comment\n"),
        (parse_base_text, "p.\n(p q => r)\n"),
    ],
    ids=["unclosed", "too-deep", "empty-list", "base-line-2", "base-missing-comma"],
)
def test_a_rule_error_is_raised_on_every_call(parse, text):
    # the rule memo keeps no error; a value that is not a string fails as it
    # would unmemoized, not as unhashable
    errors = []
    for _ in range(2):
        with pytest.raises(RuleSyntaxError) as info:
            parse(text)
        errors.append((str(info.value), info.value.message, info.value.pos))
    assert errors[0] == errors[1]


def test_equal_rule_texts_parse_to_one_rule():
    text = "([p => q], r => s)"
    # an equal string that is a different object
    assert parse_rule(text) is parse_rule("".join(list(text)))
    first, second = (parse_base_text(f"p.\n{text}\n") for _ in range(2))
    assert first == second
    assert all(any(a is b for b in second.rules) for a in first.rules)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Premise(frozenset(), "1p"), "premise conclusion is not an atom: '1p'"),
        (lambda: AtomicRule((), "1p"), "rule conclusion is not an atom: '1p'"),
    ],
)
def test_a_premise_and_a_rule_conclude_an_atom(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_atoms_and_subrules():
    r = rule("([p => q] => bot)")
    assert atoms_of_rule(r) == {"p", "q"}
    b = base("(p => q)\n(q => bot)")
    assert atoms_of_base(b) == {"p", "q"}
