"""Tests for argument structures, discharge validation, and the
derivation encoding."""

import contextlib
import gc
import json
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prooflab.arguments import (
    AssumptionDischarge,
    AxiomDischarge,
    Node,
    RuleDischarge,
    StructureError,
    and_elim,
    and_intro,
    assumption,
    assumptions,
    axiom_leaf,
    bind,
    conclusion,
    derivation_to_structure,
    impl_elim,
    impl_intro,
    instantiate,
    is_atomic_derivation,
    is_canonical,
    is_closed,
    leaf,
    match_and_intro,
    match_impl_intro,
    match_or_intro,
    or_elim,
    or_intro_left,
    or_intro_right,
    or_project,
    pretty,
    structure_from_obj,
    structure_to_obj,
    sub_structures,
    weaken,
    _atom_name,
    _atomic_formula,
    _walk,
    _with_children,
)
from prooflab.atomic_system import (
    AtomicRule,
    Base,
    DerivationNode,
    atoms_of_rule,
    axiom,
    derivable_atoms,
    derive,
    parse_base_text,
    parse_rule,
    premise,
)
from prooflab.syntax import Atom, BOT, Conj, Disj, Impl, parse_formula

p, q, r, s = Atom("p"), Atom("q"), Atom("r"), Atom("s")


def iter_nodes(struct):
    """Every node of a structure with its path, in preorder."""
    return _walk(struct, ())


def assumption_paths(struct):
    """Undischarged non-axiomatic leaves, in preorder."""
    return {
        path: node.formula
        for path, node in iter_nodes(struct)
        if not (node.children or node.axiomatic or 0 < node.bound <= len(path))
    }


# ---------------------------------------------------------------------------
# construction and accessors


def test_assumption_is_open():
    d = assumption(p)
    assert conclusion(d) == p
    assert assumptions(d) == {p}
    assert not is_closed(d)


def test_axiom_leaf_is_closed():
    d = axiom_leaf(p)
    assert conclusion(d) == p
    assert assumptions(d) == frozenset()
    assert is_closed(d)


def test_and_intro_shape():
    d = and_intro(assumption(p), assumption(q))
    assert conclusion(d) == Conj(p, q)
    assert assumptions(d) == {p, q}
    assert match_and_intro(d)
    assert is_canonical(d)
    assert not match_impl_intro(d)


def test_impl_intro_discharges_matching_leaves():
    d = impl_intro(and_intro(assumption(p), assumption(p)), p)
    assert conclusion(d) == Impl(p, Conj(p, p))
    assert is_closed(d)
    assert [target for _, target in d.discharge] == [(), ()]
    assert match_impl_intro(d)
    assert is_canonical(d)


def test_impl_intro_vacuous_discharge():
    d = impl_intro(assumption(q), p)
    assert conclusion(d) == Impl(p, q)
    assert assumptions(d) == {q}
    assert d.discharge == ()
    assert match_impl_intro(d)


def test_impl_intro_leaves_other_assumptions_open():
    d = impl_intro(impl_elim(assumption(Impl(p, q)), assumption(p)), p)
    assert assumptions(d) == {Impl(p, q)}
    assert is_closed(impl_intro(d, Impl(p, q)))


def test_or_elim_discharges_each_case_s_own_disjunct():
    both = and_intro(assumption(p), assumption(q))
    d = or_elim(assumption(Disj(p, q)), both, both)
    # p discharged in the left case, q in the right, the rest left open
    assert d == bind(
        Node(Conj(p, q), (assumption(Disj(p, q)), both, both)),
        (
            (AssumptionDischarge(leaf=(1, 0)), ()),
            (AssumptionDischarge(leaf=(2, 1)), ()),
        ),
    )
    assert assumptions(d) == {Disj(p, q), p, q}


def test_or_elim_discharges_cases():
    cases = or_elim(
        assumption(Disj(p, q)),
        or_intro_left(assumption(p), q),
        or_intro_right(assumption(q), p),
    )
    assert conclusion(cases) == Disj(p, q)
    assert assumptions(cases) == {Disj(p, q)}
    assert not is_canonical(cases)


def test_elim_shapes():
    # which detour each elimination forms is pinned in test_reductions
    d1 = and_elim(assumption(Conj(p, q)), 1)
    assert conclusion(d1) == p
    d2 = and_elim(assumption(Conj(p, q)), 2)
    assert conclusion(d2) == q
    mp = impl_elim(assumption(Impl(p, q)), assumption(p))
    assert conclusion(mp) == q
    assert assumptions(mp) == {Impl(p, q), p}
    assert not is_canonical(mp)


def test_weaken_shape():
    d = weaken(assumption(Impl(p, q)), r)
    assert conclusion(d) == Impl(Conj(p, r), q)
    assert d.discharge == ()
    assert not match_impl_intro(d)


def test_or_project_shape():
    d = or_project(assumption(Disj(p, q)))
    assert conclusion(d) == p
    assert d.discharge == ()
    assert not is_canonical(d)


def test_builder_argument_checks():
    with pytest.raises(StructureError):
        and_elim(assumption(p), 1)
    with pytest.raises(StructureError):
        impl_elim(assumption(Impl(p, q)), assumption(q))
    with pytest.raises(StructureError):
        or_elim(assumption(p), assumption(r), assumption(r))
    with pytest.raises(StructureError):
        or_elim(assumption(Disj(p, q)), assumption(r), assumption(s))
    with pytest.raises(StructureError):
        weaken(assumption(p), q)
    with pytest.raises(StructureError):
        or_project(assumption(p))


# ---------------------------------------------------------------------------
# discharge validation


def test_discharge_target_must_be_strictly_below():
    with pytest.raises(StructureError):
        bind(leaf(p), ((AssumptionDischarge(leaf=()), ()),))


def test_discharge_paths_must_exist():
    with pytest.raises(StructureError):
        bind(
            Node(formula=q, children=(leaf(p),)),
            ((AssumptionDischarge(leaf=(3,)), ()),),
        )


def test_assumption_discharge_rejects_axiomatic_leaf():
    with pytest.raises(StructureError):
        bind(
            Node(formula=q, children=(leaf(p, axiomatic=True),)),
            ((AssumptionDischarge(leaf=(0,)), ()),),
        )


def test_axiom_discharge_rejects_compound_label():
    with pytest.raises(StructureError):
        bind(
            Node(formula=q, children=(leaf(Conj(p, q), axiomatic=True),)),
            ((AxiomDischarge(leaf=(0,)), ()),),
        )


def test_duplicate_discharge_rejected():
    with pytest.raises(StructureError):
        bind(
            Node(formula=Impl(p, p), children=(leaf(p),)),
            (
                (AssumptionDischarge(leaf=(0,)), ()),
                (AssumptionDischarge(leaf=(0,)), ()),
            ),
        )


def test_rule_discharge_shape_checks():
    rule = parse_rule("(p => q)")
    good = bind(
        Node(
            formula=r,
            children=(
                Node(formula=q, children=(leaf(p, axiomatic=True),)),
            ),
        ),
        ((RuleDischarge(node=(0,), rule=rule), ()),),
    )
    assert good.node_at((0,)).formula == q
    with pytest.raises(StructureError):
        bind(
            Node(formula=r, children=(Node(formula=s, children=(leaf(p),)),)),
            ((RuleDischarge(node=(0,), rule=rule), ()),),
        )
    with pytest.raises(StructureError):
        bind(
            Node(formula=r, children=(leaf(q),)),
            ((RuleDischarge(node=(0,), rule=rule), ()),),
        )


def _over(child: Node) -> Node:
    return Node(formula=r, children=(child,))


PQ_STEP = and_intro(axiom_leaf(p), axiom_leaf(q))

# discharge entries structure_from_obj must refuse: (root, entry, message)
BAD_DISCHARGES = {
    "target-not-a-node": (
        _over(leaf(p)),
        {"kind": "assume", "path": [0], "target": [5]},
        "discharge target (5,) is not a node",
    ),
    "axiom-at-an-assumption-leaf": (
        _over(leaf(p)),
        {"kind": "axiom", "path": [0], "target": []},
        "axiom discharge at (0,) needs an axiomatic leaf",
    ),
    "axiom-with-a-compound-label": (
        _over(leaf(Conj(p, q), axiomatic=True)),
        {"kind": "axiom", "path": [0], "target": []},
        "axiom discharge at (0,) needs an atomic label",
    ),
    "rule-at-a-compound-node": (
        _over(PQ_STEP),
        {"kind": "rule", "path": [0], "target": [], "rule": "(p, q => r)"},
        "rule discharge at (0,) needs an atomic node",
    ),
    "rule-over-compound-children": (
        _over(Node(formula=q, children=(PQ_STEP,))),
        {"kind": "rule", "path": [0], "target": [], "rule": "(p => q)"},
        "rule discharge at (0,) needs atomic children",
    ),
    "rule-premises-not-the-children": (
        _over(Node(formula=q, children=(leaf(p, axiomatic=True),))),
        {"kind": "rule", "path": [0], "target": [], "rule": "(s => q)"},
        "rule discharge at (0,): premises ['s'] vs children ['p']",
    ),
    "unknown-kind": (
        _over(leaf(p)),
        {"kind": "magic", "path": [0], "target": []},
        "unknown discharge kind: 'magic'",
    ),
}


def bad_discharge_obj(root: Node, entry: dict) -> dict:
    return {"root": structure_to_obj(root)["root"], "discharge": [entry]}


@pytest.mark.parametrize(
    "root, entry, message", BAD_DISCHARGES.values(), ids=list(BAD_DISCHARGES)
)
def test_structure_from_obj_refuses_bad_discharges(root, entry, message):
    with pytest.raises(StructureError) as info:
        structure_from_obj(bad_discharge_obj(root, entry))
    assert str(info.value) == message


def test_bind_keeps_the_discharges_the_tree_carries():
    d = impl_intro(and_intro(assumption(p), assumption(q)), p)
    out = bind(d, ((AssumptionDischarge(leaf=(0, 1)), ()),))
    assert out.discharge == (
        (AssumptionDischarge(leaf=(0, 0)), ()),
        (AssumptionDischarge(leaf=(0, 1)), ()),
    )
    assert is_closed(out)


def test_assumption_may_not_land_on_rule_discharge_anchor():
    # an assumption leaf discharged at the parent node of a discharged edge
    # set is ruled out, and likewise at that edge set's target
    rule = parse_rule("(p => q)")
    with pytest.raises(StructureError):
        bind(
            Node(
                formula=r,
                children=(
                    Node(formula=q, children=(leaf(p, axiomatic=True),)),
                    leaf(r),
                ),
            ),
            (
                (RuleDischarge(node=(0,), rule=rule), ()),
                (AssumptionDischarge(leaf=(1,)), ()),
            ),
        )


def test_axiom_on_rule_discharge_anchor_is_flagged_not_rejected():
    rule = parse_rule("(p => q)")
    d = bind(
        Node(
            formula=r,
            children=(
                Node(formula=q, children=(leaf(p, axiomatic=True),)),
                leaf(s, axiomatic=True),
            ),
        ),
        (
            (RuleDischarge(node=(0,), rule=rule), ()),
            (AxiomDischarge(leaf=(1,)), ()),
        ),
    )
    # the defining clause leaves this reading open, so bind accepts it
    assert d.discharge == (
        (RuleDischarge(node=(0,), rule=rule), ()),
        (AxiomDischarge(leaf=(1,)), ()),
    )


# ---------------------------------------------------------------------------
# sub-structures, inferences, instances


def small_formulas():
    return st.sampled_from(
        [p, q, r, Conj(p, q), Disj(p, q), Impl(p, q), BOT]
    )


def structures():
    base = st.sampled_from([p, q, r, Impl(p, q)]).map(assumption)

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: and_intro(*t)),
            st.tuples(children, small_formulas()).map(
                lambda t: or_intro_left(t[0], t[1])
            ),
            st.tuples(children, small_formulas()).map(
                lambda t: impl_intro(t[0], t[1])
            ),
        )

    return st.recursive(base, extend, max_leaves=6)


@settings(max_examples=120)
@given(structures())
def test_sub_structures_reopen_discharged_leaves(d):
    for i, sub in enumerate(sub_structures(d)):
        assert sub == d.children[i]
        reopened = {
            item.leaf[1:]
            for item, target in d.discharge
            if target == () and item.leaf[:1] == (i,)
        }
        assert reopened <= set(assumption_paths(sub))


@settings(max_examples=100)
@given(structures(), small_formulas())
def test_impl_intro_discharges_exactly_the_open_antecedent_leaves(d, a):
    leaves = [at for at, f in assumption_paths(d).items() if f == a]
    d_a = impl_intro(d, a)
    assert d_a == bind(
        Node(Impl(a, conclusion(d)), (d,)),
        tuple((AssumptionDischarge(leaf=(0,) + at), ()) for at in leaves),
    )
    # the sub-structure's discharged leaves come out open again, and the
    # same inference discharges them anew
    assert impl_intro(sub_structures(d_a)[0], a) == d_a


@settings(max_examples=100)
@given(structures())
def test_instantiate_identity(d):
    sigma = {f: assumption(f) for f in assumptions(d)}
    assert instantiate(d, sigma) == d


@settings(max_examples=100)
@given(structures())
def test_instantiate_rewrites_assumptions(d):
    c0 = Atom("c0")
    sigma = {f: and_elim(assumption(Conj(f, c0)), 1) for f in assumptions(d)}
    inst = instantiate(d, sigma)
    assert conclusion(inst) == conclusion(d)
    assert assumptions(inst) == {Conj(f, c0) for f in assumptions(d)}


def test_instantiate_requires_total_map():
    d = and_intro(assumption(p), assumption(q))
    with pytest.raises(StructureError):
        instantiate(d, {p: assumption(p)})
    with pytest.raises(StructureError):
        instantiate(d, {p: assumption(p), q: assumption(r)})


def test_instantiate_keeps_axiomatic_leaves():
    d = and_intro(axiom_leaf(p), assumption(p))
    inst = instantiate(d, {p: axiom_leaf(p)})
    assert inst.node_at((0,)).axiomatic
    assert inst.node_at((1,)).axiomatic


# ---------------------------------------------------------------------------
# atomic derivations


def test_derivation_roundtrip_simple_chain():
    base = parse_base_text("p.\n(p => q)\n(q => r)\n")
    res = derive(base, frozenset(), "r")
    d = derivation_to_structure(res.tree, base)
    assert conclusion(d) == r
    assert is_closed(d)
    assert d.discharge == ()
    assert is_atomic_derivation(d, base)


def test_derivation_with_assumed_axiom_discharge():
    # ([p => p] => s): concluding s after establishing p from the assumed
    # axiom p; the p-leaf is discharged at the application node
    base = parse_base_text("([p => p] => s)\n")
    res = derive(base, frozenset(), "s")
    assert res.derivable
    d = derivation_to_structure(res.tree, base)
    assert conclusion(d) == s
    assert len(d.discharge) == 1
    item, target = d.discharge[0]
    assert isinstance(item, AxiomDischarge)
    assert target == ()
    assert is_atomic_derivation(d, base)


def test_derivation_with_assumed_rule_discharge():
    base = parse_base_text("([(p => q) => t] => u)\np.\n(q => t)\n")
    res = derive(base, frozenset(), "u")
    assert res.derivable
    d = derivation_to_structure(res.tree, base)
    assert is_closed(d)
    kinds = [type(item).__name__ for item, _ in d.discharge]
    assert "RuleDischarge" in kinds
    assert is_atomic_derivation(d, base)


def test_a_derivation_by_a_rule_from_outside_the_base_is_refused():
    # the axiom p is neither a rule of the empty base nor assumed by a premise
    tree = DerivationNode("p", axiom("p"), ())
    with pytest.raises(
        StructureError,
        match="^axiom p is neither in the base nor assumed anywhere below$",
    ):
        derivation_to_structure(tree, Base())


def test_atomic_replay_rejects_out_of_scope_use():
    # using the assumed axiom p outside the premise that introduced it
    base = parse_base_text("([p => p] => s)\n(s, p => t)\n")
    bad = bind(
        Node(
            formula=Atom("t"),
            children=(
                Node(formula=s, children=(leaf(p, axiomatic=True),)),
                leaf(p, axiomatic=True),
            ),
        ),
        (
            (AxiomDischarge(leaf=(0, 0)), (0,)),
            (AxiomDischarge(leaf=(1,)), ()),
        ),
    )
    assert not is_atomic_derivation(bad, base)
    good = bind(
        Node(formula=s, children=(leaf(p, axiomatic=True),)),
        ((AxiomDischarge(leaf=(0,)), ()),),
    )
    assert is_atomic_derivation(good, base)


def test_an_absurdity_leaf_is_no_atomic_derivation():
    # bot is an atomic label, but no consistent base has it as an axiom
    assert not is_atomic_derivation(axiom_leaf(BOT), Base())


def test_atomic_replay_rejects_open_or_compound():
    base = parse_base_text("p.\n")
    assert not is_atomic_derivation(assumption(p), base)
    assert not is_atomic_derivation(and_intro(axiom_leaf(p), axiom_leaf(p)), base)
    assert is_atomic_derivation(axiom_leaf(p), base)
    assert not is_atomic_derivation(axiom_leaf(q), base)


def test_atomic_replay_matches_engine_on_sample_bases():
    texts = [
        "p.\n(p => q)\n(q => r)\n",
        "a.\n(a => x)\n(x => g)\n(g => x)\n",
        "([p => q] => r)\nq.\n",
        "([(p => q) => t] => u)\np.\n(q => t)\n",
        "(bot => z)\n([z => w] => w)\n",
    ]
    from prooflab.atomic_system import atoms_of_base, derivable_atoms

    for text in texts:
        base = parse_base_text(text)
        for atom_name in sorted(atoms_of_base(base) | {"bot"}):
            res = derive(base, frozenset(), atom_name)
            if res.derivable:
                d = derivation_to_structure(res.tree, base)
                assert is_atomic_derivation(d, base), (text, atom_name)
        assert derivable_atoms(base, frozenset()) == {
            a
            for a in atoms_of_base(base)
            if derive(base, frozenset(), a).derivable
        }


# the backtracking replay is_atomic_derivation had before it was memoized
# and matched children to premises, kept as the reference it must agree with


def _replays(
    node: Node,
    base_rules: frozenset[AtomicRule],
    avail: tuple[frozenset[AtomicRule], ...],
) -> bool:
    """The replay of the subtree at node, len(avail) levels down; avail[d]
    is the discharged set of the premise the way down takes at its node d
    levels down, so a node bound k levels up is assumed from
    avail[len(avail) - k]."""
    if not _atomic_formula(node.formula):
        return False
    name = _atom_name(node.formula)
    depth = len(avail)
    assumed = 0 < node.bound <= depth
    if not node.children:
        if not node.axiomatic:
            return False
        if assumed:
            return axiom(name) in avail[depth - node.bound]
        return axiom(name) in base_rules
    if assumed:
        rule = node.rule
        if (
            rule not in avail[depth - node.bound]
            or rule.conclusion != name
            or len(rule.premises) != len(node.children)
        ):
            return False
        candidates = [rule]
    else:
        candidates = [
            r
            for r in base_rules
            if r.conclusion == name and len(r.premises) == len(node.children)
        ]
    return any(
        _assign(node, base_rules, avail, rule, 0, frozenset()) for rule in candidates
    )


def _assign(
    node: Node,
    base_rules: frozenset[AtomicRule],
    avail: tuple[frozenset[AtomicRule], ...],
    rule: AtomicRule,
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
        if _replays(child, base_rules, avail + (prem.discharged,)) and _assign(
            node, base_rules, avail, rule, i + 1, used | {j}
        ):
            return True
    return False


REPLAY_ATOMS = ["p", "q", "r", "s"]


@st.composite
def replay_rules(draw):
    """A few small rules: an axiom, a plain step, a step whose premises
    discharge an axiom or a one-premise rule, or a tie, whose premises all
    conclude one atom and each discharge a different axiom, with a step
    from each discharged axiom to that atom."""
    atoms = st.sampled_from(REPLAY_ATOMS)
    kind = draw(st.sampled_from(["tie", "discharging", "plain", "axiom"]))
    if kind == "axiom":
        return [axiom(draw(atoms))]
    if kind == "tie":
        shared = draw(atoms)
        names = draw(st.lists(atoms, min_size=2, max_size=3, unique=True))
        tie = AtomicRule(
            premises=tuple(premise(shared, [axiom(a)]) for a in names),
            conclusion=draw(atoms),
        )
        return [tie, *(parse_rule(f"({a} => {shared})") for a in names)]
    pool = [axiom(a) for a in REPLAY_ATOMS] + [
        parse_rule(f"({a} => {b})") for a in "pr" for b in "qs"
    ]
    discharged = st.lists(st.sampled_from(pool), max_size=0 if kind == "plain" else 2)
    prems = st.lists(st.builds(premise, atoms, discharged), min_size=1, max_size=3)
    return [AtomicRule(premises=tuple(draw(prems)), conclusion=draw(atoms))]


def with_subtree(node, path, new):
    """node with its subtree at path swapped for new."""
    if not path:
        return new
    kids = list(node.children)
    kids[path[0]] = with_subtree(kids[path[0]], path[1:], new)
    return _with_children(node, tuple(kids))


@st.composite
def replay_cases(draw):
    """A base and a structure: one of its derivations, then up to three edits,
    each permuting a node's children, copying a sibling over a child,
    relabelling a leaf, shifting a bound, or cutting out a sub-structure
    whose discharges may reach above its root."""
    rules = draw(st.lists(replay_rules(), min_size=2, max_size=5))
    base = Base(rules=frozenset(r for more in rules for r in more))
    derivations = [
        derivation_to_structure(derive(base, goal=a).tree, base)
        for a in sorted(derivable_atoms(base))
    ]
    assume(derivations)
    # the tallest first, where examples shrink to
    struct = draw(st.sampled_from(sorted(derivations, key=lambda d: -d.height)))
    for _ in range(draw(st.integers(0, 3))):
        path, node = draw(st.sampled_from(list(iter_nodes(struct))))
        edit = draw(st.sampled_from(["permute", "copy", "relabel", "shift", "cut"]))
        kids = list(node.children)
        if edit == "permute" and kids:
            kids = [kids[k] for k in draw(st.permutations(range(len(kids))))]
        elif edit == "copy" and len(kids) > 1:
            i, j = draw(st.permutations(range(len(kids))))[:2]
            kids[i] = kids[j]
        elif edit == "relabel":
            label = draw(st.sampled_from([*map(Atom, REPLAY_ATOMS), Impl(p, q)]))
            node = Node(label, node.children, node.axiomatic, node.bound, node.rule)
        elif edit == "shift":
            bound = max(0, node.bound + draw(st.sampled_from([-1, 1, 2])))
            node = Node(node.formula, node.children, node.axiomatic, bound, node.rule)
        elif edit == "cut":
            struct = node
            continue
        struct = with_subtree(struct, path, _with_children(node, tuple(kids)))
    return base, struct


@settings(max_examples=300, deadline=None)
@given(replay_cases())
def test_replay_agrees_with_backtracking_reference(case):
    base, struct = case
    assert is_atomic_derivation(struct, base) == _replays(struct, base.rules, ())


class _Expired(BaseException):
    # not an Exception, so that no handler in the code under test takes it
    pass


def _expire(signum, frame):
    raise _Expired


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test once its body has run for seconds, so that a call that
    would run for minutes fails instead of hanging the suite."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Expired:
        # the traceback from deep in the interrupted call is of no use
        pytest.fail(f"still running after {seconds} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tie_case(k, last="r"):
    """The rule ([a0 => q], ..., [a(k-1) => q] => t) with q., and t over
    k - 1 axiom leaves q and one axiom leaf last: with last = r a replay
    that backtracks tries every assignment of the q's to the premises."""
    rules = ["(" + ", ".join(f"[a{i} => q]" for i in range(k)) + " => t)", "q."]
    leaves = [leaf(q, axiomatic=True)] * (k - 1) + [leaf(Atom(last), axiomatic=True)]
    return rules, Node(Atom("t"), tuple(leaves))


def chain_case(depth, bottom=None):
    """The rules ([a => q] => q) and ([b => q] => q), and a chain of depth
    q-nodes over bottom, by default the axiom leaf r: a replay without a
    memo tries both rules at every level, 2 ** depth ways."""
    rules = ["([a => q] => q)", "([b => q] => q)"]
    node = bottom or leaf(r, axiomatic=True)
    for _ in range(depth):
        node = Node(q, (node,))
    return rules, node


def _base(rules):
    return Base(rules=frozenset(map(parse_rule, rules)))


@pytest.mark.parametrize("k", [10, 30])
def test_replay_of_a_premise_tie_is_polynomial(k):
    rules, bad = tie_case(k)
    _, good = tie_case(k, last="q")
    with time_limit(5):
        assert not is_atomic_derivation(bad, _base(rules))
        assert is_atomic_derivation(good, _base(rules))


@pytest.mark.parametrize("depth", [25, 90])
def test_replay_of_a_two_rule_chain_is_polynomial(depth):
    rules, bad = chain_case(depth)
    with time_limit(5):
        assert not is_atomic_derivation(bad, _base(rules))
    # a q-leaf assumed where ([q => q] => q) discharges it, one level up,
    # makes the same chain a derivation: a premise [a => q] asks for q, so
    # no leaf a could stand there
    good_rules = ["([q => q] => q)", "([b => q] => q)"]
    _, good = chain_case(depth - 1, Node(q, (Node(q, axiomatic=True, bound=1),)))
    with time_limit(5):
        assert is_atomic_derivation(good, _base(good_rules))
        assert not is_atomic_derivation(good, _base(rules))


def test_replay_matches_children_along_an_augmenting_path():
    # the q-leaf fits both premises, the q derived from the axiom a
    # discharged at the root only [a => q]: taking children in order, the
    # q-leaf must give [a => q] up to the derived q
    base = _base(["([a => q], [b => q] => t)", "q.", "(a => q)"])
    plain = leaf(q, axiomatic=True)
    from_a = Node(q, (Node(Atom("a"), axiomatic=True, bound=2),))
    for kids in ((plain, from_a), (from_a, plain)):
        assert is_atomic_derivation(Node(Atom("t"), kids), base)
    # two copies of the derived q want the one premise [a => q]: the answer
    # for a subtree depends on the premise it sits under
    assert not is_atomic_derivation(Node(Atom("t"), (from_a, from_a)), base)


def _cycle_cases():
    base = parse_base_text("([(p => q) => t] => u)\np.\n(q => t)\n")
    tree = derive(base, frozenset(), "u").tree
    d = derivation_to_structure(tree, base)
    open_q = impl_intro(and_intro(assumption(p), assumption(q)), p)
    unbound = Node(Impl(p, p), (leaf(p),))
    entries = ((AssumptionDischarge(leaf=(0,)), ()),)
    rule = parse_rule("([(p => q) => t] => u)")
    return {
        "is_atomic_derivation": lambda: is_atomic_derivation(d, base),
        "derivation_to_structure": lambda: derivation_to_structure(tree, base),
        "instantiate": lambda: instantiate(open_q, {q: axiom_leaf(q)}),
        "bind": lambda: bind(unbound, entries),
        "pretty": lambda: pretty(d),
        "atoms_of_rule": lambda: atoms_of_rule(rule),
    }


@pytest.mark.parametrize("name", list(_cycle_cases()))
def test_recursions_leave_no_cycles(name):
    # whatever a cycle references lives until the next collection
    call = _cycle_cases()[name]
    call()
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# serialization and printing


def test_obj_roundtrip():
    rule = parse_rule("(p => q)")
    d = bind(
        Node(
            formula=r,
            children=(Node(formula=q, children=(leaf(p, axiomatic=True),)),),
        ),
        (
            (RuleDischarge(node=(0,), rule=rule), ()),
            (AxiomDischarge(leaf=(0, 0)), (0,)),
        ),
    )
    blob = json.dumps(structure_to_obj(d), sort_keys=True)
    assert structure_from_obj(json.loads(blob)) == d
    assert bind(d, d.discharge) == d and bind(d, ()) is d
    assert str(d) == pretty(d)


@settings(max_examples=80)
@given(structures())
def test_obj_roundtrip_generated(d):
    assert structure_from_obj(structure_to_obj(d)) == d


def test_pretty_marks_discharges():
    d = impl_intro(assumption(p), p)
    text = pretty(d)
    assert "p -> p(1)" in text
    assert "p[1]" in text
    text2 = pretty(axiom_leaf(q))
    assert "q*" in text2


def test_iter_nodes_preorder():
    d = and_intro(assumption(p), assumption(q))
    paths = [path for path, _ in iter_nodes(d)]
    assert paths == [(), (0,), (1,)]


def _walk_reference(node, path=()):
    """The recursive preorder walk, the reference for iter_nodes."""
    yield path, node
    for i, child in enumerate(node.children):
        yield from _walk_reference(child, path + (i,))


def trees():
    """Bare trees of any shape: up to three children a node."""
    return st.recursive(
        st.sampled_from([p, q, BOT]).map(leaf),
        lambda kids: st.tuples(
            small_formulas(), st.lists(kids, min_size=1, max_size=3)
        ).map(lambda t: Node(t[0], tuple(t[1]))),
        max_leaves=12,
    )


@settings(max_examples=150)
@given(st.one_of(structures(), trees()))
def test_iter_nodes_matches_the_recursive_walk(d):
    got = list(iter_nodes(d))
    want = list(_walk_reference(d))
    assert [path for path, _ in got] == [path for path, _ in want]
    assert all(a is b for (_, a), (_, b) in zip(got, want))


_PICKLED_VALUES = """
import pickle, sys
from prooflab.arguments import and_intro, assumption, axiom_leaf, impl_intro
from prooflab.atomic_system import parse_base_text
from prooflab.syntax import parse_formula
f = parse_formula("(p & q) | ~r -> p")
d = impl_intro(and_intro(assumption(f), axiom_leaf(parse_formula("q"))), f)
b = parse_base_text("p.\\n(p => q)\\n([p => q] => r)")
"""


def test_pickles_rehash_under_another_hash_seed(tmp_path):
    # a pickle must not carry a cached hash from the hash seed it was made under
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    path = str(tmp_path / "values.pickle")
    dump = _PICKLED_VALUES + f"pickle.dump((f, d, b), open({path!r}, 'wb'))\n"
    load = _PICKLED_VALUES + f"""
lf, ld, lb = pickle.load(open({path!r}, "rb"))
assert (lf, ld, lb) == (f, d, b)
lk, k = ld.children[0], d.children[0]
assert hash(lf) == hash(f) and hash(ld) == hash(d) and hash(lk) == hash(k)
assert hash(lb) == hash(b)
assert {{f: 1}}[lf] and {{d: 1}}[ld] and {{k: 1}}[lk] and {{b: 1}}[lb]
assert {{lf: 1}}[f] and {{ld: 1}}[d] and {{lk: 1}}[k] and {{lb: 1}}[b]
"""
    for seed, code in (("1", dump), ("2", load)):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
