"""Tests for detour reductions, justification-supplied reductions, and the
reachability search.  Expected results of rewrites are built by hand with
the structure builders, never by running the rewrite itself."""

from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prooflab.arguments import (
    AssumptionDischarge,
    Inference,
    Node,
    StructureError,
    _graft,
    and_elim,
    and_intro,
    assumption,
    assumption_paths,
    assumptions,
    axiom_leaf,
    bind,
    conclusion,
    derivation_to_structure,
    impl_elim,
    impl_intro,
    instantiate,
    is_atomic_derivation,
    is_closed,
    iter_nodes,
    leaf,
    match_impl_intro,
    or_elim,
    or_intro_left,
    or_intro_right,
    or_project,
    replace,
    structure_from_obj,
    structure_of_inference,
    structure_to_obj,
    weaken,
)
from prooflab.atomic_system import derive, parse_base_text
from prooflab.reductions import (
    CONJ_DETOUR,
    DEFAULT_BUDGET,
    DISJ_DETOUR,
    IMP_DETOUR,
    PROJECT_DETOUR,
    WEAKEN_DETOUR,
    Reachable,
    _first_rewrite,
    _rewrites_of,
    constant_reduction,
    normalize,
    pointer_reduction,
    search_reduct,
    standard_reductions,
)
from prooflab.syntax import (
    MAX_NESTING,
    Atom,
    Conj,
    Disj,
    Impl,
    format_formula,
    parse_formula,
    subformulas,
)
from test_arguments import structures
from test_syntax import formulas

p, q, r, s = Atom("p"), Atom("q"), Atom("r"), Atom("s")
STD = standard_reductions()


class Step(NamedTuple):
    """One rewrite: its position, the reduction's name, the whole result."""

    position: tuple
    rule: str
    result: Node


def first_step(d, reductions):
    """The rewrite normalize takes first: outermost-first and leftmost."""
    found = _first_rewrite(d, reductions)
    return Step(*found) if found else None


def all_steps(d, reductions):
    """Every one-step rewrite, positions outermost-first and leftmost,
    reductions in the given order at each."""
    return [Step(*found) for found in _rewrites_of(d, reductions, {})]


# ---------------------------------------------------------------------------
# the five detours, frozen examples


def test_conj_detour():
    d = and_elim(and_intro(assumption(p), assumption(q)), 2)
    step = first_step(d, STD)
    assert step is not None
    assert step.rule == "conj-detour"
    assert step.position == ()
    assert step.result == assumption(q)


def test_imp_detour_duplicates_minor():
    body = and_intro(assumption(p), assumption(p))
    major = impl_intro(body, p)
    minor = and_elim(assumption(Conj(p, r)), 1)
    d = impl_elim(major, minor)
    step = first_step(d, STD)
    assert step.rule == "imp-detour"
    assert step.result == and_intro(minor, minor)
    assert assumptions(step.result) <= assumptions(d)


def test_imp_detour_vacuous():
    d = impl_elim(impl_intro(assumption(q), p), assumption(p))
    step = first_step(d, STD)
    assert step.rule == "imp-detour"
    assert step.result == assumption(q)


def test_disj_detour_left_and_right():
    case1 = impl_elim(assumption(Impl(p, r)), assumption(p))
    case2 = impl_elim(assumption(Impl(q, r)), assumption(q))
    d_left = or_elim(or_intro_left(assumption(p), q), case1, case2)
    step = first_step(d_left, STD)
    assert step.rule == "disj-detour"
    assert step.result == case1
    d_right = or_elim(or_intro_right(assumption(q), p), case1, case2)
    step2 = first_step(d_right, STD)
    assert step2.result == case2


def test_project_detour():
    d = or_project(or_intro_left(assumption(p), q))
    step = first_step(d, STD)
    assert step.rule == "project-detour"
    assert step.result == assumption(p)
    # projecting the left disjunct out of a right introduction is stuck
    stuck = or_project(or_intro_right(assumption(q), p))
    assert first_step(stuck, STD) is None


def test_weaken_detour():
    body = impl_elim(assumption(Impl(p, q)), assumption(p))
    d = weaken(impl_intro(body, p), r)
    step = first_step(d, STD)
    assert step.rule == "weaken-detour"
    new_body = impl_elim(
        assumption(Impl(p, q)), and_elim(assumption(Conj(p, r)), 1)
    )
    expected = bind(
        Node(Impl(Conj(p, r), q), (new_body,)),
        ((AssumptionDischarge(leaf=(0, 1, 0)), ()),),
    )
    assert step.result == expected
    assert match_impl_intro(step.result)
    assert assumptions(step.result) == {Impl(p, q)}


def test_weaken_detour_vacuous():
    d = weaken(impl_intro(assumption(q), p), r)
    step = first_step(d, STD)
    assert step.rule == "weaken-detour"
    assert conclusion(step.result) == Impl(Conj(p, r), q)
    assert assumptions(step.result) == {q}
    assert match_impl_intro(step.result)


def _discharged_at_root(d, *leaves):
    """d with the given leaves discharged at its root as well."""
    return bind(d, tuple((AssumptionDischarge(leaf=at), ()) for at in leaves))


def test_each_detour_rewrites_exactly_its_own_redex():
    case1 = impl_elim(assumption(Impl(p, r)), assumption(p))
    case2 = impl_elim(assumption(Impl(q, r)), assumption(q))
    conj = and_elim(and_intro(assumption(p), assumption(q)), 1)
    conj2 = and_elim(and_intro(assumption(p), assumption(q)), 2)
    disj = or_elim(or_intro_right(assumption(q), p), case1, case2)
    body = and_intro(assumption(p), assumption(s))
    imp = impl_elim(impl_intro(body, p), axiom_leaf(p))
    weak = weaken(impl_intro(assumption(q), p), r)
    project = or_project(or_intro_left(assumption(p), q))
    redexes = [
        (CONJ_DETOUR, conj, assumption(p)),
        (CONJ_DETOUR, conj2, assumption(q)),
        (DISJ_DETOUR, disj, case2),
        (IMP_DETOUR, imp, and_intro(axiom_leaf(p), assumption(s))),
        (WEAKEN_DETOUR, weak, Node(Impl(Conj(p, r), q), (assumption(q),))),
        (PROJECT_DETOUR, project, assumption(p)),
    ]
    for red, redex, reduct in redexes:
        for other in STD:
            assert other.rewrite(redex) == (reduct if other is red else None)
    stuck = [
        # eliminations over a bare assumption
        and_elim(assumption(Conj(p, q)), 1),
        or_elim(assumption(Disj(p, q)), case1, case2),
        impl_elim(assumption(Impl(p, q)), assumption(p)),
        weaken(assumption(Impl(p, q)), r),
        or_project(assumption(Disj(p, q))),
        # the left disjunct out of a right introduction
        or_project(or_intro_right(assumption(q), p)),
        # each redex above, with a leaf discharged at the elimination too
        _discharged_at_root(conj, (0, 1)),
        _discharged_at_root(disj, (0, 0)),
        _discharged_at_root(imp, (0, 0, 1)),
        _discharged_at_root(weak, (0, 0)),
        _discharged_at_root(project, (0, 0)),
    ]
    for d in stuck:
        assert [red.rewrite(d) for red in STD] == [None] * 5


# ---------------------------------------------------------------------------
# positions and discharges across them


@pytest.mark.parametrize(
    "d, reduct",
    [
        # the conj-detour drops the q-leaf the outer ->-intro discharges
        (
            impl_intro(and_elim(and_intro(assumption(p), assumption(q)), 1), q),
            impl_intro(assumption(p), q),
        ),
        # the minor, discharged by the outer ->-intro, moves up a level
        (
            impl_intro(impl_elim(impl_intro(assumption(p), p), assumption(p)), p),
            impl_intro(assumption(p), p),
        ),
        # the minor's leaf stays discharged by the outer ->-intro from the
        # depth of the leaf the minor replaces
        (
            impl_intro(
                impl_elim(
                    impl_intro(and_intro(assumption(p), assumption(r)), p),
                    and_elim(assumption(Conj(p, q)), 1),
                ),
                Conj(p, q),
            ),
            impl_intro(
                and_intro(and_elim(assumption(Conj(p, q)), 1), assumption(r)),
                Conj(p, q),
            ),
        ),
        # the case keeps its p-leaf discharged at the outer root
        (
            impl_intro(
                or_elim(
                    or_intro_left(assumption(r), s),
                    and_intro(assumption(r), assumption(p)),
                    and_intro(axiom_leaf(r), assumption(p)),
                ),
                p,
            ),
            impl_intro(and_intro(assumption(r), assumption(p)), p),
        ),
        # the introduced premise keeps its q-leaf discharged at the outer
        # root from where the case's leaf was
        (
            impl_intro(
                or_elim(
                    or_intro_left(impl_elim(assumption(Impl(q, p)), assumption(q)), s),
                    and_intro(axiom_leaf(r), assumption(p)),
                    and_intro(axiom_leaf(r), axiom_leaf(p)),
                ),
                q,
            ),
            impl_intro(
                and_intro(
                    axiom_leaf(r), impl_elim(assumption(Impl(q, p)), assumption(q))
                ),
                q,
            ),
        ),
        # the stub's leaf is discharged by the new ->-intro, the q-leaf
        # still by the outer one
        (
            impl_intro(
                weaken(impl_intro(and_intro(assumption(p), assumption(q)), p), r),
                q,
            ),
            impl_intro(
                impl_intro(
                    and_intro(and_elim(assumption(Conj(p, r)), 1), assumption(q)),
                    Conj(p, r),
                ),
                q,
            ),
        ),
        (
            impl_intro(or_project(or_intro_left(assumption(p), q)), p),
            impl_intro(assumption(p), p),
        ),
    ],
    ids=["conj", "imp", "imp-minor", "disj", "disj-premise", "weaken", "project"],
)
def test_detour_under_binder_reduces(d, reduct):
    step = first_step(d, STD)
    assert step.position == (0,)
    assert step.result == reduct
    assert [s.result for s in all_steps(d, STD)] == [reduct]
    assert structure_from_obj(structure_to_obj(step.result)) == reduct


def test_extract_keeps_local_discharges():
    inner = impl_intro(assumption(p), p)
    d = and_intro(inner, assumption(q))
    sub = d.node_at((0,))
    assert sub == inner
    assert d.node_at(()) == d


def test_inner_position_reduces():
    redex = and_elim(and_intro(assumption(p), assumption(q)), 1)
    d = and_intro(redex, assumption(r))
    step = first_step(d, STD)
    assert step.position == (0,)
    assert step.result == and_intro(assumption(p), assumption(r))


# ---------------------------------------------------------------------------
# search


def test_closure_and_reachability():
    inner = or_project(or_intro_left(assumption(p), q))
    d = and_elim(and_intro(inner, assumption(r)), 1)
    walk = Reachable(d, STD)
    found = list(walk)
    assert walk.complete
    expected = {
        d,
        inner,
        and_elim(and_intro(assumption(p), assumption(r)), 1),
        assumption(p),
    }
    assert set(found) == expected
    assert set(walk.parents) == expected

    yes = search_reduct(d, assumption(p), STD)
    assert yes.status == "yes"
    assert len(yes.path) == 2
    assert yes.witness == assumption(p)

    no = search_reduct(d, assumption(r), STD)
    assert no.status == "no"


def test_reduces_to_is_reflexive():
    d = and_intro(assumption(p), assumption(q))
    out = search_reduct(d, d, STD)
    assert out.status == "yes"
    assert out.path == ()


def test_search_with_predicate():
    d = and_elim(and_intro(axiom_leaf(p), axiom_leaf(q)), 1)
    out = search_reduct(d, is_closed, STD)
    assert out.status == "yes"
    assert out.witness == d  # already closed, zero steps


def test_failed_search_under_binder_is_definite():
    redex = and_elim(and_intro(assumption(p), assumption(q)), 1)
    d = impl_intro(redex, q)
    out = search_reduct(d, assumption(s), STD)
    assert out.status == "no"
    assert out.visited == 2


def test_budget_exhaustion_is_inconclusive():
    inner = or_project(or_intro_left(assumption(p), q))
    d = and_elim(and_intro(inner, assumption(r)), 1)
    out = search_reduct(d, assumption(s), STD, budget=2)
    assert out.status == "inconclusive"
    assert "budget" in out.note
    # the structures found within the budget: d and the reduct at its root
    assert out.visited == 2
    walk = Reachable(d, STD, budget=2)
    assert list(walk) == [d, inner]
    assert not walk.complete


def test_budget_cut_search_tests_every_structure_found():
    # the same cut: the last structure found within the budget is the goal
    inner = or_project(or_intro_left(assumption(p), q))
    d = and_elim(and_intro(inner, assumption(r)), 1)
    out = search_reduct(d, inner, STD, budget=2)
    assert out.status == "yes"
    assert out.path == (((), "conj-detour"),)
    assert out.witness == inner
    assert out.visited == 2


# ---------------------------------------------------------------------------
# detour chains: p from the axiom q by the rule (q => p), wrapped in
# conj-, imp- and disj-detours, innermost first


CHAIN_BASE = parse_base_text("q.\n(q => p)")
CHAIN_INNER = derivation_to_structure(derive(CHAIN_BASE, goal="p").tree, CHAIN_BASE)
CHAIN_KINDS = ("conj-detour", "imp-detour", "disj-detour")
# distinct structures the search finds by depth: every order of removing
# independent detours
CHAIN_VISITED = (2, 4, 8, 15, 28, 52, 96, 177)


def detour_chain(depth):
    """The chain of the given depth and the rules that undo it, outermost
    first."""
    out = CHAIN_INNER
    for i in range(depth):
        kind = CHAIN_KINDS[i % 3]
        if kind == "conj-detour":
            out = and_elim(and_intro(out, CHAIN_INNER), 1)
        elif kind == "imp-detour":
            out = impl_elim(impl_intro(assumption(p), p), out)
        else:
            out = or_elim(or_intro_left(out, q), assumption(p), CHAIN_INNER)
    rules = [CHAIN_KINDS[i % 3] for i in reversed(range(depth))]
    return out, rules


@pytest.mark.parametrize("depth", range(1, 9))
def test_detour_chain_search(depth):
    # a predicate goal: the breadth-first walk, not the normal-form path
    d, rules = detour_chain(depth)
    out = search_reduct(d, lambda e: e == CHAIN_INNER, STD)
    assert out.status == "yes"
    assert out.visited == CHAIN_VISITED[depth - 1]
    assert out.path == tuple(((), name) for name in rules)


# ---------------------------------------------------------------------------
# pointer and constant reductions


def test_pointer_reduction_exact_match():
    source = and_elim(and_intro(assumption(p), assumption(q)), 1)
    red = pointer_reduction(source, assumption(p), name="shortcut")
    assert red.rewrite(and_elim(and_intro(assumption(p), assumption(r)), 1)) is None
    assert red.rewrite(source) == assumption(p)


def test_pointer_reduction_guards():
    source = impl_elim(assumption(Impl(p, q)), assumption(p))
    with pytest.raises(StructureError):
        pointer_reduction(source, assumption(r))
    with pytest.raises(StructureError):
        pointer_reduction(source, assumption(q))  # q is not among the sources


def test_constant_reduction_matches_instances():
    red = constant_reduction([p], q, axiom_leaf(q), name="kappa")
    schema = structure_of_inference(Inference(subs=(assumption(p),), conclusion=q))
    assert red.rewrite(schema) == axiom_leaf(q)
    instance = structure_of_inference(
        Inference(subs=(and_elim(assumption(Conj(p, r)), 1),), conclusion=q)
    )
    assert red.rewrite(instance) == axiom_leaf(q)
    wrong_arity = structure_of_inference(
        Inference(subs=(assumption(p), assumption(p)), conclusion=q)
    )
    assert red.rewrite(wrong_arity) is None
    discharging = bind(
        Node(formula=q, children=(leaf(p),)),
        ((AssumptionDischarge(leaf=(0,)), ()),),
    )
    assert red.rewrite(discharging) is None


def test_constant_reduction_needs_closed_target():
    with pytest.raises(StructureError):
        constant_reduction([p], q, assumption(q))


def test_justification_reductions_in_search():
    red = constant_reduction([p], q, axiom_leaf(q), name="kappa")
    start = structure_of_inference(
        Inference(subs=(and_elim(and_intro(assumption(p), assumption(r)), 1),), conclusion=q)
    )
    out = search_reduct(start, axiom_leaf(q), list(STD) + [red])
    assert out.status == "yes"


# ---------------------------------------------------------------------------
# properties


def small_formulas():
    return st.sampled_from([p, q, r, Conj(p, q), Impl(p, q), Disj(q, r)])


def bodies():
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

    return st.recursive(base, extend, max_leaves=5)


def minors_for(f):
    return st.sampled_from(
        [assumption(f), and_elim(assumption(Conj(f, Atom("c0"))), 1)]
    )


@settings(max_examples=120)
@given(bodies(), small_formulas(), st.data())
def test_imp_detour_preserves_conclusion_and_shrinks_assumptions(body, a, data):
    minor = data.draw(minors_for(a))
    d = impl_elim(impl_intro(body, a), minor)
    step = first_step(d, [IMP_DETOUR])
    assert step is not None and step.position == ()
    assert conclusion(step.result) == conclusion(d)
    assert assumptions(step.result) <= assumptions(d)


@settings(max_examples=120)
@given(bodies(), bodies(), st.sampled_from([1, 2]))
def test_conj_detour_yields_the_component(left, right, side):
    d = and_elim(and_intro(left, right), side)
    step = first_step(d, [CONJ_DETOUR])
    assert step.result == (left if side == 1 else right)


@settings(max_examples=80)
@given(bodies(), small_formulas())
def test_imp_detour_commutes_with_instantiation(body, a):
    d = impl_elim(impl_intro(body, a), assumption(a))
    c0 = Atom("c0")
    sigma = {
        f: and_elim(assumption(Conj(f, c0)), 1) for f in assumptions(d)
    }
    step_then_inst = instantiate(first_step(d, [IMP_DETOUR]).result, sigma)
    inst_then_step = first_step(instantiate(d, sigma), [IMP_DETOUR]).result
    assert step_then_inst == inst_then_step


@settings(max_examples=80)
@given(bodies(), small_formulas(), small_formulas())
def test_weaken_detour_preserves_interface(body, a, c):
    d = weaken(impl_intro(body, a), c)
    step = first_step(d, [WEAKEN_DETOUR])
    assert step is not None
    assert conclusion(step.result) == Impl(Conj(a, c), conclusion(body))
    assert assumptions(step.result) <= assumptions(d) | {Conj(a, c)} - {a}
    assert match_impl_intro(step.result)


def detours(leaves=None):
    """structures() (or the given leaves) with detours of every kind built
    around its members and ->-intro binders around those, so redexes sit
    under discharges."""

    def extend(children):
        return st.one_of(
            st.tuples(children, children, st.sampled_from([1, 2])).map(
                lambda t: and_elim(and_intro(t[0], t[1]), t[2])
            ),
            st.tuples(children, children).map(
                lambda t: impl_elim(impl_intro(t[1], conclusion(t[0])), t[0])
            ),
            st.tuples(children, children).map(
                lambda t: or_elim(or_intro_left(t[0], s), t[1], t[1])
            ),
            st.tuples(children, small_formulas()).map(
                lambda t: weaken(impl_intro(t[0], t[1]), r)
            ),
            children.map(lambda d: or_project(or_intro_left(d, q))),
            st.tuples(children, small_formulas()).map(
                lambda t: impl_intro(t[0], t[1])
            ),
        )

    return st.recursive(
        structures() if leaves is None else leaves, extend, max_leaves=6
    )


def derivation_detours():
    """detours() around a derivation in CHAIN_BASE, its axiom leaf, an axiom
    leaf it lacks and an assumption: most are closed, and some reduce to a
    derivation in the base."""
    return detours(
        st.sampled_from([CHAIN_INNER, axiom_leaf(q), axiom_leaf(p), assumption(p)])
    )


@settings(max_examples=80, deadline=None)
@given(st.one_of(structures(), detours()), st.sampled_from([2, 60]))
def test_reachable_yields_each_once_and_its_paths_replay(d, budget):
    by_name = {red.name: red for red in STD}
    walk = Reachable(d, STD, budget=budget)
    found = list(walk)
    assert found[0] == d
    assert len(set(found)) == len(found) <= budget
    assert set(walk.parents) == set(found)
    for e in found:
        # the named reduction at each position leads from d to e
        cur = d
        for pos, name in walk.path(e):
            results = {
                step.position: step.result
                for step in all_steps(cur, [by_name[name]])
            }
            cur = results[pos]
        assert cur == e
    # the last structure found is tested even when the budget cuts the walk
    out = search_reduct(d, lambda e: e == found[-1], STD, budget=budget)
    assert out.status == "yes" and out.witness == found[-1]
    assert out.path == walk.path(found[-1]) and out.visited == len(found)


def reference_rewrites(d, reductions):
    """The one-step rewrites computed directly: every position in preorder,
    the reductions in the given order at each, each rewrite grafted into
    the whole structure."""
    return [
        (path, red.name, _graft(d, path, new))
        for path, sub in iter_nodes(d)
        for red in reductions
        if (new := red.rewrite(sub)) is not None
    ]


def assert_rewrites_match_reference(d, reductions, budget=30):
    want = reference_rewrites(d, reductions)
    assert all_steps(d, reductions) == [Step(*w) for w in want]
    first = first_step(d, reductions)
    assert first == (Step(*want[0]) if want else None)
    # one memo shared by every structure of a walk, as Reachable shares it
    memo = {}
    for e in Reachable(d, reductions, budget):
        assert _rewrites_of(e, reductions, memo) == reference_rewrites(e, reductions)


@settings(max_examples=100, deadline=None)
@given(st.one_of(structures(), detours()), st.permutations(STD))
def test_rewrites_match_the_reference(d, reductions):
    assert_rewrites_match_reference(d, reductions)


def _justified_cases():
    # kappa rewrites a q from q & r in one step, and the conj-detour applies
    # at the same positions, under a binder too
    kappa = constant_reduction([Conj(q, r)], q, axiom_leaf(q), name="kappa")
    redex = and_elim(and_intro(assumption(q), assumption(r)), 1)
    constant = and_intro(redex, impl_intro(redex, q))
    # the pointer's source is a conj-detour too, found at two positions
    source = and_elim(and_intro(assumption(p), assumption(q)), 1)
    shortcut = pointer_reduction(source, assumption(p), name="shortcut")
    pointer = and_intro(source, and_intro(source, assumption(r)))
    return [
        (constant, list(STD) + [kappa]),
        (constant, [kappa] + list(STD)),
        (pointer, list(STD) + [shortcut]),
        (pointer, [shortcut] + list(STD)),
    ]


@pytest.mark.parametrize(
    "d, reductions",
    _justified_cases(),
    ids=["constant", "constant-first", "pointer", "pointer-first"],
)
def test_justified_rewrites_match_the_reference(d, reductions):
    (just,) = [red for red in reductions if red not in STD]
    names = [name for _, name, _ in reference_rewrites(d, reductions)]
    assert names.count(just.name) == 2
    assert_rewrites_match_reference(d, reductions)


def binders_match(d):
    """Every discharged leaf hangs under an ->-intro for its label or in the
    case of an |-elim whose disjunct it is."""
    for item, target in d.discharge:
        binder = d.node_at(target)
        label = d.node_at(item.leaf).formula
        if len(binder.children) == 1:
            assert binder.formula.left == label
        else:
            g = binder.children[0].formula
            assert (item.leaf[len(target)], label) in ((1, g.left), (2, g.right))


@settings(max_examples=150, deadline=None)
@given(detours())
def test_successors_keep_conclusion_assumptions_and_serialize(d):
    for step in all_steps(d, STD):
        assert conclusion(step.result) == conclusion(d)
        assert assumptions(step.result) <= assumptions(d)
        assert structure_from_obj(structure_to_obj(step.result)) == step.result
        binders_match(step.result)


def _formula_hash_is_the_field_tuple_hash(f):
    """The cached hashes equal the generated dataclass hashes, so sets and
    dicts of formulas and nodes iterate as they did without the cache."""
    for g in subformulas(f):
        if isinstance(g, Atom):
            assert hash(g) == hash((g.name,))
        elif isinstance(g, (Conj, Disj, Impl)):
            assert hash(g) == hash((g.left, g.right))


def _node_hash_is_the_field_tuple_hash(d):
    for _, node in iter_nodes(d):
        fields = (node.formula, node.children, node.axiomatic, node.bound, node.rule)
        assert hash(node) == hash(fields)
        _formula_hash_is_the_field_tuple_hash(node.formula)


@settings(max_examples=100, deadline=None)
@given(formulas(), detours())
def test_hash_of_equal_values_built_apart_agrees(f, d):
    g = parse_formula(format_formula(f))
    assert g == f and hash(g) == hash(f)
    _formula_hash_is_the_field_tuple_hash(f)
    c0 = Atom("c0")

    def stand_in(g):
        return and_elim(assumption(Conj(g, c0)), 1)

    built = [d] + [step.result for step in all_steps(d, STD)]
    built.append(instantiate(d, {a: stand_in(a) for a in assumptions(d)}))
    for path, node in iter_nodes(d):
        if not node.free:
            built.append(replace(d, path, stand_in(node.formula)))
    for e in built:
        rebuilt = structure_from_obj(structure_to_obj(e))
        assert rebuilt == e and hash(rebuilt) == hash(e)
        assert {rebuilt: True}[e]
        _node_hash_is_the_field_tuple_hash(e)


# ---------------------------------------------------------------------------
# open-assumption summaries against a walk over the whole tree


def walked_assumptions(d):
    """assumptions() as it was before nodes carried a summary: a walk over
    every node of the structure."""
    return frozenset(assumption_paths(d).values())


def walked_is_closed(d):
    return not assumption_paths(d)


def walked_open(d):
    """The summary a node should carry, read off a walk: each
    non-axiomatic leaf the structure does not discharge, with how far
    above the root its binder sits (0 when nothing discharges it)."""
    return {
        (node.formula, node.bound - len(path) if node.bound else 0)
        for path, node in iter_nodes(d)
        if not (node.children or node.axiomatic or 0 < node.bound <= len(path))
    }


def assert_summaries_match_walk(d):
    # every subtree, the sub-structures included: a subtree's leaves bound
    # above its root are open in it
    for _, node in iter_nodes(d):
        assert node.open == walked_open(node)
        assert assumptions(node) == walked_assumptions(node)
        assert is_closed(node) == walked_is_closed(node)


def test_summary_counts_a_binder_above_the_root_as_open():
    d = impl_intro(and_intro(assumption(p), assumption(q)), p)
    body = d.children[0]
    assert body.children[0].open == {(p, 2)}
    assert body.open == {(p, 1), (q, 0)}
    assert d.open == {(q, 0)}
    assert assumptions(body) == {p, q} and assumptions(d) == {q}
    closed = impl_intro(impl_intro(and_intro(assumption(p), assumption(q)), q), p)
    assert is_closed(closed) and closed.children[0].open == {(p, 1)}
    assert axiom_leaf(p).open == frozenset()


def stand_ins(f, extra):
    """Structures concluding f for an instance: open, closed by an axiom
    leaf, and with a binder-free detour around f's own assumption."""
    c0 = Atom("c0")
    return st.sampled_from(
        [
            assumption(f),
            axiom_leaf(f),
            and_elim(assumption(Conj(f, c0)), 1),
            and_elim(and_intro(assumption(f), extra), 1),
        ]
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(structures(), detours()), st.data())
def test_summaries_match_the_walk(d, data):
    assert_summaries_match_walk(d)
    for step in all_steps(d, STD):
        assert_summaries_match_walk(step.result)
    extra = data.draw(structures())
    sigma = {
        f: data.draw(stand_ins(f, extra))
        for f in sorted(walked_assumptions(d), key=format_formula)
    }
    inst = instantiate(d, sigma)
    assert_summaries_match_walk(inst)
    assert assumptions(inst) == frozenset().union(
        *(walked_assumptions(sub) for sub in sigma.values())
    )


# ---------------------------------------------------------------------------
# heights, and the height budget


def walked_height(d):
    return max(len(path) for path, _ in iter_nodes(d))


@settings(max_examples=100, deadline=None)
@given(st.one_of(structures(), detours()))
def test_height_matches_the_walk(d):
    for e in [d] + [step.result for step in all_steps(d, STD)]:
        for _, node in iter_nodes(e):
            assert node.height == walked_height(node)


def test_height_budget_cuts_a_growing_closure():
    # q / q* under a constant reduction whose target, q / (q / q*), holds its
    # own inference: one chain of q's per height, each reduct a level taller
    start = Node(formula=q, children=(axiom_leaf(q),))
    grow = constant_reduction([q], q, Node(formula=q, children=(start,)), name="grow")
    walk = Reachable(start, [grow])
    assert [e.height for e in walk] == list(range(1, MAX_NESTING + 1))
    assert walk.exhausted == [f"height budget of {MAX_NESTING} levels"]
    assert not walk.complete
    out = search_reduct(start, axiom_leaf(q), [grow])
    assert out.status == "inconclusive"
    assert out.note == f"height budget of {MAX_NESTING} levels exhausted"
    assert out.visited == MAX_NESTING
    # a budget of exactly the structures found is not exhausted; one less
    # and it cuts the walk before the height budget does
    out = search_reduct(start, axiom_leaf(q), [grow], budget=MAX_NESTING)
    assert out.note == f"height budget of {MAX_NESTING} levels exhausted"
    out = search_reduct(start, axiom_leaf(q), [grow], budget=MAX_NESTING - 1)
    assert out.note == f"budget of {MAX_NESTING - 1} distinct structures exhausted"


# ---------------------------------------------------------------------------
# the first rewrite, found without listing the rest


def assert_first_rewrite_is_the_listed_first(d, reductions):
    found = _rewrites_of(d, reductions, {})
    assert _first_rewrite(d, reductions) == (found[0] if found else None)


@settings(max_examples=150, deadline=None)
@given(st.one_of(structures(), detours()), st.permutations(STD))
def test_first_rewrite_is_the_listed_first(d, reductions):
    assert_first_rewrite_is_the_listed_first(d, reductions)
    for step in all_steps(d, reductions):
        assert_first_rewrite_is_the_listed_first(step.result, reductions)


@pytest.mark.parametrize("depth", range(1, 9))
def test_first_rewrite_on_detour_chains(depth):
    # every structure on the way to normal form, as reduce takes it
    d, rules = detour_chain(depth)
    taken = []
    while (step := first_step(d, STD)) is not None:
        assert_first_rewrite_is_the_listed_first(d, STD)
        taken.append(step.rule)
        d = step.result
    assert d == CHAIN_INNER and taken == rules
    assert _first_rewrite(d, STD) is None and not _rewrites_of(d, STD, {})


# ---------------------------------------------------------------------------
# normal forms: one leftmost-outermost path against the whole closure
#
# search_reduct's breadth-first walk, which a predicate goal always takes,
# is the reference: under the five standard reductions every closure has
# exactly one normal form, normalize reaches it, and search_reduct answers a
# base or a normal target off it as the full search does.


def assert_paths_replay(d, path, end):
    by_name = {red.name: red for red in STD}
    for pos, name in path:
        d = {step.position: step.result for step in all_steps(d, [by_name[name]])}[pos]
    assert d == end


def complete_closure(d):
    """Every structure d reduces to, or None if the default budget cuts the
    enumeration short."""
    walk = Reachable(d, STD)
    found = list(walk)
    return found if walk.complete else None


def assert_normal_form_route_agrees(d, closure):
    normal = [e for e in closure if _first_rewrite(e, STD) is None]
    assert len(normal) == 1
    (nf,) = normal
    end, path, done = normalize(d, STD, len(closure))
    assert done and end == nf
    assert_paths_replay(d, path, end)

    def walked(goal):
        if goal is CHAIN_BASE:
            return lambda e: is_atomic_derivation(e, CHAIN_BASE)
        return lambda e: e == goal

    # the atomic-derivation goal, and every normal target, reachable or not
    for goal in (CHAIN_BASE, nf, assumption(s), axiom_leaf(q)):
        ref = search_reduct(d, walked(goal), STD)
        assert not ref.by_normal_form
        got = search_reduct(d, goal, STD)
        assert got.by_normal_form and got.status == ref.status
        assert got.visited == len(path) + 1
        if got.status == "yes":
            assert got.witness == nf and got.path == path


@settings(max_examples=150, deadline=None)
@given(st.one_of(structures(), detours(), derivation_detours()))
def test_normal_form_route_agrees_with_the_full_search(d):
    closure = complete_closure(d)
    assume(closure is not None)
    assert_normal_form_route_agrees(d, closure)


@pytest.mark.parametrize("depth", range(1, 9))
def test_normal_form_route_on_detour_chains(depth):
    d, rules = detour_chain(depth)
    assert_normal_form_route_agrees(d, complete_closure(d))
    out = search_reduct(d, CHAIN_INNER, STD)
    assert out.by_normal_form
    assert out.status == "yes" and out.visited == depth + 1
    assert out.path == tuple(((), name) for name in rules)


def test_normalize_stops_at_the_step_bound():
    d, rules = detour_chain(3)
    end, path, done = normalize(d, STD, 2)
    assert not done and len(path) == 2
    assert end == first_step(first_step(d, STD).result, STD).result
    end, path, done = normalize(d, STD, 3)
    assert done and end == CHAIN_INNER and len(path) == 3
    assert normalize(CHAIN_INNER, STD, 0) == (CHAIN_INNER, (), True)


def test_normal_form_route_declines():
    d, _ = detour_chain(3)
    # a path of four structures: a budget of three leaves it to the walk
    assert not search_reduct(d, CHAIN_INNER, STD, budget=3).by_normal_form
    out = search_reduct(d, CHAIN_INNER, STD, budget=4)
    assert out.by_normal_form and out.status == "yes"
    # a target that holds a redex
    assert not search_reduct(d, detour_chain(1)[0], STD).by_normal_form
    out = search_reduct(d, CHAIN_INNER, STD[::-1])
    assert out.by_normal_form and out.status == "yes"
    # a constant reduction that overlaps the conj-detour: the standard
    # normal form p* is no derivation in the base, but another reduct is
    e = and_elim(and_intro(axiom_leaf(p), axiom_leaf(q)), 1)
    kappa = constant_reduction([Conj(p, q)], p, CHAIN_INNER)

    def pred(x):
        return is_atomic_derivation(x, CHAIN_BASE)

    out = search_reduct(e, CHAIN_BASE, STD)
    assert out.by_normal_form and out.status == "no"
    assert not search_reduct(e, CHAIN_BASE, STD + (kappa,)).by_normal_form
    assert search_reduct(e, pred, STD + (kappa,)).status == "yes"


# ---------------------------------------------------------------------------
# the route search_reduct takes for a base goal


@settings(max_examples=100, deadline=None)
@given(derivation_detours(), st.sampled_from([2, 4, DEFAULT_BUDGET]))
def test_base_goal_answers_as_the_walked_predicate(d, budget):
    walked = search_reduct(
        d, lambda e: is_atomic_derivation(e, CHAIN_BASE), STD, budget
    )
    out = search_reduct(d, CHAIN_BASE, STD, budget)
    assert not walked.by_normal_form
    # read off the normal form exactly when the path there fits the budget
    end, path, normal = normalize(d, STD, budget - 1)
    assert out.by_normal_form == normal
    if not normal:
        assert out == walked
        return
    assert out.visited == len(path) + 1
    assert out.status == ("yes" if is_atomic_derivation(end, CHAIN_BASE) else "no")
    if walked.status != "inconclusive":
        assert out.status == walked.status


@settings(max_examples=50, deadline=None)
@given(detours())
def test_overlapping_justification_walks_a_base_goal(d):
    # kappa rewrites the conj-detour's redex too: the standard normal form
    # p* is no derivation in the base, but kappa's reduct is
    e = and_elim(and_intro(axiom_leaf(p), d), 1)
    kappa = constant_reduction([Conj(p, conclusion(d))], p, CHAIN_INNER)
    out = search_reduct(e, CHAIN_BASE, STD)
    assert out.by_normal_form and out.status == "no"
    out = search_reduct(e, CHAIN_BASE, STD + (kappa,))
    assert not out.by_normal_form
    assert out.status == "yes" and out.witness == CHAIN_INNER
