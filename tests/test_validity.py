"""Tests for argument validity over a base and the argument-backed
consequence evaluator."""

import gc
import random
import re
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prooflab import validity
from prooflab.arguments import (
    StructureError,
    Inference,
    Node,
    and_elim,
    and_intro,
    assumption,
    axiom_leaf,
    conclusion,
    derivation_to_structure,
    impl_intro,
    is_atomic_derivation,
    is_closed,
    or_intro_left,
    or_intro_right,
    structure_of_inference,
    structure_to_obj,
    weaken,
)
from prooflab.atomic_system import (
    Base,
    check_consistency,
    derive,
    format_rule,
    parse_base_text,
    parse_rule,
)
from prooflab.base_semantics import (
    SemanticsKind,
    Sequent,
    base_context,
    format_sequent,
    models,
    parse_sequent,
)
from prooflab.reductions import (
    DEFAULT_BUDGET,
    PROJECT_DETOUR,
    Reduction,
    constant_reduction,
    search_reduct,
    standard_reductions,
)
from prooflab.syntax import Atom, Conj, Disj, Impl, parse_formula
from prooflab.validity import (
    AlphaResult,
    Argument,
    Instantiation,
    Status,
    Suite,
    ValidityVerdict,
    check_valid,
    compare_consequence_notions,
    models_alpha,
    semantic_suite_provider,
)
from test_acceptance import base_family, sequent_pool
from test_atomic_system import rule_sets
from test_reductions import CHAIN_BASE, derivation_detours
from test_syntax import formulas

p, q, r = Atom("p"), Atom("q"), Atom("r")

B_PQ = parse_base_text("p.\nq.\n")
B_P = parse_base_text("p.\n")
B_EMPTY = Base(frozenset())
B_CHAIN = parse_base_text("p.\n(p => q)\n")


def synthesize_witness(base, sequent, *, strict=False):
    """An argument for the sequent read off the semantics, assuming the
    underlying consequence holds.  With strict=True only the standard
    reductions may be used, and synthesis refuses where that is not enough."""
    return validity._synthesize(validity._witnesses(base_context(base)), sequent, strict)


def valid(arg, base, **kw):
    return check_valid(arg, base, **kw).status is Status.VALID


# ---------------------------------------------------------------------------
# closed arguments, atomic conclusion


def test_derivation_is_valid():
    res = derive(B_CHAIN, frozenset(), "q")
    arg = Argument(derivation_to_structure(res.tree, B_CHAIN))
    assert valid(arg, B_CHAIN)


def test_detour_to_derivation_is_valid():
    d = and_elim(and_intro(axiom_leaf(p), axiom_leaf(q)), 1)
    assert valid(Argument(d), B_PQ)


def test_underivable_atom_is_invalid():
    verdict = check_valid(Argument(axiom_leaf(q)), B_P)
    assert verdict.status is Status.INVALID
    assert "closure" in verdict.reason


@settings(max_examples=120, deadline=None)
@given(derivation_detours())
def test_atomic_goal_by_normal_form_matches_the_full_search(d):
    # without justifications the normal form decides an atomic goal
    assume(is_closed(d) and isinstance(conclusion(d), Atom))
    ref = search_reduct(
        d, lambda e: is_atomic_derivation(e, CHAIN_BASE), standard_reductions()
    )
    assume(ref.status != "inconclusive")
    verdict = check_valid(Argument(d), CHAIN_BASE)
    want = Status.VALID if ref.status == "yes" else Status.INVALID
    assert verdict.status is want


def test_atomic_budget_exhaustion_is_inconclusive():
    d = and_elim(and_intro(axiom_leaf(q), axiom_leaf(q)), 1)
    verdict = check_valid(Argument(d), B_P, budget=1)
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.reason == "budget of 1 distinct structures exhausted"


# ---------------------------------------------------------------------------
# closed arguments, compound conclusion


def test_compound_budget_exhaustion_names_the_budget():
    pair = and_intro(axiom_leaf(p), axiom_leaf(q))
    d = and_elim(and_intro(pair, axiom_leaf(p)), 1)
    assert is_closed(d) and conclusion(d) == Conj(p, q)
    assert valid(Argument(d), B_PQ)
    verdict = check_valid(Argument(d), B_PQ, budget=1)
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.reason == "budget of 1 distinct structures exhausted"


def test_canonical_pair_is_valid():
    arg = Argument(and_intro(axiom_leaf(p), axiom_leaf(q)))
    assert valid(arg, B_PQ)
    verdict = check_valid(arg, B_P)
    assert verdict.status is Status.INVALID


def test_disjunct_introduction_validity_tracks_the_disjunct():
    assert valid(Argument(or_intro_left(axiom_leaf(p), q)), B_P)
    verdict = check_valid(Argument(or_intro_right(axiom_leaf(q), p)), B_P)
    assert verdict.status is Status.INVALID


def test_identity_implication_is_valid_everywhere():
    ident = impl_intro(assumption(p), p)
    assert is_closed(ident)
    assert valid(Argument(ident), B_P, suite_provider=semantic_suite_provider(B_P))
    assert valid(
        Argument(ident), B_EMPTY, suite_provider=semantic_suite_provider(B_EMPTY)
    )


def test_compound_axiomatic_leaf_justifies_nothing():
    d = Node(formula=Conj(p, q), axiomatic=True)
    verdict = check_valid(Argument(d), B_PQ)
    assert verdict.status is Status.INVALID


# ---------------------------------------------------------------------------
# open arguments and suites


def test_open_argument_without_instances_is_inconclusive():
    verdict = check_valid(Argument(assumption(p)), B_P)
    assert verdict.status is Status.INCONCLUSIVE
    assert "no closing instances" in verdict.reason


def test_open_argument_with_explicit_suite():
    suite = Suite(
        instances=(
            Instantiation(assignment=((p, Argument(axiom_leaf(p))),)),
        )
    )
    assert valid(Argument(assumption(p)), B_P, suite=suite)


def test_instances_outside_the_quantifier_domain_are_skipped():
    # the closing argument is not valid over the empty base, so it neither
    # confirms nor refutes; with nothing left, the answer is open
    suite = Suite(
        instances=(
            Instantiation(assignment=((p, Argument(axiom_leaf(p))),)),
        )
    )
    verdict = check_valid(Argument(assumption(p)), B_EMPTY, suite=suite)
    assert verdict.status is Status.INCONCLUSIVE
    assert any("skipped" in n for n in verdict.notes)


def test_vacuous_suite_validates():
    suite = Suite(instances=(), vacuous_reason="q has no closed valid argument")
    verdict = check_valid(Argument(assumption(q)), B_P, suite=suite)
    assert verdict.status is Status.VALID
    assert "no way of closing" in verdict.reason


def _suite(*assignments):
    return Suite(instances=tuple(Instantiation(assignment=a) for a in assignments))


P_DETOUR = and_elim(and_intro(axiom_leaf(p), axiom_leaf(q)), 0)

# verdicts no other test reaches: (argument, base, check_valid keywords,
# status, reason fragment)
SUITE_VERDICTS = {
    "instance-misses-an-assumption": (
        Argument(assumption(p)),
        B_P,
        dict(suite=_suite(())),
        Status.INCONCLUSIVE,
        "closing instance 0 misses assumptions ['p']",
    ),
    "instance-supplies-an-open-argument": (
        Argument(assumption(p)),
        B_P,
        dict(suite=_suite(((p, Argument(assumption(p))),))),
        Status.INCONCLUSIVE,
        "closing instance 0 supplies open arguments",
    ),
    # the argument for q is invalid over B_P, and it is not looked at
    "assignment-for-a-formula-not-open": (
        Argument(assumption(p)),
        B_P,
        dict(
            suite=_suite(
                ((p, Argument(axiom_leaf(p))), (q, Argument(axiom_leaf(q))))
            )
        ),
        Status.VALID,
        "all 1 usable closing instances yield valid closed arguments",
    ),
    # an open closing for an assumption leaves the check inconclusive; q is
    # not assumed, so its open argument plays no part
    "open-closing-for-a-formula-not-open": (
        Argument(assumption(p)),
        B_P,
        dict(
            suite=_suite(
                ((p, Argument(axiom_leaf(p))), (q, Argument(assumption(q))))
            )
        ),
        Status.VALID,
        "all 1 usable closing instances yield valid closed arguments",
    ),
    "closing-argument-unsettled": (
        Argument(assumption(p)),
        B_PQ,
        dict(suite=_suite(((p, Argument(P_DETOUR)),)), budget=1),
        Status.INCONCLUSIVE,
        "closing instance 0: validity of the argument for p could not be settled",
    ),
    "closed-instance-unsettled": (
        Argument(and_elim(and_intro(assumption(p), axiom_leaf(q)), 0)),
        B_PQ,
        dict(suite=_suite(((p, Argument(axiom_leaf(p))),)), budget=1),
        Status.INCONCLUSIVE,
        "closing instance 0 could not be settled: ",
    ),
    "empty-suite-without-a-vacuous-reason": (
        Argument(assumption(p)),
        B_P,
        dict(suite=Suite()),
        Status.INCONCLUSIVE,
        "checked against an empty set of closing instances",
    ),
    # closed, canonical, and its sub-argument is open with nothing to close it
    "sub-argument-unsettled": (
        Argument(impl_intro(assumption(p), p)),
        B_EMPTY,
        {},
        Status.INCONCLUSIVE,
        "a sub-argument could not be settled",
    ),
}


@pytest.mark.parametrize(
    "arg, base, kw, status, fragment",
    SUITE_VERDICTS.values(),
    ids=list(SUITE_VERDICTS),
)
def test_suite_verdicts(arg, base, kw, status, fragment):
    verdict = check_valid(arg, base, **kw)
    assert verdict.status is status
    assert fragment in verdict.reason


def test_provider_closes_with_semantic_witnesses():
    provider = semantic_suite_provider(B_CHAIN)
    verdict = check_valid(
        Argument(assumption(Conj(p, q))), B_CHAIN, suite_provider=provider
    )
    assert verdict.status is Status.VALID


def test_refuting_instance_wins():
    # projecting the left disjunct is refuted over a base where only the
    # right disjunct has a valid argument
    proj = structure_of_inference(
        Inference(subs=(assumption(Disj(q, p)),), conclusion=q)
    )
    arg = Argument(proj, (PROJECT_DETOUR,))
    refuter = Suite(
        instances=(
            Instantiation(
                assignment=(
                    (Disj(q, p), Argument(or_intro_right(axiom_leaf(p), q))),
                )
            ),
        )
    )
    verdict = check_valid(arg, B_P, suite=refuter)
    assert verdict.status is Status.INVALID


def test_projection_argument_valid_where_left_disjunct_rules():
    proj = structure_of_inference(
        Inference(subs=(assumption(Disj(p, q)),), conclusion=p)
    )
    arg = Argument(proj, (PROJECT_DETOUR,))
    supporter = Suite(
        instances=(
            Instantiation(
                assignment=(
                    (Disj(p, q), Argument(or_intro_left(axiom_leaf(p), q))),
                )
            ),
        )
    )
    assert valid(arg, B_P, suite=supporter)


def test_weaken_argument_with_synthesized_closing():
    d = weaken(assumption(Impl(p, q)), r)
    stub = structure_of_inference(Inference(subs=(assumption(p),), conclusion=q))
    closing = Argument(
        impl_intro(stub, p),
        (constant_reduction([p], q, axiom_leaf(q), name="close[p -> q]"),),
    )
    suite = Suite(
        instances=(Instantiation(assignment=((Impl(p, q), closing),)),)
    )
    base = parse_base_text("q.\n")
    assert valid(
        Argument(d),
        base,
        suite=suite,
        suite_provider=semantic_suite_provider(base),
    )


# ---------------------------------------------------------------------------
# the consequence evaluator


def test_alpha_on_derivable_atom():
    res = models_alpha(B_CHAIN, parse_sequent("|- q"))
    assert res.holds is True
    assert res.witness is not None
    assert is_closed(res.witness.structure)


def test_alpha_premise_step_with_live_premises():
    res = models_alpha(B_CHAIN, parse_sequent("p |- q"))
    assert res.holds is True
    assert res.witness.justifications  # the premise-closing reduction


def test_alpha_vacuous_premises():
    res = models_alpha(B_EMPTY, parse_sequent("p |- q"))
    assert res.holds is True
    res2 = models_alpha(B_P, parse_sequent("p |- q"))
    assert res2.holds is False


def test_alpha_excluded_middle_both_ways():
    seq = parse_sequent("|- p | ~p")
    assert models_alpha(B_P, seq).holds is True
    assert models_alpha(B_EMPTY, seq).holds is True


def test_alpha_failure_without_witness():
    res = models_alpha(B_EMPTY, parse_sequent("|- p"))
    assert res.holds is False
    assert res.witness is None
    assert "underlying consequence fails" in res.verdict.reason


def test_alpha_conjunction_and_implication():
    assert models_alpha(B_CHAIN, parse_sequent("|- p & q")).holds is True
    assert models_alpha(B_CHAIN, parse_sequent("|- p -> q")).holds is True
    assert models_alpha(B_P, parse_sequent("|- q -> p")).holds is True
    assert models_alpha(B_P, parse_sequent("|- p -> q")).holds is False


def _public_route(base, seq, strict):
    """models_alpha spelled out through the public functions."""
    if not models(SemanticsKind.STANDARD, base, seq, trace=False).holds:
        return Status.INVALID, None, None
    try:
        arg = synthesize_witness(base, seq, strict=strict)
    except StructureError as exc:
        return Status.INCONCLUSIVE, str(exc), None
    verdict = check_valid(arg, base, suite_provider=semantic_suite_provider(base))
    return verdict.status, verdict.reason, arg


def test_alpha_shared_evaluator_matches_public_route():
    for base in base_family()[::6]:
        for seq in sequent_pool()[::5]:
            for strict in (False, True):
                res = models_alpha(base, seq, strict=strict)
                status, reason, arg = _public_route(base, seq, strict)
                assert res.verdict.status is status
                if reason is not None:
                    assert res.verdict.reason == reason
                if arg is None:
                    assert res.witness is None
                else:
                    assert res.witness.structure == arg.structure
                    names = [j.name for j in res.witness.justifications]
                    assert names == [j.name for j in arg.justifications]


def test_alpha_strict_mode():
    assert models_alpha(B_CHAIN, parse_sequent("|- q"), strict=True).holds is True
    assert (
        models_alpha(B_EMPTY, parse_sequent("|- p | ~p"), strict=True).holds
        is True
    )
    live = models_alpha(B_CHAIN, parse_sequent("p |- q"), strict=True)
    assert live.holds is None
    assert live.verdict.status is Status.INCONCLUSIVE
    needs_close = models_alpha(B_P, parse_sequent("|- p -> p"), strict=True)
    assert needs_close.holds is None


def test_alpha_agrees_with_clause_semantics_on_sample():
    bases = [
        B_EMPTY,
        B_P,
        B_PQ,
        B_CHAIN,
        parse_base_text("([p => q] => r)\nq.\n"),
        parse_base_text("(p, q => r)\np.\n"),
    ]
    sequents = [
        parse_sequent(text)
        for text in [
            "|- p",
            "|- p | ~p",
            "|- ~~p -> p",
            "p |- q",
            "p & q |- p",
            "|- p -> p",
            "|- p | q",
            "~p |- ~p",
            "p -> q, p |- q",
            "|- bot",
        ]
    ]
    for base in bases:
        for seq in sequents:
            want = models(SemanticsKind.STANDARD, base, seq, trace=False).holds
            got = models_alpha(base, seq)
            assert got.holds is want, (base.name, seq, got.verdict)


def test_compare_table_shapes():
    rows = compare_consequence_notions(
        B_P,
        [parse_sequent("|- p"), parse_sequent("|- q"), parse_sequent("q |- p")],
    )
    assert [row["agree"] for row in rows] == [True, True, True]
    assert rows[0]["alpha"] == "valid"
    assert rows[1]["alpha"] == "invalid"


# ---------------------------------------------------------------------------
# witness structure details


def test_witness_for_disjunction_picks_the_live_disjunct():
    arg = synthesize_witness(B_P, parse_sequent("|- p | q"))
    assert conclusion(arg.structure) == Disj(p, q)
    assert arg.structure.children[0].formula == p


def test_witness_recheck_guards_synthesis():
    # the witness the evaluator hands back is itself checked; spot-check
    # that the returned argument validates independently
    res = models_alpha(B_CHAIN, parse_sequent("|- (p -> q) & (q -> q)"))
    assert res.holds is True
    again = check_valid(
        res.witness,
        B_CHAIN,
        suite_provider=semantic_suite_provider(B_CHAIN),
    )
    assert again.status is Status.VALID


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [
            "p.\n",
            "q.\n",
            "p.\nq.\n",
            "p.\n(p => q)\n",
            "([p => q] => r)\nq.\n",
            "",
        ]
    ),
    st.sampled_from(
        [
            "|- p",
            "|- q",
            "|- p & q",
            "|- p | q",
            "|- p -> q",
            "|- ~p",
            "p |- q",
            "q |- q",
            "|- (p -> q) | p",
        ]
    ),
)
def test_alpha_matches_clause_semantics(base_text, seq_text):
    base = parse_base_text(base_text)
    seq = parse_sequent(seq_text)
    want = models(SemanticsKind.STANDARD, base, seq, trace=False).holds
    assert models_alpha(base, seq).holds is want


# ---------------------------------------------------------------------------
# the witnesses and verdicts a base's context keeps


def _renamed(text):
    # atoms no other test uses, so no cache shared across bases, such as
    # the saturation's, is warm for them
    return re.sub(r"\b([pqrst])\b", r"memo_\1", text)


def _alpha_rows(base, seqs, budget=DEFAULT_BUDGET):
    rows = []
    for seq in seqs:
        res = models_alpha(base, seq, budget=budget)
        w = res.witness
        rows.append(
            (
                res.verdict.status,
                res.verdict.reason,
                res.verdict.notes,
                None if w is None else structure_to_obj(w.structure),
                None if w is None else [j.name for j in w.justifications],
            )
        )
    return rows


def _premise_kinds(base, seqs):
    """For each premise sequent whose consequence holds (so models_alpha
    keeps its verdict): True when every premise holds, False when one
    fails.  A function, so that no reference to the context outlives it."""
    ctx = base_context(base)
    return {
        all(map(ctx.holds, seq.premises))
        for seq in seqs
        if seq.premises and ctx.entails(seq.premises, seq.conclusion)
    }


def test_context_memo_changes_nothing_and_leaks_nothing():
    rng = random.Random(20261018)
    pool = sequent_pool()
    kinds = set()
    for family_base in rng.sample(base_family(), 12):
        rules = [_renamed(format_rule(r)) for r in sorted(family_base.rules, key=str)]
        seqs = [
            parse_sequent(_renamed(format_sequent(seq)))
            for seq in rng.sample(pool, 15)
        ]
        base = Base(frozenset(map(parse_rule, rules)))
        assert base._context is None
        cold = _alpha_rows(base, seqs)
        kinds |= _premise_kinds(base, seqs)
        ctx = weakref.ref(base_context(base))
        assert semantic_suite_provider(base) is semantic_suite_provider(base)
        order = rng.sample(range(len(seqs)), len(seqs))
        warm = _alpha_rows(base, [seqs[i] for i in order])
        assert [cold[i] for i in order] == warm
        gone = weakref.ref(base)
        del base
        gc.collect()
        assert gone() is None and ctx() is None
        rebuilt = Base(frozenset(map(parse_rule, rules)))
        assert rebuilt._context is None
        assert _alpha_rows(rebuilt, seqs) == cold
        assert base_context(rebuilt) is not None
    # the verdicts dropped with each base covered premise sequents of both
    # kinds: every premise holds, and some premise fails
    assert kinds == {True, False}
    # and the shared verdicts go with the last memo that kept them
    assert any("memo_" in v.reason for v in validity._SHARED.values())
    del rebuilt
    gc.collect()
    assert not any("memo_" in v.reason for v in validity._SHARED.values())


def test_a_warm_pass_builds_no_node(monkeypatch):
    rng = random.Random(20261020)
    pool = sequent_pool()
    bases = [
        Base(frozenset(parse_rule(_renamed(format_rule(r))) for r in b.rules))
        for b in rng.sample(base_family(), 6)
    ]
    seqs = [parse_sequent(_renamed(format_sequent(s))) for s in pool]
    kinds = set()
    for base in bases:
        kinds |= _premise_kinds(base, seqs)
    # premise sequents of both kinds: every premise holds, some premise fails
    assert kinds == {True, False}
    built = []
    real = Node.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Node, "__post_init__", counting)
    # and no answer, argument or reduction either
    made = []
    for cls in (AlphaResult, Argument, Reduction):

        def init(self, *args, _real=cls.__init__, **kw):
            made.append(type(self))
            _real(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", init)
    answers = []

    def rows():
        out = []
        for base in bases:
            for seq in seqs:
                res = models_alpha(base, seq)
                answers.append(res)
                w = res.witness
                out.append(
                    (
                        res.verdict.status,
                        res.holds,
                        None if w is None else w.structure,
                        None if w is None else [j.name for j in w.justifications],
                    )
                )
        return out

    cold = rows()
    assert built
    assert set(made) == {AlphaResult, Argument, Reduction}
    built.clear()
    made.clear()
    cold_answers = answers[:]
    answers.clear()
    warm = rows()
    assert built == []
    assert made == []
    # every pair's answer is the very object the cold pass returned
    assert len(answers) == len(cold_answers)
    assert all(w is c for w, c in zip(answers, cold_answers))
    assert warm == cold


def test_the_table_keeps_one_answer_per_sequent_and_budget():
    base = parse_base_text("memo_t.\n(memo_t => memo_u)\n(memo_w => memo_x)\n")
    texts = [
        "|- memo_u",
        "|- memo_t -> memo_u",
        "|- memo_u -> memo_t",
        "|- (memo_t -> memo_t) & memo_u",
        "memo_t |- memo_u",
        "memo_t, memo_u |- memo_u & memo_t",
        "memo_v |- memo_u",
        "memo_w |- memo_x",
        "|- memo_x",  # fails: no answer kept
    ]
    table = semantic_suite_provider(base).results
    ctx = base_context(base)
    asked, first = set(), {}
    for budget in (DEFAULT_BUDGET, 1):
        for text in texts:
            seq = parse_sequent(text)
            res = models_alpha(base, seq, budget=budget)
            key = (seq.premises, seq.conclusion, budget)
            first[key] = res
            if ctx.entails(seq.premises, seq.conclusion):
                asked.add(key)
            else:
                assert res.holds is False and key not in table
    assert asked <= table.keys()
    # every other entry is a witness closing: a closed sequent for a
    # formula that holds, at a budget that was asked
    closings = table.keys() - asked
    assert closings
    for prems, concl, budget in closings:
        assert prems == frozenset() and ctx.holds(concl)
        assert budget in (DEFAULT_BUDGET, 1)
    # each entry is the answer models_alpha gives for it, closings included
    for (prems, concl, budget), kept in table.items():
        again = models_alpha(base, Sequent(prems, concl), budget=budget)
        assert again is kept
        assert again.witness is not None
        if not prems:
            assert again.witness is semantic_suite_provider(base).witness(concl)
    for key in asked:
        assert first[key] is table[key]
    # a budget of 1 leaves an implication's witness unsettled: its own entry
    impl = parse_sequent("|- memo_u -> memo_t")
    full = table[(impl.premises, impl.conclusion, DEFAULT_BUDGET)]
    low = table[(impl.premises, impl.conclusion, 1)]
    assert full.holds is True and low.holds is None
    assert models_alpha(base, impl, budget=1) is low
    assert models_alpha(base, impl) is full
    # strict mode after the unrestricted answers were kept: still refused,
    # and the kept answer stays as it was
    live = parse_sequent("memo_t |- memo_u")
    kept = table[(live.premises, live.conclusion, DEFAULT_BUDGET)]
    res = models_alpha(base, live, strict=True)
    assert res.holds is None and res.witness is None
    assert "needs a justification beyond the standard" in res.verdict.reason
    assert table[(live.premises, live.conclusion, DEFAULT_BUDGET)] is kept
    assert models_alpha(base, live) is kept
    size = len(table)
    for budget in (DEFAULT_BUDGET, 1):
        for text in texts:
            models_alpha(base, parse_sequent(text), budget=budget)
    assert len(table) == size


def test_witness_verdict_is_checked_once_per_budget(monkeypatch):
    base = parse_base_text("memo_r.\n(memo_r => memo_s)\n")
    seq = Sequent(frozenset(), parse_formula("memo_r -> memo_s"))
    first = models_alpha(base, seq)
    assert first.verdict.status is Status.VALID
    calls = []
    real = validity._check_closed

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(validity, "_check_closed", counting)
    again = models_alpha(base, seq)
    assert again.witness is first.witness and again.verdict == first.verdict
    assert calls == []
    # another budget is another verdict
    assert models_alpha(base, seq, budget=50).verdict.status is Status.VALID
    assert calls


def _count_checks(monkeypatch):
    """The names of the check_valid and _check_closed calls made from here
    on, in order."""
    calls = []
    for name in ("check_valid", "_check_closed"):
        real = getattr(validity, name)

        def counting(*args, _real=real, _name=name, **kw):
            calls.append(_name)
            return _real(*args, **kw)

        monkeypatch.setattr(validity, name, counting)
    return calls


MEMO_BASE = "memo_t.\n(memo_t => memo_u)\n"


@pytest.mark.parametrize(
    "seq_text, reason",
    [
        # every premise holds: a constant reduction justifies the step
        ("memo_t |- memo_u", "all 1 usable closing instances yield valid"),
        # a premise fails: no closed valid argument can close the step
        ("memo_v |- memo_u", "no way of closing it exists"),
    ],
    ids=["live", "vacuous"],
)
def test_premise_verdict_is_checked_once_per_budget(monkeypatch, seq_text, reason):
    base = parse_base_text(MEMO_BASE)
    first = models_alpha(base, parse_sequent(seq_text))
    assert first.holds is True and first.verdict.reason.startswith(reason)
    calls = _count_checks(monkeypatch)
    # an equal sequent, parsed anew, asks the same question
    again = models_alpha(base, parse_sequent(seq_text))
    assert calls == []
    assert again.verdict is first.verdict
    # the argument is rebuilt, equal by value
    assert again.witness.structure == first.witness.structure
    names = [j.name for j in again.witness.justifications]
    assert names == [j.name for j in first.witness.justifications]
    # another budget is checked anew
    other = models_alpha(base, parse_sequent(seq_text), budget=50)
    assert other.verdict == first.verdict
    assert "check_valid" in calls


def test_strict_answers_are_unchanged_by_kept_verdicts():
    # the answers strict mode gives on a cold context, pinned
    refused = {
        "memo_t |- memo_u": "a one-step argument from live premises needs a "
        "justification beyond the standard reductions",
        "|- memo_t -> memo_t": "the witness needs justifications beyond the "
        "standard reductions",
    }
    allowed = {
        "memo_v |- memo_u": "no way of closing it exists: memo_v has no "
        "closed valid argument over this base",
        "|- memo_u": "reduces to a derivation of memo_u in the base (0 steps)",
    }
    base = parse_base_text(MEMO_BASE)
    for warm in (False, True):
        for text, reason in refused.items():
            res = models_alpha(base, parse_sequent(text), strict=True)
            want = ValidityVerdict(Status.INCONCLUSIVE, reason)
            assert res == AlphaResult(verdict=want, witness=None, holds=None)
            with pytest.raises(StructureError, match=reason):
                synthesize_witness(base, parse_sequent(text), strict=True)
        for text, reason in allowed.items():
            res = models_alpha(base, parse_sequent(text), strict=True)
            assert res.verdict == ValidityVerdict(Status.VALID, reason)
            assert res.holds is True and res.witness.justifications == ()
        if not warm:
            # the same sequents, unrestricted, fill the memo
            for text in [*refused, *allowed]:
                assert models_alpha(base, parse_sequent(text)).holds is True


def test_another_bases_provider_keeps_no_verdict_for_this_base():
    home, other = parse_base_text("memo_t.\n"), parse_base_text("memo_w.\n")
    assert models_alpha(home, parse_sequent("|- memo_t")).holds is True
    # home's witness for memo_t, valid over home, closes the assumption
    # over a base that does not derive memo_t
    got = check_valid(
        Argument(assumption(parse_formula("memo_t"))),
        other,
        suite_provider=semantic_suite_provider(home),
    )
    assert got.status is Status.INCONCLUSIVE
    assert got.notes == (
        "closing instance 0 skipped: its argument for memo_t is not valid",
    )


def _sequents(min_premises, max_premises):
    return st.builds(
        lambda prems, concl: Sequent(frozenset(prems), concl),
        st.lists(formulas(2), min_size=min_premises, max_size=max_premises),
        formulas(2),
    )


@settings(max_examples=40, deadline=None)
@given(
    rule_sets(),
    st.lists(_sequents(0, 0), min_size=1, max_size=3),
    st.lists(_sequents(1, 2), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_warm_rows_equal_cold_rows_of_an_equal_base(rs, bare, premised, rnd):
    assume(check_consistency(rs))
    rules = [_renamed(format_rule(r)) for r in sorted(rs, key=str)]
    seqs = [parse_sequent(_renamed(format_sequent(s))) for s in bare + premised]
    # a budget of 1 leaves an implication's witness unsettled
    asked = [(seq, budget) for seq in seqs for budget in (DEFAULT_BUDGET, 1)]

    def fresh():
        base = Base(frozenset(map(parse_rule, rules)))
        assert base._context is None
        return base

    base = fresh()
    for seq, budget in asked:
        models_alpha(base, seq, budget=budget)
    rnd.shuffle(asked)
    warm = [_alpha_rows(base, [seq], budget) for seq, budget in asked]
    del base
    # each row on its own equal base, dropped before the next is built
    cold = [_alpha_rows(fresh(), [seq], budget) for seq, budget in asked]
    assert warm == cold


@settings(max_examples=60, deadline=None)
@given(
    rule_sets(),
    st.lists(_sequents(0, 2), min_size=1, max_size=4),
    st.booleans(),
)
def test_every_kept_answer_has_a_true_consequence(rs, seqs, strict):
    # models_alpha answers from its table before it asks the consequence,
    # which is sound only because nothing is kept where the consequence
    # fails: not by models_alpha, and not by the witness closings
    assume(check_consistency(rs))
    base = Base(rs)
    for seq in seqs:
        for budget in (DEFAULT_BUDGET, 1):
            models_alpha(base, seq, budget=budget, strict=strict)
    ctx = base_context(base)
    for prems, concl, _ in ctx.validity.results:
        assert ctx.entails(prems, concl)
