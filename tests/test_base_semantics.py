"""Consequence evaluators, counterexample search, export harness, IL prover."""

from __future__ import annotations

import gc
import pickle
import random
import re
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    enum_derivable_atoms,
    heyting_entails,
    heyting_valid,
    naive_derivable,
    ref_standard,
    ref_variant,
)
from prooflab import atomic_system, base_semantics, validity
from prooflab.arguments import StructureError, conclusion
from prooflab.atomic_system import (
    Base,
    atoms_of_base,
    axiom,
    check_consistency,
    format_rule,
    parse_base_text,
    parse_rule,
)
from prooflab.base_semantics import (
    EvalResult,
    EvalTrace,
    ExportReport,
    SearchBounds,
    SemanticsKind,
    Sequent,
    BaseContext,
    base_completeness_witness,
    export_principle_holds,
    format_sequent,
    fresh_atom,
    il_derives,
    models,
    models_monotone_bounded,
    base_context,
    parse_sequent,
    search_counterexample,
)
from prooflab.syntax import (
    Atom,
    BOT,
    Conj,
    Disj,
    FormulaSyntaxError,
    Impl,
    atoms_of,
    parse_formula,
)
from prooflab.validity import _witnesses, models_alpha
from test_acceptance import base_family, sequent_pool
from test_atomic_system import rule_sets
from test_syntax import formulas

STD = SemanticsKind.STANDARD
SDQ = SemanticsKind.SANDQVIST


def seq(text: str) -> Sequent:
    return parse_sequent(text)


def base(text: str) -> Base:
    return parse_base_text(text)


EMPTY = Base()


# ---------------------------------------------------------------------------
# sequent syntax


def test_sequent_parsing():
    s = seq("p, q -> r |- s")
    assert s.premises == {parse_formula("p"), parse_formula("q -> r")}
    assert s.conclusion == Atom("s")
    assert parse_sequent(format_sequent(s)) == s
    assert seq("|- p").premises == frozenset()
    with pytest.raises(Exception):
        parse_sequent("p |- q |- r")


def test_a_blank_premise_is_a_syntax_error():
    for text, pos in (
        ("p,,q |- q", 2),
        (", |- r", 0),
        ("p, |- q", 2),
        ("p , , q |- q", 3),
        ("  p,\t,q|- q", 4),
    ):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_sequent(text)
        assert (info.value.message, info.value.text, info.value.pos) == (
            "expected a formula",
            text,
            pos,
        )
    # a blank left side still means no premises
    for text in ("|- q", "  |- q", "\t|- q"):
        assert parse_sequent(text) == Sequent(conclusion=Atom("q"))
    assert parse_sequent(" p , q |- q").premises == {Atom("p"), Atom("q")}


def test_a_syntax_error_in_a_part_is_placed_in_the_whole_sequent():
    for text, message, pos in (
        # the premise ' q & ' ends at offset 7, where '|-' starts
        ("p, q & |- r", "expected a formula", 7),
        ("p, (q |- r", "expected ')'", 6),
        ("p, q $ |- r", "unexpected character '$'", 5),
        ("p |- q &", "expected a formula", 8),
        ("p, q |-  r)", "trailing input", 10),
    ):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_sequent(text)
        assert (info.value.message, info.value.text, info.value.pos) == (
            message,
            text,
            pos,
        )


# ---------------------------------------------------------------------------
# the two evaluators


def test_atoms_ground_in_derivability():
    assert models(STD, base("p."), seq("|- p")).holds
    assert not models(STD, EMPTY, seq("|- p")).holds
    assert models(STD, base("p.\n(p => q)"), seq("|- q")).holds


def test_premises_read_materially():
    # vacuous: p is not derivable over the empty base
    assert models(STD, EMPTY, seq("p |- q")).holds
    assert models(SDQ, EMPTY, seq("p |- q")).holds


def test_non_monotonicity_witness():
    grown = base("p.")
    assert not models(STD, grown, seq("p |- q")).holds
    assert not models(SDQ, grown, seq("p |- q")).holds


def test_conjunction_and_implication_clauses():
    b = base("p.\nq.")
    assert models(STD, b, seq("|- p & q")).holds
    assert not models(STD, base("p."), seq("|- p & q")).holds
    assert models(STD, base("(p => q)"), seq("|- p -> q")).holds
    assert not models(STD, base("p."), seq("|- p -> q")).holds


def test_disjunction_clauses_diverge_in_shape():
    b = base("p.")
    std = models(STD, b, seq("|- p | q"))
    sdq = models(SDQ, b, seq("|- p | q"))
    assert std.holds and sdq.holds
    assert sdq.trace.universe is not None
    assert any("fresh" in note for note in sdq.trace.notes)
    assert any("quantified atom C" in note for note in sdq.trace.notes)


def test_excluded_middle_holds_on_every_consistent_base():
    for b in [EMPTY, base("p."), base("(p => q)"), base("(p => bot)")]:
        assert models(STD, b, seq("|- p | ~p")).holds
        assert models(SDQ, b, seq("|- p | ~p")).holds


def test_bot_never_holds_on_a_consistent_base():
    assert not models(STD, EMPTY, seq("|- bot")).holds
    assert not models(SDQ, base("p."), seq("|- bot")).holds


def test_fresh_atom_avoids_collisions():
    assert fresh_atom({"p", "q"}) == "c"
    assert fresh_atom({"c", "c1"}) == "c2"


# oracle agreement ----------------------------------------------------------

formula_pool = [
    "p", "q", "bot", "~p", "p & q", "p | q", "p -> q", "q -> p",
    "p | ~p", "~~p", "~~p -> p", "(p -> q) -> q", "p & (p -> q)",
    "p | q -> q | p", "~(p & q)", "p -> q | p",
]

base_pool = [
    "", "p.", "q.", "p.\nq.", "(p => q)", "p.\n(p => q)",
    "(p => bot)", "(q => p)", "p.\n(q => bot)", "([p => q] => r)\nq.",
]


@pytest.mark.parametrize("btext", base_pool)
def test_standard_matches_classical_collapse(btext):
    b = parse_base_text(btext)
    derivable = enum_derivable_atoms(b.rules, {"p", "q", "r", "bot"}, 6)
    for left in [None, "p", "~p", "p -> q"]:
        for right in formula_pool:
            premises = frozenset({parse_formula(left)}) if left else frozenset()
            s = Sequent(premises=premises, conclusion=parse_formula(right))
            expect = ref_standard(premises, s.conclusion, derivable)
            assert models(STD, b, s, trace=False).holds == expect, (btext, left, right)


@pytest.mark.parametrize("btext", base_pool)
def test_variant_matches_direct_transcription(btext):
    b = parse_base_text(btext)
    derivable = enum_derivable_atoms(b.rules, {"p", "q", "r", "bot"}, 6)
    for right in formula_pool:
        s = Sequent(conclusion=parse_formula(right))
        got = models(SDQ, b, s, trace=False)
        universe = frozenset(got.trace.universe or ())
        expect = ref_variant(s.premises, s.conclusion, derivable, universe)
        assert got.holds == expect, (btext, right)


kernel_formulas = st.recursive(
    st.one_of(st.sampled_from(["p", "q", "r"]).map(Atom), st.just(BOT)),
    lambda sub: st.one_of(
        st.builds(Conj, sub, sub), st.builds(Disj, sub, sub), st.builds(Impl, sub, sub)
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.frozensets(kernel_formulas, max_size=2), kernel_formulas)
def test_kernel_matches_both_oracles(data, premises, conclusion):
    b = data.draw(st.sampled_from(base_family()))
    derivable = naive_derivable(b.rules)
    used = atoms_of_base(b) | atoms_of(conclusion)
    for g in premises:
        used |= atoms_of(g)
    assert "fresh" not in used
    universe = used | {"fresh"}
    s = Sequent(premises=premises, conclusion=conclusion)
    want_std = ref_standard(premises, conclusion, derivable)
    want_var = ref_variant(premises, conclusion, derivable, universe)
    assert base_context(b).entails(premises, conclusion) == want_std == want_var
    assert models(STD, b, s, trace=False).holds == want_std
    assert models(SDQ, b, s, trace=False).holds == want_var


@pytest.mark.parametrize("btext", base_pool)
def test_traced_and_untraced_models_agree(btext):
    b = parse_base_text(btext)
    for left in [None, "p", "~p", "p -> q"]:
        for right in formula_pool:
            premises = frozenset({parse_formula(left)}) if left else frozenset()
            s = Sequent(premises=premises, conclusion=parse_formula(right))
            for kind in (STD, SDQ):
                traced = models(kind, b, s)
                plain = models(kind, b, s, trace=False)
                assert traced.holds == plain.holds, (btext, left, right, kind)
                assert traced.trace.universe == plain.trace.universe
                assert traced.trace.notes == plain.trace.notes
                assert traced.trace.kind == plain.trace.kind == kind.value
                assert traced.trace.entries and not plain.trace.entries
                # the last entry is the sequent's own clause
                assert traced.trace.entries[-1][-1] == traced.holds


def test_trace_entries_follow_the_clauses_in_order():
    # each pair is logged once, after the pairs its clause asked about; a
    # conjunction stops at a failed conjunct, a disjunction at a true
    # disjunct, and disjunction elimination at the first universe atom
    # entailed by both disjuncts that fails
    b = base("p.\n(q => r)")
    std = models(STD, b, seq("p |- (p | q) & (q | p) & ~bot"))
    assert std.holds and std.trace.entries == [
        ("atom", "", "p", True),
        ("disj", "", "p | q", True),
        ("atom", "", "q", False),
        ("disj", "", "q | p", True),
        ("conj", "", "(p | q) & (q | p)", True),
        ("bot", "", "bot", False),
        ("premises", "bot", "bot", True),
        ("impl", "", "~bot", True),
        ("conj", "", "(p | q) & (q | p) & ~bot", True),
        ("premises", "p", "(p | q) & (q | p) & ~bot", True),
    ]
    sdq = models(SDQ, b, seq("|- (p -> q | r) & (q | p)"))
    assert sdq.trace.universe == ("p", "q", "r", "c")
    assert not sdq.holds and sdq.trace.entries == [
        ("atom", "", "p", True),
        ("atom", "", "q", False),
        ("premises", "q", "p", True),
        ("atom", "", "r", False),
        ("premises", "r", "p", True),
        ("premises", "q", "q", True),
        ("premises", "r", "q", True),
        ("disj-elim", "", "q | r", False),
        ("premises", "p", "q | r", False),
        ("impl", "", "p -> q | r", False),
        ("conj", "", "(p -> q | r) & (q | p)", False),
    ]


def test_context_lives_exactly_as_long_as_its_base():
    text = "gc_s.\n(gc_s => gc_t)"
    b = parse_base_text(text)
    ctx = base_context(b)
    assert base_context(b) is ctx
    # an equal base gets a context of its own, which answers alike
    twin = parse_base_text(text)
    twin_ctx = base_context(twin)
    assert twin_ctx is not ctx
    assert twin_ctx.derivable == ctx.derivable and twin_ctx.atoms == ctx.atoms
    assert models(SDQ, b, seq("gc_s |- gc_t | r")).holds
    assert models_alpha(b, seq("|- gc_s & gc_t")).holds
    # the validity layer's witnesses live in the context and go with it
    assert Atom("gc_t") in ctx.validity.args
    with pytest.raises(StructureError):
        ctx.validity.witness(Atom("r"))
    # so does the kept consequence answer: the table is the only holder of
    # a sequent asked about once its caller drops it
    asked = seq("gc_t |- gc_s")
    assert models(STD, b, asked, trace=False).holds
    assert models(STD, twin, asked, trace=False).holds
    # (the traced call above renders its trace and keeps no answer)
    assert ctx.answers == {seq("|- gc_s & gc_t"): True, asked: True}
    assert twin_ctx.answers == {asked: True}
    kept = weakref.ref(asked)
    gone = weakref.ref(ctx)
    twin_gone = weakref.ref(twin_ctx)
    del b, ctx, asked
    gc.collect()
    assert gone() is None
    # the twin's answer still holds the sequent; its context outlives b's
    assert kept() is not None and twin_gone() is not None
    del twin, twin_ctx
    gc.collect()
    assert twin_gone() is None
    assert kept() is None


def test_shared_inferences_keep_no_context_alive():
    b = parse_base_text("gc_u.\n(gc_u => gc_v)")
    # a premise argument and an implication's witness: both one-step
    # inferences, which every base shares
    assert models_alpha(b, seq("gc_u |- gc_v")).holds
    assert models_alpha(b, seq("|- gc_u -> gc_v")).holds
    assert models_alpha(b, seq("gc_w |- gc_v")).holds
    assert validity._inference.cache_info().currsize > 0
    gone = weakref.ref(base_context(b))
    del b
    gc.collect()
    assert gone() is None


def test_building_a_context_does_not_revalidate_its_base(monkeypatch):
    b = parse_base_text("p.\n(p => q)")
    calls = []

    def counting(rules):
        calls.append(rules)
        return check_consistency(rules)

    monkeypatch.setattr(atomic_system, "check_consistency", counting)
    ctx = BaseContext(b)
    assert conclusion(_witnesses(ctx).witness(Atom("q")).structure) == Atom("q")
    assert calls == []


def test_context_answers_from_its_own_saturation(monkeypatch):
    b = parse_base_text("own_p.\n(own_p => own_q)\n([own_r => own_s] => own_t)")
    ctx = base_context(b)

    def refuse(*args, **kwargs):
        raise AssertionError("went back to the saturation cache")

    monkeypatch.setattr(atomic_system, "_saturate", refuse)
    monkeypatch.setattr(base_semantics, "_saturate", refuse)
    assert ctx.derivable == {"own_p", "own_q"}
    state = _witnesses(ctx)
    assert conclusion(state.witness(Atom("own_q")).structure) == Atom("own_q")
    with pytest.raises(StructureError):
        state.witness(Atom("own_t"))
    assert models_alpha(b, seq("|- own_p & (own_s -> own_q)")).holds


def test_evaluation_is_stable_under_memoization():
    b = base("p.\n(p => q)")
    s = seq("p -> q |- q | r")
    first = models(STD, b, s)
    second = models(STD, b, s)
    assert first.holds == second.holds


def test_a_warm_untraced_pass_builds_no_result(monkeypatch):
    # atoms no other test uses, so the variant's universes are new ones
    def renamed(text):
        return re.sub(r"\b([pqrst])\b", r"shared_\1", text)

    rng = random.Random(20261020)
    bases = [
        Base(frozenset(parse_rule(renamed(format_rule(r))) for r in b.rules))
        for b in rng.sample(base_family(), 6)
    ]
    seqs = [parse_sequent(renamed(format_sequent(s))) for s in sequent_pool()]
    built = []
    for cls in (EvalTrace, EvalResult):
        real = cls.__init__

        def counting(self, *args, real=real, **kwargs):
            built.append(type(self))
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    asked = []
    entails = BaseContext.entails

    def counting_entails(self, premises, goal):
        asked.append((self, premises, goal))
        return entails(self, premises, goal)

    monkeypatch.setattr(BaseContext, "entails", counting_entails)

    def rows():
        out = []
        for b in bases:
            for s in seqs:
                for kind in (STD, SDQ):
                    res = models(kind, b, s, trace=False)
                    t = res.trace
                    out.append((res.holds, t.universe, t.notes, t.kind))
                out.append(models_alpha(b, s).holds)
        return out

    cold = rows()
    # the first ask over each base decides each distinct sequent once, and
    # the context keeps one answer per distinct sequent, shared by all three
    # relations
    assert len(asked) == len(bases) * len(set(seqs))
    for b in bases:
        answers = base_context(b).answers
        assert answers.keys() == set(seqs)
        assert all(answers[s] is models(STD, b, s, trace=False).holds for s in seqs)
    built.clear()
    asked.clear()
    warm = rows()
    assert built == []
    assert asked == []
    assert warm == cold
    assert len(warm) == 3 * len(bases) * len(seqs)


def test_the_shared_untraced_result_is_immutable_and_isolated():
    b = base("iso_p.\n(iso_q => iso_r)")
    s = seq("iso_q |- (iso_p | iso_q) & (iso_q -> iso_r)")
    for kind in (STD, SDQ):
        plain = models(kind, b, s, trace=False)
        assert plain.trace.entries == ()
        for name, value in (("entries", []), ("universe", None), ("kind", "x")):
            with pytest.raises(FrozenInstanceError):
                setattr(plain.trace, name, value)
        traced = models(kind, b, s)
        assert isinstance(traced.trace.entries, list)
        assert traced.trace.entries[-1] == ("premises", "iso_q", str(s.conclusion), True)
        # a traced call after it still renders its whole trace, into a list
        # of its own, and its entries never reach the shared result
        again = models(kind, b, s)
        assert again.trace.entries == traced.trace.entries
        assert again.trace.entries is not traced.trace.entries
        traced.trace.entries.append(("extra", "", "", True))
        later = models(kind, b, s, trace=False)
        assert later is plain and later.trace.entries == ()
        assert (later.holds, later.trace.universe, later.trace.notes) == (
            traced.holds,
            traced.trace.universe,
            traced.trace.notes,
        )


_c_atoms = st.sampled_from(["c", "c1", "c2"]).map(Atom)


@settings(max_examples=150, deadline=None)
@given(
    rule_sets(),
    st.frozensets(st.one_of(formulas(2), _c_atoms), max_size=3),
    st.one_of(formulas(2), _c_atoms),
)
def test_the_variant_universe_and_the_kept_atoms_match_their_recipes(
    rs, premises, conclusion
):
    assume(check_consistency(rs))
    b = Base(rs)
    s = Sequent(premises=premises, conclusion=conclusion)
    atoms = atoms_of(conclusion).union(*(atoms_of(g) for g in premises))
    assert s._atoms == atoms
    ctx = base_context(b)
    used = ctx.atoms | atoms
    want = tuple(sorted(used)) + (fresh_atom(used),)
    assert base_semantics._variant_universe(ctx.atoms, s._atoms) == want
    assert models(SDQ, b, s, trace=False).trace.universe == want
    assert models(SDQ, b, s).trace.universe == want
    again = parse_sequent(format_sequent(s))
    assert again is not s and again == s and hash(again) == hash(s)
    back = pickle.loads(pickle.dumps(s))
    assert back == s and hash(back) == hash(s)
    assert back._atoms == atoms


def test_a_warm_untraced_variant_call_asks_no_cache():
    # atoms no other test uses, so the variant's universes are new ones
    def renamed(text):
        return re.sub(r"\b([pqrst])\b", r"vt_\1", text)

    rng = random.Random(20261021)
    bases = [
        Base(frozenset(parse_rule(renamed(format_rule(r))) for r in b.rules))
        for b in rng.sample(base_family(), 4)
    ]
    seqs = [parse_sequent(renamed(format_sequent(s))) for s in sequent_pool()]

    def answers():
        return [models(SDQ, b, s, trace=False) for b in bases for s in seqs]

    cold = answers()
    warm = answers()
    assert all(w is c for w, c in zip(warm, cold))
    # one entry per distinct atom set, not per sequent
    for b in bases:
        assert base_context(b)._variant.keys() == {s._atoms for s in seqs}


def test_sequents_with_one_atom_set_share_one_variant_result():
    b = base("vs_p.\n(vs_p => vs_q)")
    ctx = base_context(b)
    same = [seq("vs_p |- vs_q"), seq("|- vs_q | vs_p"), seq("vs_q, vs_p |- vs_p")]
    assert len({s._atoms for s in same}) == 1
    first = models(SDQ, b, same[0], trace=False)
    assert all(models(SDQ, b, s, trace=False) is first for s in same)
    fails = models(SDQ, b, seq("vs_q |- vs_r"), trace=False)
    other = models(SDQ, b, seq("vs_q |- vs_s"), trace=False)
    assert not fails.holds and not other.holds
    assert fails.trace is not other.trace
    # another atom set over the same universe: its own pair, of equal
    # results
    wider = models(SDQ, b, seq("vs_p |- vs_q & vs_r"), trace=False)
    assert wider == fails
    for s, res in (
        (same[0], first), (seq("vs_q |- vs_r"), fails), (seq("vs_q |- vs_s"), other)
    ):
        assert res.trace.universe == base_semantics._variant_universe(
            ctx.atoms, s._atoms
        )
    untraced = base_semantics._untraced
    assert ctx._variant == {
        same[0]._atoms: (untraced(SDQ, first.trace.universe, False), first),
        frozenset({"vs_q", "vs_r"}): (fails, untraced(SDQ, fails.trace.universe, True)),
        frozenset({"vs_q", "vs_s"}): (other, untraced(SDQ, other.trace.universe, True)),
        frozenset({"vs_p", "vs_q", "vs_r"}): ctx._variant[frozenset({"vs_q", "vs_r"})],
    }


@settings(max_examples=100, deadline=None)
@given(
    rule_sets(),
    st.frozensets(st.one_of(formulas(2), _c_atoms), max_size=3),
    st.one_of(formulas(2), _c_atoms),
)
def test_the_untraced_variant_answers_as_the_standard_relation(
    rs, premises, conclusion
):
    assume(check_consistency(rs))
    b = Base(rs)
    s = Sequent(premises=premises, conclusion=conclusion)
    res = models(SDQ, b, s, trace=False)
    assert res.holds is models(STD, b, s, trace=False).holds
    assert res.holds is models(SDQ, b, s).holds


def test_the_variant_table_goes_with_its_context():
    text = "gc_vt.\n(gc_vt => gc_vu)"
    b = parse_base_text(text)
    ctx = base_context(b)
    asked = seq("gc_vt |- gc_vu | gc_vw")
    assert models(SDQ, b, asked, trace=False).holds
    assert list(ctx._variant) == [asked._atoms]
    # the traced call renders its trace and keeps no entry
    assert models(SDQ, b, seq("|- gc_vw")).holds is False
    assert list(ctx._variant) == [asked._atoms]
    gone = weakref.ref(ctx)
    del b, ctx
    gc.collect()
    assert gone() is None
    again = parse_base_text(text)
    assert base_context(again)._variant == {}


# ---------------------------------------------------------------------------
# counterexample search


def test_search_finds_the_smallest_refuting_base():
    res = search_counterexample(STD, seq("p |- q"))
    assert res.counterexample is not None
    assert res.counterexample.rules == {axiom("p")}


def test_search_exhausts_cleanly_on_classical_tautologies():
    for text in ["|- ((p -> q) -> p) -> p", "|- ~~p -> p", "|- p | ~p"]:
        for kind in (STD, SDQ):
            res = search_counterexample(kind, seq(text), SearchBounds(3, 4, 2))
            assert res.counterexample is None, (text, kind)
            assert res.examined >= 1


def test_search_respects_rule_bound():
    res = search_counterexample(STD, seq("p |- q"), SearchBounds(max_rules=0))
    assert res.counterexample is None


# ---------------------------------------------------------------------------
# bounded monotone variant


def test_monotone_bounded_kills_vacuous_consequence():
    res = models_monotone_bounded(STD, EMPTY, seq("p |- q"), universe={axiom("p")})
    assert not res.holds
    assert res.failing_extension is not None
    assert res.failing_extension.rules == {axiom("p")}


def test_monotone_bounded_accepts_stable_consequence():
    res = models_monotone_bounded(
        STD, EMPTY, seq("p & q |- p"), universe={axiom("p"), axiom("q")}
    )
    assert res.holds
    assert res.checked == 4


def test_monotone_bounded_skips_inconsistent_extensions():
    # every extension holding (p => bot) derives bot from p, so only the
    # base itself and the one adding q are checked
    universe = {parse_rule("(p => bot)"), axiom("q")}
    res = models_monotone_bounded(STD, parse_base_text("p."), seq("|- p"), universe)
    assert res.holds
    assert res.checked == 2


# ---------------------------------------------------------------------------
# export principle


def test_export_fails_on_the_vacuous_consequence():
    report = export_principle_holds(STD, EMPTY, seq("p |- q"))
    assert report.left_holds
    assert report.verdict == "confirmed-failure"
    assert report.counterexample is not None
    assert report.counterexample.rules == {axiom("p")}


def test_export_unrefuted_when_left_fails():
    report = export_principle_holds(STD, base("p."), seq("p |- q"))
    assert not report.left_holds
    assert report.verdict == "no-counterexample-in-bounds"


def test_export_right_sequent_carries_star_translations():
    report = export_principle_holds(STD, base("(p => q)"), seq("|- q"))
    assert parse_formula("p -> q") in report.right_sequent.premises


# ---------------------------------------------------------------------------
# intuitionistic derivability


il_theorems = [
    "p -> p",
    "p -> q -> p",
    "(p -> q -> r) -> (p -> q) -> p -> r",
    "bot -> p",
    "p -> ~~p",
    "(p -> q) -> ~q -> ~p",
    "p & q -> p",
    "p -> q -> p & q",
    "p -> p | q",
    "(p -> r) -> (q -> r) -> p | q -> r",
]

il_non_theorems = [
    "((p -> q) -> p) -> p",
    "~~p -> p",
    "p | ~p",
    "(~p -> q | r) -> (~p -> q) | (~p -> r)",
    "(p -> q) | (q -> p)",
]


@pytest.mark.parametrize("text", il_theorems)
def test_il_theorems(text):
    f = parse_formula(text)
    assert il_derives((), f)
    assert heyting_valid(f)


@pytest.mark.parametrize("text", il_non_theorems)
def test_il_non_theorems(text):
    f = parse_formula(text)
    assert not il_derives((), f)
    assert not heyting_valid(f)


def test_il_with_premises():
    assert il_derives((parse_formula("p"), parse_formula("p -> q")), Atom("q"))
    assert not il_derives((parse_formula("p"),), Atom("q"))
    assert il_derives((BOT,), Atom("q"))


names = st.sampled_from(["p", "q"])
small_formulas = st.recursive(
    st.one_of(names.map(Atom), st.just(BOT)),
    lambda sub: st.one_of(
        st.builds(lambda a, b: parse_formula(f"({a}) & ({b})"), sub.map(str), sub.map(str)),
        st.builds(lambda a, b: parse_formula(f"({a}) | ({b})"), sub.map(str), sub.map(str)),
        st.builds(lambda a, b: parse_formula(f"({a}) -> ({b})"), sub.map(str), sub.map(str)),
    ),
    max_leaves=6,
)


@settings(max_examples=40, deadline=None)
@given(small_formulas)
def test_il_sound_for_small_frames(f):
    # anything the calculus proves must be valid in every small frame
    if il_derives((), f):
        assert heyting_valid(f)


# ---------------------------------------------------------------------------
# base-completeness witness


def test_base_completeness_witness_names_a_known_semantics():
    with pytest.raises(ValueError, match="^unknown semantics kind: 'bogus'$"):
        base_completeness_witness("bogus")


@pytest.mark.parametrize("kind", ["standard", "sandqvist"])
def test_base_completeness_witness(kind):
    report = base_completeness_witness(kind)
    assert report["models"] is True
    assert report["il_derives"] is False
    assert report["verdict"] == "not-base-complete"
    assert report["monotone_bounded_universe_p"] is False
