"""Formula layer: parser, printer, substitution."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from prooflab.syntax import (
    Absurdity,
    Atom,
    BOT,
    Conj,
    Disj,
    FormulaSyntaxError,
    Impl,
    MAX_NESTING,
    atoms_of,
    format_formula,
    formula_from_obj,
    formula_to_obj,
    neg,
    parse_formula,
    substitute,
)

p, q, r, s = Atom("p"), Atom("q"), Atom("r"), Atom("s")


def test_parse_atoms_and_bot():
    assert parse_formula("p") == p
    assert parse_formula("bot") == BOT
    assert parse_formula("p_1'") == Atom("p_1'")


def test_negation_is_sugar():
    assert parse_formula("~p") == Impl(p, BOT)
    assert parse_formula("~~p") == Impl(Impl(p, BOT), BOT)
    assert neg(p) == Impl(p, BOT)


def test_precedence_ladder():
    # ~ binds tighter than &, & tighter than |, | tighter than ->
    assert parse_formula("~p & q") == Conj(Impl(p, BOT), q)
    assert parse_formula("p & q | r") == Disj(Conj(p, q), r)
    assert parse_formula("p | q -> r") == Impl(Disj(p, q), r)
    assert parse_formula("~p | q -> r & s") == Impl(
        Disj(Impl(p, BOT), q), Conj(r, s)
    )


def test_implication_right_associative():
    # frozen reference: the explicit parenthesization
    assert parse_formula("p -> q -> r") == parse_formula("p -> (q -> r)")
    assert parse_formula("p -> q -> r") == Impl(p, Impl(q, r))
    assert parse_formula("(p -> q) -> r") == Impl(Impl(p, q), r)


def test_parentheses_override():
    assert parse_formula("p & (q | r)") == Conj(p, Disj(q, r))
    assert parse_formula("(p)") == p


def test_parse_errors_carry_position():
    for text in ["", "p &", "p q", "(p", "p)", "p -> ", "& p", "p # q"]:
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)
    err = None
    try:
        parse_formula("p & ?")
    except FormulaSyntaxError as e:
        err = e
    assert err is not None and err.pos == 4


@pytest.mark.parametrize(
    "text",
    ["", "p &", "p & ?", "(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1), []],
    ids=["empty", "trailing-operator", "bad-character", "too-deep", "empty-list"],
)
def test_a_parse_error_is_raised_on_every_call(text):
    # the parse memo keeps no error; a value that is not a string fails as it
    # would unmemoized, not as unhashable
    errors = []
    for _ in range(2):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(text)
        errors.append((str(info.value), info.value.message, info.value.pos))
    assert errors[0] == errors[1]


def test_a_non_string_is_not_refused_as_unhashable():
    with pytest.raises(TypeError, match="string"):
        parse_formula(["p"])


def test_equal_texts_parse_to_one_formula():
    text = "p & (q | ~r) -> s"
    # an equal string that is a different object
    assert parse_formula(text) is parse_formula("".join(list(text)))
    assert parse_formula(text) == Impl(Conj(p, Disj(q, neg(r))), s)


def test_atom_name_bot_rejected():
    with pytest.raises(ValueError):
        Atom("bot")


def test_an_atom_name_is_checked():
    with pytest.raises(ValueError, match="^not an atom name: '1p'$"):
        Atom("1p")


def test_format_examples():
    assert format_formula(Impl(p, Impl(q, r))) == "p -> q -> r"
    assert format_formula(Impl(Impl(p, q), r)) == "(p -> q) -> r"
    assert format_formula(neg(Conj(p, q))) == "~(p & q)"
    assert format_formula(Disj(Conj(p, q), r)) == "p & q | r"
    assert format_formula(Conj(p, Disj(q, r))) == "p & (q | r)"


def test_substitute_simultaneous():
    f = Impl(p, Conj(q, p))
    got = substitute(f, {"p": q, "q": p})
    assert got == Impl(q, Conj(p, q))
    # bot never substituted
    assert substitute(Impl(p, BOT), {"p": BOT}) == Impl(BOT, BOT)


def test_atoms_of_excludes_bot():
    assert atoms_of(Impl(Conj(p, q), BOT)) == frozenset({"p", "q"})
    assert atoms_of(BOT) == frozenset()


names = st.sampled_from(["p", "q", "r", "s", "t"])


def formulas(max_depth: int = 5) -> st.SearchStrategy:
    return st.recursive(
        st.one_of(names.map(Atom), st.just(BOT)),
        lambda sub: st.one_of(
            st.builds(Conj, sub, sub),
            st.builds(Disj, sub, sub),
            st.builds(Impl, sub, sub),
        ),
        max_leaves=2 ** max_depth,
    )


@given(formulas(3), formulas(3))
def test_the_connectives_over_the_same_children_hash_apart(f, g):
    # a table keyed by formulas must not compare f & g with f | g or f -> g
    hashes = {hash(c(f, g)) for c in (Conj, Disj, Impl)}
    assert len(hashes) == 3


@given(formulas())
def test_print_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


@given(formulas())
def test_obj_round_trip(f):
    assert formula_from_obj(formula_to_obj(f)) == f


@given(formulas(3), formulas(2), formulas(2))
def test_substitution_composition(f, g, h):
    # applying {p -> g} then {q -> h} equals the composed simultaneous map
    # when h has no p (otherwise sequencing re-substitutes inside h)
    step = substitute(substitute(f, {"p": g}), {"q": h})
    composed = substitute(f, {"p": substitute(g, {"q": h}), "q": h})
    if "p" not in atoms_of(h):
        assert step == composed


@given(formulas())
def test_identity_substitution(f):
    assert substitute(f, {}) == f


# texts nested n levels deep, one construct repeated
NESTED = {
    "(": lambda n: "(" * n + "p" + ")" * n,
    "~": lambda n: "~" * n + "p",
    "->": lambda n: " -> ".join(["p"] * (n + 1)),
    "&": lambda n: " & ".join(["p"] * (n + 1)),
    "|": lambda n: " | ".join(["p"] * (n + 1)),
}


@pytest.mark.parametrize("kind", NESTED)
def test_nesting_limit(kind):
    parse_formula(NESTED[kind](MAX_NESTING))
    with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
        parse_formula(NESTED[kind](MAX_NESTING + 1))


def nested_obj(op, depth, side):
    """A formula object with depth op connectives, each nesting on side."""
    obj = {"op": "atom", "name": "p"}
    other = "right" if side == "left" else "left"
    for _ in range(depth):
        obj = {"op": op, side: obj, other: {"op": "atom", "name": "q"}}
    return obj


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("op", ["and", "or", "imp"])
def test_obj_nesting_limit(op, side):
    # the limit formula text has, counted in connectives and checked on
    # the way down, so 450 levels fail before the recursion gets deep
    f = formula_from_obj(nested_obj(op, MAX_NESTING, side))
    assert formula_to_obj(f) == nested_obj(op, MAX_NESTING, side)
    for depth in (MAX_NESTING + 1, 450):
        with pytest.raises(ValueError, match="formula nested deeper than"):
            formula_from_obj(nested_obj(op, depth, side))


def test_nesting_counts_every_level():
    # a parenthesis pair, a negation and a connective each add one
    half = MAX_NESTING // 2
    parse_formula("(~" * half + "p" + ")" * half)
    parse_formula("(p -> " * half + "p" + ")" * half)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(p -> " * (half + 1) + "p" + ")" * (half + 1))
    # a left-nested chain under parentheses
    inner = "(" + NESTED["&"](MAX_NESTING - 1) + ")"
    parse_formula(inner)
    with pytest.raises(FormulaSyntaxError):
        parse_formula(inner + " -> q")
