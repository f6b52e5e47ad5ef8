"""The input boundary, fuzzed: whatever rule, sequent and argument text the
command line is given, main answers with a documented exit code (0, 1, 2,
64 or 65), never 70 and never an escaped exception.

Rule and sequent text start from well-formed seeds and take a few
character edits; argument files start from generated structures and take
a few edits of their JSON objects or text.  Every call runs in-process.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prooflab.arguments import Node, axiom_leaf, structure_to_obj
from prooflab.cli import main
from prooflab.syntax import Atom
from test_reductions import CHAIN_INNER, derivation_detours, detours

DOCUMENTED = {0, 1, 2, 64, 65}

RULES = ["p.", "q.", "(p => q)", "(q => p)", "([p => q] => r)", "(p, q => r)"]
SEQUENTS = ["|- p", "p |- q", "p, p -> q |- q", "|- p | ~p", "p & q |- q | r"]
TOKENS = ["p", "q", "r", "(", ")", "[", "]", "=>", "->", "&", "|", "~", "bot",
          ".", ",", "|-", " ", "\n", "#", "1"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def edit(data, text):
    """text with up to three edits: a token inserted, a span deleted or a
    character replaced by a token."""
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(text)))
        kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        tok = data.draw(st.sampled_from(TOKENS))
        if kind == "insert":
            text = text[:i] + tok + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + data.draw(st.integers(1, 3)):]
        else:
            text = text[:i] + tok + text[i + 1:]
    return text


def rule_args(data):
    rules = data.draw(st.lists(st.sampled_from(RULES), max_size=3))
    argv = []
    for rule in rules:
        # one word, so an edit that starts the text with "-" is still a rule
        argv.append("--rule=" + edit(data, rule))
    return argv


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from(["p", "bot", "atom", "and", "imp", "assume", "axiom",
                     "rule", "constant", "pointer", "conj-detour", "(p => q)"]),
    st.lists(st.integers(-1, 3), max_size=3),
    st.just({}),
)


def slots(obj, out):
    """Every (container, key) in a JSON object tree."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in list(items):
        out.append((obj, key))
        if isinstance(value, (dict, list)):
            slots(value, out)
    return out


def mutate(data, obj):
    """obj with up to three of its values replaced by junk or deleted."""
    for _ in range(data.draw(st.integers(0, 3))):
        found = slots(obj, [])
        if not found:
            break
        box, key = data.draw(st.sampled_from(found))
        if isinstance(box, dict) and data.draw(st.booleans()):
            del box[key]
        else:
            box[key] = data.draw(JUNK)
    return obj


P = Atom("p")
ONE_STEP = Node(P, (axiom_leaf(P),))


def structures_obj():
    return st.one_of(detours(), derivation_detours()).map(structure_to_obj)


def justifications():
    return st.lists(
        st.one_of(
            st.sampled_from(["conj-detour", "imp-detour", "mystery"]),
            st.just({"kind": "constant", "premises": ["q"], "conclusion": "p",
                     "target": structure_to_obj(CHAIN_INNER)}),
            # every axiom leaf p is an instance, and so is the leaf of the
            # target it rewrites to: reduce's path grows a level per step
            st.just({"kind": "constant", "premises": [], "conclusion": "p",
                     "target": structure_to_obj(ONE_STEP)}),
            structures_obj().map(lambda t: {
                "kind": "pointer", "source": t,
                "target": structure_to_obj(axiom_leaf(P))}),
        ),
        max_size=2,
    )


def light_edit(data, obj):
    """obj's JSON text after mutate, and one time in five a few edits of
    that text."""
    text = json.dumps(mutate(data, obj))
    return edit(data, text) if data.draw(st.integers(0, 4)) == 0 else text


def argument_text(data):
    obj = {"structure": data.draw(structures_obj())}
    if data.draw(st.booleans()):
        obj["justifications"] = data.draw(justifications())
    return light_edit(data, obj)


# constants whose targets hold their own inference, each over a structure it
# rewrites; reduce without --target follows one normalization path over them
SELF_FEEDING = [
    # the axiom leaf p rewritten to p / p*: each step rewrites the new leaf
    # at the bottom, so the path grows a level per step
    (axiom_leaf(P), {"kind": "constant", "premises": [], "conclusion": "p",
                     "target": structure_to_obj(ONE_STEP)}),
    # p / p* rewritten to p / (p / p*): after one step every rewrite returns
    # the structure it was given
    (ONE_STEP, {"kind": "constant", "premises": ["p"], "conclusion": "p",
                "target": structure_to_obj(Node(P, (ONE_STEP,)))}),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eval_and_search_exit_with_a_documented_code(data):
    sequent = "--sequent=" + edit(data, data.draw(st.sampled_from(SEQUENTS)))
    if data.draw(st.booleans()):
        argv = ["eval", *rule_args(data), sequent, "--semantics",
                data.draw(st.sampled_from(["standard", "sandqvist", "alpha"]))]
        argv += data.draw(st.sampled_from([[], ["--trace"], ["--strict"]]))
    else:
        argv = ["search", sequent,
                "--semantics", data.draw(st.sampled_from(["standard", "sandqvist"])),
                "--bounds", data.draw(st.sampled_from(["2,2,1", edit(data, "2,2,1")]))]
    argv += data.draw(st.sampled_from([[], ["--format", "json"]]))
    assert run(argv) in DOCUMENTED, argv


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_argument_commands_exit_with_a_documented_code(folder, data):
    arg = folder / "arg.json"
    if data.draw(st.integers(0, 9)) == 0:
        # about one example in ten: reduce with no --target and the default
        # budget over a self-feeding constant, where it once recursed
        # without end
        start, kappa = data.draw(st.sampled_from(SELF_FEEDING))
        obj = {"structure": structure_to_obj(start),
               "justifications": [copy.deepcopy(kappa)]}
        arg.write_text(light_edit(data, obj), encoding="utf-8")
        argv = ["reduce", "--argument", str(arg)]
    else:
        arg.write_text(argument_text(data), encoding="utf-8")
        if data.draw(st.booleans()):
            argv = ["check_valid", *rule_args(data), "--argument", str(arg)]
        else:
            argv = ["reduce", "--argument", str(arg)]
            if data.draw(st.booleans()):
                target = folder / "target.json"
                text = json.dumps(mutate(data, data.draw(structures_obj())))
                target.write_text(text, encoding="utf-8")
                argv += ["--target", str(target)]
        argv += data.draw(
            st.sampled_from([[], ["--budget", "3"], ["--budget", "0"]])
        )
    argv += data.draw(st.sampled_from([[], ["--format", "json"]]))
    assert run(argv) in DOCUMENTED, (argv, arg.read_text(encoding="utf-8"))
