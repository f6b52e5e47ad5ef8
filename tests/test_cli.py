"""End-to-end tests for the command-line front end.

Each test drives ``main(argv)`` directly and checks the exit code plus the
bits of output a caller would script against.  Every exit code the tool
documents shows up at least once: 0, 1, 2, 64, 65.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from prooflab import base_semantics, cli
from prooflab.arguments import (
    Node,
    and_elim,
    and_intro,
    assumption,
    axiom_leaf,
    impl_elim,
    impl_intro,
    or_intro_left,
    or_project,
    pretty,
    structure_to_obj,
)
from prooflab.atomic_system import (
    Base,
    check_consistency,
    format_rule,
    parse_base_text,
    parse_rule,
)
from prooflab.cli import (
    EX_DATA,
    EX_FAILS,
    EX_INCONCLUSIVE,
    EX_OK,
    EX_USAGE,
    build_parser,
    main,
)
from prooflab.syntax import MAX_NESTING, Atom
from test_arguments import (
    BAD_DISCHARGES,
    bad_discharge_obj,
    chain_case,
    tie_case,
    time_limit,
)
from test_atomic_system import rule_sets
from test_reductions import CHAIN_INNER, detour_chain
from test_syntax import NESTED, nested_obj

p, q = Atom("p"), Atom("q")

DETOUR = and_elim(and_intro(axiom_leaf(p), axiom_leaf(q)), 1)
BINDER = impl_intro(and_elim(and_intro(assumption(p), assumption(q)), 1), q)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def argument_file(tmp_path, structure, justifications=None, name="arg.json"):
    obj = {"structure": structure_to_obj(structure)}
    if justifications is not None:
        obj["justifications"] = justifications
    return write_json(tmp_path / name, obj)


# ---------------------------------------------------------------------------
# eval


def test_eval_standard_holds(capsys):
    code = main(["eval", "--rule", "p.", "--sequent", "|- p"])
    out = capsys.readouterr().out
    assert code == EX_OK
    assert "holds:     yes" in out


def test_eval_standard_fails(capsys):
    code = main(["eval", "--rule", "p.", "--sequent", "p |- q"])
    out = capsys.readouterr().out
    assert code == EX_FAILS
    assert "holds:     no" in out


@pytest.mark.parametrize("semantics", ["standard", "sandqvist"])
def test_eval_non_monotonic_flip(semantics, capsys):
    over_empty = main(["eval", "--semantics", semantics, "--sequent", "p |- q"])
    capsys.readouterr()
    over_p = main(
        ["eval", "--semantics", semantics, "--rule", "p.", "--sequent", "p |- q"]
    )
    capsys.readouterr()
    assert (over_empty, over_p) == (EX_OK, EX_FAILS)


def test_eval_trace_lines(capsys):
    code = main(["eval", "--rule", "p.", "--sequent", "|- p & p", "--trace"])
    out = capsys.readouterr().out
    assert code == EX_OK
    assert "trace:" in out
    assert "[conj]" in out


@pytest.mark.parametrize("semantics", ["standard", "sandqvist"])
def test_a_text_eval_without_trace_renders_none(semantics, capsys, monkeypatch):
    argv = ["eval", "--semantics", semantics, "--rule", "p."]
    argv += ["--sequent", "q |- (p | q) & (q -> p)"]
    assert main([*argv, "--trace"]) == EX_OK
    traced = capsys.readouterr().out
    built = []
    real = base_semantics.Evaluator.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(base_semantics.Evaluator, "__init__", counting)
    assert main(argv) == EX_OK
    plain = capsys.readouterr().out
    assert built == []
    # the trace block is the last: "trace:" and its indented entries
    head, block = traced.split("trace:\n")
    assert block and all(ln.startswith("  [") for ln in block.splitlines())
    assert plain == head
    if semantics == "sandqvist":
        assert "note:" in plain


def test_eval_alpha_valid_with_witness(capsys):
    code = main(["eval", "--semantics", "alpha", "--sequent", "|- p -> p"])
    out = capsys.readouterr().out
    assert code == EX_OK
    assert "status:    valid" in out
    assert "witness:" in out


def test_eval_alpha_witness_independent_of_hash_seed():
    # two rules conclude r; the witness must not follow set iteration order
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    argv = [sys.executable, "-m", "prooflab.cli", "eval", "--semantics", "alpha"]
    for r in ("p.", "q.", "(p => r)", "(q => r)"):
        argv += ["--rule", r]
    argv += ["--sequent", "|- r"]
    outs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EX_OK, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    assert outs.pop().splitlines()[-3:] == ["witness:", "  r", "    p*"]


# a smoke-size benchmark CLI session for three seeds: every call's exit code
# and stdout, traced evals in text and JSON among them
_SESSION = """
import os, sys, tempfile
sys.path[:0] = [os.path.join(sys.argv[1], "src"), os.path.join(sys.argv[1], "perfbench")]
import workloads
for seed in (1, 2, 3):
    with tempfile.TemporaryDirectory() as workdir:
        w = workloads.CliSession(seed, 0, True, workdir)
        w.setup()
        for op in w.ops:
            print(repr(w.run(op)))
"""


def test_a_cli_session_prints_the_same_bytes_under_any_hash_seed():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", _SESSION, root],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].count("\n") > 200
    assert outs[0] == outs[1]


def test_eval_alpha_invalid(capsys):
    code = main(
        ["eval", "--semantics", "alpha", "--rule", "p.", "--sequent", "p |- q"]
    )
    out = capsys.readouterr().out
    assert code == EX_FAILS
    assert "status:    invalid" in out


def test_eval_alpha_strict_inconclusive(capsys):
    code = main(
        [
            "eval",
            "--semantics",
            "alpha",
            "--strict",
            "--rule",
            "p.",
            "--sequent",
            "|- p -> p",
        ]
    )
    out = capsys.readouterr().out
    assert code == EX_INCONCLUSIVE
    assert "status:    inconclusive" in out


def test_eval_base_file(tmp_path, capsys):
    base = tmp_path / "base.rules"
    base.write_text("p.\n(p => q)\n", encoding="utf-8")
    code = main(["eval", "--base", str(base), "--sequent", "|- q"])
    capsys.readouterr()
    assert code == EX_OK


def test_eval_alpha_constant_reduction_inside_its_target(capsys):
    # the witness's constant reduction matches inside its own target, so
    # the reduction closure is unbounded; a valid candidate must end the
    # search before the closure is built
    code = main(
        [
            "eval",
            "--rule",
            "([p => p] => q)",
            "--rule",
            "(q => p)",
            "--rule",
            "q",
            "--sequent",
            "|- (q -> p) & (p | q) | (q | p | ~bot)",
            "--semantics",
            "alpha",
        ]
    )
    out = capsys.readouterr().out
    assert code == EX_OK
    assert "status:    valid" in out


def test_a_saturation_past_its_step_limit_exits_inconclusive(monkeypatch, capsys):
    monkeypatch.setattr(base_semantics, "DEFAULT_MAX_STEPS", 0)
    argv = ["eval", "--rule", "p.", "--rule", "(p => q)", "--sequent", "|- q"]
    assert main(argv) == EX_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "prooflab: resource limit: saturation exceeded 0 steps\n"


# ---------------------------------------------------------------------------
# check_valid


def test_check_valid_ok(tmp_path, capsys):
    path = argument_file(tmp_path, DETOUR)
    code = main(
        ["check_valid", "--rule", "p.", "--rule", "q.", "--argument", path]
    )
    out = capsys.readouterr().out
    assert code == EX_OK
    assert "status:     valid" in out
    assert "closed:     yes" in out


def test_check_valid_invalid(tmp_path, capsys):
    path = argument_file(tmp_path, axiom_leaf(p))
    code = main(["check_valid", "--argument", path])
    out = capsys.readouterr().out
    assert code == EX_FAILS
    assert "status:     invalid" in out


def test_check_valid_budget_runs_out(tmp_path, capsys):
    path = argument_file(tmp_path, DETOUR)
    code = main(
        [
            "check_valid",
            "--rule",
            "p.",
            "--rule",
            "q.",
            "--argument",
            path,
            "--budget",
            "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == EX_INCONCLUSIVE
    assert "status:     inconclusive" in out


def test_check_valid_named_justifications(tmp_path, capsys):
    path = argument_file(tmp_path, DETOUR, justifications=["conj-detour"])
    code = main(
        ["check_valid", "--rule", "p.", "--rule", "q.", "--argument", path]
    )
    capsys.readouterr()
    assert code == EX_OK


def test_check_valid_constant_justification(tmp_path, capsys):
    kappa = {
        "kind": "constant",
        "name": "close[p]",
        "premises": ["p"],
        "conclusion": "p",
        "target": structure_to_obj(axiom_leaf(p)),
    }
    path = argument_file(tmp_path, DETOUR, justifications=[kappa])
    code = main(
        ["check_valid", "--rule", "p.", "--rule", "q.", "--argument", path]
    )
    capsys.readouterr()
    assert code == EX_OK


def test_check_valid_pointer_justification(tmp_path, capsys):
    pointer = {
        "kind": "pointer",
        "source": structure_to_obj(DETOUR),
        "target": structure_to_obj(axiom_leaf(p)),
    }
    path = argument_file(tmp_path, DETOUR, justifications=[pointer])
    code = main(
        ["check_valid", "--rule", "p.", "--rule", "q.", "--argument", path]
    )
    capsys.readouterr()
    assert code == EX_OK


def test_check_valid_a_justification_makes_the_walk_enumerate(tmp_path, capsys):
    # with a justification beside the standard reductions the normal form
    # does not decide an atomic goal; the pointer p* -> p* rewrites the leaf
    # to itself, so the closure is the leaf alone
    leaf = structure_to_obj(axiom_leaf(p))
    pointer = {"kind": "pointer", "source": leaf, "target": leaf}
    path = argument_file(tmp_path, axiom_leaf(p), justifications=[pointer])
    code = main(["check_valid", "--argument", path])
    out = capsys.readouterr().out
    assert code == EX_FAILS
    assert "the whole reduction closure (1 structures) was enumerated" in out


# ---------------------------------------------------------------------------
# reduce


def test_reduce_normalize(tmp_path, capsys):
    path = argument_file(tmp_path, DETOUR)
    code = main(["reduce", "--argument", path])
    out = capsys.readouterr().out
    assert code == EX_OK
    assert "step 1: conj-detour" in out
    assert "result:" in out


def test_reduce_target_reached(tmp_path, capsys):
    path = argument_file(tmp_path, DETOUR)
    target = write_json(tmp_path / "t.json", structure_to_obj(axiom_leaf(p)))
    code = main(["reduce", "--argument", path, "--target", target])
    out = capsys.readouterr().out
    assert code == EX_OK
    assert "status:  yes" in out


def test_reduce_target_unreachable(tmp_path, capsys):
    path = argument_file(tmp_path, DETOUR)
    target = write_json(tmp_path / "t.json", structure_to_obj(axiom_leaf(q)))
    code = main(["reduce", "--argument", path, "--target", target])
    out = capsys.readouterr().out
    assert code == EX_FAILS
    assert "status:  no" in out


def test_reduce_target_under_a_cut_budget(tmp_path, capsys):
    # a budget of two distinct structures: d and its one-step reduct
    inner = or_project(or_intro_left(assumption(p), q))
    d = and_elim(and_intro(inner, assumption(Atom("r"))), 1)
    path = argument_file(tmp_path, d)
    target = write_json(tmp_path / "t.json", structure_to_obj(inner))
    argv = ["reduce", "--argument", path, "--target", target, "--budget", "2"]
    code = main(argv)
    assert code == EX_OK
    assert capsys.readouterr().out == (
        "status:  yes\nvisited: 2\n  at []: conj-detour\n"
    )
    target = write_json(tmp_path / "t.json", structure_to_obj(assumption(Atom("s"))))
    code = main(argv)
    assert code == EX_INCONCLUSIVE
    assert capsys.readouterr().out == (
        "status:  inconclusive\nvisited: 2\n"
        "note:    budget of 2 distinct structures exhausted\n"
    )


@pytest.mark.parametrize("depth", range(1, 9))
def test_reduce_detour_chain(tmp_path, capsys, depth):
    d, rules = detour_chain(depth)
    path = argument_file(tmp_path, d)
    target = write_json(tmp_path / "t.json", structure_to_obj(CHAIN_INNER))
    code = main(["reduce", "--argument", path, "--target", target, "--format", "json"])
    assert code == EX_OK
    assert json.loads(capsys.readouterr().out) == {
        "status": "yes",
        # the structures on the one path to the normal form
        "visited": depth + 1,
        "note": "",
        "path": [{"position": [], "rule": name} for name in rules],
    }
    code = main(["reduce", "--argument", path])
    assert code == EX_OK
    lines = [f"step {k}: {name} at []" for k, name in enumerate(rules, 1)]
    lines += ["result:"] + ["  " + ln for ln in pretty(CHAIN_INNER).splitlines()]
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_cut_budget_falls_back_to_the_full_search(tmp_path, capsys):
    # the depth-3 chain normalizes in three steps, a path of four
    # structures; its closure holds eight
    d, rules = detour_chain(3)
    path = argument_file(tmp_path, d)
    target = write_json(tmp_path / "t.json", structure_to_obj(CHAIN_INNER))
    check = ["check_valid", "--rule", "q.", "--rule", "(q => p)", "--argument", path]
    reduce = ["reduce", "--argument", path, "--target", target]
    # a budget of three: the breadth-first search's answer, unchanged
    assert main([*check, "--budget", "3"]) == EX_INCONCLUSIVE
    assert capsys.readouterr().out == (
        "conclusion: p\nclosed:     yes\nstatus:     inconclusive\n"
        "reason:     budget of 3 distinct structures exhausted\n"
    )
    assert main([*reduce, "--budget", "3"]) == EX_INCONCLUSIVE
    assert capsys.readouterr().out == (
        "status:  inconclusive\nvisited: 3\n"
        "note:    budget of 3 distinct structures exhausted\n"
    )
    # a budget of four holds the path: the normal form settles both
    assert main([*check, "--budget", "4"]) == EX_OK
    assert capsys.readouterr().out == (
        "conclusion: p\nclosed:     yes\nstatus:     valid\n"
        "reason:     reduces to a derivation of p in the base (3 steps)\n"
    )
    assert main([*reduce, "--budget", "4"]) == EX_OK
    assert capsys.readouterr().out == "status:  yes\nvisited: 4\n" + "".join(
        f"  at []: {name}\n" for name in rules
    )


def test_invalid_reason_names_the_normal_form(tmp_path, capsys):
    d = and_elim(and_intro(axiom_leaf(q), axiom_leaf(p)), 1)
    path = argument_file(tmp_path, d)
    assert main(["check_valid", "--rule", "p.", "--argument", path]) == EX_FAILS
    assert capsys.readouterr().out == (
        "conclusion: q\nclosed:     yes\nstatus:     invalid\n"
        "reason:     no reduct is a derivation in the base; the only normal "
        "form in its reduction closure, reached in 1 steps, is not one\n"
    )
    # under a budget the path does not fit, the full search's answer
    argv = ["check_valid", "--rule", "p.", "--argument", path, "--budget", "1"]
    assert main(argv) == EX_INCONCLUSIVE
    assert "budget of 1 distinct structures exhausted" in capsys.readouterr().out


@pytest.mark.parametrize(
    "case", [tie_case(10), chain_case(25)], ids=["premise-tie", "two-rule-chain"]
)
@pytest.mark.parametrize(
    "budget", [[], ["--budget", "3"]], ids=["unbounded", "budget-3"]
)
def test_replay_of_a_normal_form_answers_at_once(case, budget, tmp_path, capsys):
    # the replay runs as the goal test of the reduction walk, which a
    # budget of structures does not bound
    rules, struct = case
    argv = ["check_valid", *(x for r in rules for x in ("--rule", r))]
    argv += ["--argument", argument_file(tmp_path, struct), *budget]
    with time_limit(5):
        assert main(argv) == EX_FAILS
    assert capsys.readouterr().out.endswith(
        "reason:     no reduct is a derivation in the base; the only normal "
        "form in its reduction closure, reached in 0 steps, is not one\n"
    )


def test_reduce_under_binder(tmp_path, capsys):
    # the only redex sits under the ->-intro that discharges its q-leaf
    path = argument_file(tmp_path, BINDER)
    code = main(["reduce", "--argument", path, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EX_OK
    assert payload["normal_form"] == structure_to_obj(impl_intro(assumption(p), q))
    assert payload["stuck"] is True
    target = write_json(tmp_path / "t.json", structure_to_obj(axiom_leaf(q)))
    code = main(["reduce", "--argument", path, "--target", target])
    out = capsys.readouterr().out
    assert code == EX_FAILS
    assert "status:  no" in out


def test_reduce_binder_detours(tmp_path, capsys):
    # p -> p through a conj- and an imp-detour whose assumption the outer
    # ->-intro discharges
    plain = impl_intro(assumption(p), p)
    conj = impl_intro(and_elim(and_intro(assumption(p), axiom_leaf(q)), 1), p)
    imp = impl_intro(impl_elim(impl_intro(assumption(p), p), assumption(p)), p)
    path = argument_file(tmp_path, conj, name="conj.json")
    target = write_json(tmp_path / "t.json", structure_to_obj(plain))
    code = main(["reduce", "--argument", path, "--target", target])
    out = capsys.readouterr().out
    assert code == EX_OK
    assert "status:  yes" in out
    path = argument_file(tmp_path, imp, name="imp.json")
    code = main(["reduce", "--argument", path, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EX_OK
    assert [s["rule"] for s in payload["steps"]] == ["imp-detour"]
    assert payload["normal_form"] == structure_to_obj(plain)
    assert payload["stuck"] is True


# ---------------------------------------------------------------------------
# search


def test_search_finds_refuting_base(capsys):
    code = main(["search", "--sequent", "p |- q", "--bounds", "2,2,1"])
    out = capsys.readouterr().out
    assert code == EX_OK
    assert "refuting base:" in out


def test_search_exhausts_bounds(capsys):
    code = main(["search", "--sequent", "|- p -> p", "--bounds", "1,1,1"])
    out = capsys.readouterr().out
    assert code == EX_FAILS
    assert "no refuting base within bounds" in out


def test_search_sandqvist(capsys):
    code = main(
        [
            "search",
            "--semantics",
            "sandqvist",
            "--sequent",
            "p |- q",
            "--bounds",
            "2,2,1",
        ]
    )
    capsys.readouterr()
    assert code == EX_OK


# ---------------------------------------------------------------------------
# suite


def test_suite_runs_clean(capsys):
    code = main(["suite"])
    out = capsys.readouterr().out
    assert code == EX_OK
    for heading in (
        "non-monotonicity",
        "premise-export failure",
        "base-incompleteness witnesses",
        "classical tautologies stay unrefuted",
        "variant vs argument-based consequence",
    ):
        assert heading in out


# ---------------------------------------------------------------------------
# output handling


def test_json_output_is_deterministic(capsys):
    argv = [
        "eval",
        "--rule",
        "p.",
        "--sequent",
        "|- p",
        "--format",
        "json",
    ]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["holds"] is True
    assert payload["sequent"] == "|- p"


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main(
        [
            "eval",
            "--rule",
            "p.",
            "--sequent",
            "|- p",
            "--format",
            "json",
            "--output",
            str(dest),
        ]
    )
    out = capsys.readouterr().out
    assert code == EX_OK
    assert out == ""
    assert json.loads(dest.read_text(encoding="utf-8"))["holds"] is True


def test_search_json_payload(capsys):
    code = main(
        [
            "search",
            "--sequent",
            "p |- q",
            "--bounds",
            "2,2,1",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == EX_OK
    assert payload["counterexample"] == ["p."]


# ---------------------------------------------------------------------------
# usage errors (argparse-level, exit via SystemExit)


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--sequent", "|- p", "--frobnicate"])
    capsys.readouterr()
    assert exc.value.code == EX_USAGE


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval"])
    capsys.readouterr()
    assert exc.value.code == EX_USAGE


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    capsys.readouterr()
    assert exc.value.code == EX_USAGE


def _exit_and_stdout(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_reused_parser_answers_like_a_fresh_one(capsys):
    # main builds its parser once per process; a call must not see the last
    rules = ["--rule", "p.", "--rule", "(p => q)", "--rule", "(q => r)"]
    calls = [
        ["eval", *rules, "--sequent", "|- r"],
        ["eval", "--sequent", "|- p", "--frobnicate"],
        ["search", "--sequent", "p |- q", "--bounds", "2,2,1"],
        ["eval", "--sequent", "|- r"],
    ]
    in_order = [_exit_and_stdout(argv, capsys) for argv in calls]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(_exit_and_stdout(argv, capsys))
    assert in_order == alone
    assert [code for code, _ in alone] == [EX_OK, EX_USAGE, EX_OK, EX_FAILS]


def test_bad_bounds_text_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--sequent", "|- p", "--bounds", "three,2,1"])
    err = capsys.readouterr().err
    assert exc.value.code == EX_USAGE
    assert "comma-separated" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--sequent", "|- p", "--budget", "-3"],
        ["eval", "--sequent", "|- p", "--budget", "0"],
        ["reduce", "--argument", "arg.json", "--budget", "many"],
        ["search", "--sequent", "|- p", "--bounds=2,-1,3"],
        ["search", "--sequent", "|- p", "--bounds=-2,1,3"],
    ],
)
def test_bad_budget_or_negative_bound_is_one_line_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EX_USAGE
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("prooflab ") and ": error: argument --b" in err


def test_zero_bounds_are_accepted(capsys):
    code = main(["search", "--sequent", "|- p", "--bounds", "0,0,0"])
    assert code == EX_OK
    assert "examined: 1 bases" in capsys.readouterr().out


@pytest.fixture
def fresh_parser():
    # the parser reads PROOFLAB_BUDGET when it is built; build it again for
    # the test and once more after it, under the restored environment
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


@pytest.mark.parametrize("value", ["abc", "", "-5", "0", "2.5"])
def test_bad_budget_environment_is_one_line_usage_error(
    value, monkeypatch, fresh_parser, capsys
):
    monkeypatch.setenv("PROOFLAB_BUDGET", value)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--sequent", "|- p"])
    out, err = capsys.readouterr()
    assert exc.value.code == EX_USAGE
    assert out == ""
    assert err == (
        "prooflab: error: PROOFLAB_BUDGET: expected an integer of at least 1,"
        f" got {value!r}\n"
    )


def test_budget_environment_sets_the_default(
    tmp_path, monkeypatch, fresh_parser, capsys
):
    monkeypatch.setenv("PROOFLAB_BUDGET", "1")
    d = and_elim(and_intro(axiom_leaf(q), axiom_leaf(p)), 1)
    argv = ["check_valid", "--rule", "p.", "--argument", argument_file(tmp_path, d)]
    assert main(argv) == EX_INCONCLUSIVE
    assert "budget of 1 distinct structures exhausted" in capsys.readouterr().out
    # the flag overrides the environment
    assert main([*argv, "--budget", "5"]) == EX_FAILS
    capsys.readouterr()


def test_bad_budget_environment_exits_64_in_a_fresh_process():
    # the environment is read when the parser is built, so importing the
    # module never fails on it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PROOFLAB_BUDGET="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "prooflab.cli", "eval", "--sequent", "|- p"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EX_USAGE
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "prooflab: error: PROOFLAB_BUDGET: expected an integer of at least 1, got 'abc'"
    ]


# ---------------------------------------------------------------------------
# malformed input


def test_bad_sequent_text(capsys):
    code = main(["eval", "--sequent", "p |- "])
    err = capsys.readouterr().err
    assert code == EX_DATA
    assert err.startswith("prooflab:")


def test_a_blank_premise_is_a_data_error(capsys):
    for sequent, pos in (("p,,q |- q", 2), (", |- r", 0), ("p, |- q", 2)):
        for semantics in ("standard", "sandqvist", "alpha"):
            argv = ["eval", "--rule", "q.", "--sequent", sequent, "--semantics", semantics]
            assert main(argv) == EX_DATA
            err = capsys.readouterr().err
            assert err == f"prooflab: expected a formula at position {pos}: {sequent!r}\n"
        assert main(["search", "--sequent", sequent]) == EX_DATA
        capsys.readouterr()
    # a blank left side still means no premises
    for sequent in ("|- q", "  |- q"):
        assert main(["eval", "--rule", "q.", "--sequent", sequent]) == EX_OK
        assert "holds:     yes" in capsys.readouterr().out


def test_bad_rule_text(capsys):
    code = main(["eval", "--rule", "((", "--sequent", "|- p"])
    assert code == EX_DATA
    capsys.readouterr()


def test_a_syntax_error_in_a_sequent_is_placed_in_the_whole_text(capsys):
    for sequent, pos in (("p, q & |- r", 7), ("p |- q &", 8)):
        assert main(["eval", "--sequent", sequent]) == EX_DATA
        err = capsys.readouterr().err
        assert err == f"prooflab: expected a formula at position {pos}: {sequent!r}\n"


def test_a_base_file_without_a_final_newline_is_not_glued_to_a_rule(tmp_path, capsys):
    path = tmp_path / "base.rules"
    path.write_text("p", encoding="utf-8")
    argv = ["eval", "--base", str(path), "--rule", "q"]
    assert main([*argv, "--sequent", "|- p & q"]) == EX_OK
    assert "base:      p., q." in capsys.readouterr().out
    assert main([*argv, "--sequent", "|- pq"]) == EX_FAILS
    capsys.readouterr()


def test_a_base_file_and_a_dotted_rule_make_two_rules(tmp_path, capsys):
    path = tmp_path / "base.rules"
    path.write_text("p.", encoding="utf-8")
    argv = ["eval", "--base", str(path), "--rule", "q.", "--sequent", "|- p & q"]
    assert main(argv) == EX_OK
    assert "base:      p., q." in capsys.readouterr().out


@pytest.mark.parametrize("rule", ["", " ", "# c", "p.\nq.", "p. q."])
def test_a_rule_that_is_not_exactly_one_rule_is_a_data_error(rule, capsys):
    assert main(["eval", "--rule", rule, "--sequent", "|- p"]) == EX_DATA
    err = capsys.readouterr().err
    assert err.startswith("prooflab: ") and err.count("\n") == 1


@settings(max_examples=60, deadline=None)
@given(rule_sets(), st.integers(0, 4), st.booleans())
def test_a_base_file_and_rules_load_as_the_union_of_their_parses(rs, cut, newline):
    assume(check_consistency(rs))
    texts = sorted(map(format_rule, rs))
    in_file, inline = texts[:cut], texts[cut:]
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "base.rules")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(in_file) + ("\n" if newline else ""))
        args = build_parser().parse_args(
            ["eval", "--base", path, *(x for r in inline for x in ("--rule", r)),
             "--sequent", "|- p"]
        )
        got = cli._load_base(args)
    assert got == Base(rs)
    with_file = parse_base_text("\n".join(in_file)).rules
    assert got.rules == with_file | {parse_rule(r) for r in inline}


@pytest.mark.parametrize("kind", ["(", "~", "->"])
def test_nesting_at_the_limit_and_above(kind, capsys):
    at, above = NESTED[kind](MAX_NESTING), NESTED[kind](MAX_NESTING + 1)
    for semantics in ("standard", "sandqvist", "alpha"):
        for rules in ([], ["--rule", "p."]):
            for sequent in (f"|- {at}", f"{at} |- q", f"p |- {at}"):
                argv = ["eval", *rules, "--sequent", sequent, "--semantics", semantics]
                assert main(argv) in (EX_OK, EX_FAILS)
                assert main([*argv, "--trace"]) in (EX_OK, EX_FAILS)
        argv = ["eval", "--sequent", f"|- {above}", "--semantics", semantics]
        assert main(argv) == EX_DATA
        assert "nested deeper than" in capsys.readouterr().err
    # the old probes, far above the limit
    assert main(["eval", "--sequent", "|- " + NESTED[kind](1200)]) == EX_DATA
    capsys.readouterr()


def discharge_nest(depth: int) -> str:
    """([... => q] => q) with depth discharged sets, one inside another."""
    text = "q"
    for _ in range(depth):
        text = f"([{text} => q] => q)"
    return text


def test_rule_nesting_at_the_limit_and_above(tmp_path, capsys):
    at = discharge_nest(MAX_NESTING)
    for semantics in ("standard", "sandqvist", "alpha"):
        argv = ["eval", "--rule", at, "--sequent", "|- q", "--semantics", semantics]
        assert main(argv) == EX_OK
        assert main([*argv, "--trace"]) == EX_OK
    capsys.readouterr()
    for above in (discharge_nest(MAX_NESTING + 1), discharge_nest(200)):
        assert main(["eval", "--rule", above, "--sequent", "|- q"]) == EX_DATA
        assert "rule nested deeper than" in capsys.readouterr().err
    path = tmp_path / "base.rules"
    path.write_text(f"p.\n{discharge_nest(MAX_NESTING + 1)}\n", encoding="utf-8")
    assert main(["eval", "--base", str(path), "--sequent", "|- p"]) == EX_DATA
    err = capsys.readouterr().err
    assert err.startswith("prooflab: line 2: rule nested deeper than")


def test_deeply_nested_argument_json_is_a_data_error(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "deep.json"
    bad.write_text('{"a":' * 1100 + "1" + "}" * 1100, encoding="utf-8")
    assert main(["check_valid", "--argument", str(bad)]) == EX_DATA
    err = capsys.readouterr().err
    assert err == f"prooflab: malformed argument file {bad}: nested too deeply\n"

    # JSON shallow enough to read, a structure too deep to build
    def too_deep(obj):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "structure_from_obj", too_deep)
    # earlier tests decoded this text; the memo would answer around the patch
    cli._decode_argument.cache_clear()
    path = argument_file(tmp_path, DETOUR)
    assert main(["check_valid", "--argument", path]) == EX_DATA
    err = capsys.readouterr().err
    assert err == (
        f"prooflab: malformed argument file {path}: structure nested too deeply\n"
    )


@pytest.mark.parametrize("command", ["check_valid", "reduce"])
def test_argument_formula_nesting_at_the_limit_and_above(command, tmp_path, capsys):
    # formula objects have the limit formula text has; a formula 450
    # levels deep, once loaded, would overflow the printer's recursion
    def structure(formula):
        return {"root": {"formula": formula, "axiomatic": True}, "discharge": []}

    at = write_json(
        tmp_path / "at.json", structure(nested_obj("and", MAX_NESTING, "left"))
    )
    assert main([command, "--argument", at]) in (EX_OK, EX_FAILS)
    capsys.readouterr()
    for depth in (MAX_NESTING + 1, 450):
        path = write_json(
            tmp_path / f"d{depth}.json", structure(nested_obj("and", depth, "left"))
        )
        assert main([command, "--argument", path]) == EX_DATA
        err = capsys.readouterr().err
        assert err == (
            f"prooflab: malformed argument file {path}: "
            f"formula nested deeper than {MAX_NESTING} levels\n"
        )
    # and in a justification's target
    deep = structure(nested_obj("imp", MAX_NESTING + 1, "right"))
    pointer = {"kind": "pointer", "source": structure_to_obj(DETOUR), "target": deep}
    path = argument_file(tmp_path, DETOUR, justifications=[pointer])
    assert main([command, "--argument", path]) == EX_DATA
    assert "formula nested deeper than" in capsys.readouterr().err


def node_chain(height):
    """q* under height one-premise steps concluding q, as an argument file
    object."""
    node = {"formula": {"op": "atom", "name": "q"}, "axiomatic": True}
    for _ in range(height):
        node = {"formula": {"op": "atom", "name": "q"}, "children": [node]}
    return {"root": node, "discharge": []}


@pytest.mark.parametrize("command", ["check_valid", "reduce"])
def test_node_nesting_at_the_limit_and_above(command, tmp_path, capsys):
    # node chains have the limit formulas have, checked on the way down
    rules = ["--rule", "q.", "--rule", "(q => q)"] if command == "check_valid" else []
    argv = [command, *rules]
    at = write_json(tmp_path / "at.json", node_chain(MAX_NESTING))
    assert main([*argv, "--argument", at]) == EX_OK
    capsys.readouterr()
    for height in (MAX_NESTING + 1, 400):
        path = write_json(tmp_path / f"h{height}.json", node_chain(height))
        assert main([*argv, "--argument", path]) == EX_DATA
        assert capsys.readouterr().err == (
            f"prooflab: structure nested deeper than {MAX_NESTING} levels\n"
        )


# q / q*, with a constant reduction whose target, q / (q / q*), holds its own
# inference: every reduct is a level taller than the one it came from
GROWING = Node(q, (axiom_leaf(q),))
GROWING_KAPPA = {
    "kind": "constant",
    "premises": ["q"],
    "conclusion": "q",
    "target": structure_to_obj(Node(q, (GROWING,))),
}


def test_growing_reducts_exhaust_the_height_budget(tmp_path, capsys):
    path = argument_file(tmp_path, GROWING, justifications=[GROWING_KAPPA])
    start = time.perf_counter()
    code = main(["check_valid", "--argument", path])
    assert time.perf_counter() - start < 1.0
    assert code == EX_INCONCLUSIVE
    out = capsys.readouterr().out
    assert f"reason:     height budget of {MAX_NESTING} levels exhausted\n" in out
    target = argument_file(tmp_path, axiom_leaf(q), name="target.json")
    code = main(["reduce", "--argument", path, "--target", target])
    assert code == EX_INCONCLUSIVE
    out = capsys.readouterr().out
    assert f"note:    height budget of {MAX_NESTING} levels exhausted" in out


def test_reduce_stops_at_a_fixed_point(tmp_path, capsys):
    # after one step the constant reduction rewrites q / (q / q*) to itself
    path = argument_file(tmp_path, GROWING, justifications=[GROWING_KAPPA])
    start = time.perf_counter()
    code = main(["reduce", "--argument", path])
    assert time.perf_counter() - start < 1.0
    assert code == EX_INCONCLUSIVE
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "step 1: constant at []",
        "note: fixed point after step 1: the next rewrite returns the structure"
        " unchanged, so this path has no normal form",
        "result:",
    ]
    assert lines[3:] == ["  " + ln for ln in pretty(Node(q, (GROWING,))).splitlines()]
    code = main(["reduce", "--argument", path, "--format", "json"])
    assert code == EX_INCONCLUSIVE
    payload = json.loads(capsys.readouterr().out)
    assert payload["stuck"] is False and len(payload["steps"]) == 1
    assert payload["note"].startswith("fixed point after step 1")


def test_reduce_stops_at_the_height_budget(tmp_path, capsys):
    # the axiom leaf q* under a constant reduction of the zero-premise
    # inference q to q / q*: each step rewrites the new leaf at the bottom,
    # so the one path grows a level per step and never reaches a fixed point
    grow = {
        "kind": "constant",
        "premises": [],
        "conclusion": "q",
        "target": structure_to_obj(GROWING),
    }
    path = argument_file(tmp_path, axiom_leaf(q), justifications=[grow])
    start = time.perf_counter()
    code = main(["reduce", "--argument", path, "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert code == EX_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["note"] == (
        f"height budget of {MAX_NESTING} levels exhausted before a normal form"
    )
    assert payload["stuck"] is False and len(payload["steps"]) == MAX_NESTING
    assert payload["normal_form"] == node_chain(MAX_NESTING)
    code = main(["reduce", "--argument", path])
    assert code == EX_INCONCLUSIVE
    out = capsys.readouterr().out
    assert (
        f"note: height budget of {MAX_NESTING} levels exhausted before a normal "
        "form\nresult:\n" in out
    )


def chain_base(tmp_path, rules):
    """p0. and (p{i-1} => p{i}) up to rules rules in all, as a base file:
    the derivation of its last atom is rules levels deep."""
    text = "p0.\n" + "".join(f"(p{i - 1} => p{i})\n" for i in range(1, rules))
    path = tmp_path / f"chain{rules}.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("rules", [250, 1200])
def test_a_derivation_above_the_limit_is_inconclusive(tmp_path, capsys, rules):
    # the witness of the chain's last atom would be an argument structure
    # deeper than MAX_NESTING, for eval's alpha relation and for the closing
    # instance check_valid gives an open argument alike
    base = chain_base(tmp_path, rules)
    top = Atom(f"p{rules - 1}")
    argv = ["eval", "--base", base, "--semantics", "alpha"]
    code = main([*argv, f"--sequent=|- {top.name}"])
    captured = capsys.readouterr()
    assert code == EX_INCONCLUSIVE
    assert len(captured.err.splitlines()) <= 1
    assert "status:    inconclusive\n" in captured.out
    assert f"derivation nested deeper than {MAX_NESTING} levels" in captured.out
    path = argument_file(tmp_path, assumption(top))
    code = main(["check_valid", "--base", base, "--argument", path])
    captured = capsys.readouterr()
    assert code == EX_INCONCLUSIVE and captured.err == ""
    assert (
        "reason:     no closing instance could be built: derivation nested "
        f"deeper than {MAX_NESTING} levels\n"
    ) in captured.out
    # a derivation at the limit still has its witness
    assert main([*argv, f"--sequent=|- p{MAX_NESTING}"]) == EX_OK
    assert "status:    valid\n" in capsys.readouterr().out


def test_reduce_names_a_spent_step_budget(tmp_path, capsys):
    d, rules = detour_chain(3)
    path = argument_file(tmp_path, d)
    code = main(["reduce", "--argument", path, "--budget", "2", "--format", "json"])
    assert code == EX_INCONCLUSIVE
    payload = json.loads(capsys.readouterr().out)
    assert [s["rule"] for s in payload["steps"]] == rules[:2]
    assert payload["stuck"] is False
    assert payload["note"] == "step budget of 2 exhausted before a normal form"
    # a budget that holds the path: no note, as before
    code = main(["reduce", "--argument", path, "--budget", "3", "--format", "json"])
    assert code == EX_OK
    assert "note" not in json.loads(capsys.readouterr().out)


def test_inconsistent_base_is_rejected(capsys):
    code = main(
        [
            "eval",
            "--rule",
            "p.",
            "--rule",
            "(p => bot)",
            "--sequent",
            "|- p",
        ]
    )
    err = capsys.readouterr().err
    assert code == EX_DATA
    assert "bot" in err


def test_base_file_syntax_error_names_its_line_once(tmp_path, capsys):
    path = tmp_path / "base.txt"
    path.write_text("p.\n  (p => q  # a comment\n", encoding="utf-8")
    code = main(["eval", "--base", str(path), "--sequent", "|- p"])
    err = capsys.readouterr().err
    assert code == EX_DATA
    assert err == (
        "prooflab: line 2: expected ')' at position 9: '  (p => q  # a comment'\n"
    )


def test_bad_discharge_is_a_data_error(tmp_path, capsys):
    root, entry, message = BAD_DISCHARGES["rule-premises-not-the-children"]
    obj = {"structure": bad_discharge_obj(root, entry)}
    path = write_json(tmp_path / "arg.json", obj)
    code = main(["check_valid", "--argument", path])
    err = capsys.readouterr().err
    assert code == EX_DATA
    # one line, no traceback
    assert err == f"prooflab: {message}\n"


def test_missing_argument_file(capsys):
    code = main(["check_valid", "--argument", "/no/such/file.json"])
    assert code == EX_DATA
    capsys.readouterr()


def test_malformed_json_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["check_valid", "--argument", str(bad)])
    assert code == EX_DATA
    capsys.readouterr()


def test_unknown_named_reduction(tmp_path, capsys):
    path = argument_file(tmp_path, DETOUR, justifications=["mystery"])
    code = main(["check_valid", "--argument", path])
    err = capsys.readouterr().err
    assert code == EX_DATA
    assert "unknown reduction" in err


def test_unknown_justification_kind(tmp_path, capsys):
    path = argument_file(tmp_path, DETOUR, justifications=[{"kind": "magic"}])
    code = main(["check_valid", "--argument", path])
    err = capsys.readouterr().err
    assert code == EX_DATA
    assert "unknown justification kind" in err


# argument files of the wrong shape: a key missing or a value of the wrong type
MALFORMED_ARGUMENTS = {
    "root-without-formula": {"structure": {"root": {}}},
    "structure-not-an-object": {"structure": 5},
    "list": [1, 2],
    "discharge-without-path": {
        "structure": {
            "root": structure_to_obj(assumption(p))["root"],
            "discharge": [{"kind": "assume", "target": []}],
        }
    },
    # a field of the wrong JSON type is refused, not read another way
    "axiomatic-a-string": {
        "structure": {
            "root": {**structure_to_obj(assumption(q))["root"], "axiomatic": "false"}
        }
    },
    "children-an-object": {
        "structure": {"root": {**structure_to_obj(DETOUR)["root"], "children": {}}}
    },
    "discharge-an-object": {
        "structure": {
            "root": structure_to_obj(impl_intro(assumption(p), p))["root"],
            "discharge": {},
        }
    },
    "discharge-path-a-string": {
        "structure": {
            "root": structure_to_obj(impl_intro(assumption(p), p))["root"],
            "discharge": [{"kind": "assume", "path": "0", "target": []}],
        }
    },
    "discharge-target-a-string": {
        "structure": {
            "root": structure_to_obj(impl_intro(assumption(p), p))["root"],
            "discharge": [{"kind": "assume", "path": [0], "target": ""}],
        }
    },
    "premises-a-string": {
        "structure": structure_to_obj(DETOUR),
        "justifications": [
            {
                "kind": "constant",
                "premises": "pr",
                "conclusion": "p",
                "target": structure_to_obj(axiom_leaf(p)),
            }
        ],
    },
    "justifications-a-string": {
        "structure": structure_to_obj(DETOUR),
        "justifications": "",
    },
    "constant-without-premises": {
        "structure": structure_to_obj(DETOUR),
        "justifications": [
            {
                "kind": "constant",
                "conclusion": "p",
                "target": structure_to_obj(axiom_leaf(p)),
            }
        ],
    },
}


@pytest.mark.parametrize(
    "obj", MALFORMED_ARGUMENTS.values(), ids=list(MALFORMED_ARGUMENTS)
)
def test_malformed_argument_is_a_data_error(tmp_path, capsys, obj):
    path = write_json(tmp_path / "arg.json", obj)
    code = main(["check_valid", "--argument", path])
    err = capsys.readouterr().err
    assert code == EX_DATA
    # one line, no traceback
    assert err.startswith(f"prooflab: malformed argument file {path}: ")
    assert err.count("\n") == 1


def test_an_axiomatic_inner_node_is_a_data_error(tmp_path, capsys):
    root = {**structure_to_obj(DETOUR)["root"], "axiomatic": True}
    path = write_json(tmp_path / "arg.json", {"root": root})
    assert main(["check_valid", "--argument", path]) == EX_DATA
    assert capsys.readouterr().err == "prooflab: axiomatic mark on an inner node\n"


def _constant_premise(premise):
    """An argument file's text whose constant justification has one premise."""
    kappa = {
        "kind": "constant",
        "premises": [premise],
        "conclusion": "p",
        "target": structure_to_obj(axiom_leaf(p)),
    }
    return json.dumps({"structure": structure_to_obj(DETOUR), "justifications": [kappa]})


# (file text, whether the message names the file): each malformed text fails
# the same way on every call, since the decoding memo keeps no error
MALFORMED_TEXTS = {
    **{name: (json.dumps(obj), True) for name, obj in MALFORMED_ARGUMENTS.items()},
    "json-too-deep": ('{"a":' * 1100 + "1" + "}" * 1100, True),
    "not-json": ("{not json", False),
    "unknown-reduction": (
        json.dumps({"structure": structure_to_obj(DETOUR), "justifications": ["x"]}),
        False,
    ),
    "premise-text-malformed": (_constant_premise("p &"), False),
    "premise-an-empty-list": (_constant_premise([]), False),
    "premise-a-list": (_constant_premise(["p"]), True),
}


@pytest.mark.parametrize(
    "text, with_path", MALFORMED_TEXTS.values(), ids=list(MALFORMED_TEXTS)
)
def test_a_malformed_argument_fails_alike_on_every_call(
    tmp_path, capsys, text, with_path
):
    bad = tmp_path / "arg.json"
    bad.write_text(text, encoding="utf-8")
    runs = []
    for _ in range(2):
        code = main(["check_valid", "--argument", str(bad)])
        runs.append((code, capsys.readouterr().err))
    assert runs[0] == runs[1]
    code, err = runs[0]
    assert code == EX_DATA and err.count("\n") == 1
    assert err.startswith(f"prooflab: malformed argument file {bad}: ") == with_path
    assert "unhashable" not in err


def test_an_argument_file_rewritten_in_place_is_decoded_again(tmp_path, capsys):
    argv = ["check_valid", "--rule", "p.", "--rule", "q.", "--argument"]
    path = argument_file(tmp_path, DETOUR)
    assert main(argv + [path]) == EX_OK
    argument_file(tmp_path, axiom_leaf(Atom("r")))
    assert main(argv + [path]) == EX_FAILS
    assert "conclusion: r" in capsys.readouterr().out
    write_json(tmp_path / "arg.json", {"structure": {"root": {}}})
    assert main(argv + [path]) == EX_DATA
    assert capsys.readouterr().err.startswith(
        f"prooflab: malformed argument file {path}: "
    )
    argument_file(tmp_path, DETOUR)
    assert main(argv + [path]) == EX_OK
    assert "status:     valid" in capsys.readouterr().out


def test_equal_argument_texts_load_one_argument(tmp_path):
    a = argument_file(tmp_path, DETOUR, name="a.json")
    b = argument_file(tmp_path, DETOUR, name="b.json")
    other = argument_file(tmp_path, BINDER, name="c.json")
    assert cli._load_argument(a) is cli._load_argument(b)
    assert cli._load_argument(a) is cli._load_argument(a)
    assert cli._load_argument(other) is not cli._load_argument(a)


def _not_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe{}")
    return str(path)


# files that cannot be read as UTF-8 text: bytes that do not decode, a directory
UNREADABLE_INPUTS = {
    "argument-not-utf8": lambda d: ["check_valid", "--argument", _not_utf8(d)],
    "argument-directory": lambda d: ["check_valid", "--argument", str(d)],
    "base-not-utf8": lambda d: ["eval", "--base", _not_utf8(d), "--sequent", "|- p"],
    "base-directory": lambda d: ["eval", "--base", str(d), "--sequent", "|- p"],
}


@pytest.mark.parametrize(
    "argv", UNREADABLE_INPUTS.values(), ids=list(UNREADABLE_INPUTS)
)
def test_unreadable_input_is_a_data_error(tmp_path, capsys, argv):
    code = main(argv(tmp_path))
    err = capsys.readouterr().err
    assert code == EX_DATA
    # one line, no traceback
    assert err.startswith("prooflab: ")
    assert err.count("\n") == 1
