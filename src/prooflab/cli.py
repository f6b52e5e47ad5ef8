"""Command-line front end.

Commands:
  eval         does a sequent hold over a base, under a chosen relation
  check_valid  is an argument (structure + justifications) valid over a base
  reduce       rewrite an argument step by step, or test reachability
  search       hunt for a base refuting a sequent within bounds
  suite        run the bundled experiments and print a report

Exit codes: 0 the queried property holds (or the search found a base, or a
reduct was reached), 1 it definitely does not, 2 the run was inconclusive
or hit a resource limit, 64 usage error, 65 malformed input, 70 internal
error.  The default budget comes from PROOFLAB_BUDGET when set; like
--budget, it must be an integer of at least 1.

Each distinct text is decoded once per process, through bounded memos that
keep no error: formula and rule text by parse_formula and parse_rule, an
argument file by its content.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from prooflab import reductions
from prooflab.arguments import (
    StructureError,
    _json_list,
    conclusion,
    is_closed,
    pretty,
    structure_from_obj,
    structure_to_obj,
)
from prooflab.atomic_system import (
    AtomicRule,
    Base,
    InconsistentBaseError,
    ResourceLimitExceeded,
    RuleSyntaxError,
    format_base,
    parse_base_text,
    parse_rule,
)
from prooflab.base_semantics import (
    SearchBounds,
    SemanticsKind,
    base_completeness_witness,
    export_principle_holds,
    format_sequent,
    models,
    parse_sequent,
    search_counterexample,
)
from prooflab.reductions import (
    Reduction,
    constant_reduction,
    normalize,
    pointer_reduction,
    search_reduct,
    standard_reductions,
)
from prooflab.syntax import FormulaSyntaxError, format_formula, parse_formula
from prooflab.validity import (
    Argument,
    Status,
    check_valid,
    compare_consequence_notions,
    models_alpha,
    semantic_suite_provider,
)

EX_OK = 0
EX_FAILS = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_DATA = 65
EX_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit 2
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    """The report: the payload as JSON under --format json, else the text;
    into the --output file when one is given, else to stdout."""
    if args.fmt == "json":
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        body = text if text.endswith("\n") else text + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _load_base(args: argparse.Namespace) -> Base:
    """The base of the --base file's rules, one per line, and the --rule
    texts, each parsed alone as exactly one rule."""
    rules: frozenset[AtomicRule] = frozenset()
    if getattr(args, "base", None):
        with open(args.base, encoding="utf-8") as fh:
            rules = parse_base_text(fh.read()).rules
    return Base(rules=rules.union(map(parse_rule, getattr(args, "rule", None) or ())))


def _load_argument(path: str) -> Argument:
    """The argument in a JSON file: a structure, or an object holding one
    under "structure" and optional "justifications".  A file that does not
    have that shape, or nests too deeply to read, is malformed input.  The
    file is read on every call and decoded once per distinct text (keyed by
    content, not path, in a bounded memo); an error is never kept, so a
    malformed file fails on every call, with its path in the message."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _decode_argument(text)
    except (StructureError, FormulaSyntaxError, RuleSyntaxError, json.JSONDecodeError):
        raise
    except KeyError as exc:
        raise StructureError(
            f"malformed argument file {path}: missing key {exc.args[0]!r}"
        ) from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise StructureError(f"malformed argument file {path}: {exc}") from None
    except RecursionError:
        raise StructureError(
            f"malformed argument file {path}: structure nested too deeply"
        ) from None


@lru_cache(maxsize=256)
def _decode_argument(text: str) -> Argument:
    try:
        obj = json.loads(text)
    except RecursionError:  # told apart from a structure too deep to build
        raise ValueError("nested too deeply") from None
    if isinstance(obj, dict) and "structure" in obj:
        struct = structure_from_obj(obj["structure"])
        listed = _json_list(obj.get("justifications", []), "justifications")
        justs = tuple(_parse_justification(j) for j in listed)
        return Argument(structure=struct, justifications=justs)
    return Argument(structure=structure_from_obj(obj), justifications=())


_BY_NAME = {r.name: r for r in standard_reductions()}


def _parse_justification(obj) -> Reduction:
    if isinstance(obj, str):
        if obj not in _BY_NAME:
            raise StructureError(
                f"unknown reduction {obj!r}; the named ones are "
                + ", ".join(sorted(_BY_NAME))
            )
        return _BY_NAME[obj]
    kind = obj.get("kind")
    if kind == "constant":
        premises = _json_list(obj["premises"], "a constant justification's premises")
        return constant_reduction(
            [parse_formula(t) for t in premises],
            parse_formula(obj["conclusion"]),
            structure_from_obj(obj["target"]),
            name=obj.get("name", "constant"),
        )
    if kind == "pointer":
        return pointer_reduction(
            structure_from_obj(obj["source"]),
            structure_from_obj(obj["target"]),
            name=obj.get("name", "pointer"),
        )
    raise StructureError(f"unknown justification kind {kind!r}")


def _status_exit(status: Status) -> int:
    return {
        Status.VALID: EX_OK,
        Status.INVALID: EX_FAILS,
        Status.INCONCLUSIVE: EX_INCONCLUSIVE,
    }[status]


# ---------------------------------------------------------------------------
# commands


def _cmd_eval(args: argparse.Namespace) -> int:
    base = _load_base(args)
    sequent = parse_sequent(args.sequent)
    rules = format_base(base).splitlines()
    payload = {
        "base": rules,
        "sequent": format_sequent(sequent),
        "semantics": args.semantics,
    }
    lines = [
        f"sequent:   {format_sequent(sequent)}",
        f"base:      {', '.join(rules) or '(empty)'}",
    ]
    if args.semantics == "alpha":
        res = models_alpha(base, sequent, budget=args.budget, strict=args.strict)
        payload["status"] = res.verdict.status.value
        payload["reason"] = res.verdict.reason
        lines += [
            "semantics: argument-based (alpha)",
            f"status:    {res.verdict.status.value}",
            f"reason:    {res.verdict.reason}",
        ]
        if res.witness is not None:
            payload["witness"] = structure_to_obj(res.witness.structure)
            payload["justifications"] = [
                r.name for r in res.witness.justifications
            ]
            lines.append("witness:")
            lines.extend(
                "  " + ln for ln in pretty(res.witness.structure).splitlines()
            )
        _emit(args, "\n".join(lines), payload)
        return _status_exit(res.verdict.status)
    # text output prints the trace only under --trace; JSON always carries it
    res = models(
        SemanticsKind(args.semantics),
        base,
        sequent,
        trace=args.trace or args.fmt == "json",
    )
    payload["holds"] = res.holds
    payload["trace"] = [list(entry) for entry in res.trace.entries]
    payload["notes"] = list(res.trace.notes)
    lines += [
        f"semantics: {args.semantics}",
        f"holds:     {'yes' if res.holds else 'no'}",
    ]
    for note in res.trace.notes:
        lines.append(f"note:      {note}")
    if args.trace:
        lines.append("trace:")
        for clause, prem, formula, value in res.trace.entries:
            lines.append(f"  [{clause}] {prem} :: {formula} -> {value}")
    _emit(args, "\n".join(lines), payload)
    return EX_OK if res.holds else EX_FAILS


def _cmd_check_valid(args: argparse.Namespace) -> int:
    base = _load_base(args)
    arg = _load_argument(args.argument)
    provider = semantic_suite_provider(base)
    verdict = check_valid(arg, base, suite_provider=provider, budget=args.budget)
    payload = {
        "base": format_base(base).splitlines(),
        "conclusion": format_formula(conclusion(arg.structure)),
        "closed": is_closed(arg.structure),
        "status": verdict.status.value,
        "reason": verdict.reason,
        "notes": list(verdict.notes),
    }
    lines = [
        f"conclusion: {format_formula(conclusion(arg.structure))}",
        f"closed:     {'yes' if is_closed(arg.structure) else 'no'}",
        f"status:     {verdict.status.value}",
        f"reason:     {verdict.reason}",
    ]
    lines.extend(f"note:       {n}" for n in verdict.notes)
    _emit(args, "\n".join(lines), payload)
    return _status_exit(verdict.status)


def _cmd_reduce(args: argparse.Namespace) -> int:
    arg = _load_argument(args.argument)
    reds = arg.reductions()
    if args.target:
        target = _load_argument(args.target).structure
        out = search_reduct(arg.structure, target, reds, budget=args.budget)
        payload = {
            "status": out.status,
            "visited": out.visited,
            "note": out.note,
            "path": [
                {"position": list(pos), "rule": name}
                for pos, name in (out.path or ())
            ],
        }
        lines = [f"status:  {out.status}", f"visited: {out.visited}"]
        if out.note:
            lines.append(f"note:    {out.note}")
        for pos, name in out.path or ():
            lines.append(f"  at {list(pos)}: {name}")
        _emit(args, "\n".join(lines), payload)
        return {"yes": EX_OK, "no": EX_FAILS, "inconclusive": EX_INCONCLUSIVE}[
            out.status
        ]
    # no target: rewrite to a normal form, tracing the steps
    current, path, why = normalize(arg.structure, reds, args.budget)
    steps = [{"position": list(pos), "rule": name} for pos, name in path]
    payload = {
        "steps": steps,
        "normal_form": structure_to_obj(current),
        "stuck": not why,
    }
    lines = []
    for k, step in enumerate(steps, 1):
        lines.append(f"step {k}: {step['rule']} at {step['position']}")
    if why:
        payload["note"] = why
        lines.append(f"note: {why}")
    lines.append("result:")
    lines.extend("  " + ln for ln in pretty(current).splitlines())
    _emit(args, "\n".join(lines), payload)
    return EX_INCONCLUSIVE if why else EX_OK


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}"
        )
    return value


def _bounds(text: str) -> SearchBounds:
    try:
        max_atoms, max_rules, max_level = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated integers, got {text!r}"
        )
    if min(max_atoms, max_rules, max_level) < 0:
        raise argparse.ArgumentTypeError(f"bounds must not be negative, got {text!r}")
    return SearchBounds(
        max_atoms=max_atoms, max_rules=max_rules, max_level=max_level
    )


def _cmd_search(args: argparse.Namespace) -> int:
    sequent = parse_sequent(args.sequent)
    bounds = args.bounds
    res = search_counterexample(SemanticsKind(args.semantics), sequent, bounds)
    payload = {
        "sequent": format_sequent(sequent),
        "semantics": args.semantics,
        "bounds": [bounds.max_atoms, bounds.max_rules, bounds.max_level],
        "examined": res.examined,
        "counterexample": (
            format_base(res.counterexample).splitlines()
            if res.counterexample is not None
            else None
        ),
        "note": res.note,
    }
    lines = [
        f"sequent:  {format_sequent(sequent)}",
        f"examined: {res.examined} bases",
    ]
    if res.counterexample is not None:
        lines.append("refuting base:")
        body = format_base(res.counterexample).splitlines() or ["(empty)"]
        lines.extend("  " + ln for ln in body)
    else:
        lines.append("no refuting base within bounds")
    if res.note:
        lines.append(f"note: {res.note}")
    _emit(args, "\n".join(lines), payload)
    return EX_OK if res.counterexample is not None else EX_FAILS


def _suite_report(budget: int) -> dict:
    report: dict = {}

    base_empty = Base(frozenset())
    base_p = parse_base_text("p.\n")
    seq = parse_sequent("p |- q")
    report["non_monotonicity"] = {
        "sequent": format_sequent(seq),
        "over_empty": {
            kind.name.lower(): models(kind, base_empty, seq, trace=False).holds
            for kind in SemanticsKind
        },
        "over_p": {
            kind.name.lower(): models(kind, base_p, seq, trace=False).holds
            for kind in SemanticsKind
        },
    }

    export = export_principle_holds(
        SemanticsKind.STANDARD,
        base_empty,
        seq,
        frozenset(),
        SearchBounds(max_atoms=2, max_rules=3, max_level=2),
    )
    report["export_failure"] = {
        "verdict": export.verdict,
        "left_holds": export.left_holds,
        "refuting_base": (
            format_base(export.counterexample).splitlines()
            if export.counterexample is not None
            else None
        ),
    }

    keys = ("sequent", "base", "models", "il_derives", "verdict")
    report["base_incompleteness"] = {
        kind: {key: w[key] for key in keys}
        for kind in ("standard", "sandqvist", "alpha")
        for w in [base_completeness_witness(kind)]
    }

    sweep = {}
    for text in ("((p -> q) -> p) -> p", "~~p -> p", "p | ~p"):
        seq_t = parse_sequent(f"|- {text}")
        row = {}
        for kind in SemanticsKind:
            res = search_counterexample(
                kind, seq_t, SearchBounds(max_atoms=3, max_rules=4, max_level=2)
            )
            row[kind.value] = {
                "examined": res.examined,
                "refuted": res.counterexample is not None,
            }
        sweep[text] = row
    report["classical_tautology_sweep"] = sweep

    report["consequence_comparison"] = compare_consequence_notions(
        base_p,
        [
            parse_sequent(t)
            for t in ("|- p", "|- q", "|- p | ~p", "q |- p", "p |- q")
        ],
        budget=budget,
    )
    return report


def _cmd_suite(args: argparse.Namespace) -> int:
    report = _suite_report(args.budget)
    lines = []
    nm = report["non_monotonicity"]
    lines.append("non-monotonicity")
    lines.append(f"  {nm['sequent']}")
    lines.append(
        "    over the empty base: "
        + ", ".join(f"{k}={v}" for k, v in sorted(nm["over_empty"].items()))
    )
    lines.append(
        "    after adding the premise as an axiom: "
        + ", ".join(f"{k}={v}" for k, v in sorted(nm["over_p"].items()))
    )
    ex = report["export_failure"]
    lines.append("premise-export failure")
    lines.append(f"  verdict: {ex['verdict']}")
    if ex["refuting_base"] is not None:
        lines.append(f"  refuting base: {', '.join(ex['refuting_base'])}")
    lines.append("base-incompleteness witnesses")
    for kind, w in sorted(report["base_incompleteness"].items()):
        lines.append(
            f"  {kind}: {w['sequent']} holds over {w['base'] or '(empty)'}"
            f" but is not derivable intuitionistically -> {w['verdict']}"
        )
    lines.append("classical tautologies stay unrefuted")
    for text, row in report["classical_tautology_sweep"].items():
        cells = ", ".join(
            f"{k}: examined {v['examined']}, refuted={v['refuted']}"
            for k, v in sorted(row.items())
        )
        lines.append(f"  {text}: {cells}")
    lines.append("variant vs argument-based consequence")
    for row in report["consequence_comparison"]:
        lines.append(
            f"  {row['sequent']}: sandqvist={row['sandqvist']} "
            f"alpha={row['alpha']} agree={row['agree']}"
        )
    _emit(args, "\n".join(lines), report)
    return EX_OK


# ---------------------------------------------------------------------------
# argument parsing


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and building it costs more than a typical command.  The
    default budget is read from PROOFLAB_BUDGET here; a value that is not
    an integer of at least 1 is a usage error."""
    parser = _Parser(
        prog="prooflab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    try:
        default_budget = _budget(
            os.environ.get("PROOFLAB_BUDGET", str(reductions.DEFAULT_BUDGET))
        )
    except argparse.ArgumentTypeError as exc:
        parser.error(f"PROOFLAB_BUDGET: {exc}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser, base: bool = True) -> None:
        if base:
            sp.add_argument("--base", help="file with one rule per line")
            sp.add_argument(
                "--rule",
                action="append",
                help="one inline rule, repeatable (e.g. 'p.' or '(p => q)')",
            )
        sp.add_argument(
            "--budget",
            type=_budget,
            default=default_budget,
            help=(
                "bound on the distinct structures a reduction search explores,"
                " or on the structures of the one path it follows where the"
                " standard reductions alone decide it by normal form (on the"
                " rewrite steps, for reduce without --target)"
            ),
        )
        sp.add_argument(
            "--format", choices=["text", "json"], default="text", dest="fmt"
        )
        sp.add_argument("--output", help="write the report here instead of stdout")

    sp = sub.add_parser("eval", help="evaluate a sequent over a base")
    add_common(sp)
    sp.add_argument("--sequent", required=True, help="e.g. 'p, p -> q |- q'")
    sp.add_argument(
        "--semantics",
        choices=["standard", "sandqvist", "alpha"],
        default="standard",
    )
    sp.add_argument(
        "--strict",
        action="store_true",
        help="alpha only: allow only the standard reductions in witnesses",
    )
    sp.add_argument(
        "--trace", action="store_true", help="print the clause-by-clause trace"
    )
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("check_valid", help="check an argument file")
    add_common(sp)
    sp.add_argument(
        "--argument",
        required=True,
        help="JSON file: {structure, justifications?}",
    )
    sp.set_defaults(func=_cmd_check_valid)

    sp = sub.add_parser("reduce", help="rewrite an argument")
    add_common(sp, base=False)
    sp.add_argument("--argument", required=True)
    sp.add_argument(
        "--target", help="JSON structure file: test reachability instead"
    )
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("search", help="search for a refuting base")
    add_common(sp, base=False)
    sp.add_argument("--sequent", required=True)
    sp.add_argument(
        "--semantics", choices=["standard", "sandqvist"], default="standard"
    )
    sp.add_argument(
        "--bounds",
        type=_bounds,
        default="3,4,2",
        help=(
            "atoms,rules,level caps for the searched bases; the search tries "
            "axiom-only bases, which are exhaustive, so the level cap cannot "
            "change an answer"
        ),
    )
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("suite", help="run the bundled experiments")
    add_common(sp, base=False)
    sp.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        FormulaSyntaxError,
        RuleSyntaxError,
        InconsistentBaseError,
        StructureError,
        json.JSONDecodeError,
        UnicodeDecodeError,
        OSError,
    ) as exc:
        print(f"prooflab: {exc}", file=sys.stderr)
        return EX_DATA
    except ResourceLimitExceeded as exc:
        print(f"prooflab: resource limit: {exc}", file=sys.stderr)
        return EX_INCONCLUSIVE
    except Exception as exc:  # pragma: no cover - defensive
        import traceback

        traceback.print_exc()
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
