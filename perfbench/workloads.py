"""The three workloads.  Each one builds its inputs from a seed in setup(),
hands out its operations in whole rounds, answers one operation per
run() call through the package's public functions, and checks the answers
against refcheck afterwards.

A run is a fixed number of whole rounds: the operation count depends on
the run length asked for and never on how fast the program is, so
process-wide caches fill the same way on a faster program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics

import inputs
import refcheck
from prooflab import arguments, atomic_system, base_semantics, cli, validity
from prooflab.arguments import assumption, axiom_leaf
from prooflab.base_semantics import SemanticsKind
from prooflab.syntax import Atom

MIN_OPS = 1000
ENUM_DEPTH = 8
EVAL_SETTINGS = tuple(
    (sem, fmt, trace)
    for sem in ("standard", "sandqvist", "alpha")
    for fmt in ("text", "json")
    for trace in (False, True)
)


def rounds_for(seconds: float, per_second: float, ops_per_round: int) -> int:
    """Whole rounds for a run of about `seconds` on the reference machine,
    and never fewer than MIN_OPS operations."""
    return max(math.ceil(MIN_OPS / ops_per_round), round(seconds * per_second))


class _References:
    """Derivable atoms by bounded enumeration and the clause relations by
    the oracles' transcriptions, memoized per rule set."""

    def __init__(self) -> None:
        self._derivable: dict[frozenset, frozenset[str]] = {}

    def derivable(self, rules: frozenset) -> frozenset[str]:
        got = self._derivable.get(rules)
        if got is None:
            atoms = refcheck.rule_atoms(rules) | {"bot"}
            got = frozenset(
                a for a in atoms if refcheck.enum_derivable(rules, a, ENUM_DEPTH)
            )
            self._derivable[rules] = got
        return got

    def standard(self, rules, seq) -> bool:
        return refcheck.ref_standard(seq.premises, seq.conclusion, self.derivable(rules))

    def variant(self, rules, seq) -> bool:
        used = refcheck.rule_atoms(rules) | refcheck.sequent_atoms(seq)
        universe = frozenset(used) | {refcheck.fresh_atom(used)}
        return refcheck.ref_variant(
            seq.premises, seq.conclusion, self.derivable(rules), universe
        )


# ---------------------------------------------------------------------------


class FamilySweep:
    """Every base of the acceptance family crossed with the acceptance
    gate's sequent pool, in an order shuffled by the seed; one operation
    decides one pair under both clause relations and models_alpha, and asks
    il_derives for the sequent."""

    name = "family-sweep"
    warm_up = True

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed, self.smoke = seed, smoke
        self.seconds = seconds

    def setup(self) -> None:
        self.family = inputs.base_family(max_rules=1 if self.smoke else 3)
        # the gate's own pool: the pairs stay the same from seed to seed,
        # only their order does not
        self.pool = inputs.sequent_pool(inputs.GATE_SEED, scale=0.1 if self.smoke else 1.0)
        pairs = [(b, s) for b in self.family for s in self.pool]
        # the warm-up pass goes in one order for every seed: what it leaves
        # in memory, and where, is then the same for every seed
        self.pass_ops = list(pairs)
        random.Random(self.seed).shuffle(pairs)
        n = 1 if self.smoke else rounds_for(self.seconds, 0.1, len(pairs))
        self.ops = pairs * n

    def run(self, op):
        base, seq = op
        std = base_semantics.models(SemanticsKind.STANDARD, base, seq, trace=False)
        var = base_semantics.models(SemanticsKind.SANDQVIST, base, seq, trace=False)
        alpha = validity.models_alpha(base, seq)
        il = base_semantics.il_derives(seq.premises, seq.conclusion)
        return (std.holds, var.holds, alpha.holds, il)

    def check(self, answers) -> tuple[int, list[str]]:
        refs = _References()
        problems: list[str] = []
        il_true: dict = {}
        std_fails: set = set()
        for (base, seq), (std, var, alpha, il) in zip(self.ops, answers):
            want = refs.standard(base.rules, seq)
            where = f"{seq} over {sorted(map(str, base.rules))}"
            if std != want:
                problems.append(f"standard {std} vs reference {want}: {where}")
            if var != refs.variant(base.rules, seq):
                problems.append(f"sandqvist {var} disagrees with reference: {where}")
            if alpha is None:
                problems.append(f"models_alpha inconclusive: {where}")
            elif alpha != std:
                problems.append(f"models_alpha {alpha} vs standard {std}: {where}")
            if il:
                il_true[seq] = True
            if not (std and var):
                std_fails.add(seq)
        for seq in il_true:
            if seq in std_fails:
                problems.append(f"base-soundness: {seq} is IL-derivable but fails")
        if not self.smoke and inputs.family_rule_texts(self.family) != inputs.load_family_rules():
            problems.append(f"{inputs.FAMILY_FILE} no longer matches base_family()")
        return 0, problems

    def describe(self) -> dict:
        return {
            "bases": len(self.family),
            "sequents": len(self.pool),
            "pairs_per_pass": len(self.pass_ops),
            "timed_passes": len(self.ops) // len(self.pass_ops),
        }


# ---------------------------------------------------------------------------


class SaturationTiers:
    """Seeded random higher-level bases at four (atoms, rules, level) tiers;
    one operation asks derive() for every atom of one base under one
    assumed-axiom set.  No rule supply recurs, so every operation
    saturates from scratch."""

    name = "saturation-tiers"
    warm_up = False
    repeatable = False
    # bases per round and assumed-axiom sets per base, for each tier; the
    # smallest tier has only two atoms without an axiom, so three sets
    BASES = (6, 6, 16, 6)
    CONTEXTS = (3, 6, 6, 2)

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed, self.smoke = seed, smoke
        if smoke:
            self.bases, self.contexts, self.rounds = (2, 2, 2, 1), (2, 2, 2, 2), 1
        else:
            self.bases, self.contexts = self.BASES, self.CONTEXTS
            per_round = sum(b * c for b, c in zip(self.BASES, self.CONTEXTS))
            # held to 1,944 operations at --seconds 20: the
            # saturation cache keeps every saturation, and memory grows
            # with the operation count (see CHANGES.md)
            self.rounds = rounds_for(seconds, 0.6, per_round)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.ops = []
        for _ in range(self.rounds):
            round_ops = []
            for tier, reach, count, ctx_n in zip(
                inputs.TIERS, inputs.TIER_CONTEXTS, self.bases, self.contexts
            ):
                for _ in range(count):
                    atoms, base = inputs.tier_base(rng, *tier, reach)
                    ctxs = inputs.assumed_contexts(rng, atoms, base, ctx_n)
                    round_ops += [(tier, atoms, base, ctx) for ctx in ctxs]
            rng.shuffle(round_ops)
            self.ops += round_ops

    def run(self, op):
        _, atoms, base, ctx = op
        return [atomic_system.derive(base, ctx, a) for a in atoms]

    def check(self, answers) -> tuple[int, list[str]]:
        problems: list[str] = []
        for (tier, atoms, base, ctx), results in zip(self.ops, answers):
            supply = base.rules | ctx
            want = refcheck.naive_derivable(supply)
            for a, res in zip(atoms, results):
                if res.derivable != (a in want):
                    problems.append(
                        f"tier {tier}: derive({a}) = {res.derivable}, "
                        f"least fixpoint says {a in want}"
                    )
                elif res.derivable and not refcheck.replay(res.tree, supply):
                    problems.append(f"tier {tier}: the tree for {a} does not replay")
        return 0, problems

    def describe(self) -> dict:
        out = {}
        for tier in inputs.TIERS:
            mine = [op for op in self.ops if op[0] == tier]
            sizes = sorted(inputs.reachable_contexts(base.rules | ctx) for _, _, base, ctx in mine)
            out["x".join(map(str, tier))] = {
                "operations": len(mine),
                "bases": len({id(op[2]) for op in mine}),
                "assumed_sets_per_base": self.contexts[inputs.TIERS.index(tier)],
                "reachable_contexts_median": statistics.median(sizes),
                "reachable_contexts_max": sizes[-1],
            }
        out["rounds"] = self.rounds
        return out


# ---------------------------------------------------------------------------


class CliSession:
    """In-process prooflab.cli.main calls with stdout captured: a seeded mix
    of eval, check_valid, reduce, search and suite, plus two fixed detours
    under an ->-intro binder in every round."""

    name = "cli-session"
    warm_up = False
    MAX_DEPTH = 8

    def __init__(self, seed: int, seconds: float, smoke: bool, workdir: str) -> None:
        self.seed, self.smoke, self.workdir = seed, smoke, workdir
        self.max_depth = 3 if smoke else self.MAX_DEPTH
        self.rounds = 1 if smoke else rounds_for(seconds, 1.1, self.round_size())

    def round_size(self) -> int:
        d = self.max_depth
        return 48 + d + 4 + 4 + d + d + 8 + 2 + 2

    def _file(self, stem: str, obj) -> str:
        """A file holding obj as JSON; one file per distinct content, since
        creating files costs more, and less steadily, than making them."""
        text = json.dumps(obj)  # dumps, not dump: the C encoder
        path = self._paths.get(text)
        if path is None:
            self._n += 1
            path = os.path.join(self.workdir, f"{self._n:05d}-{stem}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self._paths[text] = path
        return path

    def _argument_file(self, stem: str, struct) -> str:
        return self._file(stem, {"structure": arguments.structure_to_obj(struct), "justifications": []})

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self._n = 0
        self._paths: dict[str, str] = {}
        rng = random.Random(self.seed)
        rule_pool = inputs.family_rule_pool()
        seqs = inputs.sequent_pool(self.seed)
        family = [frozenset(map(atomic_system.parse_rule, rules))
                  for rules in inputs.load_family_rules()]
        gate_seqs = inputs.sequent_pool(inputs.GATE_SEED)
        self.ops = []
        binder = {
            stem: (self._argument_file(stem, struct),
                   self._file(stem + "-t", arguments.structure_to_obj(reduct)))
            for stem, struct, reduct in inputs.binder_detours()
        }

        def rules_argv(rules):
            out = []
            for r in sorted(rules, key=str):
                out += ["--rule", atomic_system.format_rule(r)]
            return out

        for _ in range(self.rounds):
            ops = []
            # 48 evals, each of the twelve (semantics, format, trace)
            # settings four times, every one on its own base and sequent
            for k in range(48):
                sem, fmt, trace = EVAL_SETTINGS[k % len(EVAL_SETTINGS)]
                if sem == "alpha":
                    # models_alpha only on family-sweep's pairs: on some
                    # seeded pairs its closure dies of a RecursionError
                    # (see CHANGES.md)
                    rules, seq = rng.choice(family), rng.choice(gate_seqs)
                else:
                    rules = frozenset(rng.sample(rule_pool, rng.randint(0, 3)))
                    seq = rng.choice(seqs)
                argv = ["eval", *rules_argv(rules), "--sequent",
                        base_semantics.format_sequent(seq),
                        "--semantics", sem, "--format", fmt]
                if trace:
                    argv.append("--trace")
                ops.append((argv, ("eval", sem, fmt, rules, seq)))
            for depth in range(1, self.max_depth + 1):
                atom = rng.choice(inputs.FAMILY_ATOMS)
                other = "q" if atom == "p" else "p"
                # a valid derivation of atom: one step from an axiom
                rules = frozenset({atomic_system.axiom(other),
                                   atomic_system.parse_rule(f"({other} => {atom})")})
                rules |= frozenset(rng.sample(rule_pool, rng.randint(0, 2)))
                base = atomic_system.Base(rules)
                tree = atomic_system.derive(base, goal=atom).tree
                d = arguments.derivation_to_structure(tree, base)
                chain = inputs.detour_chain(d, inputs.detour_kinds(depth), Atom(atom), d)
                path = self._argument_file(f"chain-d{depth}", chain)
                target = self._file(f"chain-d{depth}-t", arguments.structure_to_obj(d))
                fmt = ("text", "json")[depth % 2]
                # valid by construction; reaches d; normalises with no detour left
                ops.append((["check_valid", *rules_argv(rules), "--argument", path,
                             "--format", fmt], ("valid", 0)))
                ops.append((["reduce", "--argument", path, "--target", target,
                             "--format", fmt], ("target", fmt)))
                ops.append((["reduce", "--argument", path, "--format", "json"],
                            ("normal", atom)))
            for depth in range(1, 5):
                atom = rng.choice(inputs.FAMILY_ATOMS)
                other = "q" if atom == "p" else "p"
                # invalid: an axiom leaf for an atom no rule concludes;
                # conj-detours only, which discharge nothing
                rules = frozenset({atomic_system.axiom(other)})
                leaf = axiom_leaf(Atom(atom))
                chain = inputs.detour_chain(leaf, ["conj"] * depth, Atom(atom), leaf)
                path = self._argument_file(f"invalid-d{depth}", chain)
                ops.append((["check_valid", *rules_argv(rules), "--argument", path],
                            ("invalid", 1)))
                # open: a chain around the assumption itself
                rules = frozenset(rng.sample(rule_pool, rng.randint(0, 3)))
                hole = assumption(Atom(atom))
                chain = inputs.detour_chain(hole, inputs.detour_kinds(depth), Atom(atom), hole)
                path = self._argument_file(f"open-d{depth}", chain)
                ops.append((["check_valid", *rules_argv(rules), "--argument", path,
                             "--format", "json"], ("open", 0)))
            for k in range(8):
                seq = rng.choice(seqs)
                sem = ("standard", "sandqvist")[k % 2]
                ops.append((["search", "--sequent", base_semantics.format_sequent(seq),
                             "--semantics", sem, "--format", ("text", "json")[k // 4]],
                            ("search", sem, seq)))
            ops.append((["suite"], ("suite", "text")))
            ops.append((["suite", "--format", "json"], ("suite", "json")))
            arg, target = binder["binder-conj"]
            ops.append((["reduce", "--argument", arg, "--target", target],
                        ("binder-target",)))
            arg, _ = binder["binder-imp"]
            ops.append((["reduce", "--argument", arg, "--format", "json"],
                        ("binder-normal",)))
            assert len(ops) == self.round_size()
            rng.shuffle(ops)
            self.ops += ops

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op[0])
        return code, out.getvalue()

    def check(self, answers) -> tuple[int, list[str]]:
        refs = _References()
        failed = 0
        problems: list[str] = []
        for (argv, want), (code, text) in zip(self.ops, answers):
            kind = want[0]
            if kind.startswith("binder"):
                # a detour under an ->-intro binder: the fault is that
                # reduction skips it; the operation fails until it does not
                if not _binder_ok(kind, code, text):
                    failed += 1
                continue
            msg = _check_cli(want, code, text, refs)
            if msg:
                problems.append(f"{' '.join(argv[:2])}...: {msg}")
        return failed, problems

    def describe(self) -> dict:
        kinds: dict[str, int] = {}
        for _, want in self.ops[: self.round_size()]:
            kinds[want[0]] = kinds.get(want[0], 0) + 1
        return {"rounds": self.rounds, "ops_per_round": self.round_size(),
                "per_round": kinds, "max_detour_depth": self.max_depth}

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _reduce_status(fmt: str, text: str) -> str:
    if fmt == "json":
        return json.loads(text)["status"]
    return text.split("\n", 1)[0].split()[-1]


def _binder_ok(kind: str, code: int, text: str) -> bool:
    if code != 0:
        return False
    if kind == "binder-target":
        return _reduce_status("text", text) == "yes"
    return refcheck.find_redex(json.loads(text)["normal_form"]) is None


def _check_cli(want, code: int, text: str, refs: _References) -> str:
    kind = want[0]
    if kind == "eval":
        _, sem, fmt, rules, seq = want
        expect = (refs.variant if sem == "sandqvist" else refs.standard)(rules, seq)
        if code != (0 if expect else 1):
            return f"exit {code}, reference says holds={expect}"
        if fmt == "json":
            obj = json.loads(text)
            got = obj["status"] == "valid" if sem == "alpha" else obj["holds"]
        elif sem == "alpha":
            got = "status:    valid" in text
        else:
            got = "holds:     yes" in text
        return "" if got == expect else f"report says {got}, reference {expect}"
    if kind in ("valid", "invalid", "open"):
        return "" if code == want[1] else f"exit {code}, expected {want[1]}"
    if kind == "target":
        if code != 0:
            return f"exit {code}, but the detour-free original is reachable"
        return "" if _reduce_status(want[1], text) == "yes" else "report does not say yes"
    if kind == "normal":
        if code != 0:
            return f"exit {code}"
        nf = json.loads(text)["normal_form"]
        if refcheck.find_redex(nf) is not None:
            return "normal form still holds a redex"
        return "" if _root_atom(nf) == want[1] else "normal form changed the conclusion"
    if kind == "search":
        _, sem, seq = want
        expect = refcheck.classically_refutable(seq, sem)
        return "" if code == (0 if expect else 1) else f"exit {code}, refutable={expect}"
    if kind == "suite":
        if code != 0:
            return f"exit {code}"
        if want[1] == "json":
            rep = json.loads(text)
            ok = (
                all(rep["non_monotonicity"]["over_empty"].values())
                and not any(rep["non_monotonicity"]["over_p"].values())
                and rep["export_failure"]["verdict"] == "confirmed-failure"
                and not any(
                    cell["refuted"]
                    for row in rep["classical_tautology_sweep"].values()
                    for cell in row.values()
                )
            )
            return "" if ok else "suite report contradicts the paper's results"
        return "" if "confirmed-failure" in text else "suite text lacks the export verdict"
    return f"unknown check {kind}"


def _root_atom(obj: dict) -> str:
    f = obj["root"]["formula"]
    return f.get("name", "bot")


WORKLOADS = {w.name: w for w in (FamilySweep, SaturationTiers, CliSession)}
