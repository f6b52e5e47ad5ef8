#!/usr/bin/env python3
"""Print the sha256 digests of three seeded outputs of the package.

Each line is `<name> <digest>`.  Two checkouts that print the same lines
answer the benchmark's seed-1 inputs alike:

  saturation-tiers  for each saturation-tiers operation in order and each
                    of its atoms, the line "<atom> <derivable>" and, when
                    derivable, its tree, one line per node in pre-order,
                    "  " * depth + "<conclusion> by <rule>", the root at
                    depth 0;
  models-alpha      for each family-sweep pair of one pass, in the order
                    the benchmark warms up in, the repr of models_alpha's
                    status, reason, notes, answer, witness structure and
                    justification names, one line per pair;
  cli-session       for each cli-session call in order, the repr of its
                    exit code and stdout, concatenated.

No output depends on the hash seed, so any PYTHONHASHSEED prints the same
lines.  The script imports the package and the benchmark's input builders
from its own checkout.  Run it as `python scripts/digests.py` (about 5 s).
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tree_lines(node) -> list[str]:
    from prooflab.atomic_system import format_rule

    lines = []
    stack = [(node, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + f"{node.conclusion} by {format_rule(node.rule)}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return lines


def saturation_tiers() -> str:
    import workloads

    w = workloads.SaturationTiers(1, 20, False)
    w.setup()
    lines = []
    for op in w.ops:
        for atom, res in zip(op[1], w.run(op)):
            lines.append(f"{atom} {res.derivable}")
            if res.derivable:
                lines += _tree_lines(res.tree)
    return "".join(line + "\n" for line in lines)


def models_alpha() -> str:
    import workloads
    from prooflab.arguments import pretty
    from prooflab.validity import models_alpha

    w = workloads.FamilySweep(1, 20, False)
    w.setup()
    lines = []
    for base, seq in w.pass_ops:
        res = models_alpha(base, seq)
        v, arg = res.verdict, res.witness
        lines.append(repr((
            v.status.value,
            v.reason,
            v.notes,
            res.holds,
            pretty(arg.structure) if arg else None,
            tuple(j.name for j in arg.justifications) if arg else (),
        )))
    return "".join(line + "\n" for line in lines)


def cli_session() -> str:
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        w = workloads.CliSession(1, 20, False, workdir)
        w.setup()
        return "".join(repr(w.run(op)) for op in w.ops)


def main() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    for name, output in (
        ("saturation-tiers", saturation_tiers),
        ("models-alpha", models_alpha),
        ("cli-session", cli_session),
    ):
        digest = hashlib.sha256(output().encode("utf-8")).hexdigest()
        print(name, digest, flush=True)


if __name__ == "__main__":
    main()
