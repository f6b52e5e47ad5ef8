#!/usr/bin/env python3
"""Hunt for bases refuting classical tautologies.

Sweeps a list of classically valid, intuitionistically underivable
formulas and searches for a refuting base under both evaluator-style
relations.  None should turn up: over a fixed base the material reading
of the clauses validates full classical logic, which is exactly what
makes the base-incompleteness results bite.
"""

import argparse

from prooflab.base_semantics import (
    SearchBounds,
    SemanticsKind,
    parse_sequent,
    search_counterexample,
)
from prooflab.atomic_system import format_base

DEFAULT_TARGETS = (
    "((p -> q) -> p) -> p",
    "~~p -> p",
    "p | ~p",
    "(p -> q) | (q -> p)",
    "~(p & q) -> (~p | ~q)",
    "((p -> q) -> q) -> (p | q)",
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "formulas",
        nargs="*",
        default=list(DEFAULT_TARGETS),
        help="formulas to sweep (default: a classical shortlist)",
    )
    parser.add_argument("--max-atoms", type=int, default=3)
    parser.add_argument("--max-rules", type=int, default=4)
    args = parser.parse_args()

    bounds = SearchBounds(max_atoms=args.max_atoms, max_rules=args.max_rules)
    width = max(len(t) for t in args.formulas)
    for text in args.formulas:
        seq = parse_sequent(f"|- {text}")
        for kind in SemanticsKind:
            res = search_counterexample(kind, seq, bounds)
            if res.counterexample is None:
                outcome = f"unrefuted ({res.examined} bases examined)"
            else:
                shown = ", ".join(format_base(res.counterexample).splitlines())
                outcome = f"REFUTED by {{{shown}}}"
            print(f"{text:<{width}}  {kind.value:>9}  {outcome}")


if __name__ == "__main__":
    main()
