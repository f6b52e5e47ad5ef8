"""Independent reference implementations used only by the test suite.

Everything here is deliberately written in the most naive shape available so
that agreement with the package is meaningful: bounded exhaustive enumeration
and a least fixpoint by full passes over frozenset contexts for derivability,
a direct classical collapse for the standard evaluator, a direct clause
transcription for the variant evaluator, and finite Kripke frames
(equivalently, up-set Heyting algebras of small posets) for intuitionistic
derivability.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from prooflab.atomic_system import AtomicRule
from prooflab.syntax import Absurdity, Atom, Conj, Disj, Formula, Impl, atoms_of


# ---------------------------------------------------------------------------
# derivability: bounded exhaustive backward enumeration


def enum_derivable(
    rules: frozenset[AtomicRule], goal: str, depth: int
) -> bool:
    """Is there a derivation tree of height <= depth?  Pure recursion."""
    if depth <= 0:
        return False
    for r in rules:
        if r.conclusion != goal:
            continue
        if all(
            enum_derivable(rules | p.discharged, p.conclusion, depth - 1)
            for p in r.premises
        ):
            return True
    return False


def enum_derivable_atoms(
    rules: frozenset[AtomicRule], atoms: set[str], depth: int
) -> frozenset[str]:
    return frozenset(a for a in atoms if enum_derivable(rules, a, depth))


def naive_derivable(rules: frozenset[AtomicRule]) -> frozenset[str]:
    """Every atom derivable from the rules: the least fixpoint of 'a holds in
    context C', by repeated full passes over every reachable context, each
    context the frozenset of its rules."""
    contexts = {rules}
    stack = [rules]
    while stack:
        ctx = stack.pop()
        for r in ctx:
            for p in r.premises:
                nxt = ctx | p.discharged
                if nxt not in contexts:
                    contexts.add(nxt)
                    stack.append(nxt)
    holds: dict[frozenset[AtomicRule], set[str]] = {ctx: set() for ctx in contexts}
    changed = True
    while changed:
        changed = False
        for ctx in contexts:
            for r in ctx:
                if r.conclusion not in holds[ctx] and all(
                    p.conclusion in holds[ctx | p.discharged] for p in r.premises
                ):
                    holds[ctx].add(r.conclusion)
                    changed = True
    return frozenset(holds[rules])


# ---------------------------------------------------------------------------
# standard evaluator collapses to classical truth over derivable atoms


def classical_eval(f: Formula, derivable: frozenset[str]) -> bool:
    if isinstance(f, Atom):
        return f.name in derivable
    if isinstance(f, Absurdity):
        return "bot" in derivable
    if isinstance(f, Conj):
        return classical_eval(f.left, derivable) and classical_eval(f.right, derivable)
    if isinstance(f, Disj):
        return classical_eval(f.left, derivable) or classical_eval(f.right, derivable)
    assert isinstance(f, Impl)
    return (not classical_eval(f.left, derivable)) or classical_eval(
        f.right, derivable
    )


def ref_standard(
    premises: frozenset[Formula], conclusion: Formula, derivable: frozenset[str]
) -> bool:
    if premises:
        if all(ref_standard(frozenset(), g, derivable) for g in premises):
            return ref_standard(frozenset(), conclusion, derivable)
        return True
    return classical_eval(conclusion, derivable)


# ---------------------------------------------------------------------------
# variant evaluator: direct clause transcription, no memoization


def ref_variant(
    premises: frozenset[Formula],
    conclusion: Formula,
    derivable: frozenset[str],
    universe: frozenset[str],
) -> bool:
    """The variant consequence with the disjunction clause quantifying over
    the given finite atom universe.  Derivability is supplied as a fixed set
    so this stays independent of the package's engine."""

    def closed(f: Formula) -> bool:
        if isinstance(f, Atom):
            return f.name in derivable
        if isinstance(f, Absurdity):
            return "bot" in derivable
        if isinstance(f, Conj):
            return closed(f.left) and closed(f.right)
        if isinstance(f, Disj):
            return all(
                closed(Atom(c))
                for c in universe
                if entails({f.left}, Atom(c)) and entails({f.right}, Atom(c))
            )
        assert isinstance(f, Impl)
        return entails({f.left}, f.right)

    def entails(gamma: set[Formula], a: Formula) -> bool:
        if not gamma:
            return closed(a)
        if all(closed(g) for g in gamma):
            return closed(a)
        return True

    return entails(set(premises), conclusion)


# ---------------------------------------------------------------------------
# intuitionistic derivability over small Kripke frames


@lru_cache(maxsize=None)
def _posets(n: int) -> tuple[tuple[frozenset, int], ...]:
    """All partial orders on n labelled points, deduplicated up to iso.

    A relation is the set of pairs (a, b) with a <= b, reflexive pairs
    included.  Returned with the point count for downstream loops.
    """
    points = range(n)
    nonrefl = [(a, b) for a in points for b in points if a != b]
    refl = frozenset((a, a) for a in points)
    seen = set()
    out = []
    for bits in itertools.product([0, 1], repeat=len(nonrefl)):
        rel = refl | {p for p, bit in zip(nonrefl, bits) if bit}
        ok = True
        for (a, b) in rel:
            if (b, a) in rel and a != b:
                ok = False
                break
        if ok:
            for (a, b) in rel:
                for (c, d) in rel:
                    if b == c and (a, d) not in rel:
                        ok = False
                        break
                if not ok:
                    break
        if not ok:
            continue
        canon = min(
            frozenset((perm[a], perm[b]) for (a, b) in rel)
            for perm in itertools.permutations(points)
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append((rel, n))
    return tuple(out)


def _upsets(rel: frozenset, n: int) -> list[int]:
    """Up-closed subsets as bitmasks: a in U and a <= b imply b in U."""
    out = []
    for mask in range(1 << n):
        if all(
            not ((mask >> a) & 1) or ((mask >> b) & 1) for (a, b) in rel
        ):
            out.append(mask)
    return out


def _imp_table(rel: frozenset, n: int, upsets: list[int]) -> dict:
    above = [
        [b for b in range(n) if (a, b) in rel] for a in range(n)
    ]
    table = {}
    for u in upsets:
        for v in upsets:
            w = 0
            for a in range(n):
                if all(not ((u >> b) & 1) or ((v >> b) & 1) for b in above[a]):
                    w |= 1 << a
            table[(u, v)] = w
    return table


def _heyting_algebras(max_points: int = 4):
    for n in range(1, max_points + 1):
        for rel, _ in _posets(n):
            upsets = _upsets(rel, n)
            yield n, upsets, _imp_table(rel, n, upsets)


_ALGEBRAS = None


def heyting_valid(f: Formula, max_points: int = 4) -> bool:
    """True when f evaluates to the top element under every valuation in the
    up-set algebra of every poset with at most max_points points.

    For the fixed regression list this decides derivability: all listed
    non-theorems already fail on a frame of at most 4 points.
    """
    global _ALGEBRAS
    if _ALGEBRAS is None:
        _ALGEBRAS = list(_heyting_algebras(4))
    names = sorted(atoms_of(f))

    def ev(g: Formula, env: dict, top: int, imp: dict) -> int:
        if isinstance(g, Atom):
            return env[g.name]
        if isinstance(g, Absurdity):
            return 0
        if isinstance(g, Conj):
            return ev(g.left, env, top, imp) & ev(g.right, env, top, imp)
        if isinstance(g, Disj):
            return ev(g.left, env, top, imp) | ev(g.right, env, top, imp)
        assert isinstance(g, Impl)
        return imp[(ev(g.left, env, top, imp), ev(g.right, env, top, imp))]

    for n, upsets, imp in _ALGEBRAS:
        top = (1 << n) - 1
        for choice in itertools.product(upsets, repeat=len(names)):
            env = dict(zip(names, choice))
            if ev(f, env, top, imp) != top:
                return False
    return True


def heyting_entails(premises: tuple[Formula, ...], conclusion: Formula) -> bool:
    f = conclusion
    for g in reversed(premises):
        f = Impl(g, f)
    return heyting_valid(f)
