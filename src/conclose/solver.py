"""Enumeration of maximal consistent closed sets.

The solver rests on one duality: a set closes to the full ground
set iff it contains a key, so the maximal proper closed sets (the
co-atoms) are exactly the maximal sets containing no key, that is the
maximal independent sets of the key hypergraph. co_atoms() reads them
off the keys of a base. solve() first augments the base with one rule
per conflict edge that forces the full set; the maximal consistent
closed sets are then the co-atoms of the augmented base.
meet_irreducibles() adds the rule ``{x} -> everything`` for one element
x at a time; the co-atoms are then the closed sets maximal among those
missing x. Each of the three hands its lectic key masks straight to
transversal.maximal_independent_sets as the edge list, with no
antichain pass between, and wraps the masks it gets back in ElemSet
once; solve() alone reads its keys off the public enumerate_keys, which
perfbench/trace_child.py times. The empty set is a key exactly when
close(∅) is the full set; it is then the one edge, and no set avoids
it, so no special case is needed. A brute-force oracle over the
consistent closed sets is provided for cross-checking at desk scale.
"""

from __future__ import annotations

import time

from .closure import _chainer, _closed_masks
from .core import (
    KEY_CAP,
    MIS_CAP,
    ConsistencyGraph,
    ElemSet,
    GroundSet,
    ImplicationalBase,
    SubsetIndex,
    _Frozen,
)
from .errors import MismatchedGroundSets
from .keys import _element_keys, _key_masks, augment_with_inconsistency, enumerate_keys
from .transversal import maximal_independent_sets


class SolveStats(_Frozen):
    """Work counters for one solver run.

    ``key_count`` is None when the producing code path (for example the
    brute-force oracle) has no key phase. ``seconds`` maps each phase to
    its wall time, empty by default.
    """

    __slots__ = ("key_count", "seconds")

    def __init__(self, key_count: int | None = None, seconds: dict[str, float] | None = None):
        self._set(key_count, {} if seconds is None else seconds)

    def to_dict(self) -> dict:
        return {"key_count": self.key_count, "seconds": dict(self.seconds)}


class SolutionSet(_Frozen):
    """The maximal consistent closed sets of an instance, in lectic order.

    ``sets`` is the one way to read them. Equality and hashing read the
    ground set and the sets, not the stats.
    """

    __slots__ = ("ground", "sets", "stats")

    def __init__(self, ground: GroundSet, sets: tuple[ElemSet, ...], stats: SolveStats | None = None):
        self._set(ground, sets, SolveStats() if stats is None else stats)

    def _key(self) -> tuple:
        return self.ground, self.sets


def _require_shared_ground(base: ImplicationalBase, graph: ConsistencyGraph) -> None:
    if base.ground != graph.ground:
        raise MismatchedGroundSets("base and graph ground sets differ")


def co_atoms(base: ImplicationalBase, key_cap: int = KEY_CAP, mis_cap: int = MIS_CAP) -> list[ElemSet]:
    """Maximal closed sets different from the full set, in lectic order.

    These are the maximal sets containing no minimal key of ``base``.
    Either phase may raise OutputLimitExceeded.
    """
    g = base.ground
    masks = maximal_independent_sets(g.n, _key_masks(base, key_cap), cap=mis_cap)
    return [ElemSet(g, m) for m in masks]


def meet_irreducibles(base: ImplicationalBase) -> list[tuple[ElemSet, ElemSet]]:
    """All closed sets with exactly one upper cover, paired with that cover.

    Returned in lectic order of the irreducible set. A closed set M is
    meet-irreducible iff it is maximal among the closed sets missing
    some element x: every closed set above M then holds x, so its one
    cover is close(M ∪ {x}). These pairs are the building blocks of the
    arrow relations.
    """
    g = base.ground
    ch = _chainer(base)
    cover: dict[int, int] = {}
    for x in range(g.n):
        for m in maximal_independent_sets(g.n, _element_keys(base, x)):
            if m not in cover:
                cover[m] = ch.close(m | 1 << x)
    return [(ElemSet(g, m), ElemSet(g, cover[m])) for m in sorted(cover)]


def solve(
    base: ImplicationalBase,
    graph: ConsistencyGraph,
    key_cap: int = KEY_CAP,
    mis_cap: int = MIS_CAP,
) -> SolutionSet:
    """All maximal closed sets containing no conflict edge.

    These are the co-atoms of the base augmented with conflict rules.
    With no edges the full set is the single answer. Either phase may
    raise OutputLimitExceeded; no partial SolutionSet is ever returned.
    """
    _require_shared_ground(base, graph)
    g = base.ground
    if not graph.edges:
        return SolutionSet(
            g,
            (g.full(),),
            SolveStats(key_count=0, seconds={"keys": 0.0, "mis": 0.0}),
        )

    t0 = time.perf_counter()
    augmented = augment_with_inconsistency(base, graph)
    keys = enumerate_keys(augmented, cap=key_cap)
    t1 = time.perf_counter()
    masks = maximal_independent_sets(g.n, [k.mask for k in keys], cap=mis_cap)
    sets = tuple(ElemSet(g, m) for m in masks)
    t2 = time.perf_counter()

    stats = SolveStats(key_count=len(keys), seconds={"keys": t1 - t0, "mis": t2 - t1})
    return SolutionSet(g, sets, stats)


def brute_force_solve(base: ImplicationalBase, graph: ConsistencyGraph) -> SolutionSet:
    """Oracle: list the consistent closed sets and keep the maximal ones.

    It shares no step with solve beyond the closure engine. Close-by-One
    walks only the consistent closed sets (a closed set's canonical
    parent lies inside it, so no consistent set hides under an
    inconsistent one); the maximal ones are then kept largest first, one
    SubsetIndex query each over the complements of the sets kept so far.
    Runs in time proportional to the consistent part of the family and
    refuses ground sets above EXHAUSTIVE_LIMIT.
    """
    _require_shared_ground(base, graph)
    g = base.ground
    t0 = time.perf_counter()
    full = g.full_mask
    # Largest first: a set that is not maximal lies in a strictly larger
    # maximal one, which has already been kept when the set comes up. A
    # set lies inside a kept one iff its complement holds the kept one's.
    kept = SubsetIndex(g.n)
    maximal: list[int] = []
    for m in sorted(_closed_masks(base, graph.edges), key=int.bit_count, reverse=True):
        if not kept.has_subset_of(full & ~m):
            kept.add(full & ~m)
            maximal.append(m)
    t1 = time.perf_counter()
    maximal.sort()
    return SolutionSet(
        g,
        tuple(ElemSet(g, m) for m in maximal),
        SolveStats(seconds={"enumerate_and_filter": t1 - t0}),
    )
