"""Hypergraph transversals and maximal independent sets.

Maximal independent sets are computed through the classic duality: the
complements of the minimal transversals. Transversals are enumerated by
the depth-first MMCS search of Murakami and Uno, which keeps per chosen
vertex the edges only it hits, so it needs space polynomial in the
input and stores nothing but its output; the results are sorted into
lectic order at the end. A hypergraph is just its ground set and an
iterable of edges, read once. The edges need not be an antichain:
repeats are dropped, and when an edge A lies inside an edge B that is
critical for a chosen vertex v, A meets the chosen set only in v and is
critical for v too, so nested edges change no answer. An empty edge is
hit by nothing, so it leaves no transversal and no independent set.
"""

from __future__ import annotations

from typing import Iterable

from .core import MIS_CAP, ElemSet, GroundSet, iter_bits
from .errors import MismatchedGroundSets, OutputLimitExceeded


def is_independent(edges: Iterable[ElemSet], subset: ElemSet) -> bool:
    """True iff ``subset`` contains none of ``edges``."""
    return not any(e <= subset for e in edges)


def minimal_transversals(
    ground: GroundSet, edges: Iterable[ElemSet], cap: int = MIS_CAP
) -> list[ElemSet]:
    """All inclusion-minimal sets meeting every edge, in lectic order.

    Depth-first MMCS search (Murakami & Uno 2014). Edge i is bit i of an
    edge mask, edges taken by (size, mask), and ``occ[v]`` masks the
    edges holding vertex v. A node keeps the chosen vertices, the
    uncovered edges, and per chosen vertex its critical edges: the edges
    it alone hits. A vertex joins only if every chosen vertex keeps a
    critical edge, so each leaf with no uncovered edge is a minimal
    transversal, and each is reached once. Only the output is stored.
    Raises OutputLimitExceeded, holding the transversals found so far,
    once more than ``cap`` are found, and MismatchedGroundSets for an
    edge over another ground set.
    """
    masks = set()
    for e in edges:
        if e.ground != ground:
            raise MismatchedGroundSets("edge over a different ground set")
        masks.add(e.mask)
    edges = sorted(masks, key=lambda m: (m.bit_count(), m))
    occ = [0] * ground.n
    for i, em in enumerate(edges):
        for v in iter_bits(em):
            occ[v] |= 1 << i
    found: list[int] = []

    def extend(chosen: int, crit: list[int], cand: int, uncov: int) -> None:
        if not uncov:
            found.append(chosen)
            if len(found) > cap:
                partial = [ElemSet(ground, m) for m in sorted(found)]
                raise OutputLimitExceeded("transversals", cap, partial)
            return
        # Branch on the uncovered edge with the fewest candidates, but
        # stop scanning once the edges scanned reach the best count: the
        # scan then never costs more than the branching it can save.
        best, best_count, scanned, rest = 0, ground.n + 1, 0, uncov
        while rest:
            low = rest & -rest
            c = edges[low.bit_length() - 1] & cand
            k = c.bit_count()
            if k < best_count:
                best, best_count = c, k
            scanned += 1
            if best_count <= 1 or scanned >= best_count:
                break
            rest ^= low
        # Each transversal through this edge is found under the last of
        # its vertices in the edge: the earlier ones are candidates there.
        cand &= ~best
        while best:
            low = best & -best
            hit = occ[low.bit_length() - 1]
            miss = ~hit
            kept = [c & miss for c in crit]
            if all(kept):
                kept.append(uncov & hit)
                extend(chosen | low, kept, cand, uncov & miss)
            cand |= low
            best ^= low

    extend(0, [], ground.full_mask, (1 << len(edges)) - 1)
    found.sort()
    return [ElemSet(ground, m) for m in found]


def maximal_independent_sets(
    ground: GroundSet, edges: Iterable[ElemSet], cap: int = MIS_CAP
) -> list[ElemSet]:
    """All maximal edge-free subsets, as complements of minimal transversals.

    ``full ^ t == full - t``, so complementing the lectic list of
    transversals reverses its order.
    """
    full = ground.full_mask
    return [ElemSet(ground, full ^ t.mask) for t in reversed(minimal_transversals(ground, edges, cap))]
