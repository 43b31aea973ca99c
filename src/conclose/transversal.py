"""Hypergraph transversals and maximal independent sets.

Maximal independent sets are computed through the classic duality: the
complements of the minimal transversals. Transversals are enumerated by
the depth-first MMCS search of Murakami and Uno, which keeps per chosen
vertex the edges only it hits, so it needs space polynomial in the
input and stores nothing but its output; the results are sorted into
lectic order at the end. The edge antichain of a Hypergraph is taken
with core.minimal.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import MIS_CAP, ElemSet, GroundSet, format_sets, iter_bits, minimal
from .errors import MismatchedGroundSets, OutputLimitExceeded


class Hypergraph:
    """A finite hypergraph reduced to its antichain of minimal edges.

    Edges that contain another edge are dropped at construction; for
    every independence or transversal question the two hypergraphs are
    equivalent. An empty edge is then the only edge: nothing hits it and
    every set contains it, so there is no transversal and no independent
    set.
    """

    __slots__ = ("ground", "edges")

    def __init__(self, ground: GroundSet, edges: Iterable[ElemSet]):
        masks = set()
        for e in edges:
            if e.ground != ground:
                raise MismatchedGroundSets("edge over a different ground set")
            masks.add(e.mask)
        self.ground = ground
        self.edges = tuple(ElemSet(ground, m) for m in minimal(ground.n, masks))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[ElemSet]:
        return iter(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.ground == other.ground
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.ground, tuple(e.mask for e in self.edges)))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.ground.n}, edges={len(self.edges)})"

    def serialize(self) -> str:
        return format_sets(self.edges)


def is_independent(hyper: Hypergraph, subset: ElemSet) -> bool:
    """True iff ``subset`` contains no edge of the hypergraph."""
    m = subset.mask
    for e in hyper.edges:
        if e.mask & ~m == 0:
            return False
    return True


def minimal_transversals(hyper: Hypergraph, cap: int = MIS_CAP) -> list[ElemSet]:
    """All inclusion-minimal sets meeting every edge, in lectic order.

    Depth-first MMCS search (Murakami & Uno 2014). Edge i is bit i of an
    edge mask, edges taken by (size, mask), and ``occ[v]`` masks the
    edges holding vertex v. A node keeps the chosen vertices, the
    uncovered edges, and per chosen vertex its critical edges: the edges
    it alone hits. A vertex joins only if every chosen vertex keeps a
    critical edge, so each leaf with no uncovered edge is a minimal
    transversal, and each is reached once. Only the output is stored.
    Raises OutputLimitExceeded, holding the transversals found so far,
    once more than ``cap`` are found.
    """
    g = hyper.ground
    edges = sorted((e.mask for e in hyper.edges), key=lambda m: (m.bit_count(), m))
    occ = [0] * g.n
    for i, em in enumerate(edges):
        for v in iter_bits(em):
            occ[v] |= 1 << i
    found: list[int] = []

    def extend(chosen: int, crit: list[int], cand: int, uncov: int) -> None:
        if not uncov:
            found.append(chosen)
            if len(found) > cap:
                partial = [ElemSet(g, m) for m in sorted(found)]
                raise OutputLimitExceeded("transversals", cap, partial)
            return
        # Branch on the uncovered edge with the fewest candidates, but
        # stop scanning once the edges scanned reach the best count: the
        # scan then never costs more than the branching it can save.
        best, best_count, scanned, rest = 0, g.n + 1, 0, uncov
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

    extend(0, [], g.full_mask, (1 << len(edges)) - 1)
    found.sort()
    return [ElemSet(g, m) for m in found]


def maximal_independent_sets(hyper: Hypergraph, cap: int = MIS_CAP) -> list[ElemSet]:
    """All maximal edge-free subsets, as complements of minimal transversals.

    ``full ^ t == full - t``, so complementing the lectic list of
    transversals reverses its order.
    """
    g = hyper.ground
    full = g.full_mask
    return [ElemSet(g, full ^ t.mask) for t in reversed(minimal_transversals(hyper, cap))]
