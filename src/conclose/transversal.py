"""Hypergraph transversals and maximal independent sets.

Maximal independent sets are computed through the classic duality: the
complements of the minimal transversals. Transversals are built by
Berge multiplication, folding one edge at a time into the running
antichain of minimal partial transversals. Both the edge antichain and
the minimality filter of each step ask whether a candidate contains an
already kept set; a core.SubsetIndex answers that in one packed query.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import MIS_CAP, ElemSet, GroundSet, SubsetIndex, format_sets, iter_bits, minimal
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

    Processes edges by increasing bit pattern. After each edge the
    working list is exactly the antichain of minimal transversals of
    the prefix, so intermediate growth is what the final answer plus
    one crossing step requires. Raises OutputLimitExceeded if the
    working list ever grows past ``cap``, or ends past it.
    """
    g = hyper.ground
    trans: list[int] = [0]
    for e in hyper.edges:
        em = e.mask
        missing = [t for t in trans if not t & em]
        trans = [t for t in trans if t & em]
        # Cross every non-hitting transversal with every vertex of the
        # edge, then keep only the minimal results. A candidate is
        # redundant iff it contains a kept transversal or an already
        # accepted smaller candidate; the index holds both.
        cands = sorted(
            {t | (1 << i) for t in missing for i in iter_bits(em)},
            key=lambda m: (m.bit_count(), m),
        )
        index = SubsetIndex(g.n, trans)
        for c in cands:
            if index.has_subset_of(c):
                continue
            index.add(c)
            trans.append(c)
            if len(trans) > cap:
                raise OutputLimitExceeded("transversals", cap, [ElemSet(g, m) for m in trans])
    if len(trans) > cap:  # no edge: the starting empty transversal is the answer
        raise OutputLimitExceeded("transversals", cap, [ElemSet(g, 0)])
    trans.sort()
    return [ElemSet(g, m) for m in trans]


def maximal_independent_sets(hyper: Hypergraph, cap: int = MIS_CAP) -> list[ElemSet]:
    """All maximal edge-free subsets, as complements of minimal transversals.

    ``full ^ t == full - t``, so complementing the lectic list of
    transversals reverses its order.
    """
    g = hyper.ground
    full = g.full_mask
    return [ElemSet(g, full ^ t.mask) for t in reversed(minimal_transversals(hyper, cap))]
