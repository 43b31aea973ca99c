"""Closure operator of an implicational base and its closed sets.

The closure of a set is computed by forward chaining with per-rule
counters (LinClosure) over the base compiled to one rule per distinct
premise, so one call costs time linear in the size of the compiled base,
and it stops early once everything is reached.
Enumerating all closed sets uses Close-by-One over carried-over
counters: each closed set grows from a closed parent by one element and
counts down only what that element triggers; the early stop on the full
set is safe there, since the full set has no children. It returns a
plain tuple in lectic order, and refuses ground sets above
EXHAUSTIVE_LIMIT; it is a desk-scale tool, not bulk machinery. Given
conflict pairs, the same walk prunes every closed set that holds one,
which lists the consistent closed sets for the solve oracle. Minimal
generators and meet-irreducibles are key queries and live with the keys
(keys.py) and co-atoms (solver.py); the engine cached on each base also
keeps their per-element key saturations, and no other key state.
"""

from __future__ import annotations

from .core import (
    ElemSet,
    ImplicationalBase,
    _refuse_past_exhaustive_limit,
    iter_bits,
    minimal,
)
from .errors import MismatchedGroundSets


class _Chainer:
    """Forward-chaining engine compiled from one base.

    Rules that share a premise are merged into one rule with the
    conclusions OR-ed together: rule j has premise ``premises[j]`` and
    conclusion ``conclusions[j]``, one per distinct premise, and
    ``premise_sizes`` and ``occurs`` are indexed the same way;
    ``base_fire`` is the merged conclusion of the empty premise, present
    in every closure, and ``occurs[i]`` lists the rules whose premise
    contains element i. grow() counts premise elements down as they are
    reached, fires a rule exactly once when its counter hits zero, and
    returns as soon as the result is the full set; close() runs it from
    fresh counters. ``element_keys`` maps an element x to the key masks
    of the base plus ``{x} -> everything``, filled on demand by keys.py.
    """

    __slots__ = (
        "n", "full", "premises", "premise_sizes", "conclusions", "occurs", "base_fire",
        "element_keys",
    )

    def __init__(self, base: ImplicationalBase):
        self.n = base.ground.n
        self.full = base.ground.full_mask
        merged: dict[int, int] = {}
        for p, c in base.rules:
            merged[p] = merged.get(p, 0) | c
        self.premises = list(merged)
        self.conclusions = list(merged.values())
        self.base_fire = merged.get(0, 0)
        self.premise_sizes = [p.bit_count() for p in self.premises]
        self.occurs = [[] for _ in range(self.n)]
        for j, p in enumerate(self.premises):
            for i in iter_bits(p):
                self.occurs[i].append(j)
        self.element_keys: dict[int, tuple[int, ...]] = {}

    def close(self, mask: int) -> int:
        result = mask | self.base_fire
        return self.grow(result, self.premise_sizes.copy(), result)

    def grow(self, result: int, counts: list[int], todo: int) -> int:
        """Count down the premises of the elements in ``todo`` and return
        the closure of ``result``.

        ``counts`` holds, per rule, the premise elements not yet counted
        down, and is updated in place; every element of ``result``
        outside ``todo`` must already be counted. Returns early, with
        ``counts`` incomplete, once the result is the full set.
        """
        full = self.full
        if result == full:
            return result
        occurs = self.occurs
        conclusions = self.conclusions
        while todo:
            low = todo & -todo
            todo ^= low
            for j in occurs[low.bit_length() - 1]:
                counts[j] -= 1
                if counts[j] == 0:
                    new = conclusions[j] & ~result
                    if new:
                        result |= new
                        if result == full:
                            return result
                        todo |= new
        return result


def _chainer(base: ImplicationalBase) -> _Chainer:
    # Cached on the base; rebuilding per call would dominate small closures.
    ch = base._chainer
    if ch is None:
        ch = _Chainer(base)
        base._chainer = ch
    return ch


def close(base: ImplicationalBase, subset: ElemSet) -> ElemSet:
    """The least superset of ``subset`` satisfying every implication."""
    if subset.ground != base.ground:
        raise MismatchedGroundSets("set and base over different ground sets")
    return ElemSet(base.ground, _chainer(base).close(subset.mask))


def _closed_masks(
    base: ImplicationalBase, conflicts: tuple[tuple[int, int], ...] = ()
) -> list[int]:
    """The masks of the closed sets holding no pair of ``conflicts``, in lectic order.

    With no conflicts this is enumerate_closed_sets(base). A subset of a
    consistent set is consistent, and a closed set's canonical parent is
    a subset of it, so every consistent closed set has only consistent
    ancestors in the Close-by-One tree: the walk drops a closed set that
    holds a conflict pair together with its whole subtree, and never
    closes ``cur | bit`` when ``bit`` conflicts with an element of
    ``cur``. The conflict test runs once per closed set taken off the
    stack, not per child, and is skipped when there are no conflicts.
    """
    n = base.ground.n
    _refuse_past_exhaustive_limit(n)
    ch = _chainer(base)
    full = ch.full
    partners = [0] * n  # partners[i]: the elements in conflict with i
    ends = 0  # the elements in some conflict
    for u, v in conflicts:
        partners[u] |= 1 << v
        partners[v] |= 1 << u
        ends |= 1 << u | 1 << v
    counts = ch.premise_sizes.copy()
    root = ch.grow(ch.base_fire, counts, ch.base_fire)
    out = []
    # Each entry holds a closed set, its counters and the lowest bit a
    # child may add; ``-low`` masks that bit and every bit above it.
    stack = [(root, counts, 1)]
    while stack:
        cur, counts, low = stack.pop()
        free = full & ~cur & -low
        if ends:
            blocked = 0
            for i in iter_bits(cur & ends):
                blocked |= partners[i]
            if cur & blocked:
                continue
            free &= ~blocked
        out.append(cur)
        while free:
            bit = free & -free
            free ^= bit
            child_counts = counts.copy()
            child = ch.grow(cur | bit, child_counts, bit)
            if (child ^ cur) & (bit - 1) == 0:
                stack.append((child, child_counts, bit << 1))
    out.sort()
    return out


def enumerate_closed_sets(base: ImplicationalBase) -> tuple[ElemSet, ...]:
    """Enumerate every closed set in lectic order by Close-by-One.

    The family always contains the full set and is closed under
    intersection. Every closed set other than cl(∅) is reached once,
    from its canonical parent P by adding the element i such that
    cl(P ∪ {i}) adds nothing below i; its children then add elements
    above i only. Each child's closure starts from a copy of the
    parent's LinClosure counters and counts down only what i triggers,
    instead of closing from scratch. The closure stops early on the full
    set and leaves its counters incomplete, which is safe since the full
    set has no children. Refuses ground sets larger than
    EXHAUSTIVE_LIMIT since the output may approach 2^n sets.
    """
    g = base.ground
    return tuple(ElemSet(g, m) for m in _closed_masks(base))


def _covers(ch: _Chainer, f: int) -> list[int]:
    """The masks of the upper covers of the closed mask ``f``, in lectic order."""
    return minimal(ch.n, (ch.close(f | (1 << i)) for i in iter_bits(ch.full & ~f)))
