"""Closure operator of an implicational base and derived structure.

The closure of a set is computed by forward chaining with per-rule
counters (LinClosure) over the base compiled to one rule per distinct
premise, so one call costs time linear in the size of the compiled base,
and it stops early once everything is reached.
Whole-family operations (enumerating all closed sets, meet-irreducible
elements) use next-closure iteration in lectic order and refuse ground
sets above an exhaustive limit; they are desk-scale tools, not bulk
machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .core import (
    EXHAUSTIVE_LIMIT,
    ElemSet,
    GroundSet,
    ImplicationalBase,
    SubsetIndex,
    format_sets,
    iter_bits,
    minimal,
)
from .errors import GroundSetTooLarge, MismatchedGroundSets, NotClosed


class _Chainer:
    """Forward-chaining engine compiled from one base.

    Rules that share a premise are merged into one ``(premise,
    conclusion)`` pair with the conclusions OR-ed together, so ``rules``
    holds one pair per distinct premise; ``base_fire`` is the merged
    conclusion of the empty premise, present in every closure.
    ``premise_sizes``, ``conclusions`` and ``occurs`` are indexed over
    ``rules``, and ``occurs[i]`` lists the rules whose premise contains
    element i. Each close() run counts premise elements down as they are
    reached, fires a rule exactly once when its counter hits zero, and
    returns as soon as the result is the full set.
    """

    __slots__ = ("n", "full", "rules", "premise_sizes", "conclusions", "occurs", "base_fire")

    def __init__(self, base: ImplicationalBase):
        self.n = base.ground.n
        self.full = base.ground.full_mask
        merged: dict[int, int] = {}
        for imp in base.implications:
            p = imp.premise.mask
            merged[p] = merged.get(p, 0) | imp.conclusion.mask
        self.rules = list(merged.items())
        self.base_fire = merged.get(0, 0)
        self.premise_sizes = [p.bit_count() for p, _ in self.rules]
        self.conclusions = [c for _, c in self.rules]
        self.occurs = [[] for _ in range(self.n)]
        for j, (p, _) in enumerate(self.rules):
            for i in iter_bits(p):
                self.occurs[i].append(j)

    def close(self, mask: int) -> int:
        result = mask | self.base_fire
        full = self.full
        if result == full:
            return result
        counts = self.premise_sizes.copy()
        occurs = self.occurs
        conclusions = self.conclusions
        todo = result  # reached elements whose rules are not yet counted down
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


def is_closed(base: ImplicationalBase, subset: ElemSet) -> bool:
    """True iff ``subset`` already satisfies every implication."""
    return close(base, subset).mask == subset.mask


@dataclass(frozen=True)
class ClosedSetFamily:
    """All closed sets of a base, in lectic order."""

    ground: GroundSet
    sets: tuple[ElemSet, ...]
    _masks: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_masks", frozenset(s.mask for s in self.sets))

    def __iter__(self) -> Iterator[ElemSet]:
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, item) -> bool:
        if isinstance(item, ElemSet):
            return item.mask in self._masks and item.ground == self.ground
        return item in self._masks

    def contains_mask(self, mask: int) -> bool:
        return mask in self._masks

    def serialize(self) -> str:
        return format_sets(self.sets)


def enumerate_closed_sets(base: ImplicationalBase, limit: int = EXHAUSTIVE_LIMIT) -> ClosedSetFamily:
    """Enumerate every closed set in lectic order via next-closure.

    The family always contains the full set and is closed under
    intersection. Refuses ground sets larger than ``limit`` since the
    output may approach 2^n sets.
    """
    n = base.ground.n
    if n > limit:
        raise GroundSetTooLarge(f"{n} elements exceeds the exhaustive limit of {limit}")
    ch = _chainer(base)
    full = base.ground.full_mask
    out_masks = []
    cur = ch.close(0)
    out_masks.append(cur)
    while cur != full:
        for i in range(n):
            bit = 1 << i
            if cur & bit:
                continue
            above = full & ~((bit << 1) - 1)
            cand = ch.close((cur & above) | bit)
            if cand & above == cur & above:
                cur = cand
                break
        else:  # unreachable: the full set is always closed and reachable
            raise AssertionError("next-closure failed to advance")
        out_masks.append(cur)
    g = base.ground
    return ClosedSetFamily(g, tuple(ElemSet(g, m) for m in out_masks))


def _cover_masks(ch: _Chainer, full: int, fmask: int) -> list[int]:
    # Upper covers of a closed set are the minimal closures obtained by
    # adding one missing element.
    return minimal(ch.n, (ch.close(fmask | (1 << i)) for i in iter_bits(full & ~fmask)))


def covers(base: ImplicationalBase, closed_set: ElemSet) -> list[ElemSet]:
    """Upper covers of a closed set in the lattice of closed sets."""
    if not is_closed(base, closed_set):
        raise NotClosed(f"{closed_set!r} is not closed")
    ch = _chainer(base)
    g = base.ground
    return [ElemSet(g, m) for m in _cover_masks(ch, g.full_mask, closed_set.mask)]


def meet_irreducibles(
    base: ImplicationalBase, limit: int = EXHAUSTIVE_LIMIT
) -> list[tuple[ElemSet, ElemSet]]:
    """All closed sets with exactly one upper cover, paired with that cover.

    Returned in lectic order of the irreducible set. These are the
    building blocks of the arrow relations.
    """
    family = enumerate_closed_sets(base, limit)
    ch = _chainer(base)
    g = base.ground
    full = g.full_mask
    out = []
    for f in family:
        if f.mask == full:
            continue
        cm = _cover_masks(ch, full, f.mask)
        if len(cm) == 1:
            out.append((f, ElemSet(g, cm[0])))
    return out


@dataclass(frozen=True)
class MinGenRecord:
    """All inclusion-minimal sets whose closure contains one element."""

    element: int
    generators: tuple[ElemSet, ...]


def minimal_generators(
    base: ImplicationalBase, element: int, max_size: int | None = None
) -> MinGenRecord:
    """Every inclusion-minimal set A with ``element`` in close(A).

    The singleton of the element itself is always included as the
    trivial generator; the empty set is never considered a generator.
    Search proceeds by increasing subset size, pruning supersets of
    generators already found, so every survivor that works is minimal.
    """
    g = base.ground
    n = g.n
    if not 0 <= element < n:
        raise ValueError(f"element index {element} out of range")
    if max_size is None:
        max_size = n
    ch = _chainer(base)
    bit = 1 << element
    found: list[int] = []
    index = SubsetIndex(n)
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(n), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if index.has_subset_of(mask):
                continue
            if ch.close(mask) & bit:
                found.append(mask)
                index.add(mask)
    found.sort()
    return MinGenRecord(element, tuple(ElemSet(g, m) for m in found))


def caratheodory_number(base: ImplicationalBase, max_size: int | None = None) -> int:
    """The largest size of any minimal generator, 1 when only trivial ones exist."""
    best = 1
    for x in range(base.ground.n):
        for gen in minimal_generators(base, x, max_size).generators:
            if len(gen) > best:
                best = len(gen)
    return best
