"""Minimal keys of an implicational base and their decomposition.

A key is an inclusion-minimal set whose closure is the whole ground
set. Enumeration follows the Lucchesi-Osborn saturation scheme from
relational database theory: start from one minimized key and, for every
known key and every rule whose conclusion meets it, minimize the
rewritten superkey obtained by swapping the met part for the premise.
The loop runs FIFO and stops when no rewrite escapes the known keys;
a packed core.SubsetIndex over the known keys answers that test.

Rewrites use the compiled rules of the closure engine, one per distinct
premise. That is still complete, since the merged rules form an
equivalent base, and each merged rewrite lies inside the rewrites of the
rules it merges. A rewrite is looked up at most once: the index only
grows, so a rewrite found covered stays covered, and a minimized one
left a subset of itself in the index.

A rule whose premise holds a known key is retired from every later
scan: each rewrite ``p | (k & ~c)`` of it holds that key, so the index
would report it covered, and since the index only grows it always
would. Retiring it changes no output, only the work. One bitmask per
element marks the rules whose premise holds it, so the rules a new key
retires are the AND of those masks over the key's elements; a second
mask per element marks the rules whose conclusion meets it, so a key's
scan reads only the live rules whose conclusion meets the key.

Minimization drops elements greedily, each kept only when the closure
of the rest falls short of the full set. Every saturation first
minimizes the full set, and each element that minimization keeps leaves
a proper closed set cl(rest). Their complements, at most one per
element of that first key, go into a SubsetIndex on the compiled
engine. In every later minimization a rest inside one of those closed
sets cannot close to the full set, so its element is kept with no
closure; the test skipped would have failed, so every key and every
output is as before. On the doubling family, gen_exponential(10), this
cuts the closures of one saturation from 10,254 to 24; on random and
poset convexity bases, whose removal tests rarely fall inside those
sets, it saves 6-13 %.

Minimal generators are key queries too: the minimal sets whose closure
holds an element x are the minimal keys of the base plus the rule
``{x} -> everything``. The same full-set rules, one per conflict edge,
augment a base for the solver. Each element's saturation runs once per
base and is kept beside the compiled closure engine, so minimal
generators, the Carathéodory number and the meet-irreducibles share it.

Inside the package a key family is a lectic sequence of int masks, and each
public function wraps its own result in ElemSet, once. The minimal keys
are a duplicate-free antichain; their masks are the edge list of
transversal.maximal_independent_sets as they are.
"""

from __future__ import annotations

from typing import Iterable

from .closure import _chainer
from .core import (
    KEY_CAP,
    ConsistencyGraph,
    ElemSet,
    ImplicationalBase,
    SubsetIndex,
    _refuse_past_exhaustive_limit,
    iter_bits,
)
from .errors import (
    EmptyGraph,
    MismatchedGroundSets,
    NoDecomposition,
    NotASuperkey,
    OutputLimitExceeded,
)


def _with_full_rules(base: ImplicationalBase, premises: Iterable[int]) -> ImplicationalBase:
    # The base plus one rule per premise mask that forces the full set.
    full = base.ground.full_mask
    return ImplicationalBase._from_rules(base.ground, [*base.rules, *((p, full) for p in premises)])


def augment_with_inconsistency(
    base: ImplicationalBase, graph: ConsistencyGraph
) -> ImplicationalBase:
    """Extend the base with one rule per conflict edge forcing everything.

    After augmentation a set closes to the full ground set exactly when
    its original closure is inconsistent or already full, which is what
    turns conflict-respecting enumeration into a pure key problem.
    """
    if base.ground != graph.ground:
        raise MismatchedGroundSets("base and graph ground sets differ")
    if not graph.edges:
        raise EmptyGraph("augmentation needs at least one conflict edge")
    return _with_full_rules(base, ((1 << u) | (1 << v) for u, v in graph.edges))


def _minimize_mask(ch, full: int, mask: int) -> int:
    # Drop elements in decreasing index order whenever the closure of
    # the remainder is still full. The result is one minimal key. A
    # remainder inside a proper closed set of the engine's certificate
    # cannot close to full, so its element stays without a closure.
    proper = ch.proper_closed
    certificate = SubsetIndex(ch.n) if proper is None and mask == full else None
    todo = mask  # the set bits not yet tried, highest taken first
    while todo:
        bit = 1 << (todo.bit_length() - 1)
        todo ^= bit
        rest = mask ^ bit
        if proper is not None and proper.has_subset_of(full ^ rest):
            continue
        closed = ch.close(rest)
        if closed == full:
            mask = rest
        elif certificate is not None:
            certificate.add(full ^ closed)
    if certificate is not None:
        # Published whole, so a thread sharing the base never reads a half-built index.
        ch.proper_closed = certificate
    return mask


def minimize_superkey(base: ImplicationalBase, superkey: ElemSet) -> ElemSet:
    """Shrink a superkey to a minimal key by greedy element removal.

    Elements are scanned in decreasing index order, so the result is
    deterministic. Raises NotASuperkey when the argument's closure is
    not the full ground set.
    """
    if superkey.ground != base.ground:
        raise MismatchedGroundSets("set and base over different ground sets")
    ch = _chainer(base)
    full = base.ground.full_mask
    if ch.close(superkey.mask) != full:
        raise NotASuperkey(f"{superkey!r} does not generate the full set")
    return ElemSet(base.ground, _minimize_mask(ch, full, superkey.mask))


def _key_masks(base: ImplicationalBase, cap: int = KEY_CAP) -> list[int]:
    # enumerate_keys as a sorted list of masks, the form the package reads.
    g = base.ground
    ch = _chainer(base)
    full = g.full_mask
    rules = ch.rules
    holds = [0] * g.n  # holds[i]: the rules whose premise holds element i, one bit per rule
    meets = [0] * g.n  # meets[i]: the rules whose conclusion holds element i
    for j, (pmask, cmask) in enumerate(rules):
        bit = 1 << j
        for i in iter_bits(pmask):
            holds[i] |= bit
        for i in iter_bits(cmask):
            meets[i] |= bit
    live = (1 << len(rules)) - 1  # the rules not yet retired
    found: list[int] = []
    index = SubsetIndex(g.n)
    tried: set[int] = set()  # rewrites already looked up; the index only grows

    def add_key(k: int) -> None:
        nonlocal live
        found.append(k)
        index.add(k)
        if len(found) > cap:
            raise OutputLimitExceeded("keys", cap, sorted(found))
        # Every rewrite of a rule whose premise holds k holds k too.
        dead = live
        m = k
        while m and dead:
            low = m & -m
            m ^= low
            dead &= holds[low.bit_length() - 1]
        live ^= dead

    add_key(_minimize_mask(ch, full, full))
    for k in found:  # keys appended below are scanned in turn, first in first out
        todo = 0
        m = k
        while m:
            low = m & -m
            m ^= low
            todo |= meets[low.bit_length() - 1]
        todo &= live
        while todo:
            low = todo & -todo
            todo ^= low
            pmask, cmask = rules[low.bit_length() - 1]
            s = pmask | (k & ~cmask)
            if s in tried:
                continue
            tried.add(s)
            if index.has_subset_of(s):
                continue
            add_key(_minimize_mask(ch, full, s))
    found.sort()
    return found


def enumerate_keys(base: ImplicationalBase, cap: int = KEY_CAP) -> tuple[ElemSet, ...]:
    """All minimal keys of ``base`` by Lucchesi-Osborn saturation, in lectic order.

    Raises OutputLimitExceeded as soon as key ``cap + 1`` is found,
    carrying the masks of those ``cap + 1`` keys.
    """
    return tuple(ElemSet(base.ground, m) for m in _key_masks(base, cap))


def brute_force_keys(base: ImplicationalBase) -> tuple[ElemSet, ...]:
    """Reference key enumeration by scanning all subsets, smallest first.

    Independent of the saturation path; used as an oracle in tests and
    available for cross-checking at desk scale.
    """
    g = base.ground
    n = g.n
    _refuse_past_exhaustive_limit(n)
    ch = _chainer(base)
    full = g.full_mask
    found: list[int] = []
    index = SubsetIndex(n)
    for mask in sorted(range(1 << n), key=lambda m: (m.bit_count(), m)):
        if not index.has_subset_of(mask) and ch.close(mask) == full:
            index.add(mask)
            found.append(mask)
    found.sort()
    return tuple(ElemSet(g, m) for m in found)


def _element_keys(base: ImplicationalBase, element: int) -> tuple[int, ...]:
    # The lectic key masks of the base plus {element} -> everything,
    # saturated once per base: the tuples are immutable, so the compiled
    # engine cached on the base keeps them for every later query.
    memo = _chainer(base).element_keys
    keys = memo.get(element)
    if keys is None:
        keys = memo[element] = tuple(_key_masks(_with_full_rules(base, [1 << element])))
    return keys


def minimal_generators(base: ImplicationalBase, element: int) -> tuple[ElemSet, ...]:
    """Every inclusion-minimal non-empty set A with ``element`` in close(A).

    These are the minimal keys of the base plus ``{element} ->
    everything``, in lectic order, so the singleton of the element is
    always one of them. When the element lies in close(∅) the empty set
    is the one key; it never counts as a generator, so every singleton
    is returned instead.
    """
    g = base.ground
    if not 0 <= element < g.n:
        raise ValueError(f"element index {element} out of range")
    keys = _element_keys(base, element)
    if keys[0] == 0:
        return tuple(ElemSet(g, 1 << i) for i in range(g.n))
    return tuple(ElemSet(g, m) for m in keys)


def caratheodory_number(base: ImplicationalBase) -> int:
    """The largest size of any minimal generator, 1 when only trivial ones exist."""
    # An element of close(∅) has the empty key but singleton generators.
    sizes = (k.bit_count() for x in range(base.ground.n) for k in _element_keys(base, x))
    return max(1, max(sizes, default=1))


def key_decomposition(
    base: ImplicationalBase,
    graph: ConsistencyGraph,
    key: ElemSet,
) -> tuple[tuple[int, int], ElemSet, ElemSet]:
    """Split a key of the augmented base along one conflict edge.

    Every key of the augmented system is the union of a minimal
    generator of u and a minimal generator of v for some conflict edge
    (u, v), generators taken under the original base. Edges are tried
    in normalized order and generators lectically; the first witness is
    returned as ``((u, v), gen_u, gen_v)``. Raises NoDecomposition when
    no edge admits one, which for true keys cannot happen.
    """
    if base.ground != graph.ground or key.ground != base.ground:
        raise MismatchedGroundSets("key, base and graph must share a ground set")
    kmask = key.mask
    for u, v in graph.edges:
        gens_u = [a for a in minimal_generators(base, u) if a.mask & ~kmask == 0]
        if not gens_u:
            continue
        gens_v = [a for a in minimal_generators(base, v) if a.mask & ~kmask == 0]
        for a_u in gens_u:
            for a_v in gens_v:
                if a_u.mask | a_v.mask == kmask:
                    return (u, v), a_u, a_v
    raise NoDecomposition(f"{key!r} does not split along any conflict edge")
