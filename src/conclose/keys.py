"""Minimal keys and minimal generators of an implicational base.

A key is an inclusion-minimal set whose closure is the whole ground
set. Enumeration follows the Lucchesi-Osborn saturation scheme from
relational database theory: start from one minimized key and, for every
known key and every rule whose conclusion meets it, minimize the
rewritten superkey obtained by swapping the met part for the premise.
The loop runs FIFO and stops when no rewrite escapes the known keys;
a packed core.SubsetIndex over the known keys answers that test.

Rewrites use the compiled rules of the closure engine, its ``premises``
and ``conclusions`` lists with one rule per distinct premise. That is
still complete, since the merged rules form an equivalent base, and
each merged rewrite lies inside the rewrites of the rules it merges. A rewrite is looked up at most once: the index only
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

The same holds one element further. A rule whose conclusion misses e
and whose premise plus e holds a known key rewrites every key k holding
e into a set holding ``p | e``, so that rewrite too is covered now and
always. A rule mask ``near[e]`` per element collects these rules, and
each key's scan drops ``near[e]`` for the elements e it holds that have
one. A new key finds them in the walk over its elements that finds the
rules it retires: beside the rules whose premise holds every element so
far it keeps those missing exactly one, and the walk stops when both
are empty. It starts from the rules whose premise has at least |k| - 1
elements, the only ones that can qualify, so on the doubling family,
whose live premises are far smaller than its keys, most walks never
start. On the first convexity benchmark instance the rewrites read fall
from 23,742 to 1,827; the keys, their order, the minimizations and the
closures are as before.

Minimization drops elements greedily, each kept only when the closure
of the rest falls short of the full set. Every saturation first
minimizes the full set, and each element that minimization keeps leaves
a proper closed set cl(rest). Their complements, one per element of
that first key, go into a SubsetIndex local to the saturation and
handed to each of its minimizations. In every later minimization a
rest inside one of those closed sets cannot close to the full set, so
its element is kept with no closure; the test skipped would have
failed, so every key and every output is as before. On the doubling
family, gen_exponential(10), this cuts the closures of one saturation
from 10,254 to 24; on random and poset convexity bases, whose removal
tests rarely fall inside those sets, it saves 6-13 %.

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
    iter_bits,
)
from .errors import MismatchedGroundSets, OutputLimitExceeded


def _with_full_rules(base: ImplicationalBase, premises: Iterable[int]) -> ImplicationalBase:
    # The base plus one rule per premise mask that forces the full set.
    full = base.ground.full_mask
    return ImplicationalBase(base.ground, [*base.rules, *((p, full) for p in premises)])


def augment_with_inconsistency(
    base: ImplicationalBase, graph: ConsistencyGraph
) -> ImplicationalBase:
    """Extend the base with one rule per conflict edge forcing everything.

    After augmentation a set closes to the full ground set exactly when
    its original closure is inconsistent or already full, which is what
    turns conflict-respecting enumeration into a pure key problem. With
    no edges there is nothing to add, and the result equals ``base``.
    """
    if base.ground != graph.ground:
        raise MismatchedGroundSets("base and graph ground sets differ")
    return _with_full_rules(base, ((1 << u) | (1 << v) for u, v in graph.edges))


def _minimize_mask(ch, full: int, mask: int, proper: SubsetIndex) -> int:
    # Drop elements in decreasing index order whenever the closure of
    # the remainder is still full. The result is one minimal key.
    # ``proper`` holds complements of proper closed sets: a remainder
    # inside one cannot close to full, so its element stays without a
    # closure. Only a minimization of the full set adds to it, and its
    # own queries never hit: each element it keeps lies outside that
    # element's failed closure and inside every later remainder.
    learn = mask == full
    todo = mask  # the set bits not yet tried, highest taken first
    while todo:
        bit = 1 << (todo.bit_length() - 1)
        todo ^= bit
        rest = mask ^ bit
        if proper.has_subset_of(full ^ rest):
            continue
        closed = ch.close(rest)
        if closed == full:
            mask = rest
        elif learn:
            proper.add(full ^ closed)
    return mask


def _key_masks(base: ImplicationalBase, cap: int = KEY_CAP) -> list[int]:
    # enumerate_keys as a sorted list of masks, the form the package reads.
    g = base.ground
    ch = _chainer(base)
    full = g.full_mask
    premises, conclusions = ch.premises, ch.conclusions
    holds = [0] * g.n  # holds[i]: the rules whose premise holds element i, one bit per rule
    meets = [0] * g.n  # meets[i]: the rules whose conclusion holds element i
    reach = [0] * (g.n + 2)  # reach[s]: the rules whose premise has at least s - 1 elements
    for j, (pmask, cmask) in enumerate(zip(premises, conclusions)):
        bit = 1 << j
        for i in iter_bits(pmask):
            holds[i] |= bit
        for i in iter_bits(cmask):
            meets[i] |= bit
        reach[pmask.bit_count() + 1] |= bit
    for s in reversed(range(g.n + 1)):
        reach[s] |= reach[s + 1]
    live = (1 << len(premises)) - 1  # the rules not yet retired
    near = [0] * g.n  # near[i]: the rules whose premise plus i holds a key and conclusion misses i
    nearby = 0  # the elements whose near mask is not 0
    found: list[int] = []
    index = SubsetIndex(g.n)
    proper = SubsetIndex(g.n)  # the minimizations' certificate, filled by the first
    tried: set[int] = set()  # rewrites already looked up; the index only grows

    def add_key(k: int) -> None:
        nonlocal live, nearby
        found.append(k)
        index.add(k)
        if len(found) > cap:
            raise OutputLimitExceeded("keys", cap, sorted(found))
        # Every rewrite of a rule whose premise holds k holds k too, so
        # the rule retires. A rule whose premise misses only e of k, and
        # whose conclusion misses e, rewrites any key holding e into a
        # superset of k, so it joins near[e]. Only a premise of at least
        # |k| - 1 elements can do either. ``every`` and ``one`` hold the
        # rules whose premise misses none and one of k's elements so far.
        every, one, m = live & reach[k.bit_count()], 0, k
        while m and (every or one):
            low = m & -m
            m ^= low
            h = holds[low.bit_length() - 1]
            one = (one & h) | (every & ~h)
            every &= h
        live ^= every
        if one:
            for e in iter_bits(k):
                add = one & ~holds[e] & ~meets[e]
                if add:
                    near[e] |= add
                    nearby |= 1 << e

    add_key(_minimize_mask(ch, full, full, proper))
    for k in found:  # keys appended below are scanned in turn, first in first out
        todo = 0
        m = k
        while m:
            low = m & -m
            m ^= low
            todo |= meets[low.bit_length() - 1]
        m = k & nearby
        while m:
            low = m & -m
            m ^= low
            todo &= ~near[low.bit_length() - 1]
        todo &= live
        while todo:
            low = todo & -todo
            todo ^= low
            j = low.bit_length() - 1
            s = premises[j] | (k & ~conclusions[j])
            if s in tried:
                continue
            tried.add(s)
            if index.has_subset_of(s):
                continue
            add_key(_minimize_mask(ch, full, s, proper))
    found.sort()
    return found


def enumerate_keys(base: ImplicationalBase, cap: int = KEY_CAP) -> tuple[ElemSet, ...]:
    """All minimal keys of ``base`` by Lucchesi-Osborn saturation, in lectic order.

    Raises OutputLimitExceeded as soon as key ``cap + 1`` is found,
    carrying the masks of those ``cap + 1`` keys.
    """
    return tuple(ElemSet(base.ground, m) for m in _key_masks(base, cap))


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
