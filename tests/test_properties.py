"""Hypothesis property tests: the packed subset index against the naive
scan it replaces, and the key and solve pipelines against their
brute-force twins on random bases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conclose import (
    ConsistencyGraph,
    GroundSet,
    Implication,
    ImplicationalBase,
    augment_with_inconsistency,
    brute_force_keys,
    brute_force_solve,
    enumerate_keys,
    solve,
)
from conclose.core import SubsetIndex, minimal

PROPERTY = settings(derandomize=True, deadline=None, database=None)
# The brute-force twins scan all 2^n subsets, so fewer, larger instances.
PIPELINE = settings(PROPERTY, max_examples=40)


@st.composite
def families(draw):
    """A ground size n, stored sets and query sets over it.

    Stored sets are drawn from a small pool so duplicates are common,
    and the empty and full sets are always in the pool.
    """
    n = draw(st.integers(0, 9))
    full = (1 << n) - 1
    mask = st.integers(0, full)
    pool = draw(st.lists(mask, max_size=4)) + [0, full]
    stored = draw(st.lists(st.sampled_from(pool) | mask, max_size=12))
    queries = draw(st.lists(mask, min_size=1, max_size=8)) + [0, full]
    return n, stored, queries


@PROPERTY
@given(families(), st.data())
def test_subset_index_matches_naive_scan(family, data):
    n, stored, queries = family
    # Mix bulk construction and add() at a drawn split point.
    split = data.draw(st.integers(0, len(stored)))
    index = SubsetIndex(n, stored[:split])
    for m in stored[split:]:
        index.add(m)
    for c in queries:
        assert index.has_subset_of(c) == any(a & ~c == 0 for a in stored)


@PROPERTY
@given(families())
def test_minimal_matches_naive_filter(family):
    n, stored, _ = family
    expected = sorted({m for m in stored if not any(o != m and o & ~m == 0 for o in stored)})
    assert minimal(n, stored) == expected


def test_subset_index_edge_cases():
    assert not SubsetIndex(0).has_subset_of(0)
    assert SubsetIndex(0, [0]).has_subset_of(0)
    one = SubsetIndex(1, [1])
    assert one.has_subset_of(1) and not one.has_subset_of(0)
    one.add(0)
    assert one.has_subset_of(0)
    assert minimal(0, [0, 0]) == [0]
    assert minimal(3, []) == []
    assert minimal(3, [7, 7, 5, 0b100]) == [0b100]


@st.composite
def instances(draw):
    """A random base with conflict edges over at most 14 elements."""
    n = draw(st.integers(2, 14))
    g = GroundSet(str(i) for i in range(n))
    element = st.integers(0, n - 1)
    rule = st.tuples(
        st.lists(element, min_size=1, max_size=3), st.lists(element, min_size=1, max_size=2)
    )
    # At least n rules keep the closed-set family, and with it the
    # quadratic brute-force maximality filter, small at n=14.
    rules = draw(st.lists(rule, min_size=n, max_size=2 * n))
    imps = [
        Implication(g.from_indices(p), g.from_indices(c))
        for p, c in rules
        if not set(c) <= set(p)
    ]
    pairs = draw(st.lists(st.tuples(element, element), min_size=1, max_size=n))
    graph = ConsistencyGraph(g, pairs)
    # Self-loop pairs are dropped; keep at least one real edge.
    if not graph.edges:
        graph = ConsistencyGraph(g, [(0, 1)])
    return ImplicationalBase(g, imps), graph


@PIPELINE
@given(instances())
def test_enumerate_keys_matches_brute_force(instance):
    base, graph = instance
    for b in (base, augment_with_inconsistency(base, graph)):
        assert enumerate_keys(b).keys == brute_force_keys(b).keys


@PIPELINE
@given(instances())
def test_solve_matches_brute_force(instance):
    base, graph = instance
    assert solve(base, graph).sets == brute_force_solve(base, graph).sets
