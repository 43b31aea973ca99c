import random

import pytest

from conclose import (
    ElemSet,
    GroundSet,
    MismatchedGroundSets,
    OutputLimitExceeded,
    is_independent,
    maximal_independent_sets,
    minimal_transversals,
)
from oracles import as_label_sets, naive_mis, naive_transversals


def hg(labels, *edges):
    """A ground set and its edge list, the two leading arguments of dualization."""
    g = GroundSet(labels)
    return g, [g.set_of(*e) for e in edges]


def test_empty_edge_has_no_transversal_and_no_independent_set():
    # The empty edge lies inside every other edge and nothing hits it.
    g, edges = hg("ab", "a", "", "ab")
    assert minimal_transversals(g, edges) == []
    assert maximal_independent_sets(g, edges) == []
    assert naive_transversals(g.labels, [frozenset()]) == set()
    assert naive_mis(g.labels, [frozenset()]) == set()
    for s in (g.empty(), g.set_of("b"), g.full()):
        assert not is_independent(edges, s)


def test_foreign_edge_rejected():
    g = GroundSet(["a"])
    other = GroundSet(["b"])
    for fn in (minimal_transversals, maximal_independent_sets):
        with pytest.raises(MismatchedGroundSets):
            fn(g, [g.full(), other.full()])


def test_is_independent(demo_base, demo_graph):
    g = demo_base.ground
    edges = [g.from_indices(e) for e in demo_graph.edges]
    assert is_independent(edges, g.set_of("1", "3", "5"))
    assert not is_independent(edges, g.set_of("1", "2", "3", "5"))
    assert is_independent(edges, g.empty())


def test_minimal_transversals_tiny():
    assert as_label_sets(minimal_transversals(*hg("ab", "ab"))) == {
        frozenset("a"),
        frozenset("b"),
    }
    assert as_label_sets(minimal_transversals(*hg("ab", "a", "b"))) == {
        frozenset("ab")
    }


def test_demo_keys_transversals_and_mis():
    # the four keys of the worked instance, as a hypergraph
    g, edges = hg(["1", "2", "3", "4", "5"], "135", "34", "24", "25")
    assert as_label_sets(minimal_transversals(g, edges)) == {
        frozenset({"2", "3"}),
        frozenset({"4", "5"}),
        frozenset({"1", "2", "4"}),
    }
    assert as_label_sets(maximal_independent_sets(g, edges)) == {
        frozenset({"1", "4", "5"}),
        frozenset({"1", "2", "3"}),
        frozenset({"3", "5"}),
    }


def test_mis_single_edge_and_triangle():
    assert as_label_sets(maximal_independent_sets(*hg("abc", "ab"))) == {
        frozenset({"a", "c"}),
        frozenset({"b", "c"}),
    }
    assert as_label_sets(maximal_independent_sets(*hg("abc", "ab", "bc", "ac"))) == {
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
    }


def test_output_is_lectic():
    g, edges = hg("abcd", "ab", "cd")
    for out in (minimal_transversals(g, edges), maximal_independent_sets(g, edges)):
        masks = [s.mask for s in out]
        assert masks == sorted(masks)


def test_random_hypergraphs_match_oracle():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 7)
        g = GroundSet([f"e{i}" for i in range(n)])
        edges = []
        for _ in range(rng.randint(1, 6)):
            mask = rng.randrange(1, 1 << n)
            edges.append(ElemSet(g, mask))
        edge_labels = [e.labels() for e in edges]

        trans = minimal_transversals(g, edges)
        mis = maximal_independent_sets(g, edges)
        assert as_label_sets(trans) == naive_transversals(g.labels, edge_labels)
        assert as_label_sets(mis) == naive_mis(g.labels, edge_labels)

        # complement duality, antichain, independence, maximality
        assert {t.complement().mask for t in trans} == {m.mask for m in mis}
        for a in mis:
            assert is_independent(edges, a)
            for i in range(n):
                if i not in a:
                    assert not is_independent(edges, a.add(i))
            for b in mis:
                assert not a < b


def test_transversal_cap_reports_partial():
    g, edges = hg("abcdef", "ab", "cd", "ef")
    with pytest.raises(OutputLimitExceeded) as err:
        minimal_transversals(g, edges, cap=3)
    assert err.value.phase == "transversals"
    assert len(err.value.partial) >= 3


def test_transversal_cap_partial_holds_only_minimal_transversals():
    # The cap counts finished transversals of the whole hypergraph, so a
    # partial result never holds a set that misses an edge.
    g, edges = hg("abcdef", "ab", "cd", "ef")
    answer = set(minimal_transversals(g, edges))
    for cap in range(len(answer)):
        with pytest.raises(OutputLimitExceeded) as err:
            minimal_transversals(g, edges, cap=cap)
        assert len(err.value.partial) == cap + 1
        assert set(err.value.partial) <= answer


def test_cap_counts_the_answer_not_edge_prefixes():
    # The edges {a,c} and {b,d} alone have four minimal transversals;
    # {c,d} cuts them to three, and a cap of three is enough.
    g, edges = hg("abcd", "ac", "bd", "cd")
    answer = minimal_transversals(g, edges)
    assert as_label_sets(answer) == {frozenset("ad"), frozenset("bc"), frozenset("cd")}
    assert minimal_transversals(g, edges, cap=3) == answer
    assert len(maximal_independent_sets(g, edges, cap=3)) == 3


def test_mis_cap_propagates():
    g, edges = hg("abcdef", "ab", "cd", "ef")
    with pytest.raises(OutputLimitExceeded):
        maximal_independent_sets(g, edges, cap=3)
    assert len(maximal_independent_sets(g, edges, cap=8)) == 8


def test_cap_zero_on_no_edges_raises():
    # The empty set is the one transversal of an edgeless hypergraph, so
    # it counts against the cap like any other result.
    g, edges = hg("abc")
    assert minimal_transversals(g, edges, cap=1) == [g.empty()]
    for fn in (minimal_transversals, maximal_independent_sets):
        with pytest.raises(OutputLimitExceeded) as err:
            fn(g, edges, cap=0)
        assert err.value.phase == "transversals"
        assert err.value.partial == [g.empty()]
