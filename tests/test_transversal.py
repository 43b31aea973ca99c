import random

import pytest

from conclose import MIS_CAP, OutputLimitExceeded, maximal_independent_sets
from oracles import naive_mis, naive_transversals


def hg(labels, *edges):
    """The size of a ground set and the masks of its edges, given by labels."""
    index = {x: i for i, x in enumerate(labels)}
    return len(labels), [sum(1 << index[x] for x in e) for e in edges]


def names(labels, masks):
    """The label sets of a list of masks over ``labels``."""
    return {frozenset(x for i, x in enumerate(labels) if m >> i & 1) for m in masks}


def transversals(n, edges, cap=MIS_CAP):
    """The minimal transversals: complements of the maximal independent sets."""
    full = (1 << n) - 1
    return sorted(full ^ m for m in maximal_independent_sets(n, edges, cap))


def test_empty_edge_has_no_transversal_and_no_independent_set():
    # The empty edge lies inside every other edge and nothing hits it.
    n, edges = hg("ab", "a", "", "ab")
    assert transversals(n, edges) == []
    assert maximal_independent_sets(n, edges) == []
    assert naive_transversals("ab", [frozenset()]) == set()
    assert naive_mis("ab", [frozenset()]) == set()


def test_foreign_edge_rejected():
    # An edge mask with a bit past the ground set names no element of it.
    for fn in (transversals, maximal_independent_sets):
        with pytest.raises(ValueError):
            fn(1, [0b1, 0b10])


@pytest.mark.parametrize("edges", [[-2, 3], [-1], [0b1000], [0b11, 0b1001]])
def test_negative_or_oversized_edge_raises_value_error(edges):
    # A negative mask has every bit above the ground set, so it is as
    # foreign as a mask past it; neither may reach the vertex lists.
    with pytest.raises(ValueError, match="does not fit a 3-element ground set"):
        maximal_independent_sets(3, edges)


def test_minimal_transversals_tiny():
    assert names("ab", transversals(*hg("ab", "ab"))) == {frozenset("a"), frozenset("b")}
    assert names("ab", transversals(*hg("ab", "a", "b"))) == {frozenset("ab")}


def test_demo_keys_transversals_and_mis():
    # the four keys of the worked instance, as a hypergraph
    labels = ["1", "2", "3", "4", "5"]
    n, edges = hg(labels, ["1", "3", "5"], ["3", "4"], ["2", "4"], ["2", "5"])
    assert names(labels, transversals(n, edges)) == {
        frozenset({"2", "3"}),
        frozenset({"4", "5"}),
        frozenset({"1", "2", "4"}),
    }
    assert names(labels, maximal_independent_sets(n, edges)) == {
        frozenset({"1", "4", "5"}),
        frozenset({"1", "2", "3"}),
        frozenset({"3", "5"}),
    }


def test_mis_single_edge_and_triangle():
    assert names("abc", maximal_independent_sets(*hg("abc", "ab"))) == {
        frozenset({"a", "c"}),
        frozenset({"b", "c"}),
    }
    assert names("abc", maximal_independent_sets(*hg("abc", "ab", "bc", "ac"))) == {
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
    }


def test_output_is_lectic():
    out = maximal_independent_sets(*hg("abcd", "ab", "cd"))
    assert out == sorted(out)


def test_random_hypergraphs_match_oracle():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 7)
        labels = [f"e{i}" for i in range(n)]
        edges = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))]
        edge_labels = names(labels, edges)

        trans = transversals(n, edges)
        mis = maximal_independent_sets(n, edges)
        assert names(labels, trans) == naive_transversals(labels, edge_labels)
        assert names(labels, mis) == naive_mis(labels, edge_labels)

        # complement duality, independence, maximality
        full = (1 << n) - 1
        assert sorted(full ^ t for t in trans) == mis
        for a in mis:
            assert not any(e & ~a == 0 for e in edges)
            for i in range(n):
                if not a >> i & 1:
                    assert any(e & ~(a | 1 << i) == 0 for e in edges)


def test_transversal_cap_reports_partial():
    n, edges = hg("abcdef", "ab", "cd", "ef")
    with pytest.raises(OutputLimitExceeded) as err:
        maximal_independent_sets(n, edges, cap=3)
    assert err.value.phase == "transversals"
    assert len(err.value.partial) >= 3


def test_transversal_cap_partial_holds_only_minimal_transversals():
    # The cap counts finished transversals of the whole hypergraph, so a
    # partial result never holds a set that misses an edge. It lists
    # their complements, the independent sets found so far, lectically.
    n, edges = hg("abcdef", "ab", "cd", "ef")
    full = (1 << n) - 1
    answer = set(transversals(n, edges))
    for cap in range(len(answer)):
        for fn in (transversals, maximal_independent_sets):
            with pytest.raises(OutputLimitExceeded) as err:
                fn(n, edges, cap=cap)
            partial = err.value.partial
            assert len(partial) == cap + 1 and partial == sorted(partial)
            assert {full ^ m for m in partial} <= answer


def test_cap_counts_the_answer_not_edge_prefixes():
    # The edges {a,c} and {b,d} alone have four minimal transversals;
    # {c,d} cuts them to three, and a cap of three is enough.
    n, edges = hg("abcd", "ac", "bd", "cd")
    answer = transversals(n, edges)
    assert names("abcd", answer) == {frozenset("ad"), frozenset("bc"), frozenset("cd")}
    assert transversals(n, edges, cap=3) == answer
    assert len(maximal_independent_sets(n, edges, cap=3)) == 3


def test_mis_cap_propagates():
    n, edges = hg("abcdef", "ab", "cd", "ef")
    with pytest.raises(OutputLimitExceeded):
        maximal_independent_sets(n, edges, cap=3)
    assert len(maximal_independent_sets(n, edges, cap=8)) == 8


def test_cap_zero_on_no_edges_raises():
    # The empty set is the one transversal of an edgeless hypergraph, so
    # it counts against the cap like any other result.
    assert transversals(3, [], cap=1) == [0]
    for fn in (transversals, maximal_independent_sets):
        with pytest.raises(OutputLimitExceeded) as err:
            fn(3, [], cap=0)
        assert err.value.phase == "transversals"
        assert err.value.partial == [0b111]
