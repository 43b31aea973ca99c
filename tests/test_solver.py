import random

import pytest

from conclose import (
    EXHAUSTIVE_LIMIT,
    ConsistencyGraph,
    GroundSetTooLarge,
    OutputLimitExceeded,
    brute_force_solve,
    co_atoms,
    enumerate_closed_sets,
    enumerate_keys,
    gen_exponential,
    gen_random,
    is_solution,
    meet_irreducibles,
    parse_instance,
    solve,
)
from conclose import keys as keys_module
from conclose.core import SubsetIndex
from oracles import as_label_sets, naive_solve

DEMO_SOLUTIONS = {
    frozenset({"1", "2", "3"}),
    frozenset({"3", "5"}),
    frozenset({"1", "4", "5"}),
}


def test_solve_demo(demo_base, demo_graph):
    sol = solve(demo_base, demo_graph)
    assert as_label_sets(sol) == DEMO_SOLUTIONS
    assert [s.to_text() for s in sol] == ["1 2 3", "3 5", "1 4 5"]
    assert sol.stats.key_count == 4
    assert all(t >= 0 for t in sol.stats.seconds.values())


def test_solve_without_edges_returns_everything(demo_base):
    sol = solve(demo_base, ConsistencyGraph(demo_base.ground, []))
    assert [s.mask for s in sol] == [demo_base.ground.full_mask]
    assert sol.stats.key_count == 0


def test_solve_reduces_to_graph_mis_without_rules():
    base, graph = parse_instance(
        "elements: a b c\nedge: a b\nedge: b c\nedge: a c\n"
    )
    assert as_label_sets(solve(base, graph)) == {
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
    }


def test_brute_force_demo(demo_base, demo_graph):
    sol = brute_force_solve(demo_base, demo_graph)
    assert as_label_sets(sol) == DEMO_SOLUTIONS
    assert [s.mask for s in sol] == sorted(s.mask for s in sol)


def test_complete_graph_leaves_singletons():
    base, graph = parse_instance(
        "elements: a b c\nedge: a b\nedge: b c\nedge: a c\n"
    )
    assert as_label_sets(brute_force_solve(base, graph)) == {
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
    }


def test_solutions_satisfy_membership_test(demo_base, demo_graph):
    sol = solve(demo_base, demo_graph)
    for s in sol:
        assert is_solution(demo_base, demo_graph, s)
    for a in sol:
        for b in sol:
            assert a == b or not a < b


def test_is_solution_rejects_non_members(demo_base, demo_graph):
    g = demo_base.ground
    assert is_solution(demo_base, demo_graph, g.set_of("3", "5"))
    assert not is_solution(demo_base, demo_graph, g.set_of("1", "2", "3", "5"))  # edge 25
    assert not is_solution(demo_base, demo_graph, g.set_of("1"))                 # extendable
    assert not is_solution(demo_base, demo_graph, g.set_of("1", "3"))            # not closed
    assert not is_solution(demo_base, demo_graph, g.full())


def test_solver_agrees_with_both_oracles_on_randoms():
    rng = random.Random(31)
    for seed in range(60):
        n = rng.randint(1, 7)
        base, graph = gen_random(
            n=n,
            n_imps=rng.randint(0, 9),
            max_premise=rng.randint(1, min(3, n)),
            n_edges=rng.randint(0, n * (n - 1) // 2),
            seed=seed,
        )
        fast = as_label_sets(solve(base, graph))
        slow = as_label_sets(brute_force_solve(base, graph))
        assert fast == slow
        assert fast == naive_solve(base, graph)


def test_solve_propagates_key_cap(demo_base, demo_graph):
    with pytest.raises(OutputLimitExceeded) as err:
        solve(demo_base, demo_graph, key_cap=2)
    assert err.value.phase == "keys"


def test_brute_force_respects_ground_limit():
    labels = " ".join(f"e{i}" for i in range(21))
    base, graph = parse_instance(f"elements: {labels}\nedge: e0 e1\n")
    with pytest.raises(GroundSetTooLarge):
        brute_force_solve(base, graph)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solver_matches_brute_force_at_the_exhaustive_limit(seed):
    base, graph = gen_random(EXHAUSTIVE_LIMIT, 40, 3, 6, seed)
    assert base.ground.n == EXHAUSTIVE_LIMIT
    assert tuple(solve(base, graph).sets) == tuple(brute_force_solve(base, graph).sets)


@pytest.mark.parametrize(
    "seed, n_closed, n_solutions", [(4, 7511, 35), (12, 6278, 10), (13, 6620, 29), (14, 5156, 19)]
)
def test_oracle_workload_pins(seed, n_closed, n_solutions):
    # The four instances of the benchmark's oracle workload.
    base, graph = gen_random(18, 24, 3, 5, seed)
    assert len(enumerate_closed_sets(base)) == n_closed
    oracle = brute_force_solve(base, graph)
    assert len(oracle) == n_solutions
    assert oracle.sets == solve(base, graph).sets


@pytest.mark.parametrize(
    "seed, n_pruned, n_all",
    [(4, 4623, 9345), (12, 5862, 11240), (13, 5011, 11956), (14, 6230, 10044)],
)
def test_oracle_grows_only_consistent_closed_sets(monkeypatch, seed, n_pruned, n_all):
    # brute_force_solve drops a closed set holding an edge together with
    # its Close-by-One subtree and never closes cur | bit when bit
    # conflicts with cur: 21,726 grows on the four oracle instances,
    # where listing every closed set (25,565 sets) still makes 42,585.
    from conclose import closure as closure_module

    calls = []
    grow = closure_module._Chainer.grow

    def counting_grow(ch, result, counts, todo):
        calls.append(todo)
        return grow(ch, result, counts, todo)

    monkeypatch.setattr(closure_module._Chainer, "grow", counting_grow)
    base, graph = gen_random(18, 24, 3, 5, seed)
    brute_force_solve(base, graph)
    assert len(calls) <= n_pruned
    calls.clear()
    enumerate_closed_sets(base)
    assert len(calls) == n_all


def test_is_solution_reads_edges_through_one_subset_index(monkeypatch, demo_base, demo_graph):
    # One index over the three demo edges answers the consistency test
    # of the candidate and of each of its two closed extensions.
    made, queried = [], []
    init, query = SubsetIndex.__init__, SubsetIndex.has_subset_of

    def counted_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def counted_query(self, mask):
        queried.append(self)
        return query(self, mask)

    monkeypatch.setattr(SubsetIndex, "__init__", counted_init)
    monkeypatch.setattr(SubsetIndex, "has_subset_of", counted_query)
    assert is_solution(demo_base, demo_graph, demo_base.ground.set_of("1", "4", "5"))
    assert len(made) == 1 and made[0].count == 3
    assert len(queried) == 3


def test_solution_serialize(demo_base, demo_graph):
    text = solve(demo_base, demo_graph).serialize()
    assert text.splitlines() == ["1 2 3", "3 5", "1 4 5"]


def test_empty_key_base_has_no_co_atoms_and_no_solutions():
    # "-> everything" closes the empty set to the full set: the empty set
    # is the one key, so no proper closed set and no consistent one exists.
    base, graph = parse_instance("elements: a b c\nimp: -> a b c\nedge: a b\n")
    assert enumerate_keys(base) == (base.ground.empty(),)
    assert co_atoms(base) == []
    assert meet_irreducibles(base) == []
    sol = solve(base, graph)
    assert sol.sets == () == brute_force_solve(base, graph).sets
    assert sol.stats.key_count == 1


def test_keys_reach_the_dualizer_without_a_second_subset_index(monkeypatch):
    # Key saturation builds the one key index and looks its rewrites up
    # in it; the dualizer takes the 2^10 + 1 keys as they are, with no
    # antichain pass and so no index of its own. The certificate index
    # that the saturation hands to its key minimizations is counted apart.
    made, queried, certificates = [], [], []
    init, query = SubsetIndex.__init__, SubsetIndex.has_subset_of
    minimize = keys_module._minimize_mask

    def counted_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def counted_query(self, mask):
        queried.append(self)
        return query(self, mask)

    def captured_minimize(ch, full, mask, proper):
        certificates.append(proper)
        return minimize(ch, full, mask, proper)

    monkeypatch.setattr(SubsetIndex, "__init__", counted_init)
    monkeypatch.setattr(SubsetIndex, "has_subset_of", counted_query)
    monkeypatch.setattr(keys_module, "_minimize_mask", captured_minimize)
    solve(*gen_exponential(10))
    certificate = certificates[0]
    assert all(c is certificate for c in certificates)
    assert certificate in made
    calls = {
        "init": sum(ix is not certificate for ix in made),
        "query": sum(ix is not certificate for ix in queried),
    }
    assert calls == {"init": 1, "query": 1025}
