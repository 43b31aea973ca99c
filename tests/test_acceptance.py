"""End-to-end acceptance gate.

Each test covers one shipping criterion and prints a single
[PASS]/[FAIL] line; run ``pytest tests/test_acceptance.py -v -s`` to
see them. Criteria with a stated time budget fail when the budget is
exceeded even if the math checks out.
"""

import functools
import itertools
import random
import time

from conclose.analysis import (
    arrow_relations,
    check_atomistic,
    check_biatomic,
    check_mingen_independence,
    check_modular,
    has_d_cycle,
    verify_log_bound,
)
from conclose.closure import close
from conclose.core import ElemSet, parse_instance
from conclose.generators import (
    CnfFormula,
    gen_cnf_lower_bounded,
    gen_exponential,
    gen_fano,
    gen_poset_convexity,
    gen_projective_gf2,
    gen_random,
    gen_random_poset,
    gen_reduction,
)
from conclose.keys import (
    augment_with_inconsistency,
    caratheodory_number,
    enumerate_keys,
    minimal_generators,
)
from conclose.solver import brute_force_solve, solve

from conftest import DEMO_TEXT
from oracles import as_label_sets, labelset, naive_coatoms, naive_key_splitter, naive_keys


def criterion(num: int, label: str, budget: float | None = None):
    """Print one [PASS]/[FAIL] line per criterion, enforcing the time
    budget when one is stated."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {label}")
                raise
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                print(f"\n[FAIL] criterion {num}: {label} ({elapsed:.2f}s over the {budget:.0f}s budget)")
                raise AssertionError(f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.2f}s")
            print(f"\n[PASS] criterion {num}: {label} ({elapsed:.2f}s)")

        return run

    return wrap


# ---------------------------------------------------------------------------
# Shared instance streams. Criterion 8 replays the exact streams of
# criteria 1-4, so these are factored out and fully seeded.


def demo_instance():
    return parse_instance(DEMO_TEXT)


def random_instance_stream(count=500):
    rng = random.Random(0xC2)
    for _ in range(count):
        n = rng.randint(1, 8)
        max_premise = rng.randint(1, n)
        n_imps = rng.randint(0, 10)
        n_edges = rng.randint(0, min(6, n * (n - 1) // 2))
        yield gen_random(n, n_imps, max_premise, n_edges, seed=rng.randint(0, 10**9))


def reduction_stream(count=100):
    rng = random.Random(0xC3)
    for _ in range(count):
        n = rng.randint(1, 7)
        max_premise = rng.randint(1, n)
        n_imps = rng.randint(0, 8)
        base, _ = gen_random(n, n_imps, max_premise, 0, seed=rng.randint(0, 10**9))
        yield base, gen_reduction(base)


def blowup_instances():
    return [(n,) + gen_exponential(n) for n in range(1, 6)]


# ---------------------------------------------------------------------------


@criterion(1, "worked instance: exact solutions and exact keys", budget=1.0)
def test_worked_instance_exact_output():
    base, graph = demo_instance()
    assert as_label_sets(solve(base, graph).sets) == {
        frozenset({"1", "4", "5"}),
        frozenset({"1", "2", "3"}),
        frozenset({"3", "5"}),
    }
    keys = enumerate_keys(augment_with_inconsistency(base, graph))
    assert {labelset(k) for k in keys} == {
        frozenset({"1", "3", "5"}),
        frozenset({"3", "4"}),
        frozenset({"2", "4"}),
        frozenset({"2", "5"}),
    }


@criterion(2, "500 seeded random instances match brute force set-for-set", budget=60.0)
def test_random_instances_match_brute_force():
    checked = 0
    for base, graph in random_instance_stream():
        fast = solve(base, graph)
        slow = brute_force_solve(base, graph)
        assert fast.sets == slow.sets
        checked += 1
    assert checked == 500


@criterion(3, "planted-edge reduction: solutions are co-atoms plus one endpoint", budget=60.0)
def test_reduction_solutions_are_coatoms_plus_endpoint():
    checked = 0
    for base, (red, graph) in reduction_stream():
        expected = set()
        for coat in naive_coatoms(base):
            expected.add(coat | {"u"})
            expected.add(coat | {"v"})
        assert as_label_sets(solve(red, graph).sets) == expected
        checked += 1
    assert checked == 100


@criterion(4, "key blow-up family: every selector key present, counts match brute force", budget=10.0)
def test_blowup_keys_complete_and_counted():
    for n, base, graph in blowup_instances():
        augmented = augment_with_inconsistency(base, graph)
        keys = {labelset(k) for k in enumerate_keys(augmented)}
        selectors = {
            frozenset(choice)
            for choice in itertools.product(*[(f"x{i}", f"y{i}") for i in range(1, n + 1)])
        }
        assert selectors <= keys
        assert len(selectors) == 2**n
        assert len(keys) == 2**n + 1  # the selectors and the conflict edge itself
        assert keys == naive_keys(augmented)


@criterion(5, "poset convexity never needs generators above size 2; singleton-premise bases stay at 1")
def test_generator_size_bounds_by_family():
    rng = random.Random(0xC5)
    for _ in range(50):
        n = rng.randint(1, 8)
        poset = gen_random_poset(n, rng.randint(0, 10**9), density=rng.uniform(0.05, 0.7))
        assert caratheodory_number(gen_poset_convexity(poset)) <= 2
    for _ in range(20):
        n = rng.randint(1, 7)
        base, _ = gen_random(n, rng.randint(0, 8), 1, 0, seed=rng.randint(0, 10**9))
        assert caratheodory_number(base) == 1


@criterion(6, "conflict CNF family: no dependency cycles, one pinned down-arrow per variable")
def test_cnf_family_lower_bounded_with_pinned_arrows():
    rng = random.Random(0xC6)
    for _ in range(20):
        n_vars = rng.randint(3, 6)
        m = rng.randint(1, 5)
        clauses = tuple(tuple(sorted(rng.sample(range(1, n_vars + 1), 3))) for _ in range(m))
        base = gen_cnf_lower_bounded(CnfFormula(n_vars, clauses))
        cyclic, witness = has_d_cycle(base)
        assert not cyclic and witness is None
        ar = arrow_relations(base)
        g = base.ground
        full = (1 << g.n) - 1
        for i in range(1, n_vars + 1):
            xi = g.index(f"x{i}")
            hits = [idx for (x, idx) in ar.down if x == xi]
            assert len(hits) == 1
            assert ar.meet_irr[hits[0]][0].mask == full & ~(1 << xi)


@criterion(7, "projective plane suite: structure checks, size-3 bound, generator subset laws", budget=120.0)
def test_projective_plane_property_suite():
    for base in (gen_fano(), gen_projective_gf2(2)):
        assert check_atomistic(base).ok
        assert check_modular(base).ok
        assert check_biatomic(base).ok
        assert check_mingen_independence(base).ok
        assert caratheodory_number(base) == 3
        assert verify_log_bound(base) is True

        g = base.ground
        mingens = {
            x: {a.mask for a in minimal_generators(base, x)}
            for x in range(g.n)
        }
        closure_of = {}

        def cl(mask):
            if mask not in closure_of:
                closure_of[mask] = close(base, ElemSet(g, mask)).mask
            return closure_of[mask]

        for x in range(g.n):
            for gen in mingens[x]:
                # every nonempty subset of a minimal generator is again
                # a minimal generator of some element ...
                sub = gen
                while True:
                    owners = [y for y in range(g.n) if sub in mingens[y]]
                    assert owners, f"subset {sub:b} of a generator of {g.labels[x]} generates nothing minimally"
                    # ... and for at least one such element the subset is
                    # the unique smallest part of the generator reaching it
                    unique_for = []
                    for y in owners:
                        ybit = 1 << y
                        ok = True
                        s = gen
                        while True:
                            if cl(s) & ybit and sub & ~s:
                                ok = False
                                break
                            if s == 0:
                                break
                            s = (s - 1) & gen
                        if ok:
                            unique_for.append(y)
                    assert unique_for, f"subset {sub:b} is nowhere the unique minimum within {gen:b}"
                    if sub == 0:
                        break
                    sub = (sub - 1) & gen
                    if sub == 0:
                        break
                # dropping any one element of a multi-element generator
                # leaves a minimal generator of something else
                if gen.bit_count() >= 2:
                    rest = gen
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        shrunk = gen ^ bit
                        assert any(shrunk in mingens[y] for y in range(g.n))


@criterion(8, "every key seen while solving splits along a conflict edge into two endpoint generators")
def test_every_key_decomposes():
    decomposed = 0

    def check_instance(base, graph):
        nonlocal decomposed
        if not graph.edges:
            return
        augmented = augment_with_inconsistency(base, graph)
        split = naive_key_splitter(base, graph)
        for key in enumerate_keys(augmented):
            (u, v), gen_u, gen_v = split(labelset(key))
            assert (u, v) in graph.edge_labels()
            assert gen_u | gen_v == labelset(key)
            decomposed += 1

    base, graph = demo_instance()
    check_instance(base, graph)
    for base, graph in random_instance_stream():
        check_instance(base, graph)
    for _, (red, graph) in reduction_stream():
        check_instance(red, graph)
    for _, base, graph in blowup_instances():
        check_instance(base, graph)
    assert decomposed > 0
