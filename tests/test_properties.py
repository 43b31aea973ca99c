"""Hypothesis property tests: the packed subset index against the naive
scan it replaces, the compiled closure against a plain fixpoint, the key
and solve pipelines against their brute-force twins on random bases, the
solve oracle against the naive closed-set family, key
minimization with and without its certificate against a greedy oracle, the
co-atoms against the closed-set family, the keys and solutions past
the exhaustive limit against the Lucchesi-Osborn certificate and the
Fredman-Khachiyan duality test, the dualizer
against a subset scan, the closed-set family and the structure queries (minimal
generators, meet-irreducibles, distributivity, modularity,
independence, biatomicity, d-cycles) against their definitions, and the
text format round trip."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conclose import (
    EXHAUSTIVE_LIMIT,
    ConsistencyGraph,
    ElemSet,
    GroundSet,
    ImplicationalBase,
    augment_with_inconsistency,
    brute_force_solve,
    caratheodory_number,
    check_biatomic,
    check_distributive,
    check_modular,
    check_standard,
    close,
    co_atoms,
    d_relation,
    enumerate_closed_sets,
    enumerate_keys,
    format_instance,
    gen_exponential,
    gen_poset_convexity,
    gen_random,
    gen_random_poset,
    has_d_cycle,
    maximal_independent_sets,
    meet_irreducibles,
    minimal_generators,
    parse_instance,
    solve,
)
from conclose.analysis import _check_independent
from conclose.closure import _chainer
from conclose.core import SubsetIndex, minimal
from conclose.errors import OutputLimitExceeded
from conclose.keys import _minimize_mask
from oracles import (
    brute_keys,
    certifies_keys,
    certifies_solutions,
    greedy_minimize,
    labelset,
    maximal_only,
    naive_atoms,
    naive_biatomic,
    naive_close,
    naive_consistent,
    naive_d_arcs,
    naive_distributive,
    naive_family,
    naive_has_cycle,
    naive_independent,
    naive_is_closed,
    naive_meet_irreducibles,
    naive_mis_masks,
    naive_modular,
)

PROPERTY = settings(derandomize=True, deadline=None, database=None)
# The brute-force twins scan all 2^n subsets, so fewer, larger instances.
PIPELINE = settings(PROPERTY, max_examples=100)

# The rule "-> everything" closes the empty set to the full set, so the
# empty set is the one key, at the edge of every key and dualization path.
EVERYTHING = parse_instance("elements: a b c\nimp: -> a b c\nedge: a b\n")


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
@given(families())
def test_subset_index_matches_naive_scan(family):
    n, stored, queries = family
    index = SubsetIndex(n)
    for m in stored:
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
    empty = SubsetIndex(0)
    empty.add(0)
    assert empty.has_subset_of(0)
    one = SubsetIndex(1)
    one.add(1)
    assert one.has_subset_of(1) and not one.has_subset_of(0)
    one.add(0)
    assert one.has_subset_of(0)
    assert minimal(0, [0, 0]) == [0]
    assert minimal(3, []) == []
    assert minimal(3, [7, 7, 5, 0b100]) == [0b100]


def _mask(indices):
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


@st.composite
def instances(draw, max_n=16):
    """A random base with conflict edges over at most ``max_n`` elements."""
    n = draw(st.integers(2, max_n))
    g = GroundSet(str(i) for i in range(n))
    element = st.integers(0, n - 1)
    rule = st.tuples(
        st.lists(element, min_size=1, max_size=3), st.lists(element, min_size=1, max_size=2)
    )
    # At least n rules keep the closed-set family, which the oracle
    # walks, small at n=16.
    rules = draw(st.lists(rule, min_size=n, max_size=2 * n))
    masks = [
        (_mask(p), _mask(c))
        for p, c in rules
        if not set(c) <= set(p)
    ]
    pairs = draw(st.lists(st.tuples(element, element), min_size=1, max_size=n))
    graph = ConsistencyGraph(g, pairs)
    # Self-loop pairs are dropped; keep at least one real edge.
    if not graph.edges:
        graph = ConsistencyGraph(g, [(0, 1)])
    return ImplicationalBase(g, masks), graph


@PIPELINE
@example(EVERYTHING)
@given(instances())
def test_enumerate_keys_matches_brute_force(instance):
    base, graph = instance
    for b in (base, augment_with_inconsistency(base, graph)):
        assert [k.mask for k in enumerate_keys(b)] == brute_keys(b)


@PIPELINE
@example(EVERYTHING)
@given(instances())
def test_solve_matches_brute_force(instance):
    base, graph = instance
    assert solve(base, graph).sets == brute_force_solve(base, graph).sets


@PIPELINE
@example(EVERYTHING)
@example(parse_instance("elements: a b c\nimp: -> a b\nedge: a b\n"))  # cl(∅) holds the edge
@example(parse_instance("elements: a b c d\nimp: c -> a b\nedge: a b\n"))  # c forces both ends
@example(parse_instance("elements: a b c\nimp: a -> b\n"))  # no edge: the full set
@given(instances(max_n=10))
def test_brute_force_solve_matches_maximal_consistent_closed_sets(instance):
    # The oracle prunes its closed-set walk at the first edge and keeps
    # maximal sets through a SubsetIndex; check it against the naive
    # family filtered by the definition.
    base, graph = instance
    g = base.ground
    consistent = [s for s in naive_family(base) if naive_consistent(graph, s)]
    expected = sorted(g.set_of(*s).mask for s in maximal_only(consistent))
    assert [s.mask for s in brute_force_solve(base, graph).sets] == expected


@PIPELINE
@example(EVERYTHING)
@given(instances())
def test_co_atoms_match_maximal_proper_closed_sets(instance):
    base, _ = instance
    full = base.ground.full_mask
    proper = [s.mask for s in enumerate_closed_sets(base) if s.mask != full]
    # Largest first, as in the solve oracle: a non-maximal set lies in a
    # strictly larger maximal one that is already kept.
    maximal: list[int] = []
    for m in sorted(proper, key=int.bit_count, reverse=True):
        if not any(m & ~o == 0 for o in maximal):
            maximal.append(m)
    assert [s.mask for s in co_atoms(base)] == sorted(maximal)


@st.composite
def edge_lists(draw):
    """A ground size n <= 10 and an edge list with repeats, edges that
    contain other edges, sometimes the empty edge, sometimes no edge."""
    n = draw(st.integers(0, 10))
    mask = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(mask, max_size=4))
    edges = draw(st.lists(st.sampled_from(pool) | mask if pool else mask, max_size=10))
    edges += [e | draw(mask) for e in edges[: draw(st.integers(0, len(edges)))]]
    if draw(st.integers(0, 4)) == 0:
        edges.append(0)
    return n, edges


def key_edges(instance):
    """The key hypergraph that solve dualizes: keys of the augmented base."""
    base, graph = instance
    keys = enumerate_keys(augment_with_inconsistency(base, graph))
    return base.ground.n, [k.mask for k in keys]


@PIPELINE
@example((3, []), 0)
@example((2, [0, 1]), 0)
@example((3, [0b001, 0b011, 0b110, 0b001, 0b111]), 0)
@example(key_edges(EVERYTHING), 0)
@given(st.one_of(edge_lists(), instances(max_n=10).map(key_edges)), st.integers(0, 1 << 10))
def test_dualization_matches_subset_scan(hypergraph, pick):
    n, edges = hypergraph
    # Nested, repeated and empty edges go to the dualizer as drawn.
    bits = [1 << v for v in range(n)]

    # Hitting every edge is upward closed: a transversal is minimal iff
    # dropping any one element breaks it.
    def hits(t):
        return all(t & e for e in edges)

    trans = [t for t in range(1 << n) if hits(t) and not any(hits(t ^ b) for b in bits if t & b)]

    # Containing no edge is downward closed: an independent set is
    # maximal iff adding any one element breaks it.
    def free(s):
        return not any(e & ~s == 0 for e in edges)

    mis = [s for s in range(1 << n) if free(s) and not any(free(s | b) for b in bits if not s & b)]
    full = (1 << n) - 1
    assert sorted(full ^ m for m in maximal_independent_sets(n, edges, len(trans))) == trans
    assert maximal_independent_sets(n, edges) == mis
    if trans:
        # The cap counts finished transversals of the whole hypergraph.
        cap = pick % len(trans)
        with pytest.raises(OutputLimitExceeded) as err:
            maximal_independent_sets(n, edges, cap=cap)
        partial = err.value.partial
        assert len(partial) == cap + 1 and set(partial) <= set(mis)


@PROPERTY
@example((4, [0]))  # an empty edge: nothing hits it
@example((4, [0b0001, 0b0100]))  # only singleton edges
@example((4, [0b0010, 0b0110, 0b1100]))  # a singleton nested in a larger edge
@example((4, [0b0011, 0b0011, 0b1000, 0b1000]))  # repeated edges
@example((4, []))  # no edges: the full set is the one answer
@given(st.one_of(edge_lists(), instances(max_n=10).map(key_edges)))
def test_mask_dualizer_matches_mis_oracle(hypergraph):
    n, edges = hypergraph
    assert maximal_independent_sets(n, edges) == naive_mis_masks(n, edges)


@st.composite
def shared_premise_instances(draw, max_n=12):
    """A random base whose premises come from a small pool that always
    holds the empty premise, so merged and empty premises are common."""
    n = draw(st.integers(1, max_n))
    g = GroundSet(str(i) for i in range(n))
    full = (1 << n) - 1
    pool = draw(st.lists(st.integers(0, full), min_size=1, max_size=4)) + [0]
    rules = draw(
        st.lists(st.tuples(st.sampled_from(pool), st.integers(1, full)), max_size=3 * n)
    )
    element = st.integers(0, n - 1)
    graph = ConsistencyGraph(g, draw(st.lists(st.tuples(element, element), max_size=n)))
    return ImplicationalBase(g, rules), graph


def fixpoint_closure(base, mask):
    """Apply every rule whose premise holds until nothing changes."""
    while True:
        grown = mask
        for p, c in base.rules:
            if p & ~grown == 0:
                grown |= c
        if grown == mask:
            return mask
        mask = grown


@PROPERTY
@given(shared_premise_instances(), st.data())
def test_close_matches_fixpoint(instance, data):
    base, _ = instance
    g = base.ground
    queries = data.draw(st.lists(st.integers(0, g.full_mask), max_size=8)) + [0, g.full_mask]
    for m in queries:
        assert close(base, ElemSet(g, m)).mask == fixpoint_closure(base, m)


@PIPELINE
@example(EVERYTHING)
@given(shared_premise_instances())
def test_enumerate_keys_matches_brute_force_on_shared_premises(instance):
    base, graph = instance
    bases = [base]
    if graph.edges:
        bases.append(augment_with_inconsistency(base, graph))
    for b in bases:
        assert [k.mask for k in enumerate_keys(b)] == brute_keys(b)


@st.composite
def wide_instances(draw):
    """A random or poset-convexity instance over 25-40 elements, past the
    exhaustive limit, so no brute-force twin can check it."""
    n = draw(st.integers(EXHAUSTIVE_LIMIT + 5, 40))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        imps = draw(st.integers(n, 2 * n))
        max_premise = draw(st.integers(1, 4))
        edges = draw(st.integers(1, n))
        return gen_random(n, imps, max_premise, edges, seed)
    # Denser posets have thousands of convexity rules; the certificate
    # reads every one per key, so the density stays at or below the
    # benchmark's 0.3.
    base = gen_poset_convexity(gen_random_poset(n, seed, draw(st.sampled_from([0.1, 0.2, 0.3]))))
    element = st.integers(0, n - 1)
    edge = st.tuples(element, element).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(edge, min_size=1, max_size=8))
    return base, ConsistencyGraph(base.ground, pairs)


def wide_augmented_bases():
    return wide_instances().map(lambda instance: augment_with_inconsistency(*instance))


def _augmented(text):
    return augment_with_inconsistency(*parse_instance(text))


@settings(PROPERTY, max_examples=20)
@example(augment_with_inconsistency(*EVERYTHING))  # close(∅) is the full set: the empty key
@example(parse_instance("elements: a b c\nimp: a -> b c\nimp: b -> c\nimp: c -> a\n")[0])  # singleton keys
@example(_augmented("elements: a b c d e\nimp: a -> b\nimp: c -> d\nedge: b d\n"))  # size-1 premises
@example(_augmented("elements: a b c d\nimp: a -> b\nimp: b -> c\nimp: d -> a\nedge: c d\n"))  # a chain
@given(wide_augmented_bases())
def test_enumerate_keys_certified_past_the_exhaustive_limit(base):
    assert certifies_keys(base, [k.mask for k in enumerate_keys(base)])


def _convexity(n, seed, pairs):
    base = gen_poset_convexity(gen_random_poset(n, seed))
    return base, ConsistencyGraph(base.ground, pairs)


MUTATED = {
    "random40": lambda: gen_random(40, 80, 3, 20, 1),
    "premises1": lambda: parse_instance("elements: a b c d e\nimp: a -> b\nimp: c -> d\nedge: b d\n"),
    "convexity25": lambda: _convexity(25, 0, [(0, 9), (3, 17), (12, 20)]),
}


@pytest.mark.parametrize("drop", ["first", "middle", "last"])
@pytest.mark.parametrize("name", MUTATED)
def test_certificate_rejects_a_family_missing_one_key(name, drop):
    # The fixed point of the certificate needs every key: with one gone,
    # some rewrite of the rest holds none of them.
    base = augment_with_inconsistency(*MUTATED[name]())
    keys = [k.mask for k in enumerate_keys(base)]
    assert len(keys) >= 3 and certifies_keys(base, keys)
    del keys[{"first": 0, "middle": len(keys) // 2, "last": -1}[drop]]
    assert not certifies_keys(base, keys)


def _certified_solve(base, graph):
    # solve's keys and solutions, each checked by its certificate: with
    # the keys exact, the solutions are the maximal consistent closed sets.
    augmented = augment_with_inconsistency(base, graph)
    keys = [k.mask for k in enumerate_keys(augmented)]
    solutions = [s.mask for s in solve(base, graph).sets]
    assert certifies_keys(augmented, keys)
    assert certifies_solutions(base.ground.n, keys, solutions) is None
    return keys, solutions


@settings(PROPERTY, max_examples=20)
@example(EVERYTHING)  # the empty key: no solution at all
@example(parse_instance("elements: a b c\nimp: -> a\nedge: b c\n"))  # close(∅) is not empty
@example(parse_instance("elements: a b c d e\nimp: a -> b\nimp: c -> d\nedge: b d\n"))
@example(gen_random(40, 55, 3, 18, 0))  # 544 solutions
@given(wide_instances())
def test_solve_certified_past_the_exhaustive_limit(instance):
    _certified_solve(*instance)


@pytest.mark.parametrize("change", ["drop first", "drop middle", "drop last", "add non-maximal"])
@pytest.mark.parametrize("name", ["random40", "convexity25"])
def test_solution_certificate_rejects_a_changed_family(name, change):
    # The meet of two solutions is closed and consistent but not maximal,
    # which only the antichain check sees.
    base, graph = MUTATED[name]()
    keys, solutions = _certified_solve(base, graph)
    n = base.ground.n
    assert len(solutions) >= 3
    if change == "add non-maximal":
        meet = solutions[0] & solutions[1]
        assert close(base, ElemSet(base.ground, meet)).mask == meet
        assert certifies_solutions(n, keys, [*solutions, meet]) == meet
        return
    dropped = solutions.pop({"drop first": 0, "drop middle": len(solutions) // 2, "drop last": -1}[change])
    witness = certifies_solutions(n, keys, solutions)
    # Every solution left is genuine, so the witness holds no key and lies
    # in the dropped solution only.
    assert witness is not None and witness & ~dropped == 0
    assert not any(k & ~witness == 0 for k in keys)
    assert not any(witness & ~s == 0 for s in solutions)


@PIPELINE
@example(EVERYTHING, [0, 0b010, 0b111])
@example(gen_exponential(4), [1, 0b1100110011, 0, 2**40 - 1])
@given(
    st.one_of(instances(), shared_premise_instances()),
    st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=6),
)
def test_certified_minimization_matches_greedy_oracle(instance, draws):
    # Each draw d picks key d mod #keys and adds the elements of d to it.
    # Every superkey is minimized under an empty certificate, then the
    # full set fills one, then every superkey is minimized again under it.
    base, graph = instance
    bases = [base]
    if graph.edges:
        bases.append(augment_with_inconsistency(base, graph))
    for b in bases:
        g = b.ground
        full = g.full_mask
        ch = _chainer(b)
        keys = brute_keys(b)
        superkeys = [keys[d % len(keys)] | (d & full) for d in draws]
        expected = {
            s: greedy_minimize(b, ElemSet(g, s).labels()) for s in {*superkeys, full}
        }

        def minimized(s, proper):
            return labelset(ElemSet(g, _minimize_mask(ch, full, s, proper)))

        for s in superkeys:
            assert minimized(s, SubsetIndex(g.n)) == expected[s]
        proper = SubsetIndex(g.n)
        assert minimized(full, proper) == expected[full]
        # One proper closed set per element the first key keeps, none after.
        assert proper.count == len(expected[full])
        for s in superkeys:
            assert minimized(s, proper) == expected[s]
        assert proper.count == len(expected[full])


# Structure queries at n <= 10: both strategies, since only the shared
# premise one has empty premises, which put elements into close(∅).
STRUCTURE = st.one_of(instances(max_n=10), shared_premise_instances(max_n=10))


@PIPELINE
@example(EVERYTHING)
@example(parse_instance("elements: a b c d e\n"))
@given(STRUCTURE)
def test_closed_set_family_matches_subset_scan(instance):
    # EVERYTHING has the full set as its only closed set; a rule-free
    # base has all 2^n subsets closed.
    base, _ = instance
    g = base.ground
    scan = tuple(ElemSet(g, m) for m in range(1 << g.n) if fixpoint_closure(base, m) == m)
    assert enumerate_closed_sets(base) == scan


@PIPELINE
@example(EVERYTHING)
@given(STRUCTURE)
def test_minimal_generators_match_subset_scan(instance):
    base, _ = instance
    n = base.ground.n
    closures = [fixpoint_closure(base, m) for m in range(1 << n)]
    by_size = sorted(range(1, 1 << n), key=int.bit_count)
    largest = 1
    for x in range(n):
        found: list[int] = []
        for m in by_size:
            if closures[m] >> x & 1 and not any(f & ~m == 0 for f in found):
                found.append(m)
        assert [a.mask for a in minimal_generators(base, x)] == sorted(found)
        largest = max([largest] + [m.bit_count() for m in found])
    assert caratheodory_number(base) == largest


@PIPELINE
@example(EVERYTHING)
@given(STRUCTURE)
def test_meet_irreducibles_match_oracle(instance):
    base, _ = instance
    got = meet_irreducibles(base)
    assert [m.mask for m, _ in got] == sorted(m.mask for m, _ in got)
    pairs = {(labelset(m), labelset(c)) for m, c in got}
    assert len(pairs) == len(got)
    assert pairs == set(naive_meet_irreducibles(base))


@PIPELINE
@example(EVERYTHING)
@given(STRUCTURE)
def test_check_distributive_matches_oracle(instance):
    base, _ = instance
    res = check_distributive(base)
    assert res.ok == naive_distributive(base)
    if not res.ok:
        a, b = res.witness
        assert naive_is_closed(base, labelset(a)) and naive_is_closed(base, labelset(b))
        assert not naive_is_closed(base, labelset(a) | labelset(b))


# The modular and independence oracles compare every triple of closed
# sets and every pair of subsets, so n <= 6.
SMALL_STRUCTURE = st.one_of(instances(max_n=6), shared_premise_instances(max_n=6))
RULE_FREE = parse_instance("elements: a b c d e\n")


# The flats of the uniform rank-3 matroid on four points: every upper
# cover pair joins to a common cover, but the lines {a b} and {c d}
# are covered by the full set and meet in the empty set, which neither
# covers, so only the lower semimodular half of the check sees it.
UNIFORM_3_4 = parse_instance(
    "elements: a b c d\nimp: a b c -> d\nimp: a b d -> c\nimp: a c d -> b\nimp: b c d -> a\n"
)


@PIPELINE
@example(EVERYTHING)
@example(RULE_FREE)
@example(UNIFORM_3_4)
@given(SMALL_STRUCTURE)
def test_check_modular_matches_oracle(instance):
    base, _ = instance
    res = check_modular(base)
    assert res.ok == naive_modular(base)
    if not res.ok:
        f1, f2, f3 = (s.mask for s in res.witness)
        assert f1 & ~f2 == 0
        assert all(fixpoint_closure(base, f) == f for f in (f1, f2, f3))
        lhs = fixpoint_closure(base, f1 | (f2 & f3))
        assert lhs != fixpoint_closure(base, f1 | f3) & f2


# In the two bases below, the only failing Y misses an element above
# its lowest missing one, and in the first Y also holds an element
# below it: cl({a b}) ∩ cl({a c}) is {a d}, not cl({a}); then
# cl({a c}) ∩ cl({c d}) is {b c}, not cl({c}).
@PIPELINE
@example(EVERYTHING, 0b111)
@example(RULE_FREE, 0b11111)
@example(parse_instance("elements: a b c d\nimp: a b -> d\nimp: a c -> d\n"), 0b0111)
@example(parse_instance("elements: a b c d\nimp: c d -> b\nimp: a c -> b\n"), 0b1101)
@given(SMALL_STRUCTURE, st.integers(0, (1 << 6) - 1))
def test_check_independent_matches_oracle(instance, pick):
    base, _ = instance
    subset = ElemSet(base.ground, pick & base.ground.full_mask)
    res = _check_independent(base, subset.mask, None)
    assert res.ok == naive_independent(base, subset.labels())
    if not res.ok:
        y1, y2 = (s.mask for s in res.witness)
        assert (y1 | y2) & ~subset.mask == 0
        meet = fixpoint_closure(base, y1) & fixpoint_closure(base, y2)
        assert fixpoint_closure(base, y1 & y2) != meet


@st.composite
def sparse_bases(draw, max_n=7):
    """A gen_random base over 5 to ``max_n`` elements with n/2 to n rules.

    Few rules leave a large closed-set family, so about half of these
    bases are not biatomic and about a third are standard with a
    d-cycle; the dense strategies above rarely give either. The rules
    come from a drawn seed.
    """
    n = draw(st.integers(5, max_n))
    return gen_random(n, draw(st.integers(n // 2, n)), 3, 0, draw(st.integers(0, 2**32 - 1)))


# The biatomicity oracle joins every pair of closed sets, so n <= 7.
# In the first base below, {a b c} is a minimal generator of u, and of
# its splits only {a} with {b c} fails: cl({a c}) holds y and y b -> u,
# cl({a b}) holds z and z c -> u. The second adds z to close(∅); the
# third has the non-singleton atom {a b}, which c, d, e force only
# together.
@PIPELINE
@example(EVERYTHING)
@example(
    parse_instance(
        "elements: a b c y z u\nimp: a c -> y\nimp: y b -> u\nimp: a b -> z\nimp: z c -> u\n"
    )
)
@example(parse_instance("elements: z a b c u\nimp: -> z\nimp: a b c -> u\n"))
@example(parse_instance("elements: a b c d e\nimp: a -> b\nimp: b -> a\nimp: c d e -> a\n"))
@given(st.one_of(instances(max_n=7), shared_premise_instances(max_n=7), sparse_bases()))
def test_check_biatomic_matches_oracle(instance):
    base, _ = instance
    res = check_biatomic(base)
    assert res.ok == naive_biatomic(base)
    if not res.ok:
        f1, f2, atom = (labelset(s) for s in res.witness)
        assert naive_is_closed(base, f1) and naive_is_closed(base, f2)
        atoms = naive_atoms(base)
        assert atom in atoms
        assert atom <= naive_close(base, f1 | f2)
        assert not atom <= f1 and not atom <= f2
        below1 = [a for a in atoms if a <= f1]
        below2 = [a for a in atoms if a <= f2]
        assert not any(atom <= naive_close(base, a1 | a2) for a1 in below1 for a2 in below2)


MUTUAL = parse_instance("elements: x y z\nimp: x z -> y\nimp: y z -> x\n")


@PIPELINE
@example(MUTUAL)
@given(
    st.one_of(instances(max_n=7), sparse_bases()).filter(
        lambda instance: check_standard(instance[0]).ok
    )
)
def test_has_d_cycle_matches_oracle(instance):
    base, _ = instance
    g = base.ground
    arcs = d_relation(base).arcs
    naive_arcs = naive_d_arcs(base)
    assert {(g.labels[x], g.labels[y]) for x, y in arcs} == naive_arcs
    cyclic, cycle = has_d_cycle(base)
    assert cyclic == naive_has_cycle(naive_arcs)
    assert cyclic == (cycle is not None)
    if cycle:
        assert cycle[0] == min(cycle) and len(set(cycle)) == len(cycle)
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            assert (x, y) in arcs


# Non-empty, whitespace-free text, often near the format's own tokens;
# GroundSet is the judge of the rest.
LABEL = st.sampled_from(["->", "#", "a#b", "a,b", "-", ">", "imp:", "edge:", "elements:"]) | st.text(
    min_size=1, max_size=3
).filter(lambda s: s.split() == [s])


@PROPERTY
@given(st.lists(LABEL, min_size=1, max_size=6, unique=True), st.data())
def test_format_parse_round_trip(labels, data):
    try:
        g = GroundSet(labels)
    except ValueError:
        bad = [lab for lab in labels if "#" in lab or "," in lab or lab == "->"]
        assert bad
        return
    element = st.integers(0, g.n - 1)
    mask = st.integers(0, g.full_mask)
    rules = data.draw(st.lists(st.tuples(mask, mask.filter(bool)), max_size=6))
    base = ImplicationalBase(g, rules)
    graph = ConsistencyGraph(g, data.draw(st.lists(st.tuples(element, element), max_size=6)))
    assert parse_instance(format_instance(base, graph)) == (base, graph)
