"""Instance generators: construction shapes, validation, and the
structural guarantees each family advertises."""

import itertools
import random

import pytest

from conclose.analysis import check_standard, has_d_cycle
from conclose.core import (
    ConsistencyGraph,
    GroundSet,
    ImplicationalBase,
    format_instance,
    parse_instance,
)
from conclose.errors import InvalidParams, ParseError
from conclose.generators import (
    CnfFormula,
    Poset,
    gen_cnf_lower_bounded,
    gen_exponential,
    gen_fano,
    gen_poset_convexity,
    gen_projective_gf2,
    gen_random,
    gen_random_poset,
    gen_reduction,
    parse_dimacs_cnf,
)
from conclose.solver import brute_force_solve, solve

from oracles import labelset, naive_coatoms, naive_is_closed, rule_pairs


# ---------------------------------------------------------------------------
# gen_reduction


def test_reduction_single_rule_shape():
    base, _ = parse_instance("elements: a b\nimp: a -> b\n")
    red, graph = gen_reduction(base)
    assert red.ground.labels == ("a", "b", "u", "v")
    assert rule_pairs(red) == (
        (frozenset("a"), frozenset("b")),
        (frozenset("ab"), frozenset("uv")),
    )
    assert graph.edge_labels() == (("u", "v"),)


def test_reduction_renames_colliding_fresh_labels():
    base, _ = parse_instance("elements: u v w\nimp: u -> w\n")
    red, graph = gen_reduction(base)
    assert red.ground.labels == ("u", "v", "w", "u'", "v'")
    last = rule_pairs(red)[-1]
    assert last == (frozenset({"u", "v", "w"}), frozenset({"u'", "v'"}))
    assert graph.edge_labels() == (("u'", "v'"),)


def test_reduction_solutions_are_coatoms_plus_one_endpoint():
    rng = random.Random(420)
    for _ in range(30):
        n = rng.randint(2, 6)
        base, _ = gen_random(n, rng.randint(0, 7), rng.randint(1, min(3, n)), 0, rng.randint(0, 10**6))
        red, graph = gen_reduction(base)
        expected = set()
        for coat in naive_coatoms(base):
            expected.add(coat | {"u"})
            expected.add(coat | {"v"})
        got = {labelset(s) for s in solve(red, graph).sets}
        assert got == expected
        for sol in got:
            assert len(sol & {"u", "v"}) == 1


# ---------------------------------------------------------------------------
# CnfFormula and DIMACS parsing


def test_cnf_formula_validation():
    f = CnfFormula(4, ((3, 1, 2), (1, 2, 4)))
    assert f.clauses == ((1, 2, 3), (1, 2, 4))  # normalized sorted
    with pytest.raises(InvalidParams, match="distinct"):
        CnfFormula(3, ((1, 1, 2),))
    with pytest.raises(InvalidParams, match="out of range"):
        CnfFormula(3, ((1, 2, 4),))
    with pytest.raises(InvalidParams, match="non-negative"):
        CnfFormula(-1, ())


def test_parse_dimacs_good():
    text = "c a comment\np cnf 4 2\n1 2 3 0\n2 3 4 0\n"
    f = parse_dimacs_cnf(text)
    assert f.n_vars == 4
    assert f.clauses == ((1, 2, 3), (2, 3, 4))


@pytest.mark.parametrize(
    "text,msg",
    [
        ("1 2 3 0\n", "before 'p cnf'"),
        ("p cnf 3 1\n1 2 3\n", "end with 0"),
        ("p cnf 3 1\n1 -2 3 0\n", "positive"),
        ("p cnf 3 1\n1 2 0\n", "three distinct"),
        ("p cnf 3 2\n1 2 3 0\n", "announces 2 clauses"),
        ("p cnf x 1\n", "must be integers"),
        ("", "missing 'p cnf' header"),
        # A clause's own line, the header's line, and the second header's.
        ("c x\nc y\np cnf 2 1\n1 2 3 0\n", r"^line 4: clause \(1, 2, 3\) uses a variable out of range$"),
        ("c x\np cnf 3 2\n1 2 3 0\n", r"^line 2: header announces 2 clauses, found 1$"),
        ("p cnf 3 1\nc\np cnf 3 1\n1 2 3 0\n", r"^line 3: duplicate 'p cnf' header \(first was line 1\)$"),
    ],
)
def test_parse_dimacs_rejects(text, msg):
    with pytest.raises(ParseError, match=msg) as err:
        parse_dimacs_cnf(text)
    # The message starts with the error's .line, so a "^line N:" match pins it.
    assert str(err.value).startswith(f"line {err.value.line}: ")


# ---------------------------------------------------------------------------
# gen_cnf_lower_bounded


def test_cnf_base_single_clause_exact_rules():
    base = gen_cnf_lower_bounded(CnfFormula(3, ((1, 2, 3),)))
    assert base.ground.labels == ("x1", "x2", "x3", "y1", "z")
    pairs = set(rule_pairs(base))
    z = frozenset({"z"})
    assert pairs == {
        (frozenset({"x1", "x2"}), z),
        (frozenset({"x1", "x3"}), z),
        (frozenset({"x2", "x3"}), z),
        (frozenset({"y1"}), z),
        (frozenset({"x1", "z"}), frozenset({"y1"})),
        (frozenset({"x2", "z"}), frozenset({"y1"})),
        (frozenset({"x3", "z"}), frozenset({"y1"})),
    }


def test_cnf_base_no_clauses():
    base = gen_cnf_lower_bounded(CnfFormula(3, ()))
    assert base.ground.labels == ("x1", "x2", "x3", "z")
    assert len(base.rules) == 0


def test_cnf_base_is_standard_and_acyclic():
    base = gen_cnf_lower_bounded(CnfFormula(5, ((1, 2, 3), (2, 4, 5), (1, 3, 5))))
    assert check_standard(base).ok
    cyclic, _ = has_d_cycle(base)
    assert not cyclic


# ---------------------------------------------------------------------------
# gen_exponential


def test_exponential_shape():
    base, graph = gen_exponential(2)
    assert base.ground.labels == ("x1", "x2", "y1", "y2", "u", "v")
    assert rule_pairs(base) == (
        (frozenset({"x1"}), frozenset({"y1"})),
        (frozenset({"x2"}), frozenset({"y2"})),
        (frozenset({"y1", "y2"}), frozenset({"u", "v"})),
    )
    assert graph.edge_labels() == (("u", "v"),)


def test_exponential_rejects_zero():
    with pytest.raises(InvalidParams):
        gen_exponential(0)


# ---------------------------------------------------------------------------
# Poset and convexity bases


def test_poset_chain_orders_transitively():
    p = Poset.chain("abcd")
    g = p.ground
    assert p.less(g.index("a"), g.index("d"))
    assert p.less(g.index("b"), g.index("c"))
    assert not p.less(g.index("c"), g.index("b"))
    assert not p.less(g.index("a"), g.index("a"))


def test_poset_antichain_has_no_relations():
    p = Poset("xyz")
    for i in range(3):
        for j in range(3):
            assert not p.less(i, j)


def test_poset_rejects_two_cycles():
    with pytest.raises(InvalidParams, match="antisymmetry"):
        Poset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(InvalidParams, match="antisymmetry"):
        Poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])


def test_convexity_base_three_chain():
    base = gen_poset_convexity(Poset.chain("abc"))
    assert rule_pairs(base) == ((frozenset({"a", "c"}), frozenset({"b"})),)


def test_convexity_base_antichain_is_empty():
    base = gen_poset_convexity(Poset("abcd"))
    assert len(base.rules) == 0


def _is_convex(poset, members):
    g = poset.ground
    idx = {g.labels[i]: i for i in range(g.n)}
    for x in members:
        for z in members:
            for y in g.labels:
                if y in members:
                    continue
                if poset.less(idx[x], idx[y]) and poset.less(idx[y], idx[z]):
                    return False
    return True


def test_convexity_closed_sets_are_exactly_convex_sets():
    rng = random.Random(77)
    for _ in range(12):
        n = rng.randint(1, 6)
        poset = gen_random_poset(n, rng.randint(0, 10**6), density=rng.uniform(0.1, 0.6))
        base = gen_poset_convexity(poset)
        for r in range(n + 1):
            for combo in itertools.combinations(poset.ground.labels, r):
                s = frozenset(combo)
                assert naive_is_closed(base, s) == _is_convex(poset, s)


# ---------------------------------------------------------------------------
# Projective geometries over GF(2)


def test_fano_is_dim_two_geometry():
    fano = gen_fano()
    plane = gen_projective_gf2(2)
    assert fano.ground.labels == plane.ground.labels == tuple(str(i) for i in range(1, 8))
    assert rule_pairs(fano) == rule_pairs(plane)
    # 7 lines, 3 point pairs each
    assert len(fano.rules) == 21


def test_projective_dim_three_shape():
    base = gen_projective_gf2(3)
    assert base.ground.n == 15
    assert len(base.rules) == 15 * 14 // 2
    # spot check one collinearity rule: 3 ^ 5 = 6
    assert (frozenset({"3", "5"}), frozenset({"6"})) in rule_pairs(base)


def test_projective_rejects_other_dims():
    for dim in (0, 1, 4):
        with pytest.raises(InvalidParams):
            gen_projective_gf2(dim)


# ---------------------------------------------------------------------------
# gen_random


def test_random_is_deterministic_per_seed():
    a = gen_random(8, 10, 3, 4, seed=123)
    b = gen_random(8, 10, 3, 4, seed=123)
    c = gen_random(8, 10, 3, 4, seed=124)
    assert format_instance(a[0], a[1]) == format_instance(b[0], b[1])
    assert format_instance(a[0], a[1]) != format_instance(c[0], c[1])


def test_random_output_validates_cleanly():
    base, graph = gen_random(8, 10, 3, 4, seed=5)
    assert base.ground == graph.ground
    assert base.ground.n == 8


def test_random_conclusions_always_add_something():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 8)
        base, graph = gen_random(
            n,
            rng.randint(0, 10),
            rng.randint(1, n),
            rng.randint(0, n * (n - 1) // 2),
            seed=rng.randint(0, 10**6),
        )
        for prem, conc in rule_pairs(base):
            assert not conc <= prem
        assert len(base.ground.labels) == n


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, n_imps=1, max_premise=1, n_edges=0, seed=1),
        dict(n=3, n_imps=1, max_premise=0, n_edges=0, seed=1),
        dict(n=3, n_imps=1, max_premise=4, n_edges=0, seed=1),
        dict(n=3, n_imps=-1, max_premise=1, n_edges=0, seed=1),
        dict(n=3, n_imps=1, max_premise=1, n_edges=4, seed=1),
    ],
)
def test_random_rejects_bad_params(kwargs):
    with pytest.raises(InvalidParams):
        gen_random(**kwargs)


def test_random_returns_every_distinct_rule_when_asked_for_more():
    # One-element premises over 3 elements allow 3 * (2 + 3) = 15 rules.
    base, _ = gen_random(3, 10**8, 1, 0, 0)
    assert len(base.rules) == 15
    assert len(set(rule_pairs(base))) == 15


def test_random_agrees_with_brute_force_quickly():
    base, graph = gen_random(6, 6, 2, 3, seed=31)
    assert solve(base, graph).sets == brute_force_solve(base, graph).sets


# ---------------------------------------------------------------------------
# Every family reads back from its text as the same mask-pair base

FAMILIES = {
    "random": lambda: gen_random(12, 20, 3, 6, seed=4),
    "exponential": lambda: gen_exponential(4),
    "poset_convexity": lambda: (gen_poset_convexity(gen_random_poset(12, 3)), None),
    "gf2_dim2": lambda: (gen_projective_gf2(2), None),
    "gf2_dim3": lambda: (gen_projective_gf2(3), None),
    "fano": lambda: (gen_fano(), None),
    "cnf_reduction": lambda: gen_reduction(
        gen_cnf_lower_bounded(CnfFormula(5, ((1, 2, 3), (2, 4, 5), (1, 3, 5))))
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_parsed_text_matches_the_generated_base(family):
    base, graph = FAMILIES[family]()
    parsed, parsed_graph = parse_instance(format_instance(base, graph))
    assert parsed.rules == base.rules
    assert all(isinstance(m, int) for rule in parsed.rules for m in rule)
    assert parsed == base and hash(parsed) == hash(base)
    assert ImplicationalBase(base.ground, base.rules) == base
    if graph is not None:
        assert parsed_graph == graph
