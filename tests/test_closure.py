import random

import pytest

from conclose import (
    ElemSet,
    GroundSetTooLarge,
    MismatchedGroundSets,
    NotClosed,
    caratheodory_number,
    check_independent,
    close,
    co_atoms,
    covers,
    enumerate_closed_sets,
    gen_exponential,
    gen_poset_convexity,
    gen_random,
    gen_random_poset,
    meet_irreducibles,
    minimal_generators,
    parse_instance,
)
from conftest import DEMO_TEXT
from oracles import (
    as_label_sets,
    labelset,
    naive_caratheodory,
    naive_close,
    naive_coatoms,
    naive_covers,
    naive_family,
    naive_is_closed,
    naive_meet_irreducibles,
    naive_mingens,
)


def simple(text):
    return parse_instance(text)[0]


# ---------------------------------------------------------------------------
# close and closedness


def test_close_demo_values(demo_base):
    g = demo_base.ground
    assert close(demo_base, g.set_of("1", "3", "5")) == g.set_of("1", "2", "3", "5")
    assert close(demo_base, g.set_of("4")) == g.set_of("1", "4")
    assert close(demo_base, g.empty()) == g.empty()
    assert close(demo_base, g.full()) == g.full()


def test_close_identity_under_empty_base():
    base = simple("elements: a b c\n")
    g = base.ground
    for mask in range(8):
        s = ElemSet(g, mask)
        assert close(base, s) == s


def test_is_closed_demo(demo_base):
    g = demo_base.ground
    cases = ((g.set_of("1", "4", "5"), True), (g.set_of("1", "3"), False), (g.full(), True))
    for s, closed in cases:
        assert (close(demo_base, s) == s) == closed
        assert naive_is_closed(demo_base, labelset(s)) == closed


def test_close_and_is_closed_reject_a_foreign_set(demo_base):
    larger = simple("elements: 1 2 3 4 5 6\n").ground.full()
    relabelled = simple("elements: a b c d e\n").ground.set_of("a", "b")
    for fn in (close, covers, check_independent):
        for other in (larger, relabelled):
            with pytest.raises(MismatchedGroundSets):
                fn(demo_base, other)


def test_close_operator_laws_random():
    # extensive, isotone, idempotent, and equal to the rescanning oracle
    rng = random.Random(7)
    from conclose import ElemSet

    for seed in range(25):
        n = rng.randint(1, 7)
        base, _ = gen_random(
            n=n,
            n_imps=rng.randint(0, 8),
            max_premise=rng.randint(1, min(3, n)),
            n_edges=0,
            seed=seed,
        )
        g = base.ground
        for _ in range(20):
            y = ElemSet(g, rng.randrange(1 << g.n))
            z = ElemSet(g, y.mask | rng.randrange(1 << g.n))
            cy = close(base, y)
            assert y <= cy
            assert cy <= close(base, z)
            assert close(base, cy) == cy
            assert labelset(cy) == naive_close(base, y.labels())


# ---------------------------------------------------------------------------
# enumerate_closed_sets


def test_family_of_empty_base_is_powerset():
    base = simple("elements: a b\n")
    fam = enumerate_closed_sets(base)
    assert len(fam) == 4


def test_family_of_single_rule():
    base = simple("elements: a b\nimp: a -> b\n")
    assert as_label_sets(enumerate_closed_sets(base)) == {
        frozenset(),
        frozenset({"b"}),
        frozenset({"a", "b"}),
    }


def test_demo_family_matches_oracle(demo_base):
    fam = enumerate_closed_sets(demo_base)
    assert as_label_sets(fam) == set(naive_family(demo_base))
    assert len(fam) == 14


def test_family_is_lectic_and_lattice_shaped(demo_base):
    fam = list(enumerate_closed_sets(demo_base))
    masks = [s.mask for s in fam]
    assert masks == sorted(masks)
    assert demo_base.ground.full() in fam
    family = set(masks)
    for a in masks:
        for b in masks:
            assert a & b in family


def test_family_respects_limit():
    base = simple("elements: " + " ".join(f"e{i}" for i in range(21)) + "\n")
    with pytest.raises(GroundSetTooLarge, match="exhaustive limit of 20"):
        enumerate_closed_sets(base)


def test_family_grows_children_without_closing_from_scratch(monkeypatch, demo_base):
    # Close-by-One carries each parent's closure counters into its
    # children, so listing the family makes no from-scratch closure.
    from conclose import closure as closure_module

    calls = []
    close_mask = closure_module._Chainer.close

    def counting_close(ch, mask):
        calls.append(mask)
        return close_mask(ch, mask)

    monkeypatch.setattr(closure_module._Chainer, "close", counting_close)
    assert len(enumerate_closed_sets(demo_base)) == 14
    assert len(enumerate_closed_sets(gen_random(18, 24, 3, 5, 4)[0])) == 7511
    assert calls == []


def test_family_contains_and_serialize():
    base = simple("elements: a b\nimp: a -> b\n")
    fam = enumerate_closed_sets(base)
    g = base.ground
    assert g.set_of("b") in fam
    assert g.set_of("a") not in fam
    assert [s.to_text() for s in fam] == ["", "b", "a b"]


# ---------------------------------------------------------------------------
# covers


def test_covers_of_bottom_in_powerset():
    base = simple("elements: a b\n")
    assert as_label_sets(covers(base, base.ground.empty())) == {
        frozenset({"a"}),
        frozenset({"b"}),
    }


def test_covers_demo(demo_base):
    g = demo_base.ground
    assert as_label_sets(covers(demo_base, g.set_of("3", "5"))) == {
        frozenset({"1", "2", "3", "5"})
    }
    assert covers(demo_base, g.full()) == []


def test_covers_rejects_non_closed(demo_base):
    with pytest.raises(NotClosed):
        covers(demo_base, demo_base.ground.set_of("1", "3"))


def test_covers_match_oracle_on_randoms():
    rng = random.Random(11)
    for seed in range(10):
        base, _ = gen_random(n=6, n_imps=rng.randint(0, 7), max_premise=2, n_edges=0, seed=seed)
        for f in enumerate_closed_sets(base):
            assert as_label_sets(covers(base, f)) == naive_covers(base, f.labels())


# ---------------------------------------------------------------------------
# meet_irreducibles


def test_meet_irreducibles_of_chain():
    base = simple("elements: a b\nimp: a -> b\n")
    got = [(labelset(m), labelset(s)) for m, s in meet_irreducibles(base)]
    assert got == [
        (frozenset(), frozenset({"b"})),
        (frozenset({"b"}), frozenset({"a", "b"})),
    ]


def test_meet_irreducibles_of_powerset_are_coatoms():
    base = simple("elements: a b\n")
    got = {labelset(m) for m, _ in meet_irreducibles(base)}
    assert got == {frozenset({"a"}), frozenset({"b"})}


def test_meet_irreducibles_match_oracle(demo_base):
    got = {(labelset(m), labelset(s)) for m, s in meet_irreducibles(demo_base)}
    assert got == set(naive_meet_irreducibles(demo_base))


def test_cnf_meet_irreducibles_missing_one_clause_keep_the_rest():
    # two overlapping clauses: any meet-irreducible containing the hub
    # element but missing one clause element must contain the other
    from conclose import CnfFormula, gen_cnf_lower_bounded

    base = gen_cnf_lower_bounded(CnfFormula(4, ((1, 2, 3), (1, 2, 4))))
    g = base.ground
    z = g.index("z")
    y = [g.index("y1"), g.index("y2")]
    for m, _ in meet_irreducibles(base):
        if z not in m:
            continue
        for i in (0, 1):
            if y[i] not in m:
                assert y[1 - i] in m, m.to_text()


# ---------------------------------------------------------------------------
# minimal generators and the Caratheodory number


def test_demo_generators_of_element_two(demo_base):
    got = as_label_sets(minimal_generators(demo_base, demo_base.ground.index("2")))
    assert got == naive_mingens(demo_base, "2")
    assert frozenset({"2"}) in got
    assert frozenset({"1", "3"}) in got


def test_generators_trivial_without_rules():
    base = simple("elements: a b c\n")
    for x in range(3):
        assert as_label_sets(minimal_generators(base, x)) == {frozenset({base.ground.labels[x]})}


def test_generators_of_hub_in_two_branch_instance():
    base, _ = gen_exponential(2)
    assert as_label_sets(minimal_generators(base, base.ground.index("u"))) == {
        frozenset({"u"}),
        frozenset({"x1", "x2"}),
        frozenset({"x1", "y2"}),
        frozenset({"y1", "x2"}),
        frozenset({"y1", "y2"}),
    }


def test_generators_match_oracle_on_randoms():
    rng = random.Random(13)
    for seed in range(8):
        base, _ = gen_random(n=5, n_imps=rng.randint(0, 6), max_premise=3, n_edges=0, seed=seed)
        for x, lab in enumerate(base.ground.labels):
            got = as_label_sets(minimal_generators(base, x))
            assert got == naive_mingens(base, lab)


def test_generator_subsets_trace_back():
    # closing any subset of a minimal generator adds nothing else from it
    for base in [parse_instance(DEMO_TEXT)[0], gen_exponential(2)[0]]:
        for x in range(base.ground.n):
            for gen in minimal_generators(base, x):
                s = gen.mask
                while True:
                    a = ElemSet(base.ground, s)
                    assert close(base, a) & gen == a
                    if s == 0:
                        break
                    s = (s - 1) & gen.mask


def test_caratheodory_demo_and_chain(demo_base):
    assert caratheodory_number(demo_base) == 2 == naive_caratheodory(demo_base)
    assert caratheodory_number(simple("elements: a b\nimp: a -> b\n")) == 1


def test_caratheodory_poset_convexity_small():
    for seed in range(5):
        base = gen_poset_convexity(gen_random_poset(6, seed))
        assert caratheodory_number(base) == naive_caratheodory(base) <= 2


# ---------------------------------------------------------------------------
# co-atoms


def test_coatoms_simple_cases():
    assert as_label_sets(co_atoms(simple("elements: a b\nimp: a -> b\n"))) == {
        frozenset({"b"})
    }
    assert as_label_sets(co_atoms(simple("elements: a b c\n"))) == {
        frozenset({"a", "b"}),
        frozenset({"a", "c"}),
        frozenset({"b", "c"}),
    }


def test_coatoms_demo(demo_base):
    assert as_label_sets(co_atoms(demo_base)) == {
        frozenset({"1", "2", "3", "4"}),
        frozenset({"1", "2", "3", "5"}),
        frozenset({"1", "4", "5"}),
    }


def test_coatoms_cnf_single_clause_matches_oracle():
    from conclose import CnfFormula, gen_cnf_lower_bounded

    base = gen_cnf_lower_bounded(CnfFormula(3, ((1, 2, 3),)))
    assert as_label_sets(co_atoms(base)) == naive_coatoms(base)


def test_coatoms_equal_maximal_proper_closed_sets_on_randoms():
    rng = random.Random(17)
    for seed in range(12):
        base, _ = gen_random(n=6, n_imps=rng.randint(0, 8), max_premise=3, n_edges=0, seed=seed)
        assert as_label_sets(co_atoms(base)) == naive_coatoms(base)


def test_coatoms_when_bottom_generates_everything():
    base = simple("elements: a b\nimp: -> a b\n")
    assert co_atoms(base) == []
