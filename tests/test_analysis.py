"""Structural checks against definitional reference implementations.

Expected verdicts here come from oracles.py or from hand evaluation of
tiny lattices; nothing is asserted that the rescanning oracle cannot
reproduce.
"""

import json
import random
from collections import Counter

import pytest

from conclose import (
    EXHAUSTIVE_LIMIT,
    CnfFormula,
    ConsistencyGraph,
    ElemSet,
    GroundSet,
    GroundSetTooLarge,
    HypothesesNotMet,
    ImplicationalBase,
    NotStandard,
    analyze,
    arrow_relations,
    brute_force_keys,
    brute_force_solve,
    caratheodory_number,
    check_atomistic,
    check_biatomic,
    check_distributive,
    check_independent,
    check_mingen_independence,
    check_modular,
    check_standard,
    close,
    covers,
    d_relation,
    enumerate_closed_sets,
    gen_cnf_lower_bounded,
    gen_exponential,
    gen_fano,
    gen_poset_convexity,
    gen_projective_gf2,
    gen_random,
    gen_random_poset,
    has_d_cycle,
    meet_irreducibles,
    minimal_generators,
    parse_instance,
    verify_log_bound,
)
from conftest import WIDE_BESIDE_A_FAILURE
from oracles import (
    labelset,
    naive_arrows,
    naive_atomistic,
    naive_biatomic,
    naive_chain_condition,
    naive_d_arcs,
    naive_distributive,
    naive_has_cycle,
    naive_independent,
    naive_mingens,
    naive_modular,
    naive_standard,
)


def simple(text):
    return parse_instance(text)[0]


CHAIN = "elements: a b\nimp: a -> b\n"
PENTAGON = "elements: a b c\nimp: a b -> a b c\nimp: c -> a\n"
MUTUAL = "elements: x y z\nimp: x z -> y\nimp: y z -> x\n"


# ---------------------------------------------------------------------------
# single-property checks


def test_standard(demo_base):
    assert check_standard(demo_base).ok
    assert check_standard(simple("elements: a b\n")).ok
    res = check_standard(simple("elements: a b\nimp: -> a\n"))
    assert not res.ok and res.witness and res.detail


def test_standard_matches_oracle_on_randoms():
    rng = random.Random(37)
    for seed in range(20):
        n = rng.randint(1, 6)
        base, _ = gen_random(n, rng.randint(0, 6), rng.randint(1, min(3, n)), 0, seed)
        assert check_standard(base).ok == naive_standard(base)


def test_atomistic(demo_base):
    assert check_atomistic(simple("elements: a b\n")).ok
    res = check_atomistic(demo_base)
    assert not res.ok
    assert res.witness[0] == demo_base.ground.index("4")
    assert check_atomistic(gen_fano()).ok
    assert naive_atomistic(gen_fano())


def test_biatomic(demo_base):
    assert check_biatomic(simple("elements: a b c\n")).ok
    assert check_biatomic(demo_base).ok == naive_biatomic(demo_base)
    chain3 = simple("elements: a b c\nimp: a c -> b\n")
    assert check_biatomic(chain3).ok == naive_biatomic(chain3)


def test_biatomic_matches_oracle_on_randoms():
    rng = random.Random(41)
    for seed in range(15):
        n = rng.randint(1, 5)
        base, _ = gen_random(n, rng.randint(0, 5), rng.randint(1, min(2, n)), 0, seed)
        res = check_biatomic(base)
        assert res.ok == naive_biatomic(base), base
        if not res.ok:
            assert len(res.witness) == 3


def test_distributive(demo_base):
    assert check_distributive(simple(CHAIN)).ok
    assert check_distributive(simple("elements: a b\n")).ok
    res = check_distributive(demo_base)
    assert not res.ok
    f1, f2 = res.witness
    assert close(demo_base, f1 | f2) != f1 | f2
    assert not naive_distributive(demo_base)


def test_modular(demo_base):
    assert check_modular(simple("elements: a b\n")).ok
    assert check_modular(gen_fano()).ok
    assert check_modular(demo_base).ok == naive_modular(demo_base)

    res = check_modular(simple(PENTAGON))
    assert not res.ok and not naive_modular(simple(PENTAGON))
    f1, f2, f3 = res.witness
    base = simple(PENTAGON)
    assert close(base, f1 | (f2 & f3)) != close(base, f1 | f3) & f2


def test_distributive_implies_modular_on_randoms():
    rng = random.Random(43)
    for seed in range(25):
        n = rng.randint(1, 6)
        base, _ = gen_random(n, rng.randint(0, 7), rng.randint(1, min(3, n)), 0, seed)
        dist = check_distributive(base).ok
        mod = check_modular(base).ok
        assert mod == naive_modular(base)
        if dist:
            assert mod
        if mod and check_atomistic(base).ok:
            assert check_biatomic(base).ok


def test_independent_small_sets(demo_base):
    g = demo_base.ground
    assert check_independent(demo_base, g.empty()).ok
    assert check_independent(demo_base, g.set_of("3")).ok
    assert check_independent(demo_base, g.set_of("1", "3")).ok == naive_independent(
        demo_base, {"1", "3"}
    )


def test_independent_on_projective_points():
    base = gen_fano()
    g = base.ground
    # three collinear points collapse, any other triple stands alone
    line = close(base, g.set_of("1", "2"))
    assert len(line) == 3
    assert not check_independent(base, line).ok
    triangle = g.set_of("1", "2", "4")
    assert len(close(base, triangle)) == 7
    assert check_independent(base, triangle).ok
    assert naive_independent(base, triangle.labels())


def test_independence_agrees_with_chain_condition_when_modular():
    # on modular systems the prefix-chain criterion is an equivalent test
    base = gen_fano()
    g = base.ground
    rng = random.Random(47)
    assert check_modular(base).ok
    for _ in range(30):
        mask = rng.randrange(1, 1 << g.n)
        subset = g.from_indices([i for i in range(g.n) if mask >> i & 1])
        if len(subset) > 4:
            continue
        assert check_independent(base, subset).ok == naive_chain_condition(base, labelset(subset))

    # With a non-empty cl(∅) each prefix meets the next closure in cl(∅),
    # not in the empty set: {b, c} is independent under "-> a".
    bottom_a = simple("elements: a b c\nimp: -> a\n")
    bc = bottom_a.ground.set_of("b", "c")
    assert check_modular(bottom_a).ok
    assert check_independent(bottom_a, bc).ok and naive_chain_condition(bottom_a, labelset(bc))

    # Random small modular bases, empty premises allowed, on every subset.
    modular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        g = GroundSet([f"e{i}" for i in range(n)])
        rules = [(rng.randrange(1 << n), rng.randrange(1, 1 << n)) for _ in range(rng.randint(0, 4))]
        base = ImplicationalBase(g, rules)
        if not check_modular(base).ok:
            continue
        modular += 1
        for mask in range(1 << n):
            subset = ElemSet(g, mask)
            assert check_independent(base, subset).ok == naive_chain_condition(base, labelset(subset))
    assert modular >= 100


def test_mingen_independence(demo_base):
    assert check_mingen_independence(demo_base).ok
    assert check_mingen_independence(gen_fano()).ok
    res = check_mingen_independence(simple(PENTAGON))
    # verdict pinned by the oracle, whatever it is
    expected = all(
        naive_independent(simple(PENTAGON), gen)
        for x in "abc"
        for gen in naive_mingens(simple(PENTAGON), x)
    )
    assert res.ok == expected


# ---------------------------------------------------------------------------
# arrows and the dependency relation


def test_arrows_on_two_chain():
    base = simple(CHAIN)
    ar = arrow_relations(base)
    mi = {i: labelset(m) for i, (m, _) in enumerate(ar.meet_irr)}
    down = {(base.ground.labels[x], mi[i]) for x, i in ar.down}
    up = {(mi[i], base.ground.labels[x]) for i, x in ar.up}
    assert down == {("a", frozenset({"b"})), ("b", frozenset())}
    assert up == {(frozenset({"b"}), "a"), (frozenset(), "b")}


def test_arrows_on_powerset():
    base = simple("elements: a b\n")
    ar = arrow_relations(base)
    down = {(base.ground.labels[x], labelset(ar.meet_irr[i][0])) for x, i in ar.down}
    assert down == {("a", frozenset({"b"})), ("b", frozenset({"a"}))}


def test_arrows_match_oracle(demo_base):
    ar = arrow_relations(demo_base)
    mi_sets = [labelset(m) for m, _ in ar.meet_irr]
    got_down = {(demo_base.ground.labels[x], mi_sets[i]) for x, i in ar.down}
    got_up = {(mi_sets[i], demo_base.ground.labels[x]) for i, x in ar.up}
    _, want_down, want_up = naive_arrows(demo_base)
    assert got_down == want_down
    assert got_up == want_up


def test_arrows_refuse_non_standard():
    with pytest.raises(NotStandard):
        arrow_relations(simple("elements: a b\nimp: -> a\n"))


def test_d_relation_empty_base():
    rel = d_relation(simple("elements: a b c\n"))
    has, cycle = has_d_cycle(simple("elements: a b c\n"))
    assert rel.arcs == frozenset()
    assert not has and cycle is None


def test_d_relation_mutual_dependence_cycle():
    base = simple(MUTUAL)
    g = base.ground
    rel = d_relation(base)
    arcs = {(g.labels[x], g.labels[y]) for x, y in rel.arcs}
    assert arcs == naive_d_arcs(base)
    assert ("x", "y") in arcs and ("y", "x") in arcs
    has, cycle = has_d_cycle(base)
    assert has and cycle
    # the witness walks real arcs
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (a, b) in rel.arcs
    assert naive_has_cycle(arcs)


def test_d_relation_demo_matches_oracle(demo_base):
    rel = d_relation(demo_base)
    g = demo_base.ground
    arcs = {(g.labels[x], g.labels[y]) for x, y in rel.arcs}
    assert arcs == naive_d_arcs(demo_base)
    assert has_d_cycle(demo_base)[0] == naive_has_cycle(arcs)


def test_d_relation_cnf_family_is_acyclic():
    base = gen_cnf_lower_bounded(CnfFormula(4, ((1, 2, 3), (1, 2, 4))))
    has, cycle = has_d_cycle(base)
    assert not has and cycle is None
    assert not naive_has_cycle(naive_d_arcs(base))


@pytest.mark.parametrize("n, seed", [(24, 1), (27, 2), (30, 3)])
def test_structure_queries_past_the_exhaustive_limit(n, seed):
    # Poset convexity has two-element premises, so its largest minimal
    # generator is 2; covers() checks each meet-irreducible pair with
    # no key query.
    base = gen_poset_convexity(gen_random_poset(n, seed))
    assert n > EXHAUSTIVE_LIMIT
    pairs = meet_irreducibles(base)
    assert pairs
    for m, m_star in pairs:
        assert covers(base, m) == [m_star]
    cyclic, cycle = has_d_cycle(base)
    assert cyclic == (cycle is not None)
    res = check_distributive(base)
    if not res.ok:
        a, b = res.witness
        assert close(base, a) == a and close(base, b) == b and close(base, a | b) != a | b
    assert caratheodory_number(base) == 2
    # Biatomicity reads generator splits, not the closed-set family.
    assert verify_log_bound(base) is True


@pytest.mark.parametrize(
    "check",
    [
        enumerate_closed_sets,
        brute_force_keys,
        lambda base: brute_force_solve(base, ConsistencyGraph(base.ground, [])),
        check_modular,
        lambda base: check_independent(base, base.ground.full()),
    ],
    ids=[
        "enumerate_closed_sets",
        "brute_force_keys",
        "brute_force_solve",
        "check_modular",
        "check_independent",
    ],
)
def test_exhaustive_checks_refuse_past_the_limit(check):
    # Each check reaches the closed-set enumeration, or the subset scan of
    # check_independent, before any exponential work, and both refuse
    # before their first set.
    n = EXHAUSTIVE_LIMIT + 1
    base = parse_instance("elements: " + " ".join(f"e{i}" for i in range(n)) + "\n")[0]
    with pytest.raises(GroundSetTooLarge, match=f"{n} elements exceeds the exhaustive limit of 20"):
        check(base)


def test_analyze_reports_modularity_na_past_the_limit():
    # check_modular refuses, and analyze carries its refusal as the witness
    # and runs every other check.
    n = EXHAUSTIVE_LIMIT + 1
    base = parse_instance("elements: " + " ".join(f"e{i}" for i in range(n)) + "\n")[0]
    rep = analyze(base)
    assert rep.modular is None
    assert rep.witnesses == {"modular": f"{n} elements exceeds the exhaustive limit of 20"}
    assert rep.to_dict()["modular"] is None
    assert "modular                    : n/a" in rep.render_text().splitlines()
    assert (rep.atomistic, rep.biatomic, rep.distributive, rep.caratheodory) == (True, True, True, 1)


WIDE_GENERATOR = (
    "elements: " + " ".join(f"e{i}" for i in range(EXHAUSTIVE_LIMIT + 1)) + " z\n"
    "imp: " + " ".join(f"e{i}" for i in range(EXHAUSTIVE_LIMIT + 1)) + " -> z\n"
)


def test_analyze_reports_generator_independence_na_past_the_limit():
    # z's one non-trivial minimal generator has 21 elements, so its
    # independence check refuses; analyze reports it n/a with the refusal
    # as its witness, as it does modularity on the 22-element ground set.
    base = parse_instance(WIDE_GENERATOR)[0]
    with pytest.raises(GroundSetTooLarge):
        check_mingen_independence(base)
    rep = analyze(base)
    assert rep.mingen_all_independent is None and rep.modular is None
    assert rep.log_bound_holds is None
    assert rep.witnesses["mingen_independence"] == "21 elements exceeds the exhaustive limit of 20"
    assert rep.witnesses["modular"] == "22 elements exceeds the exhaustive limit of 20"
    assert rep.to_dict()["mingen_all_independent"] is None
    assert "min generators independent : n/a" in rep.render_text().splitlines()
    assert rep.caratheodory == EXHAUSTIVE_LIMIT + 1


def test_generator_independence_verdict_ignores_element_order():
    # A generator past the limit is skipped while the others are checked,
    # so the failing {a b} decides the verdict whichever comes first.
    detail = (
        "minimal generator {a b} of x is not independent: closure of the "
        "intersection of {b} and {a} differs from the intersection of closures"
    )
    for text in WIDE_BESIDE_A_FAILURE:
        base = parse_instance(text)[0]
        res = check_mingen_independence(base)
        assert not res.ok and res.detail == detail
        assert res.witness[1].labels() == ("a", "b")
        rep = analyze(base)
        assert rep.mingen_all_independent is False
        assert rep.witnesses["mingen_independence"] == detail


def test_mingen_independence_failure_names_the_generator():
    base = parse_instance("elements: a b c x\nimp: a -> c\nimp: b -> c\nimp: a b -> x\n")[0]
    res = check_mingen_independence(base)
    assert not res and not res.ok
    assert res.detail == (
        "minimal generator {a b} of x is not independent: closure of the "
        "intersection of {b} and {a} differs from the intersection of closures"
    )
    assert check_mingen_independence(parse_instance("elements: a b\n")[0])


def test_log_bound_names_each_failed_hypothesis():
    base = parse_instance(
        "elements: a b c d x\nimp: a b -> d\nimp: b c -> d\nimp: a b c -> x\n"
    )[0]
    with pytest.raises(HypothesesNotMet) as info:
        verify_log_bound(base)
    assert info.value.failed == ["biatomic", "mingen_independence"]


def test_structure_checks_past_the_old_bounds():
    # Modularity reads the cover graph and independence closes each
    # subset once, so both stay quick on rule-free bases, where every
    # subset is closed: 4,096 closed sets at n = 12, and a 16-element set
    # past the 15 that independence once refused. Biatomicity reads the
    # generator splits, and a rule-free base has none, so it passes the
    # exhaustive limit.
    free12 = parse_instance("elements: " + " ".join(f"e{i}" for i in range(12)) + "\n")[0]
    assert check_modular(free12).ok
    free16 = parse_instance("elements: " + " ".join(f"e{i}" for i in range(16)) + "\n")[0]
    assert check_independent(free16, free16.ground.full()).ok
    n = EXHAUSTIVE_LIMIT + 1
    free21 = parse_instance("elements: " + " ".join(f"e{i}" for i in range(n)) + "\n")[0]
    assert check_biatomic(free21).ok


def test_independence_holds_one_path_not_every_closure():
    # The walk carries each subset's closure down its own path only; a
    # closure per subset of 14 elements would take about 1.6 MB.
    import tracemalloc

    free14 = parse_instance("elements: " + " ".join(f"e{i}" for i in range(14)) + "\n")[0]
    close(free14, free14.ground.empty())  # the closure engine is built before tracing
    tracemalloc.start()
    try:
        assert check_independent(free14, free14.ground.full()).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


# ---------------------------------------------------------------------------
# the logarithmic bound


def test_log_bound_projective():
    assert verify_log_bound_ok(gen_fano())


def verify_log_bound_ok(base):
    from conclose import verify_log_bound

    return verify_log_bound(base)


def test_log_bound_single_element():
    assert verify_log_bound_ok(simple("elements: a\n"))


def test_log_bound_hypotheses_reported():
    base, _ = gen_exponential(2)
    with pytest.raises(HypothesesNotMet) as err:
        verify_log_bound_ok(base)
    assert "atomistic" in str(err.value)


# ---------------------------------------------------------------------------
# the aggregate report


def test_analyze_demo(demo_base):
    rep = analyze(demo_base)
    assert rep.n_elements == 5
    assert rep.standard is True
    assert rep.atomistic is False
    assert rep.biatomic == naive_biatomic(demo_base)
    assert rep.distributive is False
    assert rep.modular == naive_modular(demo_base)
    assert rep.caratheodory == 2
    assert rep.lower_bounded == (not naive_has_cycle(naive_d_arcs(demo_base)))
    assert rep.log_bound_holds is None
    assert rep.mingen_all_independent is True
    assert "atomistic" in rep.witnesses


# Degenerate key families: no element at all, every element in close(∅),
# and one element in close(∅) beside a conflict edge. Generators of an
# element of close(∅) are the singletons, read off its empty key. The
# reports were captured from the code that still wrapped every key.
DEGENERATE = [
    pytest.param(
        "elements:\n",
        """\
elements                   : 0
standard                   : yes
atomistic                  : yes
biatomic                   : yes
distributive               : yes
modular                    : yes
lower bounded              : yes
caratheodory number        : 1
log bound holds            : no
min generators independent : yes
d-relation self loops      : none""",
        {"standard": True, "atomistic": True, "lower_bounded": True,
         "log_bound_holds": False, "witnesses": {}},
        id="empty-ground",
    ),
    pytest.param(
        "elements: a b\nimp: -> a b\n",
        """\
elements                   : 2
standard                   : no
atomistic                  : no
biatomic                   : yes
distributive               : yes
modular                    : yes
lower bounded              : n/a
caratheodory number        : 1
log bound holds            : n/a
min generators independent : yes
d-relation self loops      : none
witness[atomistic] : closure of a is {a b}, not the singleton
witness[lower_bounded] : not standard, arrow relations undefined
witness[standard] : closure of the empty set is {a b}, not empty""",
        {"standard": False, "atomistic": False, "lower_bounded": None,
         "log_bound_holds": None, "witnesses": {
             "atomistic": "closure of a is {a b}, not the singleton",
             "lower_bounded": "not standard, arrow relations undefined",
             "standard": "closure of the empty set is {a b}, not empty",
         }},
        id="all-in-bottom",
    ),
    pytest.param(
        "elements: a b\nimp: -> a\nedge: a b\n",
        """\
elements                   : 2
standard                   : no
atomistic                  : no
biatomic                   : yes
distributive               : yes
modular                    : yes
lower bounded              : n/a
caratheodory number        : 1
log bound holds            : n/a
min generators independent : yes
d-relation self loops      : none
witness[atomistic] : closure of b is {a b}, not the singleton
witness[lower_bounded] : not standard, arrow relations undefined
witness[standard] : closure of the empty set is {a}, not empty""",
        {"standard": False, "atomistic": False, "lower_bounded": None,
         "log_bound_holds": None, "witnesses": {
             "atomistic": "closure of b is {a b}, not the singleton",
             "lower_bounded": "not standard, arrow relations undefined",
             "standard": "closure of the empty set is {a}, not empty",
         }},
        id="bottom-and-edge",
    ),
]


@pytest.mark.parametrize("text, report, fields", DEGENERATE)
def test_degenerate_key_families(text, report, fields):
    base = simple(text)
    n = base.ground.n
    assert caratheodory_number(base) == 1
    for x in range(n):
        assert all(len(gen) == 1 for gen in minimal_generators(base, x))
    assert check_mingen_independence(base).ok
    rep = analyze(base)
    assert rep.render_text() == report
    # The JSON report, as the CLI writes it; the fields shared by all three first.
    assert json.loads(json.dumps(rep.to_dict())) == {
        "n_elements": n, "biatomic": True, "distributive": True, "modular": True,
        "caratheodory": 1, "mingen_all_independent": True, "d_self_loops": [], **fields,
    }


def test_analyze_non_standard_marks_lower_bounded_na():
    rep = analyze(simple("elements: a b\nimp: -> a\n"))
    assert rep.standard is False
    assert rep.lower_bounded is None


def test_analyze_projective_plane():
    rep = analyze(gen_fano())
    assert rep.atomistic and rep.biatomic and rep.modular
    assert not rep.distributive
    assert rep.caratheodory == 3
    assert rep.log_bound_holds is True
    assert rep.lower_bounded is not None


def test_analyze_render_and_dict(demo_base):
    rep = analyze(demo_base)
    text = rep.render_text()
    assert "atomistic" in text and ": no" in text and ": yes" in text
    assert "n/a" in text
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["caratheodory"] == 2
    assert payload["standard"] is True


# ---------------------------------------------------------------------------
# work guards: counted operations, no wall-clock time


def test_analyze_saturates_each_element_once(monkeypatch):
    # Minimal generators, the Caratheodory number and the meet-irreducibles
    # all read the keys of the base plus {x} -> everything; each element's
    # saturation runs once per base, not once per query.
    from conclose import keys as keys_module
    from conclose import solver as solver_module

    base = gen_projective_gf2(3)
    calls = []
    key_masks = keys_module._key_masks

    def counting(b, *args, **kwargs):
        calls.append(b)
        return key_masks(b, *args, **kwargs)

    monkeypatch.setattr(keys_module, "_key_masks", counting)
    monkeypatch.setattr(solver_module, "_key_masks", counting)
    rep = analyze(base)
    assert rep.caratheodory == 4
    assert len(calls) == base.ground.n == 15
    analyze(base)
    assert len(calls) == 15


def test_mingen_independence_work_guards(monkeypatch):
    # One closure memo serves every generator, so each subset of a
    # generator is closed exactly once: 1381 closures on the 15-point
    # GF(2) geometry, against 17250 with a fresh memo per generator.
    from conclose import analysis as analysis_module
    from conclose import closure as closure_module

    base = gen_projective_gf2(3)
    subsets = set()
    for x in range(base.ground.n):  # also fills the saturation memo
        for gen in minimal_generators(base, x):
            s = gen.mask
            while True:
                subsets.add(s)
                if s == 0:
                    break
                s = (s - 1) & gen.mask
    closed = Counter()
    close = closure_module._Chainer.close

    def counting_close(ch, mask):
        closed[mask] += 1
        return close(ch, mask)

    monkeypatch.setattr(closure_module._Chainer, "close", counting_close)
    assert check_mingen_independence(base).ok
    assert set(closed) == subsets and max(closed.values()) == 1
    assert len(subsets) == 1381

    # {a, b} is a minimal generator of both c and d, and is checked once.
    checked = []
    check = analysis_module._check_independent

    def counting_check(b, mask, *args):
        checked.append(mask)
        return check(b, mask, *args)

    monkeypatch.setattr(analysis_module, "_check_independent", counting_check)
    shared = simple("elements: a b c d\nimp: a b -> c d\n")
    assert check_mingen_independence(shared).ok
    assert sorted(checked) == [0b0001, 0b0010, 0b0011, 0b0100, 0b1000]
