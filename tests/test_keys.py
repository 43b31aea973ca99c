import random
from collections import Counter

import pytest

from conclose import (
    ConsistencyGraph,
    EmptyGraph,
    ImplicationalBase,
    NoDecomposition,
    NotASuperkey,
    OutputLimitExceeded,
    augment_with_inconsistency,
    brute_force_keys,
    caratheodory_number,
    close,
    enumerate_keys,
    gen_exponential,
    gen_poset_convexity,
    gen_random,
    gen_random_poset,
    key_decomposition,
    minimal_generators,
    minimize_superkey,
    parse_instance,
)
from conclose import keys as keys_module
from conclose.closure import _Chainer, _chainer
from conclose.core import SubsetIndex
from oracles import as_label_sets, labelset, minimal_only, naive_keys

DEMO_KEYS = {
    frozenset({"2", "4"}),
    frozenset({"3", "4"}),
    frozenset({"2", "5"}),
    frozenset({"1", "3", "5"}),
}


# ---------------------------------------------------------------------------
# augmentation


def test_augment_adds_one_rule_per_edge(demo_base, demo_graph):
    aug = augment_with_inconsistency(demo_base, demo_graph)
    assert len(aug) == 7
    extra = aug.implications[4:]
    g = demo_base.ground
    # edge rules follow the graph's normalized edge order
    assert [imp.premise.labels() for imp in extra] == [("2", "4"), ("2", "5"), ("3", "4")]
    assert all(imp.conclusion == g.full() for imp in extra)


def test_augment_requires_edges(demo_base, demo_graph):
    from conclose import ConsistencyGraph

    with pytest.raises(EmptyGraph):
        augment_with_inconsistency(demo_base, ConsistencyGraph(demo_base.ground, []))


def test_augment_of_empty_base():
    base, graph = parse_instance("elements: a b\nedge: a b\n")
    aug = augment_with_inconsistency(base, graph)
    assert len(aug) == 1
    assert aug.implications[0].to_text() == "a b -> a b"


# ---------------------------------------------------------------------------
# enumeration


def test_demo_keys(demo_base, demo_graph):
    aug = augment_with_inconsistency(demo_base, demo_graph)
    keys = enumerate_keys(aug)
    assert as_label_sets(keys) == DEMO_KEYS
    assert [k.to_text() for k in keys] == ["2 4", "3 4", "2 5", "1 3 5"]
    labels = [labelset(k) for k in keys]
    assert minimal_only(labels) == labels
    assert as_label_sets(brute_force_keys(aug)) == DEMO_KEYS


def test_keys_of_single_escalating_rule():
    # cl({b}) = {b} here, so {a} is the only key
    base = parse_instance("elements: a b\nimp: a -> a b\n")[0]
    assert as_label_sets(enumerate_keys(base)) == {frozenset({"a"})}
    assert naive_keys(base) == {frozenset({"a"})}


def test_keys_are_minimal_superkeys(demo_base, demo_graph):
    from conclose import ElemSet

    aug = augment_with_inconsistency(demo_base, demo_graph)
    full = demo_base.ground.full()
    for k in enumerate_keys(aug):
        assert close(aug, k) == full
        s = (k.mask - 1) & k.mask    # every proper submask falls short
        while True:
            assert close(aug, ElemSet(k.ground, s)) != full
            if s == 0:
                break
            s = (s - 1) & k.mask


def test_keys_match_brute_force_on_randoms():
    rng = random.Random(29)
    for seed in range(40):
        n = rng.randint(2, 7)
        base, graph = gen_random(
            n=n,
            n_imps=rng.randint(0, 8),
            max_premise=rng.randint(1, min(3, n)),
            n_edges=rng.randint(1, n * (n - 1) // 2),
            seed=seed,
        )
        aug = augment_with_inconsistency(base, graph)
        keys = enumerate_keys(aug)
        assert as_label_sets(keys) == as_label_sets(brute_force_keys(aug))
        assert as_label_sets(keys) == naive_keys(aug)
        labels = [labelset(k) for k in keys]
        assert minimal_only(labels) == labels
        # every key splits into two generators, so it cannot out-size two of them
        cara = caratheodory_number(base)
        for k in keys:
            assert len(k) <= 2 * cara


def test_exponential_family_key_counts():
    for n in range(1, 5):
        base, graph = gen_exponential(n)
        aug = augment_with_inconsistency(base, graph)
        keys = enumerate_keys(aug)
        assert len(keys) == 2 ** n + 1
        assert len(brute_force_keys(aug)) == 2 ** n + 1


def test_exponential_one_branch_keys_exact():
    base, graph = gen_exponential(1)
    aug = augment_with_inconsistency(base, graph)
    assert as_label_sets(enumerate_keys(aug)) == {
        frozenset({"x1"}),
        frozenset({"y1"}),
        frozenset({"u", "v"}),
    }


def test_key_cap_reports_partial():
    base, graph = gen_exponential(4)
    aug = augment_with_inconsistency(base, graph)
    with pytest.raises(OutputLimitExceeded) as err:
        enumerate_keys(aug, cap=5)
    assert err.value.phase == "keys"
    # The saturation stops at the key that passes the cap, as MMCS does.
    partial = err.value.partial
    assert len(partial) == 5 + 1
    # Like MMCS's, the partial list holds sorted masks, each one a key.
    assert isinstance(partial, list) and partial == sorted(partial)
    assert all(type(m) is int for m in partial)
    assert set(partial) <= {k.mask for k in brute_force_keys(aug)}


# ---------------------------------------------------------------------------
# minimization


def test_minimize_full_set(demo_base, demo_graph):
    aug = augment_with_inconsistency(demo_base, demo_graph)
    got = minimize_superkey(aug, demo_base.ground.full())
    assert got.to_text() == "2 4"


def test_minimize_fixpoint_on_keys(demo_base, demo_graph):
    aug = augment_with_inconsistency(demo_base, demo_graph)
    for k in enumerate_keys(aug):
        assert minimize_superkey(aug, k) == k


def test_minimize_scans_from_the_top():
    base = parse_instance("elements: a b c\nimp: a b -> a b c\n")[0]
    assert minimize_superkey(base, base.ground.full()).to_text() == "a b"


def test_minimize_rejects_non_superkey(demo_base):
    with pytest.raises(NotASuperkey):
        minimize_superkey(demo_base, demo_base.ground.set_of("1", "2"))


# ---------------------------------------------------------------------------
# decomposition along a conflict edge


def test_demo_decompositions(demo_base, demo_graph):
    g = demo_base.ground
    edge, gen_u, gen_v = key_decomposition(demo_base, demo_graph, g.set_of("1", "3", "5"))
    assert edge == (g.index("2"), g.index("5"))
    assert gen_u.to_text() == "1 3"
    assert gen_v.to_text() == "5"

    edge, gen_u, gen_v = key_decomposition(demo_base, demo_graph, g.set_of("2", "4"))
    assert edge == (g.index("2"), g.index("4"))
    assert (gen_u.to_text(), gen_v.to_text()) == ("2", "4")


def test_two_branch_key_decomposes_with_shared_generators():
    base, graph = gen_exponential(2)
    g = base.ground
    key = g.set_of("x1", "x2")
    edge, gen_u, gen_v = key_decomposition(base, graph, key)
    assert edge == (g.index("u"), g.index("v"))
    assert gen_u == key and gen_v == key


def test_decomposition_of_non_key_fails(demo_base, demo_graph):
    with pytest.raises(NoDecomposition):
        key_decomposition(demo_base, demo_graph, demo_base.ground.set_of("1"))


def test_decomposition_pieces_are_generators(demo_base, demo_graph):
    aug = augment_with_inconsistency(demo_base, demo_graph)
    g = demo_base.ground
    for k in enumerate_keys(aug):
        (u, v), gen_u, gen_v = key_decomposition(demo_base, demo_graph, k)
        assert (u, v) in demo_graph.edges
        assert gen_u | gen_v == k
        for elem, gen in ((u, gen_u), (v, gen_v)):
            assert gen in minimal_generators(demo_base, elem)


# ---------------------------------------------------------------------------
# work guards: counted operations, no wall-clock time


def test_saturation_work_guards(monkeypatch):
    base = gen_poset_convexity(gen_random_poset(10, 1))
    ch = _chainer(base)
    # One compiled rule per distinct premise, conclusions merged.
    merged: dict[int, int] = {}
    for imp in base:
        merged[imp.premise.mask] = merged.get(imp.premise.mask, 0) | imp.conclusion.mask
    assert len(ch.rules) == len(merged) < len(base)
    assert dict(ch.rules) == merged

    aug = augment_with_inconsistency(base, ConsistencyGraph(base.ground, [(0, 9), (2, 7), (4, 5)]))
    looked_up = Counter()
    minimized = []
    has_subset_of = SubsetIndex.has_subset_of
    minimize = keys_module._minimize_mask

    def counting_lookup(index, mask):
        # The key index only; the minimizations' certificate is apart.
        if index is not _chainer(aug).proper_closed:
            looked_up[mask] += 1
        return has_subset_of(index, mask)

    def counting_minimize(ch, full, mask):
        minimized.append(mask)
        return minimize(ch, full, mask)

    monkeypatch.setattr(SubsetIndex, "has_subset_of", counting_lookup)
    monkeypatch.setattr(keys_module, "_minimize_mask", counting_minimize)
    keys = enumerate_keys(aug)
    assert len(keys) > 1
    assert looked_up and max(looked_up.values()) == 1
    assert len(minimized) == len(keys)
    assert keys == brute_force_keys(aug)


def test_saturation_retires_rules_whose_premise_holds_a_key(monkeypatch):
    # A compiled rule whose premise holds a known key only rewrites into
    # supersets of that key, so it leaves every later scan. Without that
    # retirement the same saturation looks up 74 rewrites; the keys and
    # the minimizations (one per key) are the same either way.
    base = gen_poset_convexity(gen_random_poset(10, 1))
    aug = augment_with_inconsistency(base, ConsistencyGraph(base.ground, [(0, 9), (2, 7), (4, 5)]))
    calls = {"lookup": 0, "minimize": 0}
    has_subset_of = SubsetIndex.has_subset_of
    minimize = keys_module._minimize_mask

    def counting_lookup(index, mask):
        if index is not _chainer(aug).proper_closed:  # the key index only
            calls["lookup"] += 1
        return has_subset_of(index, mask)

    def counting_minimize(ch, full, mask):
        calls["minimize"] += 1
        return minimize(ch, full, mask)

    monkeypatch.setattr(SubsetIndex, "has_subset_of", counting_lookup)
    monkeypatch.setattr(keys_module, "_minimize_mask", counting_minimize)
    keys = enumerate_keys(aug)
    assert len(keys) == 18
    assert calls == {"lookup": 57, "minimize": 18}
    assert keys == brute_force_keys(aug)


def test_doubling_saturation_closes_24_sets(monkeypatch):
    # Minimizing the full set of 22 elements closes 22 remainders: 12
    # close to full and 10 fail, and those 10 proper closed sets become
    # the engine's certificate. The 1024 later minimizations then make
    # 2 closures in all: every other removal test has a remainder inside
    # one of the 10 sets. Without the certificate this saturation makes
    # 10,254 closures.
    aug = augment_with_inconsistency(*gen_exponential(10))
    calls = 0
    close = _Chainer.close

    def counting_close(ch, mask):
        nonlocal calls
        calls += 1
        return close(ch, mask)

    monkeypatch.setattr(_Chainer, "close", counting_close)
    keys = enumerate_keys(aug)
    assert len(keys) == 1025
    assert calls == 24


def test_decomposition_reuses_generator_saturations(monkeypatch):
    # key_decomposition reads minimal generators, which saturate once per
    # element and base; decomposing every key adds no saturation after that.
    base, graph = gen_exponential(3)
    keys = enumerate_keys(augment_with_inconsistency(base, graph))
    calls = []
    saturate = keys_module._key_masks

    def counting(b, *args, **kwargs):
        calls.append(b)
        return saturate(b, *args, **kwargs)

    monkeypatch.setattr(keys_module, "_key_masks", counting)
    for k in keys:
        key_decomposition(base, graph, k)
    endpoints = {x for edge in graph.edges for x in edge}
    assert len(keys) == 9
    assert len(calls) == len(endpoints) == 2
