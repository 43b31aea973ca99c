import random
from collections import Counter

import pytest

from conclose import (
    ConsistencyGraph,
    ElemSet,
    OutputLimitExceeded,
    augment_with_inconsistency,
    caratheodory_number,
    close,
    enumerate_keys,
    gen_exponential,
    gen_poset_convexity,
    gen_random,
    gen_random_poset,
    minimal_generators,
    parse_instance,
)
from conclose import keys as keys_module
from conclose.closure import _Chainer, _chainer
from conclose.core import SubsetIndex
from oracles import (
    as_label_sets,
    brute_keys,
    labelset,
    minimal_only,
    naive_key_splitter,
    naive_keys,
)
from test_benchmark_pins import WORKLOADS, _load

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
    assert len(aug.rules) == 7
    extra = aug.rules[4:]
    g = demo_base.ground
    # edge rules follow the graph's normalized edge order
    assert [ElemSet(g, p).labels() for p, _ in extra] == [("2", "4"), ("2", "5"), ("3", "4")]
    assert all(c == g.full_mask for _, c in extra)


def test_augment_without_edges_adds_nothing(demo_base):
    # No edge, no conflict rule: the base comes back equal.
    aug = augment_with_inconsistency(demo_base, ConsistencyGraph(demo_base.ground, []))
    assert aug == demo_base


def test_augment_of_empty_base():
    base, graph = parse_instance("elements: a b\nedge: a b\n")
    aug = augment_with_inconsistency(base, graph)
    assert len(aug.rules) == 1
    assert aug.rules == ((0b11, 0b11),)


# ---------------------------------------------------------------------------
# enumeration


def test_demo_keys(demo_base, demo_graph):
    aug = augment_with_inconsistency(demo_base, demo_graph)
    keys = enumerate_keys(aug)
    assert as_label_sets(keys) == DEMO_KEYS
    assert [k.to_text() for k in keys] == ["2 4", "3 4", "2 5", "1 3 5"]
    labels = [labelset(k) for k in keys]
    assert minimal_only(labels) == labels
    assert as_label_sets(keys) == naive_keys(aug)


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
        assert [k.mask for k in keys] == brute_keys(aug)
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
        assert len(naive_keys(aug)) == 2 ** n + 1


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
    assert set(partial) <= set(brute_keys(aug))


# ---------------------------------------------------------------------------
# minimization


def _minimized(base, superkey):
    # One greedy minimization under a fresh, empty certificate.
    g = base.ground
    mask = keys_module._minimize_mask(_chainer(base), g.full_mask, superkey.mask, SubsetIndex(g.n))
    return ElemSet(g, mask)


def test_minimize_full_set(demo_base, demo_graph):
    aug = augment_with_inconsistency(demo_base, demo_graph)
    got = _minimized(aug, demo_base.ground.full())
    assert got.to_text() == "2 4"


def test_minimize_fixpoint_on_keys(demo_base, demo_graph):
    aug = augment_with_inconsistency(demo_base, demo_graph)
    for k in enumerate_keys(aug):
        assert _minimized(aug, k) == k


def test_minimize_scans_from_the_top():
    base = parse_instance("elements: a b c\nimp: a b -> a b c\n")[0]
    assert _minimized(base, base.ground.full()).to_text() == "a b"


# ---------------------------------------------------------------------------
# decomposition along a conflict edge, through the label-level oracle


def test_demo_decompositions(demo_base, demo_graph):
    split = naive_key_splitter(demo_base, demo_graph)
    assert split({"1", "3", "5"}) == (("2", "5"), {"1", "3"}, {"5"})
    assert split({"2", "4"}) == (("2", "4"), {"2"}, {"4"})


def test_two_branch_key_decomposes_with_shared_generators():
    base, graph = gen_exponential(2)
    key = {"x1", "x2"}
    assert naive_key_splitter(base, graph)(key) == (("u", "v"), key, key)


def test_decomposition_of_non_key_fails(demo_base, demo_graph):
    assert naive_key_splitter(demo_base, demo_graph)({"1"}) is None


def test_decomposition_pieces_are_generators(demo_base, demo_graph):
    aug = augment_with_inconsistency(demo_base, demo_graph)
    g = demo_base.ground
    split = naive_key_splitter(demo_base, demo_graph)
    for k in enumerate_keys(aug):
        (u, v), gen_u, gen_v = split(labelset(k))
        assert (u, v) in demo_graph.edge_labels()
        assert gen_u | gen_v == labelset(k)
        for elem, gen in ((u, gen_u), (v, gen_v)):
            assert gen in as_label_sets(minimal_generators(demo_base, g.index(elem)))


# ---------------------------------------------------------------------------
# work guards: counted operations, no wall-clock time


def test_saturation_work_guards(monkeypatch):
    base = gen_poset_convexity(gen_random_poset(10, 1))
    ch = _chainer(base)
    # One compiled rule per distinct premise, conclusions merged.
    merged: dict[int, int] = {}
    for p, c in base.rules:
        merged[p] = merged.get(p, 0) | c
    assert len(ch.premises) == len(merged) < len(base.rules)
    assert dict(zip(ch.premises, ch.conclusions)) == merged

    aug = augment_with_inconsistency(base, ConsistencyGraph(base.ground, [(0, 9), (2, 7), (4, 5)]))
    looked_up = Counter()
    minimized = []
    has_subset_of = SubsetIndex.has_subset_of
    minimize = keys_module._minimize_mask

    certificates = []

    def counting_lookup(index, mask):
        # The key index only; the minimizations' certificate is apart.
        if all(index is not c for c in certificates):
            looked_up[mask] += 1
        return has_subset_of(index, mask)

    def counting_minimize(ch, full, mask, proper):
        certificates.append(proper)
        minimized.append(mask)
        return minimize(ch, full, mask, proper)

    monkeypatch.setattr(SubsetIndex, "has_subset_of", counting_lookup)
    monkeypatch.setattr(keys_module, "_minimize_mask", counting_minimize)
    keys = enumerate_keys(aug)
    assert len(keys) > 1
    assert len({id(c) for c in certificates}) == 1  # one certificate per saturation
    assert looked_up and max(looked_up.values()) == 1
    assert len(minimized) == len(keys)
    assert [k.mask for k in keys] == brute_keys(aug)


def saturation_work(monkeypatch, base):
    """The keys of ``base`` and the work of saturating it: lookups in the
    key index (not the minimizations' certificate), minimizations and
    closures."""
    calls = {"lookup": 0, "minimize": 0, "close": 0}
    has_subset_of = SubsetIndex.has_subset_of
    minimize = keys_module._minimize_mask
    close = _Chainer.close

    certificates = []

    def counting_lookup(index, mask):
        if all(index is not c for c in certificates):  # the key index only
            calls["lookup"] += 1
        return has_subset_of(index, mask)

    def counting_minimize(ch, full, mask, proper):
        certificates.append(proper)
        calls["minimize"] += 1
        return minimize(ch, full, mask, proper)

    def counting_close(ch, mask):
        calls["close"] += 1
        return close(ch, mask)

    monkeypatch.setattr(SubsetIndex, "has_subset_of", counting_lookup)
    monkeypatch.setattr(keys_module, "_minimize_mask", counting_minimize)
    monkeypatch.setattr(_Chainer, "close", counting_close)
    keys = enumerate_keys(base)
    monkeypatch.undo()
    return keys, calls


def test_saturation_retires_rules_whose_premise_holds_a_key(monkeypatch):
    # A compiled rule whose premise holds a known key only rewrites into
    # supersets of that key, so it leaves every later scan, and a rule
    # whose premise plus one element e of a key holds a known key, and
    # whose conclusion misses e, leaves the scan of that key. The same
    # saturation looks up 74 rewrites with neither and 57 with the
    # first alone; the keys and the minimizations (one per key) are the
    # same either way.
    base = gen_poset_convexity(gen_random_poset(10, 1))
    aug = augment_with_inconsistency(base, ConsistencyGraph(base.ground, [(0, 9), (2, 7), (4, 5)]))
    keys, calls = saturation_work(monkeypatch, aug)
    assert len(keys) == 18
    assert (calls["lookup"], calls["minimize"]) == (27, 18)
    assert [k.mask for k in keys] == brute_keys(aug)


def test_convexity_benchmark_saturation_work(monkeypatch):
    # Instance 0 of the convexity benchmark, from the same text the
    # benchmark runs. It looks up 4,738 rewrites when only rules whose
    # premise holds a key are retired; the keys and closures are the same.
    pin = WORKLOADS["convexity"]["instances"][0]
    text = _load("perfbench_run", "run.py").canonical_text("poset_convexity", pin["params"])
    keys, calls = saturation_work(monkeypatch, augment_with_inconsistency(*parse_instance(text)))
    assert len(keys) == 260
    assert (calls["lookup"], calls["close"]) == (1092, 612)


def test_doubling_saturation_closes_24_sets(monkeypatch):
    # Minimizing the full set of 22 elements closes 22 remainders: 12
    # close to full and 10 fail, and those 10 proper closed sets become
    # the saturation's certificate. The 1024 later minimizations then make
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


def test_minimizing_first_leaves_saturation_work_unchanged(monkeypatch):
    # The certificate belongs to one saturation, and its first
    # minimization fills it; a saturation of the same base beforehand
    # leaves nothing behind, so the second still makes its 24 closures
    # and finds the same keys.
    aug = augment_with_inconsistency(*gen_exponential(10))
    first = enumerate_keys(aug)
    calls = 0
    close = _Chainer.close

    def counting_close(ch, mask):
        nonlocal calls
        calls += 1
        return close(ch, mask)

    monkeypatch.setattr(_Chainer, "close", counting_close)
    keys = enumerate_keys(aug)
    assert calls == 24
    assert len(keys) == 1025
    assert keys == first
