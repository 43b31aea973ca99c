"""Slow reference implementations used to pin expected test values.

Everything here works on plain frozensets of labels and rescans rules
until nothing changes, sharing no code with the bitmask kernels under
test. Keep it dumb; speed is irrelevant at test sizes. The exceptions
read int masks: the key scan, which closes every subset of up to 16
elements, and the two certificates, of keys and of solutions, which run
on bases past the exhaustive limit with thousands of rules. The key scan
and the key certificate share one rescanning closure of their own.
"""

from functools import cache
from itertools import chain, combinations


@cache
def rule_pairs(base):
    """The rules of ``base`` as label-set pairs, built once per base:
    bases are immutable, and equal bases have equal pairs."""
    labels = base.ground.labels
    return tuple(
        (frozenset(labels[i] for i in range(len(labels)) if p >> i & 1),
         frozenset(labels[i] for i in range(len(labels)) if c >> i & 1))
        for p, c in base.rules
    )


def edge_pairs(graph):
    return [frozenset(pair) for pair in graph.edge_labels()]


def subsets(labels):
    labels = tuple(labels)
    return (
        frozenset(c)
        for c in chain.from_iterable(
            combinations(labels, k) for k in range(len(labels) + 1)
        )
    )


def naive_close(base, labels):
    cur = frozenset(labels)
    rules = rule_pairs(base)
    changed = True
    while changed:
        changed = False
        for prem, concl in rules:
            if prem <= cur and not concl <= cur:
                cur |= concl
                changed = True
    return cur


def naive_is_closed(base, labels):
    s = frozenset(labels)
    return all(concl <= s for prem, concl in rule_pairs(base) if prem <= s)


def naive_family(base):
    return [s for s in subsets(base.ground.labels) if naive_is_closed(base, s)]


def maximal_only(sets):
    sets = list(sets)
    return [s for s in sets if not any(s < t for t in sets)]


def minimal_only(sets):
    sets = list(sets)
    return [s for s in sets if not any(t < s for t in sets)]


def naive_consistent(graph, labels):
    s = frozenset(labels)
    return not any(e <= s for e in edge_pairs(graph))


def naive_solve(base, graph):
    good = [s for s in naive_family(base) if naive_consistent(graph, s)]
    return set(maximal_only(good))


def naive_coatoms(base):
    full = frozenset(base.ground.labels)
    return set(maximal_only([s for s in naive_family(base) if s != full]))


def naive_keys(base):
    full = frozenset(base.ground.labels)
    closing = [s for s in subsets(base.ground.labels) if naive_close(base, s) == full]
    return set(minimal_only(closing))


def mask_close(rules, mask):
    """The closure of ``mask`` under the ``(premise, conclusion)`` mask
    pairs ``rules``, rescanning them until nothing changes."""
    changed = True
    while changed:
        changed = False
        for p, c in rules:
            if p & ~mask == 0 and c & ~mask:
                mask |= c
                changed = True
    return mask


def brute_keys(base):
    """The minimal keys of ``base`` as int masks in lectic order.

    Every subset is visited in increasing order, after all of its own
    subsets. It is a superkey when one of the subsets one element smaller
    is, else when it closes to the full set, and then it is a key.
    """
    n, full, rules = base.ground.n, base.ground.full_mask, base.rules
    superkey = bytearray(1 << n)
    keys = []
    for m in range(1 << n):
        if any(superkey[m & ~(1 << i)] for i in range(n) if m >> i & 1):
            superkey[m] = 1
        elif mask_close(rules, m) == full:
            superkey[m] = 1
            keys.append(m)
    return keys


def certifies_keys(base, keys):
    """Whether the int masks ``keys`` are exactly the minimal keys of ``base``.

    Every member must close to the full set and fall short of it once
    any one of its elements is dropped: |k| + 1 closures per key. The
    family is then complete iff it is not empty and, for every member k
    and every rule A -> B of ``base.rules`` with B meeting k, A | (k - B)
    holds a member (Lucchesi and Osborn 1978). One pass over keys times
    rules, with no saturation: nothing is minimized, retired or skipped.
    """
    full = base.ground.full_mask
    rules = base.rules
    family = list(keys)
    if not family or len(set(family)) != len(family):
        return False
    for k in family:
        if mask_close(rules, k) != full:
            return False
        drops = (k & ~(1 << i) for i in range(base.ground.n) if k >> i & 1)
        if any(mask_close(rules, d) == full for d in drops):
            return False
    rewrites = {a | (k & ~b) for k in family for a, b in rules if b & k}
    by_size = sorted(family, key=int.bit_count)
    return all(any(m & ~s == 0 for m in by_size) for s in rewrites)


def certifies_solutions(n, keys, solutions):
    """None when the int masks ``solutions`` are exactly the maximal
    subsets of 0..n-1 holding no member of ``keys``, else a witness mask.

    The solutions must form an antichain; a listed solution that lies
    inside another one, or repeats, is returned as the witness. Then the
    complements of the solutions must be exactly the minimal
    transversals of the keys, which Fredman and Khachiyan's algorithm A
    (1996) decides. It minimizes its input, hence the antichain check.
    Its witness is returned complemented: a set S for which exactly one
    of "S holds no key" and "S lies inside a listed solution" is true.
    """
    full = (1 << n) - 1
    solutions = list(solutions)
    for s in solutions:
        if sum(s & ~t == 0 for t in solutions) != 1:
            return s

    def minimized(sets):
        out = []
        for s in sorted(set(sets), key=int.bit_count):
            if not any(m & ~s == 0 for m in out):
                out.append(s)
        return out

    def dual(f, g):
        # None when the antichain g is the minimal transversals of the
        # antichain f, else a set W that hits every member of f and holds
        # no member of g, or holds a member of g and misses one of f.
        for a in f:
            for b in g:
                if a & b == 0:
                    return full & ~a
        # The dual of no sets is {∅}, and {∅} is the dual of none.
        if not f:
            return None if g == [0] else 0
        if not g:
            return None if f == [0] else full
        counts = [0] * n
        for m in f + g:
            for i in range(n):
                counts[i] += m >> i & 1
        bit = 1 << max(range(n), key=counts.__getitem__)
        # f = x f1 + f0 and g = x g1 + g0: g is the dual of f iff g0 is
        # the dual of f0 + f1 and g0 + g1 the dual of f0.
        f0 = [a for a in f if not a & bit]
        g0 = [b for b in g if not b & bit]
        w = dual(minimized(f0 + [a ^ bit for a in f if a & bit]), g0)
        if w is not None:
            return w & ~bit
        w = dual(f0, minimized(g0 + [b ^ bit for b in g if b & bit]))
        return None if w is None else w | bit

    w = dual(minimized(keys), [full & ~s for s in solutions])
    return None if w is None else full & ~w


def greedy_minimize(base, labels):
    """Drop elements of a superkey in decreasing ground order while the
    rest still closes to the full set; the one key this order gives."""
    full = frozenset(base.ground.labels)
    cur = frozenset(labels)
    for lab in reversed(base.ground.labels):
        if lab in cur and naive_close(base, cur - {lab}) == full:
            cur -= {lab}
    return cur


def naive_covers(base, labels):
    f = frozenset(labels)
    above = [s for s in naive_family(base) if f < s]
    return set(minimal_only(above))


def naive_meet_irreducibles(base):
    """(M, unique upper cover) pairs, as frozenset pairs."""
    fam = naive_family(base)
    out = []
    for m in fam:
        cov = minimal_only(s for s in fam if m < s)
        if len(cov) == 1:
            out.append((m, cov[0]))
    return out


def naive_mingens(base, label):
    """Minimal non-empty sets whose closure contains the element."""
    hits = [
        s for s in subsets(base.ground.labels) if s and label in naive_close(base, s)
    ]
    return set(minimal_only(hits))


def naive_key_splitter(base, graph):
    """A function splitting a key, given as labels, along a conflict edge.

    It returns ``((u, v), gen_u, gen_v)`` for the first edge (u, v), in
    the graph's order, on which the key is the union of a minimal
    generator of u and one of v, taking generators in sorted order, and
    None when no edge splits it. Every key of the augmented base splits;
    this is the fact behind the bounded-Carathéodory result. Every
    subset is closed once, here, and each endpoint's generators (those
    of naive_mingens) are listed once, not once per key.
    """
    edges = graph.edge_labels()
    closures = [(s, naive_close(base, s)) for s in subsets(base.ground.labels) if s]
    gens = {
        x: sorted(minimal_only(s for s, c in closures if x in c), key=sorted)
        for edge in edges
        for x in edge
    }

    def split(key):
        key = frozenset(key)
        for u, v in edges:
            for a in gens[u]:
                if a <= key:
                    for b in gens[v]:
                        if a | b == key:
                            return (u, v), a, b
        return None

    return split


def naive_caratheodory(base):
    best = 1
    for x in base.ground.labels:
        for gen in naive_mingens(base, x):
            best = max(best, len(gen))
    return best


def naive_mis(ground_labels, edge_label_sets):
    edges = [frozenset(e) for e in edge_label_sets]
    indep = [s for s in subsets(ground_labels) if not any(e <= s for e in edges)]
    return set(maximal_only(indep))


def naive_mis_masks(n, edge_masks):
    """naive_mis over the ground 0..n-1, with sets as bit masks, sorted."""
    edges = [{i for i in range(n) if e >> i & 1} for e in edge_masks]
    return sorted(sum(1 << i for i in s) for s in naive_mis(range(n), edges))


def naive_transversals(ground_labels, edge_label_sets):
    edges = [frozenset(e) for e in edge_label_sets]
    hitting = [s for s in subsets(ground_labels) if all(s & e for e in edges)]
    return set(minimal_only(hitting))


def naive_standard(base):
    if naive_close(base, ()) != frozenset():
        return False
    for x in base.ground.labels:
        if not naive_is_closed(base, naive_close(base, [x]) - {x}):
            return False
    return True


def naive_atoms(base):
    bottom = naive_close(base, ())
    above = [s for s in naive_family(base) if bottom < s]
    return minimal_only(above)


def naive_atomistic(base):
    return all(naive_close(base, [x]) == {x} for x in base.ground.labels)


def naive_distributive(base):
    fam = naive_family(base)
    closed = set(fam)
    return all(a | b in closed for a in fam for b in fam)


def naive_modular(base):
    fam = naive_family(base)
    for f1 in fam:
        for f2 in fam:
            if not f1 <= f2:
                continue
            for f3 in fam:
                if naive_close(base, f1 | (f2 & f3)) != naive_close(base, f1 | f3) & f2:
                    return False
    return True


def naive_biatomic(base):
    fam = naive_family(base)
    atoms = naive_atoms(base)
    for f1 in fam:
        for f2 in fam:
            joined = naive_close(base, f1 | f2)
            for a in atoms:
                if not a <= joined or a <= f1 or a <= f2:
                    continue
                if not any(
                    a <= naive_close(base, a1 | a2)
                    for a1 in atoms
                    if a1 <= f1
                    for a2 in atoms
                    if a2 <= f2
                ):
                    return False
    return True


def naive_independent(base, labels):
    labels = frozenset(labels)
    for y1 in subsets(labels):
        for y2 in subsets(labels):
            if naive_close(base, y1 & y2) != naive_close(base, y1) & naive_close(base, y2):
                return False
    return True


def naive_chain_condition(base, labels):
    """The chain form of independence: taking the elements in ground
    order, each prefix's closure meets the next element's closure in
    cl(∅). In modular systems it is equivalent to independence."""
    s = frozenset(labels)
    elems = [x for x in base.ground.labels if x in s]
    bottom = naive_close(base, ())
    return all(
        naive_close(base, elems[:i]) & naive_close(base, elems[i : i + 1]) == bottom
        for i in range(1, len(elems))
    )


def naive_arrows(base):
    """(meet_irr, down, up): down holds (x, M), up holds (M, x), M a frozenset."""
    mi = naive_meet_irreducibles(base)
    down = set()
    up = set()
    for m, m_star in mi:
        for x in base.ground.labels:
            if x in m:
                continue
            if x in m_star:
                down.add((x, m))
            if naive_close(base, [x]) - {x} <= m:
                up.add((m, x))
    return mi, down, up


def naive_d_arcs(base):
    mi, down, up = naive_arrows(base)
    arcs = set()
    for m, _ in mi:
        downs = [x for x, mm in down if mm == m]
        ups = [y for mm, y in up if mm == m]
        for x in downs:
            for y in ups:
                if x != y:
                    arcs.add((x, y))
    return arcs


def naive_has_cycle(arcs):
    """Directed cycle via transitive closure."""
    reach = {}
    for x, y in arcs:
        reach.setdefault(x, set()).add(y)
    changed = True
    while changed:
        changed = False
        for x, outs in reach.items():
            extra = set()
            for y in outs:
                extra |= reach.get(y, set())
            if not extra <= outs:
                outs |= extra
                changed = True
    return any(x in outs for x, outs in reach.items())


def labelset(elemset):
    return frozenset(elemset.labels())


def as_label_sets(elemsets):
    return {labelset(s) for s in elemsets}
