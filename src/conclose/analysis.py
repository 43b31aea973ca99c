"""Structural checks on the closure system of an implicational base.

Only modularity is evaluated over the closed-set family, so it is desk
scale: it reads the family's cover graph, and enumerate_closed_sets
refuses ground sets above EXHAUSTIVE_LIMIT. Independence closes every
subset of a set once and refuses sets above the same limit; analyze
reports either check n/a where it refuses. The other checks need no
family: distributivity is read off the rules, biatomicity off the
splits of minimal generators, and minimal generators and
meet-irreducibles (hence the arrow relations and the dependency
digraph) are key queries.
Each failed check carries a concrete witness: the sets or elements
violating the definition, plus a rendered explanation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from graphlib import CycleError, TopologicalSorter
from itertools import combinations
from typing import Any

from .closure import _chainer, _closed_masks, _covers
from .core import (
    EXHAUSTIVE_LIMIT,
    ElemSet,
    GroundSet,
    ImplicationalBase,
    _refuse_past_exhaustive_limit,
    iter_bits,
    iter_submasks,
)
from .errors import GroundSetTooLarge, HypothesesNotMet, MismatchedGroundSets, NotStandard
from .keys import _element_keys, caratheodory_number
from .solver import meet_irreducibles


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one structural check. Falsy iff the property fails."""

    ok: bool
    witness: tuple = ()
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _failed(g: GroundSet, text: str, *masks: int) -> CheckResult:
    # A failed check witnessed by the sets of ``masks``; ``text`` names them by position.
    sets = tuple(ElemSet(g, m) for m in masks)
    return CheckResult(False, sets, text.format(*sets))


def check_standard(base: ImplicationalBase) -> CheckResult:
    """Standard means: the empty set is closed, and removing an element
    from its own closure leaves a closed set."""
    ch = _chainer(base)
    g = base.ground
    bottom = ch.close(0)
    if bottom != 0:
        return _failed(g, "closure of the empty set is {!r}, not empty", bottom)
    for x in range(g.n):
        bit = 1 << x
        reduced = ch.close(bit) & ~bit
        if ch.close(reduced) != reduced:
            return CheckResult(
                False,
                (x, ElemSet(g, reduced)),
                f"closure of {g.labels[x]} minus itself, {ElemSet(g, reduced)!r}, is not closed",
            )
    return CheckResult(True)


def check_atomistic(base: ImplicationalBase) -> CheckResult:
    """Atomistic means every singleton is closed."""
    ch = _chainer(base)
    g = base.ground
    for x in range(g.n):
        bit = 1 << x
        cl = ch.close(bit)
        if cl != bit:
            return CheckResult(
                False,
                (x, ElemSet(g, cl)),
                f"closure of {g.labels[x]} is {ElemSet(g, cl)!r}, not the singleton",
            )
    return CheckResult(True)


def check_biatomic(base: ImplicationalBase) -> CheckResult:
    """Every atom below a join of two closed sets lies below the join of
    an atom from each.

    Atoms are the closed sets covering the closure of the empty set, so
    the check also makes sense for non-standard and non-atomistic
    inputs, where atoms need not be singletons. Atoms already inside
    one of the two closed sets witness themselves.

    Closed sets are not enumerated. If atom p = cl({x}) lies below
    cl(f1 ∪ f2) but inside neither, a minimal generator A of x lies
    inside f1 ∪ f2, and (cl(A ∩ f1), cl(A ∖ f1)) fails too: it lies below
    (f1, f2) and p below its join. No proper part of A reaches x, so each
    split of A into two non-empty parts is tested, once, the part
    holding A's lowest element first.
    """
    ch = _chainer(base)
    g = base.ground
    bottom = ch.close(0)
    atom_masks = _covers(ch, bottom)
    pair_close = [[ch.close(a | b) for b in atom_masks] for a in atom_masks]
    parts: dict[int, tuple[int, list[int]]] = {}  # a split part: its closure, the atoms below it

    def part(s: int) -> tuple[int, list[int]]:
        got = parts.get(s)
        if got is None:
            f = ch.close(s)
            got = parts[s] = (f, [i for i, am in enumerate(atom_masks) if am & ~f == 0])
        return got

    for p in atom_masks:
        for gen in _element_keys(base, next(iter_bits(p & ~bottom))):
            for t in iter_submasks(gen & (gen - 1)):  # all but the lowest element
                if not t:
                    break
                f1, in1 = part(gen ^ t)
                f2, in2 = part(t)
                if not any(p & ~pair_close[i][j] == 0 for i in in1 for j in in2):
                    text = "atom {2!r} is below the join of {0!r} and {1!r} but below no atom-pair join"
                    return _failed(g, text, f1, f2, p)
    return CheckResult(True)


def check_distributive(base: ImplicationalBase) -> CheckResult:
    """The closed sets form a distributive lattice iff they are closed under union.

    That holds iff every rule ``P -> C`` has C inside U = close(∅) ∪ the
    union of close({p}) over p in P, so one pass over the rules decides
    it. For a rule that fails, U is rebuilt one close({p}) at a time; the
    final U contains P but not C, so some step joins two closed sets
    into a set that is not closed, and the first such pair is the
    witness.
    """
    ch = _chainer(base)
    g = base.ground
    bottom = ch.close(0)
    single = [ch.close(1 << i) for i in range(g.n)]
    for pmask, cmask in zip(ch.premises, ch.conclusions):
        u = bottom
        for p in iter_bits(pmask):
            u |= single[p]
        if cmask & ~u == 0:
            continue
        u = bottom
        for p in iter_bits(pmask):
            v = single[p]
            if ch.close(u | v) != u | v:
                return _failed(g, "union of closed sets {!r} and {!r} is not closed", u, v)
            u |= v
    return CheckResult(True)


def check_modular(base: ImplicationalBase) -> CheckResult:
    """Modular law, read off the cover graph of the closed sets.

    A finite lattice is modular iff it is upper and lower semimodular
    (Birkhoff): for two distinct upper covers a, b of one closed set,
    cl(a ∪ b) covers both; for two distinct lower covers a, b of one
    closed set, both cover a ∩ b. A failure gives a triple breaking the
    modular law. If j = cl(a ∪ b) does not cover a, a cover d of a
    inside j gives (a <= d, b), since d ∩ b is the set both cover. If a
    does not cover a ∩ b, a lower cover e of a containing a ∩ b gives
    (e <= a, b), since cl(e ∪ b) is the set covering both.
    """
    ch = _chainer(base)
    g = base.ground
    up = {f: _covers(ch, f) for f in _closed_masks(base)}
    down: dict[int, list[int]] = {f: [] for f in up}
    for f, ups in up.items():
        for u in ups:
            down[u].append(f)

    fails = "modular law fails for {!r} <= {!r} with {!r}"
    for ups in up.values():
        for a, b in combinations(ups, 2):
            j = ch.close(a | b)
            for x, y in ((a, b), (b, a)):
                if j not in up[x]:
                    return _failed(g, fails, x, next(d for d in up[x] if d & ~j == 0), y)
    for lows in down.values():
        for a, b in combinations(lows, 2):
            meet = a & b
            for x, y in ((a, b), (b, a)):
                if x not in up[meet]:
                    return _failed(g, fails, next(e for e in down[x] if meet & ~e == 0), x, y)
    return CheckResult(True)


def check_independent(base: ImplicationalBase, subset: ElemSet) -> CheckResult:
    """Independence of a set: closure commutes with intersection on all
    pairs of its subsets. Refuses sets above EXHAUSTIVE_LIMIT."""
    if subset.ground != base.ground:
        raise MismatchedGroundSets("set and base over different ground sets")
    return _check_independent(base, subset.mask, None)


def _check_independent(base: ImplicationalBase, mask: int, memo: dict[int, int] | None) -> CheckResult:
    """check_independent on ``mask``, the set X, reading and filling the
    closure memo when given one.

    Closure commutes with intersection on all pairs of subsets of X iff
    every Y ⊆ X has cl(Y) = cl(X) ∩ ⋂ cl(X ∖ {b}) over b in X ∖ Y: Y is
    the intersection of those X ∖ {b}, and the right-hand side commutes
    with intersection. The subsets are walked depth first, each child
    Y ∖ {b} taking b below every element missing from Y, so each is
    reached once and its test is cl(Y ∖ {b}) = cl(Y) ∩ cl(X ∖ {b}) with
    the parent Y passed. The walk holds one path and the siblings left
    on it, not a closure per subset, and a failure is the pair
    (X ∖ {b}, Y), larger mask first.
    """
    _refuse_past_exhaustive_limit(mask.bit_count())
    ch = _chainer(base)
    if memo is None:
        close = ch.close
    else:

        def close(y: int) -> int:
            c = memo.get(y)
            if c is None:
                c = memo[y] = ch.close(y)
            return c

    # co[b] is cl(X ∖ {b}). X's children are all tested before any deeper
    # subset and fill it; their own test holds trivially, as
    # cl(X ∖ {b}) lies inside cl(X).
    co: dict[int, int] = {}
    stack = [(mask, close(mask), mask)]  # (Y, cl(Y), the elements Y's children may drop)
    while stack:
        y, cy, free = stack.pop()
        while free:
            bit = 1 << (free.bit_length() - 1)
            free ^= bit
            c = close(y ^ bit)
            if c != cy & co.setdefault(bit, c):
                return _failed(
                    base.ground,
                    "closure of the intersection of {!r} and {!r} differs from the "
                    "intersection of closures",
                    *sorted((mask ^ bit, y), reverse=True),
                )
            if free:
                stack.append((y ^ bit, c, free))
    return CheckResult(True)


def check_mingen_independence(base: ImplicationalBase) -> CheckResult:
    """Every minimal generator of every element is an independent set.

    A generator above EXHAUSTIVE_LIMIT is skipped while the others are
    checked, and GroundSetTooLarge is raised only if none of them fails,
    so the verdict does not depend on element order.
    """
    # A generator shared by several elements is checked once, and the
    # closures of subsets shared between generators are computed once.
    # An element of close(∅) has the empty key, standing for singletons:
    # both are always independent.
    g = base.ground
    memo: dict[int, int] = {}
    checked: set[int] = set()
    refused = 0  # the size of the first generator past the limit
    for x in range(g.n):
        for gen in _element_keys(base, x):
            if gen in checked:
                continue
            checked.add(gen)
            if gen.bit_count() > EXHAUSTIVE_LIMIT:
                refused = refused or gen.bit_count()
                continue
            res = _check_independent(base, gen, memo)
            if not res.ok:
                gen_set = ElemSet(g, gen)
                return CheckResult(
                    False,
                    (x, gen_set) + res.witness,
                    f"minimal generator {gen_set!r} of {g.labels[x]} is not independent: "
                    + res.detail,
                )
    _refuse_past_exhaustive_limit(refused)
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Arrow relations and the dependency relation on elements


@dataclass(frozen=True)
class ArrowRelations:
    """Down and up arrows between elements and meet-irreducible sets.

    ``meet_irr`` lists (M, M*) pairs, M* the unique upper cover.
    ``down`` holds (element, M-index) pairs where the element is outside
    M but inside M*; ``up`` holds (M-index, element) pairs where the
    element is outside M and its closure minus itself is inside M.
    """

    ground: GroundSet
    meet_irr: tuple[tuple[ElemSet, ElemSet], ...]
    down: frozenset[tuple[int, int]]
    up: frozenset[tuple[int, int]]


def arrow_relations(base: ImplicationalBase) -> ArrowRelations:
    """Compute both arrow relations. Requires a standard system, since
    the up arrow reads the closure of a singleton minus the element."""
    std = check_standard(base)
    if not std.ok:
        raise NotStandard(std.detail)
    mi = meet_irreducibles(base)
    ch = _chainer(base)
    g = base.ground
    x_star = [ch.close(1 << x) & ~(1 << x) for x in range(g.n)]
    down = set()
    up = set()
    for idx, (m, m_star) in enumerate(mi):
        mm = m.mask
        sm = m_star.mask
        for x in range(g.n):
            bit = 1 << x
            if mm & bit:
                continue
            if sm & bit:
                down.add((x, idx))
            if x_star[x] & ~mm == 0:
                up.add((idx, x))
    return ArrowRelations(g, tuple(mi), frozenset(down), frozenset(up))


@dataclass(frozen=True)
class DRelation:
    """Element dependency arcs: x relates to y when some meet-irreducible
    set has a down arrow from x and an up arrow to y.

    Arcs connect distinct elements only. Positions where the same element
    carries both arrows on one meet-irreducible are not dependencies; they
    are recorded in self_loops for inspection.
    """

    ground: GroundSet
    arcs: frozenset[tuple[int, int]]
    self_loops: tuple[int, ...]


def d_relation(base: ImplicationalBase) -> DRelation:
    ar = arrow_relations(base)
    n = base.ground.n
    arcs = {(x, y) for x, idx in ar.down for y in range(n) if (idx, y) in ar.up and x != y}
    loops = sorted({x for x, idx in ar.down if (idx, x) in ar.up})
    return DRelation(base.ground, frozenset(arcs), tuple(loops))


def _find_cycle(rel: DRelation) -> tuple[int, ...] | None:
    # Arc x -> y makes x a predecessor of y. CycleError repeats the first
    # node at the end; drop it and start the cycle at its smallest node.
    sorter: TopologicalSorter[int] = TopologicalSorter()
    for x, y in sorted(rel.arcs):
        sorter.add(y, x)
    try:
        sorter.prepare()
    except CycleError as err:
        cycle = err.args[1][:-1]
        at = cycle.index(min(cycle))
        return tuple(cycle[at:] + cycle[:at])
    return None


def has_d_cycle(base: ImplicationalBase) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the dependency relation has a directed cycle.

    Only arcs between distinct elements form cycles; self-composed
    arrow positions are reported on the relation but do not count.
    Returns the cycle as a tuple of element indices (x1, ..., xk)
    with each related to the next and the last back to the first, x1
    the smallest.
    """
    cycle = _find_cycle(d_relation(base))
    return cycle is not None, cycle


def verify_log_bound(base: ImplicationalBase) -> bool:
    """Check that the largest minimal generator fits the logarithmic
    bound in the ground-set size.

    Only meaningful for atomistic, biatomic systems whose minimal
    generators are all independent; raises HypothesesNotMet listing the
    failed hypotheses otherwise.
    """
    failed = []
    if not check_atomistic(base).ok:
        failed.append("atomistic")
    if not check_biatomic(base).ok:
        failed.append("biatomic")
    if not check_mingen_independence(base).ok:
        failed.append("mingen_independence")
    if failed:
        raise HypothesesNotMet(failed)
    n = base.ground.n
    return caratheodory_number(base) <= n.bit_length()


# ---------------------------------------------------------------------------
# Aggregate report


@dataclass(frozen=True)
class AnalysisReport:
    """One-stop structural summary of a closure system.

    Four fields are None when they do not apply: modular past
    EXHAUSTIVE_LIMIT and mingen_all_independent once a minimal generator
    is past it (the refusal is the witness of each), lower_bounded for a
    non-standard system, and log_bound_holds unless the atomistic,
    biatomic and generator-independence hypotheses hold.
    """

    n_elements: int
    standard: bool
    atomistic: bool
    biatomic: bool
    distributive: bool
    modular: bool | None
    lower_bounded: bool | None
    caratheodory: int
    log_bound_holds: bool | None
    mingen_all_independent: bool | None
    d_self_loops: tuple[str, ...]
    witnesses: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def render_text(self) -> str:
        def tern(v) -> str:
            if v is None:
                return "n/a"
            return "yes" if v else "no"

        rows = [
            ("elements", str(self.n_elements)),
            ("standard", tern(self.standard)),
            ("atomistic", tern(self.atomistic)),
            ("biatomic", tern(self.biatomic)),
            ("distributive", tern(self.distributive)),
            ("modular", tern(self.modular)),
            ("lower bounded", tern(self.lower_bounded)),
            ("caratheodory number", str(self.caratheodory)),
            ("log bound holds", tern(self.log_bound_holds)),
            ("min generators independent", tern(self.mingen_all_independent)),
            ("d-relation self loops", " ".join(self.d_self_loops) or "none"),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"{name.ljust(width)} : {value}" for name, value in rows]
        for name in sorted(self.witnesses):
            lines.append(f"witness[{name}] : {self.witnesses[name]}")
        return "\n".join(lines)


def analyze(base: ImplicationalBase) -> AnalysisReport:
    """Run every structural check and collect the outcomes."""
    witnesses: dict[str, str] = {}

    def note(name: str, res: CheckResult) -> bool:
        if not res.ok:
            witnesses[name] = res.detail
        return res.ok

    def note_exhaustive(name: str, check) -> bool | None:
        # Past EXHAUSTIVE_LIMIT the check is n/a, its refusal the witness.
        try:
            return note(name, check(base))
        except GroundSetTooLarge as exc:
            witnesses[name] = str(exc)
            return None

    standard = note("standard", check_standard(base))
    atomistic = note("atomistic", check_atomistic(base))
    biatomic = note("biatomic", check_biatomic(base))
    distributive = note("distributive", check_distributive(base))
    modular = note_exhaustive("modular", check_modular)
    mingen_ok = note_exhaustive("mingen_independence", check_mingen_independence)
    caratheodory = caratheodory_number(base)

    lower_bounded: bool | None = None
    loops: tuple[str, ...] = ()
    if standard:
        rel = d_relation(base)
        cycle = _find_cycle(rel)
        lower_bounded = cycle is None
        if cycle:
            labels = base.ground.labels
            witnesses["d_cycle"] = " -> ".join(labels[i] for i in cycle + (cycle[0],))
        loops = tuple(base.ground.labels[x] for x in rel.self_loops)
    else:
        witnesses.setdefault("lower_bounded", "not standard, arrow relations undefined")

    log_bound: bool | None = None
    if atomistic and biatomic and mingen_ok:
        log_bound = caratheodory <= base.ground.n.bit_length()

    return AnalysisReport(
        n_elements=base.ground.n,
        standard=standard,
        atomistic=atomistic,
        biatomic=biatomic,
        distributive=distributive,
        modular=modular,
        lower_bounded=lower_bounded,
        caratheodory=caratheodory,
        log_bound_holds=log_bound,
        mingen_all_independent=mingen_ok,
        d_self_loops=loops,
        witnesses=witnesses,
    )
