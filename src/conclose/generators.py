"""Constructions of instance families with known structure.

Each generator returns ready-to-solve objects over freshly built ground
sets: the co-atom reduction that plants one conflict edge over an
arbitrary base, a positive-3-CNF family whose closure system is lower
bounded, a family whose augmented key count doubles with each size
step, convexity bases of finite posets, binary projective geometries,
and seeded random instances for fuzzing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

from .core import ConsistencyGraph, GroundSet, ImplicationalBase
from .errors import InvalidParams, ParseError


def _fresh(label: str, taken: set[str]) -> str:
    while label in taken:
        label += "'"
    return label


def gen_reduction(
    base: ImplicationalBase,
) -> tuple[ImplicationalBase, ConsistencyGraph]:
    """Plant one conflict edge whose solutions mirror the co-atoms of ``base``.

    Two fresh elements u and v are appended, one rule sends the whole
    original ground set to both, and the only edge joins them. Every
    maximal consistent closed set of the result is a co-atom of the
    original system plus exactly one of u, v.
    """
    old = base.ground
    taken = set(old.labels)
    u_lab = _fresh("u", taken)
    taken.add(u_lab)
    v_lab = _fresh("v", taken)
    g = GroundSet(old.labels + (u_lab, v_lab))

    # Old indices are preserved by appending, so the old rules keep their masks.
    rules = [*base.rules, (old.full_mask, 0b11 << old.n)]
    graph = ConsistencyGraph(g, [(old.n, old.n + 1)])
    return ImplicationalBase(g, rules), graph


@dataclass(frozen=True)
class CnfFormula:
    """A positive 3-CNF: clauses of exactly three distinct variables,
    no negations. Variables are numbered from 1."""

    n_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n_vars < 0:
            raise InvalidParams("variable count must be non-negative")
        for cl in self.clauses:
            if len(cl) != 3 or len(set(cl)) != 3:
                raise InvalidParams(f"clause {cl} must have three distinct variables")
            if any(not 1 <= v <= self.n_vars for v in cl):
                raise InvalidParams(f"clause {cl} uses a variable out of range")
        object.__setattr__(self, "clauses", tuple(tuple(sorted(cl)) for cl in self.clauses))


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """Read a positive 3-CNF in DIMACS-like form.

    ``c`` lines are comments, one ``p cnf <vars> <clauses>`` header,
    then clause lines of positive literals terminated by 0. Negative
    literals are rejected.
    """
    header = 0  # the header's line number, 0 until it is read
    clauses: list[tuple[int, int, int]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header:
                raise ParseError(no, f"duplicate 'p cnf' header (first was line {header})")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(no, "malformed problem line, expected 'p cnf <vars> <clauses>'")
            try:
                n_vars, expected = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(no, "problem line counts must be integers") from None
            if n_vars < 0:
                raise ParseError(no, "variable count must be non-negative")
            header = no
            continue
        if not header:
            raise ParseError(no, "clause before 'p cnf' header")
        try:
            lits = [int(t) for t in line.split()]
        except ValueError:
            raise ParseError(no, "clause lines must contain integers") from None
        if not lits or lits[-1] != 0:
            raise ParseError(no, "clause line must end with 0")
        lits = lits[:-1]
        if any(l <= 0 for l in lits):
            raise ParseError(no, "only positive literals are supported")
        if len(lits) != 3 or len(set(lits)) != 3:
            raise ParseError(no, "clauses must have exactly three distinct variables")
        if max(lits) > n_vars:
            raise ParseError(no, f"clause {tuple(lits)} uses a variable out of range")
        clauses.append((lits[0], lits[1], lits[2]))
    if not header:
        raise ParseError(1, "missing 'p cnf' header")
    if expected != len(clauses):
        raise ParseError(header, f"header announces {expected} clauses, found {len(clauses)}")
    return CnfFormula(n_vars, tuple(clauses))


def gen_cnf_lower_bounded(cnf: CnfFormula) -> ImplicationalBase:
    """Encode a positive 3-CNF as an implicational base over
    x-variables, per-clause y-elements, and one sink element z.

    Rules: any two variables of a common clause force z; each y forces
    z; a clause variable together with z forces that clause's y. The
    result is always standard and never has dependency cycles, and its
    co-atoms relate to the satisfying assignments of the formula.
    """
    n, m = cnf.n_vars, len(cnf.clauses)
    labels = (
        [f"x{i}" for i in range(1, n + 1)]
        + [f"y{j}" for j in range(1, m + 1)]
        + ["z"]
    )
    g = GroundSet(labels)
    z = 1 << (n + m)
    rules = []
    for clause in cnf.clauses:
        for a, b in itertools.combinations(clause, 2):
            rules.append(((1 << (a - 1)) | (1 << (b - 1)), z))
    for j in range(m):
        rules.append((1 << (n + j), z))
    for j, clause in enumerate(cnf.clauses):
        for a in clause:
            rules.append(((1 << (a - 1)) | z, 1 << (n + j)))
    return ImplicationalBase(g, rules)


def gen_exponential(n: int) -> tuple[ImplicationalBase, ConsistencyGraph]:
    """A 2n+2 element instance whose augmented base has over 2^n keys.

    Each x forces its y, all y together force both conflict endpoints,
    and picking one of x or y per index yields 2^n incomparable keys.
    """
    if n < 1:
        raise InvalidParams("n must be at least 1")
    labels = (
        [f"x{i}" for i in range(1, n + 1)]
        + [f"y{i}" for i in range(1, n + 1)]
        + ["u", "v"]
    )
    g = GroundSet(labels)
    # x_i is element i - 1, y_i element n + i - 1, u and v the last two.
    rules = [(1 << i, 1 << (n + i)) for i in range(n)]
    rules.append((((1 << n) - 1) << n, 0b11 << (2 * n)))
    graph = ConsistencyGraph(g, [(2 * n, 2 * n + 1)])
    return ImplicationalBase(g, rules), graph


# ---------------------------------------------------------------------------
# Posets and convex-set geometries


class Poset:
    """A finite partial order stored as the full reachability matrix.

    Rows are bit masks: bit j of row i says element i is below or equal
    to element j. Construction takes arbitrary (a, b) label pairs
    meaning a <= b, adds reflexivity, closes transitively, and rejects
    the result if antisymmetry breaks.
    """

    __slots__ = ("ground", "leq")

    def __init__(self, labels, pairs=()):
        g = GroundSet(tuple(labels))
        n = g.n
        rows = [1 << i for i in range(n)]
        for a, b in pairs:
            rows[g.index(a)] |= 1 << g.index(b)
        for k in range(n):  # Warshall: paths through 0..k
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i] >> j & 1 and rows[j] >> i & 1:
                    raise InvalidParams(
                        f"antisymmetry fails: {g.labels[i]} and {g.labels[j]} are mutually below each other"
                    )
        self.ground = g
        self.leq = tuple(rows)

    def less(self, i: int, j: int) -> bool:
        return i != j and bool(self.leq[i] >> j & 1)

    @classmethod
    def chain(cls, labels) -> "Poset":
        labels = tuple(labels)
        return cls(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])

    def __repr__(self) -> str:
        return f"Poset(n={self.ground.n})"


def gen_random_poset(n: int, seed: int, density: float = 0.3) -> Poset:
    """A reproducible random poset: random pairs on a shuffled line,
    closed transitively."""
    if n < 1:
        raise InvalidParams("n must be at least 1")
    rng = random.Random(seed)
    labels = [str(i) for i in range(1, n + 1)]
    order = labels[:]
    rng.shuffle(order)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((order[i], order[j]))
    return Poset(labels, pairs)


def gen_poset_convexity(poset: Poset) -> ImplicationalBase:
    """The convex-subset system of a poset: anything strictly between
    two picked elements is forced. Minimal generators have at most two
    elements, so the largest minimal generator size never exceeds 2."""
    g = poset.ground
    n = g.n
    rules = []
    for x in range(n):
        for z in range(n):
            if x == z or not poset.less(x, z):
                continue
            for y in range(n):
                if poset.less(x, y) and poset.less(y, z):
                    rules.append(((1 << x) | (1 << z), 1 << y))
    return ImplicationalBase(g, rules)


# ---------------------------------------------------------------------------
# Binary projective geometries


def gen_projective_gf2(dim: int) -> ImplicationalBase:
    """Points of the projective space over GF(2) with all collinearity rules.

    Elements are the nonzero vectors of GF(2)^(dim+1), labeled by their
    integer encoding; each line {p, q, p xor q} contributes three rules,
    two points forcing the third. The resulting closure system is
    atomistic, biatomic and modular, with largest minimal generator
    size dim + 1.
    """
    if dim not in (2, 3):
        raise InvalidParams("only dimensions 2 and 3 are supported")
    count = (1 << (dim + 1)) - 1
    labels = [str(p) for p in range(1, count + 1)]
    g = GroundSet(labels)
    rules = []
    for p in range(1, count + 1):  # point p is element p - 1
        for q in range(p + 1, count + 1):
            rules.append(((1 << (p - 1)) | (1 << (q - 1)), 1 << ((p ^ q) - 1)))
    return ImplicationalBase(g, rules)


def gen_fano() -> ImplicationalBase:
    """The seven-point projective plane over GF(2)."""
    return gen_projective_gf2(2)


# ---------------------------------------------------------------------------
# Random instances


def gen_random(
    n: int,
    n_imps: int,
    max_premise: int,
    n_edges: int,
    seed: int,
) -> tuple[ImplicationalBase, ConsistencyGraph]:
    """A reproducible random instance.

    Premises draw 1..max_premise distinct elements, conclusions one or
    two; rules whose conclusion adds nothing to their premise are
    redrawn. Edges are sampled without replacement from all pairs. A
    request for more rules than there are distinct ones returns every
    distinct rule.
    """
    if n < 1:
        raise InvalidParams("n must be at least 1")
    if max_premise < 1 or max_premise > n:
        raise InvalidParams("max_premise must be between 1 and n")
    if n_imps < 0 or n_edges < 0:
        raise InvalidParams("counts must be non-negative")
    if n_edges > n * (n - 1) // 2:
        raise InvalidParams("more edges requested than distinct pairs exist")
    rng = random.Random(seed)
    g = GroundSet([str(i) for i in range(1, n + 1)])
    elems = list(range(n))

    # Each premise size p allows C(n, c) - C(p, c) conclusions of size c.
    distinct = sum(
        comb(n, p) * sum(comb(n, c) - comb(p, c) for c in range(1, min(2, n) + 1))
        for p in range(1, max_premise + 1)
    )
    wanted = min(n_imps, distinct)
    seen: set[tuple[int, int]] = set()
    rules: list[tuple[int, int]] = []
    attempts = 0
    while len(rules) < wanted and attempts < 50 * (n_imps + 1):
        attempts += 1
        psize = rng.randint(1, max_premise)
        premise = rng.sample(elems, psize)
        csize = rng.randint(1, min(2, n))
        conclusion = rng.sample(elems, csize)
        pmask = 0
        for i in premise:
            pmask |= 1 << i
        cmask = 0
        for i in conclusion:
            cmask |= 1 << i
        if cmask & ~pmask == 0:
            continue  # conclusion inside the premise says nothing
        if (pmask, cmask) in seen:
            continue
        seen.add((pmask, cmask))
        rules.append((pmask, cmask))

    all_pairs = list(itertools.combinations(range(n), 2))
    edges = rng.sample(all_pairs, n_edges)
    return ImplicationalBase(g, rules), ConsistencyGraph(g, edges)
