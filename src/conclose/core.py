"""Ground sets, element sets, implicational bases, and consistency graphs.

Everything downstream works over a fixed GroundSet. Labels exist only
at the I/O boundary; internally every element is a dense index, every
set a Python int used as a bit mask, wrapped in an immutable ElemSet
only where it crosses the API, and every enumeration is emitted in lectic
order, meaning sets compare by their bit pattern read as an integer
with the lowest index in the least significant position.

The plain-text instance format also lives here:

    # comment
    elements: 1 2 3 4 5
    imp: 1 3 -> 2
    imp: 4 -> 1
    edge: 3 4

Element names are non-whitespace strings that contain no ``#`` or
``,`` and are not ``->``; GroundSet enforces this, so every instance
formats to text that parses back and every label can be named in the
comma-separated ``--set`` of the CLI. An instance has exactly one
``elements:`` line, any number of ``imp:`` and ``edge:`` lines, and
``#`` starts a comment anywhere on a line.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator

from .errors import (
    GroundSetTooLarge,
    MismatchedGroundSets,
    ParseError,
)

# Size guards, fixed and read where they are checked; no caller overrides
# them. MAX_GROUND also bounds the depth of the MMCS recursion in
# transversal.py, which adds one vertex per level.
MAX_GROUND = 128          # hard cap on ground-set size at construction
EXHAUSTIVE_LIMIT = 20     # refusal point for every 2^n exhaustive check
KEY_CAP = 10 ** 6         # key enumeration output cap
MIS_CAP = 10 ** 6         # transversal / independent-set output cap


def _refuse_past_exhaustive_limit(n: int) -> None:
    """Raise GroundSetTooLarge for an n-element input to an exhaustive
    check, before any of its 2^n work."""
    if n > EXHAUSTIVE_LIMIT:
        raise GroundSetTooLarge(f"{n} elements exceeds the exhaustive limit of {EXHAUSTIVE_LIMIT}")


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` in decreasing order, ``mask`` and 0 included."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SubsetIndex:
    """Subsets of an n-element ground set, asked "is some stored set inside c?".

    The index starts empty and grows by ``add``. All sets live in one
    int: set j fills the n-bit slot at offset j*(n+1), under a guard
    bit. A query keeps each slot's elements outside ``c`` (one multiply
    and one AND), then subtracts the result from the guards: a guard
    survives exactly where its slot was zero, that is, where the stored
    set lies inside ``c``. That is a few big-int operations per query
    instead of a Python loop over the sets.
    """

    __slots__ = ("n", "count", "packed", "ones", "guards")

    def __init__(self, n: int):
        self.n = n
        self.count = 0
        self.packed = self.ones = self.guards = 0  # ones: bit 0 of every slot

    def add(self, mask: int) -> None:
        shift = self.count * (self.n + 1)
        self.count += 1
        self.packed |= mask << shift
        self.ones |= 1 << shift
        self.guards |= 1 << (shift + self.n)

    def has_subset_of(self, mask: int) -> bool:
        outside = self.packed & self.ones * (~mask & ((1 << self.n) - 1))
        return (self.guards - outside) & self.guards != 0


def minimal(n: int, masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal members of ``masks``, without repeats, in lectic order."""
    index = SubsetIndex(n)
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not index.has_subset_of(m):
            index.add(m)
            kept.append(m)
    return sorted(kept)


class GroundSet:
    """An ordered universe of distinctly labeled elements.

    The label order is fixed at construction and defines the index of
    every element, hence the bit layout of every ElemSet over it.
    """

    __slots__ = ("labels", "n", "full_mask", "_index", "_hash")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        for lab in labels:
            if not isinstance(lab, str) or not lab or lab.split() != [lab]:
                raise ValueError(f"element labels must be non-empty and whitespace-free: {lab!r}")
            # The text format reads '#' as a comment and '->' as the rule
            # arrow; the CLI's --set splits its labels on ','.
            if "#" in lab:
                raise ValueError(f"'#' starts a comment and cannot be in an element label: {lab!r}")
            if "," in lab:
                raise ValueError(f"',' separates labels and cannot be in an element label: {lab!r}")
            if lab == "->":
                raise ValueError("'->' is reserved and cannot be an element label")
        if len(set(labels)) != len(labels):
            raise ValueError("element labels must be distinct")
        if len(labels) > MAX_GROUND:
            raise GroundSetTooLarge(f"{len(labels)} elements exceeds the limit of {MAX_GROUND}")
        self.labels = labels
        self.n = len(labels)
        self.full_mask = (1 << self.n) - 1
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._hash = hash(labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown element {label!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)!r})"

    # ElemSet constructors. These are the usual entry points; ElemSet
    # itself is mask-level and easy to misuse.
    def full(self) -> "ElemSet":
        return ElemSet(self, self.full_mask)

    def set_of(self, *labels: str) -> "ElemSet":
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return ElemSet(self, mask)


_BITS = bytes.maketrans(b"01", b"\0\1")


class ElemSet:
    """An immutable subset of a GroundSet, stored as a bit mask.

    It marks the API and I/O boundary: the package computes on the int
    ``mask``, which is also the lectic sort key, and reads labels off
    an ElemSet only to show it.
    """

    __slots__ = ("ground", "mask")

    def __init__(self, ground: GroundSet, mask: int):
        if not isinstance(mask, int):
            raise TypeError(f"mask {mask!r} is not an int")
        if mask < 0 or mask > ground.full_mask:
            raise ValueError(f"mask {mask:#x} does not fit a {ground.n}-element ground set")
        self.ground = ground
        self.mask = mask

    def labels(self) -> tuple[str, ...]:
        # The mask's binary digits, lowest first, as bytes 0 and 1 pick
        # the labels in one C-level pass.
        return tuple(compress(self.ground.labels, bin(self.mask)[:1:-1].encode().translate(_BITS)))

    def to_text(self) -> str:
        """Space-separated labels in ground-set order; empty string for the empty set."""
        return " ".join(self.labels())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElemSet)
            and self.mask == other.mask
            and self.ground == other.ground
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.ground._hash))

    def __repr__(self) -> str:
        return "{" + self.to_text() + "}"


class _Frozen:
    """Base of the small value classes SolveStats and SolutionSet in
    solver.py, in place of frozen dataclasses.

    Each field is a slot, set once by ``_set`` in ``__init__``, which
    takes the values in slot order; later assignment raises
    AttributeError. Instances compare and hash, only
    with their own class, by ``_key()``, which is every field in slot
    order unless a subclass narrows it; they pickle and copy through
    their constructor, with the fields as positional arguments.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    _key = _values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class ImplicationalBase:
    """An ordered collection of rules ``premise -> conclusion`` over one ground set.

    The rules are given and kept as ``(premise, conclusion)`` int mask
    pairs over ``ground``, the one rule form: ``rules`` holds them, and
    the parser, augmentation and the closure engine read and write only
    these pairs. A conclusion must be non-empty; a rule concluding
    nothing says nothing. Empty premises are legal (they force their
    conclusion into every closure) but make the system non-standard.
    Each pair is checked once, and a conclusion of 0 or a mask that is
    negative or reaches past the ground set raises ValueError.
    Exact duplicate rules are dropped at construction, keeping the first
    occurrence. Instances are immutable and safe to share across threads.
    """

    __slots__ = ("ground", "rules", "_chainer", "_hash")

    def __init__(self, ground: GroundSet, rules: Iterable[tuple[int, int]]):
        n = ground.n
        pairs = list(rules)
        for p, c in pairs:
            # A negative mask has every bit above n set, so one shift
            # finds it as it finds a mask past the ground set.
            if not c or (p | c) >> n:
                raise ValueError(
                    f"rule ({p!r}, {c!r}) is not a pair of masks over {n} elements "
                    "with a non-empty conclusion"
                )
        self.ground = ground
        self.rules = tuple(dict.fromkeys(pairs))  # first occurrences, in order
        self._chainer = None  # lazily built forward-chaining engine
        self._hash = None  # set by the first __hash__; a solve never hashes its bases

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ImplicationalBase)
            and self.ground == other.ground
            and self.rules == other.rules
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ground, self.rules))
        return self._hash

    def __repr__(self) -> str:
        return f"ImplicationalBase(n={self.ground.n}, implications={len(self.rules)})"


class ConsistencyGraph:
    """An irreflexive, symmetric conflict relation on the ground set.

    Edges are int index pairs, stored normalized as (low, high), sorted.
    Self-loop pairs are dropped at construction.
    """

    __slots__ = ("ground", "edges")

    def __init__(self, ground: GroundSet, pairs: Iterable[tuple[int, int]]):
        n = ground.n
        normalized: set[tuple[int, int]] = set()
        for u, v in pairs:
            if not (isinstance(u, int) and isinstance(v, int)):
                raise TypeError(f"edge ({u!r}, {v!r}) endpoints must be int indices")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u != v:
                normalized.add((u, v) if u < v else (v, u))
        self.ground = ground
        self.edges = tuple(sorted(normalized))

    @classmethod
    def from_labels(cls, ground: GroundSet, pairs: Iterable[tuple[str, str]]) -> "ConsistencyGraph":
        return cls(ground, [(ground.index(a), ground.index(b)) for a, b in pairs])

    def edge_labels(self) -> tuple[tuple[str, str], ...]:
        g = self.ground.labels
        return tuple((g[u], g[v]) for u, v in self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConsistencyGraph)
            and self.ground == other.ground
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.edges))

    def __repr__(self) -> str:
        return f"ConsistencyGraph(n={self.ground.n}, edges={len(self.edges)})"


# ---------------------------------------------------------------------------
# Text instance format


def parse_instance(text: str) -> tuple[ImplicationalBase, ConsistencyGraph]:
    """Parse the plain-text instance format into a base and a graph.

    Raises ParseError with a 1-based line number on any malformed or
    unknown content. Rules with empty conclusions are rejected here as
    vacuous rather than silently kept. Each rule becomes a ``(premise,
    conclusion)`` mask pair through one label-to-bit dict, with no
    ElemSet built, and the ImplicationalBase constructor checks the pairs.
    """
    lines = text.splitlines()
    ground: GroundSet | None = None
    elements_line = 0

    for no, raw in enumerate(lines, start=1):
        if "elements:" not in raw:  # a cheap test first; most lines are rules
            continue
        tokens = raw.split("#", 1)[0].split()
        if tokens and tokens[0] == "elements:":
            if ground is not None:
                raise ParseError(no, f"duplicate elements: line (first was line {elements_line})")
            try:
                ground = GroundSet(tokens[1:])
            except (ValueError, GroundSetTooLarge) as exc:
                raise ParseError(no, str(exc)) from None
            elements_line = no
    if ground is None:
        raise ParseError(max(len(lines), 1), "no elements: line found")

    bit = {lab: 1 << i for i, lab in enumerate(ground.labels)}

    def mask_of(no: int, tokens: list[str]) -> int:
        mask = 0
        try:
            for tok in tokens:
                mask |= bit[tok]
        except KeyError as exc:
            raise ParseError(no, f"unknown element {exc.args[0]!r}") from None
        return mask

    rules: list[tuple[int, int]] = []
    edges: list[tuple[int, int]] = []
    for no, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        if head == "elements:":
            continue
        if head == "imp:":
            if rest.count("->") != 1:
                raise ParseError(no, "imp: line needs exactly one '->'")
            split = rest.index("->")
            conclusion = rest[split + 1:]
            if not conclusion:
                raise ParseError(no, "implication with empty conclusion is vacuous")
            rules.append((mask_of(no, rest[:split]), mask_of(no, conclusion)))
        elif head == "edge:":
            if len(rest) != 2:
                raise ParseError(no, "edge: line needs exactly two elements")
            u, v = (mask_of(no, [tok]).bit_length() - 1 for tok in rest)
            edges.append((u, v))
        else:
            raise ParseError(no, f"unknown directive {head!r}")

    return ImplicationalBase(ground, rules), ConsistencyGraph(ground, edges)


def load_instance(path) -> tuple[ImplicationalBase, ConsistencyGraph]:
    """Read and parse an instance file; bytes that are not UTF-8 are a ParseError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text: {exc.reason}") from None
    return parse_instance(text)


def format_instance(base: ImplicationalBase, graph: ConsistencyGraph | None = None) -> str:
    """Serialize a base (and optional graph) back into the text format."""
    if graph is not None and graph.ground != base.ground:
        raise MismatchedGroundSets("base and graph ground sets differ")
    labels = base.ground.labels

    def names(mask: int) -> list[str]:
        return [labels[i] for i in iter_bits(mask)]

    out = ["elements: " + " ".join(labels)]
    for p, c in base.rules:
        out.append(" ".join(["imp:", *names(p), "->", *names(c)]))
    if graph is not None:
        for u, v in graph.edge_labels():
            out.append(f"edge: {u} {v}")
    return "\n".join(out) + "\n"
