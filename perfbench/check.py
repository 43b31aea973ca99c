"""Output checks for the benchmark, written independently of conclose.

Instances are read with a small parser of their own and every solution
the program prints is checked with the fixpoint closure below, so a bug
shared by the solver and the rest of the package cannot vouch for
itself. Sets are bitmasks over the ground set in file order, which makes
lectic order plain integer order.
"""

from __future__ import annotations

import hashlib


class Instance:
    """Ground labels, rules as (premise, conclusion) masks, edge masks."""

    def __init__(self, text: str):
        lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
        self.labels = next(t[1:] for t in lines if t and t[0] == "elements:")
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.rules: list[tuple[int, int]] = []
        self.edges: list[int] = []
        for tokens in lines:
            if tokens and tokens[0] == "imp:":
                arrow = tokens.index("->")
                self.rules.append((self.mask(tokens[1:arrow]), self.mask(tokens[arrow + 1:])))
            elif tokens and tokens[0] == "edge:":
                self.edges.append(self.mask(tokens[1:]))

    @property
    def n(self) -> int:
        return len(self.labels)

    def mask(self, labels) -> int:
        """Bitmask of a label list; KeyError on a label outside the ground set."""
        m = 0
        for label in labels:
            m |= 1 << self.index[label]
        return m

    def close(self, m: int, rules=None) -> int:
        """Least superset of ``m`` that every rule leaves unchanged."""
        rules = self.rules if rules is None else rules
        changed = True
        while changed:
            changed = False
            for p, c in rules:
                if p & ~m == 0 and c & ~m:
                    m |= c
                    changed = True
        return m

    def consistent(self, m: int) -> bool:
        return not any(e & ~m == 0 for e in self.edges)

    def is_solution(self, m: int) -> str | None:
        """None when ``m`` is a maximal consistent closed set, else the reason."""
        if self.close(m) != m:
            return "not closed"
        if not self.consistent(m):
            return "contains a conflict edge"
        # Rules whose conclusion already lies in m add nothing to any superset.
        live = [(p, c) for p, c in self.rules if c & ~m]
        for i in range(self.n):
            if not m >> i & 1 and self.consistent(self.close(m | 1 << i, live)):
                return "not maximal"
        return None


def digest(masks) -> str:
    """Digest of a solution list, independent of the labels used to print it."""
    return hashlib.sha256(" ".join(map(str, masks)).encode()).hexdigest()


def parse_solutions(inst: Instance, command: str, stdout: str) -> list[int]:
    """Masks of the solution lines; ValueError when the output is malformed.

    ``oracle`` output must end with an ``agreement: agree`` line.
    """
    lines = stdout.splitlines()
    if command == "oracle":
        if not lines or lines[-1] != "agreement: agree":
            raise ValueError(f"oracle verdict is {lines[-1] if lines else 'missing'!r}")
        lines = lines[:-1]
    try:
        return [inst.mask(line.split()) for line in lines]
    except KeyError as exc:
        raise ValueError(f"unknown label {exc.args[0]!r} in the output") from None


def check_solutions(inst: Instance, masks: list[int]) -> str | None:
    """None when every set is a solution and the list is strictly lectic."""
    for before, after in zip(masks, masks[1:]):
        if after <= before:
            return "solutions out of lectic order"
    for m in masks:
        reason = inst.is_solution(m)
        if reason:
            return f"set {m:#x} is {reason}"
    return None


def brute_force(inst: Instance) -> list[int]:
    """Reference solutions by scanning every subset; for small ground sets only."""
    closed = (
        m for m in range(1 << inst.n)
        if not any(p & ~m == 0 and c & ~m for p, c in inst.rules)
    )
    return [m for m in closed if inst.is_solution(m) is None]
