#!/usr/bin/env python3
"""Self-test of the benchmark's output checks, at toy size.

    python3 perfbench/selftest.py        # exits 0 when every case behaves

The five-element worked instance has three solutions, written out
below; the brute force in check.py must find exactly those, and they
are pinned the way workloads.json pins a real instance. The
correct output must pass ``judge``, the function that decides whether a
timed run failed, and each corrupted output must fail it: a solution
dropped, a non-maximal closed set added, two lines swapped out of
lectic order, and an oracle verdict other than agree. The closure
checks alone must also catch the added set and the swap. Needs no
conclose sources.
"""

from __future__ import annotations

import sys
from pathlib import Path

from check import Instance, brute_force, check_solutions, digest, parse_solutions
from run import Case, Sample, judge

TEXT = """\
elements: 1 2 3 4 5
imp: 1 3 -> 2
imp: 1 2 -> 3
imp: 2 3 -> 1
imp: 4 -> 1
edge: 3 4
edge: 2 4
edge: 2 5
"""
SOLUTIONS = ["1 2 3", "3 5", "1 4 5"]  # lectic order: bit i is element i + 1


def render(inst: Instance, masks: list[int]) -> list[str]:
    return [" ".join(inst.labels[i] for i in range(inst.n) if m >> i & 1) for m in masks]


def judged(inst: Instance, command: str, pin: dict, lines: list[str]) -> str | None:
    case = Case("worked", command, Path("worked.txt"), inst, pin, text_ok=True)
    sample = Sample(case, 0.1, [], 0.0, "".join(f"{line}\n" for line in lines).encode(), 0)
    judge(sample, set())
    return sample.error


def main() -> int:
    inst = Instance(TEXT)
    solutions = [inst.mask(line.split()) for line in SOLUTIONS]
    pin = {"solutions": len(solutions), "digest": digest(solutions)}
    # {1, 4} is closed and conflict-free but lies inside the solution {1, 4, 5}.
    extra = inst.mask(["1", "4"])
    good = render(inst, solutions)
    swapped = [good[1], good[0], *good[2:]]
    corrupted = {
        "one solution dropped": good[:-1],
        "non-maximal set added": render(inst, sorted([*solutions, extra])),
        "two lines swapped": swapped,
    }

    failures = 0

    def expect(label: str, error: str | None, should_fail: bool) -> None:
        nonlocal failures
        ok = (error is not None) == should_fail
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {error or 'passes'}")

    found = brute_force(inst)
    expect("brute force", None if found == solutions else f"found {render(inst, found)}", False)
    expect("correct solve output", judged(inst, "solve", pin, good), False)
    expect("correct oracle output", judged(inst, "oracle", pin, [*good, "agreement: agree"]), False)
    for label, lines in corrupted.items():
        expect(label, judged(inst, "solve", pin, lines), True)
    expect("oracle disagrees", judged(inst, "oracle", pin, [*good, "agreement: disagree"]), True)
    for label in ("non-maximal set added", "two lines swapped"):
        masks = parse_solutions(inst, "solve", "\n".join(corrupted[label]))
        expect(f"closure checks alone, {label}", check_solutions(inst, masks), True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
