"""Walk through the five-element instance used across the test suite.

Three rules tie elements 1-3 together, element 4 drags in 1, and three
conflict edges chop the top off the lattice. The script prints every
intermediate artifact of the two-step pipeline: the closure operator at
work, the augmented base, its minimal keys, and finally the maximal
conflict-free closed sets obtained as independent sets of the key
hypergraph.
"""

from conclose import ElemSet, parse_instance
from conclose.closure import close, enumerate_closed_sets
from conclose.keys import augment_with_inconsistency, enumerate_keys
from conclose.solver import brute_force_solve, co_atoms, solve

INSTANCE = """\
elements: 1 2 3 4 5
imp: 1 3 -> 2
imp: 1 2 -> 3
imp: 2 3 -> 1
imp: 4 -> 1
edge: 3 4
edge: 2 4
edge: 2 5
"""


def main():
    base, graph = parse_instance(INSTANCE)
    print("instance:")
    print(INSTANCE)

    print("closures of a few sets:")
    for labels in (["1", "3"], ["4"], ["5"], ["1", "3", "5"]):
        s = base.ground.set_of(*labels)
        print(f"  close({{{' '.join(labels)}}}) = {{{close(base, s).to_text()}}}")

    family = enumerate_closed_sets(base)
    print(f"\nthe closure system has {len(family)} closed sets;"
          f" co-atoms: {[c.to_text() for c in co_atoms(base)]}")

    augmented = augment_with_inconsistency(base, graph)
    print("\naugmented base (conflict edges become rules forcing everything):")
    g = augmented.ground
    for p, c in augmented.rules:
        print(f"  {ElemSet(g, p).to_text()} -> {ElemSet(g, c).to_text()}")

    keys = enumerate_keys(augmented)
    print(f"\nminimal keys of the augmented base ({len(keys)}):")
    for k in keys:
        print(f"  {k.to_text()}")

    result = solve(base, graph)
    print("\nmaximal conflict-free closed sets"
          " (independent sets of the key hypergraph):")
    for s in result.sets:
        print(f"  {s.to_text()}")
    print(f"stats: keys={result.stats.key_count}")

    oracle = brute_force_solve(base, graph)
    print(f"\nbrute force agrees: {tuple(oracle.sets) == tuple(result.sets)}")


if __name__ == "__main__":
    main()
