"""Convex subsets of posets need witnesses of size at most two.

For a poset, the sets closed under "anything between two members is a
member" form a closure system whose rules all have two-element
premises, so no element ever needs more than two others to be forced.
The script builds a chain, a fence, and a batch of random posets,
verifies the size-two cap on minimal generators, checks the
logarithmic bound with its hypotheses on a 40-element random poset, and
solves one instance with conflict edges added on top.
"""

import random

from conclose.analysis import verify_log_bound
from conclose.keys import caratheodory_number
from conclose.core import ConsistencyGraph
from conclose.generators import Poset, gen_poset_convexity, gen_random_poset
from conclose.solver import solve


def main():
    chain = Poset.chain("abcde")
    fence = Poset("abcde", [("a", "b"), ("c", "b"), ("c", "d"), ("e", "d")])
    print("fixed posets:")
    for name, poset in (("5-chain", chain), ("5-fence", fence)):
        base = gen_poset_convexity(poset)
        print(f"  {name}: {len(base.rules)} betweenness rules,"
              f" largest minimal generator {caratheodory_number(base)}")

    rng = random.Random(11)
    worst = 0
    for _ in range(40):
        poset = gen_random_poset(rng.randint(2, 8), rng.randint(0, 10**6))
        worst = max(worst, caratheodory_number(gen_poset_convexity(poset)))
    print(f"\n40 random posets up to 8 elements:"
          f" largest minimal generator seen = {worst} (cap is 2)")

    # Atomistic, biatomic, every minimal generator independent: the
    # hypotheses hold, so the bound is checked, past the 20 elements
    # where the exhaustive checks stop.
    big = gen_poset_convexity(gen_random_poset(40, 1))
    print(f"\nrandom 40-element poset, {len(big.rules)} betweenness rules:"
          f" logarithmic bound holds = {verify_log_bound(big)}")

    base = gen_poset_convexity(chain)
    graph = ConsistencyGraph.from_labels(base.ground, [("a", "e"), ("b", "d")])
    result = solve(base, graph)
    print("\n5-chain with conflicts a-e and b-d, maximal conflict-free"
          " convex sets:")
    for s in result.sets:
        print(f"  {s.to_text()}")


if __name__ == "__main__":
    main()
