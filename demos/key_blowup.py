"""Show the key hypergraph outgrowing its instance.

The doubling family has 2n+2 elements and n+1 rules: each x forces its
y, and all y together force both endpoints of the single conflict edge.
Picking one of x or y per index closes the whole set, so the augmented
base has 2^n selector keys (plus the edge pair itself) while the input
only grows linearly. The table below prints the counts and wall-clock
time per size; the number of final solutions stays small throughout.
"""

import time

from conclose.generators import gen_exponential
from conclose.keys import augment_with_inconsistency, enumerate_keys
from conclose.solver import solve


def main():
    print(f"{'n':>3} {'elements':>9} {'rules':>6} {'keys':>6} "
          f"{'solutions':>10} {'seconds':>8}")
    for n in range(1, 9):
        base, graph = gen_exponential(n)
        start = time.perf_counter()
        keys = enumerate_keys(augment_with_inconsistency(base, graph))
        result = solve(base, graph)
        elapsed = time.perf_counter() - start
        print(f"{n:>3} {base.ground.n:>9} {len(base.rules):>6} "
              f"{len(keys):>6} {len(result.sets):>10} {elapsed:>8.3f}")
    print("\nkeys grow as 2^n + 1; the instance itself only adds two"
          " elements and one rule per step.")


if __name__ == "__main__":
    main()
