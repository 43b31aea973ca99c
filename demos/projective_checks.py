"""Structure checks on the seven-point binary projective plane.

Points are the nonzero vectors of GF(2)^3 and every line {p, q, p xor q}
contributes three collinearity rules. The resulting closure system is
atomistic (singletons closed), modular, and biatomic, and every minimal
generator is an independent set, which together cap the largest minimal
generator at a logarithmic size. The script runs each check, prints a
census of minimal generators by size, and evaluates the bound.
"""

from collections import Counter

from conclose.analysis import (
    analyze,
    check_atomistic,
    check_biatomic,
    check_mingen_independence,
    check_modular,
    verify_log_bound,
)
from conclose.keys import caratheodory_number, minimal_generators
from conclose.generators import gen_fano


def main():
    base = gen_fano()
    g = base.ground
    print(f"ground set: {g.n} points, {len(base.rules)} collinearity rules\n")

    for name, check in (
        ("atomistic", check_atomistic),
        ("modular", check_modular),
        ("biatomic", check_biatomic),
        ("generators independent", check_mingen_independence),
    ):
        res = check(base)
        print(f"  {name:<24} {'yes' if res.ok else 'no  ' + str(res.witness)}")

    census = Counter()
    for x in range(g.n):
        for gen in minimal_generators(base, x):
            census[len(gen)] += 1
    print("\nminimal generators by size (all elements together):")
    for size in sorted(census):
        print(f"  size {size}: {census[size]}")

    c = caratheodory_number(base)
    print(f"\nlargest minimal generator: {c}")
    print(f"log bound {c} <= ceil(log2({g.n}+1)) holds: {verify_log_bound(base)}")

    print("\nfull report:")
    print(analyze(base).render_text())


if __name__ == "__main__":
    main()
