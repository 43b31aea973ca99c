"""A conflict encoding of a positive 3-CNF with a cycle-free dependency relation.

Each clause gets a marker y, a shared sink z collects every forced pair,
and any clause variable together with z forces that clause's marker.
The dependency digraph built from the arrow relations has no directed
cycle, and every variable x has exactly one meet-irreducible set with a
down arrow from it: the complement of that variable. The script prints
those facts, then plants a conflict edge over the instance and
enumerates its maximal conflict-free closed sets.
"""

from conclose.analysis import arrow_relations, d_relation, has_d_cycle
from conclose.core import ElemSet
from conclose.generators import CnfFormula, gen_cnf_lower_bounded, gen_reduction
from conclose.solver import solve

FORMULA = CnfFormula(4, ((1, 2, 3), (1, 2, 4)))


def main():
    base = gen_cnf_lower_bounded(FORMULA)
    g = base.ground
    print(f"formula: {FORMULA.clauses} over x1..x{FORMULA.n_vars}")
    print(f"encoded ground set: {' '.join(g.labels)}")
    print("rules:")
    for p, c in base.rules:
        print(f"  {ElemSet(g, p).to_text()} -> {ElemSet(g, c).to_text()}")

    cyclic, witness = has_d_cycle(base)
    rel = d_relation(base)
    print(f"\ndependency arcs between distinct elements: {len(rel.arcs)}")
    print(f"directed cycle: {cyclic} (witness: {witness})")
    loops = " ".join(g.labels[i] for i in rel.self_loops)
    print(f"self-composed arrow positions (flagged, never cycles): {loops or 'none'}")

    ar = arrow_relations(base)
    print("\neach variable points down at exactly one meet-irreducible set,"
          " its complement:")
    full = (1 << g.n) - 1
    for i in range(1, FORMULA.n_vars + 1):
        xi = g.index(f"x{i}")
        hits = [idx for (x, idx) in ar.down if x == xi]
        m = ar.meet_irr[hits[0]][0]
        assert len(hits) == 1 and m.mask == full & ~(1 << xi)
        print(f"  x{i}: {{{m.to_text()}}}")

    red, graph = gen_reduction(base)
    result = solve(red, graph)
    print(f"\nafter planting one conflict edge: {len(result.sets)} maximal"
          " conflict-free closed sets, each keeping one endpoint:")
    for s in result.sets:
        print(f"  {s.to_text()}")


if __name__ == "__main__":
    main()
