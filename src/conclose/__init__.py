"""Closure systems over implicational bases with pairwise conflicts.

The package models a universe of elements, an implicational base whose
closed sets form a lattice, and a graph of mutually exclusive element
pairs. Its central task is enumerating every maximal closed set that
avoids all conflicts, via minimal keys of an augmented base and
hypergraph transversal duality, with a brute-force oracle, structural
lattice checks, and generators for instance families of known shape.

The package loads lazily: ``import conclose`` runs no submodule, and
each public name below imports its home module the first time it is
read (PEP 562), so a command loads only the modules on its own path.
"""

from __future__ import annotations

import importlib

# Home module of every public name.
_EXPORTS = {
    "analysis": (
        "AnalysisReport", "ArrowRelations", "CheckResult", "DRelation", "analyze",
        "arrow_relations", "check_atomistic", "check_biatomic", "check_distributive",
        "check_independent", "check_mingen_independence", "check_modular", "check_standard",
        "d_relation", "has_d_cycle", "verify_log_bound",
    ),
    "closure": (
        "close", "covers", "enumerate_closed_sets",
    ),
    "core": (
        "EXHAUSTIVE_LIMIT", "KEY_CAP", "MAX_GROUND", "MIS_CAP", "ConsistencyGraph",
        "ElemSet", "GroundSet", "ImplicationalBase", "ValidationReport", "format_instance",
        "format_sets", "load_instance", "parse_instance", "validate_instance",
    ),
    "errors": (
        "ClosureError", "EmptyGraph", "GroundSetTooLarge", "HypothesesNotMet",
        "InvalidParams", "MismatchedGroundSets", "NotClosed", "NotStandard",
        "OutputLimitExceeded", "ParseError",
    ),
    "generators": (
        "CnfFormula", "Poset", "gen_cnf_lower_bounded", "gen_exponential", "gen_fano",
        "gen_poset_convexity", "gen_projective_gf2", "gen_random", "gen_random_poset",
        "gen_reduction", "parse_dimacs_cnf",
    ),
    "keys": (
        "augment_with_inconsistency", "brute_force_keys", "caratheodory_number",
        "enumerate_keys", "minimal_generators",
    ),
    "solver": (
        "SolutionSet", "SolveStats", "brute_force_solve", "co_atoms", "is_solution",
        "meet_irreducibles", "solve",
    ),
    "transversal": (
        "maximal_independent_sets",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
