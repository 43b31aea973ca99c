import argparse
import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

import conclose
from conclose import (
    ConsistencyGraph,
    ElemSet,
    GroundSet,
    ImplicationalBase,
    MismatchedGroundSets,
    ParseError,
    SolutionSet,
    SolveStats,
    format_instance,
    load_instance,
    parse_instance,
)
from conclose.cli import _build_parser
from conftest import DEMO_TEXT


def test_public_names_resolve_once():
    names = conclose.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(conclose, name), name


def test_size_guards_are_not_caller_settable():
    # MAX_GROUND and EXHAUSTIVE_LIMIT are the two size guards, read where
    # they are checked; no public callable or CLI option overrides them,
    # and no second exhaustive bound or its exception comes back.
    assert not hasattr(conclose, "INDEPENDENCE_BOUND")
    assert not hasattr(conclose, "SetTooLarge")
    guards = {"limit", "bound", "max_size", "max_ground", "independence_bound"}
    for name in conclose.__all__:
        obj = getattr(conclose, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # exception classes without their own __init__
            continue
        assert not guards & set(params), name
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, subparser in commands.choices.items():
        assert "--limit-ground" not in subparser._option_string_actions, command


PUBLIC = (
    "AnalysisReport", "ArrowRelations", "CheckResult", "ClosureError", "CnfFormula",
    "ConsistencyGraph", "DRelation", "EXHAUSTIVE_LIMIT", "ElemSet", "GroundSet",
    "GroundSetTooLarge", "HypothesesNotMet", "ImplicationalBase", "InvalidParams", "KEY_CAP",
    "MAX_GROUND", "MIS_CAP", "MismatchedGroundSets", "NotStandard", "OutputLimitExceeded",
    "ParseError", "Poset", "SolutionSet", "SolveStats", "analyze", "arrow_relations",
    "augment_with_inconsistency", "brute_force_solve", "caratheodory_number", "check_atomistic",
    "check_biatomic", "check_distributive", "check_mingen_independence", "check_modular",
    "check_standard", "close", "co_atoms", "d_relation", "enumerate_closed_sets", "enumerate_keys",
    "format_instance", "gen_cnf_lower_bounded", "gen_exponential", "gen_fano",
    "gen_poset_convexity", "gen_projective_gf2", "gen_random", "gen_random_poset", "gen_reduction",
    "has_d_cycle", "load_instance", "maximal_independent_sets", "meet_irreducibles",
    "minimal_generators", "parse_dimacs_cnf", "parse_instance", "solve", "verify_log_bound",
)


def test_public_surface_is_pinned():
    # The solver, the paper's checks, the generators and the documented
    # library entry points. The lemma checks and wrappers that only tests
    # called live in tests/oracles.py or are gone, with their exceptions.
    assert PUBLIC == tuple(sorted(PUBLIC))
    assert tuple(conclose.__all__) == PUBLIC
    for name in (
        "check_chain_condition", "is_closed", "key_decomposition", "minimize_superkey",
        "NoDecomposition", "NotASuperkey", "ValidationReport", "format_sets", "validate_instance",
        "brute_force_keys", "is_solution", "covers", "check_independent", "NotClosed",
        "EmptyGraph",
    ):
        assert not hasattr(conclose, name), name


def _references(node, inside=frozenset()):
    # The names that ``node`` reads: a Name or an Attribute that is not
    # assigned to, and each imported name. A def or class does not count
    # the name it defines, in its own body either; docstrings are strings.
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    name = None
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        name = node.id
    elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name.rpartition(".")[2]
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def _imports_conclose(tree):
    return any(
        isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "conclose"
        or isinstance(node, ast.Import)
        and any(alias.name.partition(".")[0] == "conclose" for alias in node.names)
        for node in ast.walk(tree)
    )


def test_every_public_name_has_a_program_caller():
    # A public name that only the tests read is a second reference path
    # or a wrapper the program skips; it belongs in tests/oracles.py.
    # The callers are the package's own modules, the demos and the
    # benchmark harness; a demo or harness file that never imports
    # conclose (perfbench/check.py is one) cannot reach its names.
    root = Path(__file__).resolve().parents[1]
    package = [p for p in (root / "src" / "conclose").glob("*.py") if p.name != "__init__.py"]
    used = set()
    for path in package:
        used.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    for path in [*(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if _imports_conclose(tree):
            used.update(_references(tree))
    assert sorted(set(conclose.__all__) - used) == []


def _members(cls):
    # Public names and dunder protocols the class or a base other than
    # object defines, without the bookkeeping every class carries.
    bookkeeping = {
        "__doc__", "__firstlineno__", "__init__", "__module__", "__slots__",
        "__static_attributes__",
    }
    own = {name for klass in cls.__mro__[:-1] for name in vars(klass)}
    return sorted(
        name for name in own - bookkeeping
        if not name.startswith("_") or name.startswith("__") and name.endswith("__")
    )


def test_value_types_expose_only_what_the_program_reads():
    # The package computes on masks; these types keep what the solver,
    # the CLI and the demos read, with no label-level set algebra, no
    # normalization counters and no second way to read the solutions.
    value = ["__eq__", "__hash__", "__repr__"]
    assert _members(ElemSet) == sorted(value + ["__len__", "ground", "labels", "mask", "to_text"])
    assert _members(GroundSet) == sorted(
        value + ["full", "full_mask", "index", "labels", "n", "set_of"]
    )
    assert _members(ImplicationalBase) == sorted(value + ["ground", "rules"])
    assert _members(ConsistencyGraph) == sorted(
        value + ["edge_labels", "edges", "from_labels", "ground"]
    )
    assert _members(SolutionSet) == sorted(
        value + ["__delattr__", "__reduce__", "__setattr__", "ground", "sets", "stats"]
    )


def test_readme_names_resolve():
    # Every `module.name` the README cites must exist; `keys.py` is a file.
    modules = {m.name for m in pkgutil.iter_modules(conclose.__path__)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cited = set(re.findall(r"`(\w+(?:\.\w+)+)`", readme))
    checked = 0
    for name in sorted(cited):
        first, *rest = name.split(".")
        if first not in modules or name.endswith(".py"):
            continue
        obj = importlib.import_module(f"conclose.{first}")
        for part in rest:
            assert hasattr(obj, part), name
            obj = getattr(obj, part)
        checked += 1
    assert checked


# ---------------------------------------------------------------------------
# GroundSet


def test_ground_set_basics():
    g = GroundSet(["a", "b", "c"])
    assert g.n == 3
    assert g.index("b") == 1
    with pytest.raises(KeyError, match="unknown element 'z'"):
        g.index("z")
    assert g.labels == ("a", "b", "c")


def test_ground_set_rejects_bad_labels():
    with pytest.raises(ValueError):
        GroundSet(["a", "a"])
    with pytest.raises(ValueError):
        GroundSet(["a", ""])
    with pytest.raises(ValueError):
        GroundSet(["a", "b c"])
    # Text would read these back as a comment or as the rule arrow.
    for label in ("a#b", "#", "->"):
        with pytest.raises(ValueError):
            GroundSet([label, "c"])
    # The CLI's --set splits on ',', so no label could be named there.
    for label in ("a,b", ",", "a,"):
        with pytest.raises(ValueError, match="',' separates labels"):
            GroundSet([label, "c"])
    with pytest.raises(ParseError, match="line 1: ',' separates labels") as err:
        parse_instance("elements: a,b c\nimp: a,b -> c\n")
    assert err.value.line == 1


def test_ground_set_size_cap():
    from conclose.errors import GroundSetTooLarge

    GroundSet([f"e{i}" for i in range(128)])
    with pytest.raises(GroundSetTooLarge):
        GroundSet([f"e{i}" for i in range(129)])


def test_ground_set_constructors():
    g = GroundSet(["a", "b", "c"])
    assert g.full().mask == 0b111
    assert g.set_of("a", "c").labels() == ("a", "c")
    assert g.set_of("c", "a") == ElemSet(g, 0b101)


# ---------------------------------------------------------------------------
# ElemSet


def test_elemset_labels_and_text():
    g = GroundSet(["x", "y", "z"])
    s = g.set_of("z", "x")
    assert s.labels() == ("x", "z")
    assert s.to_text() == "x z"
    assert len(s) == 2


def test_elemset_mixed_grounds_rejected():
    g1 = GroundSet(["a", "b"])
    g2 = GroundSet(["a", "c"])
    assert g1.full() != g2.full()


# ---------------------------------------------------------------------------
# ImplicationalBase


def test_implication_requires_conclusion():
    g = GroundSet(["a", "b"])
    with pytest.raises(ValueError, match="with a non-empty conclusion"):
        ImplicationalBase(g, [(0b01, 0)])


def test_base_rejects_masks_off_the_ground_set():
    # A negative mask or one past the ground set, in either place, is a
    # ValueError; ElemSet pairs are not masks and raise TypeError.
    g = GroundSet(["a", "b"])
    for rule in ((-1, 0b10), (0b01, -2), (0b100, 0b01), (0b01, 0b100)):
        with pytest.raises(ValueError, match="is not a pair of masks over 2 elements"):
            ImplicationalBase(g, [(0b01, 0b10), rule])
    a, b = g.set_of("a"), g.set_of("b")
    for rule in ((a, b), (a, 0b10), (0b01, b)):
        with pytest.raises(TypeError):
            ImplicationalBase(g, [rule])


def test_base_drops_exact_duplicates_keeps_order():
    g = GroundSet(["a", "b", "c"])
    r1, r2 = (0b001, 0b010), (0b010, 0b100)
    base = ImplicationalBase(g, iter([r1, r2, r1, r2, r1]))
    assert base.rules == (r1, r2)


def test_value_classes_are_frozen_records(demo_base, demo_graph):
    # SolveStats and SolutionSet are plain slotted classes: fields are
    # read-only, equality and hashing go by field values within one
    # class, and copies keep every field.
    g = GroundSet(["a", "b"])
    stats = SolveStats(key_count=2, seconds={"keys": 0.5})
    sol = SolutionSet(g, (g.set_of("a"),), stats)
    for obj, field in ((stats, "key_count"), (sol, "sets")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
    assert stats != (stats.key_count, stats.seconds)
    # SolutionSet equality and hashing ignore the run's stats.
    assert sol == SolutionSet(g, (g.set_of("a"),))
    assert hash(sol) == hash(SolutionSet(g, (g.set_of("a"),), SolveStats()))
    assert SolveStats().seconds == {} and SolveStats().seconds is not SolveStats().seconds
    assert stats.to_dict() == {"key_count": 2, "seconds": {"keys": 0.5}}
    assert stats.to_dict()["seconds"] is not stats.seconds
    assert repr(stats) == "SolveStats(key_count=2, seconds={'keys': 0.5})"


def test_base_equality_and_hash():
    g = GroundSet(["a", "b"])
    rule = (0b01, 0b10)
    assert ImplicationalBase(g, [rule]) == ImplicationalBase(g, [rule, rule])
    assert hash(ImplicationalBase(g, [rule])) == hash(ImplicationalBase(g, [rule]))
    assert ImplicationalBase(g, [rule]) != ImplicationalBase(g, [])


# ---------------------------------------------------------------------------
# ConsistencyGraph


def test_graph_normalizes_pairs():
    g = GroundSet(["a", "b", "c"])
    graph = ConsistencyGraph(g, [(2, 0), (0, 2), (1, 2)])
    assert graph.edges == ((0, 2), (1, 2))
    assert graph.edge_labels() == (("a", "c"), ("b", "c"))


def test_graph_drops_self_loops():
    g = GroundSet(["a", "b"])
    graph = ConsistencyGraph(g, [(0, 0), (0, 1)])
    assert graph.edges == ((0, 1),)


def test_graph_from_labels(demo_graph):
    g = demo_graph.ground
    again = ConsistencyGraph.from_labels(g, [("3", "4"), ("2", "4"), ("2", "5")])
    assert again == demo_graph


# ---------------------------------------------------------------------------
# Parsing and formatting


def test_parse_demo_instance(demo_base, demo_graph):
    assert demo_base.ground.labels == ("1", "2", "3", "4", "5")
    assert len(demo_base.rules) == 4
    assert len(demo_graph.edges) == 3
    assert demo_base.rules[3] == (1 << 3, 1 << 0)  # 4 -> 1


def test_parse_accepts_comments_and_blanks():
    base, graph = parse_instance(
        "# leading comment\n\nelements: a b\n# another\nimp: a -> b\n"
    )
    assert len(base.rules) == 1 and len(graph.edges) == 0


def test_parse_empty_premise_allowed():
    base, _ = parse_instance("elements: a b\nimp: -> a\n")
    assert base.rules == ((0, 0b01),)


def test_parse_errors_carry_line_numbers():
    cases = [
        ("imp: a -> b\n", 1, "no elements: line found"),
        ("elements: a b\nimp: a -> \n", 2, "implication with empty conclusion is vacuous"),
        ("elements: a b\nimp: q -> \n", 2, "implication with empty conclusion is vacuous"),
        ("elements: a b\nimp: a b\n", 2, "imp: line needs exactly one '->'"),
        ("elements: a b\nimp: a -> b -> a\n", 2, "imp: line needs exactly one '->'"),
        ("elements: a b\nedge: a\n", 2, "edge: line needs exactly two elements"),
        ("elements: a b\nedge: a b a\n", 2, "edge: line needs exactly two elements"),
        ("elements: a b\nimp: q -> a\n", 2, "unknown element 'q'"),     # in a premise
        ("elements: a b\nimp: a -> q\n", 2, "unknown element 'q'"),     # in a conclusion
        ("elements: a b\nimp: q -> z\n", 2, "unknown element 'q'"),     # the first one named
        ("elements: a b\nedge: a q\n", 2, "unknown element 'q'"),       # in an edge
        ("elements: a b\nwhat: x\n", 2, "unknown directive 'what:'"),
        ("elements: a a\n", 1, "element labels must be distinct"),
        ("elements: a\nelements: a\n", 2, "duplicate elements: line (first was line 1)"),
        # a repeated elements: line is reported before any other fault
        ("elements: a b\nwhat: x\nelements: b\n", 3, "duplicate elements: line (first was line 1)"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == line, text
        assert str(err.value) == f"line {line}: {message}", text


def test_parse_rejects_arrow_label():
    # format_instance would write an elements: line that cannot be read back.
    with pytest.raises(ParseError, match="reserved") as err:
        parse_instance("elements: a -> b\n")
    assert err.value.line == 1


def test_load_rejects_non_utf8_with_line(tmp_path):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"elements: a b\nedge: a \xff\n")
    with pytest.raises(ParseError, match="UTF-8") as err:
        load_instance(p)
    assert err.value.line == 2


def test_parse_respects_ground_cap():
    labels = " ".join(f"e{i}" for i in range(129))
    with pytest.raises(ParseError, match="129 elements exceeds the limit of 128"):
        parse_instance(f"elements: {labels}\n")
    assert parse_instance(f"elements: {labels.rsplit(' ', 1)[0]}\n")[0].ground.n == 128


def test_format_parse_round_trip(demo_base, demo_graph):
    text = format_instance(demo_base, demo_graph)
    base2, graph2 = parse_instance(text)
    assert base2 == demo_base
    assert graph2 == demo_graph


def test_format_round_trip_empty_premise():
    base, graph = parse_instance("elements: a b\nimp: -> a\nedge: a b\n")
    base2, graph2 = parse_instance(format_instance(base, graph))
    assert base2 == base and graph2 == graph


def test_parsed_self_loop_edges_are_dropped():
    _, graph = parse_instance("elements: a b\nedge: a a\nedge: a b\n")
    assert graph.edges == ((0, 1),)


_BASE = parse_instance("elements: a b\nimp: a -> b\nedge: a b\n")[0]
_OTHER_GRAPH = parse_instance("elements: a c\nedge: a c\n")[1]
_G = _BASE.ground


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: conclose.augment_with_inconsistency(_BASE, _OTHER_GRAPH),
         MismatchedGroundSets, "base and graph ground sets differ"),
        (lambda: conclose.solve(_BASE, _OTHER_GRAPH),
         MismatchedGroundSets, "base and graph ground sets differ"),
        (lambda: ElemSet(_G, 0b100), ValueError, "mask 0x4 does not fit a 2-element ground set"),
        (lambda: ElemSet(_G, 1.0), TypeError, "mask 1.0 is not an int"),
        (lambda: ElemSet(_G, Fraction(1, 2)), TypeError, r"mask Fraction\(1, 2\) is not an int"),
        (lambda: ImplicationalBase(_G, [(0b01, 0b100)]),
         ValueError, "rule \\(1, 4\\) is not a pair of masks over 2 elements"),
        (lambda: ConsistencyGraph(_G, [(0, 2)]), ValueError, r"edge \(0, 2\) out of range"),
        (lambda: ConsistencyGraph(_G, [(0, 1.0)]), TypeError, "endpoints must be int indices"),
        (lambda: format_instance(_BASE, _OTHER_GRAPH),
         MismatchedGroundSets, "base and graph ground sets differ"),
    ],
    ids=[
        "augment_with_inconsistency", "solve", "ElemSet", "ElemSet_float",
        "ElemSet_fraction", "ImplicationalBase", "ConsistencyGraph", "ConsistencyGraph_float",
        "format_instance",
    ],
)
def test_foreign_grounds_and_out_of_range_indices_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()
