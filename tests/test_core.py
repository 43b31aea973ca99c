import argparse
import copy
import importlib
import inspect
import operator
import pickle
import pkgutil
import random
import re
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
    format_sets,
    load_instance,
    parse_instance,
    validate_instance,
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
    "ConsistencyGraph", "DRelation", "EXHAUSTIVE_LIMIT", "ElemSet", "EmptyGraph", "GroundSet",
    "GroundSetTooLarge", "HypothesesNotMet", "ImplicationalBase", "InvalidParams", "KEY_CAP",
    "MAX_GROUND", "MIS_CAP", "MismatchedGroundSets", "NotClosed", "NotStandard",
    "OutputLimitExceeded", "ParseError", "Poset", "SolutionSet", "SolveStats", "ValidationReport",
    "analyze", "arrow_relations", "augment_with_inconsistency", "brute_force_keys",
    "brute_force_solve", "caratheodory_number", "check_atomistic", "check_biatomic",
    "check_distributive", "check_independent", "check_mingen_independence", "check_modular",
    "check_standard", "close", "co_atoms", "covers", "d_relation", "enumerate_closed_sets",
    "enumerate_keys", "format_instance", "format_sets", "gen_cnf_lower_bounded", "gen_exponential",
    "gen_fano", "gen_poset_convexity", "gen_projective_gf2", "gen_random", "gen_random_poset",
    "gen_reduction", "has_d_cycle", "is_solution", "load_instance", "maximal_independent_sets",
    "meet_irreducibles", "minimal_generators", "parse_dimacs_cnf", "parse_instance", "solve",
    "validate_instance", "verify_log_bound",
)


def test_public_surface_is_pinned():
    # The solver, the paper's checks, the generators and the documented
    # library entry points. The lemma checks and wrappers that only tests
    # called live in tests/oracles.py or are gone, with their exceptions.
    assert PUBLIC == tuple(sorted(PUBLIC))
    assert tuple(conclose.__all__) == PUBLIC
    for name in (
        "check_chain_condition", "is_closed", "key_decomposition", "minimize_superkey",
        "NoDecomposition", "NotASuperkey",
    ):
        assert not hasattr(conclose, name), name


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
    assert len(g) == 3
    assert g.index("b") == 1
    assert "c" in g and "z" not in g
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


def test_ground_set_size_cap():
    from conclose.errors import GroundSetTooLarge

    GroundSet([f"e{i}" for i in range(128)])
    with pytest.raises(GroundSetTooLarge):
        GroundSet([f"e{i}" for i in range(129)])


def test_ground_set_constructors():
    g = GroundSet(["a", "b", "c"])
    assert g.empty().mask == 0
    assert g.full().mask == 0b111
    assert g.set_of("a", "c").labels() == ("a", "c")
    assert g.from_indices([2, 0]) == g.set_of("a", "c")


# ---------------------------------------------------------------------------
# ElemSet


def test_elemset_labels_and_text():
    g = GroundSet(["x", "y", "z"])
    s = g.set_of("z", "x")
    assert s.labels() == ("x", "z")
    assert s.to_text() == "x z"
    assert s.indices() == (0, 2)
    assert list(s) == [0, 2]
    assert 0 in s and 1 not in s
    assert len(s) == 2


def test_elemset_boolean_laws():
    # De Morgan, associativity, idempotence, complement involution
    g = GroundSet([f"e{i}" for i in range(9)])
    rng = random.Random(20260819)
    full = (1 << 9) - 1
    for _ in range(300):
        a = ElemSet(g, rng.randrange(full + 1))
        b = ElemSet(g, rng.randrange(full + 1))
        c = ElemSet(g, rng.randrange(full + 1))
        assert (a | b).complement() == a.complement() & b.complement()
        assert (a & b).complement() == a.complement() | b.complement()
        assert (a | b) | c == a | (b | c)
        assert (a & b) & c == a & (b & c)
        assert a | a == a and a & a == a
        assert a.complement().complement() == a
        assert a - b == a & b.complement()
        assert a ^ b == (a | b) - (a & b)
        assert (a & b) <= a <= (a | b)


def test_elemset_ordering_is_subset_not_total():
    g = GroundSet(["a", "b"])
    a = g.set_of("a")
    b = g.set_of("b")
    assert not a <= b and not b <= a
    assert a < (a | b) and (a | b) > a
    assert a <= a and not a < a


def test_elemset_reflected_comparisons():
    # ``>=`` and ``>`` are ``<=`` and ``<`` with the operands swapped,
    # foreign grounds included; a non-set operand of a comparison or a
    # set operator, on either side, is a TypeError.
    g = GroundSet(["a", "b"])
    a, ab = g.set_of("a"), g.full()
    assert ab >= a and ab >= ab and not a >= ab and not a >= g.set_of("b")
    assert ab > a and not ab > ab and not a > ab
    foreign = GroundSet(["a", "c"]).full()
    for compare in (lambda x, y: x >= y, lambda x, y: x > y):
        with pytest.raises(MismatchedGroundSets):
            compare(ab, foreign)
    for op in (
        operator.le, operator.lt, operator.ge, operator.gt,
        operator.or_, operator.and_, operator.sub, operator.xor,
    ):
        for other in (0, 3, None):
            with pytest.raises(TypeError):
                op(ab, other)
            with pytest.raises(TypeError):
                op(other, ab)


def test_elemset_add_remove():
    g = GroundSet(["a", "b", "c"])
    s = g.empty().add(1).add(2)
    assert s == g.set_of("b", "c")
    assert s.remove(1) == g.set_of("c")
    assert s.add(1) == s


def test_elemset_mixed_grounds_rejected():
    g1 = GroundSet(["a", "b"])
    g2 = GroundSet(["a", "c"])
    with pytest.raises(MismatchedGroundSets):
        g1.full() | g2.full()
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
    assert base.duplicates_removed == 3
    assert len(base) == 2


def test_value_classes_are_frozen_records(demo_base, demo_graph):
    # ValidationReport, SolveStats and SolutionSet are plain slotted
    # classes: fields are read-only, equality and hashing go by field
    # values within one class, and copies keep every field.
    g = GroundSet(["a", "b"])
    report = validate_instance(demo_base, demo_graph)
    stats = SolveStats(key_count=2, seconds={"keys": 0.5})
    sol = SolutionSet(g, (g.set_of("a"),), stats)
    for obj, field in ((report, "n_edges"), (stats, "key_count"), (sol, "sets")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
    assert report == validate_instance(demo_base, demo_graph)
    assert hash(report) == hash(validate_instance(demo_base, demo_graph))
    assert report.empty_premises == () and report.n_edges == 3
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
    assert len(graph) == 2
    assert graph.edge_labels() == (("a", "c"), ("b", "c"))


def test_graph_drops_self_loops():
    g = GroundSet(["a", "b"])
    graph = ConsistencyGraph(g, [(0, 0), (0, 1)])
    assert graph.edges == ((0, 1),)
    assert graph.self_loops_dropped == 1


def test_graph_from_labels(demo_graph):
    g = demo_graph.ground
    again = ConsistencyGraph.from_labels(g, [("3", "4"), ("2", "4"), ("2", "5")])
    assert again == demo_graph


# ---------------------------------------------------------------------------
# Parsing and formatting


def test_parse_demo_instance(demo_base, demo_graph):
    assert demo_base.ground.labels == ("1", "2", "3", "4", "5")
    assert len(demo_base) == 4
    assert len(demo_graph) == 3
    assert demo_base.rules[3] == (1 << 3, 1 << 0)  # 4 -> 1


def test_parse_accepts_comments_and_blanks():
    base, graph = parse_instance(
        "# leading comment\n\nelements: a b\n# another\nimp: a -> b\n"
    )
    assert len(base) == 1 and len(graph) == 0


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


def test_format_sets(demo_base):
    g = demo_base.ground
    text = format_sets([g.set_of("1", "3"), g.set_of("5")])
    assert text.splitlines() == ["1 3", "5"]


# ---------------------------------------------------------------------------
# validate_instance


def test_validate_demo(demo_base, demo_graph):
    report = validate_instance(demo_base, demo_graph)
    assert (report.n_elements, report.n_implications, report.n_edges) == (5, 4, 3)
    assert report.empty_premises == ()


def test_validate_flags_trivial_instance(demo_base):
    report = validate_instance(
        demo_base, ConsistencyGraph(demo_base.ground, [])
    )
    assert report.n_edges == 0


def test_parsed_self_loop_edges_are_dropped_and_counted():
    _, graph = parse_instance("elements: a b\nedge: a a\nedge: a b\n")
    assert graph.edges == ((0, 1),)
    assert graph.self_loops_dropped == 1


def test_validate_flags_empty_premises():
    base, graph = parse_instance("elements: a b\nimp: -> a\n")
    report = validate_instance(base, graph)
    assert report.empty_premises == (0,)


def test_validate_rejects_mismatched_grounds():
    base, _ = parse_instance("elements: a b\nimp: a -> b\n")
    other = GroundSet(["a", "c"])
    with pytest.raises(MismatchedGroundSets):
        validate_instance(base, ConsistencyGraph(other, []))


_BASE, _GRAPH = parse_instance("elements: a b\nimp: a -> b\nedge: a b\n")
_OTHER, _OTHER_GRAPH = parse_instance("elements: a c\nedge: a c\n")
_G, _OG = _BASE.ground, _OTHER.ground


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: conclose.augment_with_inconsistency(_BASE, _OTHER_GRAPH),
         MismatchedGroundSets, "base and graph ground sets differ"),
        (lambda: conclose.solve(_BASE, _OTHER_GRAPH),
         MismatchedGroundSets, "base and graph ground sets differ"),
        (lambda: conclose.is_solution(_BASE, _GRAPH, _OG.full()),
         MismatchedGroundSets, "candidate over a different ground set"),
        (lambda: _G.from_indices([0, 2]), ValueError, "element index 2 out of range"),
        (lambda: ElemSet(_G, 4), ValueError, "mask 0x4 does not fit a 2-element ground set"),
        (lambda: ImplicationalBase(_G, [(0b01, 0b100)]),
         ValueError, "rule \\(1, 4\\) is not a pair of masks over 2 elements"),
        (lambda: ConsistencyGraph(_G, [(0, 2)]), ValueError, r"edge \(0, 2\) out of range"),
        (lambda: ConsistencyGraph(_G, [(0, 1.0)]), TypeError, "endpoints must be int indices"),
        (lambda: format_instance(_BASE, _OTHER_GRAPH),
         MismatchedGroundSets, "base and graph ground sets differ"),
    ],
    ids=[
        "augment_with_inconsistency", "solve", "is_solution", "from_indices", "ElemSet",
        "ImplicationalBase", "ConsistencyGraph", "ConsistencyGraph_float", "format_instance",
    ],
)
def test_foreign_grounds_and_out_of_range_indices_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()
