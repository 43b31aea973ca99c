"""Command-line behavior: golden text output, JSON parity, exit codes,
and file round trips through the generate command."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conclose.__main__ import run
from conclose.cli import main
from conclose.core import format_instance, load_instance, validate_instance
from conclose.generators import gen_random

from conftest import DEMO_TEXT

DEMO_SOLUTIONS_TEXT = "1 2 3\n3 5\n1 4 5\n"


@pytest.fixture
def demo_file(tmp_path):
    p = tmp_path / "demo.txt"
    p.write_text(DEMO_TEXT)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_text_golden(capsys, demo_file):
    code, out, err = run_cli(capsys, "solve", demo_file)
    assert code == 0
    assert out == DEMO_SOLUTIONS_TEXT
    assert err == "stats: keys=4\n"


def test_solve_json_parity(capsys, demo_file):
    code, out, err = run_cli(capsys, "solve", "--format", "json", demo_file)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["solutions"] == [["1", "2", "3"], ["3", "5"], ["1", "4", "5"]]
    assert payload["stats"]["key_count"] == 4


def _imported(*args: str) -> set[str]:
    # Every module a fresh interpreter imports, as -X importtime lists them.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_solve_loads_only_the_solve_path(demo_file):
    # The analysis and generator modules, dataclasses and json load only
    # for the commands that use them; what a bare interpreter's site
    # setup imports does not count.
    loaded = _imported("-m", "conclose", "solve", demo_file) - _imported("-c", "pass")
    assert {"conclose.cli", "conclose.keys", "conclose.solver"} <= loaded
    assert not loaded & {"conclose.analysis", "conclose.generators", "dataclasses", "json"}


def _run_module(*args: str) -> subprocess.CompletedProcess:
    # ``python -m conclose`` as a fresh, unbuffered process.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
    return subprocess.run(
        [sys.executable, "-m", "conclose", *args], env=env, capture_output=True, timeout=60
    )


def test_module_entry_prints_what_main_prints(capsys, demo_file, tmp_path):
    # The process entry freezes the collector and writes the answer in
    # one go; its bytes and exit codes are those of cli.main in-process.
    many = tmp_path / "random.txt"
    many.write_text(format_instance(*gen_random(30, 40, 3, 12, 5)))
    for path in (demo_file, str(many)):
        proc = _run_module("solve", path)
        code, out, err = run_cli(capsys, "solve", path)
        assert (proc.returncode, code) == (0, 0)
        assert proc.stdout == out.encode() and proc.stdout.count(b"\n") > 2
        assert proc.stderr == err.encode()
    assert _run_module("solve", "/nonexistent/path.txt").returncode == 1
    assert _run_module("solve", "--cap-keys", "2", demo_file).returncode == 2


def test_console_script_starts_at_the_process_entry():
    # The installed ``conclose`` script must freeze the collector as
    # ``python -m conclose`` does, so both name conclose.__main__.run.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (target,) = re.findall(r'^conclose = "(.+)"$', pyproject, re.M)
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is run


def test_solve_no_edges_returns_everything(capsys, tmp_path):
    p = tmp_path / "trivial.txt"
    p.write_text("elements: a b c\nimp: a -> b\n")
    code, out, _ = run_cli(capsys, "solve", str(p))
    assert code == 0
    assert out == "a b c\n"


def test_solve_missing_file(capsys):
    code, out, err = run_cli(capsys, "solve", "/nonexistent/path.txt")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_solve_parse_error_names_the_line(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("elements: a b\nimp: a ->\n")
    code, out, err = run_cli(capsys, "solve", str(p))
    assert code == 1
    assert "line 2" in err


def test_solve_key_cap_exit_two(capsys, demo_file):
    code, out, err = run_cli(capsys, "solve", "--cap-keys", "2", demo_file)
    assert code == 2
    assert err.startswith("incomplete:")
    assert "cap of 2" in err


def test_keys_cap_counts_the_first_key(capsys, tmp_path):
    p = tmp_path / "one_key.txt"
    p.write_text("elements: a b\nedge: a b\n")
    code, out, err = run_cli(capsys, "keys", "--cap-keys", "0", str(p))
    assert code == 2
    assert "cap of 0" in err
    code, out, _ = run_cli(capsys, "keys", "--cap-keys", "1", str(p))
    assert code == 0
    assert out == "keys: 1\na b\n"


def test_keys_cap_stops_at_the_first_key_past_it(capsys, tmp_path):
    # gen_exponential(10) has 1025 keys; the saturation stops at the fourth.
    p = tmp_path / "doubling.txt"
    assert run_cli(capsys, "generate", "exponential", "--n", "10", "-o", str(p))[0] == 0
    code, out, err = run_cli(capsys, "keys", "--cap-keys", "3", str(p))
    assert code == 2
    assert out == ""
    assert err == "incomplete: keys: output cap of 3 exceeded (at least 4 results) (partial results: 4)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--bogus"],
        ["solve", "--cap-keys", "x", "DEMO"],
        ["solve", "--cap-keys", "-1", "DEMO"],
        ["solve", "--cap-mis", "-1", "DEMO"],
        ["oracle", "--limit-ground", "20", "DEMO"],
        ["analyze", "--limit-ground", "20", "DEMO"],
        ["bench"],
    ],
)
def test_usage_errors_exit_one(capsys, demo_file, argv):
    # Exit code 2 is reserved for incomplete results.
    with pytest.raises(SystemExit) as exc:
        main([demo_file if a == "DEMO" else a for a in argv])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


TOP_USAGE = "usage: conclose [-h] {solve,oracle,keys,closure,coatoms,analyze,generate} ...\n"
TOP_HELP = TOP_USAGE + """
Enumerate maximal conflict-free closed sets of implicational bases.

positional arguments:
  {solve,oracle,keys,closure,coatoms,analyze,generate}
    solve               enumerate all solutions
    oracle              brute-force solutions plus agreement verdict
    keys                minimal keys of the augmented base (of the base itself
                        when no edges)
    closure             closure of one set
    coatoms             maximal proper closed sets
    analyze             structural check report
    generate            write an instance in the text format

options:
  -h, --help            show this help message and exit
"""
SOLVE_USAGE = """\
usage: conclose solve [-h] [--format {text,json}] [--cap-keys CAP_KEYS]
                      [--cap-mis CAP_MIS]
                      instance
"""
SOLVE_HELP = SOLVE_USAGE + """
positional arguments:
  instance

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --cap-keys CAP_KEYS   key enumeration cap
  --cap-mis CAP_MIS     independent-set cap
"""
CAPS_HELP = SOLVE_HELP[len(SOLVE_USAGE):]


def caps_usage(command):
    # The usage of a command that takes the caps, wrapped as SOLVE_USAGE is.
    pad = " " * len(f"usage: conclose {command} ")
    return (
        f"usage: conclose {command} [-h] [--format {{text,json}}] [--cap-keys CAP_KEYS]\n"
        f"{pad}[--cap-mis CAP_MIS]\n{pad}instance\n"
    )


CLOSURE_USAGE = "usage: conclose closure [-h] [--format {text,json}] --set SET_ARG instance\n"
CLOSURE_HELP = CLOSURE_USAGE + """
positional arguments:
  instance

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --set SET_ARG         comma-separated labels
"""
ANALYZE_USAGE = "usage: conclose analyze [-h] [--format {text,json}] instance\n"
ANALYZE_HELP = ANALYZE_USAGE + """
positional arguments:
  instance

options:
  -h, --help            show this help message and exit
  --format {text,json}
"""
GENERATE_USAGE = """\
usage: conclose generate [-h] [--n N] [--imps IMPS]
                         [--max-premise MAX_PREMISE] [--edges EDGES]
                         [--dim DIM] [--cnf CNF_PATH] [--reduce] [--seed SEED]
                         [-o OUTPUT]
                         {random,exponential,cnf,fano,gf2}
"""
GENERATE_HELP = GENERATE_USAGE + """
positional arguments:
  {random,exponential,cnf,fano,gf2}

options:
  -h, --help            show this help message and exit
  --n N
  --imps IMPS
  --max-premise MAX_PREMISE
  --edges EDGES
  --dim DIM
  --cnf CNF_PATH        DIMACS-like positive 3-CNF input
  --reduce              wrap a cnf base in the co-atom reduction
  --seed SEED
  -o OUTPUT, --output OUTPUT
                        write to a file instead of stdout
"""
CHOICES = "'solve', 'oracle', 'keys', 'closure', 'coatoms', 'analyze', 'generate'"
INVALID = "argument command: invalid choice: {!r} (choose from " + CHOICES + ")"
MISSING = "the following arguments are required: command"
NOT_INT = "argument --cap-{}: expected a non-negative integer, got {!r}"
EXTRA = "unrecognized arguments: --limit-ground FILE"
NO_INSTANCE = "the following arguments are required: instance"


def top_error(message):
    return TOP_USAGE + f"conclose: error: {message}\n"


def solve_error(message):
    return SOLVE_USAGE + f"conclose solve: error: {message}\n"


def command_error(usage, command, message):
    return usage + f"conclose {command}: error: {message}\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["--help"], 0, TOP_HELP, ""),
        (["solve", "--help"], 0, SOLVE_HELP, ""),
        ([], 1, "", top_error(MISSING)),
        (["bogus"], 1, "", top_error(INVALID.format("bogus"))),
        (["--bogus"], 1, "", top_error(MISSING)),
        (["solve", "--cap-keys", "x", "FILE"], 1, "", solve_error(NOT_INT.format("keys", "x"))),
        (["solve", "--cap-keys", "-1", "FILE"], 1, "", solve_error(NOT_INT.format("keys", "-1"))),
        (["solve", "--cap-mis", "-1", "FILE"], 1, "", solve_error(NOT_INT.format("mis", "-1"))),
        (["oracle", "--limit-ground", "20", "FILE"], 1, "", top_error(EXTRA)),
        (["analyze", "--limit-ground", "20", "FILE"], 1, "", top_error(EXTRA)),
        (["bench"], 1, "", top_error(INVALID.format("bench"))),
        (["oracle", "--help"], 0, caps_usage("oracle") + CAPS_HELP, ""),
        (["keys", "--help"], 0, caps_usage("keys") + CAPS_HELP, ""),
        (["closure", "--help"], 0, CLOSURE_HELP, ""),
        (["coatoms", "--help"], 0, caps_usage("coatoms") + CAPS_HELP, ""),
        (["analyze", "--help"], 0, ANALYZE_HELP, ""),
        (["generate", "--help"], 0, GENERATE_HELP, ""),
        (["solve"], 1, "", solve_error(NO_INSTANCE)),
        (["oracle"], 1, "", command_error(caps_usage("oracle"), "oracle", NO_INSTANCE)),
        (
            ["keys", "--format", "xml", "FILE"],
            1,
            "",
            command_error(
                caps_usage("keys"),
                "keys",
                "argument --format: invalid choice: 'xml' (choose from 'text', 'json')",
            ),
        ),
        (
            ["closure", "FILE"],
            1,
            "",
            command_error(CLOSURE_USAGE, "closure", "the following arguments are required: --set"),
        ),
        (["coatoms"], 1, "", command_error(caps_usage("coatoms"), "coatoms", NO_INSTANCE)),
        (["analyze"], 1, "", command_error(ANALYZE_USAGE, "analyze", NO_INSTANCE)),
        (
            ["generate", "bogus"],
            1,
            "",
            command_error(
                GENERATE_USAGE,
                "generate",
                "argument family: invalid choice: 'bogus' (choose from 'random', "
                "'exponential', 'cnf', 'fano', 'gf2')",
            ),
        ),
    ],
)
def test_usage_output_is_pinned(capsys, monkeypatch, argv, code, out, err):
    # A run builds only the subparser its command names; help, usage
    # lines and errors read as if every subparser were built.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


def test_a_command_builds_only_its_own_subparser(capsys, monkeypatch, demo_file):
    import argparse

    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(action, name, **kwargs):
        built.append(name)
        return add_parser(action, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert run_cli(capsys, "closure", demo_file, "--set", "1,3") == (0, "1 2 3\n", "")
    assert built == ["closure"]


@pytest.fixture
def wide_file(tmp_path):
    p = tmp_path / "wide.txt"
    p.write_text("elements: " + " ".join(f"e{i}" for i in range(21)) + "\nedge: e0 e1\n")
    return str(p)


def test_exhaustive_commands_refuse_past_the_limit(capsys, wide_file):
    code, out, err = run_cli(capsys, "oracle", wide_file)
    assert code == 1
    assert out == ""
    assert "21 elements exceeds the exhaustive limit of 20" in err


def test_analyze_reports_modularity_na_past_the_limit(capsys, wide_file):
    # Only modularity reads the closed-set family; analyze reports it n/a
    # with the refusal as its witness and runs every other check.
    refusal = "21 elements exceeds the exhaustive limit of 20"
    code, out, err = run_cli(capsys, "analyze", wide_file)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "modular                    : n/a" in lines
    assert f"witness[modular] : {refusal}" in lines
    code, out, err = run_cli(capsys, "analyze", "--format", "json", wide_file)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["modular"] is None
    assert payload["witnesses"] == {"modular": refusal}


def test_oracle_agrees_at_the_limit(capsys, tmp_path):
    p = tmp_path / "limit.txt"
    p.write_text(format_instance(*gen_random(20, 40, 3, 6, 0)))
    code, out, _ = run_cli(capsys, "oracle", str(p))
    assert code == 0
    assert out.endswith("agreement: agree\n")


def test_solve_non_utf8_file_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"elements: a \xe9\n")
    code, out, err = run_cli(capsys, "solve", str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 1:")


# ---------------------------------------------------------------------------
# keys / closure / coatoms


def test_keys_text_golden(capsys, demo_file):
    code, out, _ = run_cli(capsys, "keys", demo_file)
    assert code == 0
    assert out == "keys: 4\n2 4\n3 4\n2 5\n1 3 5\n"


def test_keys_json(capsys, demo_file):
    code, out, _ = run_cli(capsys, "keys", "--format", "json", demo_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert [" ".join(k) for k in payload["keys"]] == ["2 4", "3 4", "2 5", "1 3 5"]


def test_keys_lists_the_empty_key(capsys, tmp_path):
    # The empty set is the one key; like an empty solution, it prints as an empty line.
    p = tmp_path / "everything.txt"
    p.write_text("elements: a b c\nimp: -> a b c\nedge: a b\n")
    code, out, _ = run_cli(capsys, "keys", str(p))
    assert (code, out) == (0, "keys: 1\n\n")
    code, out, err = run_cli(capsys, "solve", "--cap-mis", "0", str(p))
    assert (code, out, err) == (0, "", "stats: keys=1\n")


def test_closure_golden(capsys, demo_file):
    code, out, _ = run_cli(capsys, "closure", demo_file, "--set", "1,3,5")
    assert code == 0
    assert out == "1 2 3 5\n"


def test_closure_empty_set(capsys, demo_file):
    code, out, _ = run_cli(capsys, "closure", demo_file, "--set", "")
    assert code == 0
    assert out == "\n"  # empty closure prints an empty line


def test_closure_unknown_label(capsys, demo_file):
    code, _, err = run_cli(capsys, "closure", demo_file, "--set", "9")
    assert code == 1
    assert err.startswith("error:")


def test_coatoms_golden(capsys, demo_file):
    code, out, _ = run_cli(capsys, "coatoms", demo_file)
    assert code == 0
    assert out == "1 2 3 4\n1 2 3 5\n1 4 5\n"


def test_coatoms_key_cap_exit_two(capsys, demo_file):
    # The key cap holds for co-atoms as for solve; no other path takes over.
    code, out, err = run_cli(capsys, "coatoms", "--cap-keys", "1", demo_file)
    assert code == 2
    assert out == ""
    assert err.startswith("incomplete:")
    assert "cap of 1" in err


# ---------------------------------------------------------------------------
# oracle / analyze


def test_oracle_agrees_on_demo(capsys, demo_file):
    code, out, _ = run_cli(capsys, "oracle", demo_file)
    assert code == 0
    assert out == DEMO_SOLUTIONS_TEXT + "agreement: agree\n"


def test_analyze_text_mentions_each_check(capsys, demo_file):
    code, out, _ = run_cli(capsys, "analyze", demo_file)
    assert code == 0
    for row in (
        "standard                   : yes",
        "modular                    : yes",
        "atomistic                  : no",
        "lower bounded              : no",
        "caratheodory number        : 2",
    ):
        assert row in out


def test_analyze_json_fields(capsys, demo_file):
    code, out, _ = run_cli(capsys, "analyze", "--format", "json", demo_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["standard"] is True
    assert payload["modular"] is True
    assert payload["atomistic"] is False
    assert payload["lower_bounded"] is False
    assert payload["caratheodory"] == 2
    assert payload["d_self_loops"] == ["1", "2", "3", "4", "5"]


# ---------------------------------------------------------------------------
# generate


def test_generate_exponential_golden(capsys):
    code, out, _ = run_cli(capsys, "generate", "exponential", "--n", "2")
    assert code == 0
    assert out == (
        "elements: x1 x2 y1 y2 u v\n"
        "imp: x1 -> y1\n"
        "imp: x2 -> y2\n"
        "imp: y1 y2 -> u v\n"
        "edge: u v\n"
    )


def test_generate_random_to_file_round_trips(capsys, tmp_path):
    out_path = tmp_path / "inst.txt"
    code, out, _ = run_cli(
        capsys, "generate", "random", "--n", "6", "--seed", "7", "-o", str(out_path)
    )
    assert code == 0
    assert out == ""
    base, graph = load_instance(str(out_path))
    assert base.ground.n == 6
    assert validate_instance(base, graph).n_elements == 6
    code2, solved, _ = run_cli(capsys, "solve", str(out_path))
    assert code2 == 0
    assert solved  # at least one solution line


def test_generate_cnf_requires_input(capsys):
    code, _, err = run_cli(capsys, "generate", "cnf")
    assert code == 1
    assert "needs --cnf" in err


def test_generate_cnf_with_reduaction_solves(capsys, tmp_path):
    cnf_path = tmp_path / "f.cnf"
    cnf_path.write_text("p cnf 4 2\n1 2 3 0\n2 3 4 0\n")
    inst_path = tmp_path / "inst.txt"
    code, _, _ = run_cli(
        capsys, "generate", "cnf", "--cnf", str(cnf_path), "--reduce", "-o", str(inst_path)
    )
    assert code == 0
    base, graph = load_instance(str(inst_path))
    assert "u" in base.ground.labels and "v" in base.ground.labels
    assert len(graph.edges) == 1
    code2, out, _ = run_cli(capsys, "solve", str(inst_path))
    assert code2 == 0
    for line in out.splitlines():
        members = set(line.split())
        assert len(members & {"u", "v"}) == 1


def test_generate_gf2_dim_three(capsys):
    code, out, _ = run_cli(capsys, "generate", "gf2", "--dim", "3")
    assert code == 0
    first = out.splitlines()[0]
    assert first == "elements: " + " ".join(str(i) for i in range(1, 16))


def test_generate_fano_has_no_edges(capsys):
    code, out, _ = run_cli(capsys, "generate", "fano")
    assert code == 0
    assert "edge:" not in out
    assert sum(1 for l in out.splitlines() if l.startswith("imp:")) == 21

