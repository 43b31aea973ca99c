"""Command-line front end.

Subcommands mirror the library: solve, oracle, keys, closure, coatoms,
analyze, generate. Output is plain text by default or JSON with
--format json; the generate command always emits the instance text
format. Exit codes: 0 on success, 1 on any error, 2 when an
enumeration hit its output cap and the results are incomplete. Usage
errors exit 1 too, so 2 always means partial output. The modules
that only one command needs (analysis, generators, json) are imported
inside that command, so the others never load them.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterable

from .closure import close
from .core import KEY_CAP, MIS_CAP, format_instance, load_instance
from .errors import ClosureError, OutputLimitExceeded
from .keys import augment_with_inconsistency, enumerate_keys
from .solver import brute_force_solve, co_atoms, solve


def _emit(
    args: argparse.Namespace,
    payload: Callable[[], dict],
    text_lines: Callable[[], Iterable[str]],
) -> None:
    """Write the chosen format; only the chosen one of the two is built.

    The output goes out in one write: unbuffered, as under
    PYTHONUNBUFFERED=1, each print would cost two write calls, one for
    the line and one for its newline.
    """
    if args.format == "json":
        import json

        text = json.dumps(payload(), indent=2, sort_keys=True) + "\n"
    else:
        # The empty last item ends every line, and no lines write nothing.
        text = "\n".join([*text_lines(), ""])
    sys.stdout.write(text)


def _labels(sets) -> list[list[str]]:
    return [list(s.labels()) for s in sets]


def _cmd_solve(args: argparse.Namespace) -> int:
    base, graph = load_instance(args.instance)
    result = solve(base, graph, key_cap=args.cap_keys, mis_cap=args.cap_mis)
    _emit(
        args,
        lambda: {"solutions": _labels(result.sets), "stats": result.stats.to_dict()},
        lambda: [s.to_text() for s in result.sets],
    )
    if args.format == "text":
        print(f"stats: keys={result.stats.key_count}", file=sys.stderr)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    base, graph = load_instance(args.instance)
    oracle = brute_force_solve(base, graph)
    try:
        fast = solve(base, graph, key_cap=args.cap_keys, mis_cap=args.cap_mis)
    except ClosureError as exc:
        verdict = f"unchecked ({exc})"
    else:
        verdict = "agree" if tuple(fast.sets) == tuple(oracle.sets) else "disagree"
    _emit(
        args,
        lambda: {"solutions": _labels(oracle.sets), "agreement": verdict},
        lambda: [s.to_text() for s in oracle.sets] + [f"agreement: {verdict}"],
    )
    return 1 if verdict == "disagree" else 0


def _cmd_keys(args: argparse.Namespace) -> int:
    base, graph = load_instance(args.instance)
    keys = enumerate_keys(augment_with_inconsistency(base, graph), cap=args.cap_keys)
    _emit(
        args,
        lambda: {"count": len(keys), "keys": _labels(keys)},
        lambda: [f"keys: {len(keys)}"] + [k.to_text() for k in keys],
    )
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    base, _ = load_instance(args.instance)
    labels = [t for t in args.set_arg.split(",") if t]
    try:
        subset = base.ground.set_of(*labels)
    except KeyError as exc:
        raise ClosureError(f"--set names {exc.args[0]}") from None
    result = close(base, subset)
    _emit(
        args,
        lambda: {"set": list(subset.labels()), "closure": list(result.labels())},
        lambda: [result.to_text()],
    )
    return 0


def _cmd_coatoms(args: argparse.Namespace) -> int:
    base, _ = load_instance(args.instance)
    tops = co_atoms(base, key_cap=args.cap_keys, mis_cap=args.cap_mis)
    _emit(args, lambda: {"coatoms": _labels(tops)}, lambda: [s.to_text() for s in tops])
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze

    base, _ = load_instance(args.instance)
    report = analyze(base)
    _emit(args, report.to_dict, lambda: report.render_text().splitlines())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from . import generators as gen

    family = args.family
    if family == "random":
        base, graph = gen.gen_random(
            args.n, args.imps, args.max_premise, args.edges, args.seed
        )
    elif family == "exponential":
        base, graph = gen.gen_exponential(args.n)
    elif family == "cnf":
        if not args.cnf_path:
            raise ClosureError("the cnf family needs --cnf FILE")
        with open(args.cnf_path, "r", encoding="utf-8") as fh:
            cnf = gen.parse_dimacs_cnf(fh.read())
        base = gen.gen_cnf_lower_bounded(cnf)
        graph = None
        if args.reduce:
            base, graph = gen.gen_reduction(base)
    elif family == "fano":
        base, graph = gen.gen_fano(), None
    else:  # gf2; argparse has already refused any other family
        base, graph = gen.gen_projective_gf2(args.dim), None
    text = format_instance(base, graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# Each command's handler, its help line, and whether it takes the output
# caps. Every command but generate reads an instance and takes --format.
_COMMANDS = {
    "solve": (_cmd_solve, "enumerate all solutions", True),
    "oracle": (_cmd_oracle, "brute-force solutions plus agreement verdict", True),
    "keys": (
        _cmd_keys,
        "minimal keys of the augmented base (of the base itself when no edges)",
        True,
    ),
    "closure": (_cmd_closure, "closure of one set", False),
    "coatoms": (_cmd_coatoms, "maximal proper closed sets", True),
    "analyze": (_cmd_analyze, "structural check report", False),
    "generate": (_cmd_generate, "write an instance in the text format", False),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error; here 2 means incomplete results.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, with only the subparser of ``command`` when it names one.

    Building every subparser costs several times one, so a run builds
    just its own; --help, no command and an unknown one get them all.
    With one subparser the command metavar is spelt out, so a usage line
    still lists every command (argparse names the argument by that
    metavar only in the errors that a known command cannot raise).
    """
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    parser = _Parser(
        prog="conclose",
        description="Enumerate maximal conflict-free closed sets of implicational bases.",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None,
    )
    for name in names:
        _, help_line, caps = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        if name == "generate":
            p.add_argument("family", choices=("random", "exponential", "cnf", "fano", "gf2"))
            p.add_argument("--n", type=int, default=3)
            p.add_argument("--imps", type=int, default=10)
            p.add_argument("--max-premise", type=int, default=3)
            p.add_argument("--edges", type=int, default=3)
            p.add_argument("--dim", type=int, default=2)
            p.add_argument("--cnf", dest="cnf_path", help="DIMACS-like positive 3-CNF input")
            p.add_argument(
                "--reduce", action="store_true", help="wrap a cnf base in the co-atom reduction"
            )
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("-o", "--output", help="write to a file instead of stdout")
            continue
        p.add_argument("--format", choices=("text", "json"), default="text")
        if caps:
            p.add_argument("--cap-keys", type=_count, default=KEY_CAP, help="key enumeration cap")
            p.add_argument("--cap-mis", type=_count, default=MIS_CAP, help="independent-set cap")
        p.add_argument("instance")
        if name == "closure":
            p.add_argument("--set", dest="set_arg", required=True, help="comma-separated labels")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except OutputLimitExceeded as exc:
        print(f"incomplete: {exc} (partial results: {len(exc.partial)})", file=sys.stderr)
        return 2
    except (ClosureError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
