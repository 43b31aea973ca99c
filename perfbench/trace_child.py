"""Run one conclose CLI command with timing wrappers on its layer entry points.

    python3 perfbench/trace_child.py SPANS_JSON RUN_ID COMMAND ARG...

Before calling ``conclose.cli.main`` the wrappers below replace public
names in ``conclose.cli`` and ``conclose.solver``. Each call leaves one
span (name, start, end, parent, run id, counts read from its arguments
and result) in memory; all spans are written to SPANS_JSON once, at
exit. A name that no longer exists is listed under ``missing`` and the
command still runs. The child exits with the CLI's own exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

TARGETS = (
    "cli.load_instance",
    "cli.solve",
    "cli.brute_force_solve",
    "solver.augment_with_inconsistency",
    "solver.enumerate_keys",
    "solver.Hypergraph",
    "solver.maximal_independent_sets",
    "solver.enumerate_closed_sets",
)


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts of one call, or {} when the result no longer has that shape."""
    try:
        if name == "solver.enumerate_keys":
            sizes = [len(k) for k in result]
            return {"keys": len(sizes), "key_elements": sum(sizes)}
        if name == "solver.Hypergraph":
            return {"offered": len(args[1]), "kept": len(result)}
        if name in ("solver.maximal_independent_sets", "solver.enumerate_closed_sets"):
            return {"sets": len(result)}
        if name in ("cli.solve", "cli.brute_force_solve"):
            return {"stats_seconds": sum(result.stats.seconds.values())}
    except (AttributeError, IndexError, TypeError):
        pass
    return {}


def main() -> int:
    out_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    clock = time.perf_counter
    spans: list[dict] = []
    stack: list[int] = []
    missing: list[str] = []

    def wrap(name, fn):
        def timed(*args, **kwargs):
            span = {"name": name, "start": clock(), "end": None,
                    "parent": stack[-1] if stack else None, "run": run_id}
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            span["counts"] = _counts(name, args, result)
            return result

        return timed

    for target in TARGETS:
        module_name, attr = target.split(".")
        try:
            module = importlib.import_module("conclose." + module_name)
            setattr(module, attr, wrap(target, getattr(module, attr)))
        except (ImportError, AttributeError):
            missing.append(target)

    from conclose.cli import main as cli_main

    root = {"name": "cli.main", "start": clock(), "end": None, "parent": None,
            "run": run_id, "counts": {}}
    spans.append(root)
    stack.append(0)
    code = 1
    try:
        code = cli_main(argv)
    finally:
        root["end"] = clock()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
