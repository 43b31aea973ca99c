"""The benchmark's pinned instances still come out of the generators,
and the solver still gives their pinned answers.

perfbench/run.py writes each workload's instances with
``canonical_text`` and refuses every run whose text no longer hashes to
the sha256 pinned in perfbench/workloads.json, or whose output has
another solution count or digest. These tests rebuild the same texts
and answers, so a drift in a generator, in format_instance or in the
solver shows here before it fails a benchmark run.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from conclose import brute_force_solve, parse_instance, solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))
PINS = [
    pytest.param(wl, pin, id=f"{name}-{k}")
    for name, wl in WORKLOADS.items()
    for k, pin in enumerate(wl["instances"])
]


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def canonical_text():
    return _load("perfbench_run", "run.py").canonical_text


@pytest.mark.parametrize("workload, pin", PINS)
def test_generated_instance_matches_its_pinned_sha256(canonical_text, workload, pin):
    text = canonical_text(workload["generator"], pin["params"])
    assert len(text.splitlines()) == pin["lines"]
    assert hashlib.sha256(text.encode()).hexdigest() == pin["sha256"]


@pytest.mark.parametrize("workload, pin", PINS)
def test_pinned_instance_gives_its_pinned_answer(canonical_text, workload, pin):
    # The digest is the sha256 of the lectic solution masks, space-joined.
    base, graph = parse_instance(canonical_text(workload["generator"], pin["params"]))
    run = brute_force_solve if workload["command"] == "oracle" else solve
    masks = [s.mask for s in run(base, graph).sets]
    assert len(masks) == pin["solutions"]
    assert hashlib.sha256(" ".join(map(str, masks)).encode()).hexdigest() == pin["digest"]


# Targets that no longer exist; the benchmark lists them as missing
# until its trace is next revised.
STALE_TARGETS = {"solver.Hypergraph", "solver.enumerate_closed_sets"}


def test_trace_targets_resolve_in_the_package():
    # The benchmark's trace wraps these names; one that a refactor drops
    # from the solve path silently stops being timed and counted.
    targets = _load("perfbench_trace_child", "trace_child.py").TARGETS
    assert STALE_TARGETS <= set(targets)
    for target in targets:
        module, attr = target.split(".")
        resolves = hasattr(importlib.import_module("conclose." + module), attr)
        assert resolves == (target not in STALE_TARGETS), target
