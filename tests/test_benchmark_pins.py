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


@pytest.fixture(scope="module")
def canonical_text():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in perfbench/
    try:
        spec.loader.exec_module(run)
    finally:
        sys.dont_write_bytecode = saved
    return run.canonical_text


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
    masks = [s.mask for s in run(base, graph)]
    assert len(masks) == pin["solutions"]
    assert hashlib.sha256(" ".join(map(str, masks)).encode()).hexdigest() == pin["digest"]
