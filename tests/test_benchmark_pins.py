"""The benchmark's pinned instances still come out of the generators.

perfbench/run.py writes each workload's instances with
``canonical_text`` and refuses every run whose text no longer hashes to
the sha256 pinned in perfbench/workloads.json. This test rebuilds the
same texts, so a drift in a generator or in format_instance shows here
before it fails a benchmark run.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))
PINS = [
    pytest.param(wl["generator"], pin, id=f"{name}-{k}")
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


@pytest.mark.parametrize("generator, pin", PINS)
def test_generated_instance_matches_its_pinned_sha256(canonical_text, generator, pin):
    text = canonical_text(generator, pin["params"])
    assert len(text.splitlines()) == pin["lines"]
    assert hashlib.sha256(text.encode()).hexdigest() == pin["sha256"]
