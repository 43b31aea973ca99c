#!/usr/bin/env python3
"""Refresh the pins and layer shares in perfbench/workloads.json.

    python3 perfbench/pin.py          # from the repository root

For every instance this records the sha256 of the generator's text and
the reference solution count and digest. The reference comes from the
brute force in check.py when the ground set has at most 20 elements;
above that it is the program's own output, accepted only after every
set passes the closure checks in check.py. A traced run of each
workload then records each layer's share of the traced wall time.
Run it only on code whose outputs are trusted: the pins are what later
runs are judged against.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from check import Instance, brute_force, check_solutions, digest, parse_solutions

BRUTE_FORCE_LIMIT = 20
SHARE_SECONDS = 10.0


def reference(command: str, text: str, workdir: Path) -> tuple[list[int], str]:
    inst = Instance(text)
    path = workdir / "pin.txt"
    path.write_text(text, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "conclose", command, str(path)],
        capture_output=True, text=True, env=run.child_env(), check=True,
    ).stdout
    masks = parse_solutions(inst, command, out)
    if inst.n <= BRUTE_FORCE_LIMIT:
        expected = brute_force(inst)
        if masks != expected:
            raise SystemExit(f"program output disagrees with brute force on {path}")
        return expected, "brute force"
    reason = check_solutions(inst, masks)
    if reason:
        raise SystemExit(f"program output fails the checks: {reason}")
    return masks, "program output, closure-checked"


def main() -> int:
    if not (run.SRC / "conclose" / "cli.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec_path = run.HERE / "workloads.json"
    spec = json.loads(spec_path.read_text())
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        for name, workload in spec.items():
            for pin in workload["instances"]:
                text = run.canonical_text(workload["generator"], pin["params"])
                masks, source = reference(workload["command"], text, workdir)
                pin.update(
                    lines=len(text.splitlines()),
                    sha256=hashlib.sha256(text.encode()).hexdigest(),
                    solutions=len(masks),
                    digest=digest(masks),
                    reference=source,
                )
                print(f"{name} {pin['params']}: {len(masks)} solutions ({source})")
            result = run.run_workload(name, workload, 0, SHARE_SECONDS, True, workdir)
            workload["layer_shares"] = {
                metric: round(share, 4) for metric, share in result.shares.items()
            }
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
