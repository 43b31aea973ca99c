#!/usr/bin/env python3
"""End-to-end benchmark of the conclose command-line program.

Run from the repository root:

    python3 perfbench/run.py --workload doubling --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 5      # one table row each

A workload is a pool of generated instances; ``workloads.json`` gives
each one's generator, parameters and pinned reference (instance text
sha256, solution count and solution digest). The seed gives every
element a fresh random label and orders the pool, so each seed hands the
program different files of the same shape. One driver process runs one
``python -m conclose`` process at a time, started through ``launch.py``
(a closed loop with one client), over whole passes of the pool for about
``--seconds``, timestamping each stdout line as it arrives; the program
runs with PYTHONUNBUFFERED=1 so a solver that streams its output shows
it without a change here.

Outputs are checked after the timed loop: exit code, lectic order, each
set closed, conflict-free and maximal under the fixpoint closure in
``check.py``, and count and digest against the pins. A run fails when it
exits non-zero, passes the per-run time limit, or fails a check.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes whose child wraps the package's layer entry
points (``trace_child.py``) and reports the per-layer metrics. The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import Instance, check_solutions, digest, parse_solutions  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
RUN_LIMIT_S = 30.0  # a CLI run slower than this is killed and counted as failed
OVERRUN_S = 60.0  # no new run starts this long after --seconds, so a slow program still ends

END_TO_END_UNITS = {
    "wall_s": "s",
    "first_solution_s": "s",
    "max_delay_s": "s",
    "solutions_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer timing metric -> the span it sums.
SPAN_METRICS = {
    "core.load_instance.s": "cli.load_instance",
    "keys.augment.s": "solver.augment_with_inconsistency",
    "keys.enumerate_keys.s": "solver.enumerate_keys",
    "transversal.hypergraph.s": "solver.Hypergraph",
    "transversal.mis.s": "solver.maximal_independent_sets",
    "solver.solve.s": "cli.solve",
    "solver.brute_force.s": "cli.brute_force_solve",
    "closure.enumerate_closed_sets.s": "solver.enumerate_closed_sets",
    "cli.main.s": "cli.main",
}
SELF_METRICS = {
    "solver.solve.self_s": "cli.solve",
    "solver.brute_force.self_s": "cli.brute_force_solve",
    "cli.self_s": "cli.main",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "s" for name in SELF_METRICS},
    "keys.count": "count",
    "keys.per_s": "1/s",
    "keys.mean_size": "count",
    "transversal.hypergraph.kept_ratio": "ratio",
    "transversal.mis.count": "count",
    "transversal.mis.per_s": "1/s",
    "closure.closed_sets.count": "count",
    "closure.closed_sets.per_s": "1/s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.stats_gap_s": "s",
    "trace.missing_names": "count",
}


@dataclass
class Case:
    """One instance of a workload, written out under this seed's labels."""

    name: str
    command: str
    path: Path
    inst: Instance
    pin: dict
    text_ok: bool  # the generator's canonical text matched its pinned sha256


@dataclass
class Sample:
    """One child process: timings as seen from outside, and its output."""

    case: Case
    wall: float
    line_times: list[float]  # seconds from spawn to the arrival of each line
    rss_mb: float
    stdout: bytes
    returncode: int | None  # None when killed at the time limit
    traced: bool = False
    spans: dict | None = None
    error: str | None = None
    solutions: int = 0


@dataclass
class Result:
    workload: str
    samples: list[Sample]
    setup: list[Sample] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    shares: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Inputs


def canonical_text(generator: str, params: dict) -> str:
    """Instance text straight from the package's generators."""
    from conclose import generators as gen
    from conclose.core import ConsistencyGraph, format_instance

    if generator == "exponential":
        base, graph = gen.gen_exponential(params["n"])
    elif generator == "random":
        base, graph = gen.gen_random(
            params["n"], params["imps"], params["max_premise"], params["edges"], params["seed"]
        )
    elif generator == "poset_convexity":
        base = gen.gen_poset_convexity(gen.gen_random_poset(params["n"], params["seed"]))
        rng = random.Random(params["seed"] + 1000)
        pairs = set()
        while len(pairs) < params["edges"]:
            pairs.add(tuple(sorted(rng.sample(range(params["n"]), 2))))
        graph = ConsistencyGraph(base.ground, sorted(pairs))
    else:
        raise ValueError(f"unknown generator {generator!r}")
    return format_instance(base, graph)


def relabel(text: str, rng: random.Random) -> str:
    """The same instance with every element renamed to three random letters.

    Element order, and so the work the solver does and the lectic order
    of its output, is unchanged; only the text differs.
    """
    labels = Instance(text).labels
    codes = rng.sample(range(26**3), len(labels))
    fresh = ["".join(chr(97 + c // 26**k % 26) for k in range(3)) for c in codes]
    names = dict(zip(labels, fresh))
    return "".join(
        " ".join(names.get(t, t) for t in line.split()) + "\n" for line in text.splitlines()
    )


def prepare(workload: dict, rng: random.Random, workdir: Path) -> list[Case]:
    cases = []
    for k, pin in enumerate(workload["instances"]):
        canonical = canonical_text(workload["generator"], pin["params"])
        text = relabel(canonical, rng)
        path = workdir / f"instance{k}.txt"
        path.write_text(text, encoding="utf-8")
        params = ",".join(f"{key}={value}" for key, value in pin["params"].items())
        cases.append(Case(
            name=f"{workload['generator']}({params})",
            command=workload["command"],
            path=path,
            inst=Instance(text),
            pin=pin,
            text_ok=hashlib.sha256(canonical.encode()).hexdigest() == pin["sha256"],
        ))
    return cases


# ---------------------------------------------------------------------------
# Running children


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    # An installed program keeps its byte code; recompiling on every run is
    # not a cost users pay.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def kill_group(proc: subprocess.Popen) -> None:
    """Kill the launcher and the program it started, and reap the launcher."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def spawn(argv: list[str], env: dict, stderr_path: Path) -> tuple:
    """Run one child through launch.py; return (wall, line_times, rss_mb, stdout, returncode).

    The driver stamps each stdout chunk as it arrives; every line in it
    counts as arrived then.
    """
    report_r, report_w = os.pipe()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launch.py"), str(report_w), *argv],
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT,
            pass_fds=(report_w,), start_new_session=True,
        )
    os.close(report_w)
    sel = selectors.DefaultSelector()
    chunks: list[bytes] = []
    arrivals: list[float] = []
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        fd = proc.stdout.fileno()
        sel.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not sel.select(remaining):
                kill_group(proc)
                return RUN_LIMIT_S, [], 0.0, b"".join(chunks), None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            arrived = time.perf_counter()
            chunks.append(chunk)
            arrivals.extend([arrived] * chunk.count(b"\n"))
        proc.wait()
        report = os.read(report_r, 256).split()
    finally:
        sel.close()
        proc.stdout.close()
        os.close(report_r)
        if proc.returncode is None:
            kill_group(proc)
    if len(report) != 4:
        return 0.0, [], 0.0, b"".join(chunks), proc.returncode or 127
    start, end = float(report[0]), float(report[1])
    status, maxrss_kb = int(report[2]), int(report[3])
    return (end - start, [t - start for t in arrivals], maxrss_kb / 1024,
            b"".join(chunks), os.waitstatus_to_exitcode(status))


def run_case(case: Case, env: dict, workdir: Path, traced: bool, run_id: int) -> Sample:
    spans_path = workdir / f"spans{run_id}.json"
    if traced:
        argv = [sys.executable, str(HERE / "trace_child.py"), str(spans_path), str(run_id)]
    else:
        argv = [sys.executable, "-m", "conclose"]
    argv += [case.command, str(case.path)]
    sample = Sample(case, *spawn(argv, env, workdir / "stderr.txt"), traced=traced)
    if sample.returncode is not None and sample.returncode != 0:
        lines = (workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()
        sample.error = f"exit code {sample.returncode}: {lines[-1] if lines else ''}"
    if traced and spans_path.exists():
        sample.spans = json.loads(spans_path.read_text())
        spans_path.unlink()
    return sample


def closure_argv(case: Case) -> list[str]:
    return [sys.executable, "-m", "conclose", "closure", str(case.path),
            "--set", case.inst.labels[0]]


def run_passes(cases, seconds, rng, env, workdir, trace: bool) -> tuple[list, list]:
    """Whole passes over the pool, each in a fresh seeded order, for about ``seconds``.

    Whole passes keep every instance's share of the samples fixed. Without
    ``trace`` each pass also runs every instance's set-up command, spread
    among the timed runs so that a passing burst of load on the machine
    hits both kinds alike. With ``trace`` every second pass is traced and
    at least one pass of each kind runs. Returns (runs, set-up runs).
    """
    samples: list[Sample] = []
    setup: list[Sample] = []
    start = time.perf_counter()
    passes = 0
    while True:
        traced = trace and passes % 2 == 1
        order = [(case, False) for case in cases]
        if not trace:
            order += [(case, True) for case in cases]
        rng.shuffle(order)
        began = time.perf_counter()
        for case, is_setup in order:
            if time.perf_counter() - start > seconds + OVERRUN_S:
                return samples, setup
            if is_setup:
                setup.append(Sample(case, *spawn(closure_argv(case), env, workdir / "stderr.txt")))
            else:
                samples.append(run_case(case, env, workdir, traced, len(samples)))
        passes += 1
        now = time.perf_counter()
        if now - start + (now - began) / 2 >= seconds and passes >= (2 if trace else 1):
            return samples, setup


# ---------------------------------------------------------------------------
# Checks, outside the timed region


def judge(sample: Sample, verified: set[bytes]) -> None:
    """Set ``sample.error`` and ``sample.solutions`` from its output.

    The closure check of every set runs once per distinct output in
    ``verified``; count and digest are compared on every run.
    """
    case = sample.case
    if sample.returncode is None:
        sample.error = f"killed after {RUN_LIMIT_S:.0f} s"
    if sample.error:
        return
    try:
        masks = parse_solutions(case.inst, case.command, sample.stdout.decode("utf-8", "replace"))
    except ValueError as exc:
        sample.error = str(exc)
        return
    sample.solutions = len(masks)
    key = hashlib.sha256(sample.stdout).digest()
    if key not in verified:
        reason = check_solutions(case.inst, masks)
        if reason:
            sample.error = reason
            return
        verified.add(key)
    if not case.text_ok:
        sample.error = "generated instance differs from its pinned sha256"
    elif len(masks) != case.pin["solutions"] or digest(masks) != case.pin["digest"]:
        sample.error = (
            f"{len(masks)} solutions do not match the {case.pin['solutions']} pinned"
        )


def judge_closure(sample: Sample) -> None:
    if sample.returncode is None:
        sample.error = f"killed after {RUN_LIMIT_S:.0f} s"
    elif sample.returncode != 0:
        sample.error = f"closure exit code {sample.returncode}"
    else:
        inst = sample.case.inst
        try:
            got = inst.mask(sample.stdout.decode("utf-8", "replace").split())
        except KeyError:
            got = None
        if got != inst.close(1):
            sample.error = "closure output is not the closure of the first element"


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list[float]) -> tuple[int, float] | None:
    """(percentile, value) of the highest percentile with ten samples above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return 100 * (len(values) - 10) // len(values), ordered[-11]


def max_delay(sample: Sample) -> float:
    """Largest of: spawn to first line, between lines, last line to exit."""
    marks = [0.0, *sample.line_times, sample.wall]
    return max(b - a for a, b in zip(marks, marks[1:]))


def series(result: Result) -> dict[str, list[tuple[str, float]]]:
    """(instance, value) of each passing run behind each end-to-end metric."""
    runs = [s for s in result.samples if s.error is None] or result.samples
    setup = [s for s in result.setup if s.error is None] or result.setup
    return {
        "wall_s": [(s.case.name, s.wall) for s in runs],
        "first_solution_s": [
            (s.case.name, s.line_times[0] if s.line_times else s.wall) for s in runs
        ],
        "max_delay_s": [(s.case.name, max_delay(s)) for s in runs],
        "setup_s": [(s.case.name, s.wall) for s in setup],
        "peak_rss_mb": [(s.case.name, s.rss_mb) for s in runs],
    }


def instance_median(pairs: list[tuple[str, float]]) -> float:
    """Mean over instances of each instance's median.

    A median over the pooled runs of unlike instances would fall in the
    gap between them and jump with the sample count; this does not.
    """
    by_case: dict[str, list[float]] = {}
    for case, value in pairs:
        by_case.setdefault(case, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_case.values())


def end_to_end(result: Result) -> dict[str, float]:
    values = {name: instance_median(pairs) for name, pairs in series(result).items()}
    runs = [s for s in result.samples if s.error is None] or result.samples
    values["solutions_per_s"] = sum(s.solutions for s in runs) / sum(s.wall for s in runs)
    return {name: values[name] for name in END_TO_END_UNITS}


def per_layer(result: Result) -> dict[str, float]:
    traced = [s for s in result.samples if s.traced and s.spans]
    plain = {}
    for s in result.samples:
        if not s.traced and s.error is None:
            plain.setdefault(s.case.name, []).append(s.wall)
    total: Counter = Counter()
    own: Counter = Counter()
    counts: Counter = Counter()
    missing: set[str] = set()
    gap = 0.0
    for s in traced:
        spans = s.spans["spans"]
        missing.update(s.spans["missing"])
        children = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        for span, covered in zip(spans, children):
            took = span["end"] - span["start"]
            total[span["name"]] += took
            own[span["name"]] += took - covered
            for key, value in span["counts"].items():
                if key == "stats_seconds":
                    gap = max(gap, abs(value - took))
                else:
                    counts[span["name"], key] += value
    runs = max(len(traced), 1)

    def rate(num, span):
        return num / total[span] if total[span] else 0.0

    keys = counts["solver.enumerate_keys", "keys"]
    mis = counts["solver.maximal_independent_sets", "sets"]
    closed = counts["solver.enumerate_closed_sets", "sets"]
    offered = counts["solver.Hypergraph", "offered"]
    overhead = [
        s.wall - statistics.median(plain[s.case.name]) for s in traced if s.case.name in plain
    ]
    metrics = {name: total[span] / runs for name, span in SPAN_METRICS.items()}
    metrics.update({name: own[span] / runs for name, span in SELF_METRICS.items()})
    metrics.update({
        "keys.count": keys / runs,
        "keys.per_s": rate(keys, "solver.enumerate_keys"),
        "keys.mean_size": counts["solver.enumerate_keys", "key_elements"] / keys if keys else 0.0,
        "transversal.hypergraph.kept_ratio": (
            counts["solver.Hypergraph", "kept"] / offered if offered else 0.0
        ),
        "transversal.mis.count": mis / runs,
        "transversal.mis.per_s": rate(mis, "solver.maximal_independent_sets"),
        "closure.closed_sets.count": closed / runs,
        "closure.closed_sets.per_s": rate(closed, "solver.enumerate_closed_sets"),
        "cli.output_bytes": sum(len(s.stdout) for s in traced) / runs,
        "trace.overhead_s": statistics.mean(overhead) if overhead else 0.0,
        "trace.stats_gap_s": gap,
        "trace.missing_names": float(len(missing)),
    })
    if missing:
        print(f"{result.workload}: traced names missing: {', '.join(sorted(missing))}")
    wall = sum(s.wall for s in traced) / runs
    result.shares = {
        name: metrics[name] / wall for name in metrics if PER_LAYER_UNITS[name] == "s"
        and not name.startswith("trace.") and wall
    }
    return metrics


# ---------------------------------------------------------------------------
# Driver


def run_workload(name: str, workload: dict, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> Result:
    rng = random.Random(f"{name}:{seed}")
    cases = prepare(workload, rng, workdir)
    env = child_env()
    # Untimed run: writes the byte-code cache and warms the file cache.
    spawn(closure_argv(cases[0]), env, workdir / "stderr.txt")
    result = Result(name, *run_passes(cases, seconds, rng, env, workdir, trace))
    verified: set[bytes] = set()
    for sample in result.samples:
        judge(sample, verified)
    for sample in result.setup:
        judge_closure(sample)
    for sample in result.samples + result.setup:
        if sample.error:
            print(f"{name}: {sample.case.name} failed: {sample.error}")
    result.metrics = per_layer(result) if trace else end_to_end(result)
    return result


def _cell(pairs: list[tuple[str, float]]) -> str:
    t = tail([value for _, value in pairs])
    spread = f" p{t[0]} {t[1]:.4g}" if t else ""
    return f"{instance_median(pairs):.4g}{spread} (n={len(pairs)})"


def print_table(results: list[Result], trace: bool) -> None:
    if trace:
        for r in results:
            print(f"\n{r.workload}: per-layer means per traced run, share of traced wall")
            for metric, value in r.metrics.items():
                share = f"  {r.shares[metric]:6.1%}" if metric in r.shares else ""
                print(f"  {metric:36} {value:12.6g} {PER_LAYER_UNITS[metric]:6}{share}")
        return
    header = ["workload"] + [f"{m} [{u}]" for m, u in END_TO_END_UNITS.items()] + ["failed_frac"]
    rows = []
    for r in results:
        s = series(r)
        cells = {m: _cell(s[m]) for m in s}
        passing = sum(1 for x in r.samples if x.error is None)
        cells["solutions_per_s"] = f"{r.metrics['solutions_per_s']:.4g} (n={passing})"
        attempted = len(r.samples) + len(r.setup)
        failed = sum(1 for x in r.samples + r.setup if x.error)
        rows.append([r.workload] + [cells[m] for m in END_TO_END_UNITS]
                    + [f"{failed / attempted:.3g} (n={attempted})"])
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    print("\nmean of per-instance medians; highest percentile of all runs with ten"
          " samples above it; sample count")
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a name, a comma list, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conclose" / "cli.py").is_file():
        print(f"error: no conclose sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Children run in their own session; turning SIGTERM into an exception
    # lets spawn() kill the running one on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((HERE / "workloads.json").read_text())
    names = list(spec) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in spec]
    if unknown:
        print(f"error: unknown workload {', '.join(unknown)}; have {', '.join(spec)}",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        results = [
            run_workload(name, spec[name], args.seed, args.seconds, bool(args.trace), Path(tmp))
            for name in names
        ]
    print_table(results, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    prefix = len(results) > 1
    metrics = {
        (f"{r.workload}.{m}" if prefix else m): {"value": v, "unit": units[m]}
        for r in results for m, v in r.metrics.items()
    }
    samples = [s for r in results for s in r.samples + r.setup]
    failed = [s for s in samples if s.error]
    print(json.dumps({
        "correct": all(s.returncode is None for s in failed),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
