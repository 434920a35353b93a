#!/usr/bin/env python3
"""Benchmark of the coframes engine: three seeded workloads, end to end and
per layer.

Run from the repository root::

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json for why each was chosen):

- ``search``: ``search_counterexample`` on two true implications at
  ``max_lattice=7``; an operation is one conjecture.
- ``laws``: every law suite at ``budget=1000``; an operation is a law check.
  Suites are timed, and each check is given an equal share of its suite's
  time.
- ``documents``: 290 seeded convergence documents through
  ``coframes.cli.main`` in process; an operation is one request.

Each repeat of a workload runs in a fresh interpreter, so memory figures and
cache warmth never carry over; repeats start until ``--seconds`` have passed.
A timed call's latency is its median over the repeats.
With ``--trace 0`` the last line of output is the end-to-end result.  With
``--trace 1`` untraced and traced repeats alternate: the traced ones wrap the
layer functions (``tracing.py``) and give the per-layer result, and spans are
written to ``.bench_out/``.  The line before the result holds provenance,
sample counts, outcome counts and the full per-layer breakdown.

The engine is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("search", "laws", "documents")
OUTCOMES = ("ok", "refused", "error", "wrong")
# A workload's run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "retained_blocks": "count",
}

# Per-layer metrics on the last line of a traced run: counts, ratios, and the
# self times every workload exercises.  Times that are 0 on some workload by
# construction (its layer is bypassed) are in the full breakdown on the line
# before it.
PER_LAYER = {
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_s": "s",
    "lattice.analyze.calls": "count",
    "lattice.analyze.self_s": "s",
    "lattice.analyze.cold_ratio": "ratio",
    "lattice.construct.self_s": "s",
    "lattice.carriers_built": "count",
    "filters.calls": "count",
    "convergence.classify.calls": "count",
    "convergence.classify.self_s": "s",
    "convergence.s1.calls": "count",
    "convergence.s_infinity.calls": "count",
    "convergence.s1_per_s_infinity": "ratio",
    "convergence.points.calls": "count",
    "adherence.adh0_table.calls": "count",
    "adherence.adh_table.calls": "count",
    "adherence.closed_sets.calls": "count",
    "adherence.self_s": "s",
    "adherence.adh0_table.per_classify": "ratio",
    "topology.topological_modification.calls": "count",
    "topology.topological_modification.self_s": "s",
    "duality.pt_space.calls": "count",
    "duality.bullet.per_pt_space": "ratio",
    "documents.bytes_in": "bytes",
    "documents.bytes_out": "bytes",
    "cli.main.calls": "count",
    "laws.checks": "count",
    "search.structures_tested": "count",
    "search.lattices_tested": "count",
}


def clock_ns() -> int:
    """One clock for parent and child processes, so set-up can be timed
    from the moment a repeat is spawned."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# one repeat, in its own process


def import_engine() -> None:
    sys.path.insert(0, str(SRC))
    import coframes

    if Path(coframes.__file__).resolve().parent != SRC / "coframes":
        raise ImportError(f"coframes imported from {coframes.__file__}, not {SRC}")


def run_batch(work, tracer=None) -> tuple[list, list[float], int]:
    """Call every operation in order; returns the answers, each operation's
    latency in ms, and the batch's wall time in ns.  An operation that raises
    yields its exception as the answer, and the batch goes on."""
    if tracer is not None:
        span_name = "laws.{}" if work.name == "laws" else f"bench.{work.name}.op"
    answers, latencies = [], []
    start = clock_ns()
    for i, op in enumerate(work.operations):
        if tracer is not None:
            tracer.current_op = i
            span = tracer.open(span_name.format(op.name))
        t = time.perf_counter_ns()
        try:
            answer = op.run()
        except Exception as err:
            answer = err
        latencies.append((time.perf_counter_ns() - t) / 1e6)
        if tracer is not None:
            tracer.close(span)
        answers.append(answer)
    return answers, latencies, clock_ns() - start


def grades(work, answers) -> list[dict[str, int]]:
    """Each operation's outcome counts, graded after the timed loop."""
    import workloads

    return [dict(workloads.grade(op, answer)) for op, answer in zip(work.operations, answers)]


def tally(per_op: list[dict[str, int]]) -> Counter:
    outcomes = Counter({k: 0 for k in OUTCOMES})
    for graded in per_op:
        outcomes.update(graded)
    return outcomes


def repeat(args) -> dict:
    """Generate the inputs, warm up, run the batch, then grade every answer."""
    import_engine()
    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed, args.size == "small")
    work.warm_up()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    gc.collect()
    blocks = sys.getallocatedblocks()
    first_op_ns = clock_ns()
    answers, latencies, wall_ns = run_batch(work, tracer)
    if tracer is not None:
        tracer.uninstall()
    gc.collect()
    retained = sys.getallocatedblocks() - blocks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": (first_op_ns - args.spawned_at) / 1e9,
        "wall_s": wall_ns / 1e9,
        "latencies_ms": latencies,
        "peak_rss_mb": peak_rss_mb,
        "retained_blocks": retained,
        "digests": [op.digest(answer) for op, answer in zip(work.operations, answers)],
        "samples": work.samples,
    }
    if args.grade:
        result["grades"] = grades(work, answers)
    if args.workload == "search":
        result["search"] = {
            "structures_tested": sum(getattr(a, "structures_tested", 0) for a in answers),
            "lattices_tested": sum(getattr(a, "lattices_tested", 0) for a in answers),
        }
    if args.workload == "laws":
        result["laws_checks"] = {
            op.name: getattr(a, "checks", 0) for op, a in zip(work.operations, answers)
        }
    if tracer is not None:
        result["trace"] = tracer.summary()
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}-{args.index}.json.gz", first_op_ns)
    return result


# ---------------------------------------------------------------------------
# a run: repeats until --seconds have passed


def spawn(args, trace: bool, index: int, deadline_ns: int, grade: bool) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--repeat",
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(trace)), "--size", args.size, "--index", str(index),
        "--grade", str(int(grade)),
        "--spawned-at", str(clock_ns()),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max((deadline_ns - clock_ns()) / 1e9, 1.0)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"repeat exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Every per-layer figure, from the traced repeat with the median wall
    time, so that its self times and uncovered time add up to its wall."""
    rep = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    tr = rep["trace"]
    self_s, total_s, calls, counters = tr["self_s"], tr["total_s"], tr["calls"], tr["counters"]
    s = lambda k: self_s.get(k, 0.0)  # noqa: E731
    c = lambda k: calls.get(k, 0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    row = {
        "trace.wall_s": rep["wall_s"],
        "trace.uncovered_s": rep["wall_s"] - sum(self_s.values()),
        "trace.spans": tr["spans"],
        "lattice.analyze.calls": c("lattice.analyze"),
        "lattice.analyze.self_s": s("lattice.analyze"),
        "lattice.analyze.cold_ratio": ratio(
            counters.get("lattice.analyze.cold", 0), c("lattice.analyze")
        ),
        "lattice.construct.self_s": s("lattice.construct"),
        "lattice.carriers_built": counters.get("lattice.carriers_built", 0),
        "filters.calls": c("filters"),
        "filters.self_s": s("filters"),
        "convergence.classify.calls": c("convergence.classify"),
        "convergence.classify.self_s": s("convergence.classify"),
        "convergence.s1.calls": c("convergence.s1"),
        "convergence.s1.self_s": s("convergence.s1"),
        "convergence.s_infinity.calls": c("convergence.s_infinity"),
        "convergence.s1_per_s_infinity": ratio(
            counters.get("convergence.s1.within.convergence.s_infinity", 0),
            c("convergence.s_infinity"),
        ),
        "convergence.points.calls": c("convergence.points"),
        "convergence.points.self_s": s("convergence.points"),
        "adherence.adh0_table.calls": c("adherence.adh0_table"),
        "adherence.adh_table.calls": c("adherence.adh_table"),
        "adherence.closed_sets.calls": c("adherence.closed_sets"),
        "adherence.self_s": sum(s(k) for k in self_s if k.startswith("adherence.")),
        "adherence.adh0_table.per_classify": ratio(
            counters.get("adherence.adh0_table.within.convergence.classify", 0),
            c("convergence.classify"),
        ),
        "topology.topological_modification.calls": c("topology.topological_modification"),
        "topology.topological_modification.self_s": s("topology.topological_modification"),
        "duality.pt_space.calls": c("duality.pt_space"),
        "duality.pt_space.self_s": s("duality.pt_space"),
        "duality.bullet.per_pt_space": ratio(
            counters.get("duality.bullet.within.duality.pt_space", 0),
            c("duality.pt_space"),
        ),
        "duality.eta.self_s": s("duality.eta"),
        "documents.load.self_s": s("documents.load"),
        "documents.dump.self_s": s("documents.dump"),
        "documents.bytes_in": counters.get("documents.bytes_in", 0),
        "documents.bytes_out": counters.get("documents.bytes_out", 0),
        "cli.main.calls": c("cli.main"),
        "cli.main.self_s": s("cli.main"),
        "search.structures_tested": rep.get("search", {}).get("structures_tested", 0),
        "search.lattices_tested": rep.get("search", {}).get("lattices_tested", 0),
        "search.small_coframes.self_s": s("search.small_coframes"),
        "laws.checks": sum(rep.get("laws_checks", {}).values()),
    }
    for suite, checks in rep.get("laws_checks", {}).items():
        row[f"laws.{suite}.checks"] = checks
        row[f"laws.{suite}.wall_s"] = total_s.get(f"laws.{suite}", 0.0)
    for name, value in self_s.items():
        row[f"self_s.{name}"] = value
    row["trace.overhead_ratio"] = rep["wall_s"] / statistics.median(r["wall_s"] for r in untraced)
    return row


def run_workload(args) -> tuple[dict, dict]:
    """Repeats until --seconds have passed; returns (detail, result)."""
    deadline_ns = clock_ns() + HARD_LIMIT_S * 10**9
    stop_ns = clock_ns() + args.seconds * 10**9
    untraced, traced = [], []
    while True:
        begun = clock_ns()
        untraced.append(spawn(args, False, len(untraced), deadline_ns, not untraced))
        if args.trace:
            traced.append(spawn(args, True, len(traced), deadline_ns, False))
        now = clock_ns()
        # A traced pair takes about twice a repeat: start one only if it
        # should end within --seconds.
        if now >= stop_ns or args.trace and now + (now - begun) > stop_ns:
            break

    # The first repeat grades every answer.  The inputs are the same in every
    # repeat, so any other repeat whose answer is identical (by digest) shares
    # its grade, and an answer that differs is counted wrong.
    first = untraced[0]
    per_op = []
    for rep in untraced + traced:
        for graded, digest, first_digest in zip(first["grades"], rep["digests"], first["digests"]):
            per_op.append(graded if digest == first_digest else {"wrong": sum(graded.values())})
    outcomes = tally(per_op)
    attempted = sum(outcomes.values())
    failed = attempted - outcomes["ok"]
    # Each timed call's latency is its median over the repeats, so a burst of
    # interference from outside the process in one repeat moves no figure;
    # the batch time is their sum.  A timed call holds as many operations as
    # it grades (a laws suite holds its law checks, which are not timed one
    # by one), and each of them is given an equal share of its time.
    call_ms = [statistics.median(lat) for lat in zip(*(rep["latencies_ms"] for rep in untraced))]
    op_ms = []
    for ms, graded in zip(call_ms, first["grades"]):
        n = max(sum(graded.values()), 1)
        op_ms += [ms / n] * n
    end_to_end = {
        "setup_s": statistics.median(rep["setup_s"] for rep in untraced),
        "wall_s": sum(call_ms) / 1000,
        "op_p50_ms": percentile(op_ms, 50),
        "op_p95_ms": percentile(op_ms, 95),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
        "retained_blocks": statistics.median(rep["retained_blocks"] for rep in untraced),
    }
    detail = {
        "workload": args.workload,
        "provenance": {
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "seed": args.seed,
            "seconds": args.seconds,
            "size": args.size,
        },
        "samples": {
            "repeats": len(untraced),
            "traced_repeats": len(traced),
            "timed_calls": len(call_ms),
            "operations": len(op_ms),
            "latency_samples": len(call_ms) * len(untraced),
            "repeat_wall_s": [rep["wall_s"] for rep in untraced],
            "repeat_setup_s": [rep["setup_s"] for rep in untraced],
            **untraced[0]["samples"],
        },
        "outcomes": dict(outcomes),
        "failed_ratio": failed / attempted,
        "end_to_end": end_to_end,
    }
    if args.trace:
        layers = layer_metrics(traced, untraced)
        detail["per_layer"] = layers
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": outcomes["error"] == 0 and outcomes["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full",
        help="small shrinks every workload, for the benchmark's own tests",
    )
    parser.add_argument("--repeat", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--grade", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "coframes" / "__init__.py").is_file():
        print(f"error: the engine's sources are missing ({SRC / 'coframes'})", file=sys.stderr)
        return 2
    if args.repeat:
        print(json.dumps(repeat(args)))
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            detail, results[name] = run_workload(args)
            print(json.dumps(detail))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:10} {metric:42} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": m for name, r in results.items() for metric, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
