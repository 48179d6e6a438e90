"""Closed-loop benchmark of bedlam: one caller, one thread, one process.

    python3 bench/run.py --workload asylum|corpus|noprobe --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.  The
run sets up (imports bedlam and builds the workload's cycle of inputs,
several times, reporting the median), then plays the cycle one op at a
time, round(S / cycle_seconds) whole cycles (at least one).  The cycle
count depends on S only, so every commit measures the same ops; at the
seed commit a run lasts about S seconds on a 2-core machine.  Every op
checks its own output; a wrong result, an exception or an exceeded
Budget counts as a failed op.

--trace 0 prints the end-to-end metrics.  --trace 1 plays the cycle with
spans recorded around each bedlam layer, writes the spans under
`.bench_out/trace-<workload>/`, replays the same ops untraced to measure
the tracing overhead, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
# Ops stop mid-cycle after this many seconds, so that a badly regressed
# program still ends within three minutes.  The traced pass stops sooner
# because its untraced replay follows it.
HARD_STOP_SECONDS = 150.0
TRACED_HARD_STOP_SECONDS = 60.0
# The traced pass also ends at the first cycle boundary past this many
# spans, which bounds its memory (26 bytes a span) and the files written.
SPAN_BUDGET = 2_000_000
TAIL_BEYOND = 10
PRINTED_FAILURES = 5

# Counters that must repeat exactly whenever an input is replayed.
TRACED_COUNTERS = ("worlds.World", "statements.eval_partial",
                   "statements.eval_closed", "solver.check_world")

# (metric, span, what): "self" is self seconds per op, "calls" is calls
# per op.
LAYER_METRICS = (
    ("parser.parse_puzzle_file.s", "parser.parse_puzzle_file", "self"),
    ("parser.parse_puzzle_file.calls", "parser.parse_puzzle_file", "calls"),
    ("parser.parse_world_file.s", "parser.parse_world_file", "self"),
    ("puzzle.validate.s", "puzzle.validate", "self"),
    ("solver.solve_all.s", "solver.solve_all", "self"),
    ("solver.check_world.s", "solver.check_world", "self"),
    ("solver.check_world.calls", "solver.check_world", "calls"),
    ("solver.brute_force_solve.s", "solver.brute_force_solve", "self"),
    ("solver.explain_solution.s", "solver.explain_solution", "self"),
    ("statements.eval_partial.s", "statements.eval_partial", "self"),
    ("statements.eval_partial.calls", "statements.eval_partial", "calls"),
    ("statements.eval_closed.s", "statements.eval_closed", "self"),
    ("statements.eval_closed.calls", "statements.eval_closed", "calls"),
    ("worlds.World.constructed", "worlds.World", "calls"),
    ("worlds.World.s", "worlds.World", "self"),
    ("worlds.sort_key.calls", "worlds.sort_key", "calls"),
    ("worlds.sort_key.s", "worlds.sort_key", "self"),
    ("extraction.extract_word.s", "extraction.extract_word", "self"),
    ("cli.main.s", "cli.main", "self"),
)


class Op:
    """The outcome of one op; `scaled` is its latency at reference speed."""

    __slots__ = ("index", "latency", "scaled", "counters", "error")

    def __init__(self, index, latency, scaled, counters, error):
        self.index = index
        self.latency = latency
        self.scaled = scaled
        self.counters = counters
        self.error = error


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(name: str, seed: int) -> tuple[list, list[float], list[float]]:
    """Import bedlam and build the cycle, SETUP_REPEATS times, from cold.

    Between repeats every module imported since the first repeat began is
    dropped, so each repeat pays the full import again.  Returns the
    cycle and each repeat's time, measured and at reference speed.
    """
    if not (SRC / "bedlam" / "__init__.py").is_file():
        raise SystemExit(f"error: no bedlam package under {SRC}")
    sys.path.insert(0, str(SRC))
    before = set(sys.modules)
    times, scaled = [], []
    speed = reference.probe()
    for repeat in range(SETUP_REPEATS):
        if repeat:
            for module in set(sys.modules) - before:
                del sys.modules[module]
        started = time.perf_counter()
        bedlam = importlib.import_module("bedlam")
        cycle = workloads.WORKLOADS[name].build(seed)
        times.append(time.perf_counter() - started)
        after = reference.probe()
        scaled.append(times[-1] * reference.scale(speed, after))
        speed = after
    if not Path(bedlam.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: bedlam was imported from {bedlam.__file__}")
    return cycle, times, scaled


def play(op, cycle: list, count: int, call=None,
         hard_stop=HARD_STOP_SECONDS, enough=lambda: False) -> list:
    """Run `count` ops back to back, cycling through `cycle`.

    `call(index, op, item)` runs one op; the default calls it directly.
    `enough()` can end the run early at a cycle boundary.  The reference
    probe runs before the first op and after each one.
    """
    ops = []
    speed = reference.probe()
    hard_stop += time.perf_counter()
    for index in range(count):
        item = cycle[index % len(cycle)]
        began = time.perf_counter()
        counters, error = None, None
        try:
            counters = call(index, op, item) if call else op(item)
        except workloads.OpFailure as exc:
            error = str(exc)
        except Exception:  # a failed op; the loop must keep running
            error = traceback.format_exc()
        now = time.perf_counter()
        after = reference.probe()
        ops.append(Op(index, now - began,
                      (now - began) * reference.scale(speed, after),
                      counters, error))
        speed = after
        if now >= hard_stop or ((index + 1) % len(cycle) == 0 and enough()):
            break
    return ops


def check_repeats(ops: list, cycle_length: int, what: str) -> None:
    """Fail any op whose counters differ from its input's first replay."""
    first = {}
    for op in ops:
        if op.error is not None:
            continue
        slot = op.index % cycle_length
        if slot not in first:
            first[slot] = op.counters
        elif op.counters != first[slot]:
            op.error = (f"nondeterminism: {what} {op.counters} differ "
                        f"from {first[slot]} on an earlier replay of the "
                        "same input")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond); with too few samples it
    falls back to the minimum and says how many lie beyond.
    """
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return (ordered[index], 100.0 * (index + 1) / len(ordered),
            len(ordered) - 1 - index)


def timings(latencies: list[float], setup_times: list[float]) -> dict:
    """The timed end-to-end metrics from op latencies and set-up times."""
    ms = [latency * 1000.0 for latency in latencies]
    return {
        "ops_per_s": len(ms) / sum(latencies),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail(ms)[0],
        "setup_s": statistics.median(setup_times),
    }


def end_to_end(ops, setup_times, setup_scaled) -> tuple[dict, list[str]]:
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "setup_s": "s"}
    scaled = timings([op.scaled for op in ops], setup_scaled)
    measured = timings([op.latency for op in ops], setup_times)
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    _, percentile, beyond = tail([op.scaled for op in ops])
    notes = [f"op_tail_ms is p{percentile:.1f} of {len(ops)} ops, "
             f"{beyond} beyond it",
             f"setup_s is the median of {len(setup_times)} set-ups",
             "times are at reference speed; as measured they were: "
             + ", ".join(f"{name} = {value:.6g} {units[name]}"
                         for name, value in measured.items())]
    return metrics, notes


def per_layer(tracer, ops, plain) -> dict:
    layers = tracer.layers()
    n = len(ops)
    metrics = {}
    for metric, span, what in LAYER_METRICS:
        calls, own = layers.get(span, (0, 0.0))
        if what == "calls":
            metrics[metric] = (calls / n, "count/op")
        else:
            metrics[metric] = (own / n, "s/op")

    def ratio(a, b):
        return a / b if b else 0.0

    metrics["solver.nodes"] = (tracer.nodes / n, "count/op")
    metrics["solver.worlds_found"] = (tracer.worlds_found / n, "count/op")
    metrics["solver.worlds_per_node"] = (
        ratio(tracer.worlds_found, tracer.nodes), "ratio")
    metrics["solver.check_world.accept_ratio"] = (
        ratio(tracer.accepted_checks,
              layers.get("solver.check_world", (0, 0))[0]), "ratio")
    metrics["statements.eval_partial.unknown_ratio"] = (
        ratio(tracer.unknown_results,
              layers.get("statements.eval_partial", (0, 0))[0]), "ratio")
    metrics["trace.overhead_ratio"] = (
        sum(op.scaled for op in ops) / sum(op.scaled for op in plain), "ratio")
    return metrics


def traced_run(workload, cycle, count) -> tuple[list, dict]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = play(workload.op, cycle, count,
                      call=tracer.run_op,
                      hard_stop=TRACED_HARD_STOP_SECONDS,
                      enough=lambda: len(tracer.start) >= SPAN_BUDGET)
    finally:
        tracer.uninstall()
    # Replay exactly the same ops untraced: the overhead baseline, and a
    # check that tracing changed no result.
    plain = play(workload.op, cycle, len(traced))
    calls = tracer.calls_by_op()
    for op, again in zip(traced, plain):
        if op.error is None and again.error is None \
                and op.counters != again.counters:
            op.error = (f"nondeterminism: traced counters {op.counters} but "
                        f"untraced {again.counters}")
        elif again.error is not None and op.error is None:
            op.error = again.error
        if op.error is None:
            op.counters = op.counters + tuple(
                calls[op.index][span] for span in TRACED_COUNTERS)
    check_repeats(traced, len(cycle), "traced counters")
    tracer.write(OUT / f"trace-{workload.name}")
    return traced, per_layer(tracer, traced, plain)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    cycle, setup_times, setup_scaled = setup(args.workload, args.seed)
    count = len(cycle) * max(1, round(args.seconds / workload.cycle_seconds))
    if args.trace:
        ops, metrics = traced_run(workload, cycle, count)
        notes = [f"spans of {len(ops)} ops written to "
                 f"{OUT / ('trace-' + args.workload)}"]
    else:
        ops = play(workload.op, cycle, count)
        check_repeats(ops, len(cycle), "counters (nodes, worlds)")
        metrics, notes = end_to_end(ops, setup_times, setup_scaled)
    failures = [op for op in ops if op.error is not None]
    for op in failures[:PRINTED_FAILURES]:
        print(f"op {op.index} failed: {op.error}", file=sys.stderr)
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"seed {args.seed}, cycle of {len(cycle)} inputs, "
          f"{len(ops)} ops, {len(ops) / len(cycle):g} cycles")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(f"error_rate = {len(failures) / len(ops):.6g} "
          f"({len(failures)} failed of {len(ops)} attempted)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
