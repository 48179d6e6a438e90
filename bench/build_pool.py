"""Rebuild pool.json: per-stratum generator indices sorted by op cost.

    python3 bench/build_pool.py [corpus|noprobe ...]

For each (persons, fluents) stratum of a workload this generates
POOL_SIZE puzzles, runs and checks the workload's op on each REPEATS
times, and records the index, the digest of the rendered text, the op's
fastest time at reference speed (see reference.py) and the number of
consistent worlds.  The times only order each stratum.  Runs draw their
cycles from this file, so rebuilding it changes every run's inputs: do
it only when a generator changes, and measure the parent commit again
afterwards.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import puzzlegen  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

POOL_SIZE = 48
REPEATS = 2


def build(name: str) -> dict:
    op = workloads.WORKLOADS[name].op
    strata = {}
    for shape in workloads.SLOTS[name]:
        entries = []
        for index in range(POOL_SIZE):
            puzzle, hidden = workloads.make_puzzle(name, shape, index)
            text = puzzlegen.render_puzzle(puzzle)
            if name == "noprobe":
                from bedlam.solver import solve_all
                expected = len(solve_all(puzzle).worlds)
            else:
                expected = -1
            item = workloads.Input(f"{shape}/{index}", text, expected, hidden)
            times = []
            for _ in range(REPEATS):
                before = reference.probe()
                started = time.perf_counter()
                _nodes, worlds = op(item)
                elapsed = time.perf_counter() - started
                times.append(elapsed
                             * reference.scale(before, reference.probe()))
            cost = min(times)
            entries.append([index, workloads.text_digest(text),
                            round(cost, 4), worlds])
        entries.sort(key=lambda e: (e[2], e[0]))
        strata[f"{shape[0]}-{shape[1]}"] = entries
        print(name, shape, f"{sum(e[2] for e in entries):.1f}s", flush=True)
    return strata


def main(names: list[str]) -> None:
    pool = workloads.load_pool() if workloads.POOL_PATH.exists() else {}
    for name in names or ["corpus", "noprobe"]:
        pool[name] = build(name)
    with open(workloads.POOL_PATH, "w", encoding="utf-8") as handle:
        json.dump(pool, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
