"""The benchmark's workloads: inputs drawn from a seed, one op, its check.

Each workload builds a fixed *cycle* of inputs from the seed.  A run plays
the cycle a fixed number of times, one op at a time, so every run carries
the same mix of cheap and expensive ops.
Every op checks its own output and returns the counters that must repeat
exactly whenever the same input is replayed.

The corpus and noprobe cycles are filled from `pool.json`.  Each pool
stratum (a persons x fluents shape) lists generator indices sorted by the
op's cost; each slot of a cycle takes one index from a narrow window at a
fixed quantile of that cost, chosen by the seed.  This is stratified
sampling: every seed draws different puzzles, but the same share of cheap
and expensive oracle and search work.  `build_pool.py` regenerates the
pool and records the world counts the solver gave when it was built.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

POOL_PATH = Path(__file__).with_name("pool.json")

WHY = {
    "asylum": "the paper's user path: CLI solve, extract and explain of the "
              "asylum transcript, then check two worlds; the type x fluent "
              "search does almost all the work",
    "corpus": "tier-1's traffic: many tiny random puzzles, each solved and "
              "compared with the brute-force oracle; World building, "
              "check_world and eval_closed dominate, per-puzzle set-up shows",
    "noprobe": "no type-local utterances, so every person keeps 16 types: a "
               "wide type product with a shallow fluent search, the opposite "
               "of asylum",
}

# Slots per cycle for each (persons, fluents) stratum.  The corpus shares
# are exactly the differential tests' draw: persons 2:3:2 over 1-3,
# fluents 1:2:1 over 0-2, so 28 slots hold every stratum in proportion.
CORPUS_SLOTS = {(n, f): pw * fw
                for n, pw in ((1, 2), (2, 3), (3, 2))
                for f, fw in ((0, 1), (1, 2), (2, 1))}
# Per workload, the stratum whose first slot is always its pool entry
# with the largest answer (for the corpus, all 262,144 worlds of a
# 3-person, 2-fluent puzzle).  The op holds that whole answer, so it sets
# the process's peak memory; were it drawn like the rest, peak memory
# would follow whichever answer a seed happened to draw.
MEMORY_ANCHORS = {"corpus": (3, 2), "noprobe": (3, 2)}
# Three-person puzzles with 0-2 fluents and four-person puzzles without
# fluents (each walks 65,536 type combinations).  Four-person puzzles
# with a fluent take seconds each and would leave too few ops per run
# for a tail percentile.
NOPROBE_SLOTS = {(3, 0): 3, (3, 1): 3, (3, 2): 3, (4, 0): 3}
SLOTS = {"corpus": CORPUS_SLOTS, "noprobe": NOPROBE_SLOTS}

# The structured solve output of the asylum at the seed commit.
ASYLUM_SHA256 = ("af26c6eb9888134b764145d3f6ab7fec"
                 "9d86d51093a6778b319ecb5563fcfb61")
ASYLUM_NODES = 3798
ASYLUM_WORD = "ALTERNATE"

# The search budget of a corpus or noprobe op; exceeding it fails the op.
SEARCH_SECONDS = 60.0


class OpFailure(Exception):
    """An op gave a wrong result."""


@dataclass(frozen=True)
class Input:
    """One slot of a cycle: what the op reads and what it must produce."""

    label: str
    text: str                 # puzzle-file text, or the asylum's path
    expected_worlds: int = -1
    hidden: object = None     # the world a noprobe puzzle was built from


@dataclass
class Workload:
    name: str
    build: Callable[[int], list]   # seed -> cycle of Inputs
    op: Callable[[Input], tuple]   # one op -> run-independent counters
    # Seconds of the run budget one cycle accounts for: a run plays
    # round(seconds / cycle_seconds) cycles, whatever the program's speed.
    cycle_seconds: float


def generator_rng(workload: str, shape: tuple[int, int],
                  index: int) -> random.Random:
    """The generator stream of one pool entry; independent of the run seed."""
    return random.Random(f"{workload}/{shape[0]}-{shape[1]}/{index}")


def make_puzzle(workload: str, shape: tuple[int, int], index: int):
    """(puzzle, hidden world or None) of one pool entry."""
    import puzzlegen
    rng = generator_rng(workload, shape, index)
    if workload == "noprobe":
        return puzzlegen.noprobe_puzzle(rng, *shape)
    return puzzlegen.corpus_puzzle(rng, *shape), None


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def draw(pool_entries: list, slots: int, rng: random.Random) -> list:
    """One pool entry per slot, each from a window at a fixed cost quantile.

    Entries are sorted by cost.  Slot j takes its window around quantile
    (j + 0.5) / slots; the window holds a quarter of the entries per slot.
    """
    size = len(pool_entries)
    width = max(1, size // (4 * slots))
    chosen = []
    for j in range(slots):
        centre = int((j + 0.5) * size / slots)
        low = min(max(0, centre - width // 2), size - width)
        chosen.append(pool_entries[low + rng.randrange(width)])
    return chosen


def pooled_cycle(workload: str, seed: int) -> list:
    """The corpus or noprobe cycle of a seed, drawn from `pool.json`."""
    import puzzlegen
    pool = load_pool()[workload]
    rng = random.Random(f"{workload}:{seed}")
    cycle = []
    for shape, count in SLOTS[workload].items():
        key = f"{shape[0]}-{shape[1]}"
        entries, chosen = pool[key], []
        if MEMORY_ANCHORS[workload] == shape:
            anchor = max(entries, key=lambda e: (e[3], -e[2]))
            entries = [e for e in entries if e is not anchor]
            chosen, count = [anchor], count - 1
        for index, digest, _cost, worlds in chosen + draw(entries, count, rng):
            puzzle, hidden = make_puzzle(workload, shape, index)
            text = puzzlegen.render_puzzle(puzzle)
            if text_digest(text) != digest:
                raise RuntimeError(
                    f"{workload} pool entry {key}/{index} no longer "
                    "generates the puzzle it recorded; rebuild pool.json")
            cycle.append(Input(f"{key}/{index}", text, worlds, hidden))
    rng.shuffle(cycle)
    return cycle


# --- asylum ---

def build_asylum(seed: int) -> list:
    """The fixture is fixed; the seed does not change it."""
    import bedlam
    return [Input("asylum", str(bedlam.fixture_path("asylum.puzzle")))]


def asylum_op(item: Input) -> tuple:
    import bedlam
    from bedlam import cli
    puzzle = item.text
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", puzzle, "--format", "structured",
                         "--extract", "--explain"])
    if code != 0:
        raise OpFailure(f"solve exited {code}")
    document = out.getvalue()
    parsed = json.loads(document)
    if parsed.get("extraction", {}).get("word") != ASYLUM_WORD:
        raise OpFailure("extracted word is not ALTERNATE")
    nodes = parsed["statistics"]["nodes"]
    worlds = parsed["statistics"]["worlds_found"]
    if (nodes, worlds) != (ASYLUM_NODES, 1):
        raise OpFailure(f"{nodes} nodes and {worlds} worlds, not "
                        f"{ASYLUM_NODES} and 1")
    digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
    if digest != ASYLUM_SHA256:
        raise OpFailure(f"structured output sha256 {digest} differs")
    for world, expected in (("asylum.solution.world", 0),
                            ("asylum.ann_sl.world", 13)):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", puzzle,
                             str(bedlam.fixture_path(world))])
        if code != expected:
            raise OpFailure(f"check {world} exited {code}, not {expected}")
    return nodes, worlds


# --- corpus ---

def corpus_op(item: Input) -> tuple:
    from bedlam import parser, solver
    puzzle = parser.parse_puzzle_file(item.text)
    result = solver.solve_all(puzzle,
                              solver.Budget(max_seconds=SEARCH_SECONDS))
    expected = solver.brute_force_solve(puzzle)
    if result.worlds != expected:
        raise OpFailure(f"{item.label}: solve_all found "
                        f"{len(result.worlds)} worlds, the oracle "
                        f"{len(expected)}")
    return result.statistics.nodes, result.statistics.worlds_found


# --- noprobe ---

def noprobe_op(item: Input) -> tuple:
    from bedlam import parser, solver
    puzzle = parser.parse_puzzle_file(item.text)
    result = solver.solve_all(puzzle,
                              solver.Budget(max_seconds=SEARCH_SECONDS))
    if item.hidden not in result.worlds:
        raise OpFailure(f"{item.label}: the hidden world was not found")
    if len(result.worlds) != item.expected_worlds:
        raise OpFailure(f"{item.label}: {len(result.worlds)} worlds, "
                        f"{item.expected_worlds} when the pool was built")
    for world in result.worlds:
        if not solver.check_world(puzzle, world):
            raise OpFailure(f"{item.label}: a found world fails check_world")
    return result.statistics.nodes, result.statistics.worlds_found


WORKLOADS = {
    "asylum": Workload("asylum", build_asylum, asylum_op, 0.5),
    # A corpus cycle takes about 17 s; budgeting 12.5 s plays two at the
    # usual 25 s, so the tail percentile falls among 3-person puzzles.
    "corpus": Workload("corpus", partial(pooled_cycle, "corpus"), corpus_op,
                       12.5),
    # Six noprobe cycles at 25 s put the tail percentile among the
    # four-person puzzles, clear of the 3-person memory anchor.
    "noprobe": Workload("noprobe", partial(pooled_cycle, "noprobe"),
                        noprobe_op, 4.0),
}
