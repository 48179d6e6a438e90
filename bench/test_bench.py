"""The benchmark's own checks: seeded inputs, rendering, failure counting
and tracing that leaves no trace."""

import dataclasses
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import puzzlegen
import run
import tracing
import workloads
from bedlam import parser, solver
from bedlam.parser import parse_puzzle_file

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", ["corpus", "noprobe"])
def test_generators_repeat_for_a_seed(name):
    build = workloads.WORKLOADS[name].build
    first = build(7)
    assert [i.text for i in build(7)] == [i.text for i in first]
    assert [i.text for i in build(8)] != [i.text for i in first]
    assert len(first) == sum(workloads.SLOTS[name].values())


def test_corpus_draw_keeps_the_stratum_shares():
    puzzles = [parse_puzzle_file(i.text)
               for i in workloads.pooled_cycle("corpus", 3)]
    shapes = sorted((len(p.person_names), len(p.fluent_decls))
                    for p in puzzles)
    assert shapes == sorted(s for s, k in workloads.CORPUS_SLOTS.items()
                            for _ in range(k))


def test_draw_takes_one_entry_per_quantile_window():
    entries = list(range(48))
    chosen = workloads.draw(entries, 2, random.Random(0))
    assert 9 <= chosen[0] < 15 and 33 <= chosen[1] < 39


def test_rendered_puzzles_parse_back_equal():
    rng = random.Random(11)
    for _ in range(60):
        shape = (rng.randint(1, 3), rng.randint(0, 2))
        puzzle = puzzlegen.corpus_puzzle(rng, *shape)
        assert parse_puzzle_file(puzzlegen.render_puzzle(puzzle)) == puzzle
    for shape in workloads.NOPROBE_SLOTS:
        puzzle, hidden = puzzlegen.noprobe_puzzle(rng, *shape)
        assert parse_puzzle_file(puzzlegen.render_puzzle(puzzle)) == puzzle


def test_noprobe_utterances_are_never_type_local():
    from bedlam.puzzle import QuestionRound
    from bedlam.statements import is_type_local, peel_believes
    puzzle, _ = puzzlegen.noprobe_puzzle(random.Random(5), 3, 1)
    for rnd in puzzle.rounds:
        pairs = ([(p, rnd.statement) for p in rnd.addressed]
                 if isinstance(rnd, QuestionRound) else rnd.utterances)
        for person, stmt in pairs:
            assert not is_type_local(peel_believes(stmt)[0], person)


def _small_cycle(name):
    """Two cheap inputs of a seed's cycle that have consistent worlds."""
    cheap = {"corpus": "2-", "noprobe": "3-0"}[name]
    cycle = workloads.WORKLOADS[name].build(1)
    return [i for i in cycle
            if i.label.startswith(cheap) and i.expected_worlds > 0][:2]


@pytest.mark.parametrize("name", ["corpus", "noprobe"])
def test_a_dropped_world_is_a_failed_op(name, monkeypatch):
    workload = workloads.WORKLOADS[name]
    cycle = _small_cycle(name)
    ops = run.play(workload.op, cycle, len(cycle))
    assert [op.error for op in ops] == [None] * len(cycle)
    honest = solver.solve_all

    def tampered(*args, **kwargs):
        result = honest(*args, **kwargs)
        return dataclasses.replace(result, worlds=result.worlds[1:])

    monkeypatch.setattr(solver, "solve_all", tampered)
    ops = run.play(workload.op, cycle, len(cycle))
    assert all(op.error is not None for op in ops)


def test_changed_counters_on_a_replay_are_nondeterminism():
    ops = [run.Op(i, 0.1, 0.1, counters, None)
           for i, counters in enumerate([(5, 1), (5, 1), (6, 1)])]
    run.check_repeats(ops, 1, "counters")
    assert [op.error is None for op in ops] == [True, True, False]


def _patched_names():
    import importlib
    names = [(importlib.import_module(m), a) for m, a, _ in tracing.FUNCTIONS]
    names += [(getattr(importlib.import_module(m), c), a)
              for m, c, a, _ in tracing.METHODS]
    return {(owner, attr): vars(owner)[attr] for owner, attr in names}


def test_tracing_changes_no_result_and_is_removed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = workloads.WORKLOADS["corpus"]
    cycle = _small_cycle("corpus")
    plain = run.play(workload.op, cycle, len(cycle))
    originals = _patched_names()
    traced, metrics = run.traced_run(workload, cycle, len(cycle))
    assert _patched_names() == originals
    assert [op.error for op in traced] == [None] * len(cycle)
    assert [op.counters[:2] for op in traced] == [op.counters for op in plain]
    assert metrics["solver.check_world.calls"][0] > 0
    assert metrics["worlds.World.constructed"][0] > 0
    assert (tmp_path / "trace-corpus" / "spans.json").is_file()


def test_self_times_add_up_to_the_op():
    tracer = tracing.Tracer()
    text = _small_cycle("corpus")[0].text
    tracer.install()
    try:
        tracer.run_op(0, lambda: solver.solve_all(
            parser.parse_puzzle_file(text)))
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    total = sum(own for _, own in layers.values())
    assert abs(total - (tracer.end[0] - tracer.start[0])) < 1e-9
    assert layers[tracing.OP_SPAN][0] == 1


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "asylum", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
