"""World checking, staged search, and derivations on the fixture."""

import copy
import dataclasses
import gc
import hashlib
import itertools
import math
import random
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies

from bedlam import fixture_path, solver, statements
from bedlam.cli import main
from bedlam.parser import parse_puzzle_file, parse_statement, parse_world_file
from bedlam.puzzle import PuzzleSpec, QuestionRound
from bedlam.semantics import ALL_TYPES, TYPES_BY_LABEL, Sanity
from bedlam.solver import (Budget, BudgetExceededError, CheckResult,
                           SolveStatus, brute_force_solve, check_world,
                           enumerate_worlds, explain_solution, solve_all)
from bedlam.statements import (Atom, Not, Person, SemanticError, UNKNOWN,
                               eval_closed, render_statement)
from bedlam.worlds import FluentDecl, World
from support import (random_categorical_puzzle, random_categorical_trio,
                     random_nonlocal_puzzle, random_probed_puzzle,
                     random_puzzle, random_world, too_deep_puzzle_texts)

TOO_DEEP = too_deep_puzzle_texts()
EXPECTED_TYPES = {
    "Ann": "PiAl", "Beth": "DL", "Cedric": "SAl", "David": "PsL",
    "Eve": "SAt", "Fiona": "DL", "Grace": "PsAt", "Holly": "SAl",
    "Ian": "PsL",
}
EXPECTED_GUILT = {
    "Ann": "guilty", "Beth": "accomplice", "Cedric": "innocent",
    "David": "innocent", "Eve": "accomplice", "Fiona": "innocent",
    "Grace": "guilty", "Holly": "innocent", "Ian": "innocent",
}
LOVERS = {"Ann", "Beth", "Eve", "Fiona", "Grace"}


def test_solution_world_is_consistent(asylum, solution_world):
    outcome = check_world(asylum, solution_world)
    assert outcome
    assert outcome.round_index is None


def test_ann_as_sane_liar_breaks_in_round_four(asylum, ann_sl_world):
    outcome = check_world(asylum, ann_sl_world)
    assert not outcome
    assert outcome.round_index == 4
    assert outcome.person == "Ann"
    assert "lover(Beth)" in outcome.message


def test_type_swap_alone_breaks_at_round_zero(asylum, solution_world):
    # Only flipping Ann's type leaves her round-0 lover claim inconsistent.
    world = dataclasses.replace(
        solution_world, types=(TYPES_BY_LABEL["SL"],) + solution_world.types[1:])
    outcome = check_world(asylum, world)
    assert not outcome
    assert outcome.round_index == 0
    assert outcome.person == "Ann"


def test_check_world_messages_are_pinned(asylum, solution_world, ann_sl_world):
    assert check_world(asylum, ann_sl_world).message == \
        "round 4: Ann (SL) would not say: lover(Beth)"
    expected = {
        "ST": 'round 1: Ann answered yes to "are you a patient" '
              'but a ST in this world would answer no',
        "SAt": 'round 2: Ann answered yes to "are you a patient, again" '
               'but a SAt in this world would answer no',
        "DL": 'round 3: Ann answered yes to "do you believe you are a '
              'patient" but a DL in this world would answer no',
    }
    for label, message in expected.items():
        world = dataclasses.replace(
            solution_world,
            types=(TYPES_BY_LABEL[label],) + solution_world.types[1:])
        assert check_world(asylum, world).message == message


def test_checked_world_holds_only_its_fields(asylum, solution_world):
    assert check_world(asylum, solution_world)
    assert set(vars(solution_world)) == {
        field.name for field in dataclasses.fields(World)}


def test_check_world_flags_axiom_violations(asylum):
    # Eve is the only unlocked person in the solution.
    text = fixture_path("asylum.solution.world").read_text()
    assert text.count("unlocked=yes") == 1
    world = parse_world_file(text.replace("unlocked=yes", "unlocked=no"),
                             asylum)
    outcome = check_world(asylum, world)
    assert not outcome
    assert outcome.round_index is None
    assert "axiom" in outcome.message


def test_check_world_reports_each_violation_by_value():
    # Worlds that break the same axiom, or the same step with the same
    # speaker type, get equal results; another speaker type its own.
    puzzle = parse_puzzle_file(
        "persons: Ann, Beth\nfluent f : bool\naxiom f(Ann)\n"
        "round statements:\n  Ann: f(Beth)\n")
    st_, sl, dl = (TYPES_BY_LABEL[label] for label in ("ST", "SL", "DL"))
    decls = puzzle.fluent_decls

    def outcome(types, values):
        return check_world(puzzle, World(puzzle.person_names, types, decls,
                                         (values,)))

    axiom = outcome((st_, st_), (False, False))
    assert axiom == CheckResult(False, None, None,
                                "axiom 1 is violated: f(Ann)")
    assert outcome((sl, dl), (False, True)) == axiom
    step = outcome((st_, sl), (True, False))
    assert step == CheckResult(False, 0, "Ann",
                               "round 0: Ann (ST) would not say: f(Beth)")
    assert outcome((st_, dl), (True, False)) == step
    liar = outcome((sl, st_), (True, True))
    assert liar.message == "round 0: Ann (SL) would not say: f(Beth)"
    assert outcome((sl, dl), (True, True)) == liar


def test_a_spec_keeps_only_its_fields_and_its_walk():
    # Solving, checking every world of the space (consistent or not) and
    # explaining leave on the spec nothing but its declared fields and
    # its walk: no per-spec cache of results.
    puzzle = parse_puzzle_file(
        "persons: Ann, Beth\nfluent f : bool\naxiom f(Ann)\n"
        "round statements:\n  Ann: f(Beth)\n")
    result = solve_all(puzzle)
    outcomes = [check_world(puzzle, world)
                for world in enumerate_worlds(puzzle)]
    assert any(outcomes) and not all(outcomes)
    explain_solution(puzzle, result.worlds[0])
    fields = {field.name for field in dataclasses.fields(PuzzleSpec)}
    assert set(vars(puzzle)) == fields | {"_walked"}


def _held_per_world(solve) -> tuple[tuple, float]:
    """The worlds `solve()` returns, and the bytes still traced per world."""
    gc.collect()
    tracemalloc.start()
    try:
        worlds = solve()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return worlds, held / len(worlds)


def test_found_and_enumerated_worlds_share_fluent_rows():
    # 256 type pairs times 16 fluent assignments, all consistent: worlds
    # with one assignment share its rows, on the search and oracle side.
    # Copied rows held 285 and 172 bytes per world.  The search's bound
    # is looser: the row snapshots it drops sit in the interpreter's
    # tuple free list, which tracemalloc still counts.
    puzzle = parse_puzzle_file(
        "persons: Ann, Beth\nfluent f : bool\nfluent g : bool\n")
    for solve, bound in ((lambda: solve_all(puzzle).worlds, 200),
                         (lambda: brute_force_solve(puzzle), 145)):
        worlds, per_world = _held_per_world(solve)
        assert len(worlds) == 4096
        assert len({id(world.fluent_values) for world in worlds}) <= 16
        assert per_world < bound


def _count_built_worlds(monkeypatch) -> Counter:
    """Worlds built from now on: "public" through `World(...)`, "trusted"
    through the constructor the solver and oracle use where `World`'s
    checks cannot fail."""
    built = Counter()
    init, trusted = World.__init__, solver._trusted_worlds

    def counting_init(self, *args, **kwargs):
        built["public"] += 1
        init(self, *args, **kwargs)

    def counting_trusted(*args):
        worlds = trusted(*args)
        built["trusted"] += len(worlds)
        return worlds

    monkeypatch.setattr(World, "__init__", counting_init)
    monkeypatch.setattr(solver, "_trusted_worlds", counting_trusted)
    return built


def test_oracle_builds_and_checks_only_the_worlds_it_keeps(monkeypatch):
    # Rows are checked first, so the oracle builds a World, and calls
    # check_world, once per world it returns.  Of the 1,024 rows, both
    # puzzles rule some out in their steps, not only in their axioms.
    built, checked = _count_built_worlds(monkeypatch), Counter()
    check = solver.check_world

    def counting_check(puzzle, world):
        checked["calls"] += 1
        return check(puzzle, world)

    monkeypatch.setattr(solver, "check_world", counting_check)
    head = "persons: Ann, Beth\nfluent f : bool\n"
    for text, kept in ((head + "axiom sane(Ann) and truthteller(Ann)\n"
                        "round statements:\n  Ann: f(Beth)\n"
                        "round statements:\n  Ann: not f(Beth)\n", 0),
                       (head + "axiom f(Ann)\n"
                        "round statements:\n  Beth: f(Ann)\n", 256)):
        puzzle = parse_puzzle_file(text)
        built.clear()
        checked.clear()
        assert len(brute_force_solve(puzzle)) == kept
        assert sum(built.values()) == checked["calls"] == kept


def test_oracle_without_a_per_pair_check_checks_each_world_it_keeps(
        monkeypatch):
    # No check reads both a type and a fluent slot, so every assignment
    # left passes under each type combination kept: the oracle builds the
    # combination's worlds over them at once.  The type-only axiom keeps 4
    # of Ann's 16 types and the row-only one 2 of the 4 assignments.
    built, checked = _count_built_worlds(monkeypatch), Counter()
    check = solver.check_world

    def counting_check(puzzle, world):
        checked["calls"] += 1
        return check(puzzle, world)

    monkeypatch.setattr(solver, "check_world", counting_check)
    head = "persons: Ann, Beth\nfluent f : bool\n"
    for text, kept in ((head, 1024),
                       (head + "axiom doctor(Ann)\naxiom f(Beth)\n", 128)):
        puzzle = parse_puzzle_file(text)
        expected = tuple(world for world in enumerate_worlds(puzzle)
                         if check(puzzle, world))
        built.clear()
        checked.clear()
        assert brute_force_solve(puzzle) == expected
        assert len(expected) == kept
        assert built == {"trusted": kept} and checked["calls"] == kept


def test_trusted_worlds_are_the_worlds_world_builds(monkeypatch, asylum):
    # A reused subtree's worlds, the oracle's kept worlds and the
    # enumerated space skip `World`'s checks; each must be the world
    # `World(...)` builds from its fields.
    # Two persons with two free booleans share one fluent search over
    # their 256 type pairs, so it builds 16 worlds and the other
    # combinations copy them.  The asylum shares no search, and is far
    # too wide for the oracle.
    built = _count_built_worlds(monkeypatch)
    pair = parse_puzzle_file(
        "persons: Ann, Beth\nfluent f : bool\nfluent g : bool\n")
    found = solve_all(pair).worlds
    assert len(found) == 4096
    assert built == {"public": 16, "trusted": 4080}
    built.clear()
    kept = brute_force_solve(pair)
    assert built == {"trusted": 4096}
    built.clear()
    space = list(enumerate_worlds(parse_puzzle_file(
        "persons: Ann\nfluent f : bool\n"
        "fluent guilt : { innocent, guilty }\n")))
    assert len(space) == 64 and built == {"trusted": 64}
    built.clear()
    rng = random.Random(0x7A57)
    puzzles = ([random_puzzle(rng) for _ in range(12)]
               + [random_categorical_puzzle(rng, hidden=i % 2 == 0)
                  for i in range(12)])
    solved = [found, kept, space, solve_all(asylum).worlds]
    for puzzle in puzzles:
        result, expected = solve_all(puzzle).worlds, brute_force_solve(puzzle)
        assert result == expected
        solved += [result, expected]
    assert built["trusted"] > 2 * built["public"] > 0
    names = [field.name for field in dataclasses.fields(World)]
    for world in itertools.chain.from_iterable(solved):
        twin = World(*[getattr(world, name) for name in names])
        assert type(world) is World
        assert world == twin and hash(world) == hash(twin)
        assert repr(world) == repr(twin)
        assert list(vars(world)) == names


def test_a_trusted_world_takes_no_more_memory_than_a_public_one():
    # Set field by field, a world keeps its values inline.  Filling its
    # `__dict__` at once took 249 bytes a world against 113, and raised
    # the corpus benchmark's peak RSS from 91 to 164 MB.
    names, decls = ("Ann", "Beth"), (FluentDecl("f"), FluentDecl("g"))
    rows = ((False, True), (True, True))
    types = ALL_TYPES[:2]
    public = _held_per_world(lambda: [World(names, types, decls, rows)
                                      for _ in range(2000)])[1]
    trusted = _held_per_world(lambda: solver._trusted_worlds(
        names, types, decls, [rows] * 2000))[1]
    assert trusted <= public


def test_oracle_runs_each_check_once_per_loop_level_it_reads(monkeypatch):
    # 256 type combinations times 4 fluent assignments.  A check that
    # reads no type runs once per assignment, one that reads no fluent
    # slot once per type combination, and either runs once more inside
    # check_world per world kept; run on every pair, each made 1,536.
    calls = _count_check_runs(monkeypatch)
    head = "persons: Ann, Beth\nfluent f : bool\n"
    for text, speaker, runs in (
            (head + "axiom f(Ann)\n", None, 4 + 512),
            (head + "round statements:\n  Ann: doctor(Beth)\n", "Ann",
             256 + 512)):
        puzzle = parse_puzzle_file(text)
        calls.clear()
        kept = brute_force_solve(puzzle)
        assert len(kept) == 512
        assert calls == {speaker: runs}
        assert kept == tuple(world for world in enumerate_worlds(puzzle)
                             if check_world(puzzle, world))


def _any_generated_puzzle(rng: random.Random) -> PuzzleSpec:
    """A puzzle from one of the four generators, drawn by `rng`."""
    generator = rng.randrange(4)
    if generator == 0:
        return random_puzzle(rng)
    if generator == 1:
        return random_categorical_puzzle(rng, hidden=rng.random() < 0.5)
    if generator == 2:
        return random_categorical_trio(rng, hidden=rng.random() < 0.5)
    return random_probed_puzzle(rng)[0]


@given(strategies.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_compiled_checks_read_only_the_rows_they_report(seed):
    # The oracle runs a check that reads no type once per fluent
    # assignment, and one that reads no fluent slot once per type
    # combination, so on full rows no type outside a compiled check's
    # `typed`, and no slot outside its `reads`, may change it.  Step
    # checks are compiled with `Step.required_by_type`, so they read
    # their speaker's type, and `typed` must hold the speaker.
    rng = random.Random(seed)
    puzzle = _any_generated_puzzle(rng)
    persons, decls = puzzle.person_names, puzzle.fluent_decls
    world = random_world(rng, persons, decls)
    types, values = world.types, world.fluent_values
    axioms, steps = puzzle.compiled
    for check, reads, typed, _ in axioms + steps:
        expected = check(types, values)
        for p in set(range(len(persons))) - typed.keys():
            for t in ALL_TYPES:
                assert check(types[:p] + (t,) + types[p + 1:],
                             values) is expected
        for f, decl in enumerate(decls):
            for p in range(len(persons)):
                if (f, p) in reads:
                    continue
                for value in decl.values():
                    changed = [list(row) for row in values]
                    changed[f][p] = value
                    assert check(types, changed) is expected


@given(strategies.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_types_in_one_class_never_change_a_check(seed):
    # The law the fluent search's sharing rests on.  A check reads of a
    # typed person's type only the builtins `typed` names for them and,
    # for a step's speaker, what `Step.required_by_type` wants: types
    # that agree on those are in one class.  Swapping a person's type for
    # another of its class never changes the check, on full rows or on
    # rows with unset slots, as in the search.
    rng = random.Random(seed)
    puzzle = _any_generated_puzzle(rng)
    persons, decls = puzzle.person_names, puzzle.fluent_decls
    world = random_world(rng, persons, decls)
    types, full = world.types, world.fluent_values
    partial = [[UNKNOWN if rng.random() < 0.3 else value for value in row]
               for row in full]
    axioms, steps = puzzle.compiled
    speakers = [None] * len(axioms) + list(puzzle.transcript)
    for (check, _, typed, _), step in zip(axioms + steps, speakers):
        for p, predicates in typed.items():
            def reads(t):
                wanted = (step.required(t) if step is not None
                          and step.person_index == p else None)
                return wanted, [t.builtins[name] for name in predicates]
            for values in (full, partial):
                expected = check(types, values)
                for t in ALL_TYPES:
                    if reads(t) == reads(types[p]):
                        assert check(types[:p] + (t,) + types[p + 1:],
                                     values) is expected


def test_check_world_rejects_mismatched_declarations(asylum, solution_world):
    other = World(("Zed",), (TYPES_BY_LABEL["ST"],))
    with pytest.raises(SemanticError,
                       match="^world persons do not match the puzzle$"):
        check_world(asylum, other)
    no_fluents = World(asylum.person_names, solution_world.types)
    with pytest.raises(SemanticError,
                       match="^world fluents do not match the puzzle$"):
        check_world(asylum, no_fluents)


def test_check_world_on_a_spec_built_in_code_prefixes_the_compilers_errors():
    # A spec built in code is walked on first use, as a parsed one is, so
    # check_world raises the compiler's error for a bad atom with the
    # axiom's `where` prefix, even where the tree walker short-circuits
    # past the atom.
    world = World(("Ann",), (TYPES_BY_LABEL["ST"],))
    for text, message in (("doctor(Zed)", "unknown person 'Zed'"),
                          ("guilty(Ann)", "undeclared predicate 'guilty'"),
                          ("doctor(Ann) or doctor(Zed)",
                           "unknown person 'Zed'")):
        axiom = parse_statement(text)
        spec = PuzzleSpec(("Ann",), (), (axiom,), ())
        with pytest.raises(SemanticError, match=f"^axiom 1: {message}$"):
            check_world(spec, world)
    assert eval_closed(world, axiom) is True
    # The compiler also rejects a value outside the fluent's domain, which
    # the tree walker reads as False.
    guilt = FluentDecl("guilt", ("guilty", "innocent"))
    axiom = parse_statement("guilt(Ann, bogus)")
    spec = PuzzleSpec(("Ann",), (guilt,), (axiom,), ())
    world = World(("Ann",), (TYPES_BY_LABEL["ST"],), (guilt,), (("guilty",),))
    assert eval_closed(world, axiom) is False
    with pytest.raises(SemanticError,
                       match="^axiom 1: 'bogus' not in domain of 'guilt'$"):
        check_world(spec, world)


THREADED = """persons: Ann, Beth, Cedric
fluent f : bool
axiom atleast 2 x . f(x) or exists y . patient(y) and not f(x)
round statements:
  Ann: forall x . exists y . f(y) and (doctor(x) implies not f(x))
  Beth: believes(exists x . liar(x) and forall y . f(y) or sane(x))
round question "q" to all: atleast 2 x . exists y . f(x) and not f(y)
  answers: Ann=yes, Beth=no, Cedric=yes
"""


def test_one_spec_checks_and_solves_alike_in_two_threads():
    # Compiled quantifiers write their persons into a list of their own,
    # so two threads sharing one spec must not share its compiled checks.
    # A tiny switch interval makes the threads interleave inside them.
    # The thread that walks a transcript keeps the step checks that walk
    # compiled: the parsing thread for a parsed spec, and a worker for a
    # copy never validated, whose transcript is first walked there.
    worlds = list(enumerate_worlds(parse_puzzle_file(THREADED)))

    def replay(puzzle):
        solved = solve_all(puzzle)
        return ([check_world(puzzle, world) for world in worlds],
                solved.worlds, solved.statistics.nodes)

    expected = replay(parse_puzzle_file(THREADED))
    assert expected[1] and len(expected[1]) < len(worlds)

    def replay_shared(shared, in_this_thread):
        """Replay one spec in two threads; `in_this_thread` makes this
        thread, which holds a parsed spec's checks, one of them."""
        got = [None, None]

        def run(i):
            got[i] = replay(shared)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(in_this_thread, 2)]
        for thread in threads:
            thread.start()
        if in_this_thread:
            run(0)
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        return got

    parsed = parse_puzzle_file(THREADED)
    unvalidated = PuzzleSpec(parsed.person_names, parsed.fluent_decls,
                             parsed.axioms, parsed.rounds)
    inputs = ((parse_puzzle_file(THREADED), False),
              (parse_puzzle_file(THREADED), True), (unvalidated, False))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for shared, in_this_thread in inputs:
            assert replay_shared(shared, in_this_thread) == [expected,
                                                             expected]
    finally:
        sys.setswitchinterval(interval)
    assert gc.isenabled()


def test_unconstrained_world_always_checks():
    puzzle = parse_puzzle_file("persons: Ann\n")
    for world in enumerate_worlds(puzzle):
        assert check_world(puzzle, world)


def test_fixture_solves_to_the_reported_world(asylum):
    result = solve_all(asylum)
    assert result.status is SolveStatus.UNIQUE
    world = result.worlds[0]
    for person, label in EXPECTED_TYPES.items():
        assert world.type_of(person).label == label
    for person, guilt in EXPECTED_GUILT.items():
        assert world.fluent_value("guilt", person) == guilt
    assert {p for p in world.person_names
            if world.fluent_value("lover", p)} == LOVERS
    assert {p for p in world.person_names
            if world.fluent_value("strong", p)} == {"Beth", "Cedric", "David", "Ian"}
    assert {p for p in world.person_names
            if world.fluent_value("unlocked", p)} == {"Eve"}
    assert {p for p in world.person_names
            if world.fluent_value("carried", p)} == {"Beth"}


def test_fixture_report_triples(asylum):
    result = solve_all(asylum)
    rows = {row.person: row for row in result.report}
    assert rows["Ann"].sanity == "partial"
    assert rows["Ann"].truthfulness == "alternator"
    assert rows["Ann"].guilt == "guilty"
    assert rows["Cedric"].sanity == "sane"
    assert rows["Cedric"].guilt == "innocent"


def test_fixture_search_counts_are_pinned(asylum):
    statistics = solve_all(asylum).statistics
    assert statistics.nodes == 3798
    assert statistics.worlds_found == 1


def test_fixture_searches_every_type_combination(asylum):
    # Some fluent check reads each person's type, and each person's two
    # candidates fall in different classes, so no two of the 512
    # combinations share a search.
    assert solver._Search(asylum, Budget()).subtrees is None
    assert solve_all(asylum).statistics.fluent_searches == 512


def _count_check_runs(monkeypatch, parted=None) -> dict:
    """Runs of each check compiled from now on, by speaker (None for an
    axiom), with the runs of its `watch()` list.  A run of the list that
    is not the check itself counts in `parted` too, when given."""
    calls = {}
    compile_statement = statements.compile_statement

    def counting(stmt, speaker, *args):
        check, reads, typed, watch = compile_statement(stmt, speaker, *args)

        def counter(run):
            def counted(types, values):
                calls[speaker] = calls.get(speaker, 0) + 1
                if parted is not None and run is not check:
                    parted[speaker] = parted.get(speaker, 0) + 1
                return run(types, values)
            return counted

        def counted_watch():
            return [(v, counter(run)) for v, run in watch()]
        return counter(check), reads, typed, counted_watch

    monkeypatch.setattr(statements, "compile_statement", counting)
    return calls


def test_fixture_check_runs_are_pinned(monkeypatch, asylum_text):
    # The node pin holds how strongly the checks prune, this one how often
    # they run: a fluent check that is watched before the first slot at
    # which it can be False runs more, and prunes no more.  A watched run
    # after the first runs only the parts that read the slot just set,
    # unless every part of the check reads it: 2,415 of the runs are of
    # such closures.
    parted = {}
    calls = _count_check_runs(monkeypatch, parted)
    statistics = solve_all(parse_puzzle_file(asylum_text)).statistics
    assert statistics.nodes == 3798
    assert sum(calls.values()) == 6195
    assert sum(parted.values()) == 2415


def test_a_watched_check_runs_whole_at_its_first_slot():
    # `liar(Beth)` reads no fluent slot, so no slot's parts hold it: the
    # search must run the whole axiom at `shifty(Beth)`, the one slot it
    # watches, or Beth's other 15 types get through.
    puzzle = parse_puzzle_file("persons: Ann, Beth\nfluent shifty : bool\n"
                               "axiom liar(Beth) and shifty(Beth)\n")
    result = solve_all(puzzle)
    assert len(result.worlds) == 16 * 4 * 2
    assert result.worlds == brute_force_solve(puzzle)


def test_parsing_and_solving_compile_each_statement_once(monkeypatch,
                                                        asylum_text):
    # The parser's walk of the spec compiles each axiom, and each
    # utterance for its own speaker, and a solve in the parsing thread
    # runs those checks: 7 axioms and 54 utterances, none compiled twice.
    # A second validate() and a check_world reuse them too.
    speakers = []
    compile_statement = statements.compile_statement

    def counting(stmt, speaker, *args):
        speakers.append(speaker)
        return compile_statement(stmt, speaker, *args)

    monkeypatch.setattr(statements, "compile_statement", counting)
    puzzle = parse_puzzle_file(asylum_text)
    solved = solve_all(puzzle)
    assert len(speakers) == 61
    once = [None] * len(puzzle.axioms) + [
        step.person for step in puzzle.transcript]
    assert speakers == once
    puzzle.validate()
    assert check_world(puzzle, solved.worlds[0])
    assert len(speakers) == 61
    # A worker thread walks the spec once for checks of its own.
    worker = threading.Thread(target=solve_all, args=(puzzle,))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert speakers == once + once


def test_parsing_and_solving_peel_each_uttered_statement_once(monkeypatch,
                                                             asylum_text):
    # The transcript walk peels each volunteered statement once, and each
    # question once for all it is put to: 27 statements and 3 questions.
    peeled = []
    peel_believes = statements.peel_believes

    def counting(stmt):
        peeled.append(stmt)
        return peel_believes(stmt)

    monkeypatch.setattr(statements, "peel_believes", counting)
    puzzle = parse_puzzle_file(asylum_text)
    puzzle.compiled
    solve_all(puzzle)
    assert len(peeled) == 30
    assert peeled == [
        stmt for rnd in puzzle.rounds
        for stmt in ([rnd.statement] if isinstance(rnd, QuestionRound)
                     else [stmt for _, stmt in rnd.utterances])]


def test_parsing_and_solving_walk_each_uttered_body_once(monkeypatch,
                                                         asylum_text):
    # Each peel walks its body for an inner `believes` once, and a
    # volunteered statement's label is rendered from the peeled body
    # without walking it again: 30 walks, not 57.
    walked = []
    reject_inner_believes = statements._reject_inner_believes

    def counting(stmt):
        walked.append(stmt)
        return reject_inner_believes(stmt)

    monkeypatch.setattr(statements, "_reject_inner_believes", counting)
    puzzle = parse_puzzle_file(asylum_text)
    puzzle.compiled
    solve_all(puzzle)
    assert len(walked) == 30


# Digest of repr([(status, [sort_key of each world]), ...]) over the
# generated puzzles below; any change to what the solver computes moves
# it.  Node counts are pinned apart, so a change that moves only them
# leaves it as it is.
GENERATED_SOLVES_SHA256 = (
    "3ce7bf3bdf7e9723470d56dc26eca574bdc8bbbb7ec778ef25a967a34980b1ef")


def test_generated_solves_are_pinned():
    import support
    rng = random.Random(123)
    puzzles = [support.random_puzzle(rng) for _ in range(50)]
    rng = random.Random(456)
    puzzles += [support.random_categorical_puzzle(rng, hidden=i % 2 == 0)
                for i in range(12)]
    runs = []
    for puzzle in puzzles:
        result = solve_all(puzzle)
        runs.append((result.statistics.nodes, result.status.value,
                     [world.sort_key() for world in result.worlds]))
    assert sum(nodes for nodes, _, _ in runs) == 268_550
    assert sum(len(keys) for _, _, keys in runs) == 77_437
    outcomes = [(status, keys) for _, status, keys in runs]
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == GENERATED_SOLVES_SHA256


def _solve_paths(puzzles, worlds) -> list[tuple]:
    """What `solve_all`, the oracle (up to three persons), `check_world`
    and, on a consistent world, `explain_solution` give each puzzle and a
    world of it."""
    runs = []
    for puzzle, world in zip(puzzles, worlds):
        result = solve_all(puzzle)
        oracle = (brute_force_solve(puzzle)
                  if len(puzzle.person_names) <= 3 else None)
        checked = check_world(puzzle, world)
        explained = ([step.render() for step in
                      explain_solution(puzzle, world)] if checked else None)
        runs.append((result.status, result.worlds, result.report, oracle,
                     checked, explained))
    return runs


def test_no_solve_path_enters_the_tree_walker(monkeypatch, capsys):
    # Solving, checking, explaining and simulating run on compiled checks
    # alone; the tree walker is only the reference they are tested
    # against.  The generators replay hidden worlds through the walker, so
    # the puzzles are made first.  Each path must give the same result
    # with the walker cut off, on fresh copies that compile again.
    rng = random.Random(39)
    puzzles = [random_puzzle(rng) for _ in range(30)]
    worlds = [random_world(rng, puzzle.person_names, puzzle.fluent_decls)
              for puzzle in puzzles]
    for _ in range(5):
        puzzle, world = random_probed_puzzle(rng)
        puzzles.append(puzzle)
        worlds.append(world)
    fresh = copy.deepcopy(puzzles)
    asylum, solution, ann_sl = (str(fixture_path(name)) for name in (
        "asylum.puzzle", "asylum.solution.world", "asylum.ann_sl.world"))
    commands = (["solve", asylum, "--extract", "--explain"],
                ["solve", asylum, "--extract", "--explain",
                 "--format", "structured"],
                ["check", asylum, solution], ["check", asylum, ann_sl],
                ["simulate", asylum, solution])

    def run(puzzles):
        outputs = []
        for argv in commands:
            code = main(argv)
            # All but the text solve's `time:` line, which varies.
            outputs.append((code, [
                line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("time: ")]))
        return outputs, _solve_paths(puzzles, worlds)

    expected = run(puzzles)
    assert [code for code, _ in expected[0]] == [0, 0, 0, 13, 0]
    assert "ALTERNATE" in expected[0][0][1]

    def walker(*args):
        raise AssertionError("a solve path entered the tree walker")
    monkeypatch.setattr(statements, "_eval", walker)
    assert run(fresh) == expected


def test_quantified_fluent_axiom_without_persons_is_checked():
    # No persons means no fluent variables, so nothing watches the axiom;
    # it must still be checked, and an empty domain makes it false.
    puzzle = parse_puzzle_file(
        "persons:\nfluent f : bool\naxiom exists x . f(x)\n")
    assert brute_force_solve(puzzle) == ()
    result = solve_all(puzzle)
    assert result.status is SolveStatus.NONE
    assert result.worlds == ()
    assert result.statistics.nodes == 1


def test_deep_quantifiers_solve_as_the_oracle_does():
    # Twelve nested quantifiers over three persons: the compiled checks
    # stay as small as the statements, and the search finds what the
    # oracle finds.  Each chain stops at its first definite miss.
    def chain(atom):
        return " and ".join(f"exists x{i} . {atom}(x{i})" for i in range(12))
    puzzle = parse_puzzle_file(
        "persons: A, B, C\nfluent f : bool\n"
        f"axiom sane(C) implies {chain('f')}\n"
        f"round statements:\n  A: {chain('doctor')}\n  B: not f(A)\n")
    worlds = solve_all(puzzle).worlds
    assert worlds and worlds == brute_force_solve(puzzle)


def test_found_worlds_die_with_their_result():
    # Reference counting alone must free the search's worlds.
    puzzle = parse_puzzle_file("persons: Ann\nfluent f : bool\naxiom f(Ann)\n")
    gc.disable()
    try:
        result = solve_all(puzzle)
        ref = weakref.ref(result.worlds[0])
        del result
        assert ref() is None
    finally:
        gc.enable()


def test_a_parse_leaves_nothing_for_the_cyclic_collector(asylum_text):
    # Each compile's recursive helper refers to itself; left in that
    # cycle, it kept 1,282 objects per asylum parse for the collector.
    gc.collect()
    gc.disable()
    try:
        parse_puzzle_file(asylum_text)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_solve_leaves_nothing_for_the_cyclic_collector(asylum):
    # Solves pause the collector, so a cycle a solve made would stay
    # until some later collection.
    asylum.compiled
    gc.collect()
    gc.disable()
    try:
        solve_all(asylum)
        assert gc.collect() == 0
        aborted = False
        try:
            solve_all(asylum, Budget(max_nodes=100))
        except BudgetExceededError:
            aborted = True
        assert aborted
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_checks_start_frees_its_analysis_after_the_first_call(
        asylum_text):
    # Only a solve's set-up calls `watch()`; what its first call builds,
    # the start analysis and its quantifier memo, would otherwise live as
    # long as the spec.  All it keeps is each check's list of slots
    # watched, as large as a list the same comprehension builds, and the
    # two ints `get_traced_memory` returns, 32 bytes each as allocated.
    # A call on a second spec first fills the allocator's free lists,
    # which keep what a call frees allocated.
    gc.collect()
    tracemalloc.start()
    try:
        warm, checks = (sum(parse_puzzle_file(asylum_text).compiled, ())
                        for _ in range(2))
        for check in warm:
            check[3]()
        before, _ = tracemalloc.get_traced_memory()
        for check in checks:
            check[3]()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    watched = [[v for v, _ in check[3]()] for check in checks]
    assert after - before <= sum(map(sys.getsizeof, watched)) + 2 * 32
    assert [[v for v, _ in check[3]()] for check in checks] == watched


def test_solves_pause_the_collector_and_leave_it_as_they_found_it(
        monkeypatch, asylum):
    seen = []
    for owner, name in ((solver._Search, "_descend"), (solver, "check_world")):
        def spy(*args, original=getattr(owner, name)):
            seen.append(gc.isenabled())
            return original(*args)
        monkeypatch.setattr(owner, name, spy)
    puzzle = parse_puzzle_file("persons: Ann\nfluent f : bool\naxiom f(Ann)\n")

    def abort():
        with pytest.raises(BudgetExceededError):
            solve_all(asylum, Budget(max_nodes=100))

    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            for solve in (lambda: solve_all(puzzle),
                          lambda: brute_force_solve(puzzle), abort):
                seen.clear()
                solve()
                assert seen and not any(seen)
                assert gc.isenabled() is enabled
        finally:
            gc.enable()


def test_only_public_worlds_run_the_row_check(monkeypatch):
    # Two persons and two free booleans: 16 assignments under each of 256
    # type combinations.  The search builds its 16 leaf worlds through
    # `World(...)`, one per assignment, and checks each in full; the
    # worlds it copies and every world the oracle keeps are trusted.
    built, checked = _count_built_worlds(monkeypatch), []
    post_init = World.__post_init__

    def spy(self):
        checked.append(self.fluent_values)
        post_init(self)
    monkeypatch.setattr(World, "__post_init__", spy)
    puzzle = parse_puzzle_file(
        "persons: Ann, Beth\nfluent f : bool\nfluent g : bool\n")
    for solve, runs in ((lambda: solve_all(puzzle).worlds, 16),
                        (lambda: brute_force_solve(puzzle), 0)):
        built.clear()
        checked.clear()
        assert len(solve()) == 4096
        assert len(checked) == len(set(checked)) == built["public"] == runs
        assert built["public"] + built["trusted"] == 4096


def test_checked_rows_hold_only_for_their_fluents_and_persons():
    puzzle = parse_puzzle_file("persons: Ann, Beth\nfluent f : bool\n")
    st_ = TYPES_BY_LABEL["ST"]
    for world in (solve_all(puzzle).worlds[0],
                  brute_force_solve(puzzle)[0]):
        rows = world.fluent_values
        for names, decls, message in (
                (("Ann", "Beth"), (FluentDecl("f", ("a", "b")),),
                 "value False not in domain of 'f'"),
                (("Ann", "Beth"), (FluentDecl("f"), FluentDecl("g")),
                 "one value tuple per declared fluent required"),
                (("Ann", "Beth", "Cedric"), puzzle.fluent_decls,
                 "fluent 'f' must cover every person")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                World(names, (st_,) * len(names), decls, rows)
        with pytest.raises(ValueError,
                           match="^value 0 not in domain of 'f'$"):
            dataclasses.replace(world, fluent_values=((0, 1),))


def test_contradictory_axioms_give_no_world():
    text = ("persons: Ann\nfluent f : bool\n"
            "axiom f(Ann)\naxiom not f(Ann)\n")
    result = solve_all(parse_puzzle_file(text))
    assert result.status is SolveStatus.NONE
    assert result.worlds == ()


def test_adding_an_axiom_never_enlarges_the_world_set():
    rng = random.Random(20240)
    import support
    for _ in range(25):
        puzzle = support.random_puzzle(rng)
        extra = support.random_statement(
            rng, depth=2, persons=puzzle.person_names,
            fluents=[d.name for d in puzzle.fluent_decls], allow_me=False)
        stricter = PuzzleSpec(puzzle.person_names, puzzle.fluent_decls,
                              puzzle.axioms + (extra,), puzzle.rounds)
        before = set(solve_all(puzzle).worlds)
        after = set(solve_all(stricter).worlds)
        assert after <= before


def test_lovers_pinned_by_first_rounds_alone(asylum):
    # Keep only the lover fluent and rounds 0-3: every surviving world
    # still marks Beth, Fiona and Grace as lovers.
    lover_decl = tuple(d for d in asylum.fluent_decls if d.name == "lover")
    reduced = PuzzleSpec(asylum.person_names, lover_decl, (),
                         asylum.rounds[:4])
    reduced.validate()
    result = solve_all(reduced)
    assert result.status is SolveStatus.MULTIPLE
    assert len(result.worlds) == 512  # 2 type choices per person
    for world in result.worlds:
        for lover in ("Beth", "Fiona", "Grace"):
            assert world.fluent_value("lover", lover) is True


def test_budget_is_enforced():
    # 16^3 type combinations alone exceed a tiny node budget.
    text = "persons: Ann, Beth, Cedric\n"
    with pytest.raises(BudgetExceededError) as err:
        solve_all(parse_puzzle_file(text), budget=Budget(max_nodes=100))
    assert err.value.statistics.nodes > 0


def test_a_budget_abort_reports_the_search_so_far():
    # The search finds worlds from its first fluent search on, and the
    # abort's statistics count them, as a finished solve's would.
    puzzle = parse_puzzle_file(
        "persons: Ann, Beth\nfluent f : bool\nfluent g : bool\n")
    with pytest.raises(BudgetExceededError) as err:
        solve_all(puzzle, budget=Budget(max_nodes=3000))
    assert str(err.value) == "node budget of 3000 exceeded"
    statistics = err.value.statistics
    assert statistics.nodes == 4123
    assert statistics.worlds_found == 2112
    assert statistics.fluent_searches == 1
    # A negative time limit is passed at the first budget check, the
    # first time the node count crosses a multiple of 2,048.
    with pytest.raises(BudgetExceededError) as err:
        solve_all(puzzle, budget=Budget(max_seconds=-1.5))
    assert str(err.value) == "time budget of -1.5s exceeded"
    statistics = err.value.statistics
    assert (statistics.nodes, statistics.worlds_found) == (2077, 1056)


@pytest.mark.parametrize("text", list(TOO_DEEP.values()), ids=list(TOO_DEEP))
def test_a_search_deeper_than_the_recursion_limit_exceeds_the_budget(text):
    with pytest.raises(BudgetExceededError) as err:
        solve_all(parse_puzzle_file(text))
    assert str(err.value) == "search nests deeper than Python's recursion limit"
    assert err.value.__cause__ is None and err.value.__suppress_context__
    assert err.value.statistics.worlds_found == 0


def test_a_nan_budget_is_rejected():
    # No count or time exceeds NaN, so it would switch the limit off.
    for limits in ({"max_seconds": float("nan")}, {"max_nodes": float("nan")}):
        with pytest.raises(ValueError, match="must be a number, not nan"):
            Budget(**limits)


FOUR_PERSONS = "persons: Ann, Beth, Cedric, David\n"


def test_fluent_free_check_runs_once_its_last_type_is_set(monkeypatch):
    # Beth's utterance reads only Ann's and Beth's types, so it is decided
    # once Beth is typed, and of those types it reads only their classes:
    # whether Ann is a doctor (2 classes), and whether Beth is a liar and
    # wants the body true (4).  So it runs 2 * 4 times, not once per type
    # combination or per pair of types.
    calls = _count_check_runs(monkeypatch)
    puzzle = parse_puzzle_file(
        FOUR_PERSONS + "round statements:\n  Beth: doctor(Ann) or liar(me)\n")
    result = solve_all(puzzle)
    assert calls["Beth"] == 8
    assert result.statistics.nodes == 65_536
    assert result.worlds == brute_force_solve(puzzle)


def test_a_check_with_no_two_prefixes_alike_runs_on_each(monkeypatch):
    # Ann is a sane truth-teller and Beth a sane truth-teller or liar, so
    # Ann's utterance has as many class combinations as prefixes to run
    # on; it runs on each, and prunes.
    calls = _count_check_runs(monkeypatch)
    puzzle = parse_puzzle_file(
        "persons: Ann, Beth\naxiom sane(Ann) and truthteller(Ann)\n"
        "axiom sane(Beth) and not alternator(Beth)\n"
        "round statements:\n  Ann: liar(Beth)\n")
    result = solve_all(puzzle)
    assert calls["Ann"] == 2
    assert [world.types for world in result.worlds] == [
        (TYPES_BY_LABEL["ST"], TYPES_BY_LABEL["SL"])]
    assert result.worlds == brute_force_solve(puzzle)


# A no-probe benchmark input (`4-0/2`): every check reads two or more
# persons' types and no fluent, and all 16 types stay candidates.
NO_PROBE_QUARTET = FOUR_PERSONS + """\
round question "probe" to Ann, Cedric, David: believes(exists z . alternator(z))
  answers: Ann=no, Cedric=yes, David=no
round statements:
  Beth: not ((partial(me) implies delusional(me)) implies liar(Cedric))
  David: truthteller(Beth) or truthteller(me) or delusional(David) implies \
alternator(me) and truthteller(Beth) and liar(me)
round question "probe" to Beth, David: believes(atleast 1 z . sane(Ann))
  answers: Beth=no, David=no
round question "probe" to Ann, Beth, Cedric, David: partial(me) or \
doctor(David) or delusional(Cedric)
  answers: Ann=no, Beth=no, Cedric=yes, David=yes
"""


def test_type_checks_run_once_per_combination_of_classes(monkeypatch):
    # Each of its 11 checks reads two to four persons' types and no
    # fluent, and runs once per combination of the classes it reads, not
    # once per prefix of types up to its last typed person.
    calls = _count_check_runs(monkeypatch)
    result = solve_all(parse_puzzle_file(NO_PROBE_QUARTET))
    assert sum(calls.values()) == 176
    assert result.statistics.nodes == 65_536
    assert len(result.worlds) == 50


def test_fluent_search_runs_once_per_class_of_its_key_persons(monkeypatch):
    # Only Ann's step runs in the fluent search, and it reads only whether
    # Ann's type wants its body true: a sane truth-teller and an insane
    # liar both assert exactly the true statements.  So the 4,096 type
    # combinations share 2 searches, one per class of Ann's types; the
    # others reuse the rows they found and count their nodes again.
    calls = _count_check_runs(monkeypatch)
    puzzle = parse_puzzle_file("persons: Ann, Beth, Cedric\nfluent f : bool\n"
                               "round statements:\n  Ann: f(Beth)\n")
    result = solve_all(puzzle)
    assert calls["Ann"] == 8
    assert result.statistics.nodes == 45_056
    assert result.statistics.fluent_searches == 2
    assert len(result.worlds) == 16_384
    assert result.worlds == brute_force_solve(puzzle)


def test_reused_subtrees_count_against_the_node_budget():
    # No check reads a type: one search of 30 nodes, reused by the other
    # 255 type combinations, plus one node per combination.
    puzzle = parse_puzzle_file(
        "persons: Ann, Beth\nfluent f : bool\nfluent g : bool\n")
    result = solve_all(puzzle, budget=Budget(max_nodes=7_936))
    assert result.statistics.nodes == 7_936
    assert result.statistics.fluent_searches == 1
    with pytest.raises(BudgetExceededError):
        solve_all(puzzle, budget=Budget(max_nodes=7_935))


def _solve_searching_every_combination(monkeypatch, puzzle, budget):
    """`solve_all` with a subtree store that keeps nothing, and how many
    subtrees the search offered it."""
    offered = []

    class Forgetful(dict):
        def __setitem__(self, key, value):
            offered.append(key)

    init = solver._Search.__init__

    def forgetting(self, puzzle, budget):
        init(self, puzzle, budget)
        if self.subtrees is not None:
            self.subtrees = Forgetful()

    with monkeypatch.context() as patched:
        patched.setattr(solver._Search, "__init__", forgetting)
        return solve_all(puzzle, budget), len(offered)


def test_reused_subtrees_are_what_a_search_would_find(monkeypatch):
    # A person who never speaks keeps all 16 types, and no check reads
    # them unless a quantifier does, so most puzzles with a fluent and a
    # silent "Zed" reuse subtrees.  Without Zed, combinations share a
    # search only where the speakers' types fall in the same classes.
    runs = []

    @given(strategies.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def reuse_is_exact(seed):
        rng = random.Random(seed)
        kind = rng.randrange(3)
        if kind == 0:
            puzzle = random_puzzle(rng)
        elif kind == 1:
            puzzle = random_categorical_puzzle(rng, hidden=rng.random() < 0.5)
        else:
            puzzle, _ = random_probed_puzzle(rng)
        if rng.random() < 0.5:
            puzzle = PuzzleSpec(puzzle.person_names + ("Zed",),
                                puzzle.fluent_decls, puzzle.axioms,
                                puzzle.rounds)
        budget = Budget(max_nodes=10_000)
        try:
            reused = solve_all(puzzle, budget)
        except BudgetExceededError:
            assume(False)
        searched, offered = _solve_searching_every_combination(
            monkeypatch, puzzle, budget)
        assert reused.worlds == searched.worlds
        assert reused.statistics.nodes == searched.statistics.nodes
        runs.append(("Zed" in puzzle.person_names, offered,
                     reused.statistics.fluent_searches,
                     searched.statistics.fluent_searches))

    reuse_is_exact()
    for silent in (True, False):
        assert any(offered for zed, offered, _, _ in runs if zed is silent)
        assert any(reused < searched
                   for zed, _, reused, searched in runs if zed is silent)


@pytest.mark.parametrize("seed", range(8))
def test_speakers_share_searches_among_their_type_classes(monkeypatch, seed):
    # Every person speaks, and none type-locally, so each keeps 16 types
    # and some fluent check reads each one's type: the no-probe shape.  A
    # step reads only whether its speaker's type wants its body true,
    # and builtins only the sanity or truthfulness class, so the 4,096
    # combinations still share searches, with every world and node a
    # search of each would give.
    puzzle = random_nonlocal_puzzle(random.Random(seed))
    shared = solve_all(puzzle)
    searched, _ = _solve_searching_every_combination(monkeypatch, puzzle,
                                                     Budget())
    assert (shared.statistics.fluent_searches
            < searched.statistics.fluent_searches)
    assert shared.worlds == searched.worlds
    assert shared.statistics.nodes == searched.statistics.nodes
    assert shared.worlds == brute_force_solve(puzzle)


@given(strategies.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_no_check_is_false_before_its_watch_starts(seed):
    # The read-once law the watch lists rest on: on any types, a row that
    # sets only slots before the first slot a check watches never makes it
    # False, so a run the search skips could not prune.  Probed puzzles
    # bring 4-5 persons, `atleast`, categorical fluents and belief rounds.
    rng = random.Random(seed)
    kind = rng.randrange(3)
    if kind == 0:
        puzzle = random_puzzle(rng)
    elif kind == 1:
        puzzle = random_categorical_puzzle(rng, hidden=rng.random() < 0.5)
    else:
        puzzle, _ = random_probed_puzzle(rng)
    names, decls = puzzle.person_names, puzzle.fluent_decls
    slots = list(itertools.product(range(len(decls)), range(len(names))))
    axioms, steps = puzzle.compiled
    watchers = solver._Search(puzzle, Budget()).watchers
    watched = [0] * len(slots)
    for check, reads, _, watch in axioms + steps:
        runs = watch()
        first = runs[0][0] if runs else math.inf
        for _ in range(16):
            types = [rng.choice(ALL_TYPES) for _ in names]
            values = [[UNKNOWN] * len(names) for _ in decls]
            if not check(types, values):
                # Types alone make the check False, on every row: it must
                # be watched from the first slot it reads.
                assert first == min((f * len(names) + p for f, p in reads),
                                    default=math.inf)
                continue
            for v, (f, p) in enumerate(slots):
                if v < first and rng.random() < 0.8:
                    values[f][p] = rng.choice(decls[f].values())
            assert check(types, values) is not False
        # One that can be False still runs once all it reads is set: whole
        # at the first slot it watches, and in parts at each slot after.
        if runs:
            assert runs[0][1] is check and check in watchers[first]
            for v, _ in runs:
                watched[v] += 1
    assert [len(checks) for checks in watchers] == watched


def test_a_prefix_ruled_out_still_counts_its_combinations():
    # The axiom reads Ann's and Beth's types, so it is decided once both
    # are set, and each pair it rules out skips 256 combinations.
    puzzle = parse_puzzle_file(
        FOUR_PERSONS
        + "axiom doctor(Ann) and not doctor(Ann) and sane(Beth)\n")
    result = solve_all(puzzle)
    assert result.status is SolveStatus.NONE
    assert result.statistics.nodes == 65_536
    with pytest.raises(BudgetExceededError):
        solve_all(puzzle, budget=Budget(max_nodes=100))


def test_a_one_person_axiom_filters_candidates():
    # An axiom that reads one person's type alone prunes that person's
    # candidates before the search: where it allows no type of Ann's, no
    # combination is left to search or count.
    puzzle = parse_puzzle_file(
        FOUR_PERSONS + "axiom doctor(Ann) and not doctor(Ann)\n")
    result = solve_all(puzzle)
    assert result.status is SolveStatus.NONE
    assert result.statistics.nodes == 0
    assert brute_force_solve(puzzle) == ()


def test_one_person_axioms_keep_few_worlds_within_the_budget(tmp_path):
    # Each axiom reads one person's type, so it prunes that person's
    # candidates.  Decided on a type prefix instead, each would skip whole
    # blocks of combinations, all counted against the node budget, which
    # this 12-world puzzle would then exceed.
    from bedlam.cli import main
    others = "BCDEFGH"
    text = (f"persons: A, {', '.join(others)}\naxiom not sane(A)\n"
            + "".join(f"axiom sane({x}) and truthteller({x})\n"
                      for x in others))
    result = solve_all(parse_puzzle_file(text))
    assert result.status is SolveStatus.MULTIPLE
    assert len(result.worlds) == 12
    assert result.statistics.nodes == 12
    assert [world.types[0] for world in result.worlds] == [
        t for t in ALL_TYPES if t.sanity is not Sanity.SANE]
    assert {world.types[1:] for world in result.worlds} == {
        (TYPES_BY_LABEL["ST"],) * len(others)}
    path = tmp_path / "eight.puzzle"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", str(path)]) == 0


def test_a_one_person_quantified_step_filters_candidates():
    # With one person, `exists y . sane(y)` reads the speaker's type
    # alone, so it prunes Ann's candidates before the search.
    for fluents, nodes in (("", 8), ("fluent f : bool\n", 24)):
        puzzle = parse_puzzle_file(
            f"persons: Ann\n{fluents}round statements:\n"
            "  Ann: exists y . sane(y)\n")
        result = solve_all(puzzle)
        assert result.worlds == brute_force_solve(puzzle)
        assert result.statistics.nodes == nodes


def test_worlds_are_canonically_ordered():
    puzzle = parse_puzzle_file("persons: Ann\nfluent f : bool\n")
    result = solve_all(puzzle)
    keys = [w.sort_key() for w in result.worlds]
    assert keys == sorted(keys)
    assert len(result.worlds) == 32


def test_explain_requires_consistent_world(asylum, ann_sl_world):
    with pytest.raises(SemanticError, match=(
            r"^world is not consistent: round 4: Ann \(SL\) would not say: "
            r"lover\(Beth\)$")):
        explain_solution(asylum, ann_sl_world)


def test_explain_decodes_round_zero_and_five(asylum, solution_world):
    steps = explain_solution(asylum, solution_world)
    by_round = {}
    for step in steps:
        by_round.setdefault(step.round_index, {})[step.person] = step
    # Round 0: the three type-certain speakers decode to positive lover facts.
    for person in ("Beth", "Fiona", "Grace"):
        fact = by_round[0][person].fact
        assert fact == Atom("lover", Person(person))
    # Round 4 recertifies Beth, Fiona and Grace through their neighbours.
    assert by_round[4]["Ann"].fact == Atom("lover", Person("Beth"))
    assert by_round[4]["Eve"].fact == Atom("lover", Person("Fiona"))
    assert by_round[4]["Fiona"].fact == Not(Not(Atom("lover", Person("Grace"))))
    # Round 5: Ian's lying belief decodes to "the carrier is a lover".
    ian = by_round[5]["Ian"].fact
    assert render_statement(ian) == \
        "not (exists x . carried(x) and not lover(x))"
    beth = by_round[5]["Beth"].fact
    assert render_statement(beth) == \
        "not (exists x . doctor(x) and guilt(x, guilty))"


def test_explain_single_statement_puzzle():
    text = ("persons: Ann\nfluent f : bool\naxiom f(Ann)\n"
            "round statements:\n  Ann: f(me)\n")
    puzzle = parse_puzzle_file(text)
    result = solve_all(puzzle)
    worlds = [w for w in result.worlds]
    steps = explain_solution(puzzle, worlds[0])
    assert len(steps) == 1
    assert steps[0].person == "Ann"


def test_explained_facts_hold_in_their_worlds():
    # Whatever a consistent world's residents said, each decoded fact holds
    # in that world under the reference evaluator.
    rng = random.Random(0xE4B1)
    cases = []
    for _ in range(40):
        puzzle = random_puzzle(rng)
        cases += [(puzzle, world) for world in solve_all(puzzle).worlds[:10]]
    cases += [random_probed_puzzle(rng) for _ in range(10)]
    for _ in range(10):
        puzzle = random_categorical_puzzle(rng, hidden=True)
        cases += [(puzzle, world) for world in solve_all(puzzle).worlds[:10]]
    facts = set()
    for puzzle, world in cases:
        steps = explain_solution(puzzle, world)
        assert len(steps) == len(puzzle.transcript)
        for step in steps:
            assert eval_closed(world, step.fact), step.render()
            facts.add(type(step.fact))
    assert len(cases) >= 400
    assert Not in facts


def test_explain_decodes_both_negation_branches():
    # A NO to "not f(me)" decodes to f when the answerer had to deny a
    # false body, and to the body itself when it had to deny a true one;
    # a volunteered false "not f(...)" stays doubly negated.
    puzzle = parse_puzzle_file(
        "persons: Ann, Beth\nfluent f : bool\n"
        "round question \"are you not f\" to all: not f(me)\n"
        "  answers: Ann=no, Beth=no\n"
        "round statements:\n  Beth: not f(Ann)\n")
    world = World(puzzle.person_names,
                  (TYPES_BY_LABEL["ST"], TYPES_BY_LABEL["SL"]),
                  puzzle.fluent_decls, ((True, False),))
    steps = explain_solution(puzzle, world)
    assert [render_statement(step.fact) for step in steps] == \
        ["f(Ann)", "not f(Beth)", "not not f(Ann)"]
    assert steps[0].fact == Atom("f", Person("Ann"))
    assert steps[2].render() == \
        "round 1 Beth (lying, sane): says not f(Ann) => not not f(Ann)"


def test_solver_statistics_populated(asylum):
    result = solve_all(asylum)
    assert result.statistics.nodes > 0
    assert result.statistics.elapsed >= 0
    assert result.statistics.worlds_found == 1
