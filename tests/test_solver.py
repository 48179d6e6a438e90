"""World checking, staged search, and derivations on the fixture."""

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

import pytest
from hypothesis import assume, given, settings, strategies

from bedlam import fixture_path, solver, statements
from bedlam.parser import parse_puzzle_file, parse_statement, parse_world_file
from bedlam.puzzle import PuzzleSpec, QuestionRound
from bedlam.semantics import ALL_TYPES, TYPES_BY_LABEL
from bedlam.solver import (Budget, BudgetExceededError, CheckResult,
                           SolveStatus, brute_force_solve, check_world,
                           enumerate_worlds, explain_solution, solve_all)
from bedlam.statements import (Atom, Not, Person, SemanticError, UNKNOWN,
                               decided_from, eval_closed, render_statement)
from bedlam.worlds import FluentDecl, World
from support import (random_categorical_puzzle, random_probed_puzzle,
                     random_puzzle)

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


def test_check_world_builds_each_violation_once():
    # Worlds that break the same axiom, or the same step with the same
    # speaker type, get one shared result; another speaker type its own.
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
    assert outcome((sl, dl), (False, True)) is axiom
    step = outcome((st_, sl), (True, False))
    assert step == CheckResult(False, 0, "Ann",
                               "round 0: Ann (ST) would not say: f(Beth)")
    assert outcome((st_, dl), (True, False)) is step
    liar = outcome((sl, st_), (True, True))
    assert liar.message == "round 0: Ann (SL) would not say: f(Beth)"
    assert outcome((sl, dl), (True, True)) is liar


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


def test_oracle_builds_and_checks_only_the_worlds_it_keeps(monkeypatch):
    # Rows are checked first, so the oracle builds a World, and calls
    # check_world, once per world it returns.  Of the 1,024 rows, both
    # puzzles rule some out in their steps, not only in their axioms.
    counts = {"built": 0, "checked": 0}
    init, check = World.__init__, solver.check_world

    def counting_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counting_check(puzzle, world):
        counts["checked"] += 1
        return check(puzzle, world)

    monkeypatch.setattr(World, "__init__", counting_init)
    monkeypatch.setattr(solver, "check_world", counting_check)
    head = "persons: Ann, Beth\nfluent f : bool\n"
    for text, kept in ((head + "axiom sane(Ann) and truthteller(Ann)\n"
                        "round statements:\n  Ann: f(Beth)\n"
                        "round statements:\n  Ann: not f(Beth)\n", 0),
                       (head + "axiom f(Ann)\n"
                        "round statements:\n  Beth: f(Ann)\n", 256)):
        puzzle = parse_puzzle_file(text)
        counts.update(built=0, checked=0)
        assert len(brute_force_solve(puzzle)) == kept
        assert counts == {"built": kept, "checked": kept}


def test_check_world_rejects_mismatched_declarations(asylum, solution_world):
    other = World(("Zed",), (TYPES_BY_LABEL["ST"],))
    with pytest.raises(SemanticError):
        check_world(asylum, other)
    no_fluents = World(asylum.person_names, solution_world.types)
    with pytest.raises(SemanticError,
                       match="^world fluents do not match the puzzle$"):
        check_world(asylum, no_fluents)


def test_check_world_on_an_unvalidated_spec_keeps_its_errors():
    # A spec built in code skips validate(); check_world still raises the
    # compiler's error for a bad atom, even where the tree walker
    # short-circuits past the atom.
    world = World(("Ann",), (TYPES_BY_LABEL["ST"],))
    for text, message in (("doctor(Zed)", "unknown person 'Zed'"),
                          ("guilty(Ann)", "undeclared predicate 'guilty'"),
                          ("doctor(Ann) or doctor(Zed)",
                           "unknown person 'Zed'")):
        axiom = parse_statement(text)
        spec = PuzzleSpec(("Ann",), (), (axiom,), ())
        with pytest.raises(SemanticError, match=f"^{message}$"):
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
                       match="^'bogus' not in domain of 'guilt'$"):
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
    worlds = list(enumerate_worlds(parse_puzzle_file(THREADED)))

    def replay(puzzle):
        solved = solve_all(puzzle)
        return ([check_world(puzzle, world) for world in worlds],
                solved.worlds, solved.statistics.nodes)

    expected = replay(parse_puzzle_file(THREADED))
    assert expected[1] and len(expected[1]) < len(worlds)
    shared = parse_puzzle_file(THREADED)
    got = [None, None]

    def run(i):
        got[i] = replay(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected, expected]


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
    # Some fluent check reads each person's type, so no two of the 512
    # combinations share a search.
    assert solver._Analysis(asylum).subtrees is None
    assert solve_all(asylum).statistics.fluent_searches == 512


def _count_check_runs(monkeypatch) -> dict:
    """Runs of each check compiled from now on, by speaker (None for an
    axiom)."""
    calls = {}
    compile_statement = statements.compile_statement

    def counting(stmt, speaker, *args):
        check, reads, typed = compile_statement(stmt, speaker, *args)

        def counted(types, values):
            calls[speaker] = calls.get(speaker, 0) + 1
            return check(types, values)
        return counted, reads, typed

    monkeypatch.setattr(statements, "compile_statement", counting)
    return calls


def test_fixture_check_runs_are_pinned(monkeypatch, asylum_text):
    # The node pin holds how strongly the checks prune, this one how often
    # they run: a fluent check that is watched before the first slot at
    # which it can be False runs more, and prunes no more.
    calls = _count_check_runs(monkeypatch)
    statistics = solve_all(parse_puzzle_file(asylum_text)).statistics
    assert statistics.nodes == 3798
    assert sum(calls.values()) == 6195


# Digest of repr([(nodes, status, [sort_key of each world]), ...]) over
# the generated puzzles below; any change to what the solver computes or
# how many nodes it visits moves it.
GENERATED_SOLVES_SHA256 = (
    "1027aafb2dfa97ee46da33356d4ab65484a492f028b34f5dc5054db6019b6f3f")


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
    assert sum(nodes for nodes, _, _ in runs) == 269_342
    assert sum(len(keys) for _, _, keys in runs) == 77_437
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()
    assert digest == GENERATED_SOLVES_SHA256


def test_quantified_fluent_axiom_without_persons_is_checked():
    # No persons means no fluent variables, so nothing watches the axiom;
    # it must still be checked, and an empty domain makes it false.
    puzzle = parse_puzzle_file(
        "persons:\nfluent f : bool\naxiom exists x . f(x)\n")
    assert brute_force_solve(puzzle) == ()
    result = solve_all(puzzle)
    assert result.status is SolveStatus.NONE
    assert result.worlds == ()


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


def test_a_nan_budget_is_rejected():
    # No count or time exceeds NaN, so it would switch the limit off.
    for limits in ({"max_seconds": float("nan")}, {"max_nodes": float("nan")}):
        with pytest.raises(ValueError, match="must be a number, not nan"):
            Budget(**limits)


FOUR_PERSONS = "persons: Ann, Beth, Cedric, David\n"


def test_fluent_free_check_runs_once_its_last_type_is_set(monkeypatch):
    # Beth's utterance reads only Ann's and Beth's types, so it is decided
    # once per pair of their types, not once per type combination.
    calls = _count_check_runs(monkeypatch)
    puzzle = parse_puzzle_file(
        FOUR_PERSONS + "round statements:\n  Beth: doctor(Ann) or liar(me)\n")
    result = solve_all(puzzle)
    assert 0 < calls["Beth"] <= 256
    assert result.statistics.nodes == 65_536
    assert result.worlds == brute_force_solve(puzzle)


def test_fluent_search_runs_once_per_type_of_its_key_persons(monkeypatch):
    # Only Ann's step runs in the fluent search, so the 4,096 type
    # combinations share 16 searches, one per type of Ann; the others
    # reuse the rows they found and count their nodes again.
    calls = _count_check_runs(monkeypatch)
    puzzle = parse_puzzle_file("persons: Ann, Beth, Cedric\nfluent f : bool\n"
                               "round statements:\n  Ann: f(Beth)\n")
    result = solve_all(puzzle)
    assert calls["Ann"] == 64
    assert result.statistics.nodes == 45_056
    assert result.statistics.fluent_searches == 16
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

    init = solver._Analysis.__init__

    def forgetting(self, puzzle):
        init(self, puzzle)
        if self.subtrees is not None:
            self.subtrees = Forgetful()

    with monkeypatch.context() as patched:
        patched.setattr(solver._Analysis, "__init__", forgetting)
        return solve_all(puzzle, budget), len(offered)


def test_reused_subtrees_are_what_a_search_would_find(monkeypatch):
    # A person who never speaks keeps all 16 types, and no check reads
    # them unless a quantifier does, so most puzzles with a fluent reuse
    # subtrees.
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
        puzzle = PuzzleSpec(puzzle.person_names + ("Zed",),
                            puzzle.fluent_decls, puzzle.axioms, puzzle.rounds)
        budget = Budget(max_nodes=10_000)
        try:
            reused = solve_all(puzzle, budget)
        except BudgetExceededError:
            assume(False)
        searched, offered = _solve_searching_every_combination(
            monkeypatch, puzzle, budget)
        assert reused.worlds == searched.worlds
        assert reused.statistics.nodes == searched.statistics.nodes
        runs.append((offered, reused.statistics.fluent_searches,
                     searched.statistics.fluent_searches))

    reuse_is_exact()
    assert any(offered for offered, _, _ in runs)
    assert any(reused < searched for _, reused, searched in runs)


@given(strategies.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_no_check_is_false_before_its_watch_starts(seed):
    # The read-once law the watch lists rest on: on any types, a row that
    # sets only slots before the first slot at which a check can be False
    # never makes it False, so a run the search skips could not prune.  Probed
    # puzzles bring 4-5 persons, `atleast`, categorical fluents and
    # belief rounds.
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
    # An axiom is False from its False slot, and an utterance, which fails
    # once its body is definite and disagrees, from the earlier of both.
    starts = [decided_from(axiom, None, names, decls)[1]
              for axiom in puzzle.axioms]
    starts += [min(decided_from(step.body, step.person, names, decls))
               for step in puzzle.transcript]
    watchers = solver._Analysis(puzzle).watchers
    for (check, reads, _), start in zip(axioms + steps, starts):
        # From -1 a check may be False once types are set, before any slot.
        for _ in range(16 if start >= 0 else 0):
            types = [rng.choice(ALL_TYPES) for _ in names]
            values = [[UNKNOWN] * len(names) for _ in decls]
            for v, (f, p) in enumerate(slots):
                if v < start and rng.random() < 0.8:
                    values[f][p] = rng.choice(decls[f].values())
            assert check(types, values) is not False
        # One that can be False still runs once all it reads is set.
        if reads and start < math.inf:
            last = max(f * len(names) + p for f, p in reads)
            assert check in watchers[last]


def test_a_prefix_ruled_out_still_counts_its_combinations():
    puzzle = parse_puzzle_file(
        FOUR_PERSONS + "axiom doctor(Ann) and not doctor(Ann)\n")
    result = solve_all(puzzle)
    assert result.status is SolveStatus.NONE
    assert result.statistics.nodes == 65_536
    with pytest.raises(BudgetExceededError):
        solve_all(puzzle, budget=Budget(max_nodes=100))


def test_worlds_are_canonically_ordered():
    puzzle = parse_puzzle_file("persons: Ann\nfluent f : bool\n")
    result = solve_all(puzzle)
    keys = [w.sort_key() for w in result.worlds]
    assert keys == sorted(keys)
    assert len(result.worlds) == 32


def test_explain_requires_consistent_world(asylum, ann_sl_world):
    with pytest.raises(SemanticError):
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
