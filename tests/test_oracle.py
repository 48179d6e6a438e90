"""Staged solver versus the brute-force oracle, and metamorphic laws, on
random puzzles."""

import dataclasses
import itertools
import random
from collections import Counter

from bedlam.puzzle import QuestionRound, StatementsRound
from bedlam.semantics import AgentState, Answer, would_assert
from bedlam.solver import SolveStatus, brute_force_solve, check_world, solve_all
from bedlam.statements import Believes, Not
from bedlam.worlds import World
from support import (random_categorical_puzzle, random_categorical_statement,
                     random_categorical_trio, random_probed_puzzle,
                     random_puzzle)


def test_solver_matches_oracle_on_mixed_sizes():
    rng = random.Random(0xA51)
    satisfiable = 0
    for _ in range(40):
        puzzle = random_puzzle(rng)
        expected = brute_force_solve(puzzle)
        result = solve_all(puzzle)
        assert result.worlds == expected
        assert result.statistics.worlds_found == len(expected)
        if expected:
            satisfiable += 1
    # The generator seeds over half the puzzles from a hidden world.
    assert satisfiable >= 12


def test_hidden_world_is_always_found():
    rng = random.Random(77)
    checked = 0
    attempts = 0
    while checked < 15 and attempts < 60:
        attempts += 1
        seed = rng.randrange(2**31)
        sub = random.Random(seed)
        puzzle = random_puzzle(sub)
        result = solve_all(puzzle)
        expected = brute_force_solve(puzzle)
        assert result.worlds == expected
        if expected:
            checked += 1
            assert result.status in (SolveStatus.UNIQUE, SolveStatus.MULTIPLE)
    assert checked == 15


def test_solver_matches_oracle_on_categorical_fluents():
    # Two persons, a three-valued fluent and at most one boolean: quantified
    # fluent atoms are watched by every person's variable, and fluent-free
    # statements about both persons are checked per type combination.
    rng = random.Random(0xCA7)
    satisfiable = 0
    for i in range(24):
        puzzle = random_categorical_puzzle(rng, hidden=i % 2 == 0)
        expected = brute_force_solve(puzzle)
        assert solve_all(puzzle).worlds == expected
        if expected:
            satisfiable += 1
    assert satisfiable >= 12


def test_solver_matches_oracle_on_three_persons_with_a_categorical_fluent():
    # 16**3 type combinations times 3**3 fluent rows: the widest space the
    # oracle enumerates here, with quantifiers over three persons.
    rng = random.Random(0x3CA7)
    for i in range(5):
        puzzle = random_categorical_trio(rng, hidden=i % 2 == 0)
        expected = brute_force_solve(puzzle)
        assert solve_all(puzzle).worlds == expected
        if i % 2 == 0:
            assert expected


def test_solver_matches_a_restricted_oracle_on_wider_puzzles():
    # Four or five persons have too many worlds to enumerate, so the oracle
    # fixes the hidden world's types and enumerates only the fluent rows.
    rng = random.Random(0x45)
    for _ in range(40):
        puzzle, hidden = random_probed_puzzle(rng)
        n = len(puzzle.person_names)
        rows = itertools.product(*(itertools.product(decl.values(), repeat=n)
                                   for decl in puzzle.fluent_decls))
        expected = [row for row in rows if check_world(puzzle, World(
            puzzle.person_names, hidden.types, puzzle.fluent_decls, row))]
        found = [world.fluent_values for world in solve_all(puzzle).worlds
                 if world.types == hidden.types]
        assert found == expected
        assert hidden.fluent_values in found


def _metamorphic_puzzles(rng):
    """Small random puzzles, then wider probed ones."""
    return ([random_puzzle(rng) for _ in range(12)]
            + [random_probed_puzzle(rng)[0] for _ in range(40)])


def test_reordering_persons_maps_the_world_set():
    # A new person order moves the last type each check reads, so the
    # search prunes other prefixes; the worlds must be the same worlds.
    rng = random.Random(0x0DE5)
    for puzzle in _metamorphic_puzzles(rng):
        order = list(range(len(puzzle.person_names)))
        rng.shuffle(order)
        reordered = dataclasses.replace(
            puzzle, person_names=tuple(puzzle.person_names[i] for i in order))
        reordered.validate()
        result, moved = solve_all(puzzle), solve_all(reordered)
        assert moved.status is result.status
        assert len(moved.worlds) == len(result.worlds)
        assert {(world.types, world.fluent_values)
                for world in moved.worlds} == {
            (tuple(world.types[i] for i in order),
             tuple(tuple(row[i] for i in order)
                   for row in world.fluent_values))
            for world in result.worlds}


def test_a_duplicated_axiom_changes_nothing():
    rng = random.Random(0xD0B1)
    duplicated = 0
    for puzzle in _metamorphic_puzzles(rng):
        if not puzzle.axioms:
            continue
        twice = dataclasses.replace(
            puzzle, axioms=puzzle.axioms + (rng.choice(puzzle.axioms),))
        result, again = solve_all(puzzle), solve_all(twice)
        assert again.worlds == result.worlds
        assert again.status is result.status
        assert again.statistics.nodes == result.statistics.nodes
        duplicated += 1
    assert duplicated >= 15


def test_the_hidden_world_survives_any_utterance_it_would_make():
    # A new round that the hidden world replays can rule worlds out, but
    # never the hidden world.
    rng = random.Random(0x5A1D)
    shrunk = 0
    for _ in range(40):
        puzzle, hidden = random_probed_puzzle(rng)
        persons = puzzle.person_names
        made = Counter(step.person for step in puzzle.transcript)
        stmt = random_categorical_statement(rng, 2, persons,
                                            puzzle.fluent_decls)
        if rng.random() < 0.3:
            stmt = Believes(stmt)

        def says(person):
            state = AgentState(hidden.type_of(person), made[person])
            return would_assert(state, hidden, stmt, person)

        if rng.random() < 0.5:
            addressed = (tuple(p for p in persons if rng.random() < 0.5)
                         or (rng.choice(persons),))
            new_round = QuestionRound(
                "probe", stmt, addressed,
                tuple(Answer.YES if says(p) else Answer.NO
                      for p in addressed))
        else:
            speaker = rng.choice(persons)
            if not says(speaker):
                stmt = (Believes(Not(stmt.body))
                        if isinstance(stmt, Believes) else Not(stmt))
            new_round = StatementsRound(((speaker, stmt),))
        extended = dataclasses.replace(puzzle,
                                       rounds=puzzle.rounds + (new_round,))
        extended.validate()
        before, after = solve_all(puzzle).worlds, solve_all(extended).worlds
        assert hidden in after
        assert set(after) <= set(before)
        shrunk += len(after) < len(before)
    assert shrunk >= 20
