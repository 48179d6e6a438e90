"""Staged solver versus the brute-force oracle on random puzzles."""

import random

from bedlam.solver import SolveStatus, brute_force_solve, solve_all
from support import random_categorical_puzzle, random_puzzle


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
