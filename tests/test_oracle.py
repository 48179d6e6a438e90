"""Staged solver versus the brute-force oracle, and metamorphic laws, on
random puzzles."""

import dataclasses
import itertools
import random
from collections import Counter

from bedlam.parser import parse_puzzle_file, parse_statement
from bedlam.puzzle import PuzzleSpec, QuestionRound, StatementsRound
from bedlam.semantics import ALL_TYPES, AgentState, Answer, would_assert
from bedlam.solver import (Budget, CheckResult, SolveStatus,
                           brute_force_solve, check_world, enumerate_worlds,
                           solve_all)
from bedlam.statements import (And, AtLeast, Atom, Believes, Exists, ForAll,
                               Implies, Not, Or, Person, Statement,
                               eval_closed, render_statement)
from bedlam.worlds import FluentDecl, World
from support import (WIDE_NAME_POOL, random_categorical_puzzle,
                     random_categorical_statement, random_categorical_trio,
                     random_nonlocal_puzzle, random_probed_puzzle,
                     random_puzzle, random_statement, random_world)


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


def test_oracle_is_the_check_world_filter_over_the_space():
    # The oracle checks rows before it builds worlds; what it returns must
    # still be its definition, in the same order.
    rng = random.Random(184)
    puzzles = ([random_puzzle(rng) for _ in range(40)]
               + [random_categorical_trio(rng, hidden=True)
                  for _ in range(2)])
    kept = Counter()
    for puzzle in puzzles:
        expected = tuple(world for world in enumerate_worlds(puzzle)
                         if check_world(puzzle, world))
        assert brute_force_solve(puzzle) == expected
        kept[bool(expected)] += 1
    assert kept[True] and kept[False]
    # The trios bring three persons and a categorical fluent; the random
    # puzzles bring these.
    labels = " ".join(step.label for puzzle in puzzles
                      for step in puzzle.transcript)
    assert "atleast" in labels
    assert any(step.is_belief for puzzle in puzzles
               for step in puzzle.transcript)


def test_oracle_is_the_check_world_filter_at_each_loop_levels_edges():
    # A check that reads no type filters the fluent assignments before
    # the type loop, and one that reads no fluent slot runs once per type
    # combination: each edge where a level keeps nothing, or has a single
    # empty row, must still give the filter's worlds.
    head = "persons: Ann, Beth\nfluent f : bool\n"
    nobody = PuzzleSpec((), (FluentDecl("f"),),
                        (parse_statement("atleast 0 x . f(x)"),), ())
    cases = (
        # A type-free axiom rules out every assignment.
        (parse_puzzle_file(head + "axiom f(Ann) and not f(Ann)\n"), 0),
        # Fluent-free checks rule out every type combination: the axiom
        # keeps Ann's sane truth-teller, and her step rules that out.
        (parse_puzzle_file(head + "axiom truthteller(Ann) and doctor(Ann)\n"
                           "round statements:\n  Ann: patient(me)\n"), 0),
        # No fluent: one empty assignment per type combination.
        (parse_puzzle_file("persons: Ann, Beth\n"
                           "round statements:\n  Ann: doctor(Beth)\n"), 128),
        # No person: one empty type combination, one assignment.
        (nobody, 1))
    for puzzle, kept in cases:
        expected = tuple(world for world in enumerate_worlds(puzzle)
                         if check_world(puzzle, world))
        assert len(expected) == kept
        assert brute_force_solve(puzzle) == expected


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


def test_solver_matches_oracle_on_four_fluent_free_persons():
    # 16**4 type combinations, each one world, with quantifiers over four
    # persons.  Every utterance reads another person's type, so checks
    # that read two to four persons' types, each decided once per
    # combination of the type classes it reads, make the whole search.
    rng = random.Random(0x4FF)
    for _ in range(10):
        puzzle = random_nonlocal_puzzle(rng, WIDE_NAME_POOL[:4],
                                        fluent_free=True)
        expected = brute_force_solve(puzzle)
        assert expected  # the hidden world
        assert solve_all(puzzle).worlds == expected


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


def _walked_check(puzzle, world):
    """`check_world`'s result, replayed with the reference `eval_closed`."""
    for i, axiom in enumerate(puzzle.axioms):
        if not eval_closed(world, axiom):
            return CheckResult(False, None, None, f"axiom {i + 1} is "
                               f"violated: {render_statement(axiom)}")
    for step in puzzle.transcript:
        type_ = world.types[step.person_index]
        if eval_closed(world, step.body, step.person) == step.required(type_):
            continue
        if step.answer is None:
            message = (f"round {step.round_index}: {step.person} "
                       f"({type_.label}) would not say: {step.label}")
        else:
            would = "no" if step.answer is Answer.YES else "yes"
            message = (f"round {step.round_index}: {step.person} answered "
                       f"{step.answer.value} to \"{step.label}\" but a "
                       f"{type_.label} in this world would answer {would}")
        return CheckResult(False, step.round_index, step.person, message)
    return CheckResult(True, None, None, "consistent")


def _one_cell_mutations(world):
    """Every world that differs from `world` in one type or fluent cell."""
    for p in range(len(world.person_names)):
        for t in ALL_TYPES:
            if t != world.types[p]:
                types = world.types[:p] + (t,) + world.types[p + 1:]
                yield dataclasses.replace(world, types=types)
        for f, decl in enumerate(world.fluent_decls):
            row = world.fluent_values[f]
            for value in decl.values():
                if value != row[p]:
                    rows = list(world.fluent_values)
                    rows[f] = row[:p] + (value,) + row[p + 1:]
                    yield dataclasses.replace(world, fluent_values=tuple(rows))


def test_check_world_is_the_tree_walkers_replay(asylum, solution_world,
                                                ann_sl_world):
    # check_world runs compiled checks; its whole result, message
    # included, must be the replay that walks each statement's tree.
    rng = random.Random(0xC4EC)
    cases = []
    for i in range(30):
        puzzle = (random_puzzle(rng) if i % 2
                  else random_categorical_trio(rng, hidden=i % 4 == 0))
        worlds = [random_world(rng, puzzle.person_names, puzzle.fluent_decls)
                  for _ in range(20)]
        cases.append((puzzle, worlds + list(solve_all(puzzle).worlds[:20])))
    for _ in range(8):
        puzzle, hidden = random_probed_puzzle(rng)
        cases.append((puzzle, [hidden, *_one_cell_mutations(hidden)]))
    for world in (solution_world, ann_sl_world):
        cases.append((asylum, [world, *_one_cell_mutations(world)]))
    outcomes = Counter()
    for puzzle, worlds in cases:
        for world in worlds:
            expected = _walked_check(puzzle, world)
            assert check_world(puzzle, world) == expected
            outcomes[expected.ok, expected.round_index is None] += 1
    # Consistent worlds, axiom violations and round violations all occur.
    assert min(outcomes.values()) >= 100 and len(outcomes) == 3


# The metamorphic relations below on generated puzzles alone solve with
# this budget: ten times the most nodes any of their solves takes
# (455,680, for a 3-person puzzle of the duplicated-axiom relation with
# 229,376 worlds).  A fault that weakens the search's pruning then ends
# in a budget error instead of running on for minutes.
BUDGET = Budget(max_nodes=4_556_800)
# The relations that include the asylum solve with a budget ten times the
# most nodes any of their asylum solves takes (5,211, the asylum with its
# fluent declarations reordered; the unchanged asylum takes 3,798).  Their
# generated puzzles take at most 15,430, so a pruning fault fails on the
# asylum within a second rather than after half a minute.
ASYLUM_BUDGET = Budget(max_nodes=52_110)


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
        result = solve_all(puzzle, BUDGET)
        moved = solve_all(reordered, BUDGET)
        assert moved.status is result.status
        assert len(moved.worlds) == len(result.worlds)
        assert {(world.types, world.fluent_values)
                for world in moved.worlds} == {
            (tuple(world.types[i] for i in order),
             tuple(tuple(row[i] for i in order)
                   for row in world.fluent_values))
            for world in result.worlds}


def _rewritten(node, rule):
    """The statement rebuilt bottom-up, with `rule` applied to each node
    but a `believes`."""
    if not isinstance(node, Atom):
        changes = {}
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, Statement):
                changes[field.name] = _rewritten(value, rule)
            elif isinstance(value, tuple):
                changes[field.name] = tuple(_rewritten(item, rule)
                                            for item in value)
        node = dataclasses.replace(node, **changes)
    return node if isinstance(node, Believes) else rule(node)


def _renamed(node, names: dict):
    """The statement with each named person renamed by `names`."""
    def rename(node):
        if isinstance(node, Atom) and isinstance(node.term, Person):
            return Atom(node.predicate, Person(names[node.term.name]),
                        node.value)
        return node
    return _rewritten(node, rename)


def test_renaming_persons_maps_the_world_set():
    # New names, some of them swapped with old ones, change no index, so
    # the same rows are found in as many nodes.
    rng = random.Random(0x4A3E)
    for puzzle in _metamorphic_puzzles(rng):
        persons = puzzle.person_names
        pool = persons + ("Zoe", "Yann", "Xia", "Walt", "Vera")
        names = dict(zip(persons, rng.sample(pool, len(persons))))
        rounds = []
        for rnd in puzzle.rounds:
            if isinstance(rnd, QuestionRound):
                rounds.append(dataclasses.replace(
                    rnd, statement=_renamed(rnd.statement, names),
                    addressed=tuple(names[p] for p in rnd.addressed)))
            else:
                rounds.append(StatementsRound(tuple(
                    (names[p], _renamed(stmt, names))
                    for p, stmt in rnd.utterances)))
        renamed = dataclasses.replace(
            puzzle, person_names=tuple(names[p] for p in persons),
            axioms=tuple(_renamed(axiom, names) for axiom in puzzle.axioms),
            rounds=tuple(rounds))
        renamed.validate()
        result = solve_all(puzzle, BUDGET)
        moved = solve_all(renamed, BUDGET)
        assert moved.status is result.status
        assert moved.statistics.nodes == result.statistics.nodes
        assert [(world.types, world.fluent_values)
                for world in moved.worlds] == [
            (world.types, world.fluent_values) for world in result.worlds]
        assert all(world.person_names == renamed.person_names
                   for world in moved.worlds)


def test_a_duplicated_axiom_changes_nothing():
    rng = random.Random(0xD0B1)
    duplicated = 0
    for puzzle in _metamorphic_puzzles(rng):
        if not puzzle.axioms:
            continue
        twice = dataclasses.replace(
            puzzle, axioms=puzzle.axioms + (rng.choice(puzzle.axioms),))
        result = solve_all(puzzle, BUDGET)
        again = solve_all(twice, BUDGET)
        assert again.worlds == result.worlds
        assert again.status is result.status
        assert again.statistics.nodes == result.statistics.nodes
        duplicated += 1
    assert duplicated >= 15


CLASS_PREDICATES = ("sane", "delusional", "partial",
                    "truthteller", "liar", "alternator")


def _with_axiom(puzzle, axiom):
    return dataclasses.replace(puzzle, axioms=puzzle.axioms + (axiom,))


def test_a_one_person_type_axiom_keeps_the_worlds_it_holds_in(
        asylum, solution_world):
    # An axiom on one person's type class prunes that person's candidates
    # before the search; it must keep exactly the worlds it holds in.
    for person in asylum.person_names:
        for predicate in CLASS_PREDICATES:
            fact = Atom(predicate, Person(person))
            if not eval_closed(solution_world, fact):
                fact = Not(fact)
            result = solve_all(_with_axiom(asylum, fact), ASYLUM_BUDGET)
            assert result.worlds == (solution_world,)
            result = solve_all(_with_axiom(asylum, Not(fact)), ASYLUM_BUDGET)
            assert result.status is SolveStatus.NONE
    # The probed puzzles pin each person's type class, so there a fact
    # keeps every world or none; the small random ones keep some.
    rng = random.Random(0x1A0E)
    kept = Counter()
    for puzzle in _metamorphic_puzzles(rng):
        fact = Atom(rng.choice(CLASS_PREDICATES),
                    Person(rng.choice(puzzle.person_names)))
        if rng.random() < 0.5:
            fact = Not(fact)
        before = solve_all(puzzle, BUDGET).worlds
        after = solve_all(_with_axiom(puzzle, fact), BUDGET).worlds
        assert after == tuple(world for world in before
                              if eval_closed(world, fact))
        kept["all" if after == before else "some" if after else "none"] += 1
    assert kept["none"] >= 10 and kept["some"] >= 5 and kept["all"] >= 10


def test_an_added_axiom_keeps_the_worlds_it_holds_in():
    # A random closed axiom reads fluents and the types of several
    # persons, so the search files it as a watched or prefix check, not a
    # candidate filter; it must keep exactly the worlds it holds in.
    rng = random.Random(0xADD)
    kept = Counter()
    for puzzle in _metamorphic_puzzles(rng):
        axiom = random_statement(
            rng, depth=3, persons=puzzle.person_names,
            fluents=[d.name for d in puzzle.fluent_decls if d.is_boolean],
            allow_me=False)
        before = solve_all(puzzle, BUDGET).worlds
        after = solve_all(_with_axiom(puzzle, axiom), BUDGET).worlds
        assert after == tuple(world for world in before
                              if eval_closed(world, axiom))
        kept["all" if after == before else "some" if after else "none"] += 1
    assert kept["none"] >= 10 and kept["some"] >= 10 and kept["all"] >= 10


def test_a_fluent_cell_axiom_keeps_the_worlds_it_holds_in(
        asylum, solution_world):
    # An axiom on one person's value of one fluent is a watched fluent
    # check; stated as the solution has it, it keeps the asylum's one
    # world, and negated it leaves none.
    for decl in asylum.fluent_decls:
        for person in asylum.person_names:
            value = solution_world.fluent_value(decl.name, person)
            if decl.is_boolean:
                fact = Atom(decl.name, Person(person))
                if not value:
                    fact = Not(fact)
            else:
                fact = Atom(decl.name, Person(person), value)
            result = solve_all(_with_axiom(asylum, fact), ASYLUM_BUDGET)
            assert result.worlds == (solution_world,)
            result = solve_all(_with_axiom(asylum, Not(fact)), ASYLUM_BUDGET)
            assert result.status is SolveStatus.NONE


def _every_statement(puzzle, rewrite):
    """The spec with `rewrite` applied to each axiom and uttered statement."""
    rounds = tuple(
        dataclasses.replace(rnd, statement=rewrite(rnd.statement))
        if isinstance(rnd, QuestionRound) else
        StatementsRound(tuple((p, rewrite(stmt))
                              for p, stmt in rnd.utterances))
        for rnd in puzzle.rounds)
    return dataclasses.replace(
        puzzle, axioms=tuple(map(rewrite, puzzle.axioms)), rounds=rounds)


# Rewrites exact in Kleene logic: each leaves every statement's value, on
# every partial world, as it was.
KLEENE_RULES = {
    "double negation": lambda node: (
        Not(Not(node)) if isinstance(node, Atom) else node),
    "De Morgan": lambda node: (
        Not(Or(tuple(map(Not, node.items)))) if isinstance(node, And) else
        Not(And(tuple(map(Not, node.items)))) if isinstance(node, Or)
        else node),
    "implies as or": lambda node: (
        Or((Not(node.left), node.right)) if isinstance(node, Implies)
        else node),
    "forall as not exists not": lambda node: (
        Not(Exists(node.var, Not(node.body))) if isinstance(node, ForAll)
        else node),
    "exists as atleast 1": lambda node: (
        AtLeast(1, node.var, node.body) if isinstance(node, Exists)
        else node),
}


def test_a_kleene_exact_rewrite_keeps_the_worlds(asylum):
    # Compare worlds only: the search over a rewritten check may take
    # other nodes.
    rng = random.Random(0x3E1A)
    puzzles = [asylum] + [random_probed_puzzle(rng)[0] for _ in range(6)]
    expected = [solve_all(puzzle, ASYLUM_BUDGET).worlds for puzzle in puzzles]
    for name, rule in KLEENE_RULES.items():
        changed = 0
        for puzzle, worlds in zip(puzzles, expected):
            rewritten = _every_statement(
                puzzle, lambda stmt: _rewritten(stmt, rule))
            changed += rewritten != puzzle
            assert solve_all(rewritten, ASYLUM_BUDGET).worlds == worlds, name
        assert changed >= 2, name


def test_splitting_statements_rounds_keeps_the_worlds(asylum):
    # Ordinals count per speaker, not per round, so where a statements
    # round ends changes no step's phase.
    rng = random.Random(0x5B11)
    puzzles = [asylum] + [random_probed_puzzle(rng)[0] for _ in range(6)]
    split = 0
    for puzzle in puzzles:
        rounds = []
        for rnd in puzzle.rounds:
            said = getattr(rnd, "utterances", ())
            if len(said) < 2:
                rounds.append(rnd)
                continue
            k = rng.randint(1, len(said) - 1)
            rounds += [StatementsRound(said[:k]), StatementsRound(said[k:])]
        if len(rounds) > len(puzzle.rounds):
            split += 1
        moved = dataclasses.replace(puzzle, rounds=tuple(rounds))
        assert (solve_all(moved, ASYLUM_BUDGET).worlds
                == solve_all(puzzle, ASYLUM_BUDGET).worlds)
    assert split >= 4


def _keyed_worlds(worlds) -> set:
    """Each world as person -> (type label, fluent -> value): what no
    declaration or domain order changes, unlike `World.sort_key`."""
    return {frozenset(
        (person, world.type_of(person).label, frozenset(
            (decl.name, row[p])
            for decl, row in zip(world.fluent_decls, world.fluent_values)))
        for p, person in enumerate(world.person_names))
        for world in worlds}


def _declaration_puzzles(asylum, rng):
    return ([asylum] + [random_probed_puzzle(rng)[0] for _ in range(6)]
            + [random_categorical_puzzle(rng, hidden=i % 2 == 0)
               for i in range(6)])


def _solved_alike(puzzle, moved) -> None:
    result = solve_all(puzzle, ASYLUM_BUDGET)
    moved_result = solve_all(moved, ASYLUM_BUDGET)
    assert moved_result.status is result.status
    assert len(moved_result.worlds) == len(result.worlds)
    assert _keyed_worlds(moved_result.worlds) == _keyed_worlds(result.worlds)


def test_reordering_a_categorical_domain_keeps_the_worlds(asylum):
    # The asylum's extraction section matches guilt's values as a set, so
    # it needs no edit.
    rng = random.Random(0xD0A1)
    reordered = 0
    for puzzle in _declaration_puzzles(asylum, rng):
        decls = []
        for decl in puzzle.fluent_decls:
            domain = list(decl.values())
            while not decl.is_boolean and tuple(domain) == decl.domain:
                rng.shuffle(domain)
            decls.append(dataclasses.replace(
                decl, domain=None if decl.is_boolean else tuple(domain)))
        moved = dataclasses.replace(puzzle, fluent_decls=tuple(decls))
        reordered += moved != puzzle
        moved.validate()
        _solved_alike(puzzle, moved)
    assert reordered >= 8


def test_reordering_the_fluent_declarations_keeps_the_worlds(asylum):
    rng = random.Random(0xDEC1)
    reordered = 0
    for puzzle in _declaration_puzzles(asylum, rng):
        decls = list(puzzle.fluent_decls)
        while len(decls) > 1 and tuple(decls) == puzzle.fluent_decls:
            rng.shuffle(decls)
        moved = dataclasses.replace(puzzle, fluent_decls=tuple(decls))
        reordered += moved != puzzle
        moved.validate()
        _solved_alike(puzzle, moved)
    assert reordered >= 8


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
        before = solve_all(puzzle, BUDGET).worlds
        after = solve_all(extended, BUDGET).worlds
        assert hidden in after
        assert set(after) <= set(before)
        shrunk += len(after) < len(before)
    assert shrunk >= 20
