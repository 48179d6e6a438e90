"""Seeded puzzle generators and a puzzle-file renderer owned by the benchmark.

The benchmark keeps its own copy of the generators so that changes to the
test helpers cannot shift a workload.  `corpus_puzzle` draws from the same
distribution as the differential tests' random puzzles; `noprobe_puzzle`
draws hidden-world puzzles in which no utterance is type-local, so every
person keeps all 16 types.
"""

from __future__ import annotations

import random

from bedlam.puzzle import PuzzleSpec, QuestionRound, StatementsRound
from bedlam.semantics import ALL_TYPES, AgentState, Answer, would_assert
from bedlam.statements import (And, AtLeast, Atom, Believes, Exists, ForAll,
                               Implies, ME, Not, Or, Person, Statement, Var,
                               eval_closed, is_type_local, render_statement)
from bedlam.worlds import FluentDecl, World

NAME_POOL = ("Ann", "Beth", "Cedric", "David")
FLUENT_POOL = ("shifty", "hungry")
BUILTINS = ("patient", "doctor", "sane", "delusional", "partial",
            "truthteller", "liar", "alternator")
VAR_NAMES = ("x", "y", "z")

# Shape weights of the differential tests' generator: persons are drawn
# from (1, 1, 2, 2, 2, 3, 3) and fluents from (0, 1, 1, 2).
PERSON_WEIGHTS = {1: 2, 2: 3, 3: 2}
FLUENT_WEIGHTS = {0: 1, 1: 2, 2: 1}


def random_statement(rng: random.Random, depth: int, persons, fluents,
                     allow_me: bool = True) -> Statement:
    """A random believes-free closed statement over the given declarations."""
    bound: list[str] = []

    def atom() -> Statement:
        terms = [Person(rng.choice(persons))] if persons else []
        if allow_me:
            terms.append(ME)
        if bound:
            terms.append(Var(rng.choice(bound)))
        term = rng.choice(terms)
        if fluents and rng.random() < 0.5:
            return Atom(rng.choice(fluents), term)
        return Atom(rng.choice(BUILTINS), term)

    def node(d: int) -> Statement:
        if d <= 0 or rng.random() < 0.3:
            return atom()
        kind = rng.randrange(7)
        if kind == 0:
            return Not(node(d - 1))
        if kind == 1:
            return And(tuple(node(d - 1) for _ in range(rng.randint(2, 3))))
        if kind == 2:
            return Or(tuple(node(d - 1) for _ in range(rng.randint(2, 3))))
        if kind == 3:
            return Implies(node(d - 1), node(d - 1))
        var = rng.choice([v for v in VAR_NAMES if v not in bound] or VAR_NAMES)
        bound.append(var)
        body = node(d - 1)
        bound.pop()
        if kind == 4:
            return Exists(var, body)
        if kind == 5:
            return ForAll(var, body)
        return AtLeast(rng.randint(0, len(persons) + 1), var, body)

    return node(depth)


def random_utterance(rng: random.Random, depth: int, persons,
                     fluents) -> Statement:
    stmt = random_statement(rng, depth, persons, fluents)
    if rng.random() < 0.4:
        return Believes(stmt)
    return stmt


def random_world(rng: random.Random, persons, decls) -> World:
    types = tuple(rng.choice(ALL_TYPES) for _ in persons)
    values = tuple(
        tuple(rng.choice(decl.values()) for _ in persons) for decl in decls)
    return World(tuple(persons), types, tuple(decls), values)


def corpus_puzzle(rng: random.Random, n_persons: int,
                  n_fluents: int) -> PuzzleSpec:
    """A small random puzzle of the given shape; ~60% from a hidden world.

    Hidden-world puzzles replay a real population's behaviour, so they have
    at least one consistent world; the rest record arbitrary answers and
    are often unsatisfiable.
    """
    persons = NAME_POOL[:n_persons]
    decls = tuple(FluentDecl(name) for name in FLUENT_POOL[:n_fluents])
    fluents = [d.name for d in decls]
    hidden = random_world(rng, persons, decls) if rng.random() < 0.6 else None
    counts = {p: 0 for p in persons}

    def statement_for(speaker: str) -> Statement:
        stmt = random_utterance(rng, 2, persons, fluents)
        if hidden is None:
            return stmt
        return _flip_to_assertable(stmt, hidden, speaker, counts[speaker])

    axioms = []
    for _ in range(rng.randint(0, 2)):
        axiom = random_statement(rng, 2, persons, fluents, allow_me=False)
        if hidden is not None and not eval_closed(hidden, axiom):
            axiom = Not(axiom)
        axioms.append(axiom)

    rounds = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            question = random_utterance(rng, 1, persons, fluents)
            addressed = tuple(p for p in persons if rng.random() < 0.8)
            if not addressed:
                addressed = (rng.choice(persons),)
            answers = []
            for person in addressed:
                if hidden is None:
                    answers.append(rng.choice((Answer.YES, Answer.NO)))
                else:
                    answers.append(_answer(hidden, person, counts[person],
                                           question))
                counts[person] += 1
            rounds.append(QuestionRound("probe", question, addressed,
                                        tuple(answers)))
        else:
            speakers = [p for p in persons if rng.random() < 0.7]
            if not speakers:
                speakers = [rng.choice(persons)]
            utterances = []
            for speaker in speakers:
                utterances.append((speaker, statement_for(speaker)))
                counts[speaker] += 1
            rounds.append(StatementsRound(tuple(utterances)))

    puzzle = PuzzleSpec(tuple(persons), decls, tuple(axioms), tuple(rounds))
    puzzle.validate()
    return puzzle


def noprobe_puzzle(rng: random.Random, n_persons: int,
                   n_fluents: int) -> tuple[PuzzleSpec, World]:
    """A hidden-world puzzle with no type-local utterance, and its world.

    Every utterance mentions another person or a fluent, so the solver's
    per-person type pruning keeps all 16 types and the search walks the
    full 16**n type product.
    """
    persons = NAME_POOL[:n_persons]
    decls = tuple(FluentDecl(name) for name in FLUENT_POOL[:n_fluents])
    fluents = [d.name for d in decls]
    hidden = random_world(rng, persons, decls)
    counts = {p: 0 for p in persons}

    def non_local(depth: int, speakers) -> Statement:
        while True:
            stmt = random_utterance(rng, depth, persons, fluents)
            body = stmt.body if isinstance(stmt, Believes) else stmt
            if not any(is_type_local(body, s) for s in speakers):
                return stmt

    axioms = []
    for _ in range(rng.randint(0, 1)):
        axiom = random_statement(rng, 2, persons, fluents, allow_me=False)
        if not eval_closed(hidden, axiom):
            axiom = Not(axiom)
        axioms.append(axiom)

    rounds = []
    for _ in range(rng.randint(3, 5)):
        if rng.random() < 0.5:
            addressed = tuple(p for p in persons if rng.random() < 0.8)
            if not addressed:
                addressed = (rng.choice(persons),)
            question = non_local(1, addressed)
            answers = []
            for person in addressed:
                answers.append(_answer(hidden, person, counts[person],
                                       question))
                counts[person] += 1
            rounds.append(QuestionRound("probe", question, addressed,
                                        tuple(answers)))
        else:
            speakers = [p for p in persons if rng.random() < 0.7]
            if not speakers:
                speakers = [rng.choice(persons)]
            utterances = []
            for speaker in speakers:
                stmt = _flip_to_assertable(non_local(2, (speaker,)), hidden,
                                           speaker, counts[speaker])
                utterances.append((speaker, stmt))
                counts[speaker] += 1
            rounds.append(StatementsRound(tuple(utterances)))

    puzzle = PuzzleSpec(tuple(persons), decls, tuple(axioms), tuple(rounds))
    puzzle.validate()
    return puzzle, hidden


def _flip_to_assertable(stmt: Statement, world: World, speaker: str,
                        count: int) -> Statement:
    """The statement, negated if the speaker would not assert it as is."""
    if would_assert(AgentState(world.type_of(speaker), count), world, stmt,
                    speaker):
        return stmt
    if isinstance(stmt, Believes):
        return Believes(Not(stmt.body))
    return Not(stmt)


def _answer(world: World, person: str, count: int,
            question: Statement) -> Answer:
    state = AgentState(world.type_of(person), count)
    if would_assert(state, world, question, person):
        return Answer.YES
    return Answer.NO


def render_puzzle(puzzle: PuzzleSpec) -> str:
    """Puzzle-file text that parses back to an equal `PuzzleSpec`."""
    lines = ["persons: " + ", ".join(puzzle.person_names)]
    for decl in puzzle.fluent_decls:
        domain = ("bool" if decl.is_boolean
                  else "{ " + ", ".join(decl.domain) + " }")
        lines.append(f"fluent {decl.name} : {domain}")
    for axiom in puzzle.axioms:
        lines.append(f"axiom {render_statement(axiom)}")
    for rnd in puzzle.rounds:
        if isinstance(rnd, QuestionRound):
            lines.append(f"round question \"{rnd.label}\" to "
                         f"{', '.join(rnd.addressed)}: "
                         f"{render_statement(rnd.statement)}")
            lines.append("  answers: " + ", ".join(
                f"{p}={a.value}" for p, a in zip(rnd.addressed, rnd.answers)))
        else:
            lines.append("round statements:")
            lines.extend(f"  {speaker}: {render_statement(stmt)}"
                         for speaker, stmt in rnd.utterances)
    if puzzle.extraction is not None:
        raise ValueError("rendering an extraction section is not supported")
    return "\n".join(lines) + "\n"
