"""Seeded generators shared by the property and oracle tests."""

from __future__ import annotations

import random
import re
import sys

from bedlam.discrimination import FOUR_QUESTION_PLAN
from bedlam.puzzle import PuzzleSpec, QuestionRound, StatementsRound
from bedlam.semantics import ALL_TYPES, AgentState, Answer, would_assert
from bedlam.statements import (And, AtLeast, Atom, Believes, Exists, ForAll,
                               Implies, ME, Not, Or, Person, Statement, Var,
                               eval_closed, is_type_local, peel_believes,
                               render_statement)
from bedlam.worlds import FluentDecl, World

NAME_POOL = ("Ann", "Beth", "Cedric")
FLUENT_POOL = ("shifty", "hungry")
BUILTINS = ("patient", "doctor", "sane", "delusional", "partial",
            "truthteller", "liar", "alternator")
VAR_NAMES = ("x", "y", "z")


def random_statement(rng: random.Random, depth: int = 3, persons=NAME_POOL,
                     fluents=FLUENT_POOL, allow_me: bool = True,
                     bound=()) -> Statement:
    """A random believes-free closed statement over the given declarations."""
    bound = list(bound)

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


def random_utterance(rng: random.Random, **kwargs) -> Statement:
    stmt = random_statement(rng, **kwargs)
    if rng.random() < 0.4:
        return Believes(stmt)
    return stmt


def random_world(rng: random.Random, persons, decls) -> World:
    types = tuple(rng.choice(ALL_TYPES) for _ in persons)
    values = tuple(
        tuple(rng.choice(decl.values()) for _ in persons) for decl in decls)
    return World(tuple(persons), types, tuple(decls), values)


def random_puzzle(rng: random.Random) -> PuzzleSpec:
    """A small random puzzle; roughly half are seeded from a hidden world.

    Hidden-world puzzles replay a real population's behavior, so they have
    at least one consistent world; the rest record arbitrary answers and
    are frequently unsatisfiable.  Both kinds exercise the solver.
    """
    n_persons = rng.choice((1, 1, 2, 2, 2, 3, 3))
    n_fluents = rng.choice((0, 1, 1, 2))
    persons = NAME_POOL[:n_persons]
    decls = tuple(FluentDecl(name) for name in FLUENT_POOL[:n_fluents])
    hidden = random_world(rng, persons, decls) if rng.random() < 0.6 else None
    counts = {p: 0 for p in persons}

    def statement_for(speaker: str) -> Statement:
        stmt = random_utterance(rng, depth=2, persons=persons,
                                fluents=[d.name for d in decls])
        if hidden is None:
            return stmt
        # Flip the content so the hidden speaker really would say it.
        state = AgentState(hidden.type_of(speaker), counts[speaker])
        if would_assert(state, hidden, stmt, speaker):
            return stmt
        if isinstance(stmt, Believes):
            return Believes(Not(stmt.body))
        return Not(stmt)

    axioms = []
    for _ in range(rng.randint(0, 2)):
        axiom = random_statement(rng, depth=2, persons=persons,
                                 fluents=[d.name for d in decls],
                                 allow_me=False)
        if hidden is not None:
            from bedlam.statements import eval_closed
            if not eval_closed(hidden, axiom):
                axiom = Not(axiom)
        axioms.append(axiom)

    rounds = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            question = random_utterance(rng, depth=1, persons=persons,
                                        fluents=[d.name for d in decls])
            addressed = tuple(p for p in persons if rng.random() < 0.8)
            if not addressed:
                addressed = (rng.choice(persons),)
            answers = []
            for person in addressed:
                if hidden is None:
                    answers.append(rng.choice((Answer.YES, Answer.NO)))
                else:
                    state = AgentState(hidden.type_of(person), counts[person])
                    says_yes = would_assert(state, hidden, question, person)
                    answers.append(Answer.YES if says_yes else Answer.NO)
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


def random_nonlocal_puzzle(rng: random.Random, persons=NAME_POOL,
                           fluent_free: bool = False) -> PuzzleSpec:
    """A puzzle over one or two boolean fluents, or none if `fluent_free`,
    replaying a hidden world, in which no utterance is type-local.

    Each statement reads a fluent or another person's type, so every
    person keeps all 16 type candidates, as in the no-probe benchmark.
    """
    decls = () if fluent_free else tuple(
        FluentDecl(name) for name in FLUENT_POOL[:rng.randint(1, 2)])
    fluents = [decl.name for decl in decls]
    world = random_world(rng, persons, decls)
    counts = {p: 0 for p in persons}
    rounds = []
    for _ in range(rng.randint(3, 5)):
        utterances = []
        for speaker in rng.sample(persons, rng.randint(1, 3)):
            stmt = random_utterance(rng, depth=2, persons=persons,
                                    fluents=fluents)
            while is_type_local(peel_believes(stmt)[0], speaker):
                stmt = random_utterance(rng, depth=2, persons=persons,
                                        fluents=fluents)
            state = AgentState(world.type_of(speaker), counts[speaker])
            if not would_assert(state, world, stmt, speaker):
                stmt = (Believes(Not(stmt.body)) if isinstance(stmt, Believes)
                        else Not(stmt))
            utterances.append((speaker, stmt))
            counts[speaker] += 1
        rounds.append(StatementsRound(tuple(utterances)))
    puzzle = PuzzleSpec(persons, decls, (), tuple(rounds))
    puzzle.validate()
    return puzzle


MOOD = FluentDecl("mood", ("calm", "tense", "wild"))
CONNECTIVES = (lambda a, b: And((a, b)), lambda a, b: Or((a, b)), Implies)


def random_categorical_statement(rng: random.Random, depth: int, persons,
                                 decls, allow_me: bool = True,
                                 bound=()) -> Statement:
    """A random closed statement whose fluent atoms carry domain values.

    Categorical fluents get a value argument and booleans none; with no
    `decls` the statement is fluent-free.
    """
    bound = list(bound)

    def atom() -> Statement:
        terms = [Person(rng.choice(persons))]
        if allow_me:
            terms.append(ME)
        if bound:
            terms.append(Var(rng.choice(bound)))
        term = rng.choice(terms)
        if decls and rng.random() < 0.6:
            decl = rng.choice(decls)
            value = None if decl.is_boolean else rng.choice(decl.domain)
            return Atom(decl.name, term, value)
        return Atom(rng.choice(BUILTINS), term)

    def node(d: int) -> Statement:
        if d <= 0 or rng.random() < 0.3:
            return atom()
        kind = rng.randrange(6)
        if kind == 0:
            return Not(node(d - 1))
        if kind <= 2:
            return rng.choice(CONNECTIVES)(node(d - 1), node(d - 1))
        var = rng.choice([v for v in VAR_NAMES if v not in bound] or VAR_NAMES)
        bound.append(var)
        body = node(d - 1)
        bound.pop()
        return _quantify(rng, var, body, len(persons))

    return node(depth)


def _quantify(rng: random.Random, var: str, body: Statement,
              n_persons: int) -> Statement:
    kind = rng.randrange(3)
    if kind == 0:
        return Exists(var, body)
    if kind == 1:
        return ForAll(var, body)
    return AtLeast(rng.randint(1, n_persons), var, body)


def random_categorical_puzzle(rng: random.Random, hidden: bool) -> PuzzleSpec:
    """A two-person puzzle over a three-valued fluent and at most one boolean.

    Among its utterances are a quantified statement over the categorical
    fluent and a fluent-free statement about both persons.  With `hidden`
    every answer and statement replays a random hidden world, so at least
    that world is consistent; otherwise answers are arbitrary.
    """
    persons = NAME_POOL[:2]
    decls = (MOOD,) + ((FluentDecl("shifty"),) if rng.random() < 0.5 else ())
    world = random_world(rng, persons, decls) if hidden else None
    counts = {p: 0 for p in persons}

    def asserted(person: str, stmt: Statement) -> bool:
        state = AgentState(world.type_of(person), counts[person])
        return would_assert(state, world, stmt, person)

    quantified = _quantify(rng, "x", rng.choice(CONNECTIVES)(
        Atom(MOOD.name, Var("x"), rng.choice(MOOD.domain)),
        random_categorical_statement(rng, 1, persons, decls, bound=("x",))),
        len(persons))
    both = rng.choice(CONNECTIVES)(*(Atom(rng.choice(BUILTINS), Person(p))
                                     for p in persons))
    said = [quantified, both] + [
        random_categorical_statement(rng, 2, persons, decls)
        for _ in range(rng.randint(0, 2))]
    rng.shuffle(said)

    rounds = []
    for stmt in said:
        if rng.random() < 0.3:
            stmt = Believes(stmt)
        if rng.random() < 0.5:
            addressed = tuple(p for p in persons if rng.random() < 0.7)
            addressed = addressed or (rng.choice(persons),)
            answers = []
            for person in addressed:
                if world is None:
                    answers.append(rng.choice((Answer.YES, Answer.NO)))
                else:
                    answers.append(Answer.YES if asserted(person, stmt)
                                   else Answer.NO)
                counts[person] += 1
            rounds.append(QuestionRound("probe", stmt, addressed,
                                        tuple(answers)))
        else:
            speaker = rng.choice(persons)
            if world is not None and not asserted(speaker, stmt):
                stmt = (Believes(Not(stmt.body)) if isinstance(stmt, Believes)
                        else Not(stmt))
            counts[speaker] += 1
            rounds.append(StatementsRound(((speaker, stmt),)))

    axioms = []
    if rng.random() < 0.5:
        axiom = random_categorical_statement(rng, 2, persons, decls,
                                             allow_me=False)
        if world is not None and not eval_closed(world, axiom):
            axiom = Not(axiom)
        axioms.append(axiom)

    puzzle = PuzzleSpec(persons, decls, tuple(axioms), tuple(rounds))
    puzzle.validate()
    return puzzle


WIDE_NAME_POOL = NAME_POOL + ("David", "Eve")
WIDE_FLUENT_POOL = (FluentDecl("shifty"), FluentDecl("hungry"), MOOD)


def random_probed_puzzle(rng: random.Random) -> tuple[PuzzleSpec, World]:
    """A 4-5 person puzzle replaying a hidden world, and that world.

    The world has one or two boolean or categorical fluents.  Everyone
    first answers `FOUR_QUESTION_PLAN`'s probes, so each person keeps few
    types; random utterances and axioms follow, each flipped to hold in
    the hidden world.
    """
    persons = WIDE_NAME_POOL[:rng.randint(4, 5)]
    decls = tuple(rng.sample(WIDE_FLUENT_POOL, rng.randint(1, 2)))
    world = random_world(rng, persons, decls)
    counts = {p: 0 for p in persons}

    def asserted(person: str, stmt: Statement) -> bool:
        state = AgentState(world.type_of(person), counts[person])
        counts[person] += 1
        return would_assert(state, world, stmt, person)

    rounds = []
    for question in FOUR_QUESTION_PLAN:
        answers = tuple(Answer.YES if asserted(p, question) else Answer.NO
                        for p in persons)
        rounds.append(QuestionRound("probe", question, persons, answers))
    for _ in range(rng.randint(1, 3)):
        utterances = []
        for speaker in rng.sample(persons, rng.randint(1, 3)):
            stmt = random_categorical_statement(rng, 2, persons, decls)
            if rng.random() < 0.3:
                stmt = Believes(stmt)
            if not asserted(speaker, stmt):
                stmt = (Believes(Not(stmt.body)) if isinstance(stmt, Believes)
                        else Not(stmt))
            utterances.append((speaker, stmt))
        rounds.append(StatementsRound(tuple(utterances)))

    axioms = []
    for _ in range(rng.randint(0, 2)):
        axiom = random_categorical_statement(rng, 2, persons, decls,
                                             allow_me=False)
        axioms.append(axiom if eval_closed(world, axiom) else Not(axiom))

    puzzle = PuzzleSpec(persons, decls, tuple(axioms), tuple(rounds))
    puzzle.validate()
    return puzzle, world


def random_categorical_trio(rng: random.Random, hidden: bool) -> PuzzleSpec:
    """A three-person puzzle over one three-valued fluent, `MOOD`.

    Two to four random statements are each asked of some persons or said
    by one.  With `hidden` every answer, statement and axiom replays a
    random hidden world, so at least that world is consistent; otherwise
    answers and statements are arbitrary.
    """
    persons, decls = NAME_POOL, (MOOD,)
    world = random_world(rng, persons, decls) if hidden else None
    counts = {p: 0 for p in persons}

    def says(person: str, stmt: Statement) -> bool:
        """Whether `person` says `stmt` next: as in `world`, or at random."""
        ordinal = counts[person]
        counts[person] += 1
        if world is None:
            return rng.random() < 0.5
        state = AgentState(world.type_of(person), ordinal)
        return would_assert(state, world, stmt, person)

    rounds = []
    for _ in range(rng.randint(2, 4)):
        stmt = random_categorical_statement(rng, 2, persons, decls)
        if rng.random() < 0.3:
            stmt = Believes(stmt)
        if rng.random() < 0.5:
            addressed = (tuple(p for p in persons if rng.random() < 0.7)
                         or (rng.choice(persons),))
            answers = tuple(Answer.YES if says(p, stmt) else Answer.NO
                            for p in addressed)
            rounds.append(QuestionRound("probe", stmt, addressed, answers))
        else:
            speaker = rng.choice(persons)
            if not says(speaker, stmt):
                stmt = (Believes(Not(stmt.body)) if isinstance(stmt, Believes)
                        else Not(stmt))
            rounds.append(StatementsRound(((speaker, stmt),)))

    axioms = []
    if rng.random() < 0.5:
        axiom = random_categorical_statement(rng, 2, persons, decls,
                                             allow_me=False)
        if world is not None and not eval_closed(world, axiom):
            axiom = Not(axiom)
        axioms.append(axiom)

    puzzle = PuzzleSpec(persons, decls, tuple(axioms), tuple(rounds))
    puzzle.validate()
    return puzzle


def puzzle_text(puzzle: PuzzleSpec) -> str:
    """Puzzle-file text that parses back to `puzzle` (no extraction)."""
    lines = ["persons: " + ", ".join(puzzle.person_names)]
    for decl in puzzle.fluent_decls:
        domain = ("bool" if decl.is_boolean
                  else "{ " + ", ".join(decl.domain) + " }")
        lines.append(f"fluent {decl.name} : {domain}")
    lines += [f"axiom {render_statement(axiom)}" for axiom in puzzle.axioms]
    for rnd in puzzle.rounds:
        if isinstance(rnd, QuestionRound):
            lines.append(f'round question "{rnd.label}" to '
                         f"{', '.join(rnd.addressed)}: "
                         f"{render_statement(rnd.statement)}")
            lines.append("  answers: " + ", ".join(
                f"{p}={a.value}" for p, a in zip(rnd.addressed, rnd.answers)))
        else:
            lines.append("round statements:")
            lines += [f"  {speaker}: {render_statement(stmt)}"
                      for speaker, stmt in rnd.utterances]
    return "\n".join(lines) + "\n"


def world_text(world: World) -> str:
    """World-file text that parses back to `world`."""
    lines = ["world:"]
    for person in world.person_names:
        entry = [f"  {person}: {world.type_of(person).label}"]
        for decl in world.fluent_decls:
            value = world.fluent_value(decl.name, person)
            if decl.is_boolean:
                value = "yes" if value else "no"
            entry.append(f"{decl.name}={value}")
        lines.append(", ".join(entry))
    return "\n".join(lines) + "\n"


def too_deep_puzzle_texts() -> dict[str, str]:
    """Puzzles whose search nests past the recursion limit: one frame per
    typed person, and one per fluent slot."""
    limit = sys.getrecursionlimit()
    names = [f"P{i}" for i in range(limit)]
    few = names[:limit // 3 + 1]
    return {
        "typed persons": (f"persons: {', '.join(names)}\n"
                          f"round statements:\n  P0: sane({names[-1]})\n"),
        "fluent slots": (f"persons: {', '.join(few)}\n"
                         "fluent a : bool\nfluent b : bool\nfluent c : bool\n"),
    }


FUZZ_VOCABULARY = (
    "believes", "not", "and", "or", "implies", "exists", "forall",
    "atleast", "me", "persons", "fluent", "axiom", "round", "statements",
    "question", "to", "all", "answers", "extraction", "category", "order",
    "alphabetical", "world", "bool", "yes", "no", "Ann", "Zed", "x",
    "guilt", "guilty", "sanity", "truthfulness", "partial", "liar", "ST",
    "2", '"q"', "(", ")", "{", "}", ",", ".", ":", "=", "#", "\n", " ", "$",
)


def mutate(rng, text: str) -> str:
    pieces = re.findall(r"\s+|[\w-]+|.", text, re.S)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(pieces) + 1)
        op = rng.randrange(3)
        if op == 0:
            del pieces[i:i + rng.randint(1, 3)]
        elif op == 1:
            pieces.insert(i, rng.choice(FUZZ_VOCABULARY))
        else:
            j = min(i + rng.randint(1, 12), len(pieces))
            k = rng.randrange(len(pieces) + 1)
            pieces[k:k] = pieces[i:j]
    return "".join(pieces)
