"""World enumeration: consistency checking, staged search, derivations.

`check_world` replays a puzzle's compiled transcript against one
candidate world and is the single source of truth for consistency.
`brute_force_solve` filters it over the full cartesian world space and
serves as the checking oracle for small puzzles.  `solve_all` must agree
with the oracle wherever the space is enumerable; it gets there faster by
pruning each person's type against their own question answers, then
backtracking over fluent values with three-valued constraint evaluation.
The search is serial and visits worlds in canonical order, so it returns
them sorted without sorting.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from . import statements as st
from .puzzle import PuzzleSpec, Step
from .semantics import (ALL_TYPES, AgentState, Answer, ExtendedType,
                        current_phases, decode_answer, decode_assertion)
from .statements import (SemanticError, Statement, UNKNOWN, eval_closed,
                         eval_partial, render_statement)
from .worlds import World


class SolveStatus(Enum):
    UNIQUE = "unique"
    NONE = "none"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class Budget:
    """Search limits; exceeding either aborts with an explicit error."""

    max_nodes: int = 100_000_000
    max_seconds: float = 120.0


@dataclass
class SolveStatistics:
    nodes: int = 0
    elapsed: float = 0.0
    worlds_found: int = 0


class BudgetExceededError(Exception):
    """The search hit its node or time limit before finishing."""

    def __init__(self, message: str, statistics: SolveStatistics):
        super().__init__(message)
        self.statistics = statistics


@dataclass(frozen=True)
class ReportRow:
    """One person's solved report triple."""

    person: str
    sanity: str
    truthfulness: str
    guilt: Optional[str]  # value of the extraction's fluent category


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    worlds: tuple[World, ...]
    report: Optional[tuple[ReportRow, ...]]
    statistics: SolveStatistics


@dataclass(frozen=True)
class CheckResult:
    """Outcome of replaying a transcript against one world."""

    ok: bool
    round_index: Optional[int]
    person: Optional[str]
    message: str

    def __bool__(self) -> bool:
        return self.ok


def check_world(puzzle: PuzzleSpec, world: World) -> CheckResult:
    """True iff the world satisfies every axiom and transcript round.

    The first violation found, in round order, is reported.
    """
    if world.person_names != puzzle.person_names:
        raise SemanticError("world persons do not match the puzzle")
    if world.fluent_decls != puzzle.fluent_decls:
        raise SemanticError("world fluents do not match the puzzle")
    for i, axiom in enumerate(puzzle.axioms):
        if not eval_closed(world, axiom):
            return CheckResult(
                False, None, None,
                f"axiom {i + 1} is violated: {puzzle.rendered_axioms[i]}")
    types = world.types
    for step in puzzle.transcript:
        type_ = types[step.person_index]
        if eval_closed(world, step.body, step.person) != step.required(type_):
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


# --- Brute-force oracle ---

def enumerate_worlds(puzzle: PuzzleSpec) -> Iterator[World]:
    """Every possible world, in canonical order."""
    n = len(puzzle.person_names)
    value_spaces = [
        list(itertools.product(decl.values(), repeat=n))
        for decl in puzzle.fluent_decls]
    for types in itertools.product(ALL_TYPES, repeat=n):
        for combo in itertools.product(*value_spaces):
            yield World(puzzle.person_names, types, puzzle.fluent_decls,
                        tuple(combo))


def brute_force_solve(puzzle: PuzzleSpec) -> tuple[World, ...]:
    """Filter `check_world` over the full space.  Only viable when small."""
    return tuple(w for w in enumerate_worlds(puzzle) if check_world(puzzle, w))


# --- Staged search ---

@dataclass(slots=True)
class _Constraint:
    """A statement that must evaluate to `required`; axioms require True."""

    body: Statement
    speaker: Optional[str]
    step: Optional[Step] = None
    required: bool = True


class _Analysis:
    """Per-puzzle precomputation shared by every type combination.

    Every transcript step and axiom lands in exactly one stage:
    `local[p]` holds the steps that read only person p's own type and
    filter p's candidate types; `closed` the constraints that read no
    (fluent, person) variable, checked once per type combination; and
    `watchers[v]` the rest, each re-checked whenever a variable it reads
    is assigned, so it is decided at the last of them.
    """

    def __init__(self, puzzle: PuzzleSpec):
        self.puzzle = puzzle
        names = puzzle.person_names
        self.person_index = {name: i for i, name in enumerate(names)}
        self.fluent_index = {d.name: i for i, d in enumerate(puzzle.fluent_decls)}
        self.domains = [d.values() for d in puzzle.fluent_decls]
        # Search variables: one per (fluent, person), declaration order.
        self.variables = list(itertools.product(
            range(len(puzzle.fluent_decls)), range(len(names))))
        self.local: list[list[Step]] = [[] for _ in names]
        self.closed: list[_Constraint] = []
        self.watchers: list[list[_Constraint]] = [[] for _ in self.variables]
        self.watched_steps: list[_Constraint] = []
        for step in puzzle.transcript:
            if st.is_type_local(step.body, step.person):
                self.local[step.person_index].append(step)
            else:
                self._place(_Constraint(step.body, step.person, step))
        for axiom in puzzle.axioms:
            self._place(_Constraint(axiom, None))

    def _place(self, constraint: _Constraint) -> None:
        """Watch the constraint on each (fluent, person) variable it reads.

        A quantified fluent atom reads its fluent for every person, so in
        a puzzle without persons it reads nothing and is closed.
        """
        reads = set()
        for node in st.walk(constraint.body):
            if (not isinstance(node, st.Atom)
                    or node.predicate in st.BUILTIN_PREDICATES):
                continue
            fi = self.fluent_index[node.predicate]
            term = node.term
            if isinstance(term, st.Person):
                reads.add((fi, self.person_index[term.name]))
            elif isinstance(term, st.Me):
                reads.add((fi, self.person_index[constraint.speaker]))
            else:
                reads.update((fi, pi) for pi in self.person_index.values())
        for variable, watchers in zip(self.variables, self.watchers):
            if variable in reads:
                watchers.append(constraint)
        if not reads:
            self.closed.append(constraint)
        elif constraint.step is not None:
            self.watched_steps.append(constraint)

    def type_candidates(self,
                        world: _PartialWorld) -> list[list[ExtendedType]]:
        """Per-person types consistent with their own type-local utterances.

        Each type is tried with everyone given it: a type-local step reads
        only its speaker's type, but its quantifiers range over everyone,
        as in `atleast 2 x . patient(me)`.
        """
        candidates: list[list[ExtendedType]] = [[] for _ in self.local]
        for t in ALL_TYPES:
            world.types = (t,) * len(self.local)
            for steps, kept in zip(self.local, candidates):
                if all(eval_closed(world, step.body, step.person)
                       == step.required(t) for step in steps):
                    kept.append(t)
        return candidates


class _PartialWorld:
    """Mutable world with UNKNOWN fluent slots, for three-valued checks.

    One per solve: type pruning gives everyone each type in turn, then the
    search sets `types` for each type combination and assigns `values` in
    place.  The analysis has resolved every name.
    """

    __slots__ = ("person_names", "types", "_pindex", "_findex", "values")

    def __init__(self, analysis: _Analysis):
        self.person_names = analysis.puzzle.person_names
        self.types = ()
        self._pindex = analysis.person_index
        self._findex = analysis.fluent_index
        self.values = [[UNKNOWN] * len(self.person_names)
                       for _ in analysis.domains]

    def builtin_value(self, predicate: str, person: str) -> bool:
        return self.types[self._pindex[person]].builtins[predicate]

    def fluent_value(self, fluent: str, person: str):
        return self.values[self._findex[fluent]][self._pindex[person]]


class _Progress:
    """Node counter that enforces the budget every 2,048 nodes."""

    _CHECK_EVERY = 2048

    def __init__(self, budget: Budget):
        self.budget = budget
        self.started = time.perf_counter()
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes % self._CHECK_EVERY == 0:
            self.check()

    def check(self) -> None:
        if self.nodes > self.budget.max_nodes:
            limit = f"node budget of {self.budget.max_nodes}"
        elif self.elapsed() > self.budget.max_seconds:
            limit = f"time budget of {self.budget.max_seconds}s"
        else:
            return
        raise BudgetExceededError(
            f"{limit} exceeded",
            SolveStatistics(nodes=self.nodes, elapsed=self.elapsed()))

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def solve_all(puzzle: PuzzleSpec, budget: Optional[Budget] = None,
              workers: int = 1) -> SolveResult:
    """All worlds consistent with the puzzle, canonically ordered.

    The search is serial: type candidates follow `ALL_TYPES` order and
    fluent variables run fluent-major, person-minor, so worlds come out in
    `World.sort_key` order without a sort.  `workers` is accepted for
    compatibility and never changes the result.  Exceeding the budget
    raises BudgetExceededError; it never truncates silently.
    """
    progress = _Progress(budget or Budget())
    analysis = _Analysis(puzzle)
    world = _PartialWorld(analysis)
    candidates = analysis.type_candidates(world)
    worlds: list[World] = []
    if all(candidates):
        worlds = _search(world, analysis, candidates, progress)
        progress.check()
    if not worlds:
        status = SolveStatus.NONE
    elif len(worlds) == 1:
        status = SolveStatus.UNIQUE
    else:
        status = SolveStatus.MULTIPLE
    report = _build_report(puzzle, worlds[0]) if status is SolveStatus.UNIQUE else None
    stats = SolveStatistics(
        nodes=progress.nodes, elapsed=progress.elapsed(),
        worlds_found=len(worlds))
    return SolveResult(status, tuple(worlds), report, stats)


def _search(world: _PartialWorld, analysis: _Analysis, candidates,
            progress: _Progress) -> list[World]:
    found: list[World] = []
    for types in itertools.product(*candidates):
        progress.tick()
        world.types = types
        for constraint in analysis.closed:
            step = constraint.step
            required = (True if step is None
                        else step.required(types[step.person_index]))
            if eval_closed(world, constraint.body,
                           constraint.speaker) != required:
                break
        else:
            # A watched step's required value follows its speaker's type.
            for constraint in analysis.watched_steps:
                step = constraint.step
                constraint.required = step.required(types[step.person_index])
            _descend(world, analysis, progress, found, 0)
    return found


def _descend(world: _PartialWorld, analysis: _Analysis, progress: _Progress,
             found: list[World], depth: int) -> None:
    """Assign variables from `depth` on, keeping worlds that pass."""
    if depth == len(analysis.variables):
        found.append(World(
            world.person_names, world.types, analysis.puzzle.fluent_decls,
            tuple(tuple(row) for row in world.values)))
        return
    fi, pi = analysis.variables[depth]
    row = world.values[fi]
    watchers = analysis.watchers[depth]
    for value in analysis.domains[fi]:
        progress.tick()
        row[pi] = value
        for constraint in watchers:
            result = eval_partial(world, constraint.body, constraint.speaker)
            if result is not UNKNOWN and result != constraint.required:
                break
        else:
            _descend(world, analysis, progress, found, depth + 1)
    row[pi] = UNKNOWN


def _build_report(puzzle: PuzzleSpec,
                  world: World) -> tuple[ReportRow, ...]:
    guilt_category = None
    if puzzle.extraction is not None:
        from .extraction import SANITY_CATEGORY, TRUTHFULNESS_CATEGORY
        for cat in puzzle.extraction.categories:
            if cat.name not in (SANITY_CATEGORY, TRUTHFULNESS_CATEGORY):
                guilt_category = cat.name
    rows = []
    for person in puzzle.person_names:
        t = world.type_of(person)
        guilt = (world.fluent_value(guilt_category, person)
                 if guilt_category else None)
        rows.append(ReportRow(person, t.sanity.value, t.truthfulness.value, guilt))
    return tuple(rows)


# --- Derivations ---

@dataclass(frozen=True)
class DerivationStep:
    """What one utterance tells us, given fully determined phases."""

    round_index: int
    person: str
    truthful_now: bool
    sane_now: bool
    spoken: str
    fact: Statement

    def render(self) -> str:
        phases = (("truthful" if self.truthful_now else "lying") + ", "
                  + ("sane" if self.sane_now else "insane"))
        return (f"round {self.round_index} {self.person} ({phases}): "
                f"{self.spoken} => {render_statement(self.fact)}")


def explain_solution(puzzle: PuzzleSpec,
                     world: World) -> tuple[DerivationStep, ...]:
    """Decode every utterance of a consistent world into a guaranteed fact."""
    check = check_world(puzzle, world)
    if not check:
        raise SemanticError(f"world is not consistent: {check.message}")
    steps = []
    for step in puzzle.transcript:
        state = AgentState(world.types[step.person_index], step.count)
        truthful, sane = current_phases(state)
        said = st.substitute_me(step.statement, step.person)
        if step.answer is None:
            fact = decode_assertion(state, said)
            spoken = f"says {step.label}"
        else:
            fact = decode_answer(state, said, step.answer)
            spoken = f"\"{step.label}\" answered {step.answer.value}"
        steps.append(DerivationStep(step.round_index, step.person, truthful,
                                    sane, spoken, fact))
    return tuple(steps)
