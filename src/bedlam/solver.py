"""World enumeration: consistency checking, staged search, derivations.

`check_world` replays a puzzle's transcript against one candidate world
and is the single source of truth for consistency.
`brute_force_solve` filters it over the full cartesian world space and
serves as the checking oracle for small puzzles.  It runs the compiled
checks on each row pair first and builds a `World` only for a pair that
passes them; every world it returns passes `check_world`.  `solve_all`
must agree with the oracle wherever the space is enumerable.  Both run
the checks `PuzzleSpec.compiled` holds as they are; the search gets
there faster in three stages: each person's type candidates are pruned
against what that person says about themselves; persons are then typed
one by one, and each fluent-free check runs once the last type it reads
is set, so a failure skips every combination under that prefix; finally
fluent values are backtracked over, and each fluent check runs at the
slots it reads from the first at which it can be False
(`statements.decided_from`), since only False prunes.  That fluent
search reads the types of its checks' persons only, so it runs once per
combination of those types and every other type combination with the
same ones reuses the rows it found and counts its nodes again.  The
search is serial and visits worlds in canonical order, so it returns
them sorted without sorting.
`explain_solution` decodes each utterance's fact with `Step.required`,
the table the step checks read.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from . import statements as st
from .extraction import SANITY_CATEGORY, TRUTHFULNESS_CATEGORY
from .puzzle import PuzzleSpec, Step
from .semantics import ALL_TYPES, Answer, ExtendedType
from .statements import (Not, SemanticError, Statement, UNKNOWN,
                         render_statement)
from .worlds import World

# Unused here; bench/tracing.py wraps the reference evaluators by these names.
eval_closed, eval_partial = st.eval_closed, st.eval_partial


class SolveStatus(Enum):
    UNIQUE = "unique"
    NONE = "none"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class Budget:
    """Search limits; exceeding either aborts with an explicit error."""

    max_nodes: int = 100_000_000
    max_seconds: float = 120.0

    def __post_init__(self):
        # No count or time exceeds NaN, so a NaN limit would never stop.
        for name in ("max_nodes", "max_seconds"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, not nan")


@dataclass
class SolveStatistics:
    """What a solve explored.

    `nodes` counts search nodes: one per complete combination of candidate
    types, whether searched or skipped with a ruled-out prefix, plus one
    per fluent value tried; a reused subtree counts its nodes again.  The
    node budget is checked against it.  `fluent_searches` counts the
    fluent searches run from their root; a reused subtree is not searched
    again.
    """

    nodes: int = 0
    elapsed: float = 0.0
    worlds_found: int = 0
    fluent_searches: int = 0


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


_CONSISTENT = CheckResult(True, None, None, "consistent")


def check_world(puzzle: PuzzleSpec, world: World) -> CheckResult:
    """True iff the world satisfies every axiom and transcript round.

    The first violation found, in round order, is reported.  The puzzle's
    compiled checks run on the world's rows, where no slot is UNKNOWN.
    Each violation is built once per puzzle and returned again to every
    world that breaks the same axiom, or the same step with the same
    speaker type.
    """
    if world.person_names != puzzle.person_names:
        raise SemanticError("world persons do not match the puzzle")
    if world.fluent_decls != puzzle.fluent_decls:
        raise SemanticError("world fluents do not match the puzzle")
    axioms, steps = puzzle.compiled
    types, values = world.types, world.fluent_values
    for i, (check, _, _) in enumerate(axioms):
        if not check(types, values):
            built = puzzle.violations
            result = built.get(i)
            if result is None:
                result = built[i] = CheckResult(
                    False, None, None, f"axiom {i + 1} is violated: "
                    f"{render_statement(puzzle.axioms[i])}")
            return result
    for k, (check, _, _) in enumerate(steps):
        if not check(types, values):
            step = puzzle.transcript[k]
            type_ = types[step.person_index]
            built, key = puzzle.violations, (k, type_.index)
            result = built.get(key)
            if result is None:
                result = built[key] = _step_violation(step, type_)
            return result
    return _CONSISTENT


def _step_violation(step: Step, type_: ExtendedType) -> CheckResult:
    """What `check_world` reports when a `type_` speaker made the step
    but could not have."""
    if step.answer is None:
        message = (f"round {step.round_index}: {step.person} "
                   f"({type_.label}) would not say: {step.label}")
    else:
        would = "no" if step.answer is Answer.YES else "yes"
        message = (f"round {step.round_index}: {step.person} answered "
                   f"{step.answer.value} to \"{step.label}\" but a "
                   f"{type_.label} in this world would answer {would}")
    return CheckResult(False, step.round_index, step.person, message)


# --- Brute-force oracle ---

def _rows(puzzle: PuzzleSpec) -> Iterator[tuple[tuple, tuple]]:
    """Every `(types, fluent_values)` pair of the world space, in
    canonical order.

    Each fluent assignment is built once, so the pairs of every type
    combination share its (immutable) rows.
    """
    n = len(puzzle.person_names)
    assignments = tuple(itertools.product(*[
        tuple(itertools.product(decl.values(), repeat=n))
        for decl in puzzle.fluent_decls]))
    for types in itertools.product(ALL_TYPES, repeat=n):
        for values in assignments:
            yield types, values


def enumerate_worlds(puzzle: PuzzleSpec) -> Iterator[World]:
    """Every possible world, in canonical order.

    The worlds of every type combination share each fluent assignment's
    rows.
    """
    names, decls = puzzle.person_names, puzzle.fluent_decls
    for types, values in _rows(puzzle):
        yield World(names, types, decls, values)


def brute_force_solve(puzzle: PuzzleSpec) -> tuple[World, ...]:
    """The worlds of `enumerate_worlds` that `check_world` accepts, in
    its order.  Only viable when the space is small.

    Each row pair first runs the puzzle's compiled checks, axioms then
    steps, and a `World` is built only for a pair that passes them all;
    `check_world` still decides every world returned.
    """
    axioms, steps = puzzle.compiled
    checks = [check for check, _, _ in axioms + steps]
    names, decls = puzzle.person_names, puzzle.fluent_decls

    def kept() -> Iterator[World]:
        for types, values in _rows(puzzle):
            for check in checks:
                if not check(types, values):
                    break
            else:
                world = World(names, types, decls, values)
                if check_world(puzzle, world):
                    yield world

    return tuple(kept())


# --- Staged search ---

class _Analysis:
    """Per-puzzle precomputation shared by the whole search.

    The search runs three stages, each check at the first point where it
    is decided.  Type-local steps, which read only their speaker's type,
    leave each person p the `candidates[p]` they allow.  The other steps
    and the axioms run as the puzzle's compiled checks over the search's
    `types` and `values` rows, filed by the fluent slots and types that
    `PuzzleSpec.compiled` reports they read.  Those that read no fluent
    slot are fluent-free: `decided[p]` holds those whose last type read is
    person p's, run as soon as types up to p are set; one that skips an
    earlier person runs once per combination of the types it reads.
    `constant` holds those that read no type at all, run once per solve.
    `watchers[v]` holds the checks that read fluent slot v and can be
    False once slots up to v are set, by `statements.decided_from`'s
    read-once law: each runs whenever such a slot is assigned, so it
    still runs at the last slot it reads, and no run it skips could have
    pruned.

    Only the watched checks run in the fluent search, so on any type
    combination it finds the same rows, in the same order, over the same
    nodes as on any other that gives the `keys` persons, those whose
    types the watched checks read, the same types.  `subtrees` maps those
    types to what the search found, `(rows, nodes)`.  It is None, and
    each combination is searched, when there is no fluent slot to search
    or every person outside `keys` keeps one candidate, so no two
    combinations share those types.
    """

    def __init__(self, puzzle: PuzzleSpec):
        self.puzzle = puzzle
        names = puzzle.person_names
        self.domains = [d.values() for d in puzzle.fluent_decls]
        # Search variables: one per (fluent, person), declaration order,
        # so (f, p) is slot f * n + p, as `statements.decided_from` counts.
        self.variables = list(itertools.product(
            range(len(self.domains)), range(len(names))))
        decls = puzzle.fluent_decls
        axioms, steps = puzzle.compiled
        local: list[list] = [[] for _ in names]  # type-local step checks
        checks = []  # each other check, with its statement and speaker
        for step, compiled in zip(puzzle.transcript, steps):
            if st.is_type_local(step.body, step.person):
                local[step.person_index].append(compiled[0])
            else:
                checks.append((compiled, step.body, step.person))
        checks += [(compiled, axiom, None)
                   for compiled, axiom in zip(axioms, puzzle.axioms)]
        # A quantified fluent atom reads its fluent for every person, so in
        # a puzzle without persons it reads nothing and is fluent-free.
        self.decided: list[list] = [[] for _ in names]
        self.constant = []
        watched = []  # (check, reads, first slot at which it can be False)
        keys: set[int] = set()
        for (check, reads, typed), stmt, speaker in checks:
            if reads:
                true, false = st.decided_from(stmt, speaker, names, decls)
                # An utterance fails once its body is definite and
                # disagrees with what its speaker must say.
                start = false if speaker is None else min(true, false)
                watched.append((check, reads, start))
                if any(f * len(names) + p >= start for f, p in reads):
                    keys |= typed
                continue
            if not typed:
                self.constant.append(check)
                continue
            last = max(typed)
            # It runs once per prefix of types up to `last`; when it skips
            # a person there, most of those runs repeat.
            if len(typed) <= last:
                check = _memoized(check, sorted(typed))
            self.decided[last].append(check)
        # A run before that slot could only pass, so it is skipped.
        self.watchers = [[check for check, reads, start in watched
                          if slot in reads and v >= start]
                         for v, slot in enumerate(self.variables)]
        # Each type is tried with everyone given it, since quantifiers
        # range over everyone, as in `atleast 2 x . patient(me)`.  A check
        # that reads no fluent slot always answers definitely.
        self.candidates: list[list[ExtendedType]] = [[] for _ in names]
        for t in ALL_TYPES:
            row = (t,) * len(names)
            for person_checks, kept in zip(local, self.candidates):
                if all(check(row, ()) for check in person_checks):
                    kept.append(t)
        # Type combinations under one type of person p: a prefix ruled
        # out there skips that many.
        self.below = [math.prod(map(len, self.candidates[p + 1:]))
                      for p in range(len(names))]
        # No fluent-free check reads a type from person `typed` on, so
        # the search takes those types as one product.
        self.typed = max((p + 1 for p, checks in enumerate(self.decided)
                          if checks), default=0)
        # Each fluent assignment found, once: worlds that share it share
        # its rows.
        self.assignments: dict[tuple, tuple] = {}
        self.keys = sorted(keys)
        self.subtrees: Optional[dict[tuple, tuple]] = (
            {} if self.variables and any(
                len(kept) > 1 for p, kept in enumerate(self.candidates)
                if p not in keys) else None)


def _memoized(check, persons: list[int]):
    """A fluent-free check, run once per combination of its persons' types."""
    memo = {}

    def check_once(types, values):
        key = tuple([types[p].index for p in persons])
        result = memo.get(key)
        if result is None:
            result = memo[key] = check(types, values)
        return result
    return check_once


class _Progress:
    """Node counter that enforces the budget every 2,048 nodes."""

    _CHECK_EVERY = 2048

    def __init__(self, budget: Budget):
        self.budget = budget
        self.started = time.perf_counter()
        self.nodes = 0
        self.searches = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes % self._CHECK_EVERY == 0:
            self.check()

    def skip(self, count: int) -> None:
        """Count `count` nodes at once, as that many ticks would."""
        before = self.nodes
        self.nodes += count
        if before // self._CHECK_EVERY != self.nodes // self._CHECK_EVERY:
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
            SolveStatistics(nodes=self.nodes, elapsed=self.elapsed(),
                            fluent_searches=self.searches))

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def solve_all(puzzle: PuzzleSpec, budget: Optional[Budget] = None) -> SolveResult:
    """All worlds consistent with the puzzle, canonically ordered.

    The search is serial: type candidates follow `ALL_TYPES` order and
    fluent variables run fluent-major, person-minor, so worlds come out in
    `World.sort_key` order without a sort.  Exceeding the budget raises
    BudgetExceededError; it never truncates silently.
    """
    progress = _Progress(budget or Budget())
    analysis = _Analysis(puzzle)
    worlds: list[World] = []
    if all(analysis.candidates):
        types = [None] * len(puzzle.person_names)
        values = [[UNKNOWN] * len(types) for _ in analysis.domains]
        if any(check(types, values) is False for check in analysis.constant):
            # Every combination is ruled out, and counts as a node.
            progress.skip(math.prod(map(len, analysis.candidates)))
        else:
            _choose(analysis, progress, types, values, worlds, 0)
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
        worlds_found=len(worlds), fluent_searches=progress.searches)
    return SolveResult(status, tuple(worlds), report, stats)


def _choose(analysis: _Analysis, progress: _Progress, types, values,
            found: list[World], p: int) -> None:
    """Type persons from `p` on, skipping each prefix a check rules out.

    Every complete type combination counts as one node, whether it is
    searched or skipped with its prefix.
    """
    if p == analysis.typed:
        # One product for the rest: recursing to the last person instead
        # cost the asylum benchmark 5-8% of ops/s in 7 of 7 paired runs.
        prefix = tuple(types[:p])
        combinations = itertools.product(*analysis.candidates[p:])
        if analysis.subtrees is None:
            for rest in combinations:
                progress.tick()
                progress.searches += 1
                _descend(analysis, progress, prefix + rest, values, found, 0)
        else:
            for rest in combinations:
                progress.tick()
                _search_once(analysis, progress, prefix + rest, values, found)
        return
    checks, below = analysis.decided[p], analysis.below[p]
    for t in analysis.candidates[p]:
        types[p] = t
        for check in checks:
            if check(types, values) is False:
                progress.skip(below)
                break
        else:
            _choose(analysis, progress, types, values, found, p + 1)


def _search_once(analysis: _Analysis, progress: _Progress, types, values,
                 found: list[World]) -> None:
    """`_descend` from the root, once per combination of the key persons'
    types: a type combination whose key persons' types were searched
    before takes the rows found then, and counts their nodes again."""
    key = tuple([types[k] for k in analysis.keys])
    subtree = analysis.subtrees.get(key)
    if subtree is None:
        nodes, first = progress.nodes, len(found)
        progress.searches += 1
        _descend(analysis, progress, types, values, found, 0)
        analysis.subtrees[key] = (
            [world.fluent_values for world in found[first:]],
            progress.nodes - nodes)
        return
    rows, nodes = subtree
    progress.skip(nodes)
    puzzle = analysis.puzzle
    found.extend([World(puzzle.person_names, types, puzzle.fluent_decls, row)
                  for row in rows])


def _descend(analysis: _Analysis, progress: _Progress, types, values,
             found: list[World], depth: int) -> None:
    """Assign variables from `depth` on, keeping worlds that pass."""
    if depth == len(analysis.variables):
        puzzle = analysis.puzzle
        rows = tuple(map(tuple, values))
        rows = analysis.assignments.setdefault(rows, rows)
        found.append(World(puzzle.person_names, types, puzzle.fluent_decls,
                           rows))
        return
    fi, pi = analysis.variables[depth]
    row = values[fi]
    watchers = analysis.watchers[depth]
    for value in analysis.domains[fi]:
        progress.tick()
        row[pi] = value
        for check in watchers:
            if check(types, values) is False:
                break
        else:
            _descend(analysis, progress, types, values, found, depth + 1)
    row[pi] = UNKNOWN


def _build_report(puzzle: PuzzleSpec,
                  world: World) -> tuple[ReportRow, ...]:
    guilt_category = None
    if puzzle.extraction is not None:
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
    """Decode every utterance of a consistent world into a guaranteed fact.

    A step's body holds in the world exactly when `Step.required` says
    its speaker's type needs it to, so the fact is the body or its
    negation; a NO answer to ``not S`` decodes to S.
    """
    check = check_world(puzzle, world)
    if not check:
        raise SemanticError(f"world is not consistent: {check.message}")
    steps = []
    for step in puzzle.transcript:
        type_ = world.types[step.person_index]
        truthful, sane = type_.phases[step.count % 2]
        fact = st.substitute_me(step.body, step.person)
        if not step.required(type_):
            fact = (fact.body if step.answer is Answer.NO
                    and isinstance(fact, Not) else Not(fact))
        if step.answer is None:
            spoken = f"says {step.label}"
        else:
            spoken = f"\"{step.label}\" answered {step.answer.value}"
        steps.append(DerivationStep(step.round_index, step.person, truthful,
                                    sane, spoken, fact))
    return tuple(steps)
