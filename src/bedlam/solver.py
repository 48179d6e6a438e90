"""World enumeration: consistency checking, staged search, derivations.

`check_world` replays a puzzle's transcript against one world and is the
single definition of consistency.  Every path runs the checks
`PuzzleSpec.compiled` holds, as they are.  A check says only whether the
rows rule out the value its statement must take, so on a world's full
rows it says whether the world keeps that constraint, and in the search
only a False check prunes.

`brute_force_solve`, the oracle for small puzzles, is `check_world`
filtered over the whole world space.  Its loop stays one flat product in
canonical order, but each check runs at the outermost level whose rows
it reads (by the `reads` and `typed` laws), and a `World` is built,
trusted, and decided by `check_world`, only where every check passed.

`solve_all` must agree with the oracle wherever the space is enumerable,
and its worlds come out sorted because `_Search`, which states its stages
and the type classes they share, visits them in canonical order.

Where `World`'s own checks cannot fail, on types from `ALL_TYPES` and
rows built from each fluent's values, worlds are built without them, a
type combination's at a time (`worlds._trusted_worlds`): by the search
for the worlds it copies from a reused subtree, by the oracle for the
worlds it keeps, and by `enumerate_worlds`.  A fluent search's leaves
build through `World`, so the search checks each world it finds there
once, in full; a world copied from a reused subtree shares the rows of
the world it copies.

Both solvers pause the cyclic garbage collector while their world list
fills: a `World` is in no reference cycle, so reference counting frees
it (as `test_found_worlds_die_with_their_result` pins), and a collection
while the list grew would only scan the kept worlds again.

`explain_solution` decodes each utterance's fact with `Step.required`,
which reads the table the step checks read.
"""

from __future__ import annotations

import gc
import itertools
import math
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from . import statements as st
from .extraction import SANITY_CATEGORY, TRUTHFULNESS_CATEGORY
from .puzzle import PuzzleSpec
from .semantics import ALL_TYPES, Answer, ExtendedType
from .statements import SemanticError, UNKNOWN, render_statement
from .worlds import World, _trusted_worlds

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
    per fluent value tried; a reused subtree counts its nodes again.  One
    counter, `_Search.tick`, counts them and checks the node budget.
    `fluent_searches` counts the fluent searches run from their root: one
    per combination of type classes (`_Search`) where subtrees are shared,
    else one per type combination searched.  A reused subtree is not
    searched again.
    """

    nodes: int = 0
    elapsed: float = 0.0
    worlds_found: int = 0
    fluent_searches: int = 0


class BudgetExceededError(Exception):
    """The search hit its node or time limit, or nested deeper than
    Python's recursion limit, before finishing."""

    def __init__(self, message: str, statistics: SolveStatistics):
        super().__init__(message)
        self.statistics = statistics

    def __reduce__(self):
        return type(self), (str(self), self.statistics)


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

    The first violation found, in round order, is reported.  One loop runs
    `PuzzleSpec.checks`, the axioms' compiled checks and then the steps',
    on the world's rows, where no slot is UNKNOWN.  Only a check that
    fails is traced back to its axiom or step.  A world built for the
    puzzle shares its person and fluent tuples, so each is compared by
    identity before equality.
    """
    names, decls = world.person_names, world.fluent_decls
    if names is not puzzle.person_names and names != puzzle.person_names:
        raise SemanticError("world persons do not match the puzzle")
    if decls is not puzzle.fluent_decls and decls != puzzle.fluent_decls:
        raise SemanticError("world fluents do not match the puzzle")
    types, values = world.types, world.fluent_values
    checks = puzzle.checks
    for check in checks:
        if not check(types, values):
            # An equal check earlier in `checks` would have failed first.
            return _violation(puzzle, checks.index(check), types)
    return _CONSISTENT


def _violation(puzzle: PuzzleSpec, k: int,
               types: tuple[ExtendedType, ...]) -> CheckResult:
    """What `check_world` reports when entry `k` of `PuzzleSpec.checks`
    fails on a world of these `types`: an axiom, or a step whose speaker
    could not have made it."""
    axioms = puzzle.axioms
    if k < len(axioms):
        return CheckResult(False, None, None, f"axiom {k + 1} is violated: "
                           f"{render_statement(axioms[k])}")
    step = puzzle.transcript[k - len(axioms)]
    label = types[step.person_index].label
    if step.answer is None:
        message = (f"round {step.round_index}: {step.person} "
                   f"({label}) would not say: {step.label}")
    else:
        would = "no" if step.answer is Answer.YES else "yes"
        message = (f"round {step.round_index}: {step.person} answered "
                   f"{step.answer.value} to \"{step.label}\" but a "
                   f"{label} in this world would answer {would}")
    return CheckResult(False, step.round_index, step.person, message)


class _GCPause:
    """Holds off the cyclic garbage collector while a solve fills its
    world list.

    The collector is one per process, so one instance serves every
    thread: the first to enter disables it, and the last to leave enables
    it again only if it was enabled when the first entered.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()


_no_gc = _GCPause()


# --- Brute-force oracle ---

def _assignments(puzzle: PuzzleSpec) -> list[tuple[tuple, ...]]:
    """Every fluent assignment, in canonical order: one row per fluent,
    each a tuple of values from its `values()`, one per person.  Each is
    built once, so the worlds of every type combination share its rows."""
    n = len(puzzle.person_names)
    return list(itertools.product(*[
        tuple(itertools.product(decl.values(), repeat=n))
        for decl in puzzle.fluent_decls]))


def enumerate_worlds(puzzle: PuzzleSpec) -> Iterator[World]:
    """Every possible world, in canonical order: type combinations, and
    under each every fluent assignment.  Each combination's worlds are
    built trusted (`worlds._trusted_worlds`), as their types come from
    `ALL_TYPES` and their rows from `_assignments`."""
    names, decls = puzzle.person_names, puzzle.fluent_decls
    assignments = _assignments(puzzle)
    for types in itertools.product(ALL_TYPES, repeat=len(names)):
        yield from _trusted_worlds(names, types, decls, assignments)


def brute_force_solve(puzzle: PuzzleSpec) -> tuple[World, ...]:
    """The worlds of `enumerate_worlds` that `check_world` accepts, in
    its order.  Only viable when the space is small.

    The loop stays `enumerate_worlds`' flat product, and each compiled
    check runs at the outermost level whose rows it reads, by the
    `reads` and `typed` that `PuzzleSpec.compiled` reports:
    - one that reads no type (only an axiom can: a step reads its
      speaker's) filters the fluent assignments once, before the loop;
    - one that reads no fluent slot runs once per type combination, on
      its first assignment, and a failure skips the combination;
    - every other runs on each (types, assignment) pair, and a failure
      skips the pair.
    A check run at an outer level answers as it would on every pair
    below it, since it reads nothing that the inner loops change, so it
    skips only worlds that `check_world` rejects.  Where no check runs
    per pair, every assignment left passes under a combination kept.
    A `World` is built only for a pair that passes every check, a
    combination's at once and trusted (`worlds._trusted_worlds`): its
    types come from `ALL_TYPES`, one per person, and its rows from
    `_assignments`, so `World`'s own checks could not fail.
    `check_world`, the one definition of consistency, still decides each:
    a world returned is one it accepted.  The kept worlds fill a list,
    returned as a tuple, while the cyclic garbage collector is paused, as
    in `solve_all`.
    """
    names, decls = puzzle.person_names, puzzle.fluent_decls
    axioms, steps = puzzle.compiled
    assignments = _assignments(puzzle)
    some_types = (ALL_TYPES[0],) * len(names)
    per_types, per_pair = [], []
    for check, reads, typed, _ in axioms + steps:
        if not typed:
            assignments = [values for values in assignments
                           if check(some_types, values)]
        elif reads:
            per_pair.append(check)
        else:
            per_types.append(check)

    if not assignments:
        return ()
    first, kept = assignments[0], []
    with _no_gc:
        for types in itertools.product(ALL_TYPES, repeat=len(names)):
            for check in per_types:
                if not check(types, first):
                    break
            else:
                rows = assignments
                if per_pair:
                    rows = []
                    for values in assignments:
                        for check in per_pair:
                            if not check(types, values):
                                break
                        else:
                            rows.append(values)
                kept += [world for world in _trusted_worlds(
                             names, types, decls, rows)
                         if check_world(puzzle, world)]
        return tuple(kept)


# --- Staged search ---

def solve_all(puzzle: PuzzleSpec, budget: Optional[Budget] = None) -> SolveResult:
    """All worlds consistent with the puzzle, canonically ordered.

    The search is serial: type candidates follow `ALL_TYPES` order and
    fluent variables run fluent-major, person-minor, so worlds come out in
    `World.sort_key` order without a sort.  Exceeding the budget raises
    BudgetExceededError; it never truncates silently.
    """
    search = _Search(puzzle, budget or Budget())
    worlds = search.run()
    if not worlds:
        status = SolveStatus.NONE
    elif len(worlds) == 1:
        status = SolveStatus.UNIQUE
    else:
        status = SolveStatus.MULTIPLE
    report = _build_report(puzzle, worlds[0]) if status is SolveStatus.UNIQUE else None
    return SolveResult(status, tuple(worlds), report, search.statistics())


class _Search:
    """One solve: the puzzle's checks, filed where each is decided, the
    rows they run on, the worlds found and the node and time budget.

    The search runs three stages, each check at the first point where it
    is decided, by the fluent slots and types that `PuzzleSpec.compiled`
    reports it reads; each runs over the `types` and `values` rows.  A
    check that reads no fluent slot is fluent-free, and one that reads one
    person p's type alone, step or axiom, leaves p the `candidates[p]` it
    allows.  Of the other fluent-free checks, `decided[p]` holds those
    whose last type read is person p's, decided as soon as types up to p
    are set.  Of each typed person's type such a check reads only its
    class, the builtins `typed` names for the person and, for the speaker,
    `Step.required_by_type`; so it runs once per combination of those
    classes, and keeps its outcomes by the classes of the persons before
    p.  `constant` holds those that read no type at all, run once per
    solve.  `watchers[v]` holds what runs once fluent slot v is assigned:
    the run at v of each fluent check's `watch()` list, which says, by
    the laws `compile_statement` states, where the check runs and what
    runs there.

    Once every person is typed, the fluent search runs on `types`.  Only
    the watched checks run there, and they too read of person p's type
    only the builtins their `typed` names for p and, for p's steps,
    `Step.required_by_type`.  Types alike in all of those share a class:
    `candidate_classes[p]` gives the class of each of p's candidates, and
    `classes` that of each of `types`.  Both stages take a class table,
    by type index, for each such reading, built once per solve.  So on any
    type combination the search finds the same rows, in the same order,
    over the same nodes as on any other whose persons' types fall in the
    same classes.  `subtrees` maps a combination's classes to what its
    search found: the worlds `found[first:end]` and the `nodes` it
    counted, as `(first, end, nodes)`.  It is None, and each combination
    is searched, when there is no fluent slot to search or no two
    candidates of any person share a class, so no two combinations could
    share a search.

    `tick(count)` is the one node counter.  It counts as
    `SolveStatistics.nodes` says: one node, or at once the `count` of a
    ruled-out prefix or a reused subtree.  It checks the budget whenever
    the count reaches or passes a multiple of 2,048.  `statistics()`
    reports the search so far, to the result and to a budget abort alike.
    """

    _CHECK_EVERY = 2048

    def __init__(self, puzzle: PuzzleSpec, budget: Budget):
        self.started = time.perf_counter()
        self.puzzle, self.budget = puzzle, budget
        names = puzzle.person_names
        self.domains = [d.values() for d in puzzle.fluent_decls]
        # Search variables: one per (fluent, person), declaration order,
        # so (f, p) is slot f * n + p, as a compiled check's `watch()`
        # numbers them.
        self.variables = list(itertools.product(
            range(len(self.domains)), range(len(names))))
        axioms, steps = puzzle.compiled
        local: list[list] = [[] for _ in names]  # one-person type checks
        # A quantified fluent atom reads its fluent for every person, so in
        # a puzzle without persons it reads nothing and is fluent-free.
        shared = []  # (check, reading) of the other fluent-free ones
        self.constant = []
        self.watchers: list[list] = [[] for _ in self.variables]
        searched = [frozenset()] * len(names)  # what the watchers read
        for (check, reads, typed, watch), step in zip(
                steps + axioms, puzzle.transcript + (None,) * len(axioms)):
            if reads:
                watched = watch()
                if not watched:
                    continue
                for v, run in watched:
                    self.watchers[v].append(run)
            elif not typed:
                self.constant.append(check)
                continue
            elif len(typed) == 1:
                local[max(typed)].append(check)
                continue
            # The check's reading of each typed person's type, as tables
            # by type index: the builtins `typed` names, and for a step's
            # speaker the value the step wants.
            reading = {p: frozenset([_BUILTIN_TABLES[name] for name in read])
                       for p, read in typed.items()}
            if step is not None:
                reading[step.person_index] |= {step.required_by_type}
            if reads:
                for p, read in reading.items():
                    searched[p] |= read
            else:
                shared.append((check, reading))
        # Each type is tried with everyone given it, since quantifiers
        # range over everyone, as in `atleast 2 x . patient(me)`.  A check
        # that reads no fluent slot needs no row.
        self.candidates: list[list[ExtendedType]] = [[] for _ in names]
        for t in ALL_TYPES:
            row = (t,) * len(names)
            for person_checks, kept in zip(local, self.candidates):
                if all(check(row, ()) for check in person_checks):
                    kept.append(t)
        # One class table, by type index, per reading.
        tables = {read: _classes(read) for read in {*searched, *[
            read for _, reading in shared for read in reading.values()]}}
        # `decided[last]` files a shared check as `(check, prefix, mine,
        # memo)`: the typed persons before `last`, each with its class
        # table; the class of each of `last`'s candidates; and its
        # outcomes by the prefix's classes.
        self.decided: list[list] = [[] for _ in names]
        for check, reading in shared:
            last = max(reading)
            self.decided[last].append((
                check, [(q, tables[read]) for q, read in reading.items()
                        if q < last],
                [tables[reading[last]][t.index]
                 for t in self.candidates[last]], {}))
        # Type combinations under one type of person p: a prefix ruled
        # out there skips that many.
        self.below = [math.prod(map(len, self.candidates[p + 1:]))
                      for p in range(len(names))]
        # No fluent-free check reads a type from person `typed` on, so
        # the search takes those types as one product.
        self.typed = max((p + 1 for p, checks in enumerate(self.decided)
                          if checks), default=0)
        # `candidate_classes[p]` gives the class of each of p's candidates
        # for the fluent search.
        self.candidate_classes = [
            [tables[read][t.index] for t in candidates]
            for read, candidates in zip(searched, self.candidates)]
        self.subtrees: Optional[dict[tuple, tuple]] = (
            {} if self.variables and any(
                len(set(classes)) < len(classes)
                for classes in self.candidate_classes)
            else None)
        self.types = [None] * len(names)
        self.classes = [None] * len(names)  # the class of each of `types`
        self.values = [[UNKNOWN] * len(names) for _ in self.domains]
        self.found: list[World] = []
        self.nodes = self.searches = 0

    def run(self) -> list[World]:
        """Every consistent world, in `World.sort_key` order."""
        with _no_gc:
            if all(self.candidates):
                if not all(check(self.types, self.values)
                           for check in self.constant):
                    # Only a puzzle without persons has such a check, and
                    # its one, empty, combination is ruled out.
                    self.tick()
                else:
                    try:
                        self._choose(0)
                    except RecursionError:
                        # A frame per typed person and per fluent slot.
                        raise BudgetExceededError(
                            "search nests deeper than Python's recursion "
                            "limit", self.statistics()) from None
                self.check()
        return self.found

    def _choose(self, p: int) -> None:
        """Type persons from `p` on, skipping each prefix a check rules out.

        Every complete type combination counts as one node, whether it is
        searched or skipped with its prefix.
        """
        types = self.types
        if p == len(types):  # every person typed: one combination
            self.tick()
            if self.subtrees is None:
                self._search()
            else:
                self._search_once(tuple(self.classes))
            return
        if p == self.typed:
            # One product for the rest: recursing to the last person instead
            # cost the asylum benchmark 5-8% of ops/s in 7 of 7 paired runs.
            rests = itertools.product(*self.candidates[p:])
            if self.subtrees is None:  # no two share a search
                for rest in rests:
                    self.tick()
                    types[p:] = rest
                    self._search()
                return
            key = tuple(self.classes[:p])
            for rest, classes in zip(rests, itertools.product(
                    *self.candidate_classes[p:])):
                self.tick()
                types[p:] = rest
                self._search_once(key + classes)
            return
        values, below = self.values, self.below[p]
        # Each check with its outcomes under this prefix, by class of p's
        # type, None where not yet run, and the class of each of p's
        # candidates.
        checks = [(check, memo.setdefault(
                       tuple([class_of[types[q].index]
                              for q, class_of in prefix]),
                       [None] * len(ALL_TYPES)), mine)
                  for check, prefix, mine, memo in self.decided[p]]
        classes, candidate_classes = self.classes, self.candidate_classes[p]
        for i, t in enumerate(self.candidates[p]):
            types[p], classes[p] = t, candidate_classes[i]
            for check, outcomes, mine in checks:
                ok = outcomes[mine[i]]
                if ok is None:
                    ok = outcomes[mine[i]] = check(types, values)
                if not ok:
                    self.tick(below)
                    break
            else:
                self._choose(p + 1)

    def _search_once(self, key: tuple) -> None:
        """`_search`, once per `key`, the classes of `types`: a type
        combination whose classes were searched before takes the rows of
        the worlds found then, in worlds built trusted, and counts their
        nodes again."""
        subtree = self.subtrees.get(key)
        found = self.found
        if subtree is None:
            nodes, first = self.nodes, len(found)
            self._search()
            self.subtrees[key] = (first, len(found), self.nodes - nodes)
            return
        first, end, nodes = subtree
        self.tick(nodes)
        names, decls = self.puzzle.person_names, self.puzzle.fluent_decls
        types = tuple(self.types)
        found += _trusted_worlds(names, types, decls, [
            world.fluent_values for world in found[first:end]])

    def _search(self) -> None:
        """The fluent search of `types`, from its root."""
        self.searches += 1
        self._descend(0)

    def _descend(self, depth: int) -> None:
        """Assign variables from `depth` on, keeping worlds that pass."""
        types, values = self.types, self.values
        if depth == len(self.variables):
            puzzle = self.puzzle
            self.found.append(World(puzzle.person_names, tuple(types),
                                    puzzle.fluent_decls,
                                    tuple(map(tuple, values))))
            return
        fi, pi = self.variables[depth]
        row = values[fi]
        watchers = self.watchers[depth]
        for value in self.domains[fi]:
            self.tick()
            row[pi] = value
            for check in watchers:
                if not check(types, values):
                    break
            else:
                self._descend(depth + 1)
        row[pi] = UNKNOWN

    def tick(self, count: int = 1) -> None:
        """Count `count` nodes, and check the budget if the count reached
        or passed a multiple of `_CHECK_EVERY`."""
        self.nodes += count
        if self.nodes % self._CHECK_EVERY < count:
            self.check()

    def check(self) -> None:
        """Raise BudgetExceededError once a limit is passed."""
        if self.nodes > self.budget.max_nodes:
            limit = f"node budget of {self.budget.max_nodes}"
        elif time.perf_counter() - self.started > self.budget.max_seconds:
            limit = f"time budget of {self.budget.max_seconds}s"
        else:
            return
        raise BudgetExceededError(f"{limit} exceeded", self.statistics())

    def statistics(self) -> SolveStatistics:
        return SolveStatistics(
            nodes=self.nodes, elapsed=time.perf_counter() - self.started,
            worlds_found=len(self.found), fluent_searches=self.searches)


# Each builtin predicate's value for each type, by type index.
_BUILTIN_TABLES = {predicate: tuple(t.builtins[predicate] for t in ALL_TYPES)
                   for predicate in st.BUILTIN_PREDICATES}


def _classes(tables) -> list[int]:
    """The class of each type, by type index, for checks that read of it
    the `tables`, each a value by type index: types that every table maps
    alike share a class, and the classes are numbered from 0 up."""
    ids: dict[tuple, int] = {}
    return [ids.setdefault(values, len(ids))
            for values in list(zip(*tables)) or [()] * len(ALL_TYPES)]


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
    fact: st.Statement

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
                    and isinstance(fact, st.Not) else st.Not(fact))
        if step.answer is None:
            spoken = f"says {step.label}"
        else:
            spoken = f"\"{step.label}\" answered {step.answer.value}"
        steps.append(DerivationStep(step.round_index, step.person, truthful,
                                    sane, spoken, fact))
    return tuple(steps)
