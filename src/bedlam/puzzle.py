"""Puzzle specifications: persons, fluents, axioms, and transcript rounds.

`PuzzleSpec._walk` is the one pass that checks and compiles a spec,
however it was built: in reading order, its declarations, each axiom,
each round's persons and utterances, and its extraction section.  Every
fault of the spec itself raises SemanticError there, so `validate` only
runs it.  It yields `transcript` and the checks `compiled` holds for each
axiom and utterance.  Only here does the phase rule meet compiled code:
an utterance is compiled with `Step.required_by_type`, so its check
holds it to what its speaker's type requires.  `check_world`, `bedlam
simulate` and the solver run these checks as they are.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter
from typing import Optional, Union

from . import statements as st
from .extraction import (ExtractionConfig, SANITY_CATEGORY,
                         TRUTHFULNESS_CATEGORY)
from .semantics import ALL_TYPES, Answer, ExtendedType, asserted_truth
from .statements import Believes, SemanticError, Statement
from .worlds import FluentDecl


def _where(where: str, run, *args):
    """`run(*args)`, its SemanticError prefixed with `where`."""
    try:
        return run(*args)
    except SemanticError as exc:
        raise SemanticError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class QuestionRound:
    """One yes/no question put to a set of persons, with recorded answers.

    Answers align one-to-one with the addressed tuple.
    """

    label: str
    statement: Statement
    addressed: tuple[str, ...]
    answers: tuple[Answer, ...]


@dataclass(frozen=True)
class StatementsRound:
    """A round of volunteered statements, in speaking order."""

    utterances: tuple[tuple[str, Statement], ...]


Round = Union[QuestionRound, StatementsRound]


@dataclass(frozen=True)
class Step:
    """One utterance of the transcript, peeled and numbered for its speaker."""

    round_index: int
    person: str
    person_index: int
    count: int                # the speaker's utterance ordinal
    body: Statement           # believes wrapper peeled off
    is_belief: bool
    answer: Optional[Answer]  # None for volunteered statements
    label: str                # question label or rendered statement

    def required(self, type_: ExtendedType) -> bool:
        """The truth value the body must have for a `type_` speaker."""
        return self.required_by_type[type_.index]

    @property
    def required_by_type(self) -> tuple[bool, ...]:
        """`required` for each type, by `ExtendedType.index`: the table
        the step's compiled check reads its speaker's wanted value from."""
        return _REQUIRED_BY_TYPE[self.count % 2, self.is_belief,
                                 self.answer is Answer.NO]


# `Step.required_by_type` by (ordinal parity, is_belief, answered no): the
# eight kinds of step that the phase rule tells apart.
_REQUIRED_BY_TYPE = {
    (parity, is_belief, answered_no): tuple(
        asserted_truth(type_, parity, is_belief) != answered_no
        for type_ in ALL_TYPES)
    for parity in (0, 1) for is_belief in (False, True)
    for answered_no in (False, True)}


@dataclass(frozen=True)
class PuzzleSpec:
    """Everything a puzzle file declares, validated and immutable."""

    person_names: tuple[str, ...]
    fluent_decls: tuple[FluentDecl, ...]
    axioms: tuple[Statement, ...]
    rounds: tuple[Round, ...]
    extraction: Optional[ExtractionConfig] = None

    # Getters in C, with no Python frame: `check_world` reads `checks` on
    # every call.
    transcript = property(attrgetter("_walked.steps"), doc="""
        Every utterance in reading order, numbered per speaker.""")
    compiled = property(attrgetter("_walked.compiled"), doc="""
        `(axioms, steps)`: `compile_statement`'s `(check, reads, typed,
        watch)` for each axiom and, in `transcript` order, each step's
        body held to `Step.required_by_type`.  An axiom's check is False
        once the rows make it false, and a step's once they make its body
        differ from what its speaker's type requires; its `typed`
        includes the speaker, whose type it reads through that table as
        well as through any builtin named there.  Only the solver's
        fluent search calls `watch()`, for the slots it runs the check at
        and what it runs at each.
        """)
    checks = property(attrgetter("_walked.checks"), doc="""
        The check of each entry of `compiled`, axioms then steps, in
        `compiled` order: the one loop `check_world` runs.""")

    @cached_property
    def _walked(self) -> _Walked:
        """`_walk`'s steps and checks, walked in each thread on first use
        there.

        Per thread because a compiled check writes its quantifiers'
        persons, and the value it wants, into cells of its own, so two
        threads must not run one check at once.  A thread's walk cannot
        fail where an earlier one passed.  The walks hold the spec by weak
        reference, so they make no cycle for the collector.
        """
        return _Walked(weakref.ref(self))

    def __getstate__(self) -> dict:
        """Pickle and copy the fields only; a copy walks on first use."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def validate(self) -> None:
        """Raise SemanticError on the first declaration, axiom, round or
        extraction inconsistency, in reading order: the spec's walk, run
        once."""
        self.transcript

    def _walk(self) -> tuple[tuple[Step, ...], tuple[tuple, tuple]]:
        """The one pass that checks and compiles the spec, in reading
        order, raising SemanticError on its first fault: the
        declarations; each axiom, compiled with its `axiom i` prefix; the
        rounds; the extraction section.

        A round's persons are checked, then each utterance is peeled,
        compiled for its speaker and numbered before the next is checked.
        A question is peeled once for all it is put to.  Returns the
        steps and the `(axioms, steps)` checks.
        """
        names, decls = self.person_names, self.fluent_decls
        if len(set(names)) != len(names):
            raise SemanticError("duplicate person name")
        fluent_names = [d.name for d in decls]
        if len(set(fluent_names)) != len(fluent_names):
            raise SemanticError("duplicate fluent name")
        for name in fluent_names:
            if name in st.BUILTIN_PREDICATES:
                raise SemanticError(
                    f"fluent '{name}' shadows a builtin predicate")
        axioms = []
        for i, axiom in enumerate(self.axioms):
            where = f"axiom {i + 1}"
            nodes = list(st.walk(axiom))
            if any(isinstance(n, Believes) for n in nodes):
                raise SemanticError(f"{where}: axioms cannot contain believes")
            if any(isinstance(n, st.Atom) and isinstance(n.term, st.Me)
                   for n in nodes):
                raise SemanticError(f"{where}: axioms have no speaker for 'me'")
            axioms.append(_where(where, st.compile_statement, axiom, None,
                                 names, decls))
        index = {name: k for k, name in enumerate(names)}
        counts = [0] * len(names)
        steps, checks = [], []

        def say(ri, person, body, is_belief, answer, label, where):
            pi = index[person]
            step = Step(ri, person, pi, counts[pi], body, is_belief, answer,
                        label)
            checks.append(_where(where, st.compile_statement, body, person,
                                 names, decls, step.required_by_type))
            steps.append(step)
            counts[pi] += 1

        for ri, rnd in enumerate(self.rounds):
            where = f"round {ri}"
            if isinstance(rnd, QuestionRound):
                if len(rnd.answers) != len(rnd.addressed):
                    raise SemanticError(
                        f"{where}: answers must cover exactly the addressed persons")
                if len(set(rnd.addressed)) != len(rnd.addressed):
                    raise SemanticError(f"{where}: person addressed twice")
                for person in rnd.addressed:
                    if person not in index:
                        raise SemanticError(
                            f"{where}: unknown person '{person}'")
                body, is_belief = _where(where, st.peel_believes,
                                         rnd.statement)
                if not rnd.addressed:
                    # A question put to no one is still checked, without `me`.
                    _where(where, st.compile_statement, body, None, names,
                           decls)
                for person, answer in zip(rnd.addressed, rnd.answers):
                    say(ri, person, body, is_belief, answer, rnd.label, where)
            else:
                seen = set()
                for speaker, stmt in rnd.utterances:
                    if speaker not in index:
                        raise SemanticError(
                            f"{where}: unknown speaker '{speaker}'")
                    if speaker in seen:
                        raise SemanticError(
                            f"{where}: '{speaker}' speaks twice in one round")
                    seen.add(speaker)
                    said = f"{where}, {speaker}"
                    body, is_belief = _where(said, st.peel_believes, stmt)
                    say(ri, speaker, body, is_belief, None,
                        st.render_peeled(body, is_belief), said)
        for cat in self.extraction.categories if self.extraction else ():
            if cat.name in (SANITY_CATEGORY, TRUTHFULNESS_CATEGORY):
                continue
            decl = next((d for d in decls if d.name == cat.name), None)
            if decl is None:
                raise SemanticError(f"extraction category '{cat.name}' "
                                    "names no declared fluent")
            if decl.is_boolean or set(decl.domain) != set(cat.values):
                raise SemanticError(
                    f"extraction category '{cat.name}' must list exactly the "
                    "fluent's three declared values")
        return tuple(steps), (tuple(axioms), tuple(checks))


class _Walked(threading.local):
    """`PuzzleSpec._walked`: a `threading.local` runs `__init__` again in
    each thread that first reads it."""

    def __init__(self, spec: weakref.ref):
        self.steps, self.compiled = spec()._walk()
        axioms, steps = self.compiled
        self.checks = tuple([check for check, _, _, _ in axioms + steps])
