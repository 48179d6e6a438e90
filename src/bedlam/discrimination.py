"""Question-sequence signatures and the type partitions they induce.

A signature is the string of Y/N answers one behavioral type gives to a
fixed list of self-referential questions: the i-th answer is Y exactly
when `would_assert` holds at the answerer's i-th utterance.  The phase
letters of the type passed in (or reported back) always describe the
answerer at the moment the first listed question is asked; callers
holding transcript-anchored types convert with ``ExtendedType.advanced``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import (ALL_TYPES, AgentState, Answer, ExtendedType,
                        TYPES_BY_LABEL, would_assert)
from .statements import (AtLeast, Atom, BUILTIN_PREDICATES, Believes, Exists,
                         ForAll, ME, Person, Statement, walk)
from .worlds import World

SUBJECT = "subject"

# The two classic probes: a fact about oneself, and the belief report on it.
PATIENT_QUESTION: Statement = Atom("patient", ME)
BELIEF_QUESTION: Statement = Believes(Atom("patient", ME))

FOUR_QUESTION_PLAN = (PATIENT_QUESTION, PATIENT_QUESTION,
                      BELIEF_QUESTION, BELIEF_QUESTION)
THREE_QUESTION_PLAN = (PATIENT_QUESTION, PATIENT_QUESTION, BELIEF_QUESTION)
TWO_QUESTION_PLAN = (PATIENT_QUESTION, BELIEF_QUESTION)


class UnsupportedQuestionError(Exception):
    """The question cannot be answered from the answerer's type alone."""


def answer_signature(type_: ExtendedType, questions) -> str:
    """Y/N answers this type gives to the questions, as one string."""
    questions = tuple(questions)
    _check_questions(questions)
    world = World((SUBJECT,), (type_,))
    return "".join(
        "Y" if would_assert(AgentState(type_, i), world, question, SUBJECT)
        else "N" for i, question in enumerate(questions))


def _check_questions(questions: tuple[Statement, ...]) -> None:
    for question in questions:
        nodes = list(walk(question))
        fluent = min((n.predicate for n in nodes if isinstance(n, Atom)
                      and n.predicate not in BUILTIN_PREDICATES), default=None)
        if fluent is not None:
            raise UnsupportedQuestionError(
                "questions must be answerable from the type alone; "
                f"'{fluent}' is a fluent")
        for node in nodes:
            if isinstance(node, Atom) and isinstance(node.term, Person):
                raise UnsupportedQuestionError(
                    "questions must be answerable from the type alone; "
                    f"'{node.term.name}' is a named person")
            if isinstance(node, (Exists, ForAll, AtLeast)):
                raise UnsupportedQuestionError(
                    "questions must be answerable from the type alone; "
                    f"'{node.var}' ranges over every person")


@dataclass(frozen=True)
class TypePartition:
    """Types grouped by their signature under one question list."""

    classes: tuple[tuple[str, tuple[ExtendedType, ...]], ...]

    @property
    def is_discrete(self) -> bool:
        return all(len(types) == 1 for _, types in self.classes)


def partition_types(questions) -> TypePartition:
    """Group all sixteen types by signature; classes keep canonical order."""
    questions = tuple(questions)
    groups: dict[str, list[ExtendedType]] = {}
    for t in ALL_TYPES:
        groups.setdefault(answer_signature(t, questions), []).append(t)
    # Built in `ALL_TYPES` order, the classes come first-member first.
    return TypePartition(tuple((sig, tuple(ts)) for sig, ts in groups.items()))


def filter_types_by_signature(questions, answers) -> frozenset[ExtendedType]:
    """Types whose answers to the questions match the recorded ones."""
    questions = tuple(questions)
    signature = _as_signature(answers)
    if len(signature) != len(questions):
        raise ValueError(
            f"{len(signature)} answers recorded for "
            f"{len(questions)} questions")
    return frozenset(dict(partition_types(questions).classes).get(signature, ()))


def _as_signature(answers) -> str:
    if isinstance(answers, str):
        signature = answers.upper()
    else:
        signature = "".join(
            a.letter if isinstance(a, Answer) else str(a).upper()
            for a in answers)
    if any(c not in "YN" for c in signature):
        raise ValueError(f"not a Y/N signature: {answers!r}")
    return signature


# --- Fixed-layout table rendering ---

# The widely circulated two-question table swaps the liar rows' belief
# answers; the collapse rule (and the four-question table) disagree.
LEGACY_TWO_QUESTION_SIGNATURES = {"ST": "NN", "SL": "YN", "DT": "NY", "DL": "YY"}
NON_SWITCHING_LABELS = tuple(t.label for t in ALL_TYPES
                             if t.phases[0] == t.phases[1])


def two_question_table() -> dict[str, str]:
    """Signatures of the four non-switching types under [fact, belief]."""
    return {label: answer_signature(TYPES_BY_LABEL[label], TWO_QUESTION_PLAN)
            for label in NON_SWITCHING_LABELS}


def tables_report() -> str:
    """The three reference tables in a fixed, golden-comparable layout."""
    out = []
    out.append("Two-question signatures [are you a patient? / "
               "do you believe you are a patient?]")
    out.append("(non-switching types only)")
    out.append("")
    engine = two_question_table()
    for label in NON_SWITCHING_LABELS:
        mark = "  (*)" if engine[label] != LEGACY_TWO_QUESTION_SIGNATURES[label] else ""
        out.append(f"  {label:<3} {engine[label]}{mark}")
    out.append("")
    out.append("(*) Often tabulated the other way around (SL=YN, DL=YY);")
    out.append("    the belief-collapse rule gives the values above, in")
    out.append("    agreement with the four-question table that follows.")
    out.append("")
    out.append("Four-question signatures [patient?, patient?, believe?, believe?]")
    out.append("")
    header = "       " + "  ".join(f"{t.label:<4}" for t in ALL_TYPES)
    out.append(header.rstrip())
    rows = [answer_signature(t, FOUR_QUESTION_PLAN) for t in ALL_TYPES]
    for q in range(4):
        cells = "  ".join(f"{rows[i][q]:<4}" for i in range(len(ALL_TYPES)))
        out.append(f"  q{q + 1}:  {cells}".rstrip())
    out.append("")
    for t, row in zip(ALL_TYPES, rows):
        out.append(f"  {t.label:<4} {row}")
    out.append("")
    out.append("Three-question partition [patient?, patient?, believe?],")
    out.append("asked after one earlier utterance; labels give the state at")
    out.append("the first of the three questions")
    out.append("")
    partition = partition_types(THREE_QUESTION_PLAN)
    for signature, types in partition.classes:
        names = ", ".join(t.label for t in types)
        out.append(f"  {signature} → {names}")
    out.append("")
    return "\n".join(out)
