"""Agent behavior: the sixteen extended types and their assertion rules.

A person combines a truthfulness class (truth-teller, liar, alternator)
with a sanity class (sane, delusional, partial).  Alternators flip
between telling the truth and lying on every utterance of their own;
partials flip between sane and insane belief states the same way.  The
two phase flags anchor those toggles at the person's first utterance in
a transcript, giving sixteen distinct behavioral types.

Belief distortion is exact negation: an insane state believes precisely
the false facts.  Two consequences drive everything else here:

* a bare statement is asserted exactly when
  ``(truthful_now == sane_now) == value``, and
* a belief report ``believes(S)`` is asserted exactly when
  ``truthful_now == value(S)``, with sanity cancelling out.

`asserted_truth` is the one place that rule lives; a transcript's
`puzzle.Step.required` and a lone utterance's `would_assert` read it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional

from .statements import Statement, eval_closed, peel_believes


class Sanity(Enum):
    SANE = "sane"
    DELUSIONAL = "delusional"
    PARTIAL = "partial"


class Truthfulness(Enum):
    TRUTHTELLER = "truth-teller"
    LIAR = "liar"
    ALTERNATOR = "alternator"


class Answer(Enum):
    YES = "yes"
    NO = "no"

    @property
    def letter(self) -> str:
        return "Y" if self is Answer.YES else "N"


# Each class's label letters by its start flag (sane or truthful at the
# first utterance), in ALL_TYPES order: only a partial or an alternator
# may start in either phase.
_SANITY_LETTERS = {(Sanity.SANE, True): "S", (Sanity.DELUSIONAL, False): "D",
                   (Sanity.PARTIAL, False): "Pi", (Sanity.PARTIAL, True): "Ps"}
_TRUTH_LETTERS = {(Truthfulness.TRUTHTELLER, True): "T",
                  (Truthfulness.LIAR, False): "L",
                  (Truthfulness.ALTERNATOR, True): "At",
                  (Truthfulness.ALTERNATOR, False): "Al"}
# Why a class with one start flag refuses the other.
_START_RULES = {Truthfulness.TRUTHTELLER: "truth-tellers start truthful",
                Truthfulness.LIAR: "liars start lying",
                Sanity.SANE: "sane people start sane",
                Sanity.DELUSIONAL: "delusional people start insane"}


@dataclass(frozen=True)
class ExtendedType:
    """Sanity class, truthfulness class, and phases at the first utterance."""

    sanity: Sanity
    truthfulness: Truthfulness
    truthful_at_start: bool
    sane_at_start: bool

    def __post_init__(self):
        if (self.truthfulness, self.truthful_at_start) not in _TRUTH_LETTERS:
            raise ValueError(_START_RULES[self.truthfulness])
        if (self.sanity, self.sane_at_start) not in _SANITY_LETTERS:
            raise ValueError(_START_RULES[self.sanity])

    @cached_property
    def label(self) -> str:
        return (_SANITY_LETTERS[self.sanity, self.sane_at_start]
                + _TRUTH_LETTERS[self.truthfulness, self.truthful_at_start])

    @cached_property
    def phases(self) -> tuple[tuple[bool, bool], tuple[bool, bool]]:
        """(truthful_now, sane_now) at even and at odd utterance ordinals."""
        truthful, sane = self.truthful_at_start, self.sane_at_start
        return ((truthful, sane),
                (truthful != (self.truthfulness is Truthfulness.ALTERNATOR),
                 sane != (self.sanity is Sanity.PARTIAL)))

    @cached_property
    def index(self) -> int:
        """The type's position in ALL_TYPES: a small int that keys it fast."""
        return ALL_TYPES.index(self)

    @cached_property
    def builtins(self) -> dict[str, bool]:
        """Truth of each builtin predicate for a person of this type."""
        sane = self.sanity is Sanity.SANE
        return {
            "patient": not sane,
            "doctor": sane,
            "sane": sane,
            "delusional": self.sanity is Sanity.DELUSIONAL,
            "partial": self.sanity is Sanity.PARTIAL,
            "truthteller": self.truthfulness is Truthfulness.TRUTHTELLER,
            "liar": self.truthfulness is Truthfulness.LIAR,
            "alternator": self.truthfulness is Truthfulness.ALTERNATOR,
        }

    def advanced(self, steps: int = 1) -> "ExtendedType":
        """The label this type carries when re-anchored `steps` utterances later."""
        if steps % 2 == 0:
            return self
        truthful, sane = self.phases[1]
        return replace(self, truthful_at_start=truthful, sane_at_start=sane)

    def __repr__(self):
        return f"ExtendedType({self.label})"


ALL_TYPES: tuple[ExtendedType, ...] = tuple(
    ExtendedType(sanity, truthfulness, truthful_at_start, sane_at_start)
    for sanity, sane_at_start in _SANITY_LETTERS
    for truthfulness, truthful_at_start in _TRUTH_LETTERS)
TYPES_BY_LABEL: dict[str, ExtendedType] = {t.label: t for t in ALL_TYPES}


def type_from_label(label: str) -> ExtendedType:
    try:
        return TYPES_BY_LABEL[label]
    except KeyError:
        raise ValueError(f"unknown type label '{label}'") from None


@dataclass(frozen=True)
class AgentState:
    """An extended type plus how many utterances the person has made."""

    type: ExtendedType
    utterances_made: int = 0


def current_phases(state: AgentState) -> tuple[bool, bool]:
    """(truthful_now, sane_now) for the state's utterance count."""
    return state.type.phases[state.utterances_made % 2]


def advance(state: AgentState) -> AgentState:
    """The state after one more utterance of any kind."""
    return AgentState(state.type, state.utterances_made + 1)


def asserted_truth(type_: ExtendedType, ordinal: int, is_belief: bool) -> bool:
    """The truth value a body must have for the type to assert it.

    `ordinal` counts the person's earlier utterances.  ``believes(S)``
    is asserted when ``truthful_now == value(S)``, regardless of sanity;
    a bare statement when ``(truthful_now == sane_now) == value``.
    """
    truthful, sane = type_.phases[ordinal % 2]
    return truthful if is_belief else truthful == sane


def would_assert(state: AgentState, world, stmt: Statement,
                 speaker: Optional[str] = None) -> bool:
    """Whether an agent in this state would utter the statement."""
    body, is_belief = peel_believes(stmt)
    return eval_closed(world, body, speaker) == asserted_truth(
        state.type, state.utterances_made, is_belief)
