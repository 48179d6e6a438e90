"""Ternary extraction: report triples to digits, digits to letters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .semantics import Sanity, Truthfulness
from .worlds import World

SANITY_CATEGORY = "sanity"
TRUTHFULNESS_CATEGORY = "truthfulness"
SANITY_VALUES = frozenset(m.value for m in Sanity)
TRUTHFULNESS_VALUES = frozenset(m.value for m in Truthfulness)


class ExtractionError(Exception):
    """Extraction cannot proceed or produced a non-letter value."""


@dataclass(frozen=True)
class Category:
    """An ordered three-value list; positions become the digits 0, 1, 2."""

    name: str
    values: tuple[str, str, str]

    def __post_init__(self):
        if len(self.values) != 3:
            raise ExtractionError(
                f"category '{self.name}' needs exactly three values")
        if len(set(self.values)) != 3:
            raise ExtractionError(
                f"category '{self.name}' has duplicate values")
        if self.name == SANITY_CATEGORY and set(self.values) != SANITY_VALUES:
            raise ExtractionError(
                "sanity category must order exactly the three sanity classes")
        if (self.name == TRUTHFULNESS_CATEGORY
                and set(self.values) != TRUTHFULNESS_VALUES):
            raise ExtractionError(
                "truthfulness category must order exactly the three classes")

    def digit(self, value: str) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ExtractionError(
                f"value '{value}' is not in category '{self.name}'") from None


@dataclass(frozen=True)
class ExtractionConfig:
    """Three categories, most significant digit first."""

    categories: tuple[Category, Category, Category]

    def __post_init__(self):
        if len(self.categories) != 3:
            raise ExtractionError("extraction needs exactly three categories")
        names = [c.name for c in self.categories]
        if len(set(names)) != 3:
            raise ExtractionError("extraction categories must be distinct")


def encode_person(triple: Sequence[str], config: ExtractionConfig) -> tuple[str, int]:
    """Map a report triple (in category order) to its digits and value."""
    if len(triple) != 3:
        raise ExtractionError("a report triple has exactly three components")
    digits = [cat.digit(value) for cat, value in zip(config.categories, triple)]
    value = digits[0] * 9 + digits[1] * 3 + digits[2]
    return "".join(str(d) for d in digits), value


def value_to_letter(value: int) -> str:
    """1 -> A through 26 -> Z; anything else is an extraction error."""
    if not 1 <= value <= 26:
        raise ExtractionError(f"value {value} is outside the letter range 1..26")
    return chr(ord("A") + value - 1)


def category_value(world: World, person: str, category: Category) -> str:
    """The person's value for one category in a solved world."""
    if category.name == SANITY_CATEGORY:
        return world.type_of(person).sanity.value
    if category.name == TRUTHFULNESS_CATEGORY:
        return world.type_of(person).truthfulness.value
    value = world.fluent_value(category.name, person)
    if isinstance(value, bool):
        raise ExtractionError(
            f"category '{category.name}' refers to a boolean fluent")
    return value


def person_triple(world: World, person: str,
                  config: ExtractionConfig) -> tuple[str, str, str]:
    return tuple(category_value(world, person, cat) for cat in config.categories)


def letter_rows(result, config: ExtractionConfig) -> list[dict]:
    """One `{person, triple, digits, value, letter}` row per person.

    `result` is a solve result; its status must be "unique".  Persons are
    taken alphabetically by name; an error names the person whose triple
    failed.
    """
    if result.status.value != "unique":
        raise ExtractionError(
            "extraction requires a unique solution "
            f"(status is {result.status.value})")
    world = result.worlds[0]
    rows = []
    for person in sorted(world.person_names):
        try:
            triple = person_triple(world, person, config)
            digits, value = encode_person(triple, config)
            rows.append({"person": person, "triple": list(triple),
                         "digits": digits, "value": value,
                         "letter": value_to_letter(value)})
        except ExtractionError as exc:
            raise ExtractionError(f"{person}: {exc}") from None
    return rows


def extract_word(result, config: ExtractionConfig) -> str:
    """The answer word of a uniquely solved puzzle: its rows' letters."""
    return "".join(row["letter"] for row in letter_rows(result, config))
