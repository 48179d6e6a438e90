"""Worlds: complete assignments of types and fluent values to all persons."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .semantics import ExtendedType, Sanity, Truthfulness, TYPE_INDEX
from .statements import SemanticError


def builtin_truth(type_: ExtendedType, predicate: str) -> bool:
    """Truth of a builtin predicate for a person of the given type."""
    if predicate == "patient":
        return type_.sanity is not Sanity.SANE
    if predicate == "doctor":
        return type_.sanity is Sanity.SANE
    if predicate == "sane":
        return type_.sanity is Sanity.SANE
    if predicate == "delusional":
        return type_.sanity is Sanity.DELUSIONAL
    if predicate == "partial":
        return type_.sanity is Sanity.PARTIAL
    if predicate == "truthteller":
        return type_.truthfulness is Truthfulness.TRUTHTELLER
    if predicate == "liar":
        return type_.truthfulness is Truthfulness.LIAR
    if predicate == "alternator":
        return type_.truthfulness is Truthfulness.ALTERNATOR
    raise SemanticError(f"unknown builtin predicate '{predicate}'")


@dataclass(frozen=True)
class SoloTypeWorld:
    """A world where only one person's type is known.

    Quantifiers range over `domain`, or over that person alone when it is
    empty.  A statement that depends only on the speaker's own type may
    still observe the domain's size, as in `atleast 2 x . patient(me)`.
    """

    name: str
    type: ExtendedType
    domain: tuple[str, ...] = ()

    @property
    def person_names(self) -> tuple[str, ...]:
        return self.domain or (self.name,)

    def builtin_value(self, predicate: str, person: str) -> bool:
        if person != self.name:
            raise SemanticError(f"unknown person '{person}'")
        return builtin_truth(self.type, predicate)

    def fluent_value(self, fluent: str, person: str):
        raise SemanticError(f"undeclared predicate '{fluent}'")


@dataclass(frozen=True)
class FluentDecl:
    """A per-person attribute: boolean, or one of an enumerated value list."""

    name: str
    domain: Optional[tuple[str, ...]] = None  # None means boolean

    def __post_init__(self):
        if self.domain is not None:
            if len(self.domain) < 2:
                raise ValueError(f"fluent '{self.name}' needs at least two values")
            if len(set(self.domain)) != len(self.domain):
                raise ValueError(f"fluent '{self.name}' has duplicate values")

    @property
    def is_boolean(self) -> bool:
        return self.domain is None

    @cached_property
    def _values(self) -> tuple:
        return (False, True) if self.domain is None else self.domain

    @cached_property
    def _value_set(self) -> frozenset:
        return frozenset(self._values)

    def values(self) -> tuple:
        """Domain values in canonical order (False before True for booleans)."""
        return self._values

    def value_index(self, value) -> int:
        return self._values.index(value)


@dataclass(frozen=True)
class World:
    """One complete candidate reality for a puzzle.

    Types are anchored at each person's first utterance in the transcript;
    fluent value tuples align with the person declaration order.
    """

    person_names: tuple[str, ...]
    types: tuple[ExtendedType, ...]
    fluent_decls: tuple[FluentDecl, ...] = ()
    fluent_values: tuple[tuple, ...] = ()

    def __post_init__(self):
        if len(self.types) != len(self.person_names):
            raise ValueError("one type per person required")
        if len(self.fluent_values) != len(self.fluent_decls):
            raise ValueError("one value tuple per declared fluent required")
        for decl, values in zip(self.fluent_decls, self.fluent_values):
            if len(values) != len(self.person_names):
                raise ValueError(f"fluent '{decl.name}' must cover every person")
            for v in values:
                if v not in decl._value_set:
                    raise ValueError(f"value {v!r} not in domain of '{decl.name}'")

    @cached_property
    def _person_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.person_names)}

    @cached_property
    def _fluent_index(self) -> dict[str, int]:
        return {decl.name: i for i, decl in enumerate(self.fluent_decls)}

    def index_of(self, person: str) -> int:
        try:
            return self._person_index[person]
        except KeyError:
            raise SemanticError(f"unknown person '{person}'") from None

    def type_of(self, person: str) -> ExtendedType:
        return self.types[self.index_of(person)]

    def builtin_value(self, predicate: str, person: str) -> bool:
        return builtin_truth(self.type_of(person), predicate)

    def fluent_value(self, fluent: str, person: str):
        try:
            fi = self._fluent_index[fluent]
        except KeyError:
            raise SemanticError(f"undeclared predicate '{fluent}'") from None
        return self.fluent_values[fi][self.index_of(person)]

    def with_type(self, person: str, new_type: ExtendedType) -> "World":
        types = list(self.types)
        types[self.index_of(person)] = new_type
        return World(self.person_names, tuple(types),
                     self.fluent_decls, self.fluent_values)

    def with_fluent(self, fluent: str, person: str, value) -> "World":
        fi = self._fluent_index[fluent]
        values = [list(v) for v in self.fluent_values]
        values[fi][self.index_of(person)] = value
        return World(self.person_names, self.types,
                     self.fluent_decls, tuple(tuple(v) for v in values))

    def sort_key(self) -> tuple:
        """Canonical ordering key, independent of how the world was found."""
        type_part = tuple(TYPE_INDEX[t] for t in self.types)
        fluent_part = tuple(
            decl.value_index(v)
            for decl, values in zip(self.fluent_decls, self.fluent_values)
            for v in values)
        return type_part + fluent_part
