"""Worlds: complete assignments of types and fluent values to all persons."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .semantics import ExtendedType
from .statements import SemanticError


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

    def values(self) -> tuple:
        """Domain values in canonical order (False before True for booleans)."""
        return (False, True) if self.domain is None else self.domain

    def value_index(self, value) -> int:
        return self.values().index(value)


# Bound once: `_trusted_worlds` builds most of the worlds a solve lists.
_new, _setattr = object.__new__, object.__setattr__


def _trusted_worlds(person_names: tuple[str, ...],
                    types: tuple[ExtendedType, ...],
                    fluent_decls: tuple[FluentDecl, ...],
                    rows: Iterable[tuple[tuple, ...]]) -> list[World]:
    """`[World(person_names, types, fluent_decls, fluent_values) for
    fluent_values in rows]` without `World`'s checks, which the caller
    must know would pass:
    - `types` holds one type per person, each from `ALL_TYPES`;
    - each entry of `rows` holds one row per entry of `fluent_decls`, each
      a tuple of `len(person_names)` values taken from its `decl.values()`.

    It sets each field with one `object.__setattr__` call, in field
    order, as the dataclass `__init__` does, so each world keeps its
    values inline: about 113 bytes a world on CPython 3.11, where filling
    its `__dict__` at once materializes a dict and takes 249.
    """
    worlds = []
    for fluent_values in rows:
        world = _new(World)
        _setattr(world, "person_names", person_names)
        _setattr(world, "types", types)
        _setattr(world, "fluent_decls", fluent_decls)
        _setattr(world, "fluent_values", fluent_values)
        worlds.append(world)
    return worlds


@dataclass(frozen=True)
class World:
    """One complete candidate reality for a puzzle.

    Types are anchored at each person's first utterance in the transcript;
    fluent value tuples align with the person declaration order.  Worlds
    may share their type and fluent rows, which are immutable tuples: the
    solver's worlds copied from a reused subtree share the rows of the
    worlds they copy, and the oracle's share each fluent assignment's.

    Every world built through `World(...)` checks that it has one type
    per person and a row per declared fluent, each holding a value from
    that fluent's domain for each person.  Three paths skip these checks
    and build worlds with `_trusted_worlds`, a type combination's at a
    time: the solver, copying a reused subtree's worlds onto another type
    combination; the oracle, for the worlds it keeps; and
    `enumerate_worlds`.  None can fail them: each takes one type per
    person from `ALL_TYPES`, and rows built from each fluent's `values()`
    for the puzzle's own persons.  The worlds a fluent search finds at
    its leaves, the parser and every other caller build through
    `World(...)`.

    A world refers to nothing that refers back to it, so reference
    counting frees it, and solves pause the cyclic garbage collector
    while they build their world lists.
    """

    person_names: tuple[str, ...]
    types: tuple[ExtendedType, ...]
    fluent_decls: tuple[FluentDecl, ...] = ()
    fluent_values: tuple[tuple, ...] = ()

    def __post_init__(self):
        n = len(self.person_names)
        if len(self.types) != n:
            raise ValueError("one type per person required")
        if len(self.fluent_values) != len(self.fluent_decls):
            raise ValueError("one value tuple per declared fluent required")
        for decl, values in zip(self.fluent_decls, self.fluent_values):
            if len(values) != n:
                raise ValueError(f"fluent '{decl.name}' must cover every person")
            domain = decl.domain  # None means boolean
            for v in values:
                # Booleans match by identity: 0 == False and 1 == True.
                if (v is not False and v is not True if domain is None
                        else v not in domain):
                    raise ValueError(
                        f"value {v!r} not in domain of '{decl.name}'")

    def index_of(self, person: str) -> int:
        try:
            return self.person_names.index(person)
        except ValueError:
            raise SemanticError(f"unknown person '{person}'") from None

    def type_of(self, person: str) -> ExtendedType:
        return self.types[self.index_of(person)]

    def builtin_value(self, predicate: str, person: str) -> bool:
        """Truth of a builtin predicate for the person's type."""
        try:
            return self.types[self.index_of(person)].builtins[predicate]
        except KeyError:
            raise SemanticError(f"unknown builtin predicate '{predicate}'") from None

    def fluent_value(self, fluent: str, person: str):
        for decl, row in zip(self.fluent_decls, self.fluent_values):
            if decl.name == fluent:
                return row[self.index_of(person)]
        raise SemanticError(f"undeclared predicate '{fluent}'")

    def sort_key(self) -> tuple:
        """Canonical ordering key, independent of how the world was found."""
        type_part = tuple(t.index for t in self.types)
        fluent_part = tuple(
            decl.value_index(v)
            for decl, values in zip(self.fluent_decls, self.fluent_values)
            for v in values)
        return type_part + fluent_part
