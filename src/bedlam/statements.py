"""Statement language: AST nodes, canonical rendering, and evaluation.

Statements are built from predicate atoms over persons, the usual
connectives, quantifiers ranging over the puzzle's person set, and a
``believes`` wrapper that may only appear as the outermost node of an
uttered statement.  Everything here is immutable and safe to share.

Evaluation is three-valued: ``eval_partial`` returns True, False, or the
``UNKNOWN`` sentinel, and ``eval_closed`` insists on a definite answer.
These tree walkers are the reference.  ``compile_statement`` builds a
two-valued check from closures over index rows.  A check is False
exactly when the rows make ``eval_partial`` definite and different from
the value the statement must take: True for an axiom, and for an
utterance what its speaker's type requires.  Otherwise it is True.  It
reports which fluent slots each check reads, and which builtin
predicates of which persons' types, and, computed only when asked, its
watch list: what the solver's fluent search runs at each slot, from the
first at which the check can be False, the whole check there and after
it only the parts that read the slot just set.  It pushes ``not`` down
to the atoms as it compiles, so a check holds no negation node.  Its
name resolution is the one set of atom rules; unlike the tree walker,
it rejects a value outside its fluent's domain.
``PuzzleSpec.compiled`` keeps each axiom's and utterance's check for the
solver, ``check_world`` and ``bedlam simulate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

# Predicates derived from a person's behavioral type.  Everything else
# must be a fluent declared by the puzzle.
BUILTIN_PREDICATES = frozenset({
    "patient", "doctor",
    "sane", "delusional", "partial",
    "truthteller", "liar", "alternator",
})


class _Unknown:
    """Sentinel for a truth value not determined by a partial world."""

    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        raise TypeError("UNKNOWN has no boolean value; check identity instead")


UNKNOWN = _Unknown()


class SemanticError(Exception):
    """Statement is well-formed but meaningless where it is used."""


# --- Terms ---

@dataclass(frozen=True)
class Person:
    """A reference to a person by name."""
    name: str


@dataclass(frozen=True)
class Var:
    """A quantifier-bound variable."""
    name: str


@dataclass(frozen=True)
class Me:
    """The speaker of the enclosing utterance."""


ME = Me()
Term = Union[Person, Var, Me]


# --- Statement nodes ---

class Statement:
    """Base class for all statement nodes."""
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Statement):
    """predicate(term) or fluent(term, value) for categorical fluents."""
    predicate: str
    term: Term
    value: Optional[str] = None


@dataclass(frozen=True)
class Not(Statement):
    body: Statement


@dataclass(frozen=True)
class _Junction(Statement):
    """An `and` or `or` of two or more items; `word` is its keyword."""
    items: tuple[Statement, ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two items")


class And(_Junction):
    word = "and"


class Or(_Junction):
    word = "or"


@dataclass(frozen=True)
class Implies(Statement):
    left: Statement
    right: Statement


@dataclass(frozen=True)
class Exists(Statement):
    var: str
    body: Statement


@dataclass(frozen=True)
class ForAll(Statement):
    var: str
    body: Statement


@dataclass(frozen=True)
class AtLeast(Statement):
    count: int
    var: str
    body: Statement

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("AtLeast count must be non-negative")


@dataclass(frozen=True)
class Believes(Statement):
    """First-person belief report; legal only as the outermost node."""
    body: Statement


# --- Structural helpers ---

def peel_believes(stmt: Statement) -> tuple[Statement, bool]:
    """Split an utterance into (body, is_belief_report).

    Nested believes wrappers collapse into one.  A believes node anywhere
    below the outermost position is a semantic error.
    """
    is_belief = False
    while isinstance(stmt, Believes):
        is_belief = True
        stmt = stmt.body
    _reject_inner_believes(stmt)
    return stmt, is_belief


def _reject_inner_believes(stmt: Statement) -> None:
    path = _inner_believes_path(stmt)
    if path is not None:
        raise SemanticError("believes may only appear as the outermost node"
                            f" (at {'/'.join(path)})")


def _inner_believes_path(stmt: Statement) -> Optional[tuple[str, ...]]:
    """The labels down to the first `Believes` below `stmt`, in preorder,
    or None.  Labels are built only on the way back up from one, so a
    statement without one costs no label."""
    for i, child in enumerate(_children(stmt)):
        if isinstance(child, Believes):
            return (_child_label(stmt, i),)
        path = _inner_believes_path(child)
        if path is not None:
            return (_child_label(stmt, i),) + path
    return None


def _children(stmt: Statement) -> tuple[Statement, ...]:
    if isinstance(stmt, Atom):
        return ()
    if isinstance(stmt, _Junction):
        return stmt.items
    if isinstance(stmt, Implies):
        return stmt.left, stmt.right
    return (stmt.body,)  # not, a quantifier or believes


def _child_label(stmt: Statement, i: int) -> str:
    """How an error path names child `i` of `stmt`, which is no
    `Believes`."""
    if isinstance(stmt, _Junction):
        return f"{stmt.word}[{i}]"
    if isinstance(stmt, Implies):
        return ("implies.left", "implies.right")[i]
    return "not" if isinstance(stmt, Not) else "body"


def walk(stmt: Statement):
    """Yield every node of the statement tree, preorder."""
    yield stmt
    for child in _children(stmt):
        yield from walk(child)


def substitute_me(stmt: Statement, person_name: str) -> Statement:
    """Replace the speaker keyword with a direct reference to the person."""
    if isinstance(stmt, Atom):
        if isinstance(stmt.term, Me):
            return Atom(stmt.predicate, Person(person_name), stmt.value)
        return stmt
    if isinstance(stmt, _Junction):
        return type(stmt)(tuple(substitute_me(i, person_name)
                                for i in stmt.items))
    if isinstance(stmt, Implies):
        return Implies(substitute_me(stmt.left, person_name),
                       substitute_me(stmt.right, person_name))
    if isinstance(stmt, (Not, Exists, ForAll, AtLeast, Believes)):
        return replace(stmt, body=substitute_me(stmt.body, person_name))
    raise TypeError(f"not a statement node: {stmt!r}")


def is_type_local(stmt: Statement, speaker: str) -> bool:
    """True when builtin predicates applied to the speaker alone make the
    statement's truth depend only on the speaker's type: the puzzle
    generators' rule.  The solver's rule, read from the compiled `reads`
    and `typed`, differs only in a one-person puzzle, where a quantified
    builtin such as `exists y . sane(y)` reads the speaker's type alone.
    """
    for node in walk(stmt):
        if not isinstance(node, Atom):
            continue
        if node.predicate not in BUILTIN_PREDICATES:
            return False
        term = node.term
        if isinstance(term, Me):
            continue
        if isinstance(term, Person) and term.name == speaker:
            continue
        return False
    return True


# --- Rendering ---

# Higher binds tighter; quantifiers extend to the end of their context.
_LEVEL_IMPLIES = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_NOT = 4
_LEVEL_QUANT = 0


def render_statement(stmt: Statement) -> str:
    """Canonical text form; parsing it back yields an equal AST."""
    return render_peeled(*peel_believes(stmt))


def render_peeled(body: Statement, is_belief: bool) -> str:
    """`render_statement` of what `peel_believes` split, without walking
    the body for a `believes` again."""
    text = _render(body, 0)
    return f"believes({text})" if is_belief else text


def render_term(term: Term) -> str:
    if isinstance(term, Me):
        return "me"
    return term.name


def _render(stmt: Statement, min_level: int) -> str:
    if isinstance(stmt, Atom):
        if stmt.value is None:
            return f"{stmt.predicate}({render_term(stmt.term)})"
        return f"{stmt.predicate}({render_term(stmt.term)}, {stmt.value})"
    if isinstance(stmt, Not):
        level, text = _LEVEL_NOT, "not " + _render(stmt.body, _LEVEL_NOT)
    elif isinstance(stmt, _Junction):  # each item binds one level tighter
        level = _LEVEL_AND if isinstance(stmt, And) else _LEVEL_OR
        text = f" {stmt.word} ".join(_render(item, level + 1)
                                     for item in stmt.items)
    elif isinstance(stmt, Implies):
        level = _LEVEL_IMPLIES
        text = (_render(stmt.left, _LEVEL_OR) + " implies "
                + _render(stmt.right, _LEVEL_IMPLIES))
    elif isinstance(stmt, (Exists, ForAll, AtLeast)):
        level = _LEVEL_QUANT
        head = (f"atleast {stmt.count}" if isinstance(stmt, AtLeast)
                else "exists" if isinstance(stmt, Exists) else "forall")
        text = f"{head} {stmt.var} . {_render(stmt.body, 0)}"
    else:
        raise TypeError(f"not a statement node: {stmt!r}")
    return f"({text})" if level < min_level else text


# --- Evaluation ---
#
# The world argument is duck-typed.  It must provide:
#   person_names            ordered names of all persons
#   builtin_value(pred, person) -> bool
#   fluent_value(name, person)  -> bool | str | UNKNOWN
# Both lookups raise SemanticError for unknown persons or predicates.

def eval_closed(world, stmt: Statement, speaker: Optional[str] = None) -> bool:
    """Classical evaluation of a closed, believes-free statement."""
    result = _eval(world, stmt, speaker, {})
    if result is UNKNOWN:
        raise SemanticError("statement not determined by a partial world")
    return result


def eval_partial(world, stmt: Statement, speaker: Optional[str] = None):
    """Three-valued evaluation tolerating unassigned fluent values."""
    return _eval(world, stmt, speaker, {})


def _eval(world, stmt, speaker, env):
    if isinstance(stmt, Atom):
        return _eval_atom(world, stmt, speaker, env)
    if isinstance(stmt, Not):
        inner = _eval(world, stmt.body, speaker, env)
        return UNKNOWN if inner is UNKNOWN else not inner
    if isinstance(stmt, _Junction):
        # An `or` is decided by an item that is True, an `and` by one that
        # is False.
        deciding = isinstance(stmt, Or)
        saw_unknown = False
        for item in stmt.items:
            v = _eval(world, item, speaker, env)
            if v is deciding:
                return deciding
            if v is UNKNOWN:
                saw_unknown = True
        return UNKNOWN if saw_unknown else not deciding
    if isinstance(stmt, Implies):
        left = _eval(world, stmt.left, speaker, env)
        if left is False:
            return True
        right = _eval(world, stmt.right, speaker, env)
        if right is True:
            return True
        if left is UNKNOWN or right is UNKNOWN:
            return UNKNOWN
        return False
    if isinstance(stmt, (Exists, ForAll, AtLeast)):
        count = (stmt.count if isinstance(stmt, AtLeast)
                 else 1 if isinstance(stmt, Exists)
                 else len(world.person_names))
        return _eval_counting(world, stmt.var, stmt.body, speaker, env, count)
    if isinstance(stmt, Believes):
        raise SemanticError("believes cannot be evaluated as a fact")
    raise TypeError(f"not a statement node: {stmt!r}")


def _eval_counting(world, var, body, speaker, env, minimum):
    """Whether at least `minimum` persons make the body true."""
    if minimum == 0:
        return True
    # Definite misses that still leave `minimum` hits possible; one more
    # decides False, as in the compiled `_count`.
    slack = len(world.person_names) - minimum
    if slack < 0:
        return False
    hits = misses = 0
    for name in world.person_names:
        v = _eval(world, body, speaker, {**env, var: name})
        if v is True:
            hits += 1
            if hits >= minimum:
                return True
        elif v is not UNKNOWN:
            misses += 1
            if misses > slack:
                return False
    return UNKNOWN


def _eval_atom(world, atom, speaker, env):
    term = atom.term
    if isinstance(term, Me):
        if speaker is None:
            raise SemanticError("'me' used outside any utterance")
        name = speaker
    elif isinstance(term, Var):
        if term.name not in env:
            raise SemanticError(f"unbound variable '{term.name}'")
        name = env[term.name]
    else:  # the world's lookups reject an unknown person
        name = term.name
    if atom.predicate in BUILTIN_PREDICATES:
        if atom.value is not None:
            raise SemanticError(f"builtin '{atom.predicate}' takes no value")
        return world.builtin_value(atom.predicate, name)
    value = world.fluent_value(atom.predicate, name)
    if atom.value is None:
        if isinstance(value, str):
            raise SemanticError(f"fluent '{atom.predicate}' needs a value")
        return value
    if value is UNKNOWN:
        return UNKNOWN
    if isinstance(value, bool):
        raise SemanticError(
            f"boolean fluent '{atom.predicate}' takes no value")
    return value == atom.value


# --- Compilation ---

def compile_statement(stmt: Statement, speaker: Optional[str],
                      person_names, fluent_decls, required=None):
    """Compile a believes-free statement into `(check, reads, typed, watch)`.

    The statement must take a value: True, or for an utterance of
    `speaker`, `required[t.index]` when the speaker has type t.
    `check(types, values)` is False exactly when the rows rule that value
    out: when `eval_partial` on the world where person p has type
    `types[p]` and fluent f the value `values[f][p]`, which may be
    UNKNOWN, is definite and differs from it.  Otherwise it is True.
    `reads` holds the (f, p) slots it reads.  `typed` maps each person p
    whose `types[p]` it reads to the builtin predicates it reads of that
    type; the speaker is among them when `required` is given, and reads
    `required` besides.  An atom on a quantified variable reads every
    person's slot or predicate.
    Names are resolved once, to their index in `person_names` or
    `fluent_decls`.  Every atom, even one a run would short-circuit past,
    meets the atom rules in this order, or raises SemanticError: a builtin
    takes no value; a fluent is declared, takes no value if boolean, and
    else a value from its domain; the term is bound, a speaker's `me` or a
    known person.  A term reads its person from a slot of `bound`: slot p
    holds person p, and a quantifier's own slot holds each person in turn
    while its body, compiled once, runs.  A check grows with its statement
    only.  Running it writes `bound`, and the value it wants in a cell
    beside it, so one check must not run in two threads at once.

    A check holds no negation node and no third value: it, and every
    check it is built from, returns exactly True or False, which `_scan`
    relies on.  Every other node is a count of at least k of m instances
    (`_count`): an `and` of all its items, an `or` of one, ``l implies
    r`` of one of ``not l`` and r, and a quantifier of k of its body's n
    instances.  `not` is pushed down to the atoms as the statement
    compiles, by one rule exact in Kleene logic: fewer than k of m
    instances true is at least m - k + 1 of them not true.  Each atom's
    closure applies its own negation.  Over the counts that are left, a
    Kleene value is False exactly when reading every UNKNOWN literal as
    True gives False, and True exactly when reading them as False gives
    True.  So an atom on an UNKNOWN slot reads as the wanted value, and
    the check asks whether the statement then takes it.

    `watch()` lists where the fluent search, which sets the slots in
    order, runs the check: `(v, run)` for each fluent slot v the check
    reads from its start on, in slot order, and nothing if it reads none
    there.  Slot ``f * n + p`` holds `values[f][p]`.  The start is the
    first slot at which the check can be False, by the read-once law: on
    any types, no row that sets only slots before it, leaving the rest
    UNKNOWN, makes the check False, so a run before it could only pass.
    Each node has a first slot True and a first slot False: a fluent atom
    its own slot, a builtin -1, as the types alone decide it, and a count
    the k-th earliest first True slot of its instances and the (m - k +
    1)-th earliest first False slot, where the j-th is -1 for j < 1 and
    `math.inf`, never, for j > m.  `_first` memoizes a quantifier's
    instances on the persons at the outer slots its fluent atoms read: a
    closed one is analysed once, and an outer person that only builtins
    read does not multiply the analysis.  An axiom starts at its False
    slot, an utterance at the earlier of the two.  The start is never
    late, and exact when no two atoms read one slot or type.  The first
    call computes it and keeps only the slots watched.

    The watch rule.  Where the statement must take w, its check is the
    conjunction of its parts for w: a count of all its instances splits
    into them where w is True, a count of one where w is False, a part
    that splits splits again, and any other node is one part.  The check
    passes exactly when every part gives w.  The run at the first slot
    watched is the whole check, since no earlier run covers it.  At each
    later slot v the search runs it only where the check passed on the
    same rows with v UNKNOWN, as between two slots watched no slot the
    check reads changes.  So the run is the whole check if every part for
    w (for an utterance, the w its speaker's type wants) reads v, and
    else a closure that runs only the parts that do.  It is exact: a part
    that does not read v reads what it read when the check passed, so it
    still gives w.  Each call builds the runs afresh.  Where the
    statement does not split for w, its one part is the check itself,
    which reads every slot, so the whole check runs at each.
    """
    n = len(person_names)
    fluent_names = [decl.name for decl in fluent_decls]
    bound = list(range(n))
    assumed = [True]  # what an UNKNOWN literal reads as: the wanted value
    reads: set[tuple[int, int]] = set()
    typed: dict[int, set[str]] = {}

    def compile_(node, env, negated):
        """`node`, negated if `negated`, compiled to `(check, atoms,
        count)`: its check, the `(f, bound slot)` of each fluent atom its
        check can read, and None for an atom or `(k, slot, children)` for
        a count of at least k of its children, where a quantifier's
        `slot` holds the person of each child in turn."""
        if isinstance(node, Not):
            return compile_(node.body, env, not negated)
        if isinstance(node, _Junction):
            items = [compile_(item, env, negated) for item in node.items]
            return _count(len(items) if isinstance(node, And) else 1,
                          negated, bound, None, items)
        if isinstance(node, Implies):
            return _count(1, negated, bound, None, [
                compile_(node.left, env, not negated),
                compile_(node.right, env, negated)])
        if isinstance(node, (Exists, ForAll, AtLeast)):
            slot = len(bound)
            bound.append(None)
            # Bodies under a constant count are compiled too, so that
            # `reads` and `typed` name every slot the statement mentions.
            body = compile_(node.body, {**env, node.var: slot}, negated)
            count = (node.count if isinstance(node, AtLeast)
                     else 1 if isinstance(node, Exists) else n)
            return _count(count, negated, bound, slot, (body,) * n)
        if isinstance(node, Believes):
            raise SemanticError("believes cannot be evaluated as a fact")
        # The atom rules, in one order: predicate and value, then term.
        term, predicate, wanted = node.term, node.predicate, node.value
        builtin = predicate in BUILTIN_PREDICATES
        if builtin:
            if wanted is not None:
                raise SemanticError(f"builtin '{predicate}' takes no value")
        else:
            f = _index(fluent_names, predicate, "undeclared predicate")
            domain = fluent_decls[f].domain
            if domain is None:
                if wanted is not None:
                    raise SemanticError(
                        f"boolean fluent '{predicate}' takes no value")
            elif wanted is None:
                raise SemanticError(f"fluent '{predicate}' needs a value")
            elif wanted not in domain:
                raise SemanticError(
                    f"'{wanted}' not in domain of '{predicate}'")
        name = speaker if isinstance(term, Me) else term.name
        if isinstance(term, Var):
            if name not in env:
                raise SemanticError(f"unbound variable '{name}'")
            slot = env[name]
        elif name is None:
            raise SemanticError("'me' used outside any utterance")
        else:
            slot = _index(person_names, name, "unknown person")
        persons = range(n) if slot >= n else (slot,)
        if builtin:
            for p in persons:
                typed.setdefault(p, set()).add(predicate)
            return (lambda types, values: (
                types[bound[slot]].builtins[predicate] != negated)), (), None
        reads.update((f, p) for p in persons)
        if wanted is None:
            # A boolean literal holds on True, or on False when negated.
            wanted, negated = not negated, False
        if negated:
            check = lambda types, values: (
                assumed[0] if (value := values[f][bound[slot]]) is UNKNOWN
                else value != wanted)
        else:
            check = lambda types, values: (
                assumed[0] if (value := values[f][bound[slot]]) is UNKNOWN
                else value == wanted)
        return check, ((f, slot),), None

    root = compile_(stmt, {}, False)
    # `compile_` holds itself through its cell.  Dropping the name frees
    # it by reference counting, so a compile leaves no garbage cycle.
    del compile_
    body = root[0]
    if required is None:
        check, wanting = body, None
    else:
        me = _index(person_names, speaker, "unknown person")
        typed.setdefault(me, set())
        wanting = me, required, assumed

        def check(types, values):
            want = assumed[0] = required[types[me].index]
            return body(types, values) == want
    watched = None

    def watch():
        nonlocal watched
        if watched is None:
            true, false = _first(root, n, list(bound), {})
            start = false if required is None else min(true, false)
            watched = [v for v in sorted(f * n + p for f, p in reads)
                       if v >= start]
        return list(zip(watched, [
            check, *_runs(watched[1:], check, root, n, bound, wanting)]))
    return check, reads, typed, watch


def _first(part, n: int, at: list, memo: dict) -> tuple:
    """The first slot True and first slot False of a compiled `part`, by
    the count rule of `compile_statement`, where an atom on bound slot s
    reads person `at[s]`.  `memo` keeps the first slots of each
    quantifier's instances, keyed on the persons at the outer slots its
    fluent atoms read."""
    _, atoms, count = part
    if count is None:
        if not atoms:
            return -1, -1
        (f, s), = atoms
        return (f * n + at[s],) * 2
    k, slot, children = count
    m = len(children)
    if not 0 < k <= m:
        return (-1, math.inf) if k <= 0 else (math.inf, -1)
    if slot is None:
        firsts = [_first(child, n, at, memo) for child in children]
    else:
        key = (slot, *[at[s] for _, s in atoms if n <= s < slot])
        firsts = memo.get(key)
        if firsts is None:
            firsts = memo[key] = []
            for p, child in enumerate(children):
                at[slot] = p
                firsts.append(_first(child, n, at, memo))
    trues, falses = zip(*firsts)
    return sorted(trues)[k - 1], sorted(falses)[m - k]


def _splits(count, want: bool) -> bool:
    """Whether a compiled node's `count` splits it into its instances
    where it must take `want`: a count of all of them where True, and a
    count of one where False."""
    return count is not None and count[0] == (len(count[2]) if want else 1)


def _parts(part, want: bool, n: int, bound, binding=()) -> list:
    """The parts of a compiled `part` where it must take `want`, each
    `(check, slots)`: the check, run with each quantifier slot of
    `binding` holding its person, and the fluent slots it reads."""
    check, atoms, count = part
    if _splits(count, want):
        _, slot, children = count
        return [found for p, child in enumerate(children) for found in _parts(
            child, want, n, bound,
            binding if slot is None else binding + ((slot, p),))]
    at = dict(binding)
    slots = {f * n + p for f, s in atoms for p in (
        (at[s],) if s in at else range(n) if s >= n else (s,))}
    if not binding:
        return [(check, slots)]

    def bound_check(types, values):
        for quantifier, p in binding:
            bound[quantifier] = p
        return check(types, values)
    return [(bound_check, slots)]


def _runs(vs, check, root, n: int, bound, wanting) -> list:
    """What to run at each fluent slot v of `vs` once v is set, where
    `check` passed with v unset: `check` where every part for the value
    wanted reads v, else a closure that runs only the parts that do.
    `wanting` is None for an axiom, which wants True, and an utterance's
    `(me, required, assumed)`: the speaker, the value each type wants,
    and the cell its checks keep it in."""
    if wanting is None:
        return _parted(root, True, vs, n, bound)
    whole = (root[0],) * 2
    return [check if runs == whole else _wanted(runs, *wanting)
            for runs in zip(_parted(root, False, vs, n, bound),
                            _parted(root, True, vs, n, bound))]


def _parted(root, want: bool, vs, n: int, bound) -> list:
    """For each fluent slot v of `vs`, what must give `want` once v is
    set, where the compiled `root` gave it with v unset: the parts for
    `want` that read v, or `root`'s whole check when every part does."""
    whole, _, count = root
    if not _splits(count, want):
        # The one part is the root, which reads every slot watched.
        return [whole] * len(vs)
    parts = _parts(root, want, n, bound)
    runs = []
    for v in vs:
        checks = [check for check, slots in parts if v in slots]
        runs.append(whole if len(checks) == len(parts) else checks[0]
                    if len(checks) == 1 else _scan(checks, not want))
    return runs


def _wanted(runs, me: int, required, assumed):
    """A check that runs `runs[want]` for the value `want` that
    `required` gives the type of person `me`, kept in `assumed`."""
    def wanted(types, values):
        want = assumed[0] = required[types[me].index]
        return runs[want](types, values) == want
    return wanted


def _index(names, name: str, what: str) -> int:
    """`name`'s position in `names`, or a SemanticError naming `what`."""
    try:
        return names.index(name)
    except ValueError:
        raise SemanticError(f"{what} '{name}'") from None


def _scan(items, some: bool):
    """A check: is some item true (when `some`), or is every item true?
    The first item whose result `is some` decides; else the check is `not
    some`.  Two items, as every `implies` has, are unrolled."""
    if len(items) == 2:
        first, second = items
        if some:
            return lambda types, values: (first(types, values)
                                          or second(types, values))
        return lambda types, values: (first(types, values)
                                      and second(types, values))

    def check(types, values):
        for item in items:
            if item(types, values) is some:
                return some
        return not some
    return check


def _count(k: int, negated: bool, bound, slot, children):
    """The compiled node of at least `k` of the compiled `children`, or
    when `negated` of fewer: a junction's items where `slot` is None, else
    a quantifier's n instances, its body with each person in `bound[slot]`
    in turn, which stops once the count is decided.  A `k` below 1 or
    above their number makes a constant, which reads no slot."""
    m = len(children)
    if negated:  # the children are negated already
        k = m - k + 1
    if not 0 < k <= m:
        constant = k <= 0
        return (lambda types, values: constant), (), (k, slot, children)
    if slot is None:
        return (_scan([child[0] for child in children], k == 1),
                sum([child[1] for child in children], ()),
                (k, slot, children))
    body, atoms, _ = children[0]
    slack = m - k  # misses that still leave k hits

    def check(types, values):
        hits = misses = 0
        for p in range(m):
            bound[slot] = p
            if body(types, values):
                hits += 1
                if hits == k:
                    return True
            else:
                misses += 1
                if misses > slack:
                    return False
    return check, atoms, (k, slot, children)
