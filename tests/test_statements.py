"""Statement DSL: parsing, canonical rendering, and evaluation laws."""

import copy
import dataclasses
import hashlib
import itertools
import math
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import support
from bedlam import statements
from bedlam.parser import ParseError, parse_statement
from bedlam.statements import (And, AtLeast, Atom, Believes, Exists, ForAll,
                               Implies, ME, Not, Or, Person, SemanticError,
                               Statement, UNKNOWN, Var, compile_statement,
                               eval_closed, eval_partial, render_peeled,
                               render_statement, substitute_me, walk)
from bedlam.semantics import ALL_TYPES, TYPES_BY_LABEL, asserted_truth
from bedlam.worlds import FluentDecl, World
from support import random_statement, random_utterance, random_world


def test_parse_believes_example():
    stmt = parse_statement("believes(not lover(Grace))")
    assert stmt == Believes(Not(Atom("lover", Person("Grace"))))


def test_parse_exists_example():
    stmt = parse_statement("exists x . doctor(x) and guilt(x, guilty)")
    assert stmt == Exists("x", And((Atom("doctor", Var("x")),
                                    Atom("guilt", Var("x"), "guilty"))))


def test_parse_keeps_double_negation():
    stmt = parse_statement("not not patient(me)")
    assert stmt == Not(Not(Atom("patient", ME)))


def test_precedence_not_and_or_implies():
    stmt = parse_statement("not sane(A) and sane(B) or sane(C) implies sane(D)")
    assert stmt == Implies(
        Or((And((Not(Atom("sane", Person("A"))), Atom("sane", Person("B")))),
            Atom("sane", Person("C")))),
        Atom("sane", Person("D")))


def test_implies_is_right_associative():
    stmt = parse_statement("sane(A) implies sane(B) implies sane(C)")
    assert stmt == Implies(Atom("sane", Person("A")),
                           Implies(Atom("sane", Person("B")),
                                   Atom("sane", Person("C"))))


def test_quantifier_body_extends_right():
    stmt = parse_statement("sane(A) or exists x . sane(x) and patient(x)")
    assert stmt == Or((Atom("sane", Person("A")),
                       Exists("x", And((Atom("sane", Var("x")),
                                        Atom("patient", Var("x")))))))


def test_render_atleast_canonical_form():
    stmt = AtLeast(2, "x", Atom("guilt", Var("x"), "guilty"))
    assert render_statement(stmt) == "atleast 2 x . guilt(x, guilty)"


# An inner quantifier rebinds its outer one's variable, which the outer
# body reads again after it.
SHADOWED = ("exists x . (forall x . f(x)) and g(x)",
            "forall x . (exists x . doctor(x)) implies f(x)")


def test_round_trip_of_spec_examples():
    for text in ("believes(not lover(Grace))",
                 "exists x . doctor(x) and guilt(x, guilty)",
                 "not not patient(me)") + SHADOWED:
        stmt = parse_statement(text)
        assert parse_statement(render_statement(stmt)) == stmt


def test_believes_inside_body_is_rejected():
    with pytest.raises(ParseError):
        parse_statement("not believes(patient(me))")
    with pytest.raises(ParseError):
        parse_statement("believes(believes(patient(me)))")


def test_malformed_nodes_and_unknown_are_refused_with_their_message():
    sane = Atom("sane", Person("Ann"))
    with pytest.raises(ValueError, match="^And needs at least two items$"):
        And((sane,))
    with pytest.raises(ValueError, match="^Or needs at least two items$"):
        Or((sane,))
    with pytest.raises(ValueError,
                       match="^AtLeast count must be non-negative$"):
        AtLeast(-1, "x", sane)
    with pytest.raises(SemanticError,
                       match="^believes cannot be evaluated as a fact$"):
        compile_statement(Believes(sane), None, ("Ann",), ())
    with pytest.raises(TypeError, match="^not a statement node: 'sane'$"):
        render_peeled("sane", False)
    world = World(("Ann",), (ALL_TYPES[0],), (), ())
    with pytest.raises(TypeError, match="^not a statement node: 'sane'$"):
        eval_closed(world, "sane")
    assert repr(UNKNOWN) == "UNKNOWN"
    with pytest.raises(TypeError, match="^UNKNOWN has no boolean value; "
                                        "check identity instead$"):
        bool(UNKNOWN)


def test_and_and_or_stay_distinct_nodes():
    # The two junctions share one definition; each keeps its class,
    # equality, repr and message, and the quantifiers still round-trip.
    items = (Atom("sane", Person("Ann")), Not(Atom("f", Var("x"))))
    both = And(items), Or(items)
    assert both[0] != both[1] and len(set(both)) == 2
    for node, name in zip(both, ("And", "Or")):
        for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node),
                     dataclasses.replace(node)):
            assert type(twin) is type(node) and twin == node
        swapped = dataclasses.replace(node, items=items[::-1])
        assert type(swapped) is type(node) and swapped.items == items[::-1]
        assert repr(node) == f"{name}(items={items!r})"
        with pytest.raises(ValueError,
                           match=f"^{name} needs at least two items$"):
            type(node)(items[:1])
    for text in ("exists x . f(x) and sane(x)", "forall x . not f(x) or f(x)",
                 "atleast 3 x . forall y . f(y) implies f(x)"):
        stmt = parse_statement(text)
        assert render_statement(stmt) == text
        assert parse_statement(render_statement(stmt)) == stmt


def test_unbound_variable_rejected_with_context():
    with pytest.raises(SemanticError):
        parse_statement("lover(x)", persons=("Ann",),
                        fluents=(FluentDecl("lover"),))
    # Without context, a stray identifier reads as a person name.
    assert parse_statement("lover(x)") == Atom("lover", Person("x"))


def test_undeclared_predicate_rejected_with_context():
    with pytest.raises(SemanticError):
        parse_statement("sneaky(Ann)", persons=("Ann",), fluents=())


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_statement("exists x sane(x)")
    assert err.value.line == 1
    assert err.value.col > 1
    with pytest.raises(ParseError):
        parse_statement("sane(Ann) and")
    with pytest.raises(ParseError):
        parse_statement("")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_render_parse_round_trip(seed):
    rng = random.Random(seed)
    stmt = random_utterance(rng)
    assert parse_statement(render_statement(stmt)) == stmt


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_render_is_idempotent_canonical_form(seed):
    rng = random.Random(seed)
    text = render_statement(random_utterance(rng))
    assert render_statement(parse_statement(text)) == text


DECLS = tuple(FluentDecl(name) for name in support.FLUENT_POOL)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_eval_negation_law(seed):
    rng = random.Random(seed)
    world = random_world(rng, support.NAME_POOL, DECLS)
    stmt = random_statement(rng)
    assert eval_closed(world, Not(stmt), "Ann") == \
        (not eval_closed(world, stmt, "Ann"))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_eval_de_morgan(seed):
    rng = random.Random(seed)
    world = random_world(rng, support.NAME_POOL, DECLS)
    items = tuple(random_statement(rng, depth=2) for _ in range(2))
    assert eval_closed(world, Not(And(items)), "Ann") == \
        eval_closed(world, Or(tuple(Not(i) for i in items)), "Ann")
    assert eval_closed(world, Not(Or(items)), "Ann") == \
        eval_closed(world, And(tuple(Not(i) for i in items)), "Ann")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_atleast_zero_is_vacuous(seed):
    rng = random.Random(seed)
    world = random_world(rng, support.NAME_POOL, DECLS)
    stmt = AtLeast(0, "x", random_statement(rng, depth=1, bound=("x",)))
    assert eval_closed(world, stmt, "Ann") is True


class _HiddenSlots:
    """A world whose listed (fluent, person) slots read as UNKNOWN."""

    def __init__(self, world, hidden):
        self.world = world
        self.person_names = world.person_names
        self.hidden = set(hidden)

    def builtin_value(self, predicate, person):
        return self.world.builtin_value(predicate, person)

    def fluent_value(self, fluent, person):
        if (fluent, person) in self.hidden:
            return UNKNOWN
        return self.world.fluent_value(fluent, person)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_partial_eval_is_unknown_or_every_completions_value(seed):
    rng = random.Random(seed)
    persons = support.NAME_POOL[:rng.randint(1, 3)]
    world = random_world(rng, persons, DECLS)
    hidden = [(decl.name, person) for decl in DECLS for person in persons
              if rng.random() < 0.5]
    stmt = random_statement(rng, persons=persons)
    speaker = rng.choice(persons)
    partial = eval_partial(_HiddenSlots(world, hidden), stmt, speaker)
    if partial is UNKNOWN:
        return
    for values in itertools.product((False, True), repeat=len(hidden)):
        cells = dict(zip(hidden, values))
        completion = dataclasses.replace(world, fluent_values=tuple(
            tuple(cells.get((decl.name, person), value)
                  for person, value in zip(persons, row))
            for decl, row in zip(DECLS, world.fluent_values)))
        assert eval_closed(completion, stmt, speaker) == partial


def _compile_kleene(stmt, speaker, persons, decls):
    """`compile_statement`'s `(check, reads, typed)`, with a check that
    reads the Kleene value back from the two-valued checks of `stmt` and
    of `not stmt`: the first is False exactly when the value is False,
    the second exactly when it is True, and never both."""
    check, reads, typed, _ = compile_statement(stmt, speaker, persons, decls)
    negation = compile_statement(Not(stmt), speaker, persons, decls)[0]

    def kleene(types, values):
        can_be_true, can_be_false = check(types, values), negation(types,
                                                                   values)
        assert can_be_true or can_be_false
        return UNKNOWN if can_be_true and can_be_false else can_be_true
    return kleene, reads, typed


CATEGORICAL_DECLS = (support.MOOD, FluentDecl("shifty"))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_compiled_check_is_the_tree_walker(seed):
    # Boolean statements cover `atleast` 0..n+1, categorical ones fluent
    # values; both cover `forall` and `me`.
    rng = random.Random(seed)
    persons = support.NAME_POOL[:rng.randint(1, 3)]
    if rng.random() < 0.5:
        decls = DECLS
        stmt = random_statement(rng, persons=persons)
    else:
        decls = CATEGORICAL_DECLS
        stmt = support.random_categorical_statement(rng, 3, persons, decls)
    world = random_world(rng, persons, decls)
    slots = [(f, p) for f in range(len(decls)) for p in range(len(persons))]
    hidden = [slot for slot in slots if rng.random() < 0.5]
    speaker = rng.choice(persons)
    check, reads, _ = _compile_kleene(stmt, speaker, persons, decls)
    values = [list(row) for row in world.fluent_values]
    for f, p in hidden:
        values[f][p] = UNKNOWN
    expected = eval_partial(
        _HiddenSlots(world, [(decls[f].name, persons[p]) for f, p in hidden]),
        stmt, speaker)
    assert check(world.types, values) is expected
    for f, p in set(slots) - reads:
        for value in decls[f].values() + (UNKNOWN,):
            changed = [list(row) for row in values]
            changed[f][p] = value
            assert check(world.types, changed) is expected


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_puzzle_checks_say_whether_the_rows_rule_out_the_wanted_value(seed):
    # On partial rows, a puzzle's axiom check is False exactly when the
    # axiom is, and a step check exactly when its body is definite and
    # differs from what its speaker's type requires.  Each returns a bool.
    rng = random.Random(seed)
    kind = rng.randrange(3)
    if kind == 0:
        puzzle = support.random_puzzle(rng)
    elif kind == 1:
        puzzle = support.random_categorical_puzzle(
            rng, hidden=rng.random() < 0.5)
    else:
        puzzle, _ = support.random_probed_puzzle(rng)
    persons, decls = puzzle.person_names, puzzle.fluent_decls
    axioms, steps = puzzle.compiled
    for _ in range(8):
        world = random_world(rng, persons, decls)
        hidden = [(f, p) for f in range(len(decls))
                  for p in range(len(persons)) if rng.random() < 0.5]
        values = [list(row) for row in world.fluent_values]
        for f, p in hidden:
            values[f][p] = UNKNOWN
        partial = _HiddenSlots(world, [(decls[f].name, persons[p])
                                       for f, p in hidden])
        for (check, _, _, _), axiom in zip(axioms, puzzle.axioms):
            result = check(world.types, values)
            assert type(result) is bool
            assert result is (eval_partial(partial, axiom) is not False)
        for (check, _, _, _), step in zip(steps, puzzle.transcript):
            result = check(world.types, values)
            assert type(result) is bool
            value = eval_partial(partial, step.body, step.person)
            required = step.required(world.types[step.person_index])
            assert result is (value is UNKNOWN or value == required)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_types_outside_types_read_never_change_a_check(seed):
    # The solver decides a fluent-free check once the last person in
    # `typed` is typed, and keeps its outcome by what it reads of their
    # types, so no other person's type may move its value, whatever the
    # fluent slots hold.
    rng = random.Random(seed)
    persons = support.WIDE_NAME_POOL[:rng.randint(1, 4)]
    if rng.random() < 0.5:
        decls = DECLS
        stmt = random_statement(rng, persons=persons)
    else:
        decls = CATEGORICAL_DECLS
        stmt = support.random_categorical_statement(rng, 3, persons, decls)
    speaker = rng.choice(persons)
    check, _, typed = _compile_kleene(stmt, speaker, persons, decls)
    world = random_world(rng, persons, decls)
    values = [[UNKNOWN if rng.random() < 0.3 else value for value in row]
              for row in world.fluent_values]
    expected = check(world.types, values)
    for p in set(range(len(persons))) - typed.keys():
        for t in ALL_TYPES:
            types = list(world.types)
            types[p] = t
            assert check(types, values) is expected


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_types_read_alike_never_change_a_check(seed):
    # Of a typed person's type a check reads only its class: the builtins
    # `typed` names for the person and, for an utterance's speaker, the
    # value its type wants.  The solver decides a fluent-free check once
    # per combination of those classes, so any type of the same class may
    # stand in for a typed person's, whatever the fluent slots hold.
    rng = random.Random(seed)
    persons = support.WIDE_NAME_POOL[:rng.randint(1, 4)]
    if rng.random() < 0.5:
        decls = DECLS
        stmt = random_statement(rng, persons=persons)
    else:
        decls = CATEGORICAL_DECLS
        stmt = support.random_categorical_statement(rng, 3, persons, decls)
    speaker = rng.choice(persons)
    me = persons.index(speaker)
    odd, is_belief, answered_no = (rng.random() < 0.5 for _ in range(3))
    required = tuple(asserted_truth(t, odd, is_belief) != answered_no
                     for t in ALL_TYPES)
    check, _, typed, _ = compile_statement(stmt, speaker, persons, decls,
                                           required)
    world = random_world(rng, persons, decls)
    values = [[UNKNOWN if rng.random() < 0.3 else value for value in row]
              for row in world.fluent_values]
    expected = check(world.types, values)
    for p, read in typed.items():
        def reading(t):
            return ([t.builtins[name] for name in sorted(read)],
                    p == me and required[t.index])
        for t in ALL_TYPES:
            if reading(t) == reading(world.types[p]):
                types = list(world.types)
                types[p] = t
                assert check(types, values) is expected


def _deep_quantifiers(depth: int):
    return parse_statement(
        "forall x0 . hungry(x0) or doctor(x0) and hungry(me) or "
        + " and ".join(f"exists x{i} . shifty(x{i})" for i in range(1, depth)))


def test_compiled_check_of_deep_quantifiers_is_the_tree_walker():
    # Each quantifier's body is compiled once, where unrolling it over
    # three persons would build 3**12 copies of the innermost atom.  The
    # chain stops at each level's first definite miss, which keeps the
    # tree walker fast.
    persons = support.NAME_POOL
    stmt = _deep_quantifiers(12)
    check, reads, typed = _compile_kleene(stmt, "Beth", persons, DECLS)
    slots = [(f, p) for f in range(2) for p in range(3)]
    assert reads == set(slots)
    assert typed == dict.fromkeys(range(3), {"doctor"})
    rng = random.Random(12)
    seen = set()
    for _ in range(40):
        world = random_world(rng, persons, DECLS)
        hidden = rng.sample(slots, rng.randint(0, 3))
        values = [list(row) for row in world.fluent_values]
        for f, p in hidden:
            values[f][p] = UNKNOWN
        expected = eval_partial(
            _HiddenSlots(world, [(DECLS[f].name, persons[p])
                                 for f, p in hidden]), stmt, "Beth")
        assert check(world.types, values) is expected
        seen.add(expected)
    assert seen == {True, False, UNKNOWN}


def _first_slots(stmt, speaker, persons, decls):
    """The first slots that `not stmt`, and `stmt`, watch as axioms: the
    first slots read from where `stmt` can be True, and False."""
    watched = [compile_statement(s, speaker, persons, decls)[3]()
               for s in (Not(stmt), stmt)]
    return tuple(runs[0][0] if runs else math.inf for runs in watched)


def test_compiled_start_on_the_asylums_shapes(asylum):
    # Slots run fluent-major, person-minor: `lover` is the asylum's first
    # fluent and Ian its last person.
    names, decls = asylum.person_names, asylum.fluent_decls
    fluents = [decl.name for decl in decls]

    def slot(fluent, person):
        return fluents.index(fluent) * len(names) + names.index(person)

    def slots(text, speaker=None):
        return _first_slots(parse_statement(text), speaker, names, decls)

    assert (slots("exists x . carried(x) and not lover(x)")
            == (slot("carried", "Ann"), slot("lover", "Ian")))
    assert slots("exists x . unlocked(x)") == (slot("unlocked", "Ann"),
                                               slot("unlocked", "Ian"))
    assert (slots("forall x . carried(x) implies strong(x)")[1]
            == slot("carried", "Ann"))
    first = slot("lover", "Ann")
    assert slots("atleast 0 x . lover(x)") == (first, math.inf)
    assert slots("atleast 10 x . lover(x)") == (math.inf, first)
    # `doctor(me)` is definite before any fluent slot is set, so this
    # can be True from the start, which fails an utterance whose speaker
    # must say it is False; it can be False only once `lover(Ann)` is set.
    # Both are watched from `lover(Ann)`, the one slot it reads.
    assert slots("doctor(me) or lover(Ann)", "Beth") == (first, first)


def test_compiled_start_analyses_a_closed_quantifier_once():
    # Unrolled over three persons, a chain of 40 quantifiers would take
    # 3**40 bodies.  Each `exists` is closed, so it is analysed once, and
    # the chain is False from its last `shifty` slot on; `hungry(Ann)`,
    # the slot after it, is where the `forall` can first be False.
    for depth in (12, 40):
        _, false = _first_slots(_deep_quantifiers(depth), "Beth",
                                support.NAME_POOL, DECLS)
        assert false == 3
    # An open one is analysed again for each person its outer variable
    # holds: the `exists` can be True at `shifty(x)`, so the `forall` can
    # be True once `shifty(Cedric)`, slot 2, is set, and False only at
    # `hungry(Cedric)`, slot 5.
    assert _first_slots(
        parse_statement("forall x . exists y . shifty(x) or hungry(y)"),
        None, support.NAME_POOL, DECLS) == (2, 5)


def test_a_builtin_nest_is_analysed_once_per_quantifier(monkeypatch):
    # A builtin's first slots are -1 whoever it reads, so the persons that
    # outer quantifiers bind only for builtins do not key the analysis:
    # each `exists` is analysed once, where keying on every outer person
    # would analyse the body 3**24 times.  So `_first` runs at most once
    # per node per person, and a regression fails at that bound.
    depth = 24
    stmt = parse_statement(
        "".join(f"exists x{i} . " for i in range(depth)) + "(shifty(Ann) or "
        + " or ".join(f"sane(x{i})" for i in range(depth)) + ")")
    bound = len(support.NAME_POOL) * len(list(walk(stmt)))
    calls = 0
    first = statements._first

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls <= bound, "the analysis is not linear in the nest"
        return first(*args)

    monkeypatch.setattr(statements, "_first", counted)
    watch = compile_statement(stmt, None, support.NAME_POOL, DECLS)[3]
    assert [v for v, _ in watch()] == [0]  # False from `shifty(Ann)` on


def _read_once_statement(rng: random.Random, decls):
    """A random statement over Ann and Beth in which no two atoms read
    one fluent slot or one person's type.  Each leaf is an atom on a
    named person, or a quantifier whose body reads only its variable.
    A column is a fluent, or None for the builtins, which read the type."""
    free = {(column, p) for column in [*range(len(decls)), None]
            for p in range(2)}

    def atom(column, term):
        if column is None:
            return Atom(rng.choice(support.BUILTINS), term)
        decl = decls[column]
        return Atom(decl.name, term,
                    None if decl.is_boolean else rng.choice(decl.domain))

    def tree(leaf, size):
        if size == 1:
            node = leaf()
        else:
            left = rng.randint(1, size - 1)
            node = rng.choice(support.CONNECTIVES)(tree(leaf, left),
                                                   tree(leaf, size - left))
        return Not(node) if rng.random() < 0.3 else node

    def named():
        column, p = rng.choice(sorted(free, key=repr))
        free.remove((column, p))
        return atom(column, Person(("Ann", "Beth")[p]))

    def leaf():
        nonlocal later
        later -= 1
        whole = [column for column, p in free if p == 0
                 and (column, 1) in free]
        # Leave a cell for each later leaf.
        most = min(2, len(whole), (len(free) - later) // 2)
        if not most or rng.random() < 0.5:
            return named()
        columns = rng.sample(sorted(whole, key=repr), rng.randint(1, most))
        free.difference_update((column, p) for column in columns
                               for p in range(2))
        atoms = iter(columns)
        body = tree(lambda: atom(next(atoms), Var("x")), len(columns))
        if rng.random() < 0.5:
            return rng.choice((Exists, ForAll))("x", body)
        return AtLeast(rng.randint(0, 3), "x", body)

    later = rng.randint(1, 3)
    return tree(leaf, later)


def _first_false_slot(check, reads, typed, decls) -> float:
    """The first slot at which some row that sets every slot up to it,
    and no later one, makes `check` False on some types: -1 when the
    types alone can, `math.inf` when no row can.  Only the slots the
    check reads, and the types of its `typed` persons, are varied."""
    slots = sorted(f * 2 + p for f, p in reads)
    type_rows = list(itertools.product(
        *[ALL_TYPES if p in typed else ALL_TYPES[:1] for p in range(2)]))
    for level in range(len(slots) + 1):
        set_slots = slots[:level]
        for cells in itertools.product(
                *[decls[slot // 2].values() for slot in set_slots]):
            values = [[UNKNOWN] * 2 for _ in decls]
            for slot, value in zip(set_slots, cells):
                values[slot // 2][slot % 2] = value
            if not all(check(types, values) for types in type_rows):
                return set_slots[-1] if set_slots else -1
    return math.inf


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_compiled_start_is_exact_when_no_two_atoms_read_one_slot(seed):
    # The read-once law says the start is never late; where no two atoms
    # read one fluent slot or one person's type, it is not early either:
    # some row that sets the slots up to it makes the check False.  So the
    # check watches exactly the slots it reads from there on.
    rng = random.Random(seed)
    decls = (FluentDecl("shifty"), support.MOOD)
    stmt = _read_once_statement(rng, decls)
    check, reads, typed, watch = compile_statement(stmt, None,
                                                   ("Ann", "Beth"), decls)
    first = _first_false_slot(check, reads, typed, decls)
    assert [v for v, _ in watch()] == [
        v for v in sorted(f * 2 + p for f, p in reads) if v >= first]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_a_watched_run_is_the_check_where_it_passed_with_the_slot_unset(seed):
    # The watch law: where a check passes with fluent slot v UNKNOWN, the
    # run its watch list gives for v answers as the whole check does once
    # v is set, to any value, and v is a slot the check reads.  An axiom
    # wants True; a speaker here wants one value, True or False, whatever
    # its type.
    rng = random.Random(seed)
    persons = support.NAME_POOL[:rng.randint(1, 3)]
    if rng.random() < 0.5:
        decls = DECLS
        stmt = random_statement(rng, persons=persons)
    else:
        decls = CATEGORICAL_DECLS
        stmt = support.random_categorical_statement(rng, 3, persons, decls)
    n = len(persons)
    want = rng.choice((None, False, True))
    required = None if want is None else (want,) * len(ALL_TYPES)
    check, reads, _, watch = compile_statement(
        stmt, rng.choice(persons), persons, decls, required)
    world = random_world(rng, persons, decls)
    types = world.types
    values = [[v if rng.random() < 0.5 else UNKNOWN for v in row]
              for row in world.fluent_values]
    read = {f * n + p for f, p in reads}
    for v, run in watch():
        assert v in read
        f, p = divmod(v, n)
        row, kept = values[f], values[f][p]
        row[p] = UNKNOWN
        if check(types, values):
            for value in decls[f].values():
                row[p] = value
                assert run(types, values) is check(types, values)
        row[p] = kept


class _CountedTypes(tuple):
    """A types row that counts the reads of its persons' types."""
    reads = 0

    def __getitem__(self, p):
        type(self).reads += 1
        return super().__getitem__(p)


def test_a_watched_exists_runs_only_the_instance_of_the_slot_set(asylum):
    # A delusional liar's belief is false, so Beth's round-5 "there is a
    # killer among the doctors" wants no resident to fit: each of the
    # nine instances is a part, and once one guilt slot is set, only its
    # instance runs again, reading its person's type once.
    names, decls = asylum.person_names, asylum.fluent_decls
    k, step = next((k, step) for k, step in enumerate(asylum.transcript)
                   if step.round_index == 5 and step.person == "Beth")
    check, _, _, watch = asylum.compiled[1][k]
    dl = TYPES_BY_LABEL["DL"]
    assert step.required(dl) is False
    types = _CountedTypes([dl] * len(names))
    guilt = [decl.name for decl in decls].index("guilt")
    values = [[UNKNOWN] * len(names) for _ in decls]
    cedric = names.index("Cedric")
    values[guilt][:cedric] = ["innocent"] * cedric
    assert check(types, values)
    instance = dict(watch())[guilt * len(names) + cedric]
    values[guilt][cedric] = "guilty"
    for run, instances in ((instance, 1), (check, len(names))):
        _CountedTypes.reads = 0
        assert run(types, values)  # the slot's instance is no doctor
        assert _CountedTypes.reads == 1 + instances  # and the speaker's


def _watched_puzzles(asylum):
    """The asylum and 40 seeds of each puzzle generator."""
    yield asylum
    for seed in range(40):
        yield support.random_puzzle(random.Random(seed))
        yield support.random_nonlocal_puzzle(random.Random(seed))
        yield support.random_probed_puzzle(random.Random(seed))[0]
        for generate in (support.random_categorical_puzzle,
                         support.random_categorical_trio):
            yield generate(random.Random(seed), hidden=seed % 2 == 0)


WATCH_LISTS_SHA256 = (
    3087, "0e295c171638923138199697d4c4702778a888d5abad175a86d243abc04d5492")


def test_every_watch_list_is_pinned(asylum):
    # What the fluent search runs, and where: each `(slot, run is check)`
    # pair of every compiled check's `watch()` list, and what each run and
    # its check give on three partial rows per check.  A change to how a
    # check is compiled or watched must leave all of it as it was.
    records = []
    for puzzle in _watched_puzzles(asylum):
        names, decls = puzzle.person_names, puzzle.fluent_decls
        rng = random.Random(len(names) * 10 + len(decls))
        axioms, steps = puzzle.compiled
        for check, _, _, watch in axioms + steps:
            rows = [([rng.choice(ALL_TYPES) for _ in names],
                     [[rng.choice(decl.values()) if rng.random() < 0.5
                       else UNKNOWN for _ in names] for decl in decls])
                    for _ in range(3)]
            records.append(repr([check(*row) for row in rows]))
            records.extend(repr((v, run is check, [run(*row) for row in rows]))
                           for v, run in watch())
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert (len(records), digest) == WATCH_LISTS_SHA256


def _walk_every_two_person_world(text, decls, types=ALL_TYPES) -> set:
    """Compile `text` for two persons and run it on every world over
    `types`, each fluent slot one of its values or UNKNOWN.  The value
    its checks give back (`_compile_kleene`) must be `eval_partial` on rows
    with an UNKNOWN slot and `eval_closed` on full rows.  Returns the
    values seen."""
    persons = ("Ann", "Beth")
    stmt = parse_statement(text, persons, decls)
    check, _, _ = _compile_kleene(stmt, None, persons, decls)
    slots = [(f, p) for f in range(len(decls)) for p in range(2)]
    seen = set()
    for pair in itertools.product(types, repeat=2):
        for cells in itertools.product(
                *[decls[f].values() + (UNKNOWN,) for f, _ in slots]):
            values = [list(cells[2 * f:2 * f + 2]) for f in range(len(decls))]
            world = World(persons, pair, decls, tuple(
                tuple(decl.values()[0] if v is UNKNOWN else v for v in row)
                for decl, row in zip(decls, values)))
            hidden = [(decls[f].name, persons[p]) for (f, p), v
                      in zip(slots, cells) if v is UNKNOWN]
            expected = (eval_partial(_HiddenSlots(world, hidden), stmt)
                        if hidden else eval_closed(world, stmt))
            assert check(pair, values) is expected
            seen.add(expected)
    return seen


@pytest.mark.parametrize("text", SHADOWED)
def test_shadowed_variables_compile_as_the_tree_walker_reads_them(text):
    decls = (FluentDecl("f"), FluentDecl("g"))
    assert _walk_every_two_person_world(text, decls) == {True, False, UNKNOWN}


# A check reads a type only through its builtins: one type per row of them.
BUILTIN_CLASSES = tuple({tuple(t.builtins.values()): t
                         for t in ALL_TYPES}.values())
NEGATION_DECLS = (FluentDecl("f"), FluentDecl("mood", ("calm", "wild")))
ALL_VALUES = {True, False, UNKNOWN}


@pytest.mark.parametrize("text, seen", [
    # `not atleast k` of two persons, for k = 0, 1, n and n + 1.
    ("not atleast 0 x . f(x)", {False}),
    ("not atleast 1 x . f(x) or doctor(x)", ALL_VALUES),
    ("not atleast 2 x . mood(x, calm) implies f(x)", ALL_VALUES),
    ("not atleast 3 x . f(x)", {True}),
    ("not forall x . f(x) and not sane(x)", ALL_VALUES),
    ("not exists x . mood(x, wild) or liar(x)", ALL_VALUES),
    ("not (f(Ann) implies mood(Beth, calm))", ALL_VALUES),
    ("not (f(Ann) implies f(Beth) implies not doctor(Ann))", ALL_VALUES),
    # Nested negated quantifiers, one of them shadowing.
    ("not exists x . not forall y . f(y) implies not mood(x, calm)",
     ALL_VALUES),
    ("not forall x . not atleast 2 y . f(x) or mood(y, calm)", ALL_VALUES),
    ("not exists x . (not forall x . f(x)) and not mood(x, calm)",
     ALL_VALUES),
    # Negated categorical and builtin atoms.
    ("not mood(Ann, calm) and not doctor(Beth)", ALL_VALUES),
    ("not not mood(Beth, wild) or not partial(Ann)", ALL_VALUES),
])
def test_negations_compile_as_the_tree_walker_reads_them(text, seen):
    # `not` is pushed down to the atoms as a statement compiles.
    assert _walk_every_two_person_world(text, NEGATION_DECLS,
                                        BUILTIN_CLASSES) == seen


def test_compile_errors_are_the_tree_walkers():
    # A name is resolved as its atom compiles, and a bad one raises what
    # the tree walker raises on reaching that atom.
    persons, decls = support.NAME_POOL, CATEGORICAL_DECLS
    world = random_world(random.Random(4), persons, decls)
    undeclared = "undeclared predicate 'guilty'"
    cases = [
        (Atom("doctor", Person("Zed")), "Ann", "unknown person 'Zed'"),
        (Atom("guilty", Person("Ann")), "Ann", undeclared),
        (Atom("guilty", Person("Zed")), "Ann", undeclared),
        (Atom("doctor", Var("x")), "Ann", "unbound variable 'x'"),
        (Atom("doctor", ME), None, "'me' used outside any utterance"),
        (Atom("doctor", Person("Ann"), "yes"), "Ann",
         "builtin 'doctor' takes no value"),
        (Atom("mood", Person("Ann")), "Ann",
         "fluent 'mood' needs a value"),
        (Atom("shifty", Person("Ann"), "calm"), "Ann",
         "boolean fluent 'shifty' takes no value"),
    ]
    for stmt, speaker, message in cases:
        with pytest.raises(SemanticError) as walked:
            eval_closed(world, stmt, speaker)
        with pytest.raises(SemanticError) as compiled:
            compile_statement(stmt, speaker, persons, decls)
        assert str(compiled.value) == str(walked.value) == message


def test_forall_over_empty_person_set_is_true():
    empty = World((), (), (), ())
    stmt = ForAll("x", Atom("sane", Var("x")))
    assert eval_closed(empty, stmt) is True
    assert eval_closed(empty, Exists("x", Atom("sane", Var("x")))) is False


def test_atleast_counts_persons():
    rng = random.Random(7)
    world = random_world(rng, support.NAME_POOL, DECLS)
    sane_count = sum(world.builtin_value("sane", p) for p in world.person_names)
    body = Atom("sane", Var("x"))
    for k in range(5):
        assert eval_closed(world, AtLeast(k, "x", body)) == (sane_count >= k)


def test_quantifier_shadowing_restores_outer_binding():
    rng = random.Random(3)
    # exists x . sane(x) and (exists x . patient(x)) and sane(x):
    # the trailing sane(x) must still see the outer binding.  Only a world
    # with a sane person and a patient runs the inner exists and reads x
    # after it, so the worlds must include some.
    stmt = Exists("x", And((Atom("sane", Var("x")),
                            Exists("x", Atom("patient", Var("x"))),
                            Atom("sane", Var("x")))))
    holds = 0
    for _ in range(20):
        world = random_world(rng, support.NAME_POOL, DECLS)
        expected = any(
            world.builtin_value("sane", p)
            and any(world.builtin_value("patient", q)
                    for q in world.person_names)
            for p in world.person_names)
        assert eval_closed(world, stmt) == expected
        holds += expected
    assert holds


def _malformed(rng: random.Random, atom: Atom) -> Statement:
    """`atom` made wrong in one of nine ways: eight the walker rejects,
    and a value outside its fluent's domain, which it reads as False."""
    kind = rng.randrange(9)
    if kind == 0:
        return Atom(rng.choice(support.BUILTINS), atom.term, "yes")
    if kind == 1:
        return Atom("shifty", atom.term, "calm")
    if kind == 2:
        return Atom(support.MOOD.name, atom.term)
    if kind == 3:
        return Atom("guilty", atom.term)
    if kind == 4:
        return dataclasses.replace(atom, term=Person("Zed"))
    if kind == 5:
        return dataclasses.replace(atom, term=Var("w"))
    if kind == 6:
        return dataclasses.replace(atom, term=ME)
    if kind == 7:
        return Believes(atom)
    return Atom(support.MOOD.name, atom.term, "bogus")


def _malform(rng: random.Random, stmt: Statement) -> Statement:
    """`stmt` with each atom made wrong with probability 1/20."""
    if isinstance(stmt, Atom):
        return _malformed(rng, stmt) if rng.random() < 0.05 else stmt
    if isinstance(stmt, (And, Or)):
        return type(stmt)(tuple(_malform(rng, item) for item in stmt.items))
    if isinstance(stmt, Implies):
        return Implies(_malform(rng, stmt.left), _malform(rng, stmt.right))
    return dataclasses.replace(stmt, body=_malform(rng, stmt.body))


# What `eval_partial` on hidden slots and `eval_closed` on the full world
# return or raise for 5,000 seeded statements, some with malformed atoms.
# The digest covers every value and error message in order, so it moves
# if the walker changes a value, or which fault it meets first.
WALKER_OUTCOMES = {"False": 3216, "True": 3155, "UNKNOWN": 831,
                   "SemanticError": 2798}
WALKER_OUTCOMES_SHA256 = (
    "b4b3a650c7f16f16392fe9fc0ed3c736de32bf8ee49d628c715e1365a99453a8")


def test_walker_outcomes_are_pinned():
    rng = random.Random(39)
    outcomes = []
    for _ in range(5000):
        persons = support.WIDE_NAME_POOL[:rng.randint(0, 4)]
        depth = rng.randint(1, 4)
        if not persons or rng.random() < 0.5:
            decls = DECLS
            stmt = random_statement(rng, depth, persons=persons)
        else:
            decls = support.WIDE_FLUENT_POOL
            stmt = support.random_categorical_statement(rng, depth, persons,
                                                        decls)
        stmt = _malform(rng, stmt)
        speaker = rng.choice(persons + (None,))
        world = random_world(rng, persons, decls)
        hidden = [(decl.name, person) for decl in decls for person in persons
                  if rng.random() < 0.5]
        for evaluate, on in ((eval_partial, _HiddenSlots(world, hidden)),
                             (eval_closed, world)):
            try:
                outcomes.append(repr(evaluate(on, stmt, speaker)))
            except SemanticError as err:
                outcomes.append(f"{type(err).__name__}: {err}")
    assert Counter(outcome.split(":")[0] for outcome in outcomes) == \
        WALKER_OUTCOMES
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == WALKER_OUTCOMES_SHA256


def test_eval_closed_rejects_an_undetermined_statement():
    rng = random.Random(1)
    world = random_world(rng, support.NAME_POOL, DECLS)
    lover = DECLS[0].name
    partial = _HiddenSlots(world, [(lover, "Ann")])
    with pytest.raises(SemanticError, match="^statement not determined by a "
                                            "partial world$"):
        eval_closed(partial, Atom(lover, Person("Ann")))


def test_eval_rejects_believes():
    rng = random.Random(1)
    world = random_world(rng, support.NAME_POOL, DECLS)
    with pytest.raises(SemanticError):
        eval_closed(world, Believes(Atom("sane", Person("Ann"))))


def test_substitute_me():
    stmt = parse_statement("believes(lover(me) and exists x . lover(x))")
    substituted = substitute_me(stmt, "Beth")
    assert substituted == Believes(And((Atom("lover", Person("Beth")),
                                        Exists("x", Atom("lover", Var("x"))))))


def test_substitute_me_rebuilds_every_node_kind():
    text = ("believes(not lover(me) or (lover(Ann) implies forall x . "
            "atleast 2 y . lover(me) and lover(y)))")
    expected = text.replace("(me)", "(Beth)")
    assert substitute_me(parse_statement(text), "Beth") == \
        parse_statement(expected)
    with pytest.raises(TypeError, match="^not a statement node: 'lover'$"):
        substitute_me("lover", "Beth")
