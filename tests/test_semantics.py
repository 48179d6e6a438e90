"""Behavioral laws of the sixteen types, checked exhaustively."""

import itertools

import pytest

from bedlam.semantics import (ALL_TYPES, AgentState, Answer, Ask, ExtendedType,
                              Sanity, Say, Truthfulness, TYPES_BY_LABEL,
                              advance, answer_yes_no, current_phases,
                              decode_assertion, simulate_person,
                              type_from_label, would_assert)
from bedlam.statements import (And, Atom, BUILTIN_PREDICATES, Believes, ME,
                               Not, Person, SemanticError)
from bedlam.worlds import FluentDecl, World, builtin_truth

FLAG = Atom("flag", ME)


def flag_world(type_: ExtendedType, value: bool) -> World:
    return World(("Subject",), (type_,), (FluentDecl("flag"),), ((value,),))


def test_sixteen_distinct_types():
    assert len(ALL_TYPES) == 16
    assert len({t.label for t in ALL_TYPES}) == 16
    assert [t.label for t in ALL_TYPES] == [
        "ST", "SL", "SAt", "SAl", "DT", "DL", "DAt", "DAl",
        "PiT", "PiL", "PiAt", "PiAl", "PsT", "PsL", "PsAt", "PsAl"]


def test_type_invariants_enforced():
    with pytest.raises(ValueError):
        ExtendedType(Sanity.SANE, Truthfulness.TRUTHTELLER, False, True)
    with pytest.raises(ValueError):
        ExtendedType(Sanity.DELUSIONAL, Truthfulness.LIAR, False, True)
    with pytest.raises(ValueError):
        type_from_label("XQ")


def test_builtin_tables_list_exactly_the_builtin_predicates():
    for t in ALL_TYPES:
        assert set(t.builtins) == BUILTIN_PREDICATES
        with pytest.raises(SemanticError,
                           match="unknown builtin predicate 'bogus'"):
            builtin_truth(t, "bogus")


def test_with_fluent_rejects_an_undeclared_fluent():
    world = flag_world(TYPES_BY_LABEL["ST"], True)
    with pytest.raises(SemanticError, match="undeclared predicate 'nope'"):
        world.with_fluent("nope", "Subject", True)


def test_a_boolean_fluent_rejects_zero_and_one():
    # 0 == False and 1 == True, but neither is a boolean value.
    world = flag_world(TYPES_BY_LABEL["ST"], True)
    for value in (0, 1, 1.0):
        message = f"value {value!r} not in domain of 'flag'"
        with pytest.raises(ValueError, match=message):
            flag_world(TYPES_BY_LABEL["ST"], value)
        with pytest.raises(ValueError, match=message):
            world.with_fluent("flag", "Subject", value)


def test_current_phases_examples():
    # Non-alternating classes ignore the count entirely.
    assert current_phases(AgentState(TYPES_BY_LABEL["ST"], 7)) == (True, True)
    # A PsAt is truthful and sane at its first utterance, both flipped at odd counts.
    assert current_phases(AgentState(TYPES_BY_LABEL["PsAt"], 0)) == (True, True)
    assert current_phases(AgentState(TYPES_BY_LABEL["PsAt"], 3)) == (False, False)
    for k in range(6):
        assert current_phases(AgentState(TYPES_BY_LABEL["DL"], k)) == (False, False)


def test_advance_examples():
    state = advance(AgentState(TYPES_BY_LABEL["SAl"], 0))
    assert current_phases(state)[0] is True
    state = advance(AgentState(TYPES_BY_LABEL["ST"], 0))
    assert current_phases(state)[0] is True


def test_phase_periodicity_all_types():
    for t in ALL_TYPES:
        for count in range(4):
            state = AgentState(t, count)
            assert current_phases(advance(advance(state))) == current_phases(state)


def test_advanced_label_is_involution():
    for t in ALL_TYPES:
        assert t.advanced(2) == t
        assert t.advanced().advanced() == t
    assert TYPES_BY_LABEL["PiAl"].advanced().label == "PsAt"
    assert TYPES_BY_LABEL["SAt"].advanced().label == "SAl"


def test_bare_statement_law_exhaustive():
    # 16 types x 2 parities x 2 truth values.
    for t, parity, value in itertools.product(ALL_TYPES, (0, 1), (True, False)):
        state = AgentState(t, parity)
        truthful, sane = current_phases(state)
        world = flag_world(t, value)
        assert would_assert(state, world, FLAG, "Subject") == \
            ((truthful == sane) == value)


def test_belief_collapse_exhaustive():
    # Sanity never shows up in the outcome of a belief report.
    for t, parity, value in itertools.product(ALL_TYPES, (0, 1), (True, False)):
        state = AgentState(t, parity)
        truthful, _ = current_phases(state)
        world = flag_world(t, value)
        assert would_assert(state, world, Believes(FLAG), "Subject") == \
            (truthful == value)


def test_nested_believes_collapses():
    for t, value in itertools.product(ALL_TYPES, (True, False)):
        state = AgentState(t, 0)
        world = flag_world(t, value)
        assert would_assert(state, world, Believes(Believes(FLAG)), "Subject") == \
            would_assert(state, world, Believes(FLAG), "Subject")


def test_believes_below_top_level_rejected():
    state = AgentState(TYPES_BY_LABEL["ST"])
    world = flag_world(TYPES_BY_LABEL["ST"], True)
    bad = And((Believes(FLAG), FLAG))
    with pytest.raises(SemanticError):
        would_assert(state, world, bad, "Subject")


def test_open_statement_rejected():
    from bedlam.statements import Var
    state = AgentState(TYPES_BY_LABEL["ST"])
    world = flag_world(TYPES_BY_LABEL["ST"], True)
    with pytest.raises(SemanticError):
        would_assert(state, world, Atom("flag", Var("x")), "Subject")


def test_would_assert_examples():
    # A delusional liar tells the truth about simple facts.
    dl = TYPES_BY_LABEL["DL"]
    assert would_assert(AgentState(dl, 0), flag_world(dl, True), FLAG, "Subject")
    assert would_assert(AgentState(dl, 5), flag_world(dl, True), FLAG, "Subject")
    # A sane liar denies truths.
    sl = TYPES_BY_LABEL["SL"]
    assert not would_assert(AgentState(sl, 0), flag_world(sl, True), FLAG, "Subject")


def test_answer_yes_no_examples():
    patient_q = Atom("patient", ME)
    belief_q = Believes(Atom("patient", ME))
    st_world = World(("Subject",), (TYPES_BY_LABEL["ST"],))
    answer, state = answer_yes_no(AgentState(TYPES_BY_LABEL["ST"]), st_world,
                                  patient_q, "Subject")
    assert answer is Answer.NO
    assert state.utterances_made == 1
    dl_world = World(("Subject",), (TYPES_BY_LABEL["DL"],))
    state = AgentState(TYPES_BY_LABEL["DL"])
    for _ in range(2):  # both belief rounds of a DL answer no
        answer, state = answer_yes_no(state, dl_world, belief_q, "Subject")
        state = state  # counter advanced inside
    assert answer is Answer.NO


def test_exactly_one_answer():
    patient_q = Atom("patient", ME)
    belief_q = Believes(Atom("patient", ME))
    for t in ALL_TYPES:
        world = World(("Subject",), (t,))
        for parity in (0, 1):
            for question in (patient_q, belief_q):
                state = AgentState(t, parity)
                yes = would_assert(state, world, question, "Subject")
                answer, _ = answer_yes_no(state, world, question, "Subject")
                assert (answer is Answer.YES) == yes


def test_simulate_person_psat_column():
    plan = [Ask(Atom("patient", ME)), Ask(Atom("patient", ME)),
            Ask(Believes(Atom("patient", ME))), Ask(Believes(Atom("patient", ME)))]
    world = World(("Subject",), (TYPES_BY_LABEL["PsAt"],))
    fragment = simulate_person(TYPES_BY_LABEL["PsAt"], world, plan, "Subject")
    assert [a.letter for a in fragment.results] == ["Y", "Y", "Y", "N"]
    assert fragment.state.utterances_made == 4


def test_simulate_person_empty_plan():
    world = World(("Subject",), (TYPES_BY_LABEL["DT"],))
    fragment = simulate_person(TYPES_BY_LABEL["DT"], world, [], "Subject")
    assert fragment.results == ()
    assert fragment.state == AgentState(TYPES_BY_LABEL["DT"], 0)


def test_simulate_person_matches_step_oracle():
    # Independent oracle: thread the counter by hand over a toy two-person
    # world, recomputing each step from the phase rules directly.
    decls = (FluentDecl("rich"),)
    world = World(("Ann", "Beth"),
                  (TYPES_BY_LABEL["PsAt"], TYPES_BY_LABEL["DL"]),
                  decls, ((True, False),))
    questions = [Atom("rich", ME), Believes(Atom("rich", Person("Beth"))),
                 Atom("rich", Person("Ann"))]
    values = {0: True, 1: False, 2: True}  # evaluated by hand for speaker Ann
    for t in ALL_TYPES:
        toy = World(("Ann", "Beth"), (t, TYPES_BY_LABEL["DL"]),
                    decls, ((True, False),))
        expected = []
        for k, question in enumerate(questions):
            odd = k % 2 == 1
            truthful = t.truthful_at_start ^ (
                t.truthfulness is Truthfulness.ALTERNATOR and odd)
            sane = t.sane_at_start ^ (t.sanity is Sanity.PARTIAL and odd)
            value = values[k]
            if isinstance(question, Believes):
                says_yes = truthful == value
            else:
                says_yes = (truthful == sane) == value
            expected.append(Answer.YES if says_yes else Answer.NO)
        fragment = simulate_person(t, toy, [Ask(q) for q in questions], "Ann")
        assert list(fragment.results) == expected


def test_simulate_person_statement_slots_advance_counter():
    t = TYPES_BY_LABEL["SAt"]
    world = flag_world(t, True)
    plan = [Say(FLAG), Say(FLAG), Say(FLAG)]
    fragment = simulate_person(t, world, plan, "Subject")
    # SAt: truthful, lying, truthful against a true flag.
    assert list(fragment.results) == [True, False, True]
    assert fragment.state.utterances_made == 3


def test_decode_assertion_examples():
    guilt_doc = Atom("guilty_doctor", ME)
    dl_state = AgentState(TYPES_BY_LABEL["DL"], 0)
    decoded = decode_assertion(dl_state, Believes(guilt_doc))
    assert decoded == Not(guilt_doc)
    # A lying belief report decodes to the negation; a truthful bare
    # statement from a sane phase decodes to itself.
    st_state = AgentState(TYPES_BY_LABEL["ST"], 0)
    assert decode_assertion(st_state, guilt_doc) == guilt_doc
    psat_round5 = AgentState(TYPES_BY_LABEL["PsAt"], 5)
    assert decode_assertion(psat_round5, Believes(guilt_doc)) == Not(guilt_doc)
