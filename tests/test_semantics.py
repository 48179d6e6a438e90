"""Behavioral laws of the sixteen types, checked exhaustively."""

import itertools

import pytest

from bedlam.discrimination import (BELIEF_QUESTION, PATIENT_QUESTION,
                                   answer_signature)
from bedlam.puzzle import PuzzleSpec, QuestionRound, StatementsRound
from bedlam.semantics import (ALL_TYPES, AgentState, Answer, ExtendedType,
                              Sanity, Truthfulness, TYPES_BY_LABEL, advance,
                              current_phases, type_from_label, would_assert)
from bedlam.solver import check_world, explain_solution
from bedlam.statements import (And, Atom, BUILTIN_PREDICATES, Believes, ME,
                               Not, Person, SemanticError)
from bedlam.worlds import FluentDecl, World

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
    with pytest.raises(ValueError, match="^liars start lying$"):
        ExtendedType(Sanity.PARTIAL, Truthfulness.LIAR, True, True)
    with pytest.raises(ValueError, match="^sane people start sane$"):
        ExtendedType(Sanity.SANE, Truthfulness.ALTERNATOR, True, False)
    with pytest.raises(ValueError):
        type_from_label("XQ")


# The classes that allow one start flag: the flag and the refusal of the other.
ONE_START = {Truthfulness.TRUTHTELLER: (True, "truth-tellers start truthful"),
             Truthfulness.LIAR: (False, "liars start lying"),
             Sanity.SANE: (True, "sane people start sane"),
             Sanity.DELUSIONAL: (False, "delusional people start insane")}


def test_start_rules_exhaustive():
    # Of the 36 combinations, exactly ALL_TYPES construct, in its order;
    # the others raise their class's refusal, truthfulness checked first.
    built = []
    for sanity, sane, truthfulness, truthful in itertools.product(
            Sanity, (False, True), Truthfulness, (True, False)):
        refusals = [ONE_START[cls][1]
                    for cls, flag in ((truthfulness, truthful), (sanity, sane))
                    if cls in ONE_START and ONE_START[cls][0] != flag]
        if refusals:
            with pytest.raises(ValueError, match=f"^{refusals[0]}$"):
                ExtendedType(sanity, truthfulness, truthful, sane)
        else:
            built.append(ExtendedType(sanity, truthfulness, truthful, sane))
    assert tuple(built) == ALL_TYPES
    assert [t.label for t in built] == [t.label for t in ALL_TYPES]
    assert [t.index for t in built] == list(range(16))


def test_builtin_tables_list_exactly_the_builtin_predicates():
    for t in ALL_TYPES:
        assert set(t.builtins) == BUILTIN_PREDICATES
        world = flag_world(t, True)
        for predicate in BUILTIN_PREDICATES:
            assert world.builtin_value(predicate, "Subject") \
                is t.builtins[predicate]
        with pytest.raises(SemanticError,
                           match="unknown builtin predicate 'bogus'"):
            world.builtin_value("bogus", "Subject")


def test_fluent_value_rejects_an_undeclared_fluent():
    world = flag_world(TYPES_BY_LABEL["ST"], True)
    with pytest.raises(SemanticError, match="undeclared predicate 'nope'"):
        world.fluent_value("nope", "Subject")


def test_a_boolean_fluent_rejects_zero_and_one():
    # 0 == False and 1 == True, but neither is a boolean value.
    for value in (0, 1, 1.0):
        message = f"value {value!r} not in domain of 'flag'"
        with pytest.raises(ValueError, match=message):
            flag_world(TYPES_BY_LABEL["ST"], value)


def test_world_rows_fit_its_persons_and_fluents():
    st_ = TYPES_BY_LABEL["ST"]
    flag = (FluentDecl("flag"),)
    for types, values, message in (
            ((st_, st_), ((True,),), "one type per person required"),
            ((st_,), (), "one value tuple per declared fluent required"),
            ((st_,), ((True, False),), "fluent 'flag' must cover every person")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            World(("Subject",), types, flag, values)


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


def solo_puzzle(*rounds) -> PuzzleSpec:
    """A puzzle in which only Subject speaks, over `flag_world`'s fluent."""
    puzzle = PuzzleSpec(("Subject",), (FluentDecl("flag"),), (), rounds)
    puzzle.validate()
    return puzzle


def asked(question, answer: Answer) -> QuestionRound:
    return QuestionRound("q", question, ("Subject",), (answer,))


def says(stmt) -> StatementsRound:
    return StatementsRound((("Subject", stmt),))


def test_answers_to_the_classic_probes():
    # An ST denies being a patient; a DL denies believing it, twice over.
    st = TYPES_BY_LABEL["ST"]
    assert check_world(solo_puzzle(asked(PATIENT_QUESTION, Answer.NO)),
                       flag_world(st, True))
    assert not check_world(solo_puzzle(asked(PATIENT_QUESTION, Answer.YES)),
                           flag_world(st, True))
    twice = solo_puzzle(asked(BELIEF_QUESTION, Answer.NO),
                        asked(BELIEF_QUESTION, Answer.NO))
    assert check_world(twice, flag_world(TYPES_BY_LABEL["DL"], True))
    assert answer_signature(st, [PATIENT_QUESTION]) == "N"
    assert answer_signature(TYPES_BY_LABEL["DL"],
                            [BELIEF_QUESTION, BELIEF_QUESTION]) == "NN"


def test_exactly_one_answer_is_consistent():
    # After any consistent earlier answer, exactly one answer to a question
    # fits the type's world: yes exactly when the type would assert it.
    for t, parity in itertools.product(ALL_TYPES, (0, 1)):
        world = flag_world(t, True)
        for question in (PATIENT_QUESTION, BELIEF_QUESTION, FLAG):
            earlier = [asked(question, Answer.YES if would_assert(
                AgentState(t, 0), world, question, "Subject") else Answer.NO)
                for _ in range(parity)]
            consistent = [answer for answer in Answer if check_world(
                solo_puzzle(*earlier, asked(question, answer)), world)]
            yes = would_assert(AgentState(t, parity), world, question,
                               "Subject")
            assert consistent == [Answer.YES if yes else Answer.NO]


def test_simulate_person_psat_column():
    # A PsAt answers the four-question plan Y, Y, Y, N, one utterance each.
    t = TYPES_BY_LABEL["PsAt"]
    world = flag_world(t, True)
    plan = [PATIENT_QUESTION, PATIENT_QUESTION, BELIEF_QUESTION,
            BELIEF_QUESTION]
    column = [Answer.YES, Answer.YES, Answer.YES, Answer.NO]
    assert answer_signature(t, plan) == "YYYN"
    puzzle = solo_puzzle(*[asked(q, a) for q, a in zip(plan, column)])
    assert check_world(puzzle, world)
    assert [s.count for s in puzzle.transcript] == [0, 1, 2, 3]
    assert len(explain_solution(puzzle, world)) == 4
    wrong = solo_puzzle(*[asked(q, a) for q, a in zip(plan, column[:3])],
                        asked(BELIEF_QUESTION, Answer.YES))
    assert check_world(wrong, world).round_index == 3


def test_simulate_person_empty_plan():
    # No questions: an empty column, no utterances, nothing to contradict.
    t = TYPES_BY_LABEL["DT"]
    assert answer_signature(t, []) == ""
    puzzle = solo_puzzle()
    assert puzzle.transcript == ()
    assert check_world(puzzle, flag_world(t, True))
    assert explain_solution(puzzle, flag_world(t, True)) == ()


def test_check_world_matches_step_oracle():
    # Independent oracle: thread the counter by hand over a toy two-person
    # world, recomputing each step from the phase rules directly.
    decls = (FluentDecl("rich"),)
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
        # The oracle's answers fit the world; flipping any one breaks its
        # round.
        for flipped in (None, 0, 1, 2):
            answers = [(Answer.NO if a is Answer.YES else Answer.YES)
                       if k == flipped else a for k, a in enumerate(expected)]
            puzzle = PuzzleSpec(("Ann", "Beth"), decls, (), tuple(
                QuestionRound(f"q{k}", q, ("Ann",), (a,))
                for k, (q, a) in enumerate(zip(questions, answers))))
            puzzle.validate()
            result = check_world(puzzle, toy)
            assert bool(result) == (flipped is None)
            assert result.round_index == flipped


def test_statement_slots_advance_the_counter():
    # An SAt against a true flag is truthful, lying, truthful: `flag(me)`
    # fits each slot exactly when the speaker is truthful there.
    t = TYPES_BY_LABEL["SAt"]
    world = flag_world(t, True)
    said = []
    for k, truthful in enumerate((True, False, True)):
        result = check_world(solo_puzzle(*said, says(FLAG)), world)
        assert bool(result) == truthful
        assert result.round_index == (None if truthful else k)
        said.append(says(FLAG if truthful else Not(FLAG)))
    steps = explain_solution(solo_puzzle(*said), world)
    assert [(s.truthful_now, s.sane_now) for s in steps] == \
        [(True, True), (False, True), (True, True)]


def test_explained_facts_of_one_speaker():
    fact = Atom("flag", Person("Subject"))
    # A DL's belief report is a lie, so it decodes to the negation.
    dl = explain_solution(solo_puzzle(says(Believes(FLAG))),
                          flag_world(TYPES_BY_LABEL["DL"], False))
    assert [s.fact for s in dl] == [Not(fact)]
    # An ST's bare statement, truthful from a sane phase, decodes to itself.
    st = explain_solution(solo_puzzle(says(FLAG)),
                          flag_world(TYPES_BY_LABEL["ST"], True))
    assert [s.fact for s in st] == [fact]
    # A PsAt always says it is a patient; its sixth utterance, a belief
    # report, comes in a lying phase.
    psat = explain_solution(
        solo_puzzle(*[says(PATIENT_QUESTION)] * 5, says(Believes(FLAG))),
        flag_world(TYPES_BY_LABEL["PsAt"], False))
    assert psat[5].fact == Not(fact)
    assert not psat[5].truthful_now
