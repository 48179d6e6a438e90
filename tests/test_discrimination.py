"""Signatures, partitions, and the reference tables."""

import pytest

from bedlam.discrimination import (BELIEF_QUESTION, FOUR_QUESTION_PLAN,
                                   LEGACY_TWO_QUESTION_SIGNATURES,
                                   PATIENT_QUESTION, THREE_QUESTION_PLAN,
                                   TWO_QUESTION_PLAN, UnsupportedQuestionError,
                                   answer_signature, filter_types_by_signature,
                                   partition_types, tables_report,
                                   two_question_table)
from bedlam.semantics import ALL_TYPES, Answer, TYPES_BY_LABEL
from bedlam.statements import (And, AtLeast, Atom, Believes, Exists, ForAll,
                               ME, Not, Person, Var)

# The full four-question table, one column per type.
FOUR_QUESTION_SIGNATURES = {
    "ST": "NNNN", "SL": "YYYY", "SAt": "NYNY", "SAl": "YNYN",
    "DT": "NNYY", "DL": "YYNN", "DAt": "NYYN", "DAl": "YNNY",
    "PiT": "NYYY", "PiL": "YNNN", "PiAt": "NNYN", "PiAl": "YYNY",
    "PsT": "YNYY", "PsL": "NYNN", "PsAt": "YYYN", "PsAl": "NNNY",
}

THREE_QUESTION_PAIRS = {
    "NNN": {"ST", "PsAl"}, "YYY": {"SL", "PsAt"},
    "NYN": {"SAt", "PsL"}, "YNY": {"SAl", "PsT"},
    "YYN": {"DL", "PiAl"}, "NNY": {"DT", "PiAt"},
    "YNN": {"DAl", "PiL"}, "NYY": {"DAt", "PiT"},
}


def test_answer_signature_examples():
    assert answer_signature(TYPES_BY_LABEL["PsAt"], FOUR_QUESTION_PLAN) == "YYYN"
    assert answer_signature(TYPES_BY_LABEL["PiAt"], FOUR_QUESTION_PLAN) == "NNYN"
    assert answer_signature(TYPES_BY_LABEL["DT"], []) == ""


def test_four_question_table_full():
    for t in ALL_TYPES:
        assert answer_signature(t, FOUR_QUESTION_PLAN) == \
            FOUR_QUESTION_SIGNATURES[t.label]


def test_four_question_signatures_are_a_bijection():
    signatures = {answer_signature(t, FOUR_QUESTION_PLAN) for t in ALL_TYPES}
    assert len(signatures) == 16
    assert signatures == {f"{a}{b}{c}{d}"
                          for a in "YN" for b in "YN"
                          for c in "YN" for d in "YN"}


def test_three_question_partition_is_the_eight_pairs():
    partition = partition_types(THREE_QUESTION_PLAN)
    classes = {sig: {t.label for t in types}
               for sig, types in partition.classes}
    assert classes == THREE_QUESTION_PAIRS
    assert not partition.is_discrete


def test_four_question_partition_is_discrete():
    partition = partition_types(FOUR_QUESTION_PLAN)
    assert partition.is_discrete
    assert len(partition.classes) == 16


def test_single_question_partition_splits_in_half():
    partition = partition_types([PATIENT_QUESTION])
    sizes = sorted(len(types) for _, types in partition.classes)
    assert sizes == [8, 8]


def test_partition_covers_all_types_disjointly():
    for plan in ([PATIENT_QUESTION], TWO_QUESTION_PLAN, THREE_QUESTION_PLAN,
                 FOUR_QUESTION_PLAN, [BELIEF_QUESTION, BELIEF_QUESTION]):
        partition = partition_types(plan)
        seen = [t for _, types in partition.classes for t in types]
        assert len(seen) == 16
        assert set(seen) == set(ALL_TYPES)


def test_repeated_question_flip_laws():
    # A repeated bare question flips exactly when one of the two toggles
    # (truthfulness, sanity) is active but not both; a repeated belief
    # question flips exactly for alternators, since sanity cancels out.
    from bedlam.semantics import Sanity, Truthfulness
    for t in ALL_TYPES:
        alternating = t.truthfulness is Truthfulness.ALTERNATOR
        partial = t.sanity is Sanity.PARTIAL
        fact_sig = answer_signature(t, [PATIENT_QUESTION, PATIENT_QUESTION])
        assert (fact_sig[0] == fact_sig[1]) == (alternating == partial)
        belief_sig = answer_signature(t, [BELIEF_QUESTION, BELIEF_QUESTION])
        assert (belief_sig[0] == belief_sig[1]) == (not alternating)


def test_filter_types_by_signature_examples():
    assert {t.label for t in filter_types_by_signature(
        THREE_QUESTION_PLAN, "YYY")} == {"SL", "PsAt"}
    assert {t.label for t in filter_types_by_signature(
        THREE_QUESTION_PLAN, "NNN")} == {"ST", "PsAl"}
    assert filter_types_by_signature([], []) == frozenset(ALL_TYPES)
    answers = [Answer.YES, Answer.YES, Answer.YES]
    assert filter_types_by_signature(THREE_QUESTION_PLAN, answers) == \
        filter_types_by_signature(THREE_QUESTION_PLAN, "YYY")


def test_filter_length_mismatch():
    with pytest.raises(ValueError):
        filter_types_by_signature(THREE_QUESTION_PLAN, "YY")
    with pytest.raises(ValueError, match="^not a Y/N signature: 'YYX'$"):
        filter_types_by_signature(THREE_QUESTION_PLAN, "YYX")


def test_two_question_table_and_documented_divergence():
    engine = two_question_table()
    assert engine == {"ST": "NN", "SL": "YY", "DT": "NY", "DL": "YN"}
    differing = {label for label in engine
                 if engine[label] != LEGACY_TWO_QUESTION_SIGNATURES[label]}
    assert differing == {"SL", "DL"}
    # Both divergent cells are the belief question; the fact answers agree.
    for label in differing:
        assert engine[label][0] == LEGACY_TWO_QUESTION_SIGNATURES[label][0]
        assert engine[label][1] != LEGACY_TWO_QUESTION_SIGNATURES[label][1]


def test_questions_about_fluents_are_unsupported():
    with pytest.raises(UnsupportedQuestionError):
        answer_signature(TYPES_BY_LABEL["ST"], [Atom("lover", ME)])
    # The fluent rule comes before the named-person rule, and names the
    # sorted-first fluent.
    question = And((Atom("doctor", Person("Ann")), Atom("lover", ME),
                    Atom("hungry", ME)))
    with pytest.raises(UnsupportedQuestionError, match="'hungry' is a fluent"):
        answer_signature(TYPES_BY_LABEL["ST"], [question])


def test_quantified_questions_are_unsupported():
    # A quantifier ranges over the other residents too, whom the
    # answerer's type says nothing about.
    patient = Atom("patient", Var("x"))
    for label, question in (("ST", Exists("x", patient)),
                            ("SL", AtLeast(2, "x", patient)),
                            ("DT", ForAll("x", patient)),
                            ("SL", Believes(Not(Exists("x", patient))))):
        with pytest.raises(UnsupportedQuestionError,
                           match="'x' ranges over every person"):
            answer_signature(TYPES_BY_LABEL[label], [question])
        with pytest.raises(UnsupportedQuestionError):
            partition_types([PATIENT_QUESTION, question])


def test_tables_report_is_stable_and_contains_key_rows():
    report = tables_report()
    assert report == tables_report()
    assert "PsAt YYYN" in report
    assert "NYN → SAt, PsL" in report
    assert "(*)" in report


def test_questions_about_named_persons_are_unsupported():
    # A named person is not the answerer, whatever the name; the answerer's
    # internal name is no way in either.
    for name in ("Ann", "subject"):
        message = f"'{name}' is a named person"
        with pytest.raises(UnsupportedQuestionError, match=message):
            answer_signature(TYPES_BY_LABEL["ST"],
                             [Believes(Not(Atom("patient", Person(name))))])
        with pytest.raises(UnsupportedQuestionError, match=message):
            partition_types([PATIENT_QUESTION, Atom("doctor", Person(name))])


def test_one_shot_question_iterators_give_the_plans_results():
    for t in ALL_TYPES:
        assert answer_signature(t, iter(FOUR_QUESTION_PLAN)) == \
            FOUR_QUESTION_SIGNATURES[t.label]
    assert partition_types(iter(THREE_QUESTION_PLAN)) == \
        partition_types(THREE_QUESTION_PLAN)
    assert {t.label for t in filter_types_by_signature(
        iter(THREE_QUESTION_PLAN), "YYN")} == THREE_QUESTION_PAIRS["YYN"]
    with pytest.raises(ValueError, match="2 answers recorded for 3 questions"):
        filter_types_by_signature(iter(THREE_QUESTION_PLAN), "YY")
