"""Ternary extraction: digits, letters, and the answer word."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bedlam.extraction import (Category, ExtractionConfig, ExtractionError,
                               encode_person, extract_word, value_to_letter)
from bedlam.solver import SolveStatus, solve_all

CONFIG = ExtractionConfig((
    Category("sanity", ("partial", "delusional", "sane")),
    Category("truthfulness", ("alternator", "liar", "truth-teller")),
    Category("guilt", ("accomplice", "guilty", "innocent")),
))

# Every fixture person's triple, digits, value and letter.
FIXTURE_ROWS = [
    ("Ann", ("partial", "alternator", "guilty"), "001", 1, "A"),
    ("Beth", ("delusional", "liar", "accomplice"), "110", 12, "L"),
    ("Cedric", ("sane", "alternator", "innocent"), "202", 20, "T"),
    ("David", ("partial", "liar", "innocent"), "012", 5, "E"),
    ("Eve", ("sane", "alternator", "accomplice"), "200", 18, "R"),
    ("Fiona", ("delusional", "liar", "innocent"), "112", 14, "N"),
    ("Grace", ("partial", "alternator", "guilty"), "001", 1, "A"),
    ("Holly", ("sane", "alternator", "innocent"), "202", 20, "T"),
    ("Ian", ("partial", "liar", "innocent"), "012", 5, "E"),
]


def test_encode_person_examples():
    assert encode_person(("partial", "alternator", "guilty"), CONFIG) == ("001", 1)
    assert encode_person(("sane", "alternator", "innocent"), CONFIG) == ("202", 20)
    assert encode_person(("partial", "alternator", "accomplice"), CONFIG) == ("000", 0)


def test_encode_person_rejects_unknown_value():
    with pytest.raises(ExtractionError):
        encode_person(("partial", "alternator", "framed"), CONFIG)
    with pytest.raises(ExtractionError,
                       match="^a report triple has exactly three components$"):
        encode_person(("partial", "alternator"), CONFIG)


def test_value_to_letter_bounds():
    assert value_to_letter(1) == "A"
    assert value_to_letter(12) == "L"
    assert value_to_letter(26) == "Z"
    for bad in (0, -3, 27):
        with pytest.raises(ExtractionError):
            value_to_letter(bad)


def test_encode_is_injective_and_spans_the_cube():
    values = {}
    for a in CONFIG.categories[0].values:
        for b in CONFIG.categories[1].values:
            for c in CONFIG.categories[2].values:
                digits, value = encode_person((a, b, c), CONFIG)
                assert digits not in values
                values[digits] = value
    assert sorted(values.values()) == list(range(27))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_reordering_one_category_changes_only_that_digit(seed):
    rng = random.Random(seed)
    which = rng.randrange(3)
    cat = CONFIG.categories[which]
    shuffled = list(cat.values)
    rng.shuffle(shuffled)
    cats = list(CONFIG.categories)
    cats[which] = Category(cat.name, tuple(shuffled))
    permuted = ExtractionConfig(tuple(cats))
    triple = tuple(rng.choice(c.values) for c in CONFIG.categories)
    before, _ = encode_person(triple, CONFIG)
    after, _ = encode_person(triple, permuted)
    for position in range(3):
        if position == which:
            continue
        assert before[position] == after[position]


def test_fixture_rows_and_word(asylum):
    result = solve_all(asylum)
    from bedlam.extraction import person_triple
    world = result.worlds[0]
    for person, triple, digits, value, letter in FIXTURE_ROWS:
        assert person_triple(world, person, asylum.extraction) == triple
        assert encode_person(triple, asylum.extraction) == (digits, value)
        assert value_to_letter(value) == letter
    assert extract_word(result, asylum.extraction) == "ALTERNATE"


def test_extract_refuses_non_unique():
    from bedlam.parser import parse_puzzle_file
    result = solve_all(parse_puzzle_file("persons: Ann\nfluent guilt : { accomplice, guilty, innocent }\n"))
    assert result.status is SolveStatus.MULTIPLE
    with pytest.raises(ExtractionError):
        extract_word(result, CONFIG)


def test_extract_error_names_the_person():
    from bedlam.parser import parse_puzzle_file
    # One delusional liar accomplice encodes to 110 = 12 = L; force the
    # all-zero triple instead and the error must name Ann.
    text = ("persons: Ann\n"
            "fluent guilt : { accomplice, guilty, innocent }\n"
            "axiom guilt(Ann, accomplice)\n"
            "round question \"q\" to all: patient(me)\n"
            "  answers: Ann=yes\n"
            "round question \"q2\" to all: patient(me)\n"
            "  answers: Ann=yes\n"
            "round question \"q3\" to all: believes(patient(me))\n"
            "  answers: Ann=yes\n"
            "round question \"q4\" to all: believes(patient(me))\n"
            "  answers: Ann=no\n"
            "round question \"q5\" to all: partial(me)\n"
            "  answers: Ann=yes\n")
    puzzle = parse_puzzle_file(text)
    result = solve_all(puzzle)
    assert result.status is SolveStatus.UNIQUE
    assert result.worlds[0].type_of("Ann").label == "PsAt"
    with pytest.raises(ExtractionError) as err:
        extract_word(result, CONFIG)
    assert "Ann" in str(err.value)
    # The same puzzle over a boolean guilt: no category reads a boolean.
    boolean = text.replace("{ accomplice, guilty, innocent }", "bool").replace(
        "guilt(Ann, accomplice)", "guilt(Ann)")
    result = solve_all(parse_puzzle_file(boolean))
    assert result.status is SolveStatus.UNIQUE
    with pytest.raises(ExtractionError, match="^Ann: category 'guilt' "
                                              "refers to a boolean fluent$"):
        extract_word(result, CONFIG)


def test_single_person_word():
    from bedlam.parser import parse_puzzle_file
    # A delusional liar innocent encodes to 112 = 14 = N.
    text = ("persons: Fiona\n"
            "fluent guilt : { accomplice, guilty, innocent }\n"
            "axiom guilt(Fiona, innocent)\n"
            "round question \"q\" to all: patient(me)\n"
            "  answers: Fiona=yes\n"
            "round question \"q2\" to all: patient(me)\n"
            "  answers: Fiona=yes\n"
            "round question \"q3\" to all: believes(patient(me))\n"
            "  answers: Fiona=no\n"
            "round question \"q4\" to all: believes(patient(me))\n"
            "  answers: Fiona=no\n"
            "round question \"q5\" to all: delusional(me)\n"
            "  answers: Fiona=yes\n")
    result = solve_all(parse_puzzle_file(text))
    assert result.status is SolveStatus.UNIQUE
    assert result.worlds[0].type_of("Fiona").label == "DL"
    assert extract_word(result, CONFIG) == "N"


def test_empty_person_list_extracts_empty_word():
    from bedlam.parser import parse_puzzle_file
    result = solve_all(parse_puzzle_file("persons:\n"))
    assert result.status is SolveStatus.UNIQUE
    assert extract_word(result, CONFIG) == ""


def test_config_validation():
    with pytest.raises(ExtractionError):
        Category("sanity", ("partial", "partial", "sane"))
    with pytest.raises(ExtractionError,
                       match="^category 'guilt' needs exactly three values$"):
        Category("guilt", ("guilty", "innocent"))
    with pytest.raises(ExtractionError,
                       match="^extraction needs exactly three categories$"):
        ExtractionConfig(CONFIG.categories[:2])
    with pytest.raises(ExtractionError):
        ExtractionConfig((
            Category("sanity", ("partial", "delusional", "mad")),
            CONFIG.categories[1], CONFIG.categories[2]))
