"""Puzzle and world file parsing."""

import pytest

from bedlam.cli import main
from bedlam.parser import ParseError, parse_puzzle_file, parse_world_file
from bedlam.puzzle import QuestionRound, StatementsRound
from bedlam.semantics import Answer
from bedlam.solver import solve_all
from bedlam.statements import SemanticError

MINIMAL = "persons: Ann\n"

SMALL = """\
# two inmates, one question
persons: Ann, Beth
fluent shifty : bool

round question "shifty or what" to all: shifty(me)
  answers: Ann=yes, Beth=no
"""


def test_fixture_parses_with_expected_shape(asylum):
    assert len(asylum.person_names) == 9
    assert asylum.person_names[0] == "Ann"
    assert len(asylum.fluent_decls) == 5
    assert [d.name for d in asylum.fluent_decls] == \
        ["lover", "guilt", "strong", "unlocked", "carried"]
    assert len(asylum.rounds) == 6
    kinds = [type(r) for r in asylum.rounds]
    assert kinds == [StatementsRound, QuestionRound, QuestionRound,
                     QuestionRound, StatementsRound, StatementsRound]
    assert asylum.extraction is not None
    assert [c.name for c in asylum.extraction.categories] == \
        ["sanity", "truthfulness", "guilt"]


def test_fixture_round_trip_of_every_statement(asylum):
    from bedlam.parser import parse_statement
    from bedlam.statements import render_statement
    statements = list(asylum.axioms)
    for rnd in asylum.rounds:
        if isinstance(rnd, QuestionRound):
            statements.append(rnd.statement)
        else:
            statements.extend(stmt for _, stmt in rnd.utterances)
    assert len(statements) > 30
    for stmt in statements:
        assert parse_statement(render_statement(stmt)) == stmt


def test_minimal_puzzle_has_sixteen_worlds():
    puzzle = parse_puzzle_file(MINIMAL)
    assert puzzle.person_names == ("Ann",)
    assert puzzle.fluent_decls == ()
    assert puzzle.rounds == ()
    result = solve_all(puzzle)
    assert result.status.value == "multiple"
    assert len(result.worlds) == 16


def test_small_puzzle_answers_attach_to_addressed():
    puzzle = parse_puzzle_file(SMALL)
    rnd = puzzle.rounds[0]
    assert rnd.addressed == ("Ann", "Beth")
    assert rnd.answers == (Answer.YES, Answer.NO)
    assert rnd.label == "shifty or what"


def test_answer_for_unaddressed_person_is_an_error():
    bad = SMALL.replace("to all", "to Ann")
    with pytest.raises(ParseError) as err:
        parse_puzzle_file(bad)
    assert "unaddressed" in str(err.value)


def test_missing_answer_is_an_error():
    bad = SMALL.replace(", Beth=no", "")
    with pytest.raises(ParseError) as err:
        parse_puzzle_file(bad)
    assert "no answer recorded" in str(err.value)


def test_duplicate_person_rejected():
    with pytest.raises(SemanticError):
        parse_puzzle_file("persons: Ann, Ann\n")


def test_unknown_speaker_rejected():
    text = MINIMAL + "round statements:\n  Zed: patient(me)\n"
    with pytest.raises(SemanticError) as err:
        parse_puzzle_file(text)
    assert "Zed" in str(err.value)


def test_axiom_with_me_rejected():
    text = MINIMAL + "axiom patient(me)\n"
    with pytest.raises(SemanticError):
        parse_puzzle_file(text)


def test_axiom_with_believes_rejected():
    ok = MINIMAL + "round statements:\n  Ann: believes(patient(me))\n"
    assert parse_puzzle_file(ok).rounds  # believes is fine in utterances
    with pytest.raises(SemanticError):
        parse_puzzle_file(MINIMAL + "axiom believes(patient(Ann))\n")


def test_undeclared_fluent_in_round_rejected():
    text = MINIMAL + "round statements:\n  Ann: lover(me)\n"
    with pytest.raises(SemanticError):
        parse_puzzle_file(text)


def test_categorical_fluent_needs_value():
    text = ("persons: Ann\nfluent guilt : { a, b, c }\n"
            "round statements:\n  Ann: guilt(me)\n")
    with pytest.raises(SemanticError):
        parse_puzzle_file(text)


def test_parse_errors_carry_line_numbers():
    text = "persons: Ann\nfluent lover bool\n"
    with pytest.raises(ParseError) as err:
        parse_puzzle_file(text)
    assert err.value.line == 2


@pytest.mark.parametrize("values, problem", [
    ("{ a }", "needs at least two values"),
    ("{ a, a }", "has duplicate values"),
])
def test_bad_fluent_domain_is_a_positioned_parse_error(values, problem,
                                                       tmp_path, capsys):
    text = f"persons: Ann\nfluent f : {values}\n"
    message = f"line 2, column 8: fluent 'f' {problem}"
    with pytest.raises(ParseError) as err:
        parse_puzzle_file(text)
    assert str(err.value) == message
    path = tmp_path / "bad.puzzle"
    path.write_text(text)
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_world_file_round_trips(asylum, solution_world):
    assert solution_world.type_of("Ann").label == "PiAl"
    assert solution_world.fluent_value("guilt", "Grace") == "guilty"
    assert solution_world.fluent_value("lover", "Holly") is False


def test_world_file_requires_every_fluent(asylum):
    text = "world:\n" + "\n".join(
        f"  {p}: ST, lover=no, guilt=innocent, strong=no, unlocked=no"
        for p in asylum.person_names)
    with pytest.raises(ParseError) as err:
        parse_world_file(text, asylum)
    assert "carried" in str(err.value)


def test_world_file_rejects_bad_label(asylum):
    text = ("world:\n" + "\n".join(
        f"  {p}: ZZ, lover=no, guilt=innocent, strong=no, unlocked=no, carried=no"
        for p in asylum.person_names))
    with pytest.raises(ParseError):
        parse_world_file(text, asylum)


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\npersons: Ann # trailing\n\n# done\n"
    puzzle = parse_puzzle_file(text)
    assert puzzle.person_names == ("Ann",)


def _world_entries(asylum, skip_fluent_of=None):
    lines = []
    for p in asylum.person_names:
        carried = "" if p == skip_fluent_of else ", carried=no"
        lines.append(f"  {p}: ST, lover=no, guilt=innocent, strong=no, "
                     f"unlocked=no{carried}")
    return lines


def test_world_file_missing_person_is_reported_at_the_header(asylum):
    text = "\n".join(["# no Ian here", "", "world:"]
                     + _world_entries(asylum)[:-1])
    with pytest.raises(ParseError) as err:
        parse_world_file(text, asylum)
    assert "no entry for person 'Ian'" in str(err.value)
    assert (err.value.line, err.value.col) == (3, 1)


def test_world_file_missing_value_is_reported_at_the_entry(asylum):
    text = "\n".join(["# Eve lacks a value", "world:"]
                     + _world_entries(asylum, skip_fluent_of="Eve"))
    with pytest.raises(ParseError) as err:
        parse_world_file(text, asylum)
    assert "no value of 'carried' for 'Eve'" in str(err.value)
    eve_line = 3 + asylum.person_names.index("Eve")
    assert (err.value.line, err.value.col) == (eve_line, 3)
