"""Puzzle and world file parsing."""

import copy
import hashlib
import pickle
import random
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from bedlam import fixture_path
from bedlam.cli import main
from bedlam.extraction import Category, ExtractionConfig
from bedlam.parser import (ParseError, _tokenize, parse_puzzle_file,
                           parse_statement, parse_world_file)
from bedlam.puzzle import PuzzleSpec, QuestionRound, StatementsRound
from bedlam.semantics import Answer, TYPES_BY_LABEL
from bedlam.solver import (Budget, BudgetExceededError, brute_force_solve,
                           check_world, explain_solution, solve_all)
from bedlam.statements import (And, Believes, Exists, ForAll, Implies, Not,
                               Or, SemanticError, Statement,
                               compile_statement)
from bedlam.worlds import FluentDecl, World
from support import (FUZZ_VOCABULARY, mutate, puzzle_text,
                     random_categorical_puzzle, random_probed_puzzle)

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
    # A spec built in code skips the parser; validate() catches it.
    rnd = parse_puzzle_file(SMALL).rounds[0]
    spec = PuzzleSpec(("Ann", "Beth"), (FluentDecl("shifty"),), (), (
        QuestionRound(rnd.label, rnd.statement, rnd.addressed, (Answer.YES,)),))
    with pytest.raises(SemanticError, match="^round 0: answers must cover "
                                            "exactly the addressed persons$"):
        spec.validate()


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


FAULT_DECLS = (FluentDecl("shifty"), FluentDecl("guilt", ("guilty", "innocent")))
FAULT_HEADER = """\
persons: Ann, Beth
fluent shifty : bool
fluent guilt : { guilty, innocent }
"""


@pytest.mark.parametrize("atom, text", [
    ("doctor(Ann, guilty)", "builtin 'doctor' takes no value"),
    ("lover(Ann)", "undeclared predicate 'lover'"),
    ("shifty(Ann, guilty)", "boolean fluent 'shifty' takes no value"),
    ("guilt(Ann)", "fluent 'guilt' needs a value"),
    ("guilt(Ann, bogus)", "'bogus' not in domain of 'guilt'"),
    ("doctor(Zed)", "unknown person 'Zed'"),
    ("guilt(Zed)", "fluent 'guilt' needs a value"),  # value before person
], ids=["builtin-value", "undeclared", "boolean-value", "missing-value",
        "outside-domain", "unknown-person", "unknown-person-missing-value"])
def test_every_atom_fault_is_the_compilers_wherever_it_stands(atom, text):
    # One set of atom rules: each context reports what compile_statement
    # raises for the atom, after its own `where`.
    with pytest.raises(SemanticError) as compiled:
        compile_statement(parse_statement(atom), "Beth", ("Ann", "Beth"),
                          FAULT_DECLS)
    assert str(compiled.value) == text
    stmt = f"sane(Beth) or not {atom}"
    for where, parse in (
            ("axiom 1", lambda: parse_puzzle_file(
                f"{FAULT_HEADER}axiom {stmt}\n")),
            ("round 0, Beth", lambda: parse_puzzle_file(
                f"{FAULT_HEADER}round statements:\n  Beth: {stmt}\n")),
            ("round 0", lambda: parse_puzzle_file(
                f'{FAULT_HEADER}round question "q" to Beth: {stmt}\n'
                "  answers: Beth=yes\n")),
            ("statement", lambda: parse_statement(
                stmt, ("Ann", "Beth"), FAULT_DECLS))):
        with pytest.raises(SemanticError) as err:
            parse()
        assert str(err.value) == f"{where}: {text}"


def test_me_without_any_person_has_no_speaker():
    message = "'me' used outside any utterance"
    with pytest.raises(SemanticError, match=f"^statement: {message}$"):
        parse_statement("patient(me)", fluents=())
    with pytest.raises(SemanticError, match=f"^statement: {message}$"):
        parse_statement("patient(me) or patient(Ann)", persons=())
    text = 'persons:\nround question "q" to all: patient(me)\n  answers:\n'
    with pytest.raises(SemanticError, match=f"^round 0: {message}$"):
        parse_puzzle_file(text)


def test_extraction_category_must_name_a_declared_fluent():
    text = EXTRACTION_PUZZLE.replace("fluent guilt", "fluent blame")
    with pytest.raises(SemanticError, match="^extraction category 'guilt' "
                                            "names no declared fluent$"):
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


EXTRACTION_PUZZLE = """\
persons: Ann
fluent guilt : { accomplice, guilty, innocent }
extraction:
  category sanity: partial, delusional, sane
  category truthfulness: alternator, liar, truth-teller
  category guilt: accomplice, guilty, innocent
"""


@pytest.mark.parametrize("old, new, message", [
    ("alternator, liar, truth-teller", "truth-teller, liar, liar",
     "line 5, column 12: category 'truthfulness' has duplicate values"),
    ("partial, delusional, sane", "partial, delusional, mad",
     "line 4, column 12: sanity category must order exactly the three "
     "sanity classes"),
    ("sanity: partial, delusional, sane", "guilt: accomplice, guilty, innocent",
     "line 3, column 1: extraction categories must be distinct"),
    ("guilty, innocent\n", "guilty, innocent\n  order: by-height\n",
     "line 7, column 10: expected 'alphabetical', found 'by-height'"),
], ids=["duplicate-values", "foreign-sanity-value", "repeated-name",
        "unknown-order"])
def test_bad_extraction_section_is_a_positioned_parse_error(old, new, message,
                                                            tmp_path, capsys):
    text = EXTRACTION_PUZZLE.replace(old, new)
    with pytest.raises(ParseError) as err:
        parse_puzzle_file(text)
    assert str(err.value) == message
    path = tmp_path / "bad.puzzle"
    path.write_text(text)
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_the_alphabetical_order_line_changes_nothing():
    ordered = EXTRACTION_PUZZLE + "  order: alphabetical\n"
    assert parse_puzzle_file(ordered) == parse_puzzle_file(EXTRACTION_PUZZLE)


SAID = parse_statement("patient(me)")
GUILT = FluentDecl("guilt", ("accomplice", "guilty", "innocent"))
BY_CRIME = ExtractionConfig((
    Category("sanity", ("partial", "delusional", "sane")),
    Category("truthfulness", ("alternator", "liar", "truth-teller")),
    Category("crime", GUILT.domain)))
INNER = "believes may only appear as the outermost node (at {})"


def _said_by_ann(stmt):
    return (StatementsRound((("Ann", stmt),)),)


def _asked_of_ann(stmt):
    return (QuestionRound("q", stmt, ("Ann",), (Answer.YES,)),)


@pytest.mark.parametrize("persons, decls, axioms, rounds, config, message", [
    (("Ann", "Ann"), (), (), (), None, "duplicate person name"),
    (("Ann",), (FluentDecl("f"), FluentDecl("f")), (), (), None,
     "duplicate fluent name"),
    (("Ann",), (FluentDecl("patient"),), ("patient(Ann)",), (), None,
     "fluent 'patient' shadows a builtin predicate"),
    (("Ann",), (), ("doctor(me)",), (), None,
     "axiom 1: axioms have no speaker for 'me'"),
    (("Ann",), (), ("doctor(Ann)", "believes(doctor(Ann))"), (), None,
     "axiom 2: axioms cannot contain believes"),
    (("Ann",), (), ("believes(doctor(me))",), (), None,
     "axiom 1: axioms cannot contain believes"),
    (("Ann",), (), (), (StatementsRound((("Zed", SAID),)),), None,
     "round 0: unknown speaker 'Zed'"),
    (("Ann",), (), (), (QuestionRound("q", SAID, ("Ann",), ()),), None,
     "round 0: answers must cover exactly the addressed persons"),
    (("Ann",), (), (), (StatementsRound((("Ann", SAID), ("Ann", SAID))),),
     None, "round 0: 'Ann' speaks twice in one round"),
    (("Ann",), (GUILT,), (), (), BY_CRIME,
     "extraction category 'crime' names no declared fluent"),
    # A `believes` below the top is reported where it was said, with the
    # labels down to it.
    (("Ann",), (), (), _said_by_ann(Not(Believes(SAID))), None,
     "round 0, Ann: " + INNER.format("not")),
    (("Ann",), (), (), _asked_of_ann(Not(Believes(SAID))), None,
     "round 0: " + INNER.format("not")),
    (("Ann",), (), (), _said_by_ann(Implies(Believes(SAID), SAID)), None,
     "round 0, Ann: " + INNER.format("implies.left")),
    (("Ann",), (), (), _asked_of_ann(Implies(SAID, Believes(SAID))), None,
     "round 0: " + INNER.format("implies.right")),
    (("Ann",), (), (), _said_by_ann(Exists("x", Believes(SAID))), None,
     "round 0, Ann: " + INNER.format("body")),
    (("Ann",), (), (), _asked_of_ann(And((SAID, Not(Believes(SAID))))), None,
     "round 0: " + INNER.format("and[1]/not")),
    (("Ann",), (), (),
     _said_by_ann(Believes(Or((ForAll("x", Believes(SAID)), SAID)))), None,
     "round 0, Ann: " + INNER.format("or[0]/body")),
], ids=["duplicate-person", "duplicate-fluent", "builtin-fluent",
        "axiom-with-me", "axiom-with-believes", "axiom-with-believed-me",
        "unknown-speaker", "unanswered-person", "speaks-twice",
        "category-without-fluent", "inner-believes-said",
        "inner-believes-asked", "implies-left", "implies-right",
        "quantifier-body", "two-levels-asked", "two-levels-under-a-belief"])
def test_specs_built_in_code_get_every_check_validate_makes(
        persons, decls, axioms, rounds, config, message):
    # The one walk of a spec checks it however it was built, so a spec
    # built in code fails its first solve or check, in any thread, with
    # validate's error instead of a KeyError, a bare compiler error or a
    # solve of a puzzle that validate refuses.
    world = World(persons, (TYPES_BY_LABEL["ST"],) * len(persons), decls,
                  tuple(d.values()[:1] * len(persons) for d in decls))

    def spec():
        return PuzzleSpec(persons, decls,
                          tuple(map(parse_statement, axioms)), rounds, config)

    def in_a_worker(puzzle):
        raised = []

        def run():
            try:
                solve_all(puzzle)
            except SemanticError as exc:
                raised.append(exc)
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        raise raised[0]

    for run in (PuzzleSpec.validate, solve_all,
                lambda puzzle: check_world(puzzle, world), in_a_worker):
        with pytest.raises(SemanticError) as err:
            run(spec())
        assert str(err.value) == message


TWO = "persons: Ann, Beth\n"
ASK_ANN = 'round question "q" to {to}: patient(me)\n  answers: {answers}\n'


@pytest.mark.parametrize("puzzle, world, error, position, message", [
    (TWO + "fluent f : bool\nfluent f : bool\n", None, SemanticError, None,
     "duplicate fluent name"),
    (TWO + "fluent patient : bool\n", None, SemanticError, None,
     "fluent 'patient' shadows a builtin predicate"),
    (TWO + ASK_ANN.format(to="Ann, Ann", answers="Ann=yes"), None,
     SemanticError, None, "round 0: person addressed twice"),
    (TWO + ASK_ANN.format(to="Zed", answers="Zed=yes"), None,
     SemanticError, None, "round 0: unknown person 'Zed'"),
    (TWO + "round statements:\n  Ann: patient(me)\n  Ann: sane(me)\n", None,
     SemanticError, None, "round 0: 'Ann' speaks twice in one round"),
    (EXTRACTION_PUZZLE + EXTRACTION_PUZZLE.split("\n", 2)[2], None,
     ParseError, (7, 1), "duplicate extraction section"),
    (TWO + "round statements: Ann: patient(me)\n", None, ParseError, (2, 19),
     "statements begin on the following lines"),
    (TWO + ASK_ANN.format(to="Ann", answers="Ann=yes, Ann=no"), None,
     ParseError, (3, 21), "duplicate answer for 'Ann'"),
    (TWO, "world: Ann: ST\n", ParseError, (1, 8),
     "world entries begin on the following lines"),
    (TWO, "world:\n  Ann: ST\n  Ann: SL\n  Beth: ST\n", ParseError, (3, 3),
     "duplicate entry for 'Ann'"),
    # Two faults each: the first in reading order is reported, because an
    # utterance is compiled before the next speaker is checked.
    (TWO + "round statements:\n  Ann: guilty(me)\n  Zed: patient(me)\n",
     None, SemanticError, None, "round 0, Ann: undeclared predicate 'guilty'"),
    (TWO + ASK_ANN.format(to="Ann", answers="Ann=yes").replace(
        "patient", "guilty") + "round statements:\n  Zed: patient(me)\n",
     None, SemanticError, None, "round 0: undeclared predicate 'guilty'"),
], ids=["duplicate-fluent", "builtin-fluent", "addressed-twice",
        "unknown-addressee", "speaks-twice", "duplicate-extraction",
        "statement-on-header", "duplicate-answer", "entry-on-header",
        "duplicate-entry", "fault-before-unknown-speaker",
        "fault-a-round-before-unknown-speaker"])
def test_input_errors_have_their_type_text_and_position(
        puzzle, world, error, position, message, tmp_path, capsys):
    if position is not None:
        message = f"line {position[0]}, column {position[1]}: {message}"
    puzzle_path = tmp_path / "bad.puzzle"
    puzzle_path.write_text(puzzle)
    if world is None:
        argv = ["solve", str(puzzle_path)]
        with pytest.raises(error) as err:
            parse_puzzle_file(puzzle)
    else:
        world_path = tmp_path / "bad.world"
        world_path.write_text(world)
        argv = ["check", str(puzzle_path), str(world_path)]
        with pytest.raises(error) as err:
            parse_world_file(world, parse_puzzle_file(puzzle))
    assert type(err.value) is error
    assert str(err.value) == message
    if position is not None:
        assert (err.value.line, err.value.col) == position
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_deep_nesting_is_a_positioned_parse_error(tmp_path, capsys):
    text = "persons: A\naxiom " + "(" * 3000 + "patient(A)" + ")" * 3000 + "\n"
    message = "line 2, column 57: statement is nested too deeply"
    with pytest.raises(ParseError) as err:
        parse_puzzle_file(text)
    assert str(err.value) == message
    path = tmp_path / "deep.puzzle"
    path.write_text(text)
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Statement shapes that nest `k` levels of one construct each.  A chain
# of `exists` follows each person only to the first definite miss, so it
# runs on two persons, where a compile that unrolled quantifiers would
# build 2**49 copies of its innermost atom.  The other quantifier shape,
# when A is a doctor and nobody is sane, tries every person at every
# level in either evaluator, so it runs on one.
NESTED_SHAPES = {
    "parentheses": lambda k: "(" * k + "patient(A)" + ")" * k,
    "not": lambda k: "not " * k + "patient(A)",
    "implies": lambda k: " implies ".join(["sane(A)"] * (k + 1)),
    "left-implies": lambda k: ("(" * k + "sane(A)"
                               + " implies sane(A))" * k),
    "quantifiers": lambda k: "".join(
        f"exists x{i} . sane(x{i}) or doctor(A) and "
        for i in range(k)) + "f(A)",
    "exists-chain": lambda k: " and ".join(
        f"exists x{i} . sane(x{i})" for i in range(k)),
}


@pytest.mark.parametrize("shape", NESTED_SHAPES)
def test_statements_at_the_nesting_bound_pass_every_stage(shape, tmp_path):
    # The deepest statement the parser accepts gets through validation,
    # the compiled search, the tree walker, rendering and derivations.
    persons = "A" if shape == "quantifiers" else "A, B"
    make = NESTED_SHAPES[shape]
    k = 1
    while True:
        try:
            parse_statement(make(k + 1))
        except ParseError as err:
            assert "nested too deeply" in str(err)
            break
        k += 1
    text = (f"persons: {persons}\nfluent f : bool\n"
            f"axiom f(A) or {make(k)}\n"
            f"round statements:\n  A: {make(k)}\n")
    path = tmp_path / "deep.puzzle"
    path.write_text(text)
    assert main(["solve", str(path), "--format", "structured"]) == 0
    puzzle = parse_puzzle_file(text)
    worlds = solve_all(puzzle).worlds
    assert worlds and worlds == brute_force_solve(puzzle)
    for world in worlds:
        explain_solution(puzzle, world)


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


# --- Lexer ---

def _tokens(text, line=1):
    return [tuple(tok) for tok in _tokenize(text, line).tokens]


def test_tokens_after_tabs_and_runs_of_spaces_keep_their_columns():
    assert _tokens("persons:\tAnn,   Beth", 4) == [
        ("word", "persons", 4, 1), ("punct", ":", 4, 8),
        ("word", "Ann", 4, 10), ("punct", ",", 4, 13),
        ("word", "Beth", 4, 17)]
    with pytest.raises(ParseError) as err:
        parse_puzzle_file("persons: Ann\n\t  \tfluent  f :\tbool oops\n")
    assert (err.value.line, err.value.col) == (2, 22)
    assert "unexpected text after fluent declaration" in str(err.value)


def test_a_hash_inside_a_quoted_label_starts_no_comment():
    line = 'round question "a # b" to all: sane(me) # "asked" twice'
    cursor = _tokenize(line, 5)
    assert cursor.tokens[-1] == ("punct", ")", 5, 39)
    assert (cursor.end_line, cursor.end_col) == (5, line.rindex("#") + 1)
    assert tuple(cursor.tokens[2]) == ("string", '"a # b"', 5, 16)
    puzzle = parse_puzzle_file(f"persons: Ann\n{line}\n  answers: Ann=yes\n")
    assert puzzle.rounds[0].label == "a # b"


def test_a_string_that_spans_lines_decides_where_its_comments_start():
    # A '#' inside the string, on any of its lines, starts no comment.
    assert _tokens('"x\n# y" z') == [("string", '"x\n# y"', 1, 1),
                                      ("word", "z", 2, 6)]
    with pytest.raises(ParseError) as err:
        parse_statement('sane(Ann) "a\n# b"')
    assert (err.value.line, err.value.col) == (1, 11)
    assert str(err.value) == \
        'line 1, column 11: unexpected \'"a\n# b"\' after statement'
    # A '#' after its closing quote starts one.
    assert _tokens('"x\ny" # "z') == [("string", '"x\ny"', 1, 1)]
    with pytest.raises(ParseError) as err:
        parse_statement('sane(Ann) "a\nb" # c')
    assert str(err.value) == \
        'line 1, column 11: unexpected \'"a\nb"\' after statement'


def test_a_statement_ends_before_its_last_lines_comment_only():
    for text, end in (("sane(Ann) and # c", (1, 15)),
                      ("sane(Ann) and # c\n", (2, 1)),
                      ("sane(Ann) and\n  # c", (2, 3)),
                      ("sane(Ann) # c\n and # d\n\t", (3, 2))):
        with pytest.raises(ParseError) as err:
            parse_statement(text)
        assert (err.value.line, err.value.col) == end
        assert "expected a statement" in str(err.value)


def test_an_unexpected_character_after_whitespace_is_positioned_at_itself():
    with pytest.raises(ParseError) as err:
        _tokenize("f(x)  \t! g", 2)
    assert (err.value.line, err.value.col) == (2, 8)
    assert str(err.value) == "line 2, column 8: unexpected character '!'"
    with pytest.raises(ParseError) as err:
        parse_puzzle_file("persons: Ann,\t  @Beth\n")
    assert (err.value.line, err.value.col) == (1, 17)


def test_trailing_whitespace_adds_no_token():
    assert _tokens("sane(Ann)  \t ") == [
        ("word", "sane", 1, 1), ("punct", "(", 1, 5),
        ("word", "Ann", 1, 6), ("punct", ")", 1, 9)]
    assert _tokens(" \t ") == []
    # The end of input sits one past the line's last character.
    with pytest.raises(ParseError) as err:
        parse_statement("sane(Ann) and   ")
    assert str(err.value) == "line 1, column 17: expected a statement"


def test_multi_line_statements_count_lines_and_columns():
    assert _tokens("a\n  b\n\tc", 5) == [
        ("word", "a", 5, 1), ("word", "b", 6, 3), ("word", "c", 7, 2)]
    # A label may span lines; the token after it counts from the last.
    assert _tokens('"x\ny" z') == [("string", '"x\ny"', 1, 1),
                                    ("word", "z", 2, 4)]
    text = "exists x . # a comment\n  sane(x) and\n\tf(x) !"
    with pytest.raises(ParseError) as err:
        parse_statement(text)
    assert (err.value.line, err.value.col) == (3, 7)
    with pytest.raises(ParseError) as err:
        parse_statement("exists x .\n  sane(x) and\n")
    assert (err.value.line, err.value.col) == (3, 1)
    assert parse_statement("sane(Ann) # c\n and sane(Beth)") == \
        parse_statement("sane(Ann) and sane(Beth)")


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


WORLD_SPEC = ("persons: Ann, Beth\nfluent f : bool\n"
              "fluent mood : { calm, cross }\n")
WORLD = "world:\n  Ann: ST, f=yes, mood=calm\n  Beth: DL, f=no, mood=cross\n"


@pytest.mark.parametrize("parser, text, message", [
    ("world", "world:\n  Ann: ST, f=yes, f=no, mood=calm\n",
     "line 2, column 19: duplicate value for 'f'"),
    ("world", "world:\n  Ann: ST, g=yes\n",
     "line 2, column 12: undeclared fluent 'g'"),
    ("world", WORLD + "round statements:\n",
     "line 4, column 1: expected a person entry, found 'round'"),
    ("world", "world:\n  Ann: XY\n", "line 2, column 8: unknown type label 'XY'"),
    ("world", "world:\n  Ann: ST, f=maybe\n",
     "line 2, column 14: boolean fluent 'f' takes yes or no"),
    ("world", "world:\n  Ann: ST, f=yes, mood=happy\n",
     "line 2, column 24: 'happy' not in domain of 'mood'"),
    ("world", "world: Ann\n",
     "line 1, column 8: world entries begin on the following lines"),
    ("world", "world:\n  Ann: ST, f=yes\n  Beth: DL, f=no, mood=cross\n",
     "line 2, column 3: no value of 'mood' for 'Ann'"),
    ("puzzle", "persons: Ann\nextraction: x\n",
     "line 2, column 13: extraction entries begin on the following lines"),
    ("puzzle", "persons: Ann\nfluent g : { a, b, c }\nextraction:\n"
     "  order: alphabetical now\n",
     "line 4, column 23: unexpected text after extraction entry"),
    ("puzzle", "persons: Ann\nextraction:\n  category sanity: sane, partial\n",
     "line 3, column 12: a category lists exactly three values"),
    ("puzzle", "persons: Ann\nround statements:\n",
     "line 2, column 1: a statements round needs at least one speaker"),
    ("puzzle", "persons: Ann\nround question \"q\" to Ann: sane(me)\n",
     "line 2, column 1: unexpected end of file"),
    ("puzzle", "persons: Ann\nround banter:\n",
     "line 2, column 7: expected 'statements' or 'question', found 'banter'"),
    ("puzzle", "persons: Ann Beth\n",
     "line 1, column 14: unexpected text after person list"),
    ("puzzle", "", "line 1, column 1: unexpected end of file"),
    ("puzzle", "persons: Ann, Beth\nround question \"q\" to all: patient(me)\n"
     "answers: Ann=yes\n", "line 3, column 1: no answer recorded for 'Beth'"),
    ("puzzle", "persons: Ann, Beth\nround question \"q\" to Ann: patient(me)\n"
     "answers: Ann=yes, Beth=no\n",
     "line 3, column 19: answer recorded for unaddressed person 'Beth'"),
    ("puzzle", "persons: Ann, Beth\nround question \"q\" to all: patient(me)\n"
     "answers: Ann=maybe\n",
     "line 3, column 14: expected yes or no, found 'maybe'"),
    ("puzzle", "persons: Ann\nworld:\n",
     "line 2, column 1: expected 'fluent', 'axiom', 'round' or 'extraction', "
     "found 'world'"),
    ("puzzle", "persons: Ann\naxiom patient(round)\n",
     "line 2, column 15: 'round' is a reserved word"),
    ("puzzle", "persons: Ann\naxiom (and)\n",
     "line 2, column 8: expected a predicate, found 'and'"),
    ("puzzle", "persons: Ann\naxiom patient(\n",
     "line 2, column 15: unexpected end of input, expected a term"),
])
def test_file_parser_errors_are_pinned(parser, text, message):
    with pytest.raises(ParseError) as err:
        if parser == "world":
            parse_world_file(text, parse_puzzle_file(WORLD_SPEC))
        else:
            parse_puzzle_file(text)
    assert str(err.value) == message


def test_specs_and_errors_survive_pickling_and_copying(asylum):
    worlds = solve_all(asylum).worlds
    for spec in (pickle.loads(pickle.dumps(asylum)), copy.deepcopy(asylum)):
        assert spec == asylum
        assert solve_all(spec).worlds == worlds
        assert spec.compiled[1][0][0] is not asylum.compiled[1][0][0]
    with pytest.raises(BudgetExceededError) as budget:
        solve_all(asylum, Budget(max_nodes=100))
    with pytest.raises(ParseError) as parse:
        parse_puzzle_file("persons: Ann Beth\n")
    back = pickle.loads(pickle.dumps(budget.value))
    assert (str(back), back.statistics) == (str(budget.value),
                                            budget.value.statistics)
    back = pickle.loads(pickle.dumps(parse.value))
    assert (str(back), back.line, back.col) == (str(parse.value), 1, 14)


# --- Comment invariance ---

COMMENTS = ('# he said "no" # twice', '#"', '# "an open quote', '##', '#',
            '# "a # b" and "c')


def test_comments_and_blank_lines_change_no_parse(asylum_text):
    """Appending a comment to a line, or inserting comment-only and blank
    lines, parses to an equal spec; a line cut short after any token and
    then commented reports what it reports bare, so an end-of-input error
    points at the column where its comment starts."""
    rng = random.Random(1803)
    sources = [asylum_text] + [puzzle_text(random_probed_puzzle(rng)[0])
                               for _ in range(3)]
    sources += [puzzle_text(random_categorical_puzzle(rng, hidden=False))
                for _ in range(3)]
    specs = [parse_puzzle_file(text) for text in sources]
    at_comment = 0
    for case in range(300):
        k = case % len(sources)
        lines = sources[k].split("\n")
        i = rng.randrange(len(lines))
        pad, comment = rng.choice(("", " ", "  \t")), rng.choice(COMMENTS)
        if case % 3 == 0:
            lines[i] += pad + comment
            assert parse_puzzle_file("\n".join(lines)) == specs[k]
        elif case % 3 == 1:
            rounds = [n for n, line in enumerate(lines)
                      if line == "round statements:"]
            if rounds and case % 2:  # between a round and its entries
                i = 1 + rng.choice(rounds)
            lines[i:i] = rng.sample([pad + comment, "", "\t ", comment],
                                    rng.randint(1, 4))
            assert parse_puzzle_file("\n".join(lines)) == specs[k]
        else:
            i = rng.choice([n for n, line in enumerate(lines)
                            if _tokenize(line).tokens])
            tok = rng.choice(_tokenize(lines[i]).tokens[:-1] or [None])
            cut = 0 if tok is None else tok.col - 1 + len(tok.text)
            lines[i] = lines[i][:cut] + pad
            bare = parse_outcome(parse_puzzle_file, "\n".join(lines))
            column = len(lines[i]) + 1
            lines[i] += comment
            assert parse_outcome(parse_puzzle_file, "\n".join(lines)) == bare
            at_comment += bare.startswith(f"ParseError {i + 1} {column} ")
    assert at_comment >= 40


# --- Parse-outcome pin ---
#
# Seeded mutations of the fixture files, of a small puzzle whose
# extraction section is most of its text, and of three statements, each
# parsed and recorded as the result's repr or the error's type, position
# and message.  A parser change that keeps the grammar and the messages
# keeps the digest; a deliberate change re-pins it.

FUZZ_STATEMENTS = (
    "believes((exists x . unlocked(x)) and "
    "(forall x . unlocked(x) implies doctor(x)))",
    "atleast 2 x . guilt(x, guilty) or not strong(Ann) and lover(me)",
    "(exists y . carried(y) and not sane(me)) implies forall z . patient(z)",
)
FUZZ_EXTRACTION = """\
persons: Ann, Beth
fluent guilt : { accomplice, guilty, innocent }
extraction:
  category sanity: partial, delusional, sane
  category truthfulness: alternator, liar, truth-teller
  category guilt: accomplice, guilty, innocent
  order: alphabetical
"""


def parse_outcome(parse, text: str) -> str:
    try:
        return repr(parse(text))
    except (ParseError, SemanticError) as exc:
        return (f"{type(exc).__name__} {getattr(exc, 'line', 0)} "
                f"{getattr(exc, 'col', 0)} {exc}")


def fuzz_sources(asylum, asylum_text) -> list:
    """(parser, text to mutate) pairs."""
    world_text = fixture_path("asylum.solution.world").read_text()

    def statement(text):
        return parse_statement(text, asylum.person_names, asylum.fluent_decls)

    return [
        (parse_puzzle_file, asylum_text),
        (parse_puzzle_file, FUZZ_EXTRACTION),
        (lambda text: parse_world_file(text, asylum), world_text),
    ] + [(statement, stmt) for stmt in FUZZ_STATEMENTS]


def fuzz_outcomes(asylum, asylum_text, count: int) -> list[str]:
    rng = random.Random(20180326)
    sources = fuzz_sources(asylum, asylum_text)
    outcomes = []
    for n in range(count):
        parse, text = sources[n % len(sources)]
        outcomes.append(parse_outcome(parse, mutate(rng, text)))
    return outcomes


def test_parse_outcomes_are_pinned(asylum, asylum_text):
    outcomes = fuzz_outcomes(asylum, asylum_text, 1500)
    kinds = Counter(outcome.split(" ", 1)[0].split("(", 1)[0]
                    for outcome in outcomes)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert kinds == {"ParseError": 1335, "PuzzleSpec": 69, "SemanticError": 67,
                     "World": 18, "AtLeast": 4, "Believes": 4, "Implies": 3}
    assert digest == ("859c93c47c42d3b20150d03db60ff152"
                      "11852a21f9a257d95e951502b89d2b6c")


# --- Parser fuzz ---

@example(source=3, seed=None,
         text="atleast " + "9" * 5000 + " x . lover(x)")
@example(source=1, seed=None, text=EXTRACTION_PUZZLE.replace(
    "sanity: partial, delusional, sane", "guilt: accomplice, guilty, innocent"))
@given(source=st.integers(0, 5), seed=st.none() | st.integers(0, 2**32 - 1),
       text=st.text() | st.lists(st.sampled_from(FUZZ_VOCABULARY)).map("".join))
@settings(max_examples=300, deadline=None)
def test_parsers_return_a_result_or_a_positioned_error(asylum, asylum_text,
                                                       source, seed, text):
    parse, base = fuzz_sources(asylum, asylum_text)[source]
    if seed is not None:  # a mutated source in place of the drawn text
        text = mutate(random.Random(seed), base)
    try:
        result = parse(text)
    except ParseError as err:
        assert err.line >= 1 and err.col >= 1
        assert str(err).startswith(f"line {err.line}, column {err.col}: ")
        return
    except SemanticError:
        return
    assert isinstance(result, (PuzzleSpec, World, Statement))
