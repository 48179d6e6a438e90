"""Command line behavior: exit codes, output surfaces, determinism."""

import hashlib
import json
import random

import click
import pytest
from click.testing import CliRunner

from bedlam import cli as cli_module, fixture_path, statements
from bedlam.cli import cli, main
from bedlam.parser import parse_puzzle_file
from bedlam.semantics import Answer
from bedlam.statements import eval_closed
from support import (mutate, puzzle_text, random_categorical_puzzle,
                     random_puzzle, random_world, too_deep_puzzle_texts,
                     world_text)

ASYLUM = str(fixture_path("asylum.puzzle"))
SOLUTION = str(fixture_path("asylum.solution.world"))
ANN_SL = str(fixture_path("asylum.ann_sl.world"))
TOO_DEEP = too_deep_puzzle_texts()


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, list(args), catch_exceptions=False,
                         standalone_mode=False)


def test_solve_extract_ends_with_the_word(runner):
    result = runner.invoke(cli, ["solve", ASYLUM, "--expect-unique", "--extract"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[-1] == "ALTERNATE"
    assert "status: unique" in result.output


def test_solve_reports_types_and_report(runner):
    result = runner.invoke(cli, ["solve", ASYLUM])
    assert result.exit_code == 0
    assert "Ann: PiAl" in result.output
    assert "Ann: partial, alternator, guilty" in result.output


def test_only_the_text_surface_counts_fluent_searches(runner):
    # Every asylum person's type is read by some fluent check, so each of
    # the 512 type combinations is searched; the structured statistics
    # keep their pinned keys.
    assert "fluent searches: 512" in invoke(runner, "solve", ASYLUM).output
    document = json.loads(invoke(runner, "solve", ASYLUM, "--format",
                                 "structured").output)
    assert set(document["statistics"]) == {"nodes", "worlds_found"}


def test_solve_contradictory_puzzle_exits_10(runner, tmp_path):
    path = tmp_path / "broken.puzzle"
    path.write_text("persons: Ann\nfluent f : bool\n"
                    "axiom f(Ann)\naxiom not f(Ann)\n")
    result = runner.invoke(cli, ["solve", str(path)])
    assert result.exit_code == 10


def test_expect_unique_with_multiple_worlds_exits_11(runner, tmp_path):
    path = tmp_path / "open.puzzle"
    path.write_text("persons: Ann\n")
    assert runner.invoke(cli, ["solve", str(path)]).exit_code == 0
    result = runner.invoke(cli, ["solve", str(path), "--expect-unique"])
    assert result.exit_code == 11


EXTRACTION = """\
extraction:
  category sanity: partial, delusional, sane
  category truthfulness: alternator, liar, truth-teller
  category guilt: accomplice, guilty, innocent
"""


@pytest.mark.parametrize("axioms, status", [
    ("", "multiple"),
    ("axiom sane(Ann)\naxiom not sane(Ann)\n", "none"),
])
def test_extract_needs_a_unique_solution(axioms, status, tmp_path, capsys):
    path = tmp_path / "open.puzzle"
    path.write_text("persons: Ann\nfluent guilt : { accomplice, guilty, "
                    "innocent }\n" + axioms + EXTRACTION)
    assert main(["solve", str(path), "--extract"]) == 1
    assert capsys.readouterr().err == (
        "error: extraction requires a unique solution "
        f"(status is {status})\n")


def test_extract_needs_an_extraction_section(tmp_path, capsys):
    path = tmp_path / "plain.puzzle"
    path.write_text("persons: Ann\naxiom sane(Ann) and truthteller(Ann)\n")
    assert main(["solve", str(path), "--extract"]) == 1
    assert capsys.readouterr().err == (
        "error: puzzle declares no extraction section\n")


def test_explain_needs_a_unique_solution(tmp_path, capsys):
    path = tmp_path / "open.puzzle"
    path.write_text("persons: Ann\n")
    assert main(["solve", str(path), "--explain"]) == 0
    captured = capsys.readouterr()
    assert "status: multiple" in captured.out
    assert "derivation:" not in captured.out
    assert captured.err == (
        "derivation: only available for a unique solution\n")


def test_parse_error_exits_1():
    assert main(["solve", "/nonexistent/puzzle"]) == 1


def test_non_utf8_file_exits_1_with_one_error_line(tmp_path, capsys):
    # The position is the bad byte's offset in the file, a byte-order
    # mark included.
    bad, bom = tmp_path / "bad.puzzle", tmp_path / "bom.puzzle"
    bad.write_bytes(b"persons: Ann\xff\n")
    bom.write_bytes(b"\xef\xbb\xbfpersons: Ann\xff\n")
    for path, position in ((bad, 12), (bom, 15)):
        for argv in (["solve", str(path)], ["check", ASYLUM, str(path)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: cannot read {path}: 'utf-8' codec can't decode "
                f"byte 0xff in position {position}: invalid start byte\n")


def test_a_byte_order_mark_changes_no_output(runner, tmp_path):
    # Some editors start a UTF-8 file with a byte-order mark; it is not
    # part of the text, so neither the output nor the digest sees it.
    puzzle, world = tmp_path / "bom.puzzle", tmp_path / "bom.world"
    for path, fixture in ((puzzle, "asylum.puzzle"),
                          (world, "asylum.solution.world")):
        path.write_bytes(b"\xef\xbb\xbf" + fixture_path(fixture).read_bytes())
    argv = ["--format", "structured", "--extract", "--explain"]
    result = runner.invoke(cli, ["solve", str(puzzle), *argv])
    assert _digest(result) == STRUCTURED_SOLVE_SHA256
    result = runner.invoke(cli, ["check", str(puzzle), str(world)])
    assert (result.exit_code, result.output) == (0, "consistent\n")


def test_too_long_a_count_exits_1_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "count.puzzle"
    path.write_text("persons: Ann\nfluent f : bool\n"
                    f"axiom atleast {'9' * 5000} x . f(x)\n")
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 3, column 15: count has too many digits\n")


def test_mutated_puzzles_exit_with_a_code_and_no_traceback(tmp_path, capsys):
    # Whatever a mangled file holds, each command returns a documented
    # code and at most one error line; no exception escapes `main`.
    rng = random.Random(1803)
    text = fixture_path("asylum.puzzle").read_text()
    path = tmp_path / "mutated.puzzle"
    for _ in range(100):
        path.write_text(mutate(rng, text))
        for argv in (["check", str(path), SOLUTION],
                     ["simulate", str(path), SOLUTION],
                     ["solve", str(path), "--budget-nodes", "1000"]):
            assert main(argv) in (0, 1, 10, 12, 13)
            err = capsys.readouterr().err
            assert err == "" or (err.startswith("error: ")
                                 and err.count("\n") == 1
                                 and err.endswith("\n"))


def test_budget_exceeded_exits_12(tmp_path):
    path = tmp_path / "wide.puzzle"
    path.write_text("persons: Ann, Beth, Cedric\n")
    assert main(["solve", str(path), "--budget-nodes", "50"]) == 12


@pytest.mark.parametrize("text", list(TOO_DEEP.values()), ids=list(TOO_DEEP))
def test_too_deep_a_search_exits_12(text, tmp_path, capsys):
    path = tmp_path / "deep.puzzle"
    path.write_text(text)
    assert main(["solve", str(path)]) == 12
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: search nests deeper than Python's recursion limit\n")


def test_nan_budget_exits_1_with_one_error_line(capsys):
    assert main(["solve", ASYLUM, "--budget-seconds", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Invalid value for '--budget-seconds': "
                            "max_seconds must be a number, not nan\n")
    # A negative budget is a number: it is exceeded at once.
    assert main(["solve", ASYLUM, "--budget-seconds", "-1"]) == 12


def test_usage_error_exits_1():
    assert main(["solve", ASYLUM, "--format", "sideways"]) == 1
    assert main(["no-such-command"]) == 1


def test_help_exits_0_and_an_abort_exits_1(monkeypatch, capsys):
    assert main(["--help"]) == 0
    assert "Usage:" in capsys.readouterr().out

    def abort(path):
        raise click.exceptions.Abort()

    monkeypatch.setattr(cli_module, "_read", abort)
    assert main(["solve", ASYLUM]) == 1


def test_check_solution_world(runner):
    result = runner.invoke(cli, ["check", ASYLUM, SOLUTION])
    assert result.exit_code == 0
    assert "consistent" in result.output


def test_check_ann_sl_world_cites_round_four(runner):
    result = runner.invoke(cli, ["check", ASYLUM, ANN_SL])
    assert result.exit_code == 13
    assert ("inconsistent: round 4: Ann (SL) would not say: lover(Beth)"
            in result.output.splitlines())


def test_check_unconstrained_puzzle(runner, tmp_path):
    puzzle = tmp_path / "free.puzzle"
    puzzle.write_text("persons: Ann\nfluent f : bool\n")
    world = tmp_path / "w.world"
    world.write_text("world:\n  Ann: DAt, f=yes\n")
    result = runner.invoke(cli, ["check", str(puzzle), str(world)])
    assert result.exit_code == 0


def test_only_solve_runs_the_watch_analysis(runner, monkeypatch):
    # The fluent search's watch lists are all a check's `start` serves:
    # parsing, validating, checking and simulating never pay for it.
    compile_statement = statements.compile_statement

    def refusing(*args):
        check, reads, typed, _ = compile_statement(*args)

        def start():
            raise AssertionError("the watch analysis ran")
        return check, reads, typed, start

    monkeypatch.setattr(statements, "compile_statement", refusing)
    for argv, code in ((["check", ASYLUM, SOLUTION], 0),
                       (["check", ASYLUM, ANN_SL], 13),
                       (["simulate", ASYLUM, SOLUTION], 0)):
        result = runner.invoke(cli, argv, catch_exceptions=False)
        assert result.exit_code == code
    with pytest.raises(AssertionError, match="the watch analysis ran"):
        invoke(runner, "solve", ASYLUM)


def test_tables_command_key_cells(runner):
    result = runner.invoke(cli, ["tables"])
    assert result.exit_code == 0
    assert "PsAt YYYN" in result.output
    assert "NYN → SAt, PsL" in result.output
    again = runner.invoke(cli, ["tables"])
    assert again.output == result.output


def test_simulate_reproduces_question_rounds(runner):
    result = runner.invoke(cli, ["simulate", ASYLUM, SOLUTION])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    blocks = {}
    current = None
    for line in lines:
        if line.startswith("round "):
            current = line
            blocks[current] = []
        else:
            blocks[current].append(line.strip())
    q1 = next(v for k, v in blocks.items() if k.startswith("round 1"))
    assert q1 == ["Ann: yes", "Beth: yes", "Cedric: no", "David: yes",
                  "Eve: yes", "Fiona: yes", "Grace: yes", "Holly: no",
                  "Ian: yes"]
    q2 = next(v for k, v in blocks.items() if k.startswith("round 2"))
    assert q2 == ["Ann: yes", "Beth: yes", "Cedric: yes", "David: no",
                  "Eve: no", "Fiona: yes", "Grace: yes", "Holly: yes",
                  "Ian: no"]
    q3 = next(v for k, v in blocks.items() if k.startswith("round 3"))
    assert q3 == ["Ann: yes", "Beth: no", "Cedric: no", "David: no",
                  "Eve: yes", "Fiona: no", "Grace: no", "Holly: no",
                  "Ian: no"]
    # Every scripted statement is consistent in the solution world.
    for key, entries in blocks.items():
        if "statements" in key:
            assert all(entry.endswith("[consistent]") for entry in entries)


def test_simulate_single_person_four_questions(runner, tmp_path):
    puzzle = tmp_path / "one.puzzle"
    puzzle.write_text(
        "persons: Ann\n"
        "round question \"q1\" to all: patient(me)\n  answers: Ann=no\n"
        "round question \"q2\" to all: patient(me)\n  answers: Ann=no\n"
        "round question \"q3\" to all: believes(patient(me))\n  answers: Ann=no\n"
        "round question \"q4\" to all: believes(patient(me))\n  answers: Ann=no\n")
    world = tmp_path / "st.world"
    world.write_text("world:\n  Ann: ST\n")
    result = runner.invoke(cli, ["simulate", str(puzzle), str(world)])
    assert result.exit_code == 0
    assert result.output.count("Ann: no") == 4


def test_simulate_empty_rounds(runner, tmp_path):
    puzzle = tmp_path / "empty.puzzle"
    puzzle.write_text("persons: Ann\n")
    world = tmp_path / "w.world"
    world.write_text("world:\n  Ann: ST\n")
    result = runner.invoke(cli, ["simulate", str(puzzle), str(world)])
    assert result.exit_code == 0
    assert result.output.strip() == ""


def walked_simulation(puzzle, world) -> tuple[str, int, int]:
    """What `bedlam simulate` must print, each step kept as the tree walker
    and `Step.required` say; and how many statements and answers are not."""
    lines, shown, broken, flipped = [], None, 0, 0
    for step in puzzle.transcript:
        if step.round_index != shown:
            shown = step.round_index
            lines.append(f"round {shown} statements:" if step.answer is None
                         else f'round {shown} question "{step.label}":')
        kept = (eval_closed(world, step.body, step.person)
                == step.required(world.types[step.person_index]))
        if step.answer is None:
            mark = "consistent" if kept else "INCONSISTENT"
            lines.append(f"  {step.person}: {step.label} [{mark}]")
            broken += not kept
        else:
            yes = kept == (step.answer is Answer.YES)
            lines.append(f"  {step.person}: {'yes' if yes else 'no'}")
            flipped += not kept
    return "".join(line + "\n" for line in lines), broken, flipped


def test_simulate_on_an_inconsistent_world_is_the_tree_walkers(
        runner, asylum, ann_sl_world):
    result = runner.invoke(cli, ["simulate", ASYLUM, ANN_SL])
    assert result.exit_code == 0
    expected, broken, _ = walked_simulation(asylum, ann_sl_world)
    assert result.output == expected
    assert broken and "  Ann: lover(Beth) [INCONSISTENT]\n" in result.output


def test_simulate_on_random_worlds_is_the_tree_walkers(runner, tmp_path):
    rng = random.Random(1803)
    broken = flipped = 0
    for n in range(80):
        puzzle = (random_puzzle(rng) if n % 2
                  else random_categorical_puzzle(rng, hidden=False))
        world = random_world(rng, puzzle.person_names, puzzle.fluent_decls)
        puzzle_path = tmp_path / "random.puzzle"
        world_path = tmp_path / "random.world"
        puzzle_path.write_text(puzzle_text(puzzle))
        world_path.write_text(world_text(world))
        assert parse_puzzle_file(puzzle_path.read_text()) == puzzle
        result = runner.invoke(cli, ["simulate", str(puzzle_path),
                                     str(world_path)])
        assert result.exit_code == 0
        expected, broken_here, flipped_here = walked_simulation(puzzle, world)
        assert result.output == expected
        broken += broken_here
        flipped += flipped_here
    # The sample breaks statements and flips answers alike.
    assert broken > 20 and flipped > 20


def test_structured_output_is_byte_identical_across_workers(runner):
    one = runner.invoke(cli, ["solve", ASYLUM, "--format", "structured",
                              "--extract", "--workers", "1"])
    four = runner.invoke(cli, ["solve", ASYLUM, "--format", "structured",
                               "--extract", "--workers", "4"])
    assert one.exit_code == 0 and four.exit_code == 0
    assert one.stdout_bytes == four.stdout_bytes
    document = json.loads(one.output)
    assert document["status"] == "unique"
    assert document["extraction"]["word"] == "ALTERNATE"
    assert document["puzzle"]["digest"].startswith("sha256:")
    assert document["worlds"][0]["persons"]["Ann"]["type"] == "PiAl"
    assert document["worlds"][0]["persons"]["Ann"]["fluents"]["lover"] is True


def test_structured_output_stable_across_runs(runner):
    first = runner.invoke(cli, ["solve", ASYLUM, "--format", "structured"])
    second = runner.invoke(cli, ["solve", ASYLUM, "--format", "structured"])
    assert first.stdout_bytes == second.stdout_bytes


def test_solve_explain_appends_derivation(runner):
    result = runner.invoke(cli, ["solve", ASYLUM, "--explain"])
    assert result.exit_code == 0
    assert "derivation:" in result.output
    assert "round 0 Beth (lying, insane): says lover(me) => lover(Beth)" \
        in result.output


# Whole-output pins: any change to solving, rendering or replay order
# shows up as a different digest.
STRUCTURED_SOLVE_SHA256 = \
    "af26c6eb9888134b764145d3f6ab7fec9d86d51093a6778b319ecb5563fcfb61"
SIMULATE_SHA256 = \
    "5dd4b20908be8686963432e1f813fbcfd27a6a3b6c5030296bc9b54a2b9c6abd"
SIMULATE_ANN_SL_SHA256 = \
    "868226fad2e078b90b6b69a9b1064f8e1ec2a4f3efa86be6cf773a2531c435e8"
TABLES_SHA256 = \
    "2d12a26ec20aed7fbb8c6a1baf12e8ffaa6afda9adb5e18795c1e7f38bf09f0f"


def _digest(result) -> str:
    assert result.exit_code == 0
    return hashlib.sha256(result.stdout_bytes).hexdigest()


def test_structured_solve_output_bytes_are_pinned(runner):
    result = runner.invoke(cli, ["solve", ASYLUM, "--format", "structured",
                                 "--extract", "--explain"])
    assert _digest(result) == STRUCTURED_SOLVE_SHA256


def test_simulate_output_bytes_are_pinned(runner):
    result = runner.invoke(cli, ["simulate", ASYLUM, SOLUTION])
    assert _digest(result) == SIMULATE_SHA256


def test_simulate_on_an_inconsistent_world_bytes_are_pinned(runner):
    result = runner.invoke(cli, ["simulate", ASYLUM, ANN_SL])
    assert _digest(result) == SIMULATE_ANN_SL_SHA256


def test_tables_output_bytes_are_pinned(runner):
    assert _digest(runner.invoke(cli, ["tables"])) == TABLES_SHA256
