"""Command line surface: solve, check, tables, simulate.

Exit codes: 0 solved / consistent, 1 parse or usage error, 10 no
consistent world, 11 --expect-unique with several worlds, 12 budget
exceeded, 13 world check failed.  All diagnostics go to stderr.

The structured output format is a single JSON document with these keys:
puzzle {digest, persons}, status, statistics {nodes, worlds_found},
worlds (list of {persons: {name: {type, fluents}}}), and, when present,
report, extraction {word, letters} and derivation.  Timing and the
count of fluent searches are reported only on the text surface, so
structured output is byte-stable and keeps its pinned bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Optional

import click

from .discrimination import tables_report
from .extraction import ExtractionError, extract_word, letter_rows
from .parser import ParseError, parse_puzzle_file, parse_world_file
from .puzzle import PuzzleSpec
from .semantics import Answer
from .solver import (Budget, BudgetExceededError, SolveStatus, check_world,
                     explain_solution, solve_all)
from .statements import SemanticError
from .worlds import World

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_WORLD = 10
EXIT_NOT_UNIQUE = 11
EXIT_BUDGET = 12
EXIT_CHECK_FAILED = 13


@click.group()
def cli():
    """Solve and inspect asylum transcript puzzles."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.ClickException(f"cannot read {path}: {exc}") from None


def _load_puzzle(path: str) -> tuple[PuzzleSpec, str]:
    text = _read(path)
    return parse_puzzle_file(text), text


@cli.command()
@click.argument("puzzle_path", metavar="PUZZLE")
@click.option("--explain", is_flag=True, help="Append the decoded derivation.")
@click.option("--extract", "extract_flag", is_flag=True,
              help="Append the extracted answer word.")
@click.option("--expect-unique", is_flag=True,
              help="Fail unless exactly one world is consistent.")
@click.option("--budget-nodes", type=int, default=Budget.max_nodes, metavar="N",
              help="Abort after N search nodes: the reported `nodes`, "
                   "defined by bedlam.solver.SolveStatistics.")
@click.option("--budget-seconds", type=float, default=Budget.max_seconds, metavar="S",
              help="Abort after S seconds of search.")
@click.option("--format", "output_format", default="text",
              type=click.Choice(["text", "structured"]),
              help="Human text or a stable JSON document.")
@click.option("--workers", type=int, default=1, metavar="N", expose_value=False,
              help="Accepted for compatibility; the search is serial and N "
                   "never changes the output.")
def solve(puzzle_path, explain, extract_flag, expect_unique,
          budget_nodes, budget_seconds, output_format):
    """Enumerate all worlds consistent with PUZZLE."""
    puzzle, text = _load_puzzle(puzzle_path)
    try:
        budget = Budget(max_nodes=budget_nodes, max_seconds=budget_seconds)
    except ValueError as exc:
        raise click.BadParameter(str(exc),
                                 param_hint="'--budget-seconds'") from None
    result = solve_all(puzzle, budget=budget)
    word = None
    letters = None
    if extract_flag:
        if puzzle.extraction is None:
            raise SemanticError("puzzle declares no extraction section")
        word = extract_word(result, puzzle.extraction)
        letters = letter_rows(result, puzzle.extraction)
    derivation = None
    if explain and result.status is SolveStatus.UNIQUE:
        derivation = [step.render()
                      for step in explain_solution(puzzle, result.worlds[0])]
    if output_format == "structured":
        document = _solve_document(text, puzzle, result, word, letters, derivation)
        click.echo(json.dumps(document, indent=2, sort_keys=True))
    else:
        _print_solve_text(puzzle, result, word, letters, derivation, explain)
    if result.status is SolveStatus.NONE:
        sys.exit(EXIT_NO_WORLD)
    if expect_unique and result.status is SolveStatus.MULTIPLE:
        sys.exit(EXIT_NOT_UNIQUE)
    sys.exit(EXIT_OK)


def _world_entry(world: World) -> dict:
    persons = {}
    for person in world.person_names:
        fluents = {}
        for decl in world.fluent_decls:
            fluents[decl.name] = world.fluent_value(decl.name, person)
        persons[person] = {"type": world.type_of(person).label,
                           "fluents": fluents}
    return {"persons": persons}


def _solve_document(text, puzzle, result, word, letters, derivation) -> dict:
    document = {
        "puzzle": {
            "digest": "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "persons": list(puzzle.person_names),
        },
        "status": result.status.value,
        "statistics": {
            "nodes": result.statistics.nodes,
            "worlds_found": result.statistics.worlds_found,
        },
        "worlds": [_world_entry(w) for w in result.worlds],
    }
    if result.report is not None:
        document["report"] = [
            {"person": row.person, "sanity": row.sanity,
             "truthfulness": row.truthfulness, "guilt": row.guilt}
            for row in result.report]
    if word is not None:
        document["extraction"] = {"word": word, "letters": letters}
    if derivation is not None:
        document["derivation"] = derivation
    return document


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _print_solve_text(puzzle, result, word, letters, derivation, explain):
    click.echo(f"status: {result.status.value}")
    click.echo(f"worlds: {result.statistics.worlds_found}")
    click.echo(f"nodes: {result.statistics.nodes}")
    click.echo(f"fluent searches: {result.statistics.fluent_searches}")
    click.echo(f"time: {result.statistics.elapsed:.3f}s")
    for i, world in enumerate(result.worlds, start=1):
        click.echo(f"world {i}:")
        for person in world.person_names:
            values = ", ".join(
                f"{decl.name}={_format_value(world.fluent_value(decl.name, person))}"
                for decl in world.fluent_decls)
            suffix = f"  {values}" if values else ""
            click.echo(f"  {person}: {world.type_of(person).label}{suffix}")
    if result.report is not None:
        click.echo("report:")
        for row in result.report:
            triple = f"{row.sanity}, {row.truthfulness}"
            if row.guilt is not None:
                triple += f", {row.guilt}"
            click.echo(f"  {row.person}: {triple}")
    if explain and derivation is None:
        click.echo("derivation: only available for a unique solution",
                   err=True)
    if derivation is not None:
        click.echo("derivation:")
        for line in derivation:
            click.echo(f"  {line}")
    if word is not None:
        click.echo("extraction:")
        for row in letters:
            triple = ", ".join(row["triple"])
            click.echo(f"  {row['person']}: ({triple}) -> {row['digits']} "
                       f"= {row['value']} -> {row['letter']}")
        click.echo(word)


@cli.command()
@click.argument("puzzle_path", metavar="PUZZLE")
@click.argument("world_path", metavar="WORLD")
def check(puzzle_path, world_path):
    """Replay PUZZLE against the world in WORLD."""
    puzzle, _ = _load_puzzle(puzzle_path)
    world = parse_world_file(_read(world_path), puzzle)
    outcome = check_world(puzzle, world)
    if outcome:
        click.echo("consistent")
        sys.exit(EXIT_OK)
    click.echo(f"inconsistent: {outcome.message}")
    sys.exit(EXIT_CHECK_FAILED)


@cli.command()
def tables():
    """Print the reference signature tables."""
    click.echo(tables_report(), nl=False)
    sys.exit(EXIT_OK)


@cli.command()
@click.argument("puzzle_path", metavar="PUZZLE")
@click.argument("world_path", metavar="WORLD")
def simulate(puzzle_path, world_path):
    """Print the transcript the WORLD's population would produce."""
    puzzle, _ = _load_puzzle(puzzle_path)
    world = parse_world_file(_read(world_path), puzzle)
    _, steps = puzzle.compiled
    shown_round = None
    for step, (check, _, _) in zip(puzzle.transcript, steps):
        ri = step.round_index
        if ri != shown_round:
            shown_round = ri
            click.echo(f"round {ri} statements:" if step.answer is None
                       else f"round {ri} question \"{step.label}\":")
        # Whether the speaker's type would give the recorded utterance.
        kept = check(world.types, world.fluent_values)
        if step.answer is None:
            mark = "consistent" if kept else "INCONSISTENT"
            click.echo(f"  {step.person}: {step.label} [{mark}]")
        else:
            # A kept answer is the one given; otherwise it is the other.
            yes = kept == (step.answer is Answer.YES)
            click.echo(f"  {step.person}: {'yes' if yes else 'no'}")
    sys.exit(EXIT_OK)


def main(argv: Optional[list] = None) -> int:
    """Entry point mapping domain errors onto the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, SemanticError, ExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except click.ClickException as exc:
        print(f"error: {exc.format_message()}", file=sys.stderr)
        return EXIT_ERROR
    except click.exceptions.Abort:
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
