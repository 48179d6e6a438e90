"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS line once its assertions hold, so running
``pytest tests/test_acceptance.py -s`` gives a per-criterion checklist.
"""

import json
import random
import time

from click.testing import CliRunner

from bedlam import fixture_path
from bedlam.cli import cli
from bedlam.discrimination import (FOUR_QUESTION_PLAN, THREE_QUESTION_PLAN,
                                   TWO_QUESTION_PLAN, answer_signature,
                                   partition_types, two_question_table)
from bedlam.extraction import encode_person, extract_word, person_triple, value_to_letter
from bedlam.parser import parse_statement
from bedlam.puzzle import QuestionRound
from bedlam.semantics import (ALL_TYPES, AgentState, TYPES_BY_LABEL,
                              advance, current_phases, would_assert)
from bedlam.solver import SolveStatus, brute_force_solve, explain_solution, solve_all
from bedlam.statements import Atom, Believes, ME, render_statement
from bedlam.worlds import FluentDecl, World

from support import random_puzzle

# The four-question answer table, one column per type, frozen from the
# published grid and independently re-derivable from the phase rules.
FOUR_QUESTION_TABLE = {
    "ST": "NNNN", "SL": "YYYY", "SAt": "NYNY", "SAl": "YNYN",
    "DT": "NNYY", "DL": "YYNN", "DAt": "NYYN", "DAl": "YNNY",
    "PiT": "NYYY", "PiL": "YNNN", "PiAt": "NNYN", "PiAl": "YYNY",
    "PsT": "YNYY", "PsL": "NYNN", "PsAt": "YYYN", "PsAl": "NNNY",
}

THREE_QUESTION_TABLE = {
    "NNN": {"ST", "PsAl"}, "YYY": {"SL", "PsAt"},
    "NYN": {"SAt", "PsL"}, "YNY": {"SAl", "PsT"},
    "YYN": {"DL", "PiAl"}, "NNY": {"DT", "PiAt"},
    "YNN": {"DAl", "PiL"}, "NYY": {"DAt", "PiT"},
}

# The two-question table as printed alongside this puzzle's analysis,
# including its erroneous liar rows.
PUBLISHED_TWO_QUESTION_TABLE = {"ST": "NN", "SL": "YN", "DT": "NY", "DL": "YY"}

# Second column of the final report table: state before round 1, guilt.
FINAL_REPORT_TABLE = {
    "Ann": ("PsAt", "guilty"), "Beth": ("DL", "accomplice"),
    "Cedric": ("SAt", "innocent"), "David": ("PiL", "innocent"),
    "Eve": ("SAl", "accomplice"), "Fiona": ("DL", "innocent"),
    "Grace": ("PiAl", "guilty"), "Holly": ("SAt", "innocent"),
    "Ian": ("PiL", "innocent"),
}

CLASSES_BY_LABEL = {
    "PsAt": ("partial", "alternator"), "PiAl": ("partial", "alternator"),
    "PiL": ("partial", "liar"), "DL": ("delusional", "liar"),
    "SAt": ("sane", "alternator"), "SAl": ("sane", "alternator"),
}

EXTRACTION_TABLE = [
    ("Ann", "001", 1, "A"), ("Beth", "110", 12, "L"),
    ("Cedric", "202", 20, "T"), ("David", "012", 5, "E"),
    ("Eve", "200", 18, "R"), ("Fiona", "112", 14, "N"),
    ("Grace", "001", 1, "A"), ("Holly", "202", 20, "T"),
    ("Ian", "012", 5, "E"),
]

ROUND_FIVE_FACTS = {
    "Ann": "(exists x . unlocked(x)) and (forall x . unlocked(x) implies doctor(x))",
    "Beth": "not (exists x . doctor(x) and guilt(x, guilty))",
    "Cedric": "exists x . carried(x)",
    "David": "not (exists x . unlocked(x) and (not doctor(x) or not lover(x)))",
    "Eve": ("not (not guilt(Cedric, innocent) or not guilt(David, innocent) "
            "or not guilt(Ian, innocent))"),
    "Fiona": "not (exists x . delusional(x) and guilt(x, guilty))",
    "Grace": "not (exists x . not lover(x) and not guilt(x, innocent))",
    "Holly": ("strong(Beth) and strong(Cedric) and strong(David) and "
              "strong(Ian) and not strong(Ann) and not strong(Eve) and "
              "not strong(Fiona) and not strong(Grace) and not strong(Holly)"),
    "Ian": "not (exists x . carried(x) and not lover(x))",
}


def test_criterion_1_four_question_table():
    started = time.perf_counter()
    signatures = {t.label: answer_signature(t, FOUR_QUESTION_PLAN)
                  for t in ALL_TYPES}
    assert signatures == FOUR_QUESTION_TABLE
    assert len(set(signatures.values())) == 16
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 four-question table, 64 cells exact, "
          f"16 distinct signatures ({elapsed:.3f}s): PASS")


def test_criterion_2_three_question_partition():
    started = time.perf_counter()
    partition = partition_types(THREE_QUESTION_PLAN)
    classes = {sig: {t.label for t in types}
               for sig, types in partition.classes}
    assert classes == THREE_QUESTION_TABLE
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 three-question partition, 8 exact pairs "
          f"({elapsed:.3f}s): PASS")


def test_criterion_3_two_question_table_with_erratum():
    started = time.perf_counter()
    engine = two_question_table()
    assert engine == {"ST": "NN", "SL": "YY", "DT": "NY", "DL": "YN"}
    differing_cells = [
        (label, position)
        for label in engine
        for position in range(2)
        if engine[label][position] != PUBLISHED_TWO_QUESTION_TABLE[label][position]]
    assert sorted(differing_cells) == [("DL", 1), ("SL", 1)]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 two-question table NN/YY/NY/YN, divergence from "
          f"the published table in exactly the two liar belief cells "
          f"({elapsed:.3f}s): PASS")


def test_criterion_4_fixture_solve(asylum):
    started = time.perf_counter()
    result = solve_all(asylum)
    elapsed = time.perf_counter() - started
    assert result.status is SolveStatus.UNIQUE
    assert len(result.worlds) == 1
    world = result.worlds[0]
    rows = {row.person: row for row in result.report}
    for person, (label, guilt) in FINAL_REPORT_TABLE.items():
        sanity, truthfulness = CLASSES_BY_LABEL[label]
        assert rows[person].sanity == sanity
        assert rows[person].truthfulness == truthfulness
        assert rows[person].guilt == guilt
        # The world anchors phases at round 0; one advance gives the
        # published before-round-1 labels.
        assert world.type_of(person).advanced(1).label == label
    lovers = {p for p in world.person_names if world.fluent_value("lover", p)}
    assert lovers == {"Ann", "Beth", "Eve", "Fiona", "Grace"}
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 unique fixture world, 9 report triples and "
          f"lover set exact ({elapsed:.2f}s): PASS")


def test_criterion_5_extraction(asylum):
    result = solve_all(asylum)
    world = result.worlds[0]
    for person, digits, value, letter in EXTRACTION_TABLE:
        triple = person_triple(world, person, asylum.extraction)
        assert encode_person(triple, asylum.extraction) == (digits, value)
        assert value_to_letter(value) == letter
    word = extract_word(result, asylum.extraction)
    assert word == "ALTERNATE"
    print("\nACCEPTANCE 5 extraction, 9 digit/value/letter rows exact, "
          "word ALTERNATE: PASS")


def test_criterion_6_deduction_chain(asylum, solution_world):
    steps = explain_solution(asylum, solution_world)
    by_round = {}
    for step in steps:
        by_round.setdefault(step.round_index, {})[step.person] = step
    # The nine round-5 belief reports decode to the nine known facts.
    decoded = {person: render_statement(step.fact)
               for person, step in by_round[5].items()}
    assert decoded == ROUND_FIVE_FACTS
    # Rounds 0 and 4 certify Beth, Fiona and Grace as lovers before any
    # guilt reasoning: their own round-0 claims decode positively, and
    # the round-4 chain re-derives each one.
    for person in ("Beth", "Fiona", "Grace"):
        assert render_statement(by_round[0][person].fact) == f"lover({person})"
    assert render_statement(by_round[4]["Ann"].fact) == "lover(Beth)"
    assert render_statement(by_round[4]["Eve"].fact) == "lover(Fiona)"
    assert render_statement(by_round[4]["Fiona"].fact) == "not not lover(Grace)"
    print("\nACCEPTANCE 6 deduction chain, nine decoded round-5 facts and "
          "lover certification exact: PASS")


def test_criterion_7_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(0xBED1A)
    total = 220
    agreements = 0
    satisfiable = 0
    for _ in range(total):
        puzzle = random_puzzle(rng)
        expected = brute_force_solve(puzzle)
        result = solve_all(puzzle)
        assert result.worlds == expected
        agreements += 1
        if expected:
            satisfiable += 1
    elapsed = time.perf_counter() - started
    assert agreements == total
    assert satisfiable > 50  # the mix is not degenerate
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 7 oracle equivalence on {total} random puzzles, "
          f"{satisfiable} satisfiable, 100% agreement ({elapsed:.1f}s): PASS")


def test_criterion_8_semantics_laws():
    flag = Atom("flag", ME)
    cases = 0
    for t in ALL_TYPES:
        for parity in (0, 1):
            state = AgentState(t, parity)
            truthful, sane = current_phases(state)
            for value in (True, False):
                world = World(("Subject",), (t,), (FluentDecl("flag"),),
                              ((value,),))
                assert would_assert(state, world, Believes(flag), "Subject") \
                    == (truthful == value)
                cases += 1
                assert would_assert(state, world, flag, "Subject") \
                    == ((truthful == sane) == value)
                cases += 1
    assert cases == 128
    for t in ALL_TYPES:
        state = AgentState(t, 0)
        assert current_phases(advance(advance(state))) == current_phases(state)
    print("\nACCEPTANCE 8 belief-collapse and bare-statement laws, "
          "64 + 64 cases, periodicity for all 16 types: PASS")


def test_criterion_9_parser_round_trip(asylum):
    from support import random_utterance
    rng = random.Random(0x90F)
    checked = 0
    for _ in range(1200):
        stmt = random_utterance(rng)
        assert parse_statement(render_statement(stmt)) == stmt
        checked += 1
    fixture_statements = list(asylum.axioms)
    for rnd in asylum.rounds:
        if isinstance(rnd, QuestionRound):
            fixture_statements.append(rnd.statement)
        else:
            fixture_statements.extend(stmt for _, stmt in rnd.utterances)
    for stmt in fixture_statements:
        assert parse_statement(render_statement(stmt)) == stmt
        checked += 1
    print(f"\nACCEPTANCE 9 parse-render identity on {checked} statements "
          f"(1200 generated + fixture): PASS")


def test_criterion_10_determinism():
    runner = CliRunner()
    path = str(fixture_path("asylum.puzzle"))
    outputs = []
    for workers in ("1", "3"):
        result = runner.invoke(cli, ["solve", path, "--format", "structured",
                                     "--extract", "--workers", workers])
        assert result.exit_code == 0
        outputs.append(result.stdout_bytes)
    assert outputs[0] == outputs[1]
    document = json.loads(outputs[0])
    assert document["status"] == "unique"
    assert document["extraction"]["word"] == "ALTERNATE"
    print("\nACCEPTANCE 10 byte-identical structured output across "
          "parallelism settings: PASS")
