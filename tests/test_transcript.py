"""The compiled transcript: per-speaker ordinals and the phase rule."""

from dataclasses import replace

from bedlam.parser import parse_puzzle_file
from bedlam.semantics import ALL_TYPES, Answer
from bedlam.statements import Atom, ME, Person

MIXED = """\
persons: Ann, Beth
round statements:
  Ann: patient(me)
round question "are you a doctor" to Beth, Ann: doctor(me)
  answers: Beth=yes, Ann=no
round statements:
  Beth: believes(patient(Ann))
round question "do you believe you are a patient" to Ann: believes(patient(me))
  answers: Ann=yes
"""

# Truth value a body must have for each type to assert it at its
# utterance ordinals 0-3, written out from the paper's phase rules:
# (bare statement, belief report).  T = true, F = false.
ASSERTED = {
    "ST": ("TTTT", "TTTT"), "SL": ("FFFF", "FFFF"),
    "SAt": ("TFTF", "TFTF"), "SAl": ("FTFT", "FTFT"),
    "DT": ("FFFF", "TTTT"), "DL": ("TTTT", "FFFF"),
    "DAt": ("FTFT", "TFTF"), "DAl": ("TFTF", "FTFT"),
    "PiT": ("FTFT", "TTTT"), "PiL": ("TFTF", "FFFF"),
    "PiAt": ("FFFF", "TFTF"), "PiAl": ("TTTT", "FTFT"),
    "PsT": ("TFTF", "TTTT"), "PsL": ("FTFT", "FFFF"),
    "PsAt": ("TTTT", "TFTF"), "PsAl": ("FFFF", "FTFT"),
}


def test_ordinals_run_per_speaker_across_round_kinds():
    puzzle = parse_puzzle_file(MIXED)
    rows = [(s.round_index, s.person, s.person_index, s.count, s.answer)
            for s in puzzle.transcript]
    assert rows == [
        (0, "Ann", 0, 0, None),
        (1, "Beth", 1, 0, Answer.YES),
        (1, "Ann", 0, 1, Answer.NO),
        (2, "Beth", 1, 1, None),
        (3, "Ann", 0, 2, Answer.YES),
    ]


def test_steps_peel_believes_and_keep_labels():
    steps = parse_puzzle_file(MIXED).transcript
    assert [s.is_belief for s in steps] == [False, False, False, True, True]
    assert steps[3].body == Atom("patient", Person("Ann"))
    assert steps[4].body == Atom("patient", ME)
    assert [s.label for s in steps] == [
        "patient(me)", "are you a doctor", "are you a doctor",
        "believes(patient(Ann))", "do you believe you are a patient"]


def test_transcript_is_compiled_once_per_puzzle(asylum):
    assert asylum.transcript is asylum.transcript
    assert len(asylum.transcript) == 6 * len(asylum.person_names)


def test_required_matches_the_hand_written_phase_table():
    puzzle = parse_puzzle_file(
        "persons: Ann\n"
        + "round statements:\n  Ann: patient(me)\n"
        + "round statements:\n  Ann: believes(patient(me))\n"
        + "".join(f'round question "q{k}" to Ann: patient(me)\n'
                  f"  answers: Ann={answer}\n"
                  f'round question "b{k}" to Ann: believes(patient(me))\n'
                  f"  answers: Ann={answer}\n"
                  for k, answer in enumerate(("yes", "no"))))
    steps = puzzle.transcript
    assert [s.count for s in steps] == [0, 1, 2, 3, 4, 5]
    for t in ALL_TYPES:
        bare, belief = ASSERTED[t.label]
        for step in steps:
            for ordinal in range(4):
                moved = replace(step, count=ordinal)
                expected = (belief if step.is_belief else bare)[ordinal] == "T"
                if step.answer is Answer.NO:
                    expected = not expected
                assert moved.required(t) is expected, (t.label, ordinal, step)
