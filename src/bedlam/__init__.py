"""Engine for asylum transcript puzzles.

Puzzles populate a small world with truth-tellers, liars and alternators
who are each sane, delusional or partial, record what everyone said, and
ask which worlds are consistent with the talk.  The package parses the
puzzle DSL, replays each transcript by one phase rule, enumerates
consistent worlds, explains what each utterance guarantees, reproduces
the type-discrimination tables, and performs the ternary letter
extraction on a unique solution.
"""

from importlib import resources

from .discrimination import (answer_signature, filter_types_by_signature,
                             partition_types, tables_report,
                             UnsupportedQuestionError)
from .extraction import (Category, ExtractionConfig, ExtractionError,
                         encode_person, extract_word, value_to_letter)
from .parser import (ParseError, parse_puzzle_file, parse_statement,
                     parse_world_file)
from .puzzle import PuzzleSpec, QuestionRound, StatementsRound
from .semantics import (ALL_TYPES, AgentState, Answer, ExtendedType, Sanity,
                        Truthfulness, TYPES_BY_LABEL, advance, current_phases,
                        type_from_label, would_assert)
from .solver import (Budget, BudgetExceededError, CheckResult, SolveResult,
                     SolveStatus, brute_force_solve, check_world,
                     enumerate_worlds, explain_solution, solve_all)
from .statements import (SemanticError, Statement, eval_closed,
                         is_type_local, render_statement)
from .worlds import FluentDecl, World

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path to a bundled puzzle or world file, e.g. ``asylum.puzzle``."""
    return resources.files(__name__) / "puzzles" / name
