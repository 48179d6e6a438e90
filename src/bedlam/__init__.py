"""Engine for asylum transcript puzzles.

Puzzles populate a small world with truth-tellers, liars and alternators
who are each sane, delusional or partial, record what everyone said, and
ask which worlds are consistent with the talk.  The package parses the
puzzle DSL, simulates agents, enumerates consistent worlds, reproduces
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
from .semantics import (ALL_TYPES, AgentState, Answer, Ask, ExtendedType,
                        Say, Sanity, Truthfulness, TYPES_BY_LABEL, advance,
                        answer_yes_no, current_phases, decode_assertion,
                        simulate_person, type_from_label, would_assert)
from .solver import (Budget, BudgetExceededError, CheckResult, SolveResult,
                     SolveStatus, brute_force_solve, check_world,
                     enumerate_worlds, explain_solution, solve_all)
from .statements import (SemanticError, Statement, eval_closed,
                         render_statement)
from .worlds import FluentDecl, World

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path to a bundled puzzle or world file, e.g. ``asylum.puzzle``."""
    return resources.files(__name__) / "puzzles" / name
