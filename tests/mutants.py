"""Named mutants of `src/bedlam`, and a runner that checks tier-1 kills them.

    python tests/mutants.py [--timeout SECONDS] [NAME ...]

For each mutant (all of them when no NAME is given) the runner copies
the repository to a temporary directory, replaces the mutant's old text
with its new text in that copy, and runs pytest there with `-x` and a
timeout: first the tests listed to kill the mutant, then, if those all
pass, the whole tier-1 suite.  It prints one line per mutant: killed
(by the first failing test), survived, or timed out, and exits 1 if any
mutant was not killed by its listed tests.  An equivalent mutant lists
no tests and says why no result can change; the runner reports what
tier-1 gives it and does not count it in the exit status.  The
repository itself is never written.

pytest does not collect this file.  `tests/test_imports.py` checks that
each old text occurs exactly once in `src/bedlam`, so an edit there
cannot leave a mutant stale unnoticed.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/bedlam
    old: str
    new: str
    killers: tuple[str, ...]  # tier-1 test ids expected to fail
    # Why no result can change, for a mutant no test is expected to kill.
    equivalent: str = ""


MUTANTS = (
    # --- statements.py: the junction nodes, the compiled scan and the split
    # rule of a count ---
    Mutant("scan-final-return-flipped", "statements.py",
           "        return not some\n    return check\n",
           "        return some\n    return check\n",
           ("tests/test_statements.py::test_compiled_check_is_the_tree_walker",)),
    Mutant("scan-is-not-some", "statements.py",
           "if item(types, values) is some:",
           "if item(types, values) is not some:",
           ("tests/test_statements.py::test_compiled_check_is_the_tree_walker",)),
    Mutant("junction-takes-one-item", "statements.py",
           "if len(self.items) < 2:",
           "if len(self.items) < 1:",
           ("tests/test_statements.py::test_and_and_or_stay_distinct_nodes",
            "tests/test_statements.py::"
            "test_malformed_nodes_and_unknown_are_refused_with_their_message")),
    Mutant("compiled-slot-order-reversed", "statements.py",
           "return (f * n + at[s],) * 2",
           "return (f * n + n - 1 - at[s],) * 2",
           ("tests/test_statements.py::test_compiled_start_on_the_asylums_shapes",)),
    Mutant("exists-split-while-it-must-be-true", "statements.py",
           "count[0] == (len(count[2]) if want else 1)",
           "count[0] in ((len(count[2]), 1) if want else (1,))",
           ("tests/test_statements.py::"
            "test_a_watched_run_is_the_check_where_it_passed_with_the_slot_unset",)),
    # --- statements.py: the reads and the start a compile analyses ---
    Mutant("builtin-types-only-its-first-person", "statements.py",
           "            for p in persons:\n",
           "            for p in persons[:1]:\n",
           ("tests/test_statements.py::"
            "test_types_outside_types_read_never_change_a_check",)),
    Mutant("quantifier-memo-ignores-outer-persons", "statements.py",
           "key = (slot, *[at[s] for _, s in atoms if n <= s < slot])",
           "key = (slot,)",
           ("tests/test_statements.py::"
            "test_compiled_start_analyses_a_closed_quantifier_once",)),
    Mutant("quantifier-memo-keys-every-outer-slot", "statements.py",
           "key = (slot, *[at[s] for _, s in atoms if n <= s < slot])",
           "key = (slot, *at[n:slot])",
           ("tests/test_statements.py::"
            "test_a_builtin_nest_is_analysed_once_per_quantifier",)),
    Mutant("count-of-all-takes-the-latest-false-slot", "statements.py",
           "sorted(falses)[m - k]",
           "sorted(falses)[m - 1]",
           ("tests/test_statements.py::"
            "test_compiled_start_is_exact_when_no_two_atoms_read_one_slot",
            "tests/test_solver.py::"
            "test_no_check_is_false_before_its_watch_starts")),
    # --- statements.py: the watch list a check gives the fluent search ---
    Mutant("first-watched-run-takes-only-parts", "statements.py",
           "check, *_runs(watched[1:], check,",
           "*_runs(watched, check,",
           ("tests/test_solver.py::"
            "test_a_watched_check_runs_whole_at_its_first_slot",)),
    Mutant("watch-starts-one-slot-late", "statements.py",
           "if v >= start]",
           "if v > start]",
           ("tests/test_statements.py::"
            "test_compiled_start_is_exact_when_no_two_atoms_read_one_slot",)),
    # --- semantics.py: the type tables ---
    Mutant("liar-may-start-truthful", "semantics.py",
           "                  (Truthfulness.LIAR, False): \"L\",\n",
           "                  (Truthfulness.LIAR, False): \"L\",\n"
           "                  (Truthfulness.LIAR, True): \"Lt\",\n",
           ("tests/test_semantics.py::test_sixteen_distinct_types",)),
    # --- solver.py: the one node counter and the budget it checks ---
    Mutant("counter-threshold-off-by-one", "solver.py",
           "if self.nodes % self._CHECK_EVERY < count:",
           "if self.nodes % self._CHECK_EVERY <= count:",
           ("tests/test_solver.py::test_a_budget_abort_reports_the_search_so_far",)),
    Mutant("budget-checked-every-2-40-nodes", "solver.py",
           "_CHECK_EVERY = 2048",
           "_CHECK_EVERY = 2 ** 40",
           ("tests/test_solver.py::test_a_budget_abort_reports_the_search_so_far",)),
    Mutant("no-budget-check-on-a-count", "solver.py",
           "if self.nodes % self._CHECK_EVERY < count:",
           "if count == 1 and self.nodes % self._CHECK_EVERY < count:",
           ("tests/test_solver.py::test_a_budget_abort_reports_the_search_so_far",)),
    Mutant("no-time-budget", "solver.py",
           "elif time.perf_counter() - self.started > self.budget.max_seconds:",
           "elif False:",
           ("tests/test_solver.py::test_a_budget_abort_reports_the_search_so_far",)),
    Mutant("reused-subtree-counts-no-nodes", "solver.py",
           "        self.tick(nodes)\n",
           "        self.tick(0)\n",
           ("tests/test_solver.py::test_a_budget_abort_reports_the_search_so_far",)),
    Mutant("ruled-out-zero-person-solve-counts-no-node", "solver.py",
           "combination is ruled out.\n                    self.tick()\n",
           "combination is ruled out.\n                    self.tick(0)\n",
           ("tests/test_solver.py::"
            "test_quantified_fluent_axiom_without_persons_is_checked",)),
    Mutant("collector-resumed-though-it-was-off", "solver.py",
           "if self._depth == 0 and self._resume:",
           "if self._depth == 0:",
           ("tests/test_solver.py::"
            "test_solves_pause_the_collector_and_leave_it_as_they_found_it",)),
    Mutant("speaker-wants-left-out-of-class-key", "solver.py",
           "reading[step.person_index] |= {step.required_by_type}",
           "reading[step.person_index] |= set()",
           ("tests/test_solver.py::"
            "test_type_checks_run_once_per_combination_of_classes",)),
    Mutant("two-person-checks-filter-candidates", "solver.py",
           "elif len(typed) == 1:",
           "elif len(typed) <= 2:",
           ("tests/test_acceptance.py::test_criterion_7_oracle_equivalence",)),
    # --- solver.py: check_world's one loop, the oracle's kept worlds and
    # the derivation's negations ---
    Mutant("check-world-skips-the-last-check", "solver.py",
           "    for check in checks:\n",
           "    for check in checks[:-1]:\n",
           ("tests/test_oracle.py::test_check_world_is_the_tree_walkers_replay",)),
    Mutant("first-step-taken-for-an-axiom", "solver.py",
           "if k < len(axioms):",
           "if k <= len(axioms):",
           ("tests/test_oracle.py::test_check_world_is_the_tree_walkers_replay",)),
    Mutant("identity-shortcut-accepts-other-persons", "solver.py",
           "if names is not puzzle.person_names and names != "
           "puzzle.person_names:",
           "if names is not puzzle.person_names and False:",
           ("tests/test_solver.py::"
            "test_check_world_rejects_mismatched_declarations",)),
    Mutant("oracle-skips-the-type-filter", "solver.py",
           "            for check in per_types:\n",
           "            for check in ():\n",
           ("tests/test_solver.py::"
            "test_oracle_without_a_per_pair_check_checks_each_world_it_keeps",)),
    Mutant("oracle-keeps-worlds-unchecked", "solver.py",
           "                         if check_world(puzzle, world)]",
           "                         ]",
           (),
           equivalent="every compiled check has passed at an outer loop "
                      "level before a world is built, so `check_world` "
                      "accepts each; only tests that count its calls see "
                      "the change (ROADMAP item 16)"),
    Mutant("derivation-negates-the-wrong-branch", "solver.py",
           "if not step.required(type_):",
           "if step.required(type_):",
           ("tests/test_solver.py::"
            "test_explain_decodes_both_negation_branches",
            "tests/test_solver.py::test_explain_decodes_round_zero_and_five")),
)

TIER_1 = ("-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors")


def apply(mutant: Mutant, root: Path) -> None:
    """Write `mutant` into the copy of the package under `root`."""
    path = root / "src" / "bedlam" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text does not occur exactly "
                         f"once in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _pytest(root: Path, args, timeout: float) -> tuple[str, str]:
    """`(outcome, first failing test)` of one pytest run in `root`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", *TIER_1, *args],
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed out", ""
    if done.returncode == 0:
        return "survived", ""
    if done.returncode != 1:  # not a test failure: a usage or collection fault
        raise SystemExit(f"pytest exited {done.returncode}:\n{done.stdout}"
                         f"{done.stderr}")
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return "killed", failed.group(1) if failed else ""


def run(mutant: Mutant, timeout: float) -> tuple[str, str, bool]:
    """`(outcome, first failing test, as expected)`: killed by a listed
    test, or, for an equivalent mutant, whatever tier-1 gives."""
    with tempfile.TemporaryDirectory(prefix="bedlam-mutant-") as scratch:
        root = Path(scratch) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        apply(mutant, root)
        if mutant.killers:
            outcome, test = _pytest(root, mutant.killers, timeout)
            if outcome == "killed":
                return outcome, test, True
        outcome, test = _pytest(root, (), timeout)
        return outcome, test, bool(mutant.equivalent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds allowed to each pytest run")
    args = parser.parse_args(argv)
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant: {', '.join(unknown)}")
    clean = True
    for mutant in [by_name[name] for name in args.names] or MUTANTS:
        outcome, test, listed = run(mutant, args.timeout)
        clean &= listed
        if mutant.equivalent:
            note = f" (equivalent: {mutant.equivalent})"
        else:
            note = "" if listed or outcome != "killed" else " (not a listed test)"
        print(f"{mutant.name}: {outcome}{' by ' + test if test else ''}{note}",
              flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
