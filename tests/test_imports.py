"""Source hygiene: every module-level import and helper and every
parameter is used, no cache outlives the puzzle or solve it serves, a
parse error that blames a token takes its position from the token, and
every mutant in `mutants.py` still names a text the package holds and
tests that tier-1 collects."""

import ast
from collections import Counter
from pathlib import Path

import bedlam
from mutants import MUTANTS, ROOT

PACKAGE = Path(bedlam.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is left out.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def _private_definitions(tree: ast.Module) -> list[ast.AST]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _referenced_names(node: ast.AST) -> Counter:
    names = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
        elif isinstance(child, ast.alias):
            names[child.name] += 1
    return names


def _package_references() -> tuple[dict, Counter]:
    """Each module's tree, and how often the package references each name."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert trees
    everywhere = Counter()
    for tree in trees.values():
        everywhere += _referenced_names(tree)
    return trees, everywhere


def test_no_unreferenced_private_helpers():
    # A private module-level function or class must be referenced somewhere
    # in the package outside its own definition.
    trees, everywhere = _package_references()
    unused = [f"{path.name}:{definition.lineno} {definition.name}"
              for path, tree in trees.items()
              for definition in _private_definitions(tree)
              if everywhere[definition.name]
              <= _referenced_names(definition)[definition.name]]
    assert unused == []


def _private_assignments(tree: ast.Module) -> list[tuple[int, str]]:
    """`(line, name)` of each private name a module-level assignment
    binds, tuple targets included."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        found += [(node.lineno, name.id) for target in targets
                  for name in ast.walk(target)
                  if isinstance(name, ast.Name) and name.id.startswith("_")
                  and not name.id.startswith("__")]
    return found


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names, attributes and imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_no_unread_private_module_names():
    # A private module-level constant or sentinel must be read somewhere
    # in the package; one left behind by a rewrite is dead weight.
    trees, _ = _package_references()
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    assigned = [(path, line, name) for path, tree in trees.items()
                for line, name in _private_assignments(tree)]
    assert assigned
    assert [f"{path.name}:{line} {name}" for path, line, name in assigned
            if name not in read] == []


def test_no_unreferenced_public_functions():
    # An undecorated public module-level function must be referenced in
    # the package outside its own definition, or re-exported by
    # __init__.py.  Decorated ones, such as CLI commands, register
    # themselves.
    trees, everywhere = _package_references()
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, tree in trees.items() if path.name != "__init__.py"
              for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_") and not node.decorator_list
              and everywhere[node.name]
              <= _referenced_names(node)[node.name]]
    assert unused == []


def _module_level_caches(path: Path) -> list[str]:
    """Memoizing decorators anywhere, and module-level empty containers."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name in ("cache", "lru_cache"):
            found.append(f"{path.name}:{node.lineno} {node.name}")
        elif (isinstance(node, ast.Attribute)
              and node.attr in ("cache", "lru_cache")
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            found.append(f"{path.name}:{node.lineno} functools.{node.attr}")
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        empty = ((isinstance(value, ast.Dict) and not value.keys)
                 or (isinstance(value, ast.List) and not value.elts)
                 or (isinstance(value, ast.Call)
                     and isinstance(value.func, ast.Name)
                     and value.func.id in ("set", "dict")
                     and not value.args and not value.keywords))
        if empty:
            found.append(f"{path.name}:{node.lineno} empty container")
    return found


def test_no_module_level_caches():
    # A table shared by every puzzle or solve grows without bound and is
    # shared between threads; such tables live on a puzzle or a solve.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [entry for path in modules
            for entry in _module_level_caches(path)] == []


def _unused_parameters(path: Path) -> list[str]:
    """Parameters of each `def` that its body never reads, leaving out
    `self`, `cls`, `*args`, `**kwargs` and dunder methods."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name.startswith("__") and node.name.endswith("__")):
            continue
        arguments = node.args
        read = {child.id for statement in node.body
                for child in ast.walk(statement)
                if isinstance(child, ast.Name)
                and isinstance(child.ctx, ast.Load)}
        found += [f"{path.name}:{node.lineno} {node.name}({arg.arg})"
                  for arg in (*arguments.posonlyargs, *arguments.args,
                              *arguments.kwonlyargs)
                  if arg.arg not in ("self", "cls") and arg.arg not in read]
    return found


def test_no_unused_parameters():
    # A parameter no body reads is a caller's work for nothing.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [entry for path in modules
            for entry in _unused_parameters(path)] == []


def _token_positioned_errors(tree: ast.Module) -> list[tuple[int, bool]]:
    """`(line, inside Token.error)` of each `ParseError(...)` call whose
    position arguments are `X.line, X.col` of one expression `X`."""
    token = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Token")
    inside = {id(node) for method in token.body
              if isinstance(method, ast.FunctionDef) and method.name == "error"
              for node in ast.walk(method)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "ParseError"):
            continue
        position = node.args[1:]
        if (len(position) == 2
                and all(isinstance(arg, ast.Attribute) for arg in position)
                and [arg.attr for arg in position] == ["line", "col"]
                and ast.dump(position[0].value) == ast.dump(position[1].value)):
            found.append((node.lineno, id(node) in inside))
    return found


def test_parse_errors_are_positioned_by_their_token():
    # An error that blames a token is built by `Token.error`, so no call
    # site copies a token's position by hand.
    tree = ast.parse((PACKAGE / "parser.py").read_text(encoding="utf-8"))
    found = _token_positioned_errors(tree)
    assert [f"parser.py:{line}" for line, inside in found if not inside] == []
    assert [inside for _, inside in found] == [True]


def test_each_mutants_old_text_occurs_once():
    # `tests/mutants.py` replaces one exact text per mutant; a text that
    # an edit removed or repeated would leave its mutant stale.
    assert MUTANTS
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    texts = {path.name: path.read_text(encoding="utf-8")
             for path in PACKAGE.glob("*.py")}
    assert [mutant.name for mutant in MUTANTS
            if texts[mutant.path].count(mutant.old) != 1
            or mutant.old == mutant.new] == []


def test_each_mutants_killers_are_tier_1_tests():
    # The runner reaches a stale killer id only after copying the
    # repository and running pytest there; the test modules' syntax trees
    # name every test at once.
    assert [mutant.name for mutant in MUTANTS
            if not mutant.killers and not mutant.equivalent] == []
    killers = {killer.partition("::") for mutant in MUTANTS
               for killer in mutant.killers}
    tests = {path: {node.name for node in ast.parse(
                 (ROOT / path).read_text(encoding="utf-8")).body
                 if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("test_")}
             for path, _, _ in killers if Path(path).name.startswith("test_")}
    assert sorted(f"{path}::{name}" for path, _, name in killers
                  if name not in tests.get(path, ())) == []
