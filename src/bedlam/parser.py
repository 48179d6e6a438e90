"""Parsers for the statement language, puzzle files, and world files.

The statement grammar, in canonical form:

    stmt  := 'believes' '(' body ')' | body
    body  := 'not' body | body 'and' body | body 'or' body
           | body 'implies' body
           | ('exists' | 'forall') IDENT '.' body
           | 'atleast' NAT IDENT '.' body
           | PRED '(' term (',' VALUE)? ')' | '(' body ')'
    term  := PERSON-NAME | IDENT | 'me'

Precedence, tightest first: not, and, or, implies.  Quantifier bodies
extend as far right as possible.  An identifier bound by an enclosing
quantifier is a variable; any other identifier in term position names a
person.  Identifiers are case-sensitive.  A '#' outside a quoted string
starts a comment, which runs to the end of its line.

Puzzle files are line-oriented: a `persons:` line, then `fluent`,
`axiom`, `round` and `extraction` sections.  World files carry a single
`world:` section assigning each person a type label and fluent values.
A statements round, the extraction section and a world file are each a
header line and the entry lines after it, read by one section reader,
`_entries`.  `parse_puzzle_file` reads each section's keyword once and
hands its reader the line just past it.

An error's position is that of the token it blames, through
`Token.error`; the end of a cursor's input, when the tokens run out;
column 1 of a line, for an error about a whole line or section or the
end of the file; or, in the lexer, the character it cannot read.

Each line is lexed in one pass, one regex match per token; the lexer
skips comments as it skips whitespace, and it alone decides where a
comment starts.  A multi-line statement goes through the same lexer,
which counts lines only in text that holds a newline.  A parsed puzzle's
rounds are checked, peeled and compiled in one walk (see `puzzle`).
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .extraction import Category, ExtractionConfig, ExtractionError
from .puzzle import PuzzleSpec, QuestionRound, StatementsRound, _where
from .semantics import Answer, type_from_label
from .statements import (And, AtLeast, Atom, Believes, Exists, ForAll,
                         Implies, ME, Not, Or, Person, Statement, Var,
                         compile_statement, peel_believes)
from .worlds import FluentDecl, World

STATEMENT_KEYWORDS = frozenset({
    "believes", "not", "and", "or", "implies",
    "exists", "forall", "atleast", "me",
})
FILE_KEYWORDS = frozenset({
    "persons", "fluent", "axiom", "round", "statements", "question",
    "to", "all", "answers", "extraction", "category", "order",
    "alphabetical", "world", "bool", "yes", "no",
})
RESERVED = STATEMENT_KEYWORDS | FILE_KEYWORDS

# Skips whitespace, then captures one token or a comment ('#' to the end
# of its line); no group matches at the end of the text or at a character
# nothing starts with.  A string matches from its opening quote, so a '#'
# inside it is part of the string.
_TOKEN_RE = re.compile(r"""
    \s*
    (?:
        (?P<nat>[0-9]+)
      | (?P<word>[A-Za-z_][A-Za-z0-9_-]*)
      | (?P<string>"[^"]*")
      | (?P<punct>[(){},.:=])
      | (?P<comment>\#[^\n]*)
    )?
""", re.VERBOSE)


class ParseError(Exception):
    """Syntax error with a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


class Token(NamedTuple):
    kind: str  # "word" | "nat" | "string" | "punct"
    text: str
    line: int
    col: int

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)


def _tokenize(text: str, line: int = 1) -> _TokenCursor:
    """A cursor over the tokens of `text`, whose first line is line `line`.

    One regex match per token or comment; comments are skipped.  Columns
    count from the start of the token's line; only text holding a newline
    (a multi-line statement, or a string that spans lines) counts newlines
    at all.  The cursor's end of input is on the last line, one past its
    last character before its comment.
    """
    tokens = []
    match = _TOKEN_RE.match
    new_token = tuple.__new__  # builds a Token without its Python __new__
    multiline = "\n" in text
    pos = 0
    counted = 0     # newlines before this offset are counted in `line`
    line_start = 0  # offset of the first character of `line`
    comment = -1    # offset of the last comment
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start = m.end() if kind is None else m.start(kind)
        if multiline:
            newlines = text.count("\n", counted, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", counted, start) + 1
            counted = start
        if kind is None:
            if start < len(text):
                raise ParseError(f"unexpected character {text[start]!r}",
                                 line, start - line_start + 1)
            end = comment if comment >= line_start else start
            return _TokenCursor(tokens, line, end - line_start + 1)
        if kind == "comment":
            comment = start
        else:
            tokens.append(new_token(
                Token, (kind, m.group(kind), line, start - line_start + 1)))
        pos = m.end()


class _TokenCursor:
    """The tokens of one line or statement, read front to back; running
    out of them is an error at (`end_line`, `end_col`)."""

    def __init__(self, tokens: list[Token], end_line: int, end_col: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line
        self.end_col = end_col

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect_text: Optional[str] = None,
             expect_kind: Optional[str] = None,
             what: str = "") -> Token:
        tok = self.peek()
        if tok is None:
            wanted = expect_text or what or expect_kind or "more input"
            raise self.error_here(f"unexpected end of input, expected {wanted}")
        if expect_text is not None and tok.text != expect_text:
            raise tok.error(f"expected '{expect_text}', found '{tok.text}'")
        if expect_kind is not None and tok.kind != expect_kind:
            wanted = what or expect_kind
            raise tok.error(f"expected {wanted}, found '{tok.text}'")
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is `text`."""
        tok = self.peek()
        if tok is not None and tok.text == text:
            self.pos += 1
            return True
        return False

    def name(self, what: str) -> Token:
        """Read a word that is not a reserved word."""
        tok = self.next(expect_kind="word", what=what)
        if tok.text in RESERVED:
            raise tok.error(f"'{tok.text}' is a reserved word")
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def error_here(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            return ParseError(message, self.end_line, self.end_col)
        return tok.error(message)


# --- Statement parsing ---

# Deepest nesting of `parse_body` and `parse_unary` calls a statement may
# need.  At this bound the parser and every later recursive pass over the
# tree (validation, rendering, the tree walker, the compiler and its
# checks) need under 400 frames, well inside Python's default recursion
# limit of 1,000.
MAX_NESTING = 100


class _StatementParser:
    def __init__(self, cursor: _TokenCursor):
        self.cursor = cursor
        self.bound: list[str] = []
        self.depth = 0

    def parse_top(self) -> Statement:
        if self.cursor.accept("believes"):
            self.cursor.next(expect_text="(")
            body = self.parse_body()
            self.cursor.next(expect_text=")")
            return Believes(body)
        return self.parse_body()

    def descend(self) -> None:
        """Enter one more nesting level, refusing to pass MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise self.cursor.error_here("statement is nested too deeply")
        self.depth += 1

    def parse_body(self) -> Statement:
        self.descend()
        stmt = self.parse_or()
        if self.cursor.accept("implies"):
            stmt = Implies(stmt, self.parse_body())
        self.depth -= 1
        return stmt

    def parse_or(self) -> Statement:
        items = [self.parse_and()]
        while self.cursor.accept("or"):
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and(self) -> Statement:
        items = [self.parse_unary()]
        while self.cursor.accept("and"):
            items.append(self.parse_unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_unary(self) -> Statement:
        tok = self.cursor.peek()
        if tok is None:
            raise self.cursor.error_here("expected a statement")
        self.descend()
        if self.cursor.accept("not"):
            stmt = Not(self.parse_unary())
        elif tok.text in ("exists", "forall", "atleast"):
            stmt = self.parse_quantified(tok)
        else:
            stmt = self.parse_primary()
        self.depth -= 1
        return stmt

    def parse_quantified(self, tok: Token) -> Statement:
        self.cursor.next()
        count = None
        if tok.text == "atleast":
            nat = self.cursor.next(expect_kind="nat", what="a count")
            try:
                count = int(nat.text)
            except ValueError:  # longer than Python converts to an int
                raise nat.error("count has too many digits") from None
        var = self.cursor.name("a variable name").text
        self.cursor.next(expect_text=".")
        self.bound.append(var)
        body = self.parse_body()
        self.bound.pop()
        if count is not None:
            return AtLeast(count, var, body)
        return Exists(var, body) if tok.text == "exists" else ForAll(var, body)

    def parse_primary(self) -> Statement:
        tok = self.cursor.peek()  # not None: parse_unary checked
        if self.cursor.accept("("):
            body = self.parse_body()
            self.cursor.next(expect_text=")")
            return body
        if tok.text == "believes":
            raise tok.error("believes may only appear as the outermost node")
        if tok.kind != "word" or tok.text in RESERVED:
            raise tok.error(f"expected a predicate, found '{tok.text}'")
        self.cursor.next()
        self.cursor.next(expect_text="(")
        if self.cursor.accept("me"):
            term = ME
        else:
            name = self.cursor.name("a term").text
            term = Var(name) if name in self.bound else Person(name)
        value = None
        if self.cursor.accept(","):
            value = self.cursor.name("a value name").text
        self.cursor.next(expect_text=")")
        return Atom(tok.text, term, value)


def _parse_statement_tokens(cursor: _TokenCursor) -> Statement:
    stmt = _StatementParser(cursor).parse_top()
    if not cursor.at_end():
        raise cursor.error_here(
            f"unexpected '{cursor.peek().text}' after statement")
    return stmt


def parse_statement(text: str,
                    persons: Optional[Sequence[str]] = None,
                    fluents: Optional[Sequence[FluentDecl]] = None) -> Statement:
    """Parse a single statement.

    When `persons` or `fluents` are given the statement is also checked
    against those declarations, with the first person as the speaker of
    `me`.
    """
    stmt = _parse_statement_tokens(_tokenize(text))
    if persons is not None or fluents is not None:
        persons = tuple(persons or ())
        body, _ = peel_believes(stmt)
        _where("statement", compile_statement, body,
               persons[0] if persons else None, persons, tuple(fluents or ()))
    return stmt


# --- Puzzle files ---

class _FileParser:
    """The lines of a file that hold a token, read front to back."""

    def __init__(self, text: str):
        self.lines = [cur for cur in (_tokenize(line, number) for number, line
                                      in enumerate(text.split("\n"), start=1))
                      if cur.tokens]
        self.index = 0

    def peek_line(self) -> Optional[_TokenCursor]:
        return self.lines[self.index] if self.index < len(self.lines) else None

    def next_line(self) -> _TokenCursor:
        line = self.peek_line()
        if line is None:
            last = self.lines[-1].end_line if self.lines else 1
            raise ParseError("unexpected end of file", last, 1)
        self.index += 1
        return line


def _entries(fp: _FileParser, header: _TokenCursor, what: str,
             is_entry: Callable[[_TokenCursor], bool]
             ) -> Iterator[_TokenCursor]:
    """Read `header`'s ':', which must end its line, then yield each
    following line while `is_entry` holds for it."""
    header.next(expect_text=":")
    if not header.at_end():
        raise header.error_here(f"{what} begin on the following lines")
    while (line := fp.peek_line()) is not None and is_entry(line):
        fp.index += 1
        yield line


def _is_entry_line(line: _TokenCursor) -> bool:
    """A 'Name: ...' line that is not a new section header."""
    toks = line.tokens
    return (len(toks) >= 2 and toks[0].kind == "word"
            and toks[0].text not in FILE_KEYWORDS
            and toks[1].text == ":")


def parse_puzzle_file(text: str) -> PuzzleSpec:
    """Parse and fully validate a puzzle file."""
    fp = _FileParser(text)
    persons = _parse_persons_line(fp.next_line())
    fluents: list[FluentDecl] = []
    axioms: list[Statement] = []
    rounds: list = []
    extraction: Optional[ExtractionConfig] = None
    while (line := fp.peek_line()) is not None:
        keyword = fp.next_line().next()  # each reader starts past it
        if keyword.text == "fluent":
            fluents.append(_parse_fluent_line(line))
        elif keyword.text == "axiom":
            axioms.append(_parse_statement_tokens(line))
        elif keyword.text == "round":
            rounds.append(_parse_round(fp, line, persons))
        elif keyword.text == "extraction":
            if extraction is not None:
                raise ParseError("duplicate extraction section",
                                 line.end_line, 1)
            extraction = _parse_extraction(fp, line)
        else:
            raise keyword.error("expected 'fluent', 'axiom', 'round' or "
                                f"'extraction', found '{keyword.text}'")
    spec = PuzzleSpec(tuple(persons), tuple(fluents), tuple(axioms),
                      tuple(rounds), extraction)
    spec.validate()
    return spec


def _parse_persons_line(cur: _TokenCursor) -> list[str]:
    cur.next(expect_text="persons")
    cur.next(expect_text=":")
    names = _parse_name_list(cur)
    if not cur.at_end():
        raise cur.error_here("unexpected text after person list")
    return names


def _parse_name_list(cur: _TokenCursor) -> list[str]:
    names = []
    while not cur.at_end():
        names.append(cur.name("a name").text)
        if not cur.accept(","):
            break
    return names


def _parse_fluent_line(cur: _TokenCursor) -> FluentDecl:
    name_tok = cur.name("a fluent name")
    cur.next(expect_text=":")
    if cur.accept("bool"):
        domain = None
    else:
        cur.next(expect_text="{")
        domain = tuple(_parse_name_list(cur))
        cur.next(expect_text="}")
    if not cur.at_end():
        raise cur.error_here("unexpected text after fluent declaration")
    try:
        return FluentDecl(name_tok.text, domain)
    except ValueError as exc:
        raise name_tok.error(str(exc)) from None


def _parse_round(fp: _FileParser, cur: _TokenCursor, persons: list[str]):
    kind = cur.next(expect_kind="word", what="'statements' or 'question'")
    if kind.text == "statements":
        utterances = []
        for entry in _entries(fp, cur, "statements", _is_entry_line):
            speaker = entry.next().text
            entry.next()  # the ':' that _is_entry_line saw
            utterances.append((speaker, _parse_statement_tokens(entry)))
        if not utterances:
            raise ParseError("a statements round needs at least one speaker",
                             cur.end_line, 1)
        return StatementsRound(tuple(utterances))
    if kind.text == "question":
        label_tok = cur.next(expect_kind="string", what="a question label")
        cur.next(expect_text="to")
        if cur.accept("all"):
            addressed = list(persons)
        else:
            addressed = _parse_name_list(cur)
        cur.next(expect_text=":")
        statement = _parse_statement_tokens(cur)
        answers = _parse_answers_line(fp.next_line(), addressed)
        return QuestionRound(label_tok.text.strip('"'), statement,
                             tuple(addressed), answers)
    raise kind.error(
        f"expected 'statements' or 'question', found '{kind.text}'")


def _parse_answers_line(cur: _TokenCursor,
                        addressed: list[str]) -> tuple[Answer, ...]:
    cur.next(expect_text="answers")
    cur.next(expect_text=":")
    recorded: dict[str, Answer] = {}
    while not cur.at_end():
        name_tok = cur.next(expect_kind="word", what="a person name")
        cur.next(expect_text="=")
        value_tok = cur.next(expect_kind="word", what="yes or no")
        if value_tok.text not in ("yes", "no"):
            raise value_tok.error(
                f"expected yes or no, found '{value_tok.text}'")
        if name_tok.text in recorded:
            raise name_tok.error(f"duplicate answer for '{name_tok.text}'")
        if name_tok.text not in addressed:
            raise name_tok.error(
                f"answer recorded for unaddressed person '{name_tok.text}'")
        recorded[name_tok.text] = Answer(value_tok.text)
        if not cur.at_end():
            cur.next(expect_text=",")
    missing = [p for p in addressed if p not in recorded]
    if missing:
        raise ParseError(f"no answer recorded for '{missing[0]}'",
                         cur.end_line, 1)
    return tuple(recorded[p] for p in addressed)


def _parse_extraction(fp: _FileParser,
                      header: _TokenCursor) -> ExtractionConfig:
    categories: list[Category] = []
    for line in _entries(
            fp, header, "extraction entries",
            lambda line: line.tokens[0].text in ("category", "order")):
        if line.next().text == "category":
            name_tok = line.next(expect_kind="word", what="a category name")
            line.next(expect_text=":")
            values = _parse_name_list(line)
            if len(values) != 3:
                raise name_tok.error("a category lists exactly three values")
            try:
                categories.append(Category(name_tok.text, tuple(values)))
            except ExtractionError as exc:
                raise name_tok.error(str(exc)) from None
        else:
            line.next(expect_text=":")
            line.next(expect_text="alphabetical")  # the one person order
        if not line.at_end():
            raise line.error_here("unexpected text after extraction entry")
    try:
        return ExtractionConfig(tuple(categories))
    except ExtractionError as exc:
        raise ParseError(str(exc), header.end_line, 1) from None


# --- World files ---

def parse_world_file(text: str, puzzle: PuzzleSpec) -> World:
    """Parse a world file against a puzzle's declarations."""
    fp = _FileParser(text)
    header = fp.next_line()
    header.next(expect_text="world")
    decls = {decl.name: decl for decl in puzzle.fluent_decls}
    # person -> (name token, type, {fluent name: value}), in file order
    persons: dict[str, tuple[Token, object, dict[str, object]]] = {}
    for line in _entries(fp, header, "world entries", _is_entry_line):
        name_tok = line.next()
        person = name_tok.text
        if person not in puzzle.person_names:
            raise name_tok.error(f"unknown person '{person}'")
        if person in persons:
            raise name_tok.error(f"duplicate entry for '{person}'")
        line.next()  # the ':' that _is_entry_line saw
        label_tok = line.next(expect_kind="word", what="a type label")
        try:
            type_ = type_from_label(label_tok.text)
        except ValueError as exc:
            raise label_tok.error(str(exc)) from None
        values: dict[str, object] = {}
        while not line.at_end():
            line.next(expect_text=",")
            fluent_tok = line.next(expect_kind="word", what="a fluent name")
            line.next(expect_text="=")
            value_tok = line.next(expect_kind="word", what="a value")
            decl = decls.get(fluent_tok.text)
            if decl is None:
                raise fluent_tok.error(f"undeclared fluent '{fluent_tok.text}'")
            if decl.name in values:
                raise fluent_tok.error(f"duplicate value for '{decl.name}'")
            values[decl.name] = _fluent_value(decl, value_tok)
        persons[person] = (name_tok, type_, values)
    line = fp.peek_line()
    if line is not None:
        tok = line.tokens[0]
        raise tok.error(f"expected a person entry, found '{tok.text}'")
    missing = [p for p in puzzle.person_names if p not in persons]
    if missing:
        raise header.tokens[0].error(f"no entry for person '{missing[0]}'")
    for name_tok, _, values in persons.values():
        for decl in puzzle.fluent_decls:
            if decl.name not in values:
                raise name_tok.error(
                    f"no value of '{decl.name}' for '{name_tok.text}'")
    return World(
        puzzle.person_names,
        tuple(persons[p][1] for p in puzzle.person_names),
        puzzle.fluent_decls,
        tuple(tuple(persons[p][2][decl.name] for p in puzzle.person_names)
              for decl in puzzle.fluent_decls))


def _fluent_value(decl: FluentDecl, tok: Token):
    if decl.is_boolean:
        if tok.text not in ("yes", "no"):
            raise tok.error(f"boolean fluent '{decl.name}' takes yes or no")
        return tok.text == "yes"
    if tok.text not in decl.domain:
        raise tok.error(f"'{tok.text}' not in domain of '{decl.name}'")
    return tok.text
