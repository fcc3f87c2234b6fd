"""The `.ctm` model format: lexer, parser, analysis, pretty-printer.

Line-oriented keyword grammar; `#` starts a comment.  Loading is linear in
the text.  A line reader takes the leading lines that each hold one
complete, well-formed statement with one regex match per line (and per
variable entry): substrates, attributes, counter and particle timers,
tasks, `law STATUS ATTR -> ATTR on SUBSTRATE` and variables.  From the
first line it does not accept to the end of the file, the token parser
reads the text, one regex match per token with blanks and comments
absorbed into the match, and fills the same declaration tables.  Every
diagnostic comes from the token parser, which the reader agrees with on
each line it accepts.  Step maps are written in cycle notation and must
mention every state exactly once, so a well-formed step map is a
bijection by construction.

    substrate NAME { states L1 L2 ... ; step (L1 L2)(L3) }
    attribute NAME on SUBSTRATE { L1 L2 ... }
    timer counter NAME { bits INT ; threshold INT }
    timer particle NAME { cells INT ; speed INT ; target INT }
    timer custom NAME on SUBSTRATE { start ATTR ; running ATTR ; done ATTR [; halt ATTR] }
    task NAME on SUBSTRATE : ATTR -> ATTR
    law STATUS ATTR -> ATTR on SUBSTRATE
    law STATUS task NAME [on SUBSTRATE]
    variable NAME on SUBSTRATE { INT : ATTR @ NUMBER ; ... }

STATUS is `possible` / `impossible` (`✓` / `✗` accepted as aliases).
State labels are identifiers or integers, kept as written.  Parsing never
raises: every failure becomes a diagnostic with a line/column span, and
the parser resynchronizes at the next top-level keyword.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping

from .core import (
    Attribute,
    ModelError,
    Substrate,
    Variable,
    cycle_decomposition,
    is_static,
    make_substrate,
)
from .dynamics import TrajectoryModel
from .tasks import LawSet, Task, impossible, possible
from .timers import (
    TimerSpec,
    make_counter_timer,
    make_particle_timer,
    make_timer,
)

MAX_COUNTER_BITS = 12
MAX_PARTICLE_CELLS = 4096

Span = tuple[int, int]  # (line, column), 1-based


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int
    column: int
    message: str
    suggestion: str | None = None

    def __str__(self) -> str:
        tail = f" ({self.suggestion})" if self.suggestion else ""
        return f"{self.severity}:{self.line}:{self.column}: {self.message}{tail}"


# ---------------------------------------------------------------- declarations


@dataclass(frozen=True)
class SubstrateDecl:
    name: str
    states: tuple[str, ...]
    step: dict
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    substrate: str
    members: frozenset
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class CounterTimerDecl:
    name: str
    bits: int
    threshold: int
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ParticleTimerDecl:
    name: str
    cells: int
    speed: int
    target: int
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class CustomTimerDecl:
    name: str
    substrate: str
    start: str
    running: str
    done: str
    halt: str | None = None
    span: Span = field(default=(0, 0), compare=False)


TimerDecl = CounterTimerDecl | ParticleTimerDecl | CustomTimerDecl


@dataclass(frozen=True)
class TaskDecl:
    name: str
    substrate: str
    input: str
    output: str
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class LawDecl:
    status: str  # "possible" | "impossible"
    input: str | None = None
    output: str | None = None
    substrate: str | None = None
    task: str | None = None
    span: Span = field(default=(0, 0), compare=False)

    def sort_key(self) -> tuple:
        return (
            self.task or "",
            self.substrate or "",
            self.input or "",
            self.output or "",
            self.status,
        )


@dataclass(frozen=True)
class VariableDecl:
    name: str
    substrate: str
    entries: dict  # int -> (attribute name, reading)
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ModelDecl:
    substrates: dict = field(default_factory=dict)
    attributes: dict = field(default_factory=dict)
    timers: dict = field(default_factory=dict)
    tasks: dict = field(default_factory=dict)
    laws: tuple = ()
    variables: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "laws", tuple(sorted(self.laws, key=LawDecl.sort_key)))

    @property
    def empty(self) -> bool:
        return not (
            self.substrates or self.attributes or self.timers or self.tasks or self.laws or self.variables
        )


# ---------------------------------------------------------------------- lexer

# One match per token.  The prefix absorbs blanks and comments, so they cost
# no Python-level step; the final `bad` group catches any other character
# and the empty `\Z` branch ends the text after trailing blanks.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r]|\#[^\n]*)*
    (?:
      (?P<nl>\n)
    | (?P<arrow>->)
    | (?P<float>-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+)
    | (?P<int>-?\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<lbrace>\{)
    | (?P<rbrace>\})
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<semi>;)
    | (?P<colon>:)
    | (?P<at>@)
    | (?P<check>✓)
    | (?P<cross>✗)
    | (?P<bad>.)
    | \Z
    )
    """,
    re.VERBOSE,
)


# A token is an exact tuple (kind, text, line, column), with a 1-based
# (line, column) span.  The garbage collector stops tracking a tuple whose
# items are all str and int at its first collection, so a loaded file's tokens
# are not walked again by every later collection; a NamedTuple subclass would
# stay tracked, and its Python-level constructor costs a call per token.
_Token = tuple[str, str, int, int]


def _lex(text: str, start: int = 0, line: int = 1) -> tuple[list[_Token], list[Diagnostic]]:
    """Tokens `(kind, text, line, column)`, in one pass over `text` from `start`.

    `start` is the offset of the first character of line number `line`.
    """
    tokens: list[_Token] = []
    diags: list[Diagnostic] = []
    line_start = start  # offset of the current line's first character
    for m in _TOKEN_RE.finditer(text, start):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind == "bad":
            column = m.start(kind) - line_start + 1
            diags.append(Diagnostic("error", line, column, f"unexpected character {m[kind]!r}"))
        elif kind is not None:
            tokens.append((kind, m[kind], line, m.start(kind) - line_start + 1))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens, diags


# --------------------------------------------------------------------- parser

_KEYWORDS = ("substrate", "attribute", "timer", "task", "law", "variable")


class _Recover(Exception):
    pass


@dataclass
class ParseResult:
    model: ModelDecl | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.model is not None


class _Parser:
    def __init__(self, tokens: list[_Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None, suggestion: str | None = None):
        tok = tok or self.peek()
        self.diags.append(Diagnostic("error", tok[2], tok[3], message, suggestion))
        raise _Recover()

    # a token that matched an expected kind or word is not eof, so the methods
    # below step past it with `pos += 1` instead of `advance()`
    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok[0] != kind:
            self.fail(f"expected {what}, found {tok[1]!r}" if tok[1] else f"expected {what}")
        self.pos += 1
        return tok

    def expect_word(self, word: str) -> _Token:
        tok = self.peek()
        if tok[0] != "ident" or tok[1] != word:
            self.fail(f"expected {word!r}, found {tok[1]!r}" if tok[1] else f"expected {word!r}")
        self.pos += 1
        return tok

    def accept_word(self, word: str) -> bool:
        tok = self.peek()
        if tok[0] == "ident" and tok[1] == word:
            self.pos += 1
            return True
        return False

    def name(self, what: str) -> str:
        return self.expect("ident", what)[1]

    def labels(self, stop: str | None = None) -> list[str]:
        """The run of state labels (identifiers or integers) up to the word `stop`."""
        run = []
        while (tok := self.peek())[0] in ("ident", "int") and tok[1] != stop:
            run.append(tok[1])
            self.pos += 1
        return run

    def integer(self, what: str) -> int:
        return int(self.expect("int", what)[1])

    def number(self, what: str) -> float:
        tok = self.peek()
        if tok[0] not in ("int", "float"):
            self.fail(f"expected {what}, found {tok[1]!r}")
        value = float(tok[1])
        if not math.isfinite(value):
            self.fail(f"{what} must be finite, found {tok[1]!r}")
        self.pos += 1
        return value

    def sync(self) -> None:
        """Skip to the next top-level keyword (or EOF)."""
        depth = 0
        while True:
            tok = self.peek()
            if tok[0] == "eof":
                return
            if tok[0] == "lbrace":
                depth += 1
            elif tok[0] == "rbrace":
                depth = max(0, depth - 1)
            elif depth == 0 and tok[0] == "ident" and tok[1] in _KEYWORDS:
                return
            self.advance()

    # individual statements -------------------------------------------------

    def parse_substrate(self, span: Span) -> SubstrateDecl:
        name = self.name("substrate name")
        self.expect("lbrace", "'{'")
        self.expect_word("states")
        states = self.labels(stop="step")
        if not states:
            self.fail("substrate needs at least one state")
        self.expect("semi", "';'")
        self.expect_word("step")
        step: dict = {}
        cycle_tok = self.peek()
        while self.peek()[0] == "lparen":
            self.advance()
            cyc = self.labels()
            self.expect("rparen", "')'")
            for i, lab in enumerate(cyc):
                if lab in step:
                    self.fail(f"state {lab!r} appears twice in the step map", cycle_tok)
                step[lab] = cyc[(i + 1) % len(cyc)]
        if not step:
            self.fail("step map needs at least one cycle, e.g. (a b c)")
        missing = [s for s in states if s not in step]
        if missing:
            self.fail(
                f"step map is not a bijection: state {missing[0]!r} unmapped",
                cycle_tok,
                suggestion=f"add ({missing[0]}) for a fixed point",
            )
        labels = set(states)
        stray = [s for s in step if s not in labels]
        if stray:
            self.fail(f"step map mentions unknown state {stray[0]!r}", cycle_tok)
        self.expect("rbrace", "'}'")
        return SubstrateDecl(name, tuple(states), step, span)

    def parse_attribute(self, span: Span) -> AttributeDecl:
        name = self.name("attribute name")
        self.expect_word("on")
        substrate = self.name("substrate name")
        self.expect("lbrace", "'{'")
        members = self.labels()
        self.expect("rbrace", "'}'")
        return AttributeDecl(name, substrate, frozenset(members), span)

    def parse_timer(self, span: Span) -> TimerDecl:
        kind_tok = self.peek()
        if self.accept_word("counter"):
            name = self.name("timer name")
            self.expect("lbrace", "'{'")
            self.expect_word("bits")
            bits = self.integer("bit count")
            self.expect("semi", "';'")
            self.expect_word("threshold")
            threshold = self.integer("threshold")
            self.expect("rbrace", "'}'")
            return CounterTimerDecl(name, bits, threshold, span)
        if self.accept_word("particle"):
            name = self.name("timer name")
            self.expect("lbrace", "'{'")
            self.expect_word("cells")
            cells = self.integer("cell count")
            self.expect("semi", "';'")
            self.expect_word("speed")
            speed = self.integer("speed")
            self.expect("semi", "';'")
            self.expect_word("target")
            target = self.integer("target cell")
            self.expect("rbrace", "'}'")
            return ParticleTimerDecl(name, cells, speed, target, span)
        if self.accept_word("custom"):
            name = self.name("timer name")
            self.expect_word("on")
            substrate = self.name("substrate name")
            self.expect("lbrace", "'{'")
            self.expect_word("start")
            start = self.name("attribute name")
            self.expect("semi", "';'")
            self.expect_word("running")
            running = self.name("attribute name")
            self.expect("semi", "';'")
            self.expect_word("done")
            done = self.name("attribute name")
            halt = None
            if self.peek()[0] == "semi":
                self.advance()
                self.expect_word("halt")
                halt = self.name("attribute name")
            self.expect("rbrace", "'}'")
            return CustomTimerDecl(name, substrate, start, running, done, halt, span)
        self.fail("expected timer kind 'counter', 'particle' or 'custom'", kind_tok)
        raise AssertionError

    def parse_task(self, span: Span) -> TaskDecl:
        name = self.name("task name")
        self.expect_word("on")
        substrate = self.name("substrate name")
        self.expect("colon", "':'")
        inp = self.name("input attribute")
        self.expect("arrow", "'->'")
        out = self.name("output attribute")
        return TaskDecl(name, substrate, inp, out, span)

    def parse_law(self, span: Span) -> LawDecl:
        tok = self.peek()
        if tok[0] == "check":
            status = "possible"
            self.advance()
        elif tok[0] == "cross":
            status = "impossible"
            self.advance()
        elif tok[0] == "ident" and tok[1] in ("possible", "impossible"):
            status = self.advance()[1]
        else:
            self.fail("expected law status: 'possible', 'impossible', '✓' or '✗'", tok)
            raise AssertionError
        if self.accept_word("task"):
            task = self.name("task name")
            substrate = None
            if self.accept_word("on"):
                substrate = self.name("substrate name")
            return LawDecl(status, task=task, substrate=substrate, span=span)
        inp = self.name("input attribute")
        self.expect("arrow", "'->'")
        out = self.name("output attribute")
        self.expect_word("on")
        substrate = self.name("substrate name")
        return LawDecl(status, input=inp, output=out, substrate=substrate, span=span)

    def parse_variable(self, span: Span) -> VariableDecl:
        name = self.name("variable name")
        self.expect_word("on")
        substrate = self.name("substrate name")
        self.expect("lbrace", "'{'")
        entries: dict = {}
        while self.peek()[0] == "int":
            lam_tok = self.peek()
            lam = self.integer("parameter value")
            self.expect("colon", "':'")
            attr = self.name("attribute name")
            self.expect("at", "'@'")
            reading = self.number("a numeric reading")
            if lam in entries:
                self.fail(f"duplicate parameter value {lam}", lam_tok)
            entries[lam] = (attr, reading)
            if self.peek()[0] == "semi":
                self.advance()
            else:
                break
        self.expect("rbrace", "'}'")
        return VariableDecl(name, substrate, entries, span)

    # top level --------------------------------------------------------------

    def parse(self, tables: _Tables) -> ModelDecl | None:
        """Parse to the end of the tokens, adding each declaration to `tables`."""
        while self.peek()[0] != "eof":
            tok = self.peek()
            try:
                if tok[0] != "ident" or tok[1] not in _KEYWORDS:
                    self.fail(
                        f"expected a declaration keyword, found {tok[1]!r}",
                        tok,
                        suggestion="one of: " + ", ".join(_KEYWORDS),
                    )
                span = (tok[2], tok[3])
                keyword = self.advance()[1]
                decl = getattr(self, "parse_" + keyword)(span)
                if not tables.add(keyword, decl):
                    self.diags.append(
                        Diagnostic("error", *span, f"duplicate {keyword} name {decl.name!r}")
                    )
            except _Recover:
                self.sync()
        if any(d.severity == "error" for d in self.diags):
            return None
        return tables.model()


class _Tables:
    """The declarations read so far, by keyword and in file order."""

    def __init__(self) -> None:
        self.named: dict[str, dict] = {keyword: {} for keyword in _KEYWORDS if keyword != "law"}
        self.laws: list[LawDecl] = []

    def add(self, keyword: str, decl) -> bool:
        """Add a declaration; False, adding nothing, when its kind already has its name."""
        if keyword == "law":
            self.laws.append(decl)
            return True
        table = self.named[keyword]
        if decl.name in table:
            return False
        table[decl.name] = decl
        return True

    def model(self) -> ModelDecl:
        named = self.named
        return ModelDecl(
            named["substrate"],
            named["attribute"],
            named["timer"],
            named["task"],
            tuple(self.laws),
            named["variable"],
        )


def _parse_tokens(
    text: str, start: int = 0, line: int = 1, tables: _Tables | None = None
) -> ParseResult:
    """The token parser from offset `start`, the first character of line `line`, to the end.

    Over the whole text with no tables it is the parse that the line reader
    must agree with, and the tests keep it as that oracle.
    """
    tokens, diags = _lex(text, start, line)
    model = _Parser(tokens, diags).parse(_Tables() if tables is None else tables)
    return ParseResult(model, diags)


# ---------------------------------------------------------------- line reader

# The line reader builds the declarations of a file's leading lines that
# each hold one complete, well-formed statement, with one regex match per
# line and per variable entry.  Its patterns accept a subset of what the
# token parser accepts, and each token they match ends where the lexer ends
# it: a name or label at a blank or a delimiter, a number at a blank, ';' or
# '}'.  A statement it accepts cannot continue onto the next line.  At the
# first line it does not accept, or whose statement would draw a diagnostic,
# the token parser takes over to the end of the file, so every diagnostic
# comes from the token parser.

_B = r"[ \t\r]*"  # optional blanks
_BB = r"[ \t\r]+"  # required blanks
_NAME = r"([A-Za-z_][A-Za-z0-9_]*)"
_INT = r"(-?[0-9]+)"
_NUMBER = r"(-?[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?|-?[0-9]+[eE][+-]?[0-9]+|-?[0-9]+)"
_END = _B + r"(?:\#.*)?"  # blanks, then a comment to the end of the line


def _labels(close: str) -> str:
    """A run of labels, each ending at a blank or at the `close` after the run.

    Each label takes the blanks after it, so no two blank runs meet and a
    line that fails to match fails in linear time.
    """
    return r"(?:(?:[A-Za-z_][A-Za-z0-9_]*|-?[0-9]+)(?![^ \t\r" + close + "])" + _B + ")*"


# a blank or comment line, or the keyword that opens a statement
_HEAD_RE = re.compile(_B + r"(?:(?:\#.*)?\Z|(" + "|".join(_KEYWORDS) + ")" + _BB + ")")
# each statement pattern matches the rest of its line after the keyword
_SUBSTRATE_RE = re.compile(
    _NAME + _B + r"\{" + _B + "states" + _BB + "(" + _labels(";") + ");" + _B + "step"
    + "((?:" + _B + r"\(" + _B + _labels(")") + r"\))*)" + _B + r"\}" + _END
)
_CYCLE_RE = re.compile(r"\(([^)]*)\)")
_ATTRIBUTE_RE = re.compile(
    _NAME + _BB + "on" + _BB + _NAME + _B + r"\{" + _B + "(" + _labels("}") + r")\}" + _END
)
_TIMER_RE = re.compile(
    "(?:counter" + _BB + _NAME + _B + r"\{" + _B + "bits" + _BB + _INT + _B + ";"
    + _B + "threshold" + _BB + _INT
    + "|particle" + _BB + _NAME + _B + r"\{" + _B + "cells" + _BB + _INT + _B + ";"
    + _B + "speed" + _BB + _INT + _B + ";" + _B + "target" + _BB + _INT
    + ")" + _B + r"\}" + _END
)
_TASK_RE = re.compile(
    _NAME + _BB + "on" + _BB + _NAME + _B + ":" + _B + _NAME + _B + "->" + _B + _NAME + _END
)
_LAW_RE = re.compile(
    "(possible|impossible|✓|✗)" + _BB + _NAME + _B + "->" + _B + _NAME + _BB + "on" + _BB
    + _NAME + _END
)
_VARIABLE_RE = re.compile(_NAME + _BB + "on" + _BB + _NAME + _B + r"\{")
_ENTRY_RE = re.compile(_B + _INT + _B + ":" + _B + _NAME + _B + "@" + _B + _NUMBER + _B + "(;?)")
_CLOSE_RE = re.compile(_B + r"\}" + _END)
_STATUS = {"possible": "possible", "✓": "possible", "impossible": "impossible", "✗": "impossible"}


def _read_substrate(line: str, pos: int, span: Span) -> SubstrateDecl | None:
    m = _SUBSTRATE_RE.fullmatch(line, pos)
    if m is None:
        return None
    states = m[2].split()
    if not states or "step" in states:  # the token parser ends the states at 'step'
        return None
    step: dict = {}
    mentioned = 0
    for run in _CYCLE_RE.findall(m[3]):
        cycle = run.split()
        step.update(zip(cycle, cycle[1:] + cycle[:1]))
        mentioned += len(cycle)
    # the step map must mention each state once and nothing else
    if mentioned != len(step) or step.keys() != set(states):
        return None
    return SubstrateDecl(m[1], tuple(states), step, span)


def _read_attribute(line: str, pos: int, span: Span) -> AttributeDecl | None:
    m = _ATTRIBUTE_RE.fullmatch(line, pos)
    return None if m is None else AttributeDecl(m[1], m[2], frozenset(m[3].split()), span)


def _read_timer(line: str, pos: int, span: Span) -> TimerDecl | None:
    m = _TIMER_RE.fullmatch(line, pos)
    if m is None:
        return None
    if m[1] is not None:
        return CounterTimerDecl(m[1], int(m[2]), int(m[3]), span)
    return ParticleTimerDecl(m[4], int(m[5]), int(m[6]), int(m[7]), span)


def _read_task(line: str, pos: int, span: Span) -> TaskDecl | None:
    m = _TASK_RE.fullmatch(line, pos)
    return None if m is None else TaskDecl(m[1], m[2], m[3], m[4], span)


def _read_law(line: str, pos: int, span: Span) -> LawDecl | None:
    m = _LAW_RE.fullmatch(line, pos)
    if m is None or m[2] == "task":  # the token parser reads 'task' here as the task form
        return None
    return LawDecl(_STATUS[m[1]], input=m[2], output=m[3], substrate=m[4], span=span)


def _read_variable(line: str, pos: int, span: Span) -> VariableDecl | None:
    m = _VARIABLE_RE.match(line, pos)
    if m is None:
        return None
    entries: dict = {}
    at = m.end()
    # one match per entry, each from where the last one ended: one pattern
    # repeating over all the entries would grow the regex engine's stack
    while (e := _ENTRY_RE.match(line, at)) is not None:
        lam, attr, number, semi = e.groups()
        lam = int(lam)
        reading = float(number)
        if lam in entries or not math.isfinite(reading):
            return None
        entries[lam] = (attr, reading)
        at = e.end()
        if not semi:
            break
    if _CLOSE_RE.fullmatch(line, at) is None:
        return None
    return VariableDecl(m[1], m[2], entries, span)


_READERS = {
    "substrate": _read_substrate,
    "attribute": _read_attribute,
    "timer": _read_timer,
    "task": _read_task,
    "law": _read_law,
    "variable": _read_variable,
}


def _read_lines(text: str, tables: _Tables) -> tuple[int, int] | None:
    """Add to `tables` the declarations of the leading lines that the line reader accepts.

    Returns the offset and the number of the first line it does not
    accept, or None when it accepts them all.
    """
    offset = 0
    for number, line in enumerate(text.split("\n"), 1):
        head = _HEAD_RE.match(line)
        if head is None:
            return offset, number
        keyword = head[1]
        if keyword is not None:
            decl = _READERS[keyword](line, head.end(), (number, head.start(1) + 1))
            if decl is None or not tables.add(keyword, decl):
                return offset, number
        offset += len(line) + 1
    return None


def parse_model(text: str) -> ParseResult:
    """Parse `.ctm` text; on any error the model is None and diagnostics tell why."""
    tables = _Tables()
    resume = _read_lines(text, tables)
    if resume is None:
        return ParseResult(tables.model(), [])
    return _parse_tokens(text, *resume, tables)


# ------------------------------------------------------------------- analysis


@dataclass(frozen=True, eq=False)
class BuiltModel:
    """Engine objects resolved from a declaration."""

    substrates: Mapping[str, Substrate]
    attributes: Mapping[str, Attribute]
    timers: Mapping[str, TimerSpec]
    tasks: Mapping[str, Task]
    laws: LawSet
    trajectories: Mapping[str, TrajectoryModel]


def analyze_model(decl: ModelDecl) -> tuple[BuiltModel | None, list[Diagnostic]]:
    """Resolve a declaration once: the built model (None on any error) and every diagnostic."""
    diags: list[Diagnostic] = []

    def err(span: Span, message: str, suggestion: str | None = None) -> None:
        diags.append(Diagnostic("error", span[0], span[1], message, suggestion))

    def warn(span: Span, message: str) -> None:
        diags.append(Diagnostic("warning", span[0], span[1], message))

    substrates: dict[str, Substrate] = {}
    for d in decl.substrates.values():
        try:
            substrates[d.name] = make_substrate(d.name, d.states, d.step)
        except ModelError as e:
            err(d.span, str(e))

    attributes: dict[str, Attribute] = {}
    for d in decl.attributes.values():
        sub = substrates.get(d.substrate)
        if sub is None:
            err(d.span, f"attribute {d.name!r}: unknown substrate {d.substrate!r}")
            continue
        try:
            attributes[d.name] = Attribute(sub, d.members, name=d.name)
        except ModelError as e:
            err(d.span, str(e))

    timers: dict[str, TimerSpec] = {}
    for d in decl.timers.values():
        try:
            if isinstance(d, CounterTimerDecl):
                if not 1 <= d.bits <= MAX_COUNTER_BITS:
                    raise ModelError(f"bits must be in 1..{MAX_COUNTER_BITS}")
                spec = make_counter_timer(d.bits, d.threshold, name=d.name)
            elif isinstance(d, ParticleTimerDecl):
                if not 2 <= d.cells <= MAX_PARTICLE_CELLS:
                    raise ModelError(f"cells must be in 2..{MAX_PARTICLE_CELLS}")
                spec = make_particle_timer(d.cells, d.speed, d.target, name=d.name)
            else:
                sub = substrates.get(d.substrate)
                if sub is None:
                    raise ModelError(f"unknown substrate {d.substrate!r}")
                parts = {}
                for role, attr_name in (
                    ("start", d.start),
                    ("running", d.running),
                    ("done", d.done),
                    ("halt", d.halt or d.done),
                ):
                    attr = attributes.get(attr_name)
                    if attr is None:
                        raise ModelError(f"unknown attribute {attr_name!r} for {role!r}")
                    if attr.substrate is not sub:
                        raise ModelError(
                            f"attribute {attr_name!r} is not on substrate {d.substrate!r}"
                        )
                    parts[role] = attr
                spec = make_timer(
                    d.name, sub, parts["start"], parts["running"], parts["done"], parts["halt"]
                )
            for w in spec.warnings:
                warn(d.span, f"timer {d.name!r}: {w}")
            timers[d.name] = spec
        except ModelError as e:
            err(d.span, str(e))

    def resolve_pair(span: Span, in_name: str, out_name: str, sub_name: str) -> Task | None:
        sub = substrates.get(sub_name)
        if sub is None:
            err(span, f"unknown substrate {sub_name!r}")
            return None
        pair = []
        for attr_name in (in_name, out_name):
            attr = attributes.get(attr_name)
            if attr is None:
                err(span, f"unknown attribute {attr_name!r}")
                return None
            if attr.substrate is not sub:
                err(span, f"attribute {attr_name!r} is not on substrate {sub_name!r}")
                return None
            pair.append(attr)
        return Task(pair[0], pair[1])

    tasks: dict[str, Task] = {}
    for d in decl.tasks.values():
        t = resolve_pair(d.span, d.input, d.output, d.substrate)
        if t is not None:
            tasks[d.name] = t

    statements = []
    for d in decl.laws:
        if d.task is not None:
            t = tasks.get(d.task)
            if t is None:
                err(d.span, f"unknown task {d.task!r}")
                continue
            if d.substrate is not None and t.substrate.id != d.substrate:
                err(d.span, f"task {d.task!r} is not on substrate {d.substrate!r}")
                continue
        else:
            t = resolve_pair(d.span, d.input, d.output, d.substrate)
            if t is None:
                continue
        statements.append(possible(t) if d.status == "possible" else impossible(t))
    laws = LawSet.of(*statements)

    trajectories: dict[str, TrajectoryModel] = {}
    for d in decl.variables.values():
        sub = substrates.get(d.substrate)
        if sub is None:
            err(d.span, f"variable {d.name!r}: unknown substrate {d.substrate!r}")
            continue
        entries = {}
        readings = {}
        bad = False
        for lam, (attr_name, reading) in d.entries.items():
            attr = attributes.get(attr_name)
            if attr is None:
                err(d.span, f"variable {d.name!r}: unknown attribute {attr_name!r}")
                bad = True
                break
            if attr.substrate is not sub:
                err(d.span, f"variable {d.name!r}: attribute {attr_name!r} is on another substrate")
                bad = True
                break
            entries[lam] = attr
            readings[lam] = reading
        if bad:
            continue
        try:
            variable = Variable(sub, entries)
        except ModelError as e:
            err(d.span, f"variable {d.name!r}: {e}")
            continue
        for lam in variable.domain:
            if is_static(variable.entries[lam]):
                warn(d.span, f"variable {d.name!r}: attribute at λ={lam} is static")
        trajectories[d.name] = TrajectoryModel(variable, readings)

    if any(x.severity == "error" for x in diags):
        return None, diags
    return BuiltModel(substrates, attributes, timers, tasks, laws, trajectories), diags


def build_model(decl: ModelDecl) -> BuiltModel:
    """Resolve a declaration to engine objects, raising on any error diagnostic."""
    model, diags = analyze_model(decl)
    if model is None:
        first = next(d for d in diags if d.severity == "error")
        raise ModelError(str(first))
    return model


# -------------------------------------------------------------- pretty-printer


def _fmt_number(x: float) -> str:
    return repr(float(x))


def pretty_print(decl: ModelDecl) -> str:
    """Canonical text for a declaration; parse(pretty_print(d)) equals d."""
    lines: list[str] = []
    for name in sorted(decl.substrates):
        d = decl.substrates[name]
        cycles = "".join("(" + " ".join(c) + ")" for c in cycle_decomposition(d.states, d.step))
        lines.append(f"substrate {d.name} {{ states {' '.join(d.states)} ; step {cycles} }}")
    for name in sorted(decl.attributes):
        d = decl.attributes[name]
        members = " ".join(sorted(d.members))
        body = f"{{ {members} }}" if members else "{ }"
        lines.append(f"attribute {d.name} on {d.substrate} {body}")
    for name in sorted(decl.timers):
        d = decl.timers[name]
        if isinstance(d, CounterTimerDecl):
            lines.append(f"timer counter {d.name} {{ bits {d.bits} ; threshold {d.threshold} }}")
        elif isinstance(d, ParticleTimerDecl):
            lines.append(
                f"timer particle {d.name} {{ cells {d.cells} ; speed {d.speed} ; "
                f"target {d.target} }}"
            )
        else:
            halt = f" ; halt {d.halt}" if d.halt is not None else ""
            lines.append(
                f"timer custom {d.name} on {d.substrate} {{ start {d.start} ; "
                f"running {d.running} ; done {d.done}{halt} }}"
            )
    for name in sorted(decl.tasks):
        d = decl.tasks[name]
        lines.append(f"task {d.name} on {d.substrate} : {d.input} -> {d.output}")
    for d in decl.laws:
        if d.task is not None:
            where = f" on {d.substrate}" if d.substrate else ""
            lines.append(f"law {d.status} task {d.task}{where}")
        else:
            lines.append(f"law {d.status} {d.input} -> {d.output} on {d.substrate}")
    for name in sorted(decl.variables):
        d = decl.variables[name]
        entries = " ; ".join(
            f"{lam} : {attr} @ {_fmt_number(reading)}"
            for lam, (attr, reading) in sorted(d.entries.items())
        )
        lines.append(f"variable {d.name} on {d.substrate} {{ {entries} }}")
    return "\n".join(lines) + ("\n" if lines else "")
