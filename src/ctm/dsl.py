"""The `.ctm` model format: lexer, parser, analysis, pretty-printer.

Line-oriented keyword grammar; `#` starts a comment.  The lexer makes a
single pass over the text: one regex match per token, with blanks and
comments absorbed into the match.  Step maps are written in cycle
notation and must mention every state exactly once, so a well-formed
step map is a bijection by construction.

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


def _lex(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    """Tokens `(kind, text, line, column)`, in one pass over `text`."""
    tokens: list[_Token] = []
    diags: list[Diagnostic] = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    for m in _TOKEN_RE.finditer(text):
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

    def parse(self) -> ModelDecl | None:
        substrates: dict = {}
        attributes: dict = {}
        timers: dict = {}
        tasks: dict = {}
        laws: list[LawDecl] = []
        variables: dict = {}

        def store(table: dict, decl, what: str) -> None:
            if decl.name in table:
                self.diags.append(
                    Diagnostic(
                        "error",
                        decl.span[0],
                        decl.span[1],
                        f"duplicate {what} name {decl.name!r}",
                    )
                )
            else:
                table[decl.name] = decl

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
                if keyword == "substrate":
                    store(substrates, self.parse_substrate(span), "substrate")
                elif keyword == "attribute":
                    store(attributes, self.parse_attribute(span), "attribute")
                elif keyword == "timer":
                    store(timers, self.parse_timer(span), "timer")
                elif keyword == "task":
                    store(tasks, self.parse_task(span), "task")
                elif keyword == "law":
                    laws.append(self.parse_law(span))
                else:
                    store(variables, self.parse_variable(span), "variable")
            except _Recover:
                self.sync()
        if any(d.severity == "error" for d in self.diags):
            return None
        return ModelDecl(substrates, attributes, timers, tasks, tuple(laws), variables)


def parse_model(text: str) -> ParseResult:
    """Parse `.ctm` text; on any error the model is None and diagnostics tell why."""
    tokens, diags = _lex(text)
    parser = _Parser(tokens, diags)
    return ParseResult(parser.parse(), diags)


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
            variable = Variable(sub, entries, allow_static=True)
        except ModelError as e:
            err(d.span, f"variable {d.name!r}: {e}")
            continue
        for lam in variable.domain:
            if is_static(variable.entries[lam]):
                warn(d.span, f"variable {d.name!r}: attribute at λ={lam} is static")
        trajectories[d.name] = TrajectoryModel(variable, readings, name=d.name)

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
