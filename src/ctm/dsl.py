"""The `.ctm` model format: declarations, line reader, analysis, pretty-printer.

Line-oriented keyword grammar; `#` starts a comment.  Loading is linear in
the text.  A line reader takes the leading lines that each hold one
complete, well-formed statement with one regex match per line (and per
variable entry): substrates, attributes, counter and particle timers,
tasks, `law STATUS ATTR -> ATTR on SUBSTRATE` and variables.  From the
first line it does not accept to the end of the file, the token parser
(`ctm._tokens`, imported only then) reads the text, one regex match per
token with blanks and comments absorbed into the match, and fills the same
declaration tables.  Every diagnostic comes from the token parser, which
the reader agrees with on each line it accepts.  Step maps are written in
cycle notation and must mention every state exactly once, so a
well-formed step map is a bijection by construction.

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
from typing import Mapping, NamedTuple

from .core import (
    Attribute,
    ModelError,
    Substrate,
    Variable,
    cycle_decomposition,
    is_static,
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


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    line: int
    column: int
    message: str
    suggestion: str | None = None

    def __str__(self) -> str:
        tail = f" ({self.suggestion})" if self.suggestion else ""
        return f"{self.severity}:{self.line}:{self.column}: {self.message}{tail}"


# ---------------------------------------------------------------- declarations


def _span_free(cls):
    """Make a declaration record compare and hash by every field but its span, the last.

    A tuple subclass keeps tuple's ``__ne__`` and ``__hash__`` unless it
    overrides them, so all three are set.
    """

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self[:-1] == other[:-1]

    def __ne__(self, other: object) -> bool:
        return not __eq__(self, other)

    def __hash__(self) -> int:
        return hash(self[:-1])

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, __hash__
    return cls


@_span_free
class SubstrateDecl(NamedTuple):
    name: str
    states: tuple[str, ...]
    step: dict
    span: Span = (0, 0)


@_span_free
class AttributeDecl(NamedTuple):
    name: str
    substrate: str
    members: frozenset
    span: Span = (0, 0)


@_span_free
class CounterTimerDecl(NamedTuple):
    name: str
    bits: int
    threshold: int
    span: Span = (0, 0)


@_span_free
class ParticleTimerDecl(NamedTuple):
    name: str
    cells: int
    speed: int
    target: int
    span: Span = (0, 0)


@_span_free
class CustomTimerDecl(NamedTuple):
    name: str
    substrate: str
    start: str
    running: str
    done: str
    halt: str | None = None
    span: Span = (0, 0)


TimerDecl = CounterTimerDecl | ParticleTimerDecl | CustomTimerDecl


@_span_free
class TaskDecl(NamedTuple):
    name: str
    substrate: str
    input: str
    output: str
    span: Span = (0, 0)


@_span_free
class LawDecl(NamedTuple):
    status: str  # "possible" | "impossible"
    input: str | None = None
    output: str | None = None
    substrate: str | None = None
    task: str | None = None
    span: Span = (0, 0)

    def sort_key(self) -> tuple:
        return (
            self.task or "",
            self.substrate or "",
            self.input or "",
            self.output or "",
            self.status,
        )


@_span_free
class VariableDecl(NamedTuple):
    name: str
    substrate: str
    entries: dict  # int -> (attribute name, reading)
    span: Span = (0, 0)


class ModelDecl:
    """A parsed model: each kind's declarations by name, and the laws sorted by ``sort_key``."""

    __slots__ = ("substrates", "attributes", "timers", "tasks", "laws", "variables")

    def __init__(
        self,
        substrates: dict | None = None,
        attributes: dict | None = None,
        timers: dict | None = None,
        tasks: dict | None = None,
        laws: tuple = (),
        variables: dict | None = None,
    ) -> None:
        self.substrates = {} if substrates is None else substrates
        self.attributes = {} if attributes is None else attributes
        self.timers = {} if timers is None else timers
        self.tasks = {} if tasks is None else tasks
        self.laws = tuple(sorted(laws, key=LawDecl.sort_key))
        self.variables = {} if variables is None else variables

    def __eq__(self, other: object):
        if other.__class__ is not ModelDecl:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    __hash__ = None  # its tables are dicts


# -------------------------------------------------------------- parse tables

_KEYWORDS = ("substrate", "attribute", "timer", "task", "law", "variable")


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


def parse_model(text: str) -> tuple[ModelDecl | None, list[Diagnostic]]:
    """Parse `.ctm` text: the declaration (None on any error) and every diagnostic."""
    tables = _Tables()
    resume = _read_lines(text, tables)
    if resume is None:
        return tables.model(), []
    from ._tokens import _parse_tokens

    return _parse_tokens(text, *resume, tables)


# ------------------------------------------------------------------- analysis


class BuiltModel:
    """Engine objects resolved from a declaration; equality is object identity."""

    __slots__ = ("substrates", "attributes", "timers", "tasks", "laws", "trajectories")

    def __init__(
        self,
        substrates: Mapping[str, Substrate],
        attributes: Mapping[str, Attribute],
        timers: Mapping[str, TimerSpec],
        tasks: Mapping[str, Task],
        laws: LawSet,
        trajectories: Mapping[str, TrajectoryModel],
    ) -> None:
        self.substrates = substrates
        self.attributes = attributes
        self.timers = timers
        self.tasks = tasks
        self.laws = laws
        self.trajectories = trajectories


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
            substrates[d.name] = Substrate(d.name, d.states, d.step)
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
