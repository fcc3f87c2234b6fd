"""The `.ctm` model format: declarations, grammar, line reader, analysis, pretty-printer.

Line-oriented keyword grammar; `#` starts a comment.  Loading is linear in
the text.  Each statement form is written once, in the table `_FORMS`, as
the parts that follow its keyword, and two readers read the table.  The
line reader matches each line that holds one complete, well-formed
statement with one regex built from its form.  A line it does not accept
goes to the token parser (`ctm._tokens`, imported only then), which walks
the same parts over tokens, makes every diagnostic, and stops at the next
statement that starts a line.  `parse_model` alternates the two readers
until the text ends, so a typo costs only its own statement.  Both fill
the same declaration tables, and the checks a form makes, such as the
step map's, are functions both call.  Step maps are written in cycle
notation and must mention every state exactly once, so a well-formed step
map is a bijection by construction.

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
from functools import cache
from operator import attrgetter, itemgetter
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
from .tasks import LawSet, LawStatement, Task, impossible, possible
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
        # ModelDecl takes its tables in the order of the keywords
        return ModelDecl(*(tuple(self.laws) if k == "law" else self.named[k] for k in _KEYWORDS))


# -------------------------------------------------------------------- grammar

# Each statement form is written once, as the parts that follow its keyword,
# and both readers read it from this table: the line reader matches a regex
# built from the parts, and the token parser (`ctm._tokens`) walks them.
# A part is
#   a str               that word or punctuation, exactly ('on', '{', '->', ...)
#   ("name", what)      an identifier; `what` names it in a diagnostic
#   ("integer", what)   an integer
#   ("number", what)    a finite number, integer or float
#   ("status", None)    possible, impossible, ✓ or ✗
#   ("labels", stop)    a run of state labels, identifiers or integers, up to the word `stop`
#   ("cycles", item)    the step map: a run of cycles, no state in two
#   ("entries", item)   the variable's entries, separated by ';', no parameter value twice
#   ("optional", parts) the parts, when the first of them comes next, or nothing
#   ("check", fn)       fn(*values): a (message, suggestion) that rejects the statement, or None
# Each part but a str or a check reads one value, and a form makes its
# declaration with `make(values, span)`.  The forms of one keyword first
# differ at one part: a str there picks its form, and a form with a value
# part there is the default.


def _some_states(name: str, states: list, *_) -> tuple[str, None] | None:
    return None if states else ("substrate needs at least one state", None)


def _bijective(name: str, states: list, step: dict, *_) -> tuple[str, str | None] | None:
    """Rejects a step map that leaves a state unmapped or maps a state the substrate lacks.

    The cycles mention no state twice, so a step map that passes is a bijection.
    """
    labels = set(states)
    if step.keys() == labels:
        return None
    for s in states:
        if s not in step:
            unmapped = f"step map is not a bijection: state {s!r} unmapped"
            return unmapped, f"add ({s}) for a fixed point"
    stray = next(s for s in step if s not in labels)
    return f"step map mentions unknown state {stray!r}", None


def _add_cycle(step: dict, cycle: list) -> str | None:
    """Add a cycle's steps to `step`, or return its first state already mapped or repeated."""
    if len(set(cycle)) == len(cycle) and step.keys().isdisjoint(cycle):
        step.update(zip(cycle, cycle[1:] + cycle[:1]))
        return None
    seen = set(step)
    for label in cycle:
        if label in seen:
            return label
        seen.add(label)


_STATUS = {"possible": "possible", "✓": "possible", "impossible": "impossible", "✗": "impossible"}
_SUBSTRATE = ("name", "substrate name")
_ATTRIBUTE = ("name", "attribute name")
_TIMER = ("name", "timer name")
_ARROW = (("name", "input attribute"), "->", ("name", "output attribute"))
_CYCLE = ("(", ("labels", None), ")")
_ENTRY = (("integer", "parameter value"), ":", _ATTRIBUTE, "@", ("number", "a numeric reading"))

_new = tuple.__new__  # a declaration from the tuple of its fields, in C


def _record(cls):
    """The make of a form whose values are the fields of its declaration, in order."""
    return lambda values, span: _new(cls, (*values, span))


_FORMS = {
    "substrate": [
        (
            lambda v, span: _new(SubstrateDecl, (v[0], tuple(v[1]), v[2], span)),
            (("name", "substrate name"), "{", "states", ("labels", "step"), ("check", _some_states),
             ";", "step", ("cycles", _CYCLE), ("check", _bijective), "}"),
        )
    ],
    "attribute": [
        (
            lambda v, span: _new(AttributeDecl, (v[0], v[1], frozenset(v[2]), span)),
            (_ATTRIBUTE, "on", _SUBSTRATE, "{", ("labels", None), "}"),
        )
    ],
    "timer": [
        (_record(CounterTimerDecl), ("counter", _TIMER, "{", "bits", ("integer", "bit count"), ";",
                                     "threshold", ("integer", "threshold"), "}")),
        (_record(ParticleTimerDecl), ("particle", _TIMER, "{", "cells", ("integer", "cell count"),
                                      ";", "speed", ("integer", "speed"), ";",
                                      "target", ("integer", "target cell"), "}")),
        (_record(CustomTimerDecl), ("custom", _TIMER, "on", _SUBSTRATE, "{", "start", _ATTRIBUTE,
                                    ";", "running", _ATTRIBUTE, ";", "done", _ATTRIBUTE,
                                    ("optional", (";", "halt", _ATTRIBUTE)), "}")),
    ],
    "task": [(_record(TaskDecl), (("name", "task name"), "on", _SUBSTRATE, ":", *_ARROW))],
    "law": [
        (
            # status, input, output, substrate
            lambda v, span: _new(LawDecl, (_STATUS[v[0]], v[1], v[2], v[3], None, span)),
            (("status", None), *_ARROW, "on", _SUBSTRATE),
        ),
        (
            # status, task, substrate
            lambda v, span: _new(LawDecl, (_STATUS[v[0]], None, None, v[2], v[1], span)),
            (("status", None), "task", ("name", "task name"), ("optional", ("on", _SUBSTRATE))),
        ),
    ],
    "variable": [
        (_record(VariableDecl), (("name", "variable name"), "on", _SUBSTRATE, "{",
                                 ("entries", _ENTRY), "}"))
    ],
}
# where the forms of each keyword first differ (0 for a single form)
_BRANCH = {
    keyword: next((i for i, ps in enumerate(zip(*(p for _, p in forms))) if len(set(ps)) > 1), 0)
    for keyword, forms in _FORMS.items()
}


# ---------------------------------------------------------------- line reader

# The line reader builds the declarations of the lines that each hold one
# complete, well-formed statement, with one regex match per line.  Each
# form's pattern spans the whole line, its keyword and leading blanks too,
# and accepts a subset of what the token parser accepts; each token it
# matches ends where the lexer ends it: a name or label at a blank or a
# delimiter, a number at a blank, ';' or '}'.  A statement it accepts cannot
# continue onto the next line.  A line it does not accept, or whose
# statement would draw a diagnostic, goes to the token parser, which hands
# the lines back at the next statement that starts a line.

_B = r"[ \t\r]*"  # optional blanks
_BB = r"[ \t\r]+"  # required blanks
_END = _B + r"(?:\#.*)?"  # blanks, then a comment to the end of the line
# the text of a name, an integer and a float, for the lexer too; a digit is a decimal digit
# of any script, as `int` and `float` read it
_NAME_CHAR = "[A-Za-z0-9_]"  # a character that continues a name
_NAME = "[A-Za-z_]" + _NAME_CHAR + "*"
_INT = r"-?\d+"
_FLOAT = r"-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+"
# a blank or comment line, or the keyword that opens a statement
_HEAD_RE = re.compile(_B + r"(?:(?:\#.*)?\Z|(" + "|".join(_KEYWORDS) + ")" + _BB + ")")
_CYCLE_RE = re.compile(r"\(([^)]*)\)")


def _labels(close: str, stop: str | None) -> str:
    """A run of labels other than `stop`, each ending at a blank or at the `close` after the run.

    Each label takes the blanks after it, so no two blank runs meet and a
    line that fails to match fails in linear time.
    """
    skip = "" if stop is None else "(?!" + stop + "(?!" + _NAME_CHAR + "))"
    return "(?:" + skip + "(?:" + _NAME + "|" + _INT + r")(?![^ \t\r" + close + "])" + _B + ")*"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _read_cycles(text: str) -> dict:
    if _cycles_re().fullmatch(text) is None:
        raise ValueError(text)
    step: dict = {}
    for cycle in _CYCLE_RE.findall(text):
        if _add_cycle(step, cycle.split()) is not None:
            raise ValueError(cycle)
    if not step:
        raise ValueError(text)
    return step


def _read_entries(text: str) -> dict:
    """The entries of the text before a variable's '}', read in one scan.

    The text is its items between ';', and a blank last item is dropped.
    An entry matches only from the text's start or just after a ';', and
    only up to the next ';' or the end, so each match is one whole item,
    and every item is an entry iff there are as many entries as items.
    One pattern repeated over all the entries of a long line would grow the
    regex engine's backtracking stack by a kilobyte or so per entry.
    """
    entries: dict = {}
    for m in _entries_re().finditer(text):
        lam, attr, number = m.groups()
        entries[int(lam)] = (attr, _finite(number))
    # fewer entries than items: an item that is no entry, or a parameter value twice
    if len(entries) != text.count(";") + (text.rpartition(";")[2].strip(" \t\r") != ""):
        raise ValueError(text)
    return entries


# the regex of each value part's text, and how to read its value (None: the text
# itself); a reader raises ValueError to leave the line to the token parser
_VALUES = {
    "name": (_NAME, None),
    "integer": (_INT, int),
    "number": (_FLOAT + "|" + _INT, _finite),
    "status": ("possible|impossible|✓|✗", None),
    "labels": (None, str.split),
    "cycles": (None, _read_cycles),
    "entries": (None, _read_entries),
}


def _kind(part) -> str:
    return "word" if part.__class__ is str else part[0]


def _wordlike(part) -> bool:
    if part.__class__ is str:
        return part[0].isalpha()
    return part[0] in ("name", "integer", "number", "status", "labels")


def _pattern(parts: tuple, prev=None, lead=(None, "")) -> tuple[str, list]:
    """The regex of `parts` after the part `prev`, and how to read each group's value.

    Each value part's text is one group.  Two word-like parts have blanks
    between them and other parts may, but a run takes the blanks after
    each of its items itself.  The regex `lead[1]` goes before the part at
    index `lead[0]`.
    """
    out, reads = [], []
    for i, part in enumerate(parts):
        kind = _kind(part)
        if kind == "check":
            continue
        if kind == "optional":
            inner, inner_reads = _pattern(part[1], prev)
            out.append("(?:" + inner + ")?")
            reads += inner_reads
            prev = part[1][-1]
            continue
        if prev is not None and _kind(prev) not in ("labels", "cycles", "entries"):
            out.append(_BB if _wordlike(prev) and _wordlike(part) else _B)
        if i == lead[0]:
            out.append(lead[1])
        close = next((p for p in parts[i + 1 :] if _kind(p) != "check"), None)
        if kind == "word":
            out.append(re.escape(part))
            prev = part
            continue
        regex, read = _VALUES[kind]
        if kind == "labels":
            regex = _labels(close, part[1])
        elif kind in ("cycles", "entries"):  # the text up to the `close`, which the reader checks
            regex = "[^" + re.escape(close) + "]*"
        out.append("(" + regex + ")")
        reads.append(read)
        prev = part
    return "".join(out), reads


# the patterns below, like the forms', are compiled on first use, not at import


@cache
def _cycles_re() -> re.Pattern:
    """A step map's text: a run of cycles."""
    return re.compile(_B + "(?:" + _pattern(_CYCLE)[0] + _B + ")*")


@cache
def _entries_re() -> re.Pattern:
    """One entry of a variable, from the text's start or a ';' to the next ';' or the end."""
    return re.compile(r"(?<![^;])" + _B + _pattern(_ENTRY)[0] + _B + r"(?:;|\Z)")


@cache
def _line_forms(keyword: str) -> list:
    """Each form of `keyword`, compiled on first use.

    A form is its pattern's `fullmatch`, its keyword, its make, a (group,
    reader) pair for each group with a reader, its checks, and whether it
    ends in an optional part.  The word or value that picks a form keeps
    every other form of its keyword from matching, so no line matches two.
    """
    forms = _FORMS[keyword]
    at = _BRANCH[keyword]
    words = "|".join(parts[at] for _, parts in forms if parts[at].__class__ is str)
    compiled = []
    for make, parts in forms:
        lead = (None, "")
        if len(forms) > 1 and parts[at].__class__ is not str:
            # no word that picks another form
            lead = (at, "(?!(?:" + words + ")(?!" + _NAME_CHAR + "))")
        regex, reads = _pattern(parts, lead=lead)
        reads = [(i, read) for i, read in enumerate(reads) if read is not None]
        checks = [part[1] for part in parts if _kind(part) == "check"]
        open_end = _kind(parts[-1]) == "optional"
        pattern = re.compile(_B + keyword + _BB + regex + _END)
        compiled.append((pattern.fullmatch, keyword, make, reads, checks, open_end))
    return compiled


def _ends_before(lines: list[str], index: int) -> bool:
    """Whether the first line from `index` that is not blank or a comment opens a statement.

    True, too, when there is no such line: a statement that may go on past
    its line ends before it.
    """
    for i in range(index, len(lines)):
        head = _HEAD_RE.match(lines[i])
        if head is None or head[1] is not None:
            return head is not None
    return True


def _no_form(line: str) -> None:
    """The pattern the reader tries first on its first line: it matches nothing."""


def _read_lines(lines: list[str], offset: int, number: int, tables: _Tables) -> tuple | None:
    """Add to `tables` the declarations of `lines` from line `number`, which starts at `offset`.

    Returns the offset and the number of the first line the line reader
    does not accept, or None when it accepts every line to the end.  Each
    line is tried first against the form that read the statement before
    it; only a line that form does not match runs the head regex and the
    forms of its keyword.  The tables are filled as `_Tables.add` fills them.
    """
    named, laws = tables.named, tables.laws
    first = number
    fullmatch = _no_form
    for number in range(number, len(lines) + 1):
        line = lines[number - 1]
        m = fullmatch(line)
        if m is None:  # a blank or comment line, another form, or no statement
            head = _HEAD_RE.match(line)
            if head is None:
                break
            if head[1] is None:
                continue
            for fullmatch, keyword, make, reads, checks, open_end in _line_forms(head[1]):
                m = fullmatch(line)
                if m is not None:
                    break
            else:  # no form matches the line
                break
            table = named.get(keyword)  # None for a law
        values = m.groups()
        if reads:
            values = list(values)
            try:
                for i, read in reads:
                    values[i] = read(values[i])
            except ValueError:
                break
        if checks and any(check(*values) for check in checks):
            break
        if open_end and values[-1] is None and not _ends_before(lines, number):
            break
        # the keyword's column: the pattern allows only blanks before it
        decl = make(values, (number, len(line) - len(line.lstrip(" \t\r")) + 1))
        if table is None:
            laws.append(decl)
        elif values[0] in table:  # the name
            break
        else:
            table[values[0]] = decl
    else:
        return None
    return offset + sum(map(len, lines[first - 1 : number - 1])) + number - first, number


def parse_model(text: str) -> tuple[ModelDecl | None, list[Diagnostic]]:
    """Parse `.ctm` text: the declaration (None on any error) and every diagnostic."""
    tables = _Tables()
    lines = text.split("\n")
    at = _read_lines(lines, 0, 1, tables)
    if at is None:
        return tables.model(), []
    from ._tokens import _Parser

    parser = _Parser(text, tables)
    while at is not None:
        # the token parser reads at least the statement on line `at`, so each round moves on
        at = parser.read(*at)
        if at is not None:
            at = _read_lines(lines, *at, tables)
    diags = parser.lexed + parser.diags
    return (None if diags else tables.model()), diags


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


_members_of = attrgetter("members")
_first, _second = itemgetter(0), itemgetter(1)
# the message of an attribute that is not on the substrate a task or timer names
_NOT_ON = "attribute {0!r} is not on substrate {1!r}"


def _find(table: Mapping, name: str, unknown: str, context: str | None = None):
    """`table[name]`, or ModelError(unknown.format(name, context)) when the table lacks it."""
    found = table.get(name)
    if found is None:
        raise ModelError(unknown.format(name, context))
    return found


def analyze_model(decl: ModelDecl) -> tuple[BuiltModel | None, list[Diagnostic]]:
    """Resolve a declaration once: the built model (None on any error) and every diagnostic.

    Each declaration kind has one builder, which returns the engine object
    or raises ModelError at the first fault it finds.  One loop calls the
    builders, kind by kind in the order of the tables, and turns each
    ModelError into an error at the declaration's span.  A builder adds its
    declaration's warnings (a timer's, or a variable's static entries) as
    it runs, so they follow the diagnostics of the declarations before it.
    The two lookups, a substrate by name (`_find`) and an attribute by
    name on a given substrate (`attribute_on`), each take their caller's
    messages.  The laws are held by position, not by declaration: two
    equal laws on different lines are two statements.
    """
    diags: list[Diagnostic] = []
    # the engine objects of each kind by name, the law statements by position
    substrates, attributes, timers, tasks, statements, trajectories = {}, {}, {}, {}, {}, {}

    def warn(d, message: str) -> None:
        diags.append(Diagnostic("warning", *d.span, message))

    def attribute_on(sub: Substrate, name: str, unknown: str, elsewhere: str, context: str):
        """The attribute `name`, checked to be on `sub`; messages are formatted as in `_find`."""
        attr = attributes.get(name)
        if attr is None:
            raise ModelError(unknown.format(name, context))
        if attr.substrate is not sub:
            raise ModelError(elsewhere.format(name, context))
        return attr

    def task(d: TaskDecl | LawDecl) -> Task:
        """The task of a task declaration, or of a law that names its attributes."""
        sub = _find(substrates, d.substrate, "unknown substrate {0!r}")
        return Task(
            attribute_on(sub, d.input, "unknown attribute {0!r}", _NOT_ON, d.substrate),
            attribute_on(sub, d.output, "unknown attribute {0!r}", _NOT_ON, d.substrate),
        )

    def substrate(d: SubstrateDecl) -> Substrate:
        return Substrate(d.name, d.states, d.step)

    def attribute(d: AttributeDecl) -> Attribute:
        sub = substrates.get(d.substrate)  # `_find`, inline: this runs once per attribute
        if sub is None:
            raise ModelError(f"attribute {d.name!r}: unknown substrate {d.substrate!r}")
        return Attribute(sub, d.members, d.name)

    def timer(d: TimerDecl) -> TimerSpec:
        if isinstance(d, CounterTimerDecl):
            if not 1 <= d.bits <= MAX_COUNTER_BITS:
                raise ModelError(f"bits must be in 1..{MAX_COUNTER_BITS}")
            spec = make_counter_timer(d.bits, d.threshold, name=d.name)
        elif isinstance(d, ParticleTimerDecl):
            if not 2 <= d.cells <= MAX_PARTICLE_CELLS:
                raise ModelError(f"cells must be in 2..{MAX_PARTICLE_CELLS}")
            spec = make_particle_timer(d.cells, d.speed, d.target, name=d.name)
        else:
            sub = _find(substrates, d.substrate, "unknown substrate {0!r}")
            roles = dict(start=d.start, running=d.running, done=d.done, halt=d.halt or d.done)
            parts = [
                attribute_on(sub, a, f"unknown attribute {{0!r}} for {r!r}", _NOT_ON, d.substrate)
                for r, a in roles.items()
            ]
            spec = make_timer(d.name, sub, *parts)
        for w in spec.warnings:
            warn(d, f"timer {d.name!r}: {w}")
        return spec

    def law(d: LawDecl) -> LawStatement:
        if d.task is None:
            t = task(d)
        else:
            t = _find(tasks, d.task, "unknown task {0!r}")
            if d.substrate is not None and t.substrate.id != d.substrate:
                raise ModelError(f"task {d.task!r} is not on substrate {d.substrate!r}")
        return possible(t) if d.status == "possible" else impossible(t)

    def variable(d: VariableDecl) -> TrajectoryModel:
        sub = _find(substrates, d.substrate, "variable {1!r}: unknown substrate {0!r}", d.name)
        # not zip(*entries), which would make an iterator per entry for the collector to count
        names = list(map(_first, d.entries.values()))

        def first_fault() -> None:
            """Raise at the first entry, in file order, whose attribute is unknown or elsewhere."""
            unknown = "variable {1!r}: unknown attribute {0!r}"
            elsewhere = "variable {1!r}: attribute {0!r} is on another substrate"
            for a in names:
                attribute_on(sub, a, unknown, elsewhere, d.name)

        # the checks run in C, entry by entry only to name the entry that fails
        if not all(map(attributes.__contains__, names)):
            first_fault()
        try:
            v = Variable(sub, dict(zip(d.entries, map(attributes.__getitem__, names))))
        except ModelError as e:
            first_fault()  # an attribute on another substrate is named before Variable's fault
            raise ModelError(f"variable {d.name!r}: {e}") from None
        # a static entry (is_static) is empty or holds a whole cycle, so unless an
        # entry is empty or as large as the shortest cycle, none is static
        sizes = list(map(len, map(_members_of, v.entries.values())))
        if sizes and (min(sizes) == 0 or max(sizes) >= min(map(len, sub.cycles))):
            for lam in v.domain:
                if is_static(v.entries[lam]):
                    warn(d, f"variable {d.name!r}: attribute at λ={lam} is static")
        return TrajectoryModel(v, dict(zip(d.entries, map(_second, d.entries.values()))))

    for built, build, items in (
        (substrates, substrate, decl.substrates.items()),
        (attributes, attribute, decl.attributes.items()),
        (timers, timer, decl.timers.items()),
        (tasks, task, decl.tasks.items()),
        (statements, law, enumerate(decl.laws)),
        (trajectories, variable, decl.variables.items()),
    ):
        for key, d in items:
            try:
                built[key] = build(d)
            except ModelError as e:
                diags.append(Diagnostic("error", *d.span, str(e)))

    if any(x.severity == "error" for x in diags):
        return None, diags
    laws = LawSet.of(*statements.values())
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
