"""The `.ctm` token parser: it reads the statements the line reader in `ctm.dsl` does not accept.

`ctm.dsl.parse_model` imports this module only when a file has such a
statement, so a well-formed file loads without it.  The parser walks the
statement forms of `ctm.dsl._FORMS`, the table the line reader builds its
patterns from, and makes every diagnostic of a parse, resynchronizing at
the next top-level keyword after each error.  It lexes on demand, one
regex match per token with blanks and comments absorbed into the match.
`parse_model` calls `_Parser.read` at each line the line reader does not
accept; the parser reads from there to the next keyword that starts a
line after its first statement and returns where it stopped, so a typo
costs only its own statement.
"""

from __future__ import annotations

import math
import re

from .dsl import (
    _BRANCH,
    _FLOAT,
    _FORMS,
    _INT,
    _KEYWORDS,
    _NAME,
    _STATUS,
    Diagnostic,
    _add_cycle,
    _Tables,
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
    | (?P<punct>->|[{}();:@✓✗])
    | (?P<float>""" + _FLOAT + r""")
    | (?P<int>""" + _INT + r""")
    | (?P<ident>""" + _NAME + r""")
    | (?P<bad>.)
    | \Z
    )
    """,
    re.VERBOSE,
)


# A token is an exact tuple (kind, text, line, column, offset), with a
# 1-based (line, column) span.  The kind is ident, int, float, punct or eof;
# the parser tells punctuation apart by its text.  The garbage collector
# stops tracking a tuple whose items are all str and int at its first
# collection; a NamedTuple subclass would stay tracked, and its Python-level
# constructor costs a call per token.
_Token = tuple[str, str, int, int, int]


def _lex(text: str, start: int, line: int, diags: list[Diagnostic]):
    """The tokens from offset `start`, the first character of line `line`, one at a time.

    The last is ("eof", "", ...).  Each character no token takes adds a
    diagnostic to `diags` as the lexer passes it.
    """
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
            at = m.start(kind)
            yield kind, m[kind], line, at - line_start + 1, at
    yield "eof", "", line, len(text) - line_start + 1, len(text)


# --------------------------------------------------------------------- parser


class _Recover(Exception):
    pass


class _Parser:
    """Reads the statements of `text` into `tables`, from each line `parse_model` hands it."""

    def __init__(self, text: str, tables: _Tables):
        self.text = text
        self.tables = tables
        self.lexed: list[Diagnostic] = []  # the lexer's diagnostics, which come first
        self.diags: list[Diagnostic] = []

    def fail(self, message: str, tok: _Token | None = None, suggestion: str | None = None):
        tok = tok or self.tok
        self.diags.append(Diagnostic("error", tok[2], tok[3], message, suggestion))
        raise _Recover()

    # the lexer yields nothing after eof, so only a token that is not eof
    # is stepped past, with `self.tok = self.next()`
    def expect(self, kind: str, what: str) -> _Token:
        tok = self.tok
        if tok[0] != kind:
            self.fail(f"expected {what}, found {tok[1]!r}" if tok[1] else f"expected {what}")
        self.tok = self.next()
        return tok

    def walk(self, parts: tuple, values: list | None = None) -> list:
        """Read `parts` of a statement form: `values`, with the value of each value part added."""
        values = [] if values is None else values
        start = self.tok  # the first token of the part before a check
        for part in parts:
            tok = self.tok
            if part.__class__ is str:
                if tok[1] != part:
                    found = f", found {tok[1]!r}" if tok[1] else ""
                    self.fail(f"expected {part!r}{found}")
                self.tok = self.next()
            elif part[0] == "check":
                rejected = part[1](*values)
                if rejected is not None:
                    self.fail(rejected[0], start, rejected[1])
                continue
            else:
                values.append(getattr(self, part[0])(part[1]))
            start = tok
        return values

    # value parts ------------------------------------------------------------

    def name(self, what: str) -> str:
        return self.expect("ident", what)[1]

    def integer(self, what: str) -> int:
        tok = self.expect("int", what)
        try:
            return int(tok[1])
        except ValueError:  # more digits than the interpreter converts to an int
            self.fail(f"{what} has too many digits", tok)

    def number(self, what: str) -> float:
        tok = self.tok
        if tok[0] not in ("int", "float"):
            self.fail(f"expected {what}, found {tok[1]!r}")
        value = float(tok[1])
        if not math.isfinite(value):
            self.fail(f"{what} must be finite, found {tok[1]!r}")
        self.tok = self.next()
        return value

    def status(self, _) -> str:
        tok = self.tok
        if tok[1] not in _STATUS:
            self.fail("expected law status: 'possible', 'impossible', '✓' or '✗'")
        self.tok = self.next()
        return tok[1]

    def labels(self, stop: str | None) -> list[str]:
        """The run of state labels (identifiers or integers) up to the word `stop`."""
        run = []
        while (tok := self.tok)[0] in ("ident", "int") and tok[1] != stop:
            run.append(tok[1])
            self.tok = self.next()
        return run

    def cycles(self, item: tuple) -> dict:
        start = self.tok
        step: dict = {}
        while self.tok[1] == item[0]:
            twice = _add_cycle(step, self.walk(item)[0])
            if twice is not None:
                self.fail(f"state {twice!r} appears twice in the step map", start)
        if not step:
            self.fail("step map needs at least one cycle, e.g. (a b c)")
        return step

    def entries(self, item: tuple) -> dict:
        entries: dict = {}
        while self.tok[0] == "int":
            start = self.tok
            lam, attr, reading = self.walk(item)
            if lam in entries:
                self.fail(f"duplicate parameter value {lam}", start)
            entries[lam] = (attr, reading)
            if self.tok[1] != ";":
                break
            self.tok = self.next()
        return entries

    def optional(self, parts: tuple):
        return self.walk(parts)[0] if self.tok[1] == parts[0] else None

    # statements --------------------------------------------------------------

    def statement(self, keyword: str, span: tuple[int, int]):
        """The declaration of the statement after `keyword`: the form its parts pick, walked."""
        forms = _FORMS[keyword]
        at = _BRANCH[keyword]
        values = self.walk(forms[0][1][:at])
        if len(forms) > 1:
            tok = self.tok
            picked = [form for form in forms if form[1][at] == tok[1]]
            picked = picked or [form for form in forms if form[1][at].__class__ is not str]
            if not picked:
                words = [repr(form[1][at]) for form in forms]
                self.fail(f"expected {keyword} kind {', '.join(words[:-1])} or {words[-1]}", tok)
            forms = picked
        make, parts = forms[0]
        self.walk(parts[at:], values)
        return make(values, span)

    def sync(self) -> None:
        """Skip to the next top-level keyword (or EOF)."""
        depth = 0
        while True:
            tok = self.tok
            if tok[0] == "eof":
                return
            if tok[1] == "{":
                depth += 1
            elif tok[1] == "}":
                depth = max(0, depth - 1)
            elif depth == 0 and tok[0] == "ident" and tok[1] in _KEYWORDS:
                return
            self.tok = self.next()  # not eof

    def read(self, start: int, line: int) -> tuple[int, int] | None:
        """Read the statements from line `line`, which starts at offset `start`.

        Returns the offset and line of the next keyword, after the first
        statement, with nothing but blanks before it on its line, where the
        line reader takes over; or None at eof.
        """
        self.next = _lex(self.text, start, line, self.lexed).__next__
        self.tok: _Token = self.next()
        while (tok := self.tok)[0] != "eof":
            try:
                if tok[0] != "ident" or tok[1] not in _KEYWORDS:
                    self.fail(
                        f"expected a declaration keyword, found {tok[1]!r}",
                        tok,
                        suggestion="one of: " + ", ".join(_KEYWORDS),
                    )
                span = (tok[2], tok[3])
                keyword = tok[1]
                self.tok = self.next()
                decl = self.statement(keyword, span)
                if not self.tables.add(keyword, decl):
                    self.diags.append(
                        Diagnostic("error", *span, f"duplicate {keyword} name {decl.name!r}")
                    )
            except _Recover:
                self.sync()
            tok = self.tok
            if tok[0] == "ident" and tok[1] in _KEYWORDS:
                line_start = tok[4] - tok[3] + 1
                if not self.text[line_start : tok[4]].strip(" \t\r"):
                    return line_start, tok[2]
        return None
