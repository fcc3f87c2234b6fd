"""The `.ctm` token parser: the reader of every line the line reader in `ctm.dsl` does not accept.

`ctm.dsl.parse_model` imports this module only when a file has such a
line, so a well-formed file loads without it.  The lexer takes one regex
match per token, blanks and comments absorbed into the match; the parser
fills the line reader's declaration tables and makes every diagnostic of a
parse, resynchronizing at the next top-level keyword after each error.
Over a whole text, `_parse_tokens` is the oracle the line reader must agree
with.
"""

from __future__ import annotations

import math
import re

from .dsl import (
    _KEYWORDS,
    AttributeDecl,
    CounterTimerDecl,
    CustomTimerDecl,
    Diagnostic,
    LawDecl,
    ModelDecl,
    ParticleTimerDecl,
    Span,
    SubstrateDecl,
    TaskDecl,
    TimerDecl,
    VariableDecl,
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


class _Recover(Exception):
    pass


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


def _parse_tokens(
    text: str, start: int = 0, line: int = 1, tables: _Tables | None = None
) -> tuple[ModelDecl | None, list[Diagnostic]]:
    """The token parser from offset `start`, the first character of line `line`, to the end.

    Over the whole text with no tables it is the parse that the line reader
    must agree with, and the tests keep it as that oracle.
    """
    tokens, diags = _lex(text, start, line)
    return _Parser(tokens, diags).parse(_Tables() if tables is None else tables), diags
