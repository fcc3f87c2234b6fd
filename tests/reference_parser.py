"""The reference `.ctm` parser: the lexer and token parser as they were before the grammar table.

`seed_lex` is the original match-at-position lexer, and `_Parser` the
token parser that read a whole text, both frozen.  The tests compare
`ctm.dsl.parse_model` with `_parse_tokens`, so that a fault in the grammar
table cannot show up on both sides of a comparison.
"""

from __future__ import annotations

import math
import re

from ctm.dsl import (
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

_KEYWORDS = ("substrate", "attribute", "timer", "task", "law", "variable")
_Token = tuple[str, str, int, int]


SEED_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
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
    """,
    re.VERBOSE,
)


def seed_lex(text):
    """Oracle: the original match-at-position lexer, one step per token, blank or comment."""
    tokens = []
    diags = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = SEED_TOKEN_RE.match(text, pos)
        if m is None:
            diags.append(
                Diagnostic("error", line, col, f"unexpected character {text[pos]!r}")
            )
            pos += 1
            col += 1
            continue
        kind = m.lastgroup or ""
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(tok)
        else:
            tokens.append((kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens, diags


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



def _parse_tokens(text: str) -> tuple[ModelDecl | None, list[Diagnostic]]:
    """The frozen token parser over the whole text: the parse `parse_model` must agree with."""
    tokens, diags = seed_lex(text)
    return _Parser(tokens, diags).parse(_Tables()), diags
