import gc
import random
import re
import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctm import make_counter_timer
from ctm.dsl import (
    AttributeDecl,
    CounterTimerDecl,
    CustomTimerDecl,
    Diagnostic,
    LawDecl,
    ModelDecl,
    ParticleTimerDecl,
    SubstrateDecl,
    TaskDecl,
    VariableDecl,
    analyze_model,
    build_model,
    parse_model,
    pretty_print,
)
from ctm import dsl
from ctm.dsl import _lex, _parse_tokens
from conftest import MODELS_DIR


def parse_ok(text):
    result = parse_model(text)
    assert result.ok, result.diagnostics
    return result.model


# parsing ----------------------------------------------------------------------


def test_counter_decl_equals_programmatic_constructor():
    model = build_model(parse_ok("timer counter C1 { bits 4 ; threshold 5 }"))
    spec = model.timers["C1"]
    reference = make_counter_timer(4, 5)
    assert spec.duration == reference.duration
    assert spec.attr0.members == reference.attr0.members
    assert spec.attrR.members == reference.attrR.members
    assert spec.attr1.members == reference.attr1.members
    assert spec.static_horizon == reference.static_horizon


def test_empty_file_is_empty_model():
    result = parse_model("")
    assert result.ok and result.model.empty and result.diagnostics == []


def test_unresolved_law_reference_gets_diagnostic_with_span():
    model = parse_ok("law possible task F on P")
    diags = analyze_model(model)[1]
    assert diags and diags[0].severity == "error"
    assert diags[0].line == 1 and diags[0].column == 1
    assert "unknown task 'F'" in diags[0].message


def test_duplicate_names_rejected():
    result = parse_model(
        "substrate S { states a ; step (a) }\nsubstrate S { states b ; step (b) }"
    )
    assert not result.ok
    assert any("duplicate" in d.message for d in result.diagnostics)


def test_incomplete_step_map_is_not_a_bijection():
    result = parse_model("substrate S { states a b ; step (a) }")
    assert not result.ok
    d = result.diagnostics[0]
    assert "not a bijection" in d.message and d.suggestion


def test_repeated_state_in_cycles_rejected():
    result = parse_model("substrate S { states a b ; step (a b)(a) }")
    assert not result.ok
    assert any("twice" in d.message for d in result.diagnostics)


def test_unknown_character_reported_not_raised():
    result = parse_model("law possible € -> y on P")
    assert not result.ok
    assert any("unexpected character" in d.message for d in result.diagnostics)


def test_status_marks_accepted():
    model = parse_ok(
        "substrate S { states a b ; step (a b) }\n"
        "attribute x on S { a }\nattribute y on S { b }\n"
        "law ✓ x -> y on S\nlaw ✗ y -> x on S"
    )
    statuses = sorted(law.status for law in model.laws)
    assert statuses == ["impossible", "possible"]


def test_every_diagnostic_has_a_span_inside_the_input():
    bad_inputs = [
        "substrate { states a ; step (a) }",
        "timer counter X { bits ; threshold 2 }",
        "law maybe x -> y on P",
        "attribute on S { }",
        "variable V on S { 0 : a 1.0 }",
    ]
    for text in bad_inputs:
        result = parse_model(text)
        assert not result.ok
        lines = text.count("\n") + 1
        for d in result.diagnostics:
            assert 1 <= d.line <= lines + 1
            assert d.column >= 1


# round trips -------------------------------------------------------------------


def fixture_texts(models_dir):
    return sorted(models_dir.glob("*.ctm"))


def test_shipped_fixtures_round_trip(models_dir):
    paths = fixture_texts(models_dir)
    assert len(paths) >= 5
    for path in paths:
        model = parse_ok(path.read_text())
        printed = pretty_print(model)
        again = parse_ok(printed)
        assert again == model, path
        assert pretty_print(again) == printed, path


def test_shipped_fixtures_validate_clean(models_dir):
    for path in fixture_texts(models_dir):
        model = parse_ok(path.read_text())
        errors = [d for d in analyze_model(model)[1] if d.severity == "error"]
        assert errors == [], path


def test_canonical_section_order():
    text = pretty_print(
        parse_ok(
            "law possible x -> y on S\n"
            "attribute y on S { b }\n"
            "timer counter C { bits 3 ; threshold 2 }\n"
            "attribute x on S { a }\n"
            "substrate S { states a b ; step (a b) }"
        )
    )
    keywords = [line.split()[0] for line in text.splitlines()]
    assert keywords == ["substrate", "attribute", "attribute", "timer", "law"]


NAMES = [f"n{i}" for i in range(40)]


def random_decl(rng: random.Random) -> ModelDecl:
    substrates = {}
    attributes = {}
    names = iter(rng.sample(NAMES, len(NAMES)))
    for _ in range(rng.randrange(1, 3)):
        name = next(names)
        n = rng.randrange(1, 6)
        states = tuple(f"s{i}" for i in range(n))
        image = list(states)
        rng.shuffle(image)
        substrates[name] = SubstrateDecl(name, states, dict(zip(states, image)))
    sub_names = list(substrates)
    for _ in range(rng.randrange(0, 4)):
        name = next(names)
        sub = rng.choice(sub_names)
        members = frozenset(
            s for s in substrates[sub].states if rng.random() < 0.5
        )
        attributes[name] = AttributeDecl(name, sub, members)
    timers = {}
    for _ in range(rng.randrange(0, 3)):
        name = next(names)
        kind = rng.randrange(3)
        if kind == 0:
            timers[name] = CounterTimerDecl(name, rng.randrange(2, 6), rng.randrange(1, 4))
        elif kind == 1:
            speed = rng.choice((1, 2))
            timers[name] = ParticleTimerDecl(name, 16, speed, speed * rng.randrange(1, 5))
        else:
            attr_pool = list(attributes) or ["missing"]
            timers[name] = CustomTimerDecl(
                name,
                rng.choice(sub_names),
                rng.choice(attr_pool),
                rng.choice(attr_pool),
                rng.choice(attr_pool),
                rng.choice(attr_pool) if rng.random() < 0.5 else None,
            )
    tasks = {}
    attr_pool = list(attributes)
    for _ in range(rng.randrange(0, 2)):
        if not attr_pool:
            break
        name = next(names)
        tasks[name] = TaskDecl(
            name, rng.choice(sub_names), rng.choice(attr_pool), rng.choice(attr_pool)
        )
    laws = []
    for _ in range(rng.randrange(0, 3)):
        status = rng.choice(("possible", "impossible"))
        if tasks and rng.random() < 0.4:
            laws.append(LawDecl(status, task=rng.choice(list(tasks))))
        elif attr_pool:
            laws.append(
                LawDecl(
                    status,
                    input=rng.choice(attr_pool),
                    output=rng.choice(attr_pool),
                    substrate=rng.choice(sub_names),
                )
            )
    variables = {}
    for _ in range(rng.randrange(0, 2)):
        if not attr_pool:
            break
        name = next(names)
        entries = {
            lam: (rng.choice(attr_pool), round(rng.uniform(-4, 4), 6))
            for lam in rng.sample(range(12), rng.randrange(1, 4))
        }
        variables[name] = VariableDecl(name, rng.choice(sub_names), entries)
    return ModelDecl(substrates, attributes, timers, tasks, tuple(laws), variables)


def test_generated_models_round_trip():
    rng = random.Random(424242)
    for _ in range(300):
        decl = random_decl(rng)
        printed = pretty_print(decl)
        reparsed = parse_model(printed)
        assert reparsed.ok, (printed, reparsed.diagnostics)
        assert reparsed.model == decl, printed
        assert pretty_print(reparsed.model) == printed


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_round_trip_property(seed):
    decl = random_decl(random.Random(seed))
    printed = pretty_print(decl)
    reparsed = parse_model(printed)
    assert reparsed.ok and reparsed.model == decl


def canonical_cycles(states, step):
    """Oracle for the printed step map: each cycle from its earliest state, cycles by that state."""
    order = {s: i for i, s in enumerate(states)}
    seen = set()
    cycles = []
    for s in states:
        if s in seen:
            continue
        cyc = [s]
        seen.add(s)
        cur = step[s]
        while cur != s:
            cyc.append(cur)
            seen.add(cur)
            cur = step[cur]
        pivot = min(range(len(cyc)), key=lambda i: order[cyc[i]])
        cyc = cyc[pivot:] + cyc[:pivot]
        cycles.append(cyc)
    cycles.sort(key=lambda c: order[c[0]])
    return "".join("(" + " ".join(c) + ")" for c in cycles)


@st.composite
def shuffled_step_maps(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    states = tuple(draw(st.permutations([f"s{i}" for i in range(n)])))
    return states, dict(zip(states, draw(st.permutations(states))))


@settings(max_examples=150, deadline=None)
@given(shuffled_step_maps())
def test_pretty_print_cycles_match_oracle(drawn):
    states, step = drawn
    printed = pretty_print(ModelDecl(substrates={"S": SubstrateDecl("S", states, step)}))
    cycles = canonical_cycles(states, step)
    assert printed == f"substrate S {{ states {' '.join(states)} ; step {cycles} }}\n"
    assert parse_ok(printed).substrates["S"].step == step


# fuzzing -----------------------------------------------------------------------


FUZZ_ALPHABET = string.ascii_letters + string.digits + "{}();:@->✓✗ \n\t#._" + '"'


def test_fuzz_parser_never_raises():
    rng = random.Random(1234)
    base = "substrate S { states a b ; step (a b) }\nlaw possible x -> y on S\n"
    for i in range(2000):
        if i % 3 == 0:
            text = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(0, 80)))
        else:
            cut = rng.randrange(0, len(base))
            insert = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(0, 10)))
            text = base[:cut] + insert + base[cut:]
        result = parse_model(text)
        if not result.ok:
            assert result.diagnostics


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=120))
def test_fuzz_parser_total_on_arbitrary_text(text):
    result = parse_model(text)
    assert result.ok or result.diagnostics


# lexer oracle ------------------------------------------------------------------


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


def assert_lex_matches_seed(text):
    tokens, diags = _lex(text)
    want_tokens, want_diags = seed_lex(text)
    assert tokens == want_tokens, text
    assert diags == want_diags, text
    # lexing from a line's first character gives the tail of the whole lex
    start = 0
    for line, row in enumerate(text.split("\n"), 1):
        tail = _lex(text, start, line)
        assert tail[0] == [tok for tok in tokens if tok[2] >= line], (text, line)
        assert tail[1] == [d for d in diags if d.line >= line], (text, line)
        start += len(row) + 1


LEX_PIECES = list(FUZZ_ALPHABET) + ["\t", "\r", "\f", "✓", "✗", "->", "1e5", "-3.5", "€"]


def test_lex_matches_seed_on_fixtures(models_dir):
    for path in fixture_texts(models_dir):
        assert_lex_matches_seed(path.read_text())


@pytest.mark.parametrize(
    "text",
    ["", "-", "a b  \t ", "x # trailing comment", "\tx\t€ y", "a\r\n\t-\f b\n  ", "# only\n#"],
)
def test_lex_matches_seed_on_edge_cases(text):
    assert_lex_matches_seed(text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(LEX_PIECES), max_size=60).map("".join), st.text()))
def test_lex_matches_seed_on_generated_text(text):
    assert_lex_matches_seed(text)


def ring_pointer_text(cells):
    """A ring pointer with one attribute per cell and a linear variable over them."""
    states = " ".join(f"c{i}" for i in range(cells))
    entries = " ; ".join(f"{i} : a{i} @ {i}.0" for i in range(cells))
    return (
        f"substrate P {{ states {states} ; step ({states}) }}\n"
        + "".join(f"attribute a{i} on P {{ c{i} }}\n" for i in range(cells))
        + f"variable v on P {{ {entries} }}\n"
    )


def test_lex_tokens_are_plain_tuples_the_collector_untracks(models_dir):
    # a tuple of str and int leaves the collector's lists at its first
    # collection; a tuple subclass such as a NamedTuple stays tracked, and
    # every later collection would walk all of a loaded file's tokens again
    texts = [path.read_text() for path in fixture_texts(models_dir)]
    texts.append(ring_pointer_text(2048))
    assert parse_model(texts[-1]).ok
    for text in texts:
        tokens, _ = _lex(text)
        assert all(type(tok) is tuple for tok in tokens)
        gc.collect()
        assert not any(gc.is_tracked(tok) for tok in tokens)


# line reader ---------------------------------------------------------------------


def closure_text(rings):
    """Four-state rings, an attribute per state and chained pair laws; a task and two timers."""
    lines = ["# four-state rings, chained laws", ""]
    for r in range(rings):
        states = [f"Q{r}_{i}" for i in range(4)]
        lines.append(f"substrate R{r} {{ states {' '.join(states)} ; step ({' '.join(states)}) }}")
        lines += [f"attribute A{r}_{i} on R{r} {{ {s} }}" for i, s in enumerate(states)]
        lines += [f"law possible A{r}_{i} -> A{r}_{i + 1} on R{r}" for i in range(3)]
        lines.append(f"law ✗ A{r}_0 -> A{r}_3 on R{r}  # derivable")
        lines.append(f"task T{r} on R{r} : A{r}_0 -> A{r}_2")
    lines.append("timer counter C { bits 4 ; threshold 5 }")
    lines.append("\ttimer particle P{cells 16;speed 2;target 6}")
    return "\n".join(lines) + "\n"


def declared_spans(model):
    """Each declaration with its span, table by table in file order."""
    if model is None:
        return None
    tables = (model.substrates, model.attributes, model.timers, model.tasks, model.variables)
    named = [[(name, decl, decl.span) for name, decl in table.items()] for table in tables]
    return named, [(law, law.span) for law in model.laws]


def assert_reads_as_tokens(text):
    got = parse_model(text)
    want = _parse_tokens(text)
    assert got.diagnostics == want.diagnostics, text
    assert got.model == want.model, text
    assert declared_spans(got.model) == declared_spans(want.model), text


# lines the reader must leave to the token parser, and some it may read;
# parsing resolves no names, so each needs no other declaration
READER_CASES = (
    "attribute a on P { c0 } attribute b on P { c1 }\n",
    "attribute a on P {\n c0 }\n",
    "task T on P : a -> b\nlaw possible task T\non P\n",
    "task T on P : a -> b\n-> c\n",
    "law ✓ a -> b on P\r\nattribute\ta\ton\tP\t{\tc0\t}\t# note\r\n",
    "timer counter C { bits 4 ; threshold 5 } # c\n timer particle Q{cells 8;speed 1;target 3}",
    "variable v on P { 0 : a @ 1e999 }\n",
    "variable v on P { 0 : a @ 1.0 ; 0 : b @ 2.0 }\n",
    "variable v on P { 0 : a @ 1.0 ; 1 : b @ 2 ; }\nvariable w on P { }\n",
    "variable v on P { 0 : a @ 1.5e ; }\n",
    "variable v on P { 0 : a @ 1 1 : b @ 2 }\n",
    "variable v on P { ; }\n",
    "attribute a on P { c0 }\nattribute a on P { c1 }\n",
    "attribute a on P { c0 }€\n",
    "law possible a -> b on P\f\n",
    "attribute a on P { 12abc }\n",
    "attribute a on P { c0-7 }\n",
    "attributea on P { c0 }\n",
    "law possiblea -> b on P\n",
    "law possible task -> b on P\n",
    "substrate P { states a step ; step (a step) }\n",
    "substrate P { states-5 a ; step(-5 a) }\n",
    "substrate P { states a b ; step (a)(b a) }\n",
    "substrate P { states a b ; step (a) }\n",
    "substrate P { states a ; step (a b) }\n",
    "substrate P { states a a ; step (a)() }\n",
)


READER_BASES = [path.read_text() for path in fixture_texts(MODELS_DIR)] + [
    ring_pointer_text(3),
    closure_text(1),
]


@pytest.mark.parametrize("text", [*READER_BASES, ring_pointer_text(64), *READER_CASES])
def test_line_reader_matches_token_parser(text):
    assert_reads_as_tokens(text)

# (pattern, replacement): one occurrence of the pattern is replaced, and
# {0} in the replacement stands for the text it replaces
READER_EDITS = (
    (r"\n", " "),  # join two lines
    (r"\n", ""),
    (r" ", "\n"),  # split a line
    (r" ", ""),
    (r"\n", "\r\n"),
    (r" ", "\t"),
    (r"\n", " # trailing comment\n"),
    (r" ", " # "),
    (r"\n", "\nlaw possible task T0\non R0\n"),  # a task law continued on the next line
    (r"@ [^ ;}]+", "@ 1e999"),
    (r"\d+ :", "0 :"),  # a duplicate parameter value
    (r"(?<=possible )[A-Za-z0-9_]+", "task"),
    (r"(?<=possible) ", ""),
    (r"[A-Za-z0-9_]+", "{0} {0}"),  # a label twice in a step map, or a doubled name
    (r"\d+", "12abc"),
    (r"[ }]", "€"),  # a bad character after a prefix the reader accepts
    (r"[ }]", "\f"),
    (r"[;}()]", ""),
)
# a word renamed everywhere, so that a state keeps its place in the step map
READER_RENAMES = ("step", "task", "on", "c0-7", "12abc", "7")


@st.composite
def reader_mutations(draw):
    text = draw(st.sampled_from(READER_BASES))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(range(len(READER_EDITS) + 3)))
        if kind == len(READER_EDITS):  # a line repeated elsewhere: duplicate names
            lines = text.split("\n")
            row = lines[draw(st.integers(min_value=0, max_value=len(lines) - 1))]
            lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), row)
            text = "\n".join(lines)
        elif kind == len(READER_EDITS) + 1:
            at = draw(st.integers(min_value=0, max_value=len(text)))
            piece = draw(st.sampled_from(LEX_PIECES))
            text = text[:at] + piece + text[at:]
        elif kind == len(READER_EDITS) + 2:
            words = sorted(set(re.findall(r"\b[A-Za-z0-9_]+\b", text)))
            if words:
                word = draw(st.sampled_from(words))
                new = draw(st.sampled_from(READER_RENAMES))
                text = re.sub(rf"\b{word}\b", new, text)
        else:
            pattern, replacement = READER_EDITS[kind]
            spots = [m.span() for m in re.finditer(pattern, text)]
            if spots:
                lo, hi = spots[draw(st.integers(min_value=0, max_value=len(spots) - 1))]
                text = text[:lo] + replacement.format(text[lo:hi]) + text[hi:]
    return text


@settings(max_examples=1000, deadline=None)
@given(reader_mutations())
def test_line_reader_matches_token_parser_on_mutations(text):
    assert_reads_as_tokens(text)


def test_line_reader_rejects_a_long_line_in_linear_time():
    # blanks between tokens and a stray character at the end: patterns in
    # which two blank runs meet would retry every split of the blanks
    labels = " ".join(f"c{i}" for i in range(3000))
    gap = " " * 3000
    text = f"substrate P {{ states{gap}{labels}{gap};{gap}step{gap}({gap}{labels}{gap}){gap}€ }}"
    start = time.perf_counter()
    result = parse_model(text)
    assert time.perf_counter() - start < 2.0
    assert [d.message for d in result.diagnostics] == ["unexpected character '€'"]


def test_line_reader_reads_whole_files_without_the_lexer(monkeypatch):
    texts = [ring_pointer_text(2048), closure_text(4)]

    def no_lex(*args):
        raise AssertionError("the token parser ran")

    monkeypatch.setattr(dsl, "_lex", no_lex)
    for text in texts:
        model = parse_model(text).model
        assert model is not None
        assert not model.empty
    assert len(model.laws) == 16 and set(model.timers) == {"C", "P"}
    with pytest.raises(AssertionError, match="the token parser ran"):
        parse_model(texts[1] + "law possible task T0\non R0\n")


# validation / build ---------------------------------------------------------------


def test_validate_flags_static_starting_attribute():
    text = (
        "substrate F { states f0 f1 f2 ; step (f0)(f1)(f2) }\n"
        "attribute z on F { f0 }\nattribute r on F { f1 }\nattribute o on F { f2 }\n"
        "timer custom K on F { start z ; running r ; done o }"
    )
    diags = analyze_model(parse_ok(text))[1]
    assert any(
        d.severity == "error" and "not a well-formed null constructor" in d.message
        for d in diags
    )


def test_validate_flags_attribute_outside_substrate():
    text = "substrate S { states a ; step (a) }\nattribute x on S { zz }"
    diags = analyze_model(parse_ok(text))[1]
    assert any("not states of" in d.message for d in diags)


def test_static_variable_entry_warned_not_rejected():
    text = (
        "substrate S { states a b c ; step (a b)(c) }\n"
        "attribute x on S { a }\nattribute z on S { c }\n"
        "variable V on S { 0 : x @ 0.0 ; 1 : z @ 1.0 }\n"
    )
    model, diags = analyze_model(parse_ok(text))
    assert [(d.severity, d.line, d.message) for d in diags] == [
        ("warning", 4, "variable 'V': attribute at λ=1 is static")
    ]
    assert model.trajectories["V"].variable.domain == (0, 1)


def test_build_wires_laws_and_variables(models_dir):
    model = build_model(parse_ok((models_dir / "rotation.ctm").read_text()))
    assert set(model.timers) == {"T8", "T4", "T2", "T1"}
    assert "theta" in model.trajectories
    assert len(model.trajectories["theta"].variable.domain) == 17


def test_degenerate_counter_warned_not_rejected():
    diags = analyze_model(parse_ok("timer counter C { bits 3 ; threshold 1 }"))[1]
    assert any(d.severity == "warning" and "empty" in d.message for d in diags)
    assert not any(d.severity == "error" for d in diags)


def test_parse_then_build():
    from ctm import ModelError

    model = build_model(parse_ok("timer counter C { bits 4 ; threshold 5 }"))
    assert model.timers["C"].duration == 5
    with pytest.raises(ModelError):
        build_model(parse_ok("timer counter C { bits 3 ; threshold 9 }"))
