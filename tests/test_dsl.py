import gc
import random
import re
import string
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctm import make_counter_timer
from ctm.tasks import task_label
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
import ctm._tokens
from ctm._tokens import _lex
from conftest import MODELS_DIR, assert_distinct, assert_same_value, assert_slotted
from reference_analysis import analyze_model as reference_analyze
from reference_parser import _parse_tokens, seed_lex


def parse_ok(text):
    model, diags = parse_model(text)
    assert model is not None, diags
    return model


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
    assert parse_model("") == (ModelDecl(), [])


def test_unresolved_law_reference_gets_diagnostic_with_span():
    model = parse_ok("law possible task F on P")
    diags = analyze_model(model)[1]
    assert diags and diags[0].severity == "error"
    assert diags[0].line == 1 and diags[0].column == 1
    assert "unknown task 'F'" in diags[0].message


def test_duplicate_names_rejected():
    model, diags = parse_model(
        "substrate S { states a ; step (a) }\nsubstrate S { states b ; step (b) }"
    )
    assert model is None
    assert any("duplicate" in d.message for d in diags)


def test_incomplete_step_map_is_not_a_bijection():
    model, diags = parse_model("substrate S { states a b ; step (a) }")
    assert model is None
    d = diags[0]
    assert "not a bijection" in d.message and d.suggestion


def test_repeated_state_in_cycles_rejected():
    model, diags = parse_model("substrate S { states a b ; step (a b)(a) }")
    assert model is None
    assert any("twice" in d.message for d in diags)


def test_unknown_character_reported_not_raised():
    model, diags = parse_model("law possible € -> y on P")
    assert model is None
    assert any("unexpected character" in d.message for d in diags)


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
        model, diags = parse_model(text)
        assert model is None
        lines = text.count("\n") + 1
        for d in diags:
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
        reparsed, diags = parse_model(printed)
        assert reparsed is not None, (printed, diags)
        assert reparsed == decl, printed
        assert pretty_print(reparsed) == printed


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_round_trip_property(seed):
    decl = random_decl(random.Random(seed))
    printed = pretty_print(decl)
    assert parse_model(printed) == (decl, [])


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
        model, diags = parse_model(text)
        if model is None:
            assert diags
        assert_reads_as_tokens(text)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=120))
def test_fuzz_parser_total_on_arbitrary_text(text):
    model, diags = parse_model(text)
    assert model is not None or diags
    assert_reads_as_tokens(text)


# the most digits `int` reads from text here; 0 when this interpreter has no limit
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not INT_DIGITS, reason="int() reads any number of digits")


@needs_digit_limit
@pytest.mark.parametrize(
    "statement, what",
    [
        ("timer counter C {{ bits {} ; threshold 1 }}", "bit count"),
        ("timer counter C {{ bits 3 ; threshold {} }}", "threshold"),
        ("timer particle P {{ cells {} ; speed 1 ; target 2 }}", "cell count"),
        ("timer particle P {{ cells 8 ; speed -{} ; target 2 }}", "speed"),
        ("timer particle P {{ cells 8 ; speed 1 ;\n target {} }}", "target cell"),
        ("variable v on P {{ {} : a @ 1.0 }}", "parameter value"),
        ("variable v on P {{\n 0 : a @ 1.0 ;\n -{} : b @ 2.0 }}", "parameter value"),
    ],
    ids=["bits", "threshold", "cells", "speed", "target", "lambda", "negative-lambda"],
)
def test_an_integer_literal_past_the_digit_limit_is_a_diagnostic(statement, what):
    digits = "7" * (INT_DIGITS + 1)
    text = statement.format(digits) + "\nattribute x on { a }\n"
    at = text.index(digits) - text[: text.index(digits)].endswith("-")
    line = text.count("\n", 0, at) + 1
    column = at - (text.rfind("\n", 0, at) + 1) + 1
    model, diags = parse_model(text)
    assert model is None
    # the literal costs only its own statement: the fault on the next line is reported too
    assert diags == [
        Diagnostic("error", line, column, f"{what} has too many digits"),
        Diagnostic("error", line + 1, 16, "expected substrate name, found '{'"),
    ]


@needs_digit_limit
def test_an_integer_literal_at_the_digit_limit_is_read():
    text = "timer counter C {{ bits {} ; threshold 1 }}".format("0" * (INT_DIGITS - 1) + "3")
    assert build_model(parse_ok(text)).timers["C"].duration == 1


def test_fuzz_parser_total_on_long_digit_runs(models_dir):
    """Digit runs around the interpreter's limit, spliced in anywhere, never make parsing raise.

    The reference parser raises ValueError on an integer literal past the
    limit, where `parse_model` reports the literal; otherwise the two agree.
    """
    rng = random.Random(4300)
    bases = [path.read_text() for path in fixture_texts(models_dir)] + [ring_pointer_text(3)]
    lengths = [max(INT_DIGITS, 4300) + k for k in (-1, 0, 1, 700)]
    for _ in range(300):
        base = rng.choice(bases)
        cut = rng.randrange(len(base) + 1)
        # in place of a whole number, or glued onto the text around the cut
        end = cut
        numbers = [m.span() for m in re.finditer(r"(?<![\w.])-?\d+(?![\w.])", base)]
        if numbers and rng.random() < 0.5:
            cut, end = rng.choice(numbers)
        text = base[:cut] + rng.choice(["", "-"]) + "1" * rng.choice(lengths) + base[end:]
        model, diags = parse_model(text)
        assert model is not None or diags
        try:
            want = _parse_tokens(text)
        except ValueError:  # the literal the reference parser cannot convert
            assert INT_DIGITS and any(d.message.endswith("has too many digits") for d in diags)
        else:
            assert (model, diags) == want


# lexer oracle ------------------------------------------------------------------


def lex_all(text, start=0, line=1):
    diags = []
    return list(_lex(text, start, line, diags)), diags


SEED_KINDS = {"ident", "int", "float", "eof"}  # the seed's other kinds are punctuation


def assert_lex_matches_seed(text):
    tokens, diags = lex_all(text)
    want_tokens, want_diags = seed_lex(text)
    # a punctuation kind is fixed by its text, which is still compared
    want_tokens = [(k if k in SEED_KINDS else "punct", *rest) for k, *rest in want_tokens]
    assert [tok[:4] for tok in tokens] == want_tokens, text
    assert diags == want_diags, text
    # a token's offset is where its text starts, column - 1 past its line's start
    for _, word, _, column, offset in tokens:
        assert text.startswith(word, offset), (text, offset)
        assert offset == column - 1 or text[offset - column] == "\n", (text, offset)
    # lexing from a line's first character gives the tail of the whole lex
    start = 0
    for line, row in enumerate(text.split("\n"), 1):
        tail = lex_all(text, start, line)
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
    assert parse_model(texts[-1])[0] is not None
    for text in texts:
        tokens, _ = lex_all(text)
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
    got, got_diags = parse_model(text)
    want, want_diags = _parse_tokens(text)
    assert got_diags == want_diags, text
    assert got == want, text
    assert declared_spans(got) == declared_spans(want), text


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
    # the token parser hands the lines back at the next statement that starts a line:
    # a typo followed by two statements on its line
    "attribute a on P { c0 }\natribute b on P { c1 } attribute c on P { c2 } law ✓ a -> c on P\n"
    "attribute d on P { c3 }\n",
    # a typo inside a statement over several lines
    "variable v on P {\n 0 : a @ 1.0 ;\n 1 : b 2.0 ;\n 2 : c @ 3.0\n}\nattribute a on P { c0 }\n",
    "attribute a on P {\n c0\n c1 ;\n}\nattribute b on P { c1 }\nlaw possible a -> b on P\n",
    # a typo, and a bad character 50 lines later: the lexer's diagnostic comes first
    "atribute a on P { c0 }\n"
    + "".join(f"attribute a{i} on P {{ c{i} }}\n" for i in range(49))
    + "attribute z on P { c0 }€\nlaw possible a -> z on P\n",
    # a duplicate name after the line reader takes the lines back
    "atribute a on P { c0 }\nattribute b on P { c1 }\nattribute b on P { c2 }\n",
    # a keyword inside a line the line reader would accept, reached by resynchronizing
    "attribute y on P {\nlaw ✓ task T on P\n",
    # a bad character before a keyword that starts a line
    "atribute a on P { c0 }\n€ attribute b on P { c1 }\n\fattribute c on P { c2 }\n",
    "law possible task T\n\n# comment\n  on P\nlaw possible task T on P\nlaw ✗ task T\n",
    "law possible task T\n\n\nlaw ✗ task T # c\n law possible task U\nlaw ✓ task V\n€\n",
    "law ✓ task T\n law ✓ task U\non P\nlaw ✓ task V\n# on P",
)


# one statement of each form, numbered by {0}; parsing resolves no names
FORM_LINES = (
    "substrate S{0} {{ states a b ; step (a b) }}",
    "attribute a{0} on P {{ c{0} }}",
    "timer counter C{0} {{ bits 4 ; threshold 5 }}",
    "timer particle Q{0} {{ cells 8 ; speed 1 ; target 3 }}",
    "timer custom K{0} on P {{ start a ; running b ; done c }}",
    "timer custom H{0} on P {{ start a ; running b ; done c ; halt d }}",
    "task T{0} on P : a -> b",
    "law possible a{0} -> b on P",
    "law ✓ task T{0} on P",
    "law ✗ task T{0}",
    "variable v{0} on P {{ 0 : a @ {0}.5 ; 1 : b @ -2 }}",
)


def indented_run(form):
    # the line reader tries each line against the form of the line before it,
    # so the keyword's column must still be read from each line
    lines = [form.format(i) for i in range(5)]
    lines[1] = "  " + lines[1]
    lines[2] = "\t" + lines[2]
    lines[3] += "  # a trailing comment"
    lines[4] = " \t " + lines[4] + "\t"
    return "\n".join(lines) + "\n"


# runs of one form that change along the way
RUN_CASES = (
    *(indented_run(form) for form in FORM_LINES),
    # a switch between the two law forms, and back
    "law possible a -> b on P\nlaw ✓ task T on P\nlaw impossible b -> a on P\nlaw ✗ task T\n"
    "law ✓ a -> b on P\n",
    # a duplicate name after two lines of its form
    "attribute a on P { c0 }\nattribute b on P { c1 }\nattribute a on P { c2 }\n"
    "attribute c on P { c3 }\n",
    "timer counter C { bits 4 ; threshold 5 }\ntimer counter D { bits 4 ; threshold 3 }\n"
    "timer counter C { bits 5 ; threshold 3 }\n",
    # a typo after two lines of its form
    "attribute a on P { c0 }\nattribute b on P { c1 ]\nattribute c on P { c2 }\n",
    "task T on P : a -> b\ntask U on P : a -> c\ntask V on P a -> c\ntask W on P : b -> c\n",
    "law possible a -> b on P\nlaw possible a -> c on\nlaw possible b -> c on P\n",
    # variable bodies the entry scan must hand to the token parser, or read as it does
    "variable v on P { x 0 : a @ 1 }\n",
    "variable v on P { 0 : a @ 1 ;; 1 : b @ 2 }\n",
    "variable v on P { 0 : a @ 1 ; }\n",
    "variable v on P { 0 : a @ 1 ; 1 : b @ 2.5 }\r\nvariable w on P { 0 : a @ -1e3 ; }\r\n",
)


READER_BASES = [path.read_text() for path in fixture_texts(MODELS_DIR)] + [
    ring_pointer_text(3),
    closure_text(1),
]


@pytest.mark.parametrize(
    "text", [*READER_BASES, ring_pointer_text(64), ring_pointer_text(2048), *READER_CASES, *RUN_CASES]
)
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
    (r"\n", "\n  "),  # indent a line
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
    blanks = " " * 30
    entries = f"{blanks};{blanks}".join(f"{i}{blanks}:{blanks}a{i}{blanks}@{blanks}{i}.5" for i in range(3000))
    variable = f"variable v on P {{{gap}{entries}{gap};{gap}€ }}"
    for line in (text, variable):
        start = time.perf_counter()
        _, diags = parse_model(line)
        assert time.perf_counter() - start < 2.0
        assert [d.message for d in diags] == ["unexpected character '€'"]


def typo_on_line_3(lines):
    lines[2] = lines[2].replace("attribute", "atribute", 1)
    # the token parser reads line 3 and the keyword that starts line 4
    return [(3, 1, "expected a declaration keyword, found 'atribute'")], [3] * 7 + [4]


def every_64th_attribute_split(lines):
    lexed = []
    for i in range(2048 - 64, -1, -64):  # from the end, so the lines above keep their numbers
        lines[i + 1 : i + 2] = lines[i + 1].replace(" {", "\n{", 1).split("\n")
        # each round reads `attribute aI on P`, `{ cI }` and the next line's keyword
        line = i + 2 + i // 64
        lexed[:0] = [line] * 4 + [line + 1] * 3 + [line + 2]
    return [], lexed


@pytest.mark.parametrize("edit", [typo_on_line_3, every_64th_attribute_split])
def test_a_typo_costs_only_its_own_statement(monkeypatch, edit):
    lines = ring_pointer_text(2048).split("\n")
    want_diags, want_lexed = edit(lines)
    text = "\n".join(lines)
    lexed = []

    def recording_lex(*args):
        for tok in real_lex(*args):
            lexed.append(tok)
            yield tok

    real_lex = ctm._tokens._lex
    monkeypatch.setattr(ctm._tokens, "_lex", recording_lex)
    model, diags = parse_model(text)
    assert (model, diags) == _parse_tokens(text)
    assert (model is None) == bool(want_diags)
    assert [(d.line, d.column, d.message) for d in diags] == want_diags
    # no line is lexed twice, and each round stops at the keyword that starts a line
    assert [tok[2] for tok in lexed] == want_lexed
    assert lexed[-1][:2] == ("ident", "attribute")


def test_line_reader_reads_whole_files_without_the_lexer(monkeypatch):
    texts = [ring_pointer_text(2048), closure_text(4)]
    # a None entry makes any import of the token-parser module raise
    monkeypatch.setitem(sys.modules, "ctm._tokens", None)
    for text in texts:
        model, _ = parse_model(text)
        assert model is not None
        assert model != ModelDecl()
    assert len(model.laws) == 16 and set(model.timers) == {"C", "P"}
    # a task law without its substrate, when no line after it can continue it
    tail = "law possible task T0\n\n# c\nlaw ✗ task T1 on R1\ntimer custom K on R0 { start A0_0 ; "
    tail += "running A0_1 ; done A0_2 }\nlaw ✓ task T2"
    model, _ = parse_model(texts[1] + tail)
    assert len(model.laws) == 19 and set(model.timers) == {"C", "P", "K"}
    with pytest.raises(ImportError, match="ctm._tokens"):
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


# the analysis against the frozen reference -------------------------------------------


RING = tuple(f"r{i}" for i in range(8))
# attributes on R (an 8-ring) and on F (three fixed points); "nope" is never declared
RING_ATTRIBUTES = {
    "z": {"r0"}, "run": {"r1", "r2"}, "done": {"r3", "r4", "r5", "r6", "r7"},
    "late": {"r1", "r2", "r3", "r4", "r5", "r6", "r7"}, "all": set(RING), "none": set(),
    "stray": {"r0", "q9"},
}
FIXED_ATTRIBUTES = {"f0": {"a"}, "f1": {"b"}, "f2": {"c"}}
ATTRIBUTE_NAMES = [*RING_ATTRIBUTES, *FIXED_ATTRIBUTES, "nope"]
SUBSTRATE_NAMES = ["R", "F", "B", "nope"]


def analysis_decl(rng: random.Random) -> ModelDecl:
    """A model of every declaration kind, with distinct spans; each choice is sometimes a fault."""
    line = iter(range(1, 1000))
    pick = rng.choice

    def span():
        return next(line), rng.randrange(1, 4)

    def fault():
        return rng.random() < 0.03

    def attr(good):
        """One of `good`, or sometimes any attribute name, declared or not."""
        return pick(ATTRIBUTE_NAMES) if fault() else pick(good)

    def sub_name(good):
        return pick(SUBSTRATE_NAMES) if fault() else good

    substrates = {
        "R": SubstrateDecl("R", RING, dict(zip(RING, RING[1:] + RING[:1])), span()),
        "F": SubstrateDecl("F", ("a", "b", "c"), {"a": "a", "b": "b", "c": "c"}, span()),
    }
    if rng.random() < 0.3:
        broken = [
            (("x", "y"), {"x": "y", "y": "y"}),  # not a bijection
            (("x", "y"), {"x": "y"}),  # a state unmapped
            (("x", "x"), {"x": "x"}),  # a state twice
            ((), {}),
        ]
        states, step = pick(broken) if fault() or fault() else (("x",), {"x": "x"})
        substrates["B"] = SubstrateDecl("B", states, step, span())
    attributes = {}
    for name in rng.sample(ATTRIBUTE_NAMES[:-1], len(ATTRIBUTE_NAMES) - 1):
        if fault():  # left undeclared
            continue
        if name in RING_ATTRIBUTES:
            sub, members = ("nope", ()) if fault() else ("R", RING_ATTRIBUTES[name])
            if name == "stray" and not fault():
                continue
        else:
            sub, members = (pick(["B", "nope"]) if fault() else "F"), FIXED_ATTRIBUTES[name]
        attributes[name] = AttributeDecl(name, sub, frozenset(members), span())
    timers = {}
    for i in range(rng.randrange(0, 6)):
        name, kind = f"t{i}", rng.randrange(3)
        if kind == 0:
            bits = rng.randrange(0, 14) if fault() else rng.randrange(2, 6)
            threshold = rng.randrange(-1, 70) if fault() else rng.randrange(1, 4)
            timers[name] = CounterTimerDecl(name, bits, threshold, span())
        elif kind == 1:
            cells, speed = (pick([1, 5000]), 1) if fault() else (16, pick([1, 2]))
            speed = rng.randrange(-1, 4) if fault() else speed
            target = rng.randrange(-1, 18) if fault() else speed * rng.randrange(1, 5)
            timers[name] = ParticleTimerDecl(name, cells, speed, target, span())
        else:
            start, running, done = pick([("z", "run", "done"), ("z", "none", "late")])
            halt = pick([None, done]) if not fault() else attr(["done", "late", "run"])
            timers[name] = CustomTimerDecl(
                name, sub_name("R"), attr([start]), attr([running]), attr([done]), halt, span()
            )
    tasks = {}
    for i in range(rng.randrange(0, 4)):
        names = list(RING_ATTRIBUTES) if rng.random() < 0.7 else list(FIXED_ATTRIBUTES)
        sub = "R" if names[0] == "z" else "F"
        tasks[f"T{i}"] = TaskDecl(f"T{i}", sub_name(sub), attr(names), attr(names), span())
    laws = []
    for _ in range(rng.randrange(0, 6)):
        status = pick(("possible", "impossible"))
        if laws and rng.random() < 0.2:  # the same law again, on another line
            laws.append(pick(laws)._replace(span=span()))
        elif tasks and rng.random() < 0.4:
            task = pick([*tasks, "Tx"]) if fault() else pick(list(tasks))
            sub = pick([None, None, tasks[task].substrate if task in tasks else "R"])
            laws.append(LawDecl(status, None, None, sub_name(sub), task, span()))
        else:
            names = list(RING_ATTRIBUTES) if rng.random() < 0.7 else list(FIXED_ATTRIBUTES)
            sub = "R" if names[0] == "z" else "F"
            laws.append(LawDecl(status, attr(names), attr(names), sub_name(sub), None, span()))
    variables = {}
    for i in range(rng.randrange(0, 3)):
        on_ring = rng.random() < 0.7
        names = ["z", "run", "done", pick(["all", "z"])] if on_ring else list(FIXED_ATTRIBUTES)
        lams = rng.sample(range(-3, 9), rng.randrange(0, 4))
        pool = rng.sample(names, len(names))  # distinct attributes, unless a fault repeats one
        entries = {lam: (attr([a]), round(rng.uniform(-4, 4), 3)) for lam, a in zip(lams, pool)}
        sub = sub_name("R" if on_ring else "F")
        variables[f"v{i}"] = VariableDecl(f"v{i}", sub, entries, span())
    return ModelDecl(substrates, attributes, timers, tasks, tuple(laws), variables)


# a pattern for each error branch of the analysis, and for each kind of warning
ANALYSIS_BRANCHES = [
    r"^substrate 'B': step map is not a bijection$",
    r"^substrate 'B': step map domain != state set$",
    r"^state space 'B' has duplicate state labels$",
    r"^state space 'B' has no states$",
    r"^attribute '\w+': unknown substrate '\w+'$",
    r"^attribute \w+: members .* not states of '\w+'$",
    r"^bits must be in 1\.\.12$",
    r"^threshold must satisfy",
    r"^cells must be in 2\.\.4096$",
    r"^speed must be at least 1",
    r"^target cell must lie strictly inside",
    r"^target cell \d+ is not reached",
    r"^unknown substrate '\w+'$",
    r"^unknown attribute '\w+' for '(start|running|done|halt)'$",
    r"^attribute '\w+' is not on substrate '\w+'$",
    r"^timer 't\d' is not a well-formed null constructor",
    r"^timer 't\d': starting attribute must be non-empty$",
    r"^unknown attribute '\w+'$",
    r"^unknown task '\w+'$",
    r"^task 'T\d' is not on substrate '\w+'$",
    r"^variable 'v\d': unknown substrate '\w+'$",
    r"^variable 'v\d': unknown attribute '\w+'$",
    r"^variable 'v\d': attribute '\w+' is on another substrate$",
    r"^variable 'v\d': variable entry -?\d+: attributes are not pairwise disjoint$",
    r"^timer 't\d': running attribute is empty",
    r"^timer 't\d': completed attribute stays static for",
    r"^variable 'v\d': attribute at λ=-?\d+ is static$",
]


def built_summary(model):
    """The names each table of a built model holds, and each law's label and status."""
    if model is None:
        return None
    tables = (model.substrates, model.attributes, model.timers, model.tasks, model.trajectories)
    laws = [(task_label(st.task), st.status) for st in model.laws.statements]
    return [list(table) for table in tables], laws


def test_analysis_matches_the_frozen_reference_on_every_branch():
    rng = random.Random(20250817)
    reached = set()
    built = interleaved = repeated = 0
    for i in range(10_000):
        decl = analysis_decl(rng)
        model, diags = analyze_model(decl)
        want_model, want_diags = reference_analyze(decl)
        assert diags == want_diags, i
        assert built_summary(model) == built_summary(want_model), i
        built += model is not None
        # a timer's warnings between two timer errors, and a law's error on two lines
        timer_spans = {d.span for d in decl.timers.values()}
        kinds = "".join(d.severity[0] for d in diags if (d.line, d.column) in timer_spans)
        interleaved += "ewe" in kinds or "wew" in kinds
        law_errors = [d.message for d in diags if any(d.line == law.span[0] for law in decl.laws)]
        repeated += len(law_errors) > len(set(law_errors))
        for d in diags:
            reached.update(p for p in ANALYSIS_BRANCHES if re.search(p, d.message))
            assert any(re.search(p, d.message) for p in ANALYSIS_BRANCHES), d.message
    assert reached == set(ANALYSIS_BRANCHES)
    assert 1_000 < built < 9_000 and interleaved > 100 and repeated > 100


# equality and hashing -------------------------------------------------------------


# one declaration of each kind, less its span
DECLS = [
    (SubstrateDecl, ("S", ("a", "b"), {"a": "b", "b": "a"})),
    (AttributeDecl, ("x", "S", frozenset({"a"}))),
    (CounterTimerDecl, ("C", 4, 5)),
    (ParticleTimerDecl, ("P", 16, 2, 8)),
    (CustomTimerDecl, ("K", "S", "x", "r", "o", None)),
    (TaskDecl, ("T", "S", "x", "y")),
    (LawDecl, ("possible", "x", "y", "S", None)),
    (VariableDecl, ("V", "S", {0: ("x", 0.0)})),
]


@pytest.mark.parametrize("cls, fields", DECLS, ids=[cls.__name__ for cls, _ in DECLS])
def test_declarations_that_differ_only_in_span_are_equal(cls, fields):
    here, there = cls(*fields, (1, 1)), cls(*fields, (7, 3))
    assert here == there and there == here
    assert not here != there and not there != here
    if any(isinstance(f, dict) for f in fields):  # a dict field has no hash, span or not
        with pytest.raises(TypeError):
            hash(here)
    else:
        assert hash(here) == hash(there)
    assert_distinct(here, cls(fields[0] + "2", *fields[1:], (1, 1)))
    assert_distinct(here, (*fields, (1, 1)))
    assert_slotted(here)


def test_model_decl_sorts_its_laws_and_gives_each_instance_its_own_tables():
    a = LawDecl("possible", "x", "y", "S")
    b = LawDecl("impossible", task="T")
    model = ModelDecl(laws=(b, a))
    assert model.laws == (a, b)
    assert model == ModelDecl(laws=(a, b)) and not model != ModelDecl(laws=(a, b))
    assert model != ModelDecl(laws=(a,))
    assert_distinct(ModelDecl(), ())
    first, second = ModelDecl(), ModelDecl()
    for table in ("substrates", "attributes", "timers", "tasks", "variables"):
        assert getattr(first, table) == {}
        assert getattr(first, table) is not getattr(second, table)
    assert_slotted(model)


def test_diagnostics_compare_by_value_and_built_models_by_identity(models_dir):
    diag = Diagnostic("error", 3, 1, "no", "yes")
    assert_same_value(diag, Diagnostic("error", 3, 1, "no", "yes"))
    assert_distinct(diag, Diagnostic("error", 3, 2, "no", "yes"))
    assert str(diag) == "error:3:1: no (yes)"
    decl = parse_ok((models_dir / "linear.ctm").read_text())
    model = build_model(decl)
    assert_same_value(model, model)
    assert_distinct(model, build_model(decl))
    assert_slotted(diag, model)
