"""ctm's report writer against the call whose bytes it reproduces.

`ctm.cli._dump` must write every value a report can hold exactly as
`json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False,
allow_nan=False)` does, and refuse what that call refuses.  A report is
a dict, so each value here sits in a container.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctm.cli
from conftest import REPO_ROOT
from test_golden import GOLDEN

_dump = ctm.cli._dump


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)


# every code point, control characters and lone surrogates included
TEXT = st.text(st.characters(exclude_categories=()))
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.0**53, 123456789.125]
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**4299, -(10**4299), 2**64, -(2**63) - 1])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EDGE_FLOATS)
    | TEXT
)


def containers(inner):
    return (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(TEXT, inner, max_size=5)
    )


VALUES = containers(st.recursive(SCALARS, containers, max_leaves=40))


@settings(max_examples=600, deadline=None)
@given(VALUES)
def test_the_writer_writes_what_json_dumps_writes(value):
    assert _dump(value) == oracle(value)


@pytest.mark.parametrize("text", ["", "\x00\x1f\x7f\"\\/", "λ ε ∞ 𝔄", "\ud800", "a\udfffb", "  "])
def test_strings_the_writer_must_escape_or_keep(text):
    for value in ([text], {text: text}):
        assert _dump(value) == oracle(value)


@pytest.mark.parametrize("depth", range(6))
@pytest.mark.parametrize("empty", [{}, [], ()], ids=["dict", "list", "tuple"])
def test_empty_containers_at_every_depth(depth, empty):
    value = empty
    for level in range(depth):
        # a container beside a scalar, in a dict or a list by turns
        value = {"a": value, "b": 1} if level % 2 else [0, value]
        assert _dump(value) == oracle(value)


def test_every_golden_report(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    reports = []

    def record(report):
        reports.append(report)
        return _dump(report)

    monkeypatch.setattr(ctm.cli, "_dump", record)
    runs = 0
    for argv, _, _ in GOLDEN:
        try:
            ctm.cli.main(argv.split())
            runs += 1
        except SystemExit:
            pass  # the parser rejected the command line: no report
    capsys.readouterr()
    assert len(reports) == runs == 21
    for report in reports:
        assert _dump(report) == oracle(report)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_float_raises_value_error(x):
    for value in ([x], {"a": {"b": x}}):
        with pytest.raises(ValueError):
            oracle(value)
        with pytest.raises(ValueError):
            _dump(value)


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {True: 1}, {1.5: 1}, {"a": {2: []}}, {1: 1, "a": 2}])
def test_a_key_that_is_not_a_str_raises_type_error(value):
    with pytest.raises(TypeError):
        _dump(value)


@pytest.mark.parametrize("value", [[{1, 2}], {"a": b"x"}, [Fraction(1, 3)], [object()], {"a": [frozenset()]}])
def test_a_value_json_cannot_write_raises_type_error(value):
    with pytest.raises(TypeError):
        oracle(value)
    with pytest.raises(TypeError):
        _dump(value)
