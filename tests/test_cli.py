import argparse
import contextlib
import gc
import hashlib
import json
import re
import subprocess
import sys

import jsonschema
import pytest

import ctm
import ctm.cli
import ctm.tasks
from ctm.cli import main
from adversarial import BAD_SIZE, NEEDS_MORE_MEMORY, pointer_ring
from conftest import REPO_ROOT
from test_golden import GOLDEN

SCHEMA = json.loads((REPO_ROOT / "docs" / "report-schema.json").read_text())


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_json(capsys, *argv):
    status, out = run_cli(capsys, *argv)
    report = json.loads(out, parse_constant=reject_constant)
    jsonschema.validate(report, SCHEMA)
    assert report["exit_status"] == status
    return status, report


# exit codes -------------------------------------------------------------------


def test_check_ok_fixture(capsys, models_dir):
    status, report = run_json(capsys, "check", str(models_dir / "timers.ctm"))
    assert status == 0
    entry = report["files"][0]
    assert entry["status"] == "ok"
    assert all(s["synchrony_ok"] for s in entry["synchrony"])
    # one row per timer pair, faster timer first: co-halt iff the durations are equal
    durations = {"C45": 5, "C65": 5, "P5": 5, "C47": 7}
    rows = entry["timer_checks"]
    assert len(rows) == len({frozenset(row["pair"]) for row in rows}) == 6
    for row in rows:
        a, b = row["pair"]
        assert row["kind"] == ("co-halt" if durations[a] == durations[b] else "staggered-halt")
        assert durations[a] <= durations[b]
        assert (row["expected"], row["actual"], row["ok"]) == (True, True, True)
    # 4 synchrony rows, 6 pair rows and the file's closure check; the fixture has no laws
    assert report["timing"]["checks_run"] == 11


def test_check_contradiction_exits_one(capsys, models_dir):
    status, report = run_json(capsys, "check", str(models_dir / "contradiction.ctm"))
    assert status == 1
    entry = report["files"][0]
    assert entry["status"] == "refuted"
    contra = entry["contradictions"][0]
    assert contra["task"] == "x -> z on P3"
    assert contra["possible"]["provenance"]["rule"] == "serial"
    assert len(contra["possible"]["provenance"]["premises"]) == 2
    refuted = [c for c in entry["law_checks"] if c["verdict"] == "refuted"]
    assert refuted and refuted[0]["task"] == "x -> z on P3"


def test_check_malformed_file_exits_two(capsys, tmp_path, models_dir):
    bad = tmp_path / "bad.ctm"
    bad.write_text("substrate S { states a b ; step (a) }")
    status, report = run_json(capsys, "check", str(bad))
    assert status == 2
    entry = report["files"][0]
    assert entry["status"] == "input-error"
    assert any("bijection" in d["message"] for d in entry["diagnostics"])
    # a path that cannot be opened; the other files of the run are still checked
    missing = str(tmp_path / "missing.ctm")
    status, report = run_json(capsys, "check", missing, str(models_dir / "timers.ctm"))
    assert status == 2
    entry = report["files"][0]
    assert entry["status"] == "input-error"
    message = f"cannot read {missing!r}: No such file or directory"
    assert [d["message"] for d in entry["diagnostics"]] == [message]
    assert report["files"][1]["status"] == "ok"


@pytest.mark.parametrize(
    "first, second, status",
    [
        ("contradiction", "missing", 2),
        ("missing", "contradiction", 2),
        ("timers", "contradiction", 1),
        ("contradiction", "timers", 1),
    ],
)
def test_check_exits_with_the_gravest_file_status_in_any_order(
    capsys, tmp_path, models_dir, first, second, status
):
    # refuted exits 1 and an unreadable file exits 2, whichever comes first
    paths = {
        "contradiction": str(models_dir / "contradiction.ctm"),
        "timers": str(models_dir / "timers.ctm"),
        "missing": str(tmp_path / "missing.ctm"),
    }
    alone = {"contradiction": "refuted", "timers": "ok", "missing": "input-error"}
    got, report = run_json(capsys, "check", paths[first], paths[second])
    assert got == status
    assert [f["status"] for f in report["files"]] == [alone[first], alone[second]]
    for name in (first, second):
        _, single = run_json(capsys, "check", paths[name])
        assert single["files"][0]["status"] == alone[name]


def test_check_null_task_trace(capsys, models_dir):
    status, report = run_json(capsys, "check", str(models_dir / "nulltask.ctm"))
    assert status == 0
    null = report["files"][0]["null_task"]
    assert null["status"] == "possible"
    assert null["provenance"]["rule"] == "serial"
    assert len(null["provenance"]["premises"]) == 2
    assert {c["verdict"] for c in report["files"][0]["law_checks"]} == {"confirmed"}


def test_check_degenerate_fixture_confirms_declared_law(capsys, models_dir):
    status, report = run_json(capsys, "check", str(models_dir / "degenerate.ctm"))
    assert status == 0
    checks = report["files"][0]["law_checks"]
    assert checks == [
        {
            "task": "x -> y on G",
            "declared": "possible",
            "verdict": "confirmed",
            "detail": "witness found",
        }
    ]


def ring_laws(n, second):
    states = " ".join(f"r{i}" for i in range(n))
    return (
        f"substrate R {{ states {states} ; step ({states}) }}\n"
        "attribute x on R { r0 r1 }\n"
        "attribute y on R { r2 r3 r4 }\n"
        "law possible x -> y on R\n"
        f"law {second} y -> x on R\n"
    )


@pytest.mark.parametrize("n", [6, 7, 2048])
@pytest.mark.parametrize(
    "second, status, verdict", [("impossible", 0, "confirmed"), ("possible", 1, "refuted")]
)
def test_check_decides_laws_at_any_ring_size(capsys, tmp_path, n, second, status, verdict):
    model = tmp_path / "ring.ctm"
    model.write_text(ring_laws(n, second))
    got, report = run_json(capsys, "check", str(model))
    assert got == status
    checks = report["files"][0]["law_checks"]
    assert [c["verdict"] for c in checks] == ["confirmed", verdict]
    assert not any("candidates" in c for c in checks)


@pytest.mark.parametrize("n", [600, 2048])
def test_check_builds_no_composite_substrate(capsys, tmp_path, monkeypatch, n):
    # the full closure would pair the two rings into an n*n-state composite
    def refuse(*args, **kwargs):
        raise AssertionError("ctm check built a composite substrate")

    monkeypatch.setattr(ctm.tasks, "compose_substrates", refuse)
    monkeypatch.setattr(ctm.tasks, "pair_attribute", refuse)
    states = " ".join(f"r{i}" for i in range(n))
    model = tmp_path / "rings.ctm"
    model.write_text(
        "".join(
            f"substrate {sid} {{ states {states} ; step ({states}) }}\n"
            f"attribute x{sid} on {sid} {{ r0 }}\n"
            f"attribute y{sid} on {sid} {{ r1 r2 }}\n"
            f"law possible x{sid} -> y{sid} on {sid}\n"
            for sid in "AB"
        )
    )
    status, report = run_json(capsys, "check", str(model))
    assert status == 0
    # the two laws, the null task, and one composite fact on each of (A, B) and (B, A)
    assert report["files"][0]["closure_size"] == 5


def test_check_skewed_timer_fails_synchrony(capsys, tmp_path):
    skewed = tmp_path / "skewed.ctm"
    skewed.write_text(
        "substrate S8 { states s0 s1 s2 s3 s4 s5 s6 s7 ; step (s0 s1 s2 s3 s4 s5 s6 s7) }\n"
        "attribute z on S8 { s0 s1 }\n"
        "attribute r on S8 { s2 }\n"
        "attribute o on S8 { s3 s4 s5 s6 }\n"
        "timer custom K on S8 { start z ; running r ; done o }\n"
    )
    status, report = run_json(capsys, "check", str(skewed))
    assert status == 1
    entry = report["files"][0]
    assert entry["status"] == "refuted"
    assert entry["synchrony"] == [
        {"timer": "K", "synchrony_ok": False, "validation_ok": True, "recurrence_horizon": 8}
    ]


def test_check_pins_malformed_timer_diagnostics(capsys, tmp_path):
    bad = tmp_path / "malformed.ctm"
    bad.write_text(
        "substrate C4 { states c0 c1 c2 c3 ; step (c0 c1 c2 c3) }\n"
        "attribute z on C4 { c0 }\n"
        "attribute r on C4 { c1 }\n"
        "attribute o on C4 { c2 c3 }\n"
        "attribute e on C4 { }\n"
        "timer custom Early on C4 { start z ; running r ; done o ; halt r }\n"
        "timer custom Blank on C4 { start z ; running o ; done o ; halt e }\n"
        "substrate F { states f0 f1 f2 ; step (f0)(f1)(f2) }\n"
        "attribute fz on F { f0 }\n"
        "attribute fr on F { f1 }\n"
        "attribute fo on F { f2 }\n"
        "timer custom Stuck on F { start fz ; running fr ; done fo }\n"
        "timer counter W { bits 1 ; threshold 1 }\n"
    )
    status, report = run_json(capsys, "check", str(bad))
    assert status == 2
    [entry] = report["files"]
    assert entry["status"] == "input-error"

    def diag(severity, line, message):
        return {"severity": severity, "line": line, "column": 1, "message": message,
                "suggestion": None}

    malformed = "is not a well-formed null constructor"
    assert entry["diagnostics"] == [
        diag("error", 6, f"timer 'Early' {malformed}: halt-at-completion"),
        diag(
            "error",
            7,
            f"timer 'Blank' {malformed}: halt-distinguishable, halt-at-completion, "
            "attributes-disjoint",
        ),
        diag(
            "error",
            12,
            f"timer 'Stuck' {malformed}: starting-non-static, running-non-static, "
            "completed-static-for-horizon, halt-at-completion",
        ),
        diag("warning", 13, "timer 'W': running attribute is empty (duration-1 degenerate timer)"),
        diag(
            "warning",
            13,
            "timer 'W': completed attribute stays static for 0 steps, "
            "less than four durations (4)",
        ),
    ]


NOT_UTF8 = b"substrate S { states a b ; step (a b) }\n\xff\xfe\n"


@pytest.mark.parametrize(
    "command, extra",
    [
        ("check", ["timers.ctm"]),
        ("classify", []),
        ("dynamics", ["--variable", "pos", "--schedule", "4,2,1"]),
    ],
)
def test_a_model_file_that_is_not_utf8_exits_two(capsys, tmp_path, models_dir, command, extra):
    bad = tmp_path / "bad.ctm"
    bad.write_bytes(NOT_UTF8)
    extra = [str(models_dir / a) if a.endswith(".ctm") else a for a in extra]
    status, report = run_json(capsys, command, str(bad), *extra)
    assert status == 2
    diags = report["files"][0]["diagnostics"] if command == "check" else report["diagnostics"]
    message = f"cannot read {str(bad)!r}: not UTF-8 text (invalid start byte at offset 40)"
    assert [d["message"] for d in diags] == [message]
    if command == "check":
        # the other files of the run are still checked
        assert report["files"][1]["status"] == "ok"


def without_paths(report):
    del report["inputs"]
    for entry in report.get("files", []):
        del entry["path"]
    return report


@pytest.mark.parametrize(
    "prefix, newline",
    [(b"\xef\xbb\xbf", b"\n"), (b"", b"\r\n"), (b"", b"\r"), (b"\xef\xbb\xbf", b"\r\n")],
    ids=["BOM", "CRLF", "CR", "BOM+CRLF"],
)
@pytest.mark.parametrize(
    "command, extra",
    [("check", []), ("dynamics", ["--variable", "pos", "--schedule", "8,4,2,1"])],
)
def test_a_byte_order_mark_and_crlf_or_cr_line_ends_read_as_the_lf_file(
    capsys, tmp_path, models_dir, command, extra, prefix, newline
):
    original = models_dir / "linear.ctm"
    assert b"\r" not in original.read_bytes()
    copy = tmp_path / "linear.ctm"
    copy.write_bytes(prefix + original.read_bytes().replace(b"\n", newline))
    want = run_json(capsys, command, str(original), *extra)
    status, report = run_json(capsys, command, str(copy), *extra)
    assert status == 0
    assert (status, without_paths(report)) == (want[0], without_paths(want[1]))


def test_a_bad_byte_after_crlf_lines_is_named_at_its_offset_in_the_file(
    capsys, tmp_path, models_dir
):
    good = b"\xef\xbb\xbf" + (models_dir / "linear.ctm").read_bytes().replace(b"\n", b"\r\n")
    bad = tmp_path / "bad.ctm"
    bad.write_bytes(good + b"\xff\r\n")
    status, report = run_json(capsys, "check", str(bad))
    assert status == 2
    offset = len(good)
    message = f"cannot read {str(bad)!r}: not UTF-8 text (invalid start byte at offset {offset})"
    assert [d["message"] for d in report["files"][0]["diagnostics"]] == [message]


# classify ----------------------------------------------------------------------


def test_classify_two_classes(capsys, models_dir):
    status, report = run_json(capsys, "classify", str(models_dir / "timers.ctm"))
    assert status == 0
    assert report["classes"] == [
        {"duration": 5, "members": ["C45", "C65", "P5"]},
        {"duration": 7, "members": ["C47"]},
    ]


def test_classify_single_timer(capsys, tmp_path):
    one = tmp_path / "one.ctm"
    one.write_text("timer counter C { bits 4 ; threshold 6 }\n")
    status, report = run_json(capsys, "classify", str(one))
    assert status == 0
    assert report["classes"] == [{"duration": 6, "members": ["C"]}]


def test_classify_invalid_timer_exits_two(capsys, tmp_path, models_dir):
    bad = tmp_path / "bad.ctm"
    bad.write_text("timer counter C { bits 3 ; threshold 9 }\n")
    status, report = run_json(capsys, "classify", str(bad))
    assert status == 2
    assert report["classes"] == []
    # the same timers in two files: one error per timer, in file order
    timers = str(models_dir / "timers.ctm")
    status, report = run_json(capsys, "classify", timers, timers)
    assert status == 2
    errors = [(d["message"], d["path"]) for d in report["diagnostics"] if d["severity"] == "error"]
    assert errors == [
        (f"timer {name!r} declared in more than one file", timers)
        for name in ("C45", "C65", "P5", "C47")
    ]
    assert report["classes"] == []


# dynamics ------------------------------------------------------------------------


def test_dynamics_sine_fixture(capsys, models_dir, tmp_path):
    csv_path = tmp_path / "rows.csv"
    status, report = run_json(
        capsys,
        "dynamics",
        str(models_dir / "rotation.ctm"),
        "--variable",
        "theta",
        "--at",
        "0",
        "--schedule",
        "8,4,2,1",
        "--csv",
        str(csv_path),
    )
    assert status == 0
    assert report["extrapolated"] == pytest.approx(0.10021185185307335)
    assert 0.8 <= report["order"] <= 1.2
    assert report["timers_from_model"] is True
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "dlam,ratio"
    assert len(rows) == 5


def test_dynamics_unwritable_csv_exits_two_and_still_reports(capsys, models_dir, tmp_path):
    target = tmp_path / "missing" / "rows.csv"
    status, report = run_json(
        capsys,
        "dynamics",
        str(models_dir / "linear.ctm"),
        "--variable",
        "pos",
        "--schedule",
        "8,4,2,1",
        "--csv",
        str(target),
    )
    assert status == 2
    assert report["ratios"] == [1.0, 1.0, 1.0, 1.0]
    assert "csv" not in report
    errors = [d["message"] for d in report["diagnostics"] if d["severity"] == "error"]
    assert len(errors) == 1 and errors[0].startswith(f"cannot write {str(target)!r}: ")


def test_dynamics_linear_fixture_constant_ratios(capsys, models_dir):
    status, report = run_json(
        capsys,
        "dynamics",
        str(models_dir / "linear.ctm"),
        "--variable",
        "pos",
        "--schedule",
        "8,4,2,1",
    )
    assert status == 0
    assert report["ratios"] == [1.0, 1.0, 1.0, 1.0]
    assert report["order"] is None


def test_dynamics_advance_failure_exits_one(capsys, tmp_path):
    text = (
        "substrate R { states r0 r1 r2 r3 r4 r5 r6 r7 ; step (r0 r1 r2 r3 r4 r5 r6 r7) }\n"
        "attribute a0 on R { r0 }\n"
        "attribute a1 on R { r1 }\n"
        "attribute a2 on R { r2 }\n"
        "attribute a3 on R { r4 }\n"  # wrong cell: a 3-step advance lands at r3
        "variable v on R { 0 : a0 @ 0.0 ; 1 : a1 @ 1.0 ; 2 : a2 @ 2.0 ; 3 : a3 @ 3.0 }\n"
    )
    model = tmp_path / "drift.ctm"
    model.write_text(text)
    status, report = run_json(
        capsys, "dynamics", str(model), "--variable", "v", "--schedule", "2,1"
    )
    assert status == 2  # schedule too short is an input error
    status, report = run_json(
        capsys, "dynamics", str(model), "--variable", "v", "--schedule", "2,1,1"
    )
    assert status == 2  # non-decreasing schedule rejected
    status, report = run_json(
        capsys, "dynamics", str(model), "--variable", "v", "--schedule", "3,2,1"
    )
    assert status == 1
    assert report["advance_failure"] == {"lam": "0", "dlam": "3"}


def test_dynamics_advance_from_an_empty_entry_exits_one(capsys, tmp_path):
    model = tmp_path / "empty.ctm"
    model.write_text(
        "substrate R { states r0 r1 r2 r3 r4 r5 r6 r7 ; step (r0 r1 r2 r3 r4 r5 r6 r7) }\n"
        "attribute e on R { }\n"
        + "".join(f"attribute a{i} on R {{ r{i} }}\n" for i in (1, 2, 3))
        + "variable v on R { 0 : e @ 0.0 ; 1 : a1 @ 5.0 ; 2 : a2 @ 6.0 ; 3 : a3 @ 7.0 }\n"
    )
    status, report = run_json(
        capsys, "dynamics", str(model), "--variable", "v", "--schedule", "3,2,1"
    )
    assert status == 1
    assert report["advance_failure"] == {"lam": "0", "dlam": "3"}
    assert [d["message"] for d in report["diagnostics"]] == [
        "variable 'v': attribute at λ=0 is static"
    ]


def test_dynamics_unknown_variable_exits_two(capsys, models_dir):
    status, report = run_json(
        capsys,
        "dynamics",
        str(models_dir / "linear.ctm"),
        "--variable",
        "nope",
        "--schedule",
        "4,2,1",
    )
    assert status == 2


def test_dynamics_unparseable_at_exits_two(capsys, models_dir):
    for at in ("zero", "1/0"):
        status, report = run_json(
            capsys,
            "dynamics",
            str(models_dir / "linear.ctm"),
            "--variable",
            "pos",
            "--at",
            at,
            "--schedule",
            "4,2,1",
        )
        assert status == 2
        assert any("bad argument" in d["message"] for d in report["diagnostics"])


RING8 = (
    "substrate R { states r0 r1 r2 r3 r4 r5 r6 r7 ; step (r0 r1 r2 r3 r4 r5 r6 r7) }\n"
    + "".join(f"attribute a{i} on R {{ r{i} }}\n" for i in range(8))
)


def ring_variable(readings):
    entries = " ; ".join(f"{i} : a{i} @ {r}" for i, r in enumerate(readings))
    return RING8 + f"variable v on R {{ {entries} }}\n"


@pytest.mark.parametrize("reading", ["1e999", "-1e999", "9" * 400], ids=["inf", "-inf", "huge-int"])
def test_dynamics_non_finite_reading_exits_two(capsys, tmp_path, reading):
    text = ring_variable(["0.0", reading, "2.0", "3.0", "4.0"])
    model = tmp_path / "huge.ctm"
    model.write_text(text)
    status, report = run_json(
        capsys, "dynamics", str(model), "--variable", "v", "--schedule", "4,2,1"
    )
    assert status == 2
    [diag] = report["diagnostics"]
    lines = text.splitlines()
    assert diag["line"] == len(lines)
    assert diag["column"] == lines[-1].index(reading) + 1
    assert "must be finite" in diag["message"]


@pytest.mark.parametrize(
    "readings",
    [
        ["-1.5e308", "1.5e308", "1.5e308", "1.5e308", "1.5e308"],  # the ratios overflow
        ["0.0", "1.7e308", "1.7e308", "1.7e308", "1.7e308"],  # only their mean does
    ],
    ids=["ratios", "mean"],
)
def test_dynamics_overflowing_estimate_exits_two(capsys, tmp_path, readings):
    model = tmp_path / "overflow.ctm"
    model.write_text(ring_variable(readings))
    status, report = run_json(
        capsys, "dynamics", str(model), "--variable", "v", "--schedule", "4,2,1"
    )
    assert status == 2
    assert "ratios" not in report and "extrapolated" not in report
    assert any("overflow" in d["message"] for d in report["diagnostics"])


@pytest.mark.parametrize(
    "at, schedule",
    [
        ("1" * 1001, "8,4,2,1"),  # too long
        ("0", "1" * 1001 + ",2,1"),
        ("1e-1000", "8,4,2,1"),  # an exponent past ±999, in any spelling
        ("1.5E+01000", "8,4,2,1"),
        ("1e9_999", "8,4,2,1"),  # Fraction reads this exponent as 9999
        ("1e\u0661\u0660\u0660\u0660", "8,4,2,1"),  # and this one, in Arabic-Indic digits, as 1000
        ("0", "1e1000,2,1"),
    ],
    ids=["long-at", "long-step", "1e-1000", "1.5E+01000", "1e9_999", "arabic-indic", "step-1e1000"],
)
def test_dynamics_arguments_that_could_name_a_huge_number_are_bad(capsys, models_dir, at, schedule):
    status, report = run_json(
        capsys, "dynamics", str(models_dir / "linear.ctm"), "--variable", "pos",
        "--at", at, "--schedule", schedule,
    )
    assert status == 2
    assert report["diagnostics"][-1]["message"] == BAD_SIZE


@pytest.mark.parametrize(
    "at, schedule, sum_",
    [
        # the largest numbers the bounds let through: λ + Δλ has about 2,000 digits,
        # and every message still prints it
        ("9" * 996 + "e999", "8,4,2,1", 10**1995 - 10**999 + 8),
        ("1/" + "9" * 998, "9" * 1000 + ",2,1", None),
        ("1e-999", "9" * 1000 + ",2,1", None),
    ],
    ids=["9e1994", "1/(10^998-1)", "1e-999"],
)
def test_dynamics_prints_the_largest_numbers_it_reads(capsys, models_dir, at, schedule, sum_):
    status, report = run_json(
        capsys, "dynamics", str(models_dir / "linear.ctm"), "--variable", "pos",
        "--at", at, "--schedule", schedule,
    )
    assert status == 2
    message = report["diagnostics"][-1]["message"]
    assert message.startswith("λ + Δλ = ") and message.endswith(" outside the variable's domain")
    if sum_ is not None:
        assert message == f"λ + Δλ = {sum_} outside the variable's domain"


def out_of_memory_once(monkeypatch, where="_check_timers"):
    """Make the first call of ctm.cli's `where` raise MemoryError, and later calls succeed."""
    real = getattr(ctm.cli, where)
    calls = []

    def fail_once(*args):
        calls.append(where)
        if len(calls) == 1:
            raise MemoryError
        return real(*args)

    monkeypatch.setattr(ctm.cli, where, fail_once)


@pytest.mark.parametrize("where", ["_check_timers", "_dump"])
def test_a_memory_error_after_the_load_writes_only_a_small_report(
    capsys, monkeypatch, models_dir, where
):
    out_of_memory_once(monkeypatch, where)
    # run_json parses the whole of stdout as one report
    status, report = run_json(capsys, "check", str(models_dir / "timers.ctm"))
    assert status == 2
    assert sorted(report) == [
        "command", "diagnostics", "engine", "exit_status", "inputs", "options", "schema", "timing"
    ]
    assert [(d["severity"], d["message"]) for d in report["diagnostics"]] == NEEDS_MORE_MEMORY
    assert report["timing"] == {"checks_run": 0}


class _StdoutOutOfMemoryOnce:
    """A stdout whose first write of a report raises MemoryError and writes nothing."""

    def __init__(self, stdout):
        self.stdout = stdout
        self.failed = False

    def write(self, text):
        if text.startswith("{") and not self.failed:
            self.failed = True
            raise MemoryError
        return self.stdout.write(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_memory_error_in_the_write_writes_only_a_small_report(capsys, monkeypatch, models_dir, fmt):
    monkeypatch.setattr(sys, "stdout", _StdoutOutOfMemoryOnce(sys.stdout))
    status, out = run_cli(capsys, "check", str(models_dir / "timers.ctm"), "--format", fmt)
    assert status == 2
    if fmt == "text":
        # one header, the small report, the elapsed time and the exit status
        header, out = out.split("\n", 1)
        out, elapsed, exit_line, end = out.rsplit("\n", 3)
        assert header == f"ctm check (engine {ctm.__version__})"
        assert (exit_line, end) == ("exit: 2", "")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert [(d["severity"], d["message"]) for d in report["diagnostics"]] == NEEDS_MORE_MEMORY


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-0.5"])
def test_tol_must_be_finite_and_non_negative(capsys, models_dir, tol):
    with pytest.raises(SystemExit) as exc:
        main(["dynamics", str(models_dir / "linear.ctm"), "--variable", "pos",
              "--schedule", "4,2,1", f"--tol={tol}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--tol must be finite and >= 0" in err


@pytest.mark.parametrize("horizon", ["-1", "-10"])
def test_horizon_must_be_non_negative(capsys, models_dir, horizon):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(models_dir / "timers.ctm"), f"--horizon={horizon}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--horizon must be >= 0" in err


# determinism and plumbing -----------------------------------------------------------


def test_reports_byte_identical_across_runs(capsys, models_dir):
    argv = ("check", str(models_dir / "timers.ctm"))
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    _, c1 = run_cli(capsys, "classify", str(models_dir / "timers.ctm"))
    _, c2 = run_cli(capsys, "classify", str(models_dir / "timers.ctm"))
    assert c1 == c2


def parser_sequence(models_dir, tmp_path):
    """Command lines that mix reports of every exit status with argparse exits."""
    bad = tmp_path / "bad.ctm"
    bad.write_text("substrate S { states a b ; step (a) }")
    linear = str(models_dir / "linear.ctm")
    variables = {"linear.ctm": "pos", "rotation.ctm": "theta"}
    argvs = []
    for path in sorted(models_dir.glob("*.ctm")):
        variable = variables.get(path.name, "pos")
        argvs += [
            ["check", str(path)],
            ["check", str(path), "--horizon", "3"],
            ["classify", str(path)],
            ["dynamics", str(path), "--variable", variable, "--schedule", "8,4,2,1"],
        ]
    return argvs + [
        ["check", str(bad)],
        ["check", linear, "--budget", "1"],
        ["dynamics", linear, "--schedule", "4,2,1"],
        ["dynamics", linear, "--variable", "pos", "--schedule", "4,2,1", "--tol", "nan"],
        ["check", linear, "--horizon", "-1"],
        ["--version"],
    ]


def outcome(capsys, argv):
    """The exit status (or SystemExit code), stdout and stderr of one main call."""
    try:
        status = main(argv)
    except SystemExit as e:
        status = ("SystemExit", e.code)
    out, err = capsys.readouterr()
    return status, out, err


def test_main_reuses_one_parser_and_prints_what_a_fresh_parser_prints(
    capsys, tmp_path, models_dir, monkeypatch
):
    argvs = parser_sequence(models_dir, tmp_path)
    fresh = []
    for argv in argvs:
        ctm.cli._parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    builds = []
    build_parser = ctm.cli.build_parser

    def counted_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(ctm.cli, "build_parser", counted_build)
    ctm.cli._parser.cache_clear()
    reused = [outcome(capsys, argv) for argv in argvs]
    assert len(builds) == 1
    for argv, want, got in zip(argvs, fresh, reused):
        assert got == want, argv
    statuses = {status for status, _, _ in fresh}
    assert {0, 1, 2, ("SystemExit", 0), ("SystemExit", 2)} <= statuses
    # a direct call still hands each caller a parser of its own
    assert build_parser() is not build_parser()


# each way a command line takes through main, and the parser that reads it: "command" for
# the subcommand's own parser, "top level" for argparse's full parse; "f" is linear.ctm
DISPATCH = [
    ("top level", []),
    ("top level", ["-h"]),
    ("top level", ["--version"]),
    ("top level", ["chek", "f"]),
    ("command", ["check"]),
    ("command", ["check", "-h"]),
    ("command", ["check", "f", "--hor", "3"]),
    ("top level", ["check", "f", "--horizon=3"]),
    ("command", ["dynamics", "f", "--var", "pos", "--schedule", "4,2,1"]),
    ("command", ["check", "--", "f"]),
    ("command", ["check", "f", "--h", "1"]),
    ("top level", ["check", "f", "--version"]),
    ("top level", ["check", "f", "--horizon", "1", "f"]),
    ("command", ["classify", "f", "--format", "text", "--format", "json"]),
    ("command", ["dynamics", "f", "--variable", "pos", "--schedule", "4,2,1", "--at", "-3"]),
    ("command", ["dynamics", "f", "--variable", "pos", "--schedule", "4,2,1", "--at", "-3/2"]),
    # an abbreviation of both --help and --version, which only the top level rejects
    ("top level", ["check", "f", "--=x"]),
]


@pytest.mark.parametrize(
    "path, argv", DISPATCH, ids=[" ".join(argv) or "no arguments" for _, argv in DISPATCH]
)
def test_main_gives_what_the_full_parser_gives(capsys, monkeypatch, models_dir, path, argv):
    argv = [str(models_dir / "linear.ctm") if word == "f" else word for word in argv]
    top_level, parsed = [], []
    parse_args, run = argparse.ArgumentParser.parse_args, ctm.cli._run

    def recorded_parse_args(parser, *args):
        top_level.append(parser.prog)
        return parse_args(parser, *args)

    def recorded_run(args, started):
        parsed.append(args)
        return run(args, started)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded_parse_args)
    monkeypatch.setattr(ctm.cli, "_run", recorded_run)
    got = outcome(capsys, argv)
    assert top_level == ([] if path == "command" else ["ctm"])
    # the same line with no subcommand parser to hand it to: argparse's full parse
    monkeypatch.setattr(ctm.cli, "_parser", lambda: (ctm.cli.build_parser(), {}))
    assert outcome(capsys, argv) == got
    try:
        want = [ctm.cli.build_parser().parse_args(argv)] * 2
    except SystemExit:
        want = []
    capsys.readouterr()
    assert parsed == want


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "timers.ctm", "--horizon", "3"],
        ["classify", "timers.ctm", "--tol", "0.1"],
        ["check", "timers.ctm", "--tol", "0.1"],
        ["dynamics", "linear.ctm", "--variable", "pos", "--schedule", "4,2,1", "--horizon", "3"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_a_flag_the_subcommand_does_not_read_is_an_unknown_argument(capsys, models_dir, argv):
    argv = [argv[0], str(models_dir / argv[1]), *argv[2:]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {argv[-2]}" in err


def test_budget_is_an_unknown_argument(capsys, models_dir):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(models_dir / "timers.ctm"), "--budget", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --budget" in err


@pytest.mark.parametrize("budget", ["0", "5"])
def test_budget_out_of_range_exits_two(capsys, models_dir, budget):
    # A budget outside the old 1..4 range still exits 2: the flag is gone.
    with pytest.raises(SystemExit) as exc:
        main(["check", str(models_dir / "timers.ctm"), "--budget", budget])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_model_root_env_var(capsys, models_dir, monkeypatch):
    monkeypatch.setenv("CTM_MODEL_ROOT", str(models_dir))
    status, report = run_json(capsys, "classify", "timers.ctm")
    assert status == 0
    assert report["inputs"] == ["timers.ctm"]
    # a file in neither place is reported under the name it was given
    status, report = run_json(capsys, "classify", "missing.ctm")
    assert status == 2
    message = "cannot read 'missing.ctm': No such file or directory"
    assert [d["message"] for d in report["diagnostics"]] == [message]


def test_text_format(capsys, models_dir):
    status, out = run_cli(capsys, "check", str(models_dir / "timers.ctm"), "--format", "text")
    assert status == 0
    # a header line, the JSON report, the elapsed time and the exit status
    header, rest = out.split("\n", 1)
    body, elapsed, exit_line, end = rest.rsplit("\n", 3)
    assert header == f"ctm check (engine {ctm.__version__})"
    assert re.fullmatch(r"elapsed: \d+\.\d ms", elapsed)
    assert (exit_line, end) == ("exit: 0", "")
    assert run_cli(capsys, "check", str(models_dir / "timers.ctm")) == (0, body + "\n")


def test_cli_subprocess_entry_point(models_dir):
    result = subprocess.run(
        [sys.executable, "-m", "ctm.cli", "check", str(models_dir / "nulltask.ctm")],
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(result.stdout)
    assert report["exit_status"] == 0
    assert report["files"][0]["null_task"] is not None


# the cyclic garbage collector -----------------------------------------------------
# main pauses the collector for the command; that wastes nothing only because no
# command makes a reference cycle, which these tests check case by case


@contextlib.contextmanager
def collector(enabled):
    """The cyclic garbage collector on or off inside the block, as it was after it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


# every golden command line that gets past argparse and writes a report
COMMAND_GOLDENS = [argv for argv, _, digest in GOLDEN if digest != hashlib.sha256(b"").hexdigest()]


def cycle_case(name, models_dir, tmp_path, monkeypatch):
    """The command line of one case that must make no reference cycle, its files written."""
    linear = str(models_dir / "linear.ctm")
    dynamics = ["dynamics", linear, "--variable", "pos", "--schedule", "8,4,2,1"]
    if name == "missing file":
        return ["check", str(tmp_path / "missing.ctm")]
    if name == "not UTF-8":
        (tmp_path / "bad.ctm").write_bytes(NOT_UTF8)
        return ["check", str(tmp_path / "bad.ctm")]
    if name == "typo in a 2048-cell ring":
        # the stray `x` sends the whole statement, every cell of it, to the token parser
        cells = " ".join(f"r{i}" for i in range(2048))
        (tmp_path / "typo.ctm").write_text(f"substrate R {{ states {cells} ; step ({cells}) x }}\n")
        return ["check", str(tmp_path / "typo.ctm")]
    if name == "misaligned dynamics":
        variable = "variable v on R { 0 : a0 @ 0.0 ; 1 : a1 @ 1.0 ; 2 : a2 @ 2.0 ; 3 : a4 @ 3.0 }\n"
        (tmp_path / "drift.ctm").write_text(RING8 + variable)
        return ["dynamics", str(tmp_path / "drift.ctm"), "--variable", "v", "--schedule", "3,2,1"]
    if name == "unknown variable":
        return ["dynamics", linear, "--variable", "nope", "--schedule", "4,2,1"]
    if name == "unparseable --at":
        return [*dynamics, "--at", "zero"]
    if name == "unwritable --csv":
        return [*dynamics, "--csv", str(tmp_path / "missing" / "rows.csv")]
    if name == "text format":
        return [*dynamics, "--format", "text"]
    assert name == "out of memory"
    out_of_memory_once(monkeypatch)
    return ["check", str(models_dir / "timers.ctm")]


CYCLE_CASES = [
    "missing file",
    "not UTF-8",
    "typo in a 2048-cell ring",
    "misaligned dynamics",
    "unknown variable",
    "unparseable --at",
    "unwritable --csv",
    "text format",
    "out of memory",
]
CYCLE_STATUS = {"misaligned dynamics": 1, "text format": 0}


def unreachable_after_main(capsys, argv):
    """main's exit status and the count of unreachable objects it left, collector off."""
    # the parser, built once per process before the pause, leaves argparse's
    # help formatters in reference cycles; build it first
    ctm.cli._parser()
    with collector(False):
        gc.collect()
        status = main(argv)
        garbage = gc.collect()
    capsys.readouterr()
    return status, garbage


@pytest.mark.parametrize("argv", COMMAND_GOLDENS)
def test_a_golden_command_makes_no_reference_cycle(capsys, monkeypatch, argv):
    monkeypatch.chdir(REPO_ROOT)
    assert unreachable_after_main(capsys, argv.split())[1] == 0


@pytest.mark.parametrize("name", CYCLE_CASES)
def test_a_failing_command_makes_no_reference_cycle(capsys, tmp_path, monkeypatch, models_dir, name):
    argv = cycle_case(name, models_dir, tmp_path, monkeypatch)
    assert unreachable_after_main(capsys, argv) == (CYCLE_STATUS.get(name, 2), 0)


def test_no_collection_starts_inside_main(capsys, tmp_path):
    # a 2,048-cell load keeps about 8,000 tracked objects, enough for several collections
    model = tmp_path / "pointer.ctm"
    model.write_text(pointer_ring(2048))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    ctm.cli._parser()
    argv = ["dynamics", str(model), "--variable", "pos", "--at", "3", "--schedule", "64,32,16,8"]
    with collector(True):
        gc.callbacks.append(count)
        try:
            status = main(argv)
        finally:
            gc.callbacks.remove(count)
    capsys.readouterr()
    assert (status, starts) == (0, [])


def state_case(name, models_dir, monkeypatch):
    """One main call of each way out: a return, a MemoryError, an exception, SystemExit."""
    timers = str(models_dir / "timers.ctm")
    if name == "check":
        assert main(["check", timers]) == 0
    elif name == "out of memory":
        out_of_memory_once(monkeypatch)
        assert main(["check", timers]) == 2
    elif name == "exception":

        def fail(path):
            raise RuntimeError("load failed")

        monkeypatch.setattr(ctm.cli, "_load_file", fail)
        with pytest.raises(RuntimeError):
            main(["check", timers])
    else:
        argv = ["--version"] if name == "--version" else [
            "dynamics", timers, "--variable", "v", "--schedule", "4,2,1", "--tol", "nan"
        ]
        with pytest.raises(SystemExit):
            main(argv)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("name", ["check", "out of memory", "exception", "--version", "--tol nan"])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, models_dir, name, enabled):
    threshold = gc.get_threshold()
    with collector(enabled):
        state_case(name, models_dir, monkeypatch)
        assert (gc.isenabled(), gc.get_threshold()) == (enabled, threshold)
    capsys.readouterr()
