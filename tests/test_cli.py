import json
import subprocess
import sys

import jsonschema
import pytest

import ctm.tasks
from ctm.cli import main
from conftest import REPO_ROOT, prime_cycle_substrate

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


def test_check_malformed_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.ctm"
    bad.write_text("substrate S { states a b ; step (a) }")
    status, report = run_json(capsys, "check", str(bad))
    assert status == 2
    entry = report["files"][0]
    assert entry["status"] == "input-error"
    assert any("bijection" in d["message"] for d in entry["diagnostics"])


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


def test_check_rejects_a_never_completing_timer_on_prime_cycles_in_bounded_time(tmp_path):
    # the start lies on the 2-cycle and completion on the 3-cycle, so it never completes;
    # the substrate's recurrence period is about 6.5e9 steps, its longest cycle 29
    cycles = prime_cycle_substrate(29).cycles
    model = tmp_path / "primes.ctm"
    model.write_text(
        f"substrate P {{ states {' '.join(s for c in cycles for s in c)} ; "
        f"step {''.join('(' + ' '.join(c) + ')' for c in cycles)} }}\n"
        "attribute z on P { c2_0 }\n"
        "attribute r on P { c2_1 }\n"
        "attribute o on P { c3_0 }\n"
        "timer custom T on P { start z ; running r ; done o }\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "ctm.cli", "check", str(model)],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert result.returncode == 2
    [entry] = json.loads(result.stdout)["files"]
    assert [d["message"] for d in entry["diagnostics"]] == [
        "timer 'T' is not a well-formed null constructor: "
        "completed-static-for-horizon, halt-at-completion"
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


def test_classify_invalid_timer_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.ctm"
    bad.write_text("timer counter C { bits 3 ; threshold 9 }\n")
    status, report = run_json(capsys, "classify", str(bad))
    assert status == 2
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


def test_text_format(capsys, models_dir):
    status, out = run_cli(capsys, "check", str(models_dir / "timers.ctm"), "--format", "text")
    assert status == 0
    assert out.startswith("ctm check")
    assert "elapsed:" in out


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
