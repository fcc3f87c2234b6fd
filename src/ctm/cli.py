"""Command-line front-end: check, classify, dynamics.

Reports are JSON by default and byte-identical across runs on identical
inputs; the timing field therefore carries a deterministic work counter,
never wall-clock time (`--format text` shows elapsed time for humans).
Exit status: 0 success, 1 refutation or contradiction, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import __version__
from .core import ModelError
from .dsl import BuiltModel, Diagnostic, analyze_model, parse_model
from .dynamics import AdvanceCheckFailed, estimate_derivative
from .tasks import (
    Declared,
    Derived,
    LawStatement,
    NullTask,
    Possibility,
    check_consistency,
    closure_summary,
)
from .timers import (
    check_simultaneous_halt,
    check_staggered_halt,
    check_synchrony,
    classify_timers,
    recurrence_horizon,
)
from .witnesses import permutation_possible

SCHEMA = "ctm-report/1"
ENV_MODEL_ROOT = "CTM_MODEL_ROOT"

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2


def _resolve(path: str) -> str:
    if os.path.exists(path):
        return path
    root = os.environ.get(ENV_MODEL_ROOT)
    if root:
        candidate = os.path.join(root, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _diag_dict(d: Diagnostic) -> dict:
    return {
        "severity": d.severity,
        "line": d.line,
        "column": d.column,
        "message": d.message,
        "suggestion": d.suggestion,
    }


def _attr_label(attr) -> str:
    return attr.name or "{" + ",".join(sorted(map(str, attr.members))) + "}"


def _task_label(task) -> str:
    if isinstance(task, NullTask):
        return "null"
    return f"{_attr_label(task.input)} -> {_attr_label(task.output)} on {task.substrate.id}"


def _stmt_dict(st: LawStatement) -> dict:
    out = {"task": _task_label(st.task), "status": st.status.value}
    if isinstance(st.provenance, Declared):
        out["provenance"] = {"kind": "declared"}
    else:
        prov: Derived = st.provenance
        out["provenance"] = {
            "kind": "derived",
            "rule": prov.rule,
            "premises": [_stmt_dict(p) for p in prov.premises],
        }
    return out


def _load_file(path: str) -> tuple[BuiltModel | None, list[Diagnostic]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        return None, [Diagnostic("error", 0, 0, f"cannot read {path!r}: {e.strerror}")]
    except UnicodeDecodeError as e:
        message = f"cannot read {path!r}: not UTF-8 text ({e.reason} at offset {e.start})"
        return None, [Diagnostic("error", 0, 0, message)]
    parsed = parse_model(text)
    if parsed.model is None:
        return None, parsed.diagnostics
    return analyze_model(parsed.model)


def _check_laws(model: BuiltModel) -> tuple[list[dict], bool]:
    """Confirm or refute each declared law, at any substrate size.

    A law is one (input, output) pair, and a substrate permutation performs
    it iff |input| <= |output| (Hall's condition, permutation_possible).
    """
    results = []
    refuted = False
    for st in model.laws.statements:
        task = st.task
        entry = {"task": _task_label(task), "declared": st.status.value}
        found = permutation_possible(task)
        expected = st.status is Possibility.POSSIBLE
        if found == expected:
            entry["verdict"] = "confirmed"
            entry["detail"] = (
                "witness found" if found else "no witness over all substrate permutations"
            )
        else:
            entry["verdict"] = "refuted"
            entry["detail"] = (
                "witness exists for a declared-impossible task"
                if found
                else "no witness exists for a declared-possible task"
            )
            refuted = True
        results.append(entry)
    return results, refuted


def _check_timers(model: BuiltModel, horizon: int | None) -> tuple[list[dict], list[dict], bool]:
    names = sorted(model.timers)
    pair_checks = []
    synchrony = []
    failed = False
    for name in names:
        spec = model.timers[name]
        # a loaded timer passed every check but the horizon-dependent one
        validation_ok = horizon is None or spec.static_horizon >= horizon
        ok = check_synchrony(spec)
        synchrony.append(
            {
                "timer": name,
                "synchrony_ok": ok,
                "validation_ok": validation_ok,
                "recurrence_horizon": recurrence_horizon(spec),
            }
        )
        if not ok or not validation_ok:
            failed = True
    for i, n1 in enumerate(names):
        for n2 in names[i + 1 :]:
            # the faster timer first; a stable sort keeps an equal pair in name order
            fast, slow = sorted((n1, n2), key=lambda n: model.timers[n].duration)
            a, b = model.timers[fast], model.timers[slow]
            if a.duration == b.duration:
                kind, actual = "co-halt", check_simultaneous_halt(a, b)
            else:
                kind, actual = "staggered-halt", check_staggered_halt(a, b)
            pair_checks.append(
                {
                    "kind": kind,
                    "pair": [fast, slow],
                    "expected": True,
                    "actual": actual,
                    "ok": actual is True,
                }
            )
            failed |= actual is not True
    return pair_checks, synchrony, failed


def cmd_check(args) -> tuple[dict, int]:
    files = []
    status = EXIT_OK
    checks_run = 0
    for path in args.models:
        resolved = _resolve(path)
        model, diags = _load_file(resolved)
        entry: dict = {"path": path, "diagnostics": [_diag_dict(d) for d in diags]}
        if model is None:
            entry["status"] = "input-error"
            files.append(entry)
            status = EXIT_INPUT
            continue
        closed, entry["closure_size"] = closure_summary(model.laws)
        consistency = check_consistency(closed)
        entry["contradictions"] = [
            {
                "task": _task_label(c.task),
                "possible": _stmt_dict(c.possible),
                "impossible": _stmt_dict(c.impossible),
            }
            for c in consistency.contradictions
        ]
        null_stmt = next(
            (
                st
                for st in closed.statements
                if isinstance(st.task, NullTask) and st.status is Possibility.POSSIBLE
            ),
            None,
        )
        entry["null_task"] = _stmt_dict(null_stmt) if null_stmt else None
        law_checks, law_refuted = _check_laws(model)
        pair_checks, synchrony, timer_failed = _check_timers(model, args.horizon)
        entry["law_checks"] = law_checks
        entry["timer_checks"] = pair_checks
        entry["synchrony"] = synchrony
        checks_run += len(law_checks) + len(pair_checks) + len(synchrony) + 1
        file_bad = bool(consistency.contradictions) or law_refuted or timer_failed
        entry["status"] = "refuted" if file_bad else "ok"
        if file_bad and status != EXIT_INPUT:
            status = EXIT_REFUTED
        files.append(entry)
    report = {"files": files, "timing": {"checks_run": checks_run}}
    return report, status


def cmd_classify(args) -> tuple[dict, int]:
    pool = {}
    diagnostics = []
    status = EXIT_OK
    for path in args.models:
        model, diags = _load_file(_resolve(path))
        diagnostics += [_diag_dict(d) | {"path": path} for d in diags]
        if model is None:
            status = EXIT_INPUT
            continue
        for name, spec in model.timers.items():
            if name in pool:
                message = f"timer {name!r} declared in more than one file"
                diagnostics.append(_diag_dict(Diagnostic("error", 0, 0, message)) | {"path": path})
                status = EXIT_INPUT
            else:
                pool[name] = spec
        if not model.timers:
            diagnostics.append(
                _diag_dict(Diagnostic("error", 0, 0, "no timers declared")) | {"path": path}
            )
            status = EXIT_INPUT
    report: dict = {"diagnostics": diagnostics}
    if status == EXIT_OK and pool:
        classes = classify_timers([pool[name] for name in sorted(pool)])
        report["classes"] = [
            {
                "duration": cls.duration,
                "members": [m.name for m in cls.members],
            }
            for cls in classes
        ]
        report["timing"] = {"checks_run": len(pool) * (len(pool) - 1) // 2}
    else:
        report["classes"] = []
        report["timing"] = {"checks_run": 0}
    return report, status


def cmd_dynamics(args) -> tuple[dict, int]:
    path = args.models[0]
    model, diags = _load_file(_resolve(path))
    report: dict = {"diagnostics": [_diag_dict(d) for d in diags]}
    if model is None:
        return report, EXIT_INPUT
    if args.variable not in model.trajectories:
        report["diagnostics"].append(
            _diag_dict(
                Diagnostic(
                    "error",
                    0,
                    0,
                    f"no variable named {args.variable!r} in {path!r}",
                    f"declared variables: {sorted(model.trajectories) or 'none'}",
                )
            )
        )
        return report, EXIT_INPUT
    try:
        schedule = [int(s) for s in args.schedule.split(",") if s.strip()]
        at = Fraction(args.at)
    except (ValueError, ZeroDivisionError) as e:
        report["diagnostics"].append(
            _diag_dict(
                Diagnostic(
                    "error",
                    0,
                    0,
                    f"bad argument: {e}",
                    "schedule is a comma-separated decreasing list, e.g. 8,4,2,1; "
                    "--at is a rational like 0 or 3/2",
                )
            )
        )
        return report, EXIT_INPUT
    trajectory = model.trajectories[args.variable]
    by_duration = {}
    for name in sorted(model.timers):
        spec = model.timers[name]
        by_duration.setdefault(spec.duration, spec)
    timers = {d: by_duration[d] for d in schedule if d in by_duration}
    try:
        est = estimate_derivative(
            trajectory,
            at,
            schedule,
            timers=timers if len(timers) == len(schedule) else None,
        )
    except AdvanceCheckFailed as e:
        report["advance_failure"] = {"lam": str(e.lam), "dlam": str(e.dlam)}
        return report, EXIT_REFUTED
    except ModelError as e:
        report["diagnostics"].append(_diag_dict(Diagnostic("error", 0, 0, str(e))))
        return report, EXIT_INPUT
    residual_max = max(abs(r) for r in est.residuals)
    report.update(
        {
            "variable": args.variable,
            "at": str(est.lam),
            "schedule": list(est.schedule),
            "ratios": list(est.ratios),
            "extrapolated": est.extrapolated,
            "order": est.order,
            "residual_max": residual_max,
            "fit_ok": residual_max <= args.tol,
            "timers_from_model": len(timers) == len(schedule),
            "timing": {"checks_run": len(est.schedule)},
        }
    )
    if args.csv:
        try:
            with open(args.csv, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["dlam", "ratio"])
                for d, r in zip(est.schedule, est.ratios):
                    writer.writerow([d, repr(r)])
        except OSError as e:
            message = f"cannot write {args.csv!r}: {e.strerror}"
            report["diagnostics"].append(_diag_dict(Diagnostic("error", 0, 0, message)))
            return report, EXIT_INPUT
        report["csv"] = args.csv
    return report, EXIT_OK


def _dump(report: dict) -> str:
    """The report as JSON; a NaN or infinity raises instead of printing invalid JSON."""
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)


def _render_text(report: dict, elapsed_ms: float) -> str:
    lines = [f"ctm {report['command']} (engine {report['engine']['version']})"]
    lines.append(_dump(report))
    lines.append(f"elapsed: {elapsed_ms:.1f} ms")
    lines.append(f"exit: {report['exit_status']}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctm", description="Verify task-possibility models, classify timers, recover dynamics."
    )
    parser.add_argument("--version", action="version", version=f"ctm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # `options` names the flags a subcommand reads, echoed in its report
    p_check = sub.add_parser("check", help="closure, consistency, law and timer checks")
    p_check.add_argument("models", nargs="+")
    p_check.add_argument("--format", choices=("json", "text"), default="json")
    p_check.add_argument("--horizon", type=int, default=None, help="static-horizon override, >= 0")
    p_check.set_defaults(func=cmd_check, options=("horizon",))

    p_classify = sub.add_parser("classify", help="partition declared timers by duration")
    p_classify.add_argument("models", nargs="+")
    p_classify.add_argument("--format", choices=("json", "text"), default="json")
    p_classify.set_defaults(func=cmd_classify, options=())

    p_dyn = sub.add_parser("dynamics", help="estimate a derivative over a timer schedule")
    p_dyn.add_argument("models", nargs=1)
    p_dyn.add_argument("--variable", required=True)
    p_dyn.add_argument("--at", default="0", help="parameter value λ (default 0)")
    p_dyn.add_argument("--schedule", required=True, help="comma-separated decreasing Δλ list")
    p_dyn.add_argument("--csv", default=None, help="write (Δλ, ratio) rows to this file")
    p_dyn.add_argument("--format", choices=("json", "text"), default="json")
    p_dyn.add_argument("--tol", type=float, default=0.05, help="fit tolerance, finite and >= 0")
    p_dyn.set_defaults(func=cmd_dynamics, options=("tol",))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "dynamics" and not (math.isfinite(args.tol) and args.tol >= 0):
        parser.error("--tol must be finite and >= 0")
    if args.command == "check" and args.horizon is not None and args.horizon < 0:
        parser.error("--horizon must be >= 0")
    report, status = args.func(args)
    report["schema"] = SCHEMA
    report["engine"] = {"name": "ctm", "version": __version__}
    report["command"] = args.command
    report["inputs"] = list(args.models)
    report["options"] = {name: getattr(args, name) for name in args.options}
    report["exit_status"] = status
    if args.format == "json":
        sys.stdout.write(_dump(report) + "\n")
    else:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        sys.stdout.write(_render_text(report, elapsed_ms))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
