"""Command-line front-end: check, classify, dynamics.

Reports are JSON by default and byte-identical across runs on identical
inputs; the timing field therefore carries a deterministic work counter,
never wall-clock time (`--format text` shows elapsed time for humans).
Exit status: 0 success, 1 a refuted law or timer check, 2 input error or a
stdout closed before the report was written.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring  # the C function the stdlib uses without ensure_ascii
from typing import Sequence

from . import __version__
from .core import ModelError
from .dsl import BuiltModel, Diagnostic, analyze_model, parse_model
from .dynamics import AdvanceCheckFailed, estimate_derivative
from .tasks import (
    LawStatement,
    Possibility,
    closure_summary,
    permutation_possible,
    task_label,
)
from .timers import (
    check_simultaneous_halt,
    check_staggered_halt,
    check_synchrony,
    classify_timers,
    recurrence_horizon,
)

SCHEMA = "ctm-report/1"
ENV_MODEL_ROOT = "CTM_MODEL_ROOT"

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2

# `dynamics` reads --at and each --schedule step only up to this length and with
# an exponent within ±999: every number it forms or prints then has at most about
# 2,000 digits, inside the interpreter's 4,300-digit limit on printing an int
MAX_ARGUMENT_CHARS = 1000
_EXPONENT_RE = re.compile(r"[eE][-+]?(\d+)")


def _resolve(path: str) -> str:
    if os.path.exists(path):
        return path
    root = os.environ.get(ENV_MODEL_ROOT)
    if root:
        candidate = os.path.join(root, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _error(message: str, suggestion: str | None = None) -> dict:
    """The report entry of an error diagnostic that no line of a model file carries."""
    return Diagnostic("error", 0, 0, message, suggestion)._asdict()


def _stmt_dict(st: LawStatement) -> dict:
    out = {"task": task_label(st.task), "status": st.status.value}
    prov = st.provenance
    if prov is None:
        out["provenance"] = {"kind": "declared"}
    else:
        out["provenance"] = {
            "kind": "derived",
            "rule": prov.rule,
            "premises": [_stmt_dict(p) for p in prov.premises],
        }
    return out


def _load_file(path: str) -> tuple[BuiltModel | None, list[Diagnostic]]:
    """The model at `path`, looked up under CTM_MODEL_ROOT too, and every diagnostic of its load."""
    path = _resolve(path)
    try:
        with open(path, "rb") as fh:
            # one decode of the bytes, without a text-mode file object; not utf-8-sig,
            # so a decode error's offset is the byte's offset in the file
            text = fh.read().decode("utf-8")
        if "\r" in text:
            # what text mode's universal newlines did
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        text = text.removeprefix("\ufeff")
        decl, diags = parse_model(text)
        if decl is None:
            return None, diags
        return analyze_model(decl)
    except OSError as e:
        return None, [Diagnostic("error", 0, 0, f"cannot read {path!r}: {e.strerror}")]
    except UnicodeDecodeError as e:
        message = f"cannot read {path!r}: not UTF-8 text ({e.reason} at offset {e.start})"
        return None, [Diagnostic("error", 0, 0, message)]
    except MemoryError:
        # the diagnostic is built after the handler, once the partial model is freed
        pass
    message = f"cannot load {path!r}: the model needs more memory than this process may use"
    return None, [Diagnostic("error", 0, 0, message)]


# (some permutation performs the law, the law is declared possible) -> (verdict, detail)
_LAW_VERDICTS = {
    (True, True): ("confirmed", "witness found"),
    (False, False): ("confirmed", "no witness over all substrate permutations"),
    (True, False): ("refuted", "witness exists for a declared-impossible task"),
    (False, True): ("refuted", "no witness exists for a declared-possible task"),
}

# a file's exit status by its status; a run exits with the largest of its files'
_FILE_EXIT = {"ok": EXIT_OK, "refuted": EXIT_REFUTED, "input-error": EXIT_INPUT}


def _check_laws(model: BuiltModel) -> list[dict]:
    """Confirm or refute each declared law, at any substrate size.

    A law is one (input, output) pair, and a substrate permutation performs
    it iff |input| <= |output| (Hall's condition, permutation_possible).
    """
    rows = []
    for st in model.laws.statements:
        key = (permutation_possible(st.task), st.status is Possibility.POSSIBLE)
        verdict, detail = _LAW_VERDICTS[key]
        rows.append(
            {
                "task": task_label(st.task),
                "declared": st.status.value,
                "verdict": verdict,
                "detail": detail,
            }
        )
    return rows


def _check_timers(model: BuiltModel, horizon: int | None) -> tuple[list[dict], list[dict]]:
    """The model's timer-pair rows and its synchrony rows, one per timer, in name order."""
    timers = model.timers
    names = sorted(timers)
    synchrony = [
        {
            "timer": name,
            # a loaded timer passed every check but the horizon-dependent one
            "validation_ok": horizon is None or timers[name].static_horizon >= horizon,
            "synchrony_ok": check_synchrony(timers[name]),
            "recurrence_horizon": recurrence_horizon(timers[name]),
        }
        for name in names
    ]
    pair_checks = []
    for i, n1 in enumerate(names):
        for n2 in names[i + 1 :]:
            # the faster timer first; an equal pair stays in name order
            fast, slow = (n2, n1) if timers[n2].duration < timers[n1].duration else (n1, n2)
            a, b = timers[fast], timers[slow]
            if a.duration == b.duration:
                kind, actual = "co-halt", check_simultaneous_halt(a, b)
            else:
                kind, actual = "staggered-halt", check_staggered_halt(a, b)
            ok = actual is True
            pair_checks.append(
                {"kind": kind, "pair": [fast, slow], "expected": True, "actual": actual, "ok": ok}
            )
    return pair_checks, synchrony


def cmd_check(args) -> tuple[dict, int]:
    files = []
    checks_run = 0
    for path in args.models:
        model, diags = _load_file(path)
        entry: dict = {"path": path, "diagnostics": [d._asdict() for d in diags]}
        files.append(entry)
        if model is None:
            entry["status"] = "input-error"
            continue
        contradictions, null_stmt, entry["closure_size"] = closure_summary(model.laws)
        entry["contradictions"] = [
            {
                "task": task_label(c.task),
                "possible": _stmt_dict(c.possible),
                "impossible": _stmt_dict(c.impossible),
            }
            for c in contradictions
        ]
        entry["null_task"] = _stmt_dict(null_stmt) if null_stmt else None
        laws = _check_laws(model)
        pairs, synchrony = _check_timers(model, args.horizon)
        entry.update(law_checks=laws, timer_checks=pairs, synchrony=synchrony)
        checks_run += len(laws) + len(pairs) + len(synchrony) + 1
        # contradictions decide nothing: serial composition keeps |in| <= |out|, parallel
        # composition multiplies both sides, a .ctm file cannot declare the null task and
        # composites carry no declared law, so every contradiction has a refuted law row
        refuted = (
            any(row["verdict"] == "refuted" for row in laws)
            or not all(row["ok"] for row in pairs)
            or not all(row["synchrony_ok"] and row["validation_ok"] for row in synchrony)
        )
        entry["status"] = "refuted" if refuted else "ok"
    report = {"files": files, "timing": {"checks_run": checks_run}}
    return report, max(_FILE_EXIT[entry["status"]] for entry in files)


def cmd_classify(args) -> tuple[dict, int]:
    pool = {}
    diagnostics = []
    for path in args.models:
        model, diags = _load_file(path)
        diagnostics += [d._asdict() | {"path": path} for d in diags]
        if model is None:
            continue  # a model that fails to load leaves an error diagnostic
        for name, spec in model.timers.items():
            if name in pool:
                message = f"timer {name!r} declared in more than one file"
                diagnostics.append(_error(message) | {"path": path})
            pool.setdefault(name, spec)
        if not model.timers:
            diagnostics.append(_error("no timers declared") | {"path": path})
    report: dict = {"diagnostics": diagnostics, "classes": [], "timing": {"checks_run": 0}}
    if any(d["severity"] == "error" for d in diagnostics):
        return report, EXIT_INPUT
    for cls in classify_timers([pool[name] for name in sorted(pool)]):
        members = [m.name for m in cls.members]
        report["classes"].append({"duration": cls.duration, "members": members})
    report["timing"]["checks_run"] = len(pool) * (len(pool) - 1) // 2
    return report, EXIT_OK


def _bounded(text: str, read):
    """`read(text)`; ValueError, before any arithmetic, for a text that could name a huge number.

    A text of at most MAX_ARGUMENT_CHARS characters whose exponent, if any,
    lies within ±999 names a number of at most about 2,000 digits.  The
    exponent is read as `Fraction` reads it: without underscores, and in
    any script's decimal digits.
    """
    too_long = len(text) > MAX_ARGUMENT_CHARS
    if too_long or any(int(e) > 999 for e in _EXPONENT_RE.findall(text.replace("_", ""))):
        limits = f"at most {MAX_ARGUMENT_CHARS} characters and an exponent within ±999"
        raise ValueError(f"a number may have {limits}")
    return read(text)


def cmd_dynamics(args) -> tuple[dict, int]:
    path = args.models[0]
    model, diags = _load_file(path)
    report: dict = {"diagnostics": [d._asdict() for d in diags]}
    if model is None:
        return report, EXIT_INPUT
    try:
        if args.variable not in model.trajectories:
            raise ModelError(
                f"no variable named {args.variable!r} in {path!r}",
                f"declared variables: {sorted(model.trajectories) or 'none'}",
            )
        try:
            schedule = [_bounded(s, int) for s in args.schedule.split(",") if s.strip()]
            at = _bounded(args.at, Fraction)
        except (ValueError, ZeroDivisionError) as e:
            raise ModelError(
                f"bad argument: {e}",
                "schedule is a comma-separated decreasing list, e.g. 8,4,2,1; "
                "--at is a rational like 0 or 3/2",
            ) from None
        # of the model's timers of one duration, the first by name
        by_duration = {s.duration: s for _, s in sorted(model.timers.items(), reverse=True)}
        timers = {d: by_duration[d] for d in schedule if d in by_duration}
        est = estimate_derivative(
            model.trajectories[args.variable],
            at,
            schedule,
            timers=timers if len(timers) == len(schedule) else None,
        )
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
            import csv

            rows = [("dlam", "ratio"), *zip(est.schedule, map(repr, est.ratios))]
            try:
                with open(args.csv, "w", newline="", encoding="utf-8") as fh:
                    csv.writer(fh).writerows(rows)
            except OSError as e:
                raise ModelError(f"cannot write {args.csv!r}: {e.strerror}") from None
            report["csv"] = args.csv
    except AdvanceCheckFailed as e:
        report["advance_failure"] = {"lam": str(e.lam), "dlam": str(e.dlam)}
        return report, EXIT_REFUTED
    except ModelError as e:
        report["diagnostics"].append(_error(*e.args))
        return report, EXIT_INPUT
    return report, EXIT_OK


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


# the JSON text of each scalar class, by exact class; all but floats are C calls
_SCALAR_TEXT = {
    str: encode_basestring,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    float: _float_text,
}


def _write(value, out: list, prefix: str, newline: str) -> None:
    """Append `prefix` and the JSON text of the dict, list or tuple `value` to `out`.

    `newline` is a line break and the indent of the line `value` starts on.
    Each scalar item becomes one chunk, with its separator, key and
    indent: one chunk per token would take more memory than the stdlib.
    """
    cls = value.__class__
    if cls is dict:
        if not value:
            out.append(prefix + "{}")
            return
        inner = newline + "  "
        sep = prefix + "{" + inner
        comma = "," + inner
        for key in sorted(value):
            item = value[key]
            # encode_basestring raises TypeError on a key that is not a str
            head = sep + encode_basestring(key) + ": "
            text = _SCALAR_TEXT.get(item.__class__)
            if text is None:
                _write(item, out, head, inner)
            else:
                out.append(head + text(item))
            sep = comma
        out.append(newline + "}")
    elif cls is list or cls is tuple:
        if not value:
            out.append(prefix + "[]")
            return
        inner = newline + "  "
        sep = prefix + "[" + inner
        comma = "," + inner
        for item in value:
            text = _SCALAR_TEXT.get(item.__class__)
            if text is None:
                _write(item, out, sep, inner)
            else:
                out.append(sep + text(item))
            sep = comma
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _dump(report) -> str:
    """The report's JSON text, byte for byte as the stdlib's `json.dumps` writes it.

    The stdlib call takes `sort_keys=True, indent=2, ensure_ascii=False,
    allow_nan=False`.  With `indent` set, it runs the stdlib's pure-Python
    encoder, a chain of generators that every chunk of output passes
    through; this writer appends to one list and joins it once, in well
    under half the time.  It takes dict, list, tuple, str, int, float, bool
    and None by exact class, as no report holds a subclass, and raises
    TypeError on anything else; ValueError on a NaN or an infinity; and
    TypeError on a dict key that is not a str, which the stdlib would
    convert, because no report has one.  `report` itself is a dict, list
    or tuple.
    """
    out: list[str] = []
    _write(report, out, "", "\n")
    return "".join(out)


def _envelope(report: dict, args, status: int) -> dict:
    """`report` with the fields every command's report carries."""
    report["schema"] = SCHEMA
    report["engine"] = {"name": "ctm", "version": __version__}
    report["command"] = args.command
    report["inputs"] = list(args.models)
    report["options"] = {name: getattr(args, name) for name in args.options}
    report["exit_status"] = status
    return report


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the `ctm` command line; each call builds a fresh one."""
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


def _table(parser: argparse.ArgumentParser, command_dest: str, name: str) -> tuple:
    """The table `main` reads a well-formed line of the command `name` from, off its parser.

    A tuple: each option string of a one-value store flag -> (dest, type or
    None, choices); the dest of the command's one positional and its nargs,
    "+" or 1; the dests of the required flags; each dest -> its default, in
    the order argparse sets them, the command first; and (dest, type,
    default) of each flag whose default is a str, which argparse passes
    through the type when no word gives the flag.
    """
    flags, required, typed = {}, [], []
    defaults = {command_dest: name}
    for action in parser._actions:
        if action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
        if not action.option_strings:
            models = action
        elif type(action) is argparse._StoreAction and action.nargs is None:
            flag = (action.dest, action.type, action.choices)
            flags.update(dict.fromkeys(action.option_strings, flag))
            if action.required:
                required.append(action.dest)
            elif action.type is not None and isinstance(action.default, str):
                typed.append((action.dest, action.type, action.default))
    defaults.update(parser._defaults)
    return flags, models.dest, models.nargs, tuple(required), defaults, tuple(typed)


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The one parser `main` reuses, and the table of each command; built on the first call.

    Not built at import.  Reuse is safe: `parse_args` writes only to a new
    Namespace; every default is immutable (None, "json", "0", 0.05, the
    command functions and the `options` tuples); `nargs` lists are built
    fresh on each parse; `prog` is fixed at "ctm"; help formatters are made
    when help or an error is formatted, so COLUMNS still applies then; and
    `parser.error` and `--version` raise SystemExit without changing the
    parser.
    """
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, {name: _table(command, sub.dest, name) for name, command in sub.choices.items()}


def _read(table: tuple, words: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse makes of a command's `words`; None for a line argparse must judge.

    A word that starts with "-" is a flag's exact option string, followed by
    a value that does not start with "-" and passes the flag's type and
    choices; the last of a repeated flag wins.  Every other word is a model,
    and the models stand together, as many as `nargs` asks.  A required flag
    must be given.
    """
    flags, models_dest, nargs, required, defaults, typed = table
    values = {}
    models = []
    split = False  # a flag came after a model, so one more model splits them
    rest = iter(words)
    for word in rest:
        if word[:1] != "-":
            if split:
                return None
            models.append(word)
            continue
        flag = flags.get(word)
        value = next(rest, "-")  # a flag that ends the line has no value, as if "-" followed
        if flag is None or value[:1] == "-":
            return None
        dest, convert, choices = flag
        if convert is not None:
            try:
                value = convert(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        split = bool(models)
    if not models or (nargs == 1 and len(models) != 1):
        return None
    for dest in required:
        if dest not in values:
            return None
    for dest, convert, default in typed:
        if dest not in values:
            try:
                values[dest] = convert(default)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
    args = argparse.Namespace()
    namespace = vars(args)
    namespace.update(defaults)
    namespace[models_dest] = models
    namespace.update(values)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Run one `ctm` command line and return its exit status.

    May be called many times in one process; every call after the first
    reuses one parser, and each report is byte-identical to a `ctm` run's.
    A well-formed line is read without argparse, from a table of each
    command's flags that `_parser` takes off the parser `build_parser`
    returns: the command, then exact flags each with a value that does not
    start with "-" and passes the flag's type and choices, and the models
    standing together.  Every other line, such as one with an abbreviated
    flag, an "=" form, help, a negative number, a bad value, a missing model
    or required flag, or models split by a flag, is read by argparse's full
    parse, so help, usage and every error message are argparse's.  Both
    give the same Namespace.  The cyclic garbage collector is paused from
    the parsed command line to the last write, and left as the caller had
    it: no command makes a reference cycle, so each collection would only
    walk live objects.  A stdout whose reader has gone ends the run with
    exit 2 and no traceback.
    """
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, tables = _parser()
    table = tables.get(argv[0]) if argv else None
    args = None if table is None else _read(table, argv[1:])
    if args is None:
        args = parser.parse_args(argv)
    if args.command == "dynamics" and not (math.isfinite(args.tol) and args.tol >= 0):
        parser.error("--tol must be finite and >= 0")
    if args.command == "check" and args.horizon is not None and args.horizon < 0:
        parser.error("--horizon must be >= 0")
    collecting = gc.isenabled()
    gc.disable()
    try:
        status = _run(args, started)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader has gone; what is left to write goes to os.devnull, so that the
        # interpreter's own flush at exit finds no closed pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()
    return status


def _run(args, started: float) -> int:
    """Run the parsed command `args` and write its report; its exit status."""
    # the header needs only the command line, so it is written before the report can fail
    if args.format == "text":
        sys.stdout.write(f"ctm {args.command} (engine {__version__})\n")
    text = None
    try:
        report, status = args.func(args)
        text = _dump(_envelope(report, args, status))
        report = None
        # the write encodes all of the text into bytes before it writes any of them, so a
        # MemoryError here leaves none of the report on stdout
        sys.stdout.write(text)
    except MemoryError:
        text = None
    if text is None:
        # the error report is built here, once the partial one is freed
        report = None
        status = EXIT_INPUT
        message = f"ctm {args.command} needs more memory than this process may use"
        report = {"diagnostics": [_error(message)], "timing": {"checks_run": 0}}
        sys.stdout.write(_dump(_envelope(report, args, status)))
    # apart from the text, so that no second copy of a large text is made to end it
    if args.format == "json":
        sys.stdout.write("\n")
    else:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        sys.stdout.write(f"\nelapsed: {elapsed_ms:.1f} ms\nexit: {status}\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
