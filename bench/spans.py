"""Span tracing from outside the program, around the layer calls of `ctm.cli`.

The tracer rebinds the layer functions that `ctm.cli` imported, and the two
that `ctm.timers.classify_timers` calls through its own module, with
wrappers that record a span per call: operation id, name, start, end and
parent span.  Spans stay in memory until `dump`.  Work counts come from
each call's inputs and return value; per-step `core` functions are never
wrapped, so the overhead is a few perf_counter reads per layer call.

A span's name is `<module>.<function>` and its layer is the module, so a
layer's self time is the time its spans spend outside any child span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from types import ModuleType

# names rebound in ctm.cli, and in ctm.timers for the calls nested inside classify_timers
CLI_LAYER_FUNCTIONS = (
    "parse_model",
    "validate_model",
    "build_model",
    "deductive_closure",
    "check_consistency",
    "search_impossibility",
    "validate_null_constructor",
    "check_synchrony",
    "recurrence_horizon",
    "check_simultaneous_halt",
    "check_staggered_halt",
    "classify_timers",
    "estimate_derivative",
)
TIMERS_NESTED_FUNCTIONS = ("validate_null_constructor", "check_simultaneous_halt")


def _counts(name: str, args: tuple, result, horizon) -> dict | None:
    """Work done by one call, read from its inputs and its return value."""
    if name == "dsl.parse_model":
        return {"bytes": len(args[0].encode("utf-8"))}
    if name == "tasks.deductive_closure":
        return {"statements": len(result.statements)}
    if name == "tasks.check_consistency":
        return {"contradictions": len(result.contradictions)}
    if name == "witnesses.search_impossibility":
        return {"candidates": result.candidates, "found": int(result.found)}
    if name == "timers.check_synchrony":
        # check_synchrony walks every state of the timer for one recurrence horizon
        spec = args[0]
        return {"steps": len(spec.substrate.states) * horizon(spec)}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, name, start, end, parent, counts]
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, object]] = []
        self._horizon = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                span[2] = perf_counter()
                result = fn(*args, **kwargs)
                span[3] = perf_counter()
            except BaseException as e:
                span[3] = perf_counter()
                span[5] = {f"raised_{type(e).__name__}": 1}
                raise
            finally:
                stack.pop()
            span[5] = _counts(name, args, result, self._horizon)
            return result

        return traced

    def install(self, cli: ModuleType, timers: ModuleType) -> None:
        """Rebind the layer functions; names a version of ctm no longer has are skipped."""
        self._horizon = timers.recurrence_horizon
        for module, names in ((cli, CLI_LAYER_FUNCTIONS), (timers, TIMERS_NESTED_FUNCTIONS)):
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent, counts in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "name": name, "start": start - origin, "end": end - origin,
                         "parent": parent, "counts": counts}
                    )
                    + "\n"
                )


def summarize(spans: list[list], scale_of: dict[int, float]) -> dict[str, dict]:
    """Per span name: calls, total time, self time and summed counts.

    Times are multiplied by their operation's machine-speed scale.
    """
    child_time = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, (op, name, start, end, _, counts) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += (end - start) * scale_of[op]
        row["self_s"] += (end - start - child_time[i]) * scale_of[op]
        for key, value in (counts or {}).items():
            row[key] += value
    return out


LAYERS = ("dsl", "tasks", "witnesses", "timers", "dynamics", "cli")


def layer_metrics(
    spans: list[list], scale_of: dict[int, float], passes: int, report_bytes: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per pass over the workload's corpus."""
    rows = summarize(spans, scale_of)

    def get(name: str, key: str) -> float:
        return rows[name][key] if name in rows else 0.0

    def total(names: tuple[str, ...], key: str) -> float:
        return sum(get(n, key) for n in names)

    analyze = ("dsl.validate_model", "dsl.build_model")
    synchrony = ("timers.check_synchrony", "timers.recurrence_horizon")
    pair = ("timers.check_simultaneous_halt", "timers.check_staggered_halt")
    search_calls = get("witnesses.search_impossibility", "calls")
    parse_time = get("dsl.parse_model", "total_s")
    raw = {
        "dsl.parse_s": (get("dsl.parse_model", "self_s"), "s"),
        "dsl.parse_calls": (get("dsl.parse_model", "calls"), "count"),
        "dsl.analyze_s": (total(analyze, "self_s"), "s"),
        "dsl.analyze_calls": (total(analyze, "calls"), "count"),
        "tasks.closure_s": (get("tasks.deductive_closure", "self_s"), "s"),
        "tasks.closure_calls": (get("tasks.deductive_closure", "calls"), "count"),
        "tasks.closure_statements": (get("tasks.deductive_closure", "statements"), "count"),
        "tasks.consistency_s": (get("tasks.check_consistency", "self_s"), "s"),
        "tasks.contradictions": (get("tasks.check_consistency", "contradictions"), "count"),
        "witnesses.search_s": (get("witnesses.search_impossibility", "self_s"), "s"),
        "witnesses.search_calls": (search_calls, "count"),
        "witnesses.search_candidates": (get("witnesses.search_impossibility", "candidates"), "count"),
        "timers.validate_s": (get("timers.validate_null_constructor", "self_s"), "s"),
        "timers.validate_calls": (get("timers.validate_null_constructor", "calls"), "count"),
        "timers.synchrony_s": (total(synchrony, "self_s"), "s"),
        "timers.synchrony_calls": (get("timers.check_synchrony", "calls"), "count"),
        "timers.synchrony_steps": (get("timers.check_synchrony", "steps"), "count"),
        "timers.pair_s": (total(pair, "self_s"), "s"),
        "timers.pair_calls": (total(pair, "calls"), "count"),
        "timers.classify_s": (get("timers.classify_timers", "self_s"), "s"),
        "timers.classify_calls": (get("timers.classify_timers", "calls"), "count"),
        "dynamics.estimate_s": (get("dynamics.estimate_derivative", "self_s"), "s"),
        "dynamics.estimate_calls": (get("dynamics.estimate_derivative", "calls"), "count"),
        "dynamics.advance_failures": (get("dynamics.estimate_derivative", "raised_AdvanceCheckFailed"), "count"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.report_bytes": (report_bytes, "B"),
    }
    out = {name: (value / passes, unit) for name, (value, unit) in raw.items()}
    # ratios are independent of the number of passes
    out["dsl.parse_bytes_per_s"] = (get("dsl.parse_model", "bytes") / parse_time if parse_time else 0.0, "B/s")
    out["witnesses.found_ratio"] = (
        get("witnesses.search_impossibility", "found") / search_calls if search_calls else 0.0, "share"
    )
    op_time = get("cli.main", "total_s")
    layer_self = defaultdict(float)
    for name, row in rows.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_self[layer] / op_time if op_time else 0.0, "share")
    return out
