"""Seeded `.ctm` corpora for the benchmark workloads, with known answers.

Each workload turns a seed into a list of operations: a `ctm` command line
over generated files plus the answer that command must give.  Every answer
comes from the generator's own construction and never from `ctm`:

* closure  - a planted contradiction gives exit 1 and lists the planted
  task; a clean file gives exit 0.
* search   - a single-pair task is possible iff |input| <= |output|.
* timers   - duration is `threshold` for a counter timer and
  `target / speed` for a particle timer; classes are the groups of equal
  duration, and `check` exits 0.
* dynamics - linear readings give the exact slope; sine readings land
  within `--tol` of the analytic derivative; a misaligned file exits 1
  naming (lambda, dlambda); a malformed file exits 2 at the planted line.

Work sizes are stratified: the sizes that set a file's cost (substrate
count, laws per substrate, state count, timer size, ring length) follow a
fixed profile, and the seed draws everything else (labels, orderings,
durations, readings, where the faults go).  Different seeds then give
different inputs of near-equal total work, so run-to-run spread measures
the program and the machine rather than the draw.  Every negative case
occurs in every corpus.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple


@dataclass(frozen=True)
class Op:
    """One `ctm` invocation and its known answer."""

    argv: tuple[str, ...]
    exit: int
    path: str
    expect: dict


class _Names:
    """Distinct seeded identifiers.

    An upper-case prefix keeps every name clear of the DSL's lower-case
    keywords.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def new(self, prefix: str) -> str:
        while True:
            name = prefix + "".join(self.rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))
            if name not in self.used:
                self.used.add(name)
                return name


def _write(workdir: str, index: int, lines: list[str]) -> str:
    path = os.path.join(workdir, f"{index:03d}.ctm")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _label(inp: str, out: str, substrate: str) -> str:
    return f"{inp} -> {out} on {substrate}"


# --------------------------------------------------------------------- closure

# Laws per substrate, one tuple per model.  Cost grows about as facts^2 per
# closure round, so one more law or substrate can cost 5-10x; shapes whose
# closure takes seconds (e.g. 4 x 4 laws, about 16 s) are left out.  A third
# of the shapes are cheap (under 15 ms), a third mid-sized (25-40 ms) and a
# third expensive (60-120 ms), so p50 falls inside the mid-sized cluster
# and p90 inside the expensive one rather than in the gap between two.
CLOSURE_SHAPES = (
    (2,), (4,), (2, 2), (2, 3),
    (3, 3), (2, 4), (2, 2, 3), (2, 2, 2, 2),
    (2, 3, 3), (2, 2, 4), (3, 4), (2, 2, 2, 3),
)
CLOSURE_COPIES = 5  # the first copy of each shape carries a planted contradiction


def gen_closure(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for index, (shape, copy) in enumerate(itertools.product(CLOSURE_SHAPES, range(CLOSURE_COPIES))):
        names = _Names(rng)
        laws = list(shape)
        rng.shuffle(laws)
        planted_on = rng.randrange(len(laws)) if copy == 0 else None
        planted = []
        lines = [f"# closure: {len(laws)} four-state rings, chained laws per ring {laws}"]
        for j, m in enumerate(laws):
            sub = names.new("R")
            states = [names.new("Q") for _ in range(4)]
            ring = rng.sample(states, 4)
            lines.append(f"substrate {sub} {{ states {' '.join(states)} ; step ({' '.join(ring)}) }}")
            attrs = [names.new("A") for _ in range(4)]
            lines += [f"attribute {a} on {sub} {{ {s} }}" for a, s in zip(attrs, states)]
            chain = rng.sample(attrs, 4)
            lines += [f"law possible {chain[k]} -> {chain[(k + 1) % 4]} on {sub}" for k in range(m)]
            if j == planted_on:
                # chain[k] -> chain[k+1] -> chain[k+2] derives the planted task as possible
                k = rng.randrange(m - 1)
                lines.append(f"law impossible {chain[k]} -> {chain[(k + 2) % 4]} on {sub}")
                planted.append(_label(chain[k], chain[(k + 2) % 4], sub))
        path = _write(workdir, index, lines)
        ops.append(Op(("check", path), 1 if planted else 0, path, {"contradictions": planted}))
    return ops


def verify_closure(op: Op, report: dict) -> str | None:
    entry = report["files"][0]
    found = [c["task"] for c in entry["contradictions"]]
    if found != op.expect["contradictions"]:
        return f"contradictions {found} != planted {op.expect['contradictions']}"
    if entry["status"] != ("refuted" if found else "ok"):
        return f"file status {entry['status']!r}"
    return None


# ---------------------------------------------------------------------- search

SEARCH_STATES = (5, 6)
SEARCH_LAWS = (12, 16, 20, 24, 28, 32, 36, 40)
SEARCH_POSSIBLE = 3  # correctly declared possible laws per file
SEARCH_MISDECLARED_EVERY = 4  # one law in every fourth file carries the wrong status


def _subset(rng: random.Random, states: list[str], size: int) -> frozenset:
    return frozenset(rng.sample(states, size))


def gen_search(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for index, (n, law_count) in enumerate(itertools.product(SEARCH_STATES, SEARCH_LAWS)):
        names = _Names(rng)
        sub = names.new("R")
        states = [names.new("Q") for _ in range(n)]
        attr_names: dict[frozenset, str] = {}
        used: set[tuple[frozenset, frozenset]] = set()
        # members of possible-status laws: an output never equals an input, so
        # no two possible laws chain and the closure stays idle
        poss_in: set[frozenset] = set()
        poss_out: set[frozenset] = set()
        laws: list[tuple[str, frozenset, frozenset]] = []

        def add(status: str, wide_input: bool) -> None:
            while True:
                if wide_input:  # |input| > |output|: no witness, the full n! sweep
                    k_in = rng.randrange(2, n)
                    k_out = rng.randrange(1, k_in)
                else:
                    k_in = rng.randrange(1, n)
                    k_out = rng.randrange(k_in, n)
                a, b = _subset(rng, states, k_in), _subset(rng, states, k_out)
                if a == b or (a, b) in used:
                    continue
                if status == "possible" and (a in poss_out or b in poss_in):
                    continue
                break
            used.add((a, b))
            if status == "possible":
                poss_in.add(a)
                poss_out.add(b)
            laws.append((status, a, b))

        misdeclared = index % SEARCH_MISDECLARED_EVERY == 1
        for _ in range(SEARCH_POSSIBLE):
            add("possible", wide_input=False)
        if misdeclared:
            if index % (2 * SEARCH_MISDECLARED_EVERY) == 1:
                add("possible", wide_input=True)
            else:
                add("impossible", wide_input=False)
        while len(laws) < law_count:
            add("impossible", wide_input=True)
        rng.shuffle(laws)

        lines = [f"# search: {n} states, {law_count} laws"]
        ring = rng.sample(states, n)
        lines.append(f"substrate {sub} {{ states {' '.join(states)} ; step ({' '.join(ring)}) }}")
        for _, a, b in laws:
            for members in (a, b):
                if members not in attr_names:
                    attr_names[members] = names.new("A")
                    lines.append(f"attribute {attr_names[members]} on {sub} {{ {' '.join(sorted(members))} }}")
        verdicts = {}
        for status, a, b in laws:
            lines.append(f"law {status} {attr_names[a]} -> {attr_names[b]} on {sub}")
            exists = len(a) <= len(b)
            right = exists == (status == "possible")
            verdicts[_label(attr_names[a], attr_names[b], sub)] = "confirmed" if right else "refuted"
        path = _write(workdir, index, lines)
        ops.append(Op(("check", path), 1 if misdeclared else 0, path, {"verdicts": verdicts}))
    return ops


def verify_search(op: Op, report: dict) -> str | None:
    entry = report["files"][0]
    got = {c["task"]: c["verdict"] for c in entry["law_checks"]}
    if got != op.expect["verdicts"]:
        wrong = sorted(k for k in op.expect["verdicts"] if got.get(k) != op.expect["verdicts"][k])
        return f"law verdicts differ from |input| <= |output| on {wrong[:3]}"
    return None


# ---------------------------------------------------------------------- timers

# Timer sizes per catalog: counter 2^bits states or particle cells.  Checks
# walk |S| x recurrence horizon steps, so a catalog holding a 512- or
# 1024-state timer costs 50-200 ms and one without costs under 20 ms, like
# every classify.  Eight catalogs of twenty are large, which puts p50 inside
# the cluster of small operations and p90 inside the cluster of large ones.
TIMER_CATALOGS = (
    (64, 128), (64, 256), (128, 256), (64, 128, 256), (64, 64, 128), (128, 128, 256),
    (64, 128, 256, 256), (64, 64, 128, 128), (256, 256), (64, 128, 128, 256, 64),
    (128, 256, 64), (64, 256, 256),
    (512, 1024), (64, 512, 1024), (128, 256, 512), (256, 512, 1024), (64, 128, 512, 1024),
    (1024, 512, 256, 128), (512, 512, 64, 64, 128), (1024, 64, 128, 256, 512),
)
TIMER_DURATIONS = (3, 4, 5, 6, 8)
# Kind and particle speed, cycled over the timers in corpus order.  A
# strided walk costs up to 20% more than a sequential one, so the seed does
# not choose them.  Speeds are odd, so a particle on 2^k cells runs one cycle.
TIMER_MAKES = (("counter", 0), ("particle", 1), ("counter", 0), ("particle", 3), ("particle", 5))


def gen_timers(rng: random.Random, workdir: str) -> list[Op]:
    makes = itertools.cycle(TIMER_MAKES)
    catalogs = []
    for index, sizes in enumerate(TIMER_CATALOGS):
        names = _Names(rng)
        lines = [f"# timers: catalog of {len(sizes)}"]
        durations = {}
        for size in sizes:
            name = names.new("T")
            d = rng.choice(TIMER_DURATIONS)
            kind, speed = next(makes)
            if kind == "counter":
                lines.append(f"timer counter {name} {{ bits {size.bit_length() - 1} ; threshold {d} }}")
            else:
                lines.append(
                    f"timer particle {name} {{ cells {size} ; speed {speed} ; target {d * speed} }}"
                )
            durations[name] = d
        catalogs.append((_write(workdir, index, lines), durations))
    ops = []
    for path, durations in catalogs:
        names = sorted(durations)
        cohalt = [[a, b] for a, b in itertools.combinations(names, 2) if durations[a] == durations[b]]
        classes = [
            [d, [n for n in names if durations[n] == d]] for d in sorted(set(durations.values()))
        ]
        ops.append(Op(("check", path), 0, path, {"cohalt": cohalt}))
        ops.append(Op(("classify", path), 0, path, {"classes": classes}))
    return ops


def verify_timers(op: Op, report: dict) -> str | None:
    if op.argv[0] == "classify":
        got = [[c["duration"], c["members"]] for c in report["classes"]]
        if got != op.expect["classes"]:
            return f"classes {got} != {op.expect['classes']}"
        return None
    entry = report["files"][0]
    if entry["status"] != "ok" or not all(c["ok"] for c in entry["timer_checks"]):
        return "timer checks failed"
    cohalt = [c["pair"] for c in entry["timer_checks"] if c["kind"] == "co-halt" and c["expected"]]
    if sorted(cohalt) != op.expect["cohalt"]:
        return f"co-halting pairs {cohalt} != {op.expect['cohalt']}"
    return None


# -------------------------------------------------------------------- dynamics

# (ring length, readings) per file.  Parse and analysis grow about as the
# square of the length, so each length is a cluster of latencies; a fifth of
# the files are 2048 cells, all of one kind of reading, so that p90 falls
# inside one homogeneous cluster.
DYNAMICS_FILES = (
    (256, "linear"), (256, "sine"), (256, "linear"), (256, "malformed"), (256, "misaligned"),
    (512, "linear"), (512, "sine"), (512, "misaligned"), (512, "malformed"),
    (1024, "linear"), (1024, "linear"), (1024, "sine"),
    (2048, "sine"), (2048, "sine"), (2048, "sine"),
)
DYNAMICS_SCHEDULE = (16, 8, 4, 2, 1)
DYNAMICS_TOL = 0.05


def gen_dynamics(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    schedule = ",".join(map(str, DYNAMICS_SCHEDULE))
    for index, (n, kind) in enumerate(DYNAMICS_FILES):
        names = _Names(rng)
        sub, var, state, attr = names.new("R"), names.new("V"), names.new("Q"), names.new("A")
        at = rng.randrange(0, n - DYNAMICS_SCHEDULE[0])
        if kind == "sine":
            scale, phase = rng.uniform(0.5, 1.5), rng.uniform(0.0, 2 * math.pi)
            # amplitude n / 2pi keeps the derivative O(1), so --tol is a real test
            readings = [scale * n / (2 * math.pi) * math.sin(2 * math.pi * i / n + phase) for i in range(n)]
            expect = {"derivative": scale * math.cos(2 * math.pi * at / n + phase)}
        else:
            # dyadic slope and integer offset: every ratio is exact in floating point
            slope, offset = rng.randrange(-16, 17) / 8, rng.randrange(-8, 9)
            readings = [offset + slope * i for i in range(n)]
            expect = {"slope": slope}
        cells = list(range(n))
        exit_status = 0
        if kind == "misaligned":
            # swap the entry at at + d with one no advance reads: every longer step still
            # lands, and the advance over d is the first to fail
            d = rng.choice(DYNAMICS_SCHEDULE)
            reached = {at} | {at + step for step in DYNAMICS_SCHEDULE}
            other = rng.choice([i for i in range(n) if i not in reached])
            cells[at + d], cells[other] = cells[other], cells[at + d]
            expect = {"advance_failure": {"lam": str(at), "dlam": str(d)}}
            exit_status = 1
        lines = [f"# dynamics: {n}-cell ring pointer, {kind} readings"]
        lines.append(
            f"substrate {sub} {{ states {' '.join(f'{state}{i}' for i in range(n))} ; "
            f"step ({' '.join(f'{state}{i}' for i in range(n))}) }}"
        )
        first_attr = len(lines)
        lines += [f"attribute {attr}{i} on {sub} {{ {state}{i} }}" for i in range(n)]
        for d in DYNAMICS_SCHEDULE:
            lines.append(f"timer counter {names.new('T')} {{ bits {rng.randrange(5, 8)} ; threshold {d} }}")
        entries = " ; ".join(f"{i} : {attr}{cells[i]} @ {readings[i]!r}" for i in range(n))
        lines.append(f"variable {var} on {sub} {{ {entries} }}")
        if kind == "malformed":
            bad = rng.randrange(first_attr, first_attr + n)
            lines[bad] = lines[bad].replace("attribute", "atribute", 1)
            expect = {"line": bad + 1}
            exit_status = 2
        path = _write(workdir, index, lines)
        argv = ("dynamics", path, "--variable", var, "--at", str(at), "--schedule", schedule,
                "--tol", repr(DYNAMICS_TOL))
        ops.append(Op(argv, exit_status, path, expect))
    return ops


def verify_dynamics(op: Op, report: dict) -> str | None:
    want = op.expect
    if "line" in want:
        first = report["diagnostics"][0]
        if first["severity"] != "error" or first["line"] != want["line"]:
            return f"first diagnostic {first} is not an error at line {want['line']}"
    elif "advance_failure" in want:
        if report.get("advance_failure") != want["advance_failure"]:
            return f"advance failure {report.get('advance_failure')} != {want['advance_failure']}"
    elif "slope" in want:
        if report["extrapolated"] != want["slope"]:
            return f"extrapolated {report['extrapolated']!r} != exact slope {want['slope']!r}"
    elif abs(report["extrapolated"] - want["derivative"]) > DYNAMICS_TOL:
        return f"extrapolated {report['extrapolated']!r} not within {DYNAMICS_TOL} of {want['derivative']!r}"
    return None


# ------------------------------------------------------------------- registry


class Workload(NamedTuple):
    generate: Callable[[random.Random, str], list[Op]]
    verify: Callable[[Op, dict], str | None]
    kernel: str  # the speed.py kernel closest to the work of the intended layer


WORKLOADS = {
    "closure": Workload(gen_closure, verify_closure, "objects"),
    "search": Workload(gen_search, verify_search, "objects"),
    "timers": Workload(gen_timers, verify_timers, "walk"),
    "dynamics": Workload(gen_dynamics, verify_dynamics, "objects"),
}
