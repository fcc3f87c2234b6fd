"""The catalog of bounded-cost `ctm` runs, shared by the tests and CI.

Each case is a model, a command line, the exit status that the run must
end with, the address space it may use and the seconds it may take.  A
model that would blow up must stop with exit 2 and one diagnostic, not
hang, crash or be killed; a model that ctm reads in closed form must end
well inside its bounds.  `test_adversarial.py` runs every case in a fresh
`python -m ctm.cli` process.  Add a bounded-cost case here, and nowhere
else.

    python tests/adversarial.py DIR

writes into DIR the model of every case expected to pass, and DIR/manifest
with one line per such case: the exit status, the address space in KiB,
the seconds, then the command line, quoted for the shell.  CI runs each
line through the installed `ctm` under `ulimit -v` and `timeout`.

This module imports only the standard library, so that the benchmark can
import its generators.
"""

import random
import shlex
import sys
from dataclasses import KW_ONLY, dataclass, field
from pathlib import Path
from typing import Callable

FIXTURES = Path(__file__).resolve().parent.parent / "models"


# -- generators: each takes a size and returns the text of a .ctm model -----------------


def long_literal(digits):
    """One counter timer whose bit count is an integer literal of `digits` digits."""
    return f"timer counter C {{ bits {'7' * digits} ; threshold 1 }}\n"


def one_substrate(states):
    """One substrate of `states` states on one line: 2,000,000 make a 34 MB file."""
    labels = " ".join(f"s{i}" for i in range(states))
    return f"substrate S {{ states {labels} ; step ({labels}) }}\n"


def twelve_bit_counters(count):
    """`count` counter timers of 4,096 states each, all of duration 5."""
    return "".join(f"timer counter C{i} {{ bits 12 ; threshold 5 }}\n" for i in range(count))


def three_bit_counters(count):
    """`count` counter timers of 8 states each, with thresholds 1 to 7 in turn."""
    return "".join(
        f"timer counter C{i} {{ bits 3 ; threshold {i % 7 + 1} }}\n" for i in range(count)
    )


def custom_ring_timer(states):
    """A custom timer on a ring of `states` states: its first half starts, its second half is done.

    The start s_i first enters done after states / 2 - i steps, so every
    start has its own halt step.
    """
    half = states // 2
    ring = " ".join(f"s{i}" for i in range(states))
    return (
        f"substrate R {{ states {ring} ; step ({ring}) }}\n"
        f"attribute start on R {{ {' '.join(f's{i}' for i in range(half))} }}\n"
        "attribute running on R { }\n"
        f"attribute done on R {{ {' '.join(f's{i}' for i in range(half, states))} }}\n"
        "timer custom K on R { start start ; running running ; done done }\n"
    )


def prime_cycle_timer(top):
    """A custom timer that never completes, on one cycle c<q>_0 ... of length q per prime q <= top.

    The start lies on the 2-cycle and completion on the 3-cycle.  The
    recurrence period, the product of the primes, is about 6.5e9 for
    top = 29, so a walk bounded by it never ends.
    """
    primes = [q for q in range(2, top + 1) if all(q % d for d in range(2, q))]
    cycles = [[f"c{q}_{i}" for i in range(q)] for q in primes]
    return (
        f"substrate P {{ states {' '.join(s for c in cycles for s in c)} ; "
        f"step {''.join('(' + ' '.join(c) + ')' for c in cycles)} }}\n"
        "attribute z on P { c2_0 }\n"
        "attribute r on P { c2_1 }\n"
        "attribute o on P { c3_0 }\n"
        "timer custom T on P { start z ; running r ; done o }\n"
    )


def seeded_laws(laws, attributes=600, states=2_000, seed=0):
    """Distinct seeded laws, about half declared possible, on three-state attributes of a ring."""
    ring = " ".join(f"r{i}" for i in range(states))
    lines = [f"substrate R {{ states {ring} ; step ({ring}) }}"]
    lines += [
        f"attribute a{i} on R {{ r{3 * i} r{3 * i + 1} r{3 * i + 2} }}" for i in range(attributes)
    ]
    rng = random.Random(seed)
    declared: dict = {}
    while len(declared) < laws:
        i, j = rng.sample(range(attributes), 2)
        declared[f"law {rng.choice(('possible', 'impossible'))} a{i} -> a{j} on R"] = None
    return "\n".join(lines + list(declared)) + "\n"


def law_chain(laws):
    """`law possible a_i -> a_{i+1}` for i < laws, on one ring of laws + 1 singleton attributes."""
    ring = " ".join(f"r{i}" for i in range(laws + 1))
    lines = [f"substrate R {{ states {ring} ; step ({ring}) }}"]
    lines += [f"attribute a{i} on R {{ r{i} }}" for i in range(laws + 1)]
    lines += [f"law possible a{i} -> a{i + 1} on R" for i in range(laws)]
    return "\n".join(lines) + "\n"


def one_law_substrates(count):
    """`count` two-state substrates, each with one possible law between its two states."""
    return "".join(
        f"substrate S{i} {{ states x{i} y{i} ; step (x{i} y{i}) }}\n"
        f"attribute p{i} on S{i} {{ x{i} }}\n"
        f"attribute q{i} on S{i} {{ y{i} }}\n"
        f"law possible p{i} -> q{i} on S{i}\n"
        for i in range(count)
    )


def pointer_ring(n):
    """A ring of n cells, one attribute per cell, and the variable pos that points at cell λ."""
    ring = " ".join(f"q{i}" for i in range(n))
    lines = [f"substrate ring {{ states {ring} ; step ({ring}) }}"]
    lines += [f"attribute p{i} on ring {{ q{i} }}" for i in range(n)]
    entries = " ; ".join(f"{i} : p{i} @ {i}.0" for i in range(n))
    lines.append(f"variable pos on ring {{ {entries} }}")
    return "\n".join(lines) + "\n"


# -- checks: each takes the report and the model's path, and asserts what the case pins ----


BAD_SIZE = "bad argument: a number may have at most 1000 characters and an exponent within ±999"
NEEDS_MORE_MEMORY = [("error", "ctm check needs more memory than this process may use")]


def file_diagnostics(report):
    """The diagnostics of `check`'s one file, or of a `classify` or `dynamics` report."""
    return report["files"][0]["diagnostics"] if "files" in report else report["diagnostics"]


def errors_are(*messages):
    def check(report, model):
        errors = [d["message"] for d in report["diagnostics"] if d["severity"] == "error"]
        assert errors == list(messages)

    return check


def too_big_to_load(report, model):
    message = f"cannot load {str(model)!r}: the model needs more memory than this process may use"
    assert [(d["severity"], d["message"]) for d in file_diagnostics(report)] == [("error", message)]


def too_many_digits(report, model):
    assert file_diagnostics(report) == [
        {"severity": "error", "line": 1, "column": 24, "message": "bit count has too many digits",
         "suggestion": None}
    ]


def one_class_of(duration, count):
    def check(report, model):
        assert [c["duration"] for c in report["classes"]] == [duration]
        assert len(report["classes"][0]["members"]) == count

    return check


def custom_ring_timer_warnings(report, model):
    if "classes" in report:
        assert report["classes"] == [{"duration": 8000, "members": ["K"]}]
    else:  # the starts halt at 8,000 distinct steps, so twin timers do not co-halt
        assert [row["synchrony_ok"] for row in report["files"][0]["synchrony"]] == [False]
    # the running attribute is empty, but the timer is not the duration-1 degenerate one
    assert [d["message"] for d in file_diagnostics(report)] == [
        "timer 'K': running attribute is empty",
        "timer 'K': completed attribute stays static for 7999 steps, "
        "less than four durations (32000)",
    ]


def needs_more_memory(report, model):
    # the load succeeded, so the small report holds no file
    assert "files" not in report
    assert [(d["severity"], d["message"]) for d in report["diagnostics"]] == NEEDS_MORE_MEMORY


def never_completes(report, model):
    assert [d["message"] for d in file_diagnostics(report)] == [
        "timer 'T' is not a well-formed null constructor: "
        "completed-static-for-horizon, halt-at-completion"
    ]


def laws_checked(count, verdict=None):
    def check(report, model):
        rows = report["files"][0]["law_checks"]
        assert len(rows) == count
        assert verdict is None or {row["verdict"] for row in rows} == {verdict}

    return check


def timers_synchronous(count):
    def check(report, model):
        assert [row["synchrony_ok"] for row in report["files"][0]["synchrony"]] == [True] * count

    return check


def constant_ratios(report, model):
    assert report["ratios"] == [1.0] * 4


# -- the catalog ------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """`ctm command model *args` ends with `status` within `mib` MiB of address space and `seconds`.

    `model` is a fixture's file name, or a generator and its size.  `check`
    asserts what the report must hold beyond its exit status.  A case with
    an `xfail` reason names the ROADMAP item whose fix makes it pass; a
    case with a `skip` reason cannot run on this interpreter.  CI runs
    neither.
    """

    name: str
    command: str
    model: str | tuple
    args: tuple = ()
    _: KW_ONLY
    status: int
    mib: int
    seconds: float
    check: Callable[[dict, Path], None] = field(repr=False)
    xfail: str = ""
    skip: str = ""


NO_DIGIT_LIMIT = "" if getattr(sys, "get_int_max_str_digits", lambda: 0)() else (
    "int() reads any number of digits"
)
TOO_BIG = (one_substrate, 2_000_000)
CUSTOM_RING = (custom_ring_timer, 16_000)

CASES = [
    # each schedule runs far past linear.ctm's domain (λ = 0..12); the last passes 2^64
    *(
        Case(f"past-the-domain-{name}", "dynamics", "linear.ctm",
             ("--variable", "pos", "--at", "0", "--schedule", schedule),
             status=2, mib=1024, seconds=1,
             check=errors_are(f"λ + Δλ = {schedule.split(',')[0]} outside the variable's domain"))
        for name, schedule in [
            ("4e5", "400000,200000,100000"),
            ("4e7", "40000000,20000000,10000000"),
            ("2^66", ",".join(str(2**k) for k in (66, 65, 64))),
        ]
    ),
    # each --at names a number of over 4,300 digits, which no message may print; the last
    # two would take seconds, then minutes, to build as a Fraction
    *(
        Case(f"at-{at}", "dynamics", "linear.ctm",
             ("--variable", "pos", "--at", at, "--schedule", "8,4,2,1"),
             status=2, mib=1024, seconds=1, check=errors_are(BAD_SIZE))
        for at in ["1e5000", "1e10000000", "1e100000000"]
    ),
    Case("5000-digit-literal", "check", (long_literal, 5_000),
         status=2, mib=1024, seconds=1, check=too_many_digits, skip=NO_DIGIT_LIMIT),
    # the substrate's labels, step map and cycle index need more than 256 MiB
    *(
        Case(f"2000000-states-{command}", command, TOO_BIG, args,
             status=2, mib=256, seconds=20, check=too_big_to_load)
        for command, args in [
            ("check", ()),
            ("classify", ()),
            ("dynamics", ("--variable", "v", "--schedule", "4,2,1")),
        ]
    ),
    # a ring timer's facts are closed forms: no counter builds its 4,096 states
    *(
        Case(f"{count}-counters-classify", "classify", (twelve_bit_counters, count),
             status=0, mib=256, seconds=1, check=one_class_of(5, count))
        for count in [300, 1_000]
    ),
    # 1,000 counters load in closed form, but their 499,500 pair rows need more than 256 MiB
    Case("1000-counters-check", "check", (twelve_bit_counters, 1_000),
         status=2, mib=256, seconds=10, check=needs_more_memory),
    # one backward pass around the ring gives every start its halt step; a walk of the
    # ring from each of the 8,000 starts took about 6 s
    Case("16000-state-custom-ring-classify", "classify", CUSTOM_RING,
         status=0, mib=256, seconds=1, check=custom_ring_timer_warnings),
    Case("16000-state-custom-ring-check", "check", CUSTOM_RING,
         status=1, mib=256, seconds=1, check=custom_ring_timer_warnings),
    Case("never-completing-timer", "check", (prime_cycle_timer, 29),
         status=2, mib=256, seconds=1, check=never_completes),
    # an impossible law between two attributes of one size is refuted: exit 1
    Case("20000-laws", "check", (seeded_laws, 20_000),
         status=1, mib=1024, seconds=10, check=laws_checked(20_000)),
    Case("16384-entry-variable", "dynamics", (pointer_ring, 16_384),
         ("--variable", "pos", "--at", "3", "--schedule", "64,32,16,8"),
         status=0, mib=1024, seconds=5, check=constant_ratios),
    # provisional time bounds: the fix of each item sets its case's bound from a measured run
    Case("16000-law-chain", "check", (law_chain, 16_000),
         status=0, mib=512, seconds=2, check=laws_checked(16_000, "confirmed"),
         xfail="ROADMAP item 4: the closure keeps every reachable pair of a chain's laws"),
    Case("10000-one-law-substrates", "check", (one_law_substrates, 10_000),
         status=0, mib=512, seconds=2, check=laws_checked(10_000, "confirmed"),
         xfail="ROADMAP item 4: the closure counts facts once per ordered pair of substrates"),
    Case("2000-three-bit-counters-check", "check", (three_bit_counters, 2_000),
         status=0, mib=1024, seconds=2, check=timers_synchronous(2_000),
         xfail="ROADMAP item 5: `check` writes one row per timer pair"),
]


def model_path(case, directory):
    """The case's model: a fixture, or its generated file in `directory`, written once."""
    if isinstance(case.model, str):
        return FIXTURES / case.model
    generate, size = case.model
    path = directory / f"{generate.__name__}-{size}.ctm"
    if not path.exists():
        path.write_text(generate(size), encoding="utf-8")
    return path


def argv(case, model):
    return [case.command, str(model), *case.args]


def write_manifest(directory):
    """Write the model of every case CI runs into `directory`, and the manifest of their runs."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{case.status} {case.mib << 10} {case.seconds} "
        + shlex.join(argv(case, model_path(case, directory)))
        for case in CASES
        if not (case.xfail or case.skip)
    ]
    (directory / "manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/adversarial.py DIR")
    write_manifest(Path(sys.argv[1]))
