"""Timers: starting / running / completed attribute structure on a substrate.

A timer is a substrate that does nothing to anything else yet still shows
a measurable completion: attribute 0 (starting, preparable, non-static),
R (running, non-static), 1 (completed, static for a declared horizon) and
a halt flag distinguishable from its complement.  Its duration is the step
count from 0 to 1.  Pairs of timers either halt together (equal duration)
or the faster one halts first while the other still runs; that relation
partitions any timer catalog into duration classes.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .core import (
    Attribute,
    ModelError,
    Substrate,
    evolve,
    is_static,
    static_horizon,
)
from .tasks import Task


class TimerSpec:
    """A well-formed null constructor: 0 / R / 1 attributes and a halt flag.

    make_timer builds a custom one, and make_counter_timer and
    make_particle_timer a ring one; each proves the null-constructor checks
    (see make_timer and _ring_timer).  halts holds the distinct first-halt
    steps of the starting states, in ascending order.  The last is the
    duration; halt_step is the one step shared by every start, or None.
    warnings holds the notes on a legal but degenerate structure, and
    recurrence is recurrence_horizon's answer.  A ring timer's facts are
    closed forms, so its substrate and attributes are built on the first
    read of any of them, and every later read returns the same objects.
    Equality is object identity.
    """

    # _ring: (n, v, t) of a ring timer, else None; _parts: the tuple
    # (substrate, attr0, attrR, attr1, halt_flag), or the function that builds it
    __slots__ = ("name", "halts", "static_horizon", "warnings", "recurrence", "_ring", "_parts")

    def __init__(
        self,
        name: str,
        halts: tuple[int, ...],
        static_horizon: int,
        warnings: tuple[str, ...],
        recurrence: int,
        parts,
        ring: tuple[int, int, int] | None = None,
    ) -> None:
        self.name = name
        self.halts = halts
        self.static_horizon = static_horizon
        self.warnings = warnings
        self.recurrence = recurrence
        self._parts = parts
        self._ring = ring

    def _structure(self) -> tuple:
        if callable(self._parts):
            self._parts = self._parts()
        return self._parts

    substrate = property(lambda self: self._structure()[0])
    attr0 = property(lambda self: self._structure()[1])
    attrR = property(lambda self: self._structure()[2])
    attr1 = property(lambda self: self._structure()[3])
    halt_flag = property(lambda self: self._structure()[4])

    def runs_at(self, h: int) -> bool:
        """True iff every starting state lies in the running attribute at step h."""
        if self._ring is None:
            sub, attr0, attrR = self._structure()[:3]
            return all(evolve(sub, s, h) in attrR.members for s in attr0.members)
        n, v, t = self._ring
        return 1 <= h * v % n < t

    @property
    def duration(self) -> int:
        return self.halts[-1]

    @property
    def halt_step(self) -> int | None:
        return self.halts[0] if len(self.halts) == 1 else None

    def __repr__(self) -> str:
        return f"TimerSpec({self.name!r}, duration={self.duration})"


def _warnings(running_empty: bool, horizon: int, duration: int) -> tuple[str, ...]:
    """The notes on a legal but degenerate timer."""
    warnings = []
    if running_empty:
        degenerate = " (duration-1 degenerate timer)" if duration == 1 else ""
        warnings.append("running attribute is empty" + degenerate)
    if horizon < 4 * duration:
        warnings.append(
            f"completed attribute stays static for {horizon} steps, "
            f"less than four durations ({4 * duration})"
        )
    return tuple(warnings)


def _distances(cycle: tuple, members: frozenset) -> list | None:
    """The steps from each position of `cycle` to its next member of `members`, or None.

    One backward pass from a member, once around the cycle: a member is 0
    steps away, and any other state one step more than the state after it.
    None when no state of the cycle is a member.
    """
    n = len(cycle)
    last = next((i for i in reversed(range(n)) if cycle[i] in members), None)
    if last is None:
        return None
    steps, k = [0] * n, 0
    for i in range(last, last - n, -1):  # a negative index counts from the cycle's end
        k = 0 if cycle[i] in members else k + 1
        steps[i] = k
    return steps


def _first_entries(substrate: Substrate, starts: frozenset, members: frozenset) -> list:
    """`first_entry(substrate, s, members)` for each s of `starts`, in their order.

    Each cycle that holds a start gets one backward pass (`_distances`), so
    the cost is linear in the states, not |starts| times the cycle length.
    """
    cycles, index = substrate.cycles, substrate.cycle_index
    by_cycle: dict[int, list | None] = {}
    firsts = []
    for s in starts:
        c, i = index[s]
        if c not in by_cycle:
            by_cycle[c] = _distances(cycles[c], members)
        steps = by_cycle[c]
        firsts.append(None if steps is None else steps[i])
    return firsts


def make_timer(
    name: str,
    substrate: Substrate,
    attr0: Attribute,
    attrR: Attribute,
    attr1: Attribute,
    halt_flag: Attribute | None = None,
) -> TimerSpec:
    """Assemble a custom TimerSpec, deriving the halt steps and the completed-static horizon.

    Raises ModelError naming each failed null-constructor check.  The
    completed attribute passes its static check once every starting state
    lies in it at one step: it is then static for the computed horizon.
    An empty running attribute (a duration-1 timer) and a horizon shorter
    than four durations are legal and recorded as warnings.  The
    recurrence is the cycle length of the starting state that comes first
    in the substrate's state order, so it does not depend on set order.
    """
    if halt_flag is None:
        halt_flag = attr1
    for a in (attr0, attrR, attr1, halt_flag):
        if a.substrate is not substrate:
            raise ModelError(f"timer {name!r}: attribute {a.name!r} is on a different substrate")
    if not attr0.members:
        raise ModelError(f"timer {name!r}: starting attribute must be non-empty")
    firsts = _first_entries(substrate, attr0.members, attr1.members)
    k = None if None in firsts else max(firsts)
    # the duration is the first step with every starting state inside at once
    complete = k is not None and all(
        evolve(substrate, s, k) in attr1.members for s in attr0.members
    )
    flags = _first_entries(substrate, attr0.members, halt_flag.members)
    sizes = len(attr0.members) + len(attrR.members) + len(attr1.members)
    checks = (
        ("starting-non-static", not is_static(attr0)),
        ("running-non-static", not attrR.members or not is_static(attrR)),
        ("completed-static-for-horizon", complete),
        ("halt-distinguishable", bool(halt_flag.members)),
        ("halt-at-completion", complete and flags == firsts),
        ("attributes-disjoint", len(attr0.members | attrR.members | attr1.members) == sizes),
    )
    failed = [check for check, ok in checks if not ok]
    if failed:
        raise ModelError(
            f"timer {name!r} is not a well-formed null constructor: " + ", ".join(failed)
        )
    horizon = static_horizon(attr1)
    rep = next(s for s in substrate.states if s in attr0.members)
    recurrence = len(substrate.cycles[substrate.cycle_index[rep][0]])
    return TimerSpec(
        name,
        tuple(sorted(set(firsts))),
        horizon,
        _warnings(not attrR.members, horizon, k),
        recurrence,
        (substrate, attr0, attrR, attr1, halt_flag),
    )


def make_counter_timer(
    bits: int, threshold: int, substrate: Substrate | None = None, name: str | None = None
) -> TimerSpec:
    """Counter over 0..2^bits - 1, incrementing each step and wrapping.

    Starting attribute {0}, running {1..T-1}, completed {T..2^bits - 1};
    the halt flag coincides with the completed attribute.  It is the ring
    timer of _ring_timer with n = 2^bits, v = 1 and t = T, so its facts are
    closed forms: it halts at step T, and its completed attribute stays
    static for exactly 2^bits - T - 1 steps after entry, the wrap made
    explicit.  A given substrate is checked to be that counter and is the
    one the timer's attributes are built on.
    """
    size = 2**bits
    if not 1 <= threshold < size:
        raise ModelError(f"threshold must satisfy 1 <= T < 2^{bits} = {size}")
    if substrate is not None:
        if substrate.states != tuple(range(size)):
            raise ModelError("provided substrate is not a counter over 0..2^bits - 1")
        if any(substrate.step[i] != (i + 1) % size for i in range(size)):
            raise ModelError("provided substrate does not increment mod 2^bits")
    name = name or f"counter({bits},{threshold})"
    return _ring_timer(name, size, 1, threshold, f"counter{bits}", substrate)


def make_particle_timer(
    cells: int, speed: int, target: int, name: str | None = None
) -> TimerSpec:
    """Point particle on a wrapping line of cells, moving `speed` cells per step.

    Starting attribute is the particle at cell 0 (there only for an
    instant), running is strictly between 0 and the target cell, completed
    is at the target or beyond; the wrap region bounds how long completion
    stays static.  It is the ring timer of _ring_timer with n = cells,
    v = speed and t = target, so its facts are closed forms: it halts at
    step target / speed.
    """
    if speed < 1:
        raise ModelError("speed must be at least 1 cell per step")
    if not 0 < target < cells:
        raise ModelError("target cell must lie strictly inside the line")
    if target % speed != 0:
        raise ModelError(
            f"target cell {target} is not reached in a whole number of steps at speed {speed}"
        )
    name = name or f"particle({cells},{speed},{target})"
    return _ring_timer(name, cells, speed, target, f"particle{cells}v{speed}")


def _ring_timer(
    name: str, n: int, v: int, t: int, substrate_id: str, substrate: Substrate | None = None
) -> TimerSpec:
    """The timer on the ring c -> (c + v) mod n: it starts at 0, runs below t, completes from t.

    Requires 1 <= v <= t < n with v dividing t, as the argument checks of
    both constructors ensure.  Let g = gcd(n, v): the step's cycles are the
    residue classes mod g, each of n / g states, and g divides t.  Then
    make_timer's checks hold by construction:
    - starting {0} is not static: 0 steps to v, and 0 < v < n;
    - a non-empty running [1, t) is not static: it holds 1 but not
      n - g + 1 mod n, which shares 1's cycle and is 0 or lies in [t + 1, n);
    - from 0 the walk visits v, 2v, ..., all running below t, and first
      completes at t, at step t / v, so that is the one halt step and every
      start is completed there;
    - completed [t, n) is not empty and is the halt flag, so the flag
      rises exactly at completion;
    - {0}, [1, t) and [t, n) are disjoint.
    Completed is entered at [t, min(t + v, n)), and from an entry e stays
    (n - 1 - e) // v more steps, fewest from the last entry; that is under
    the recurrence n / g, so the horizon is make_timer's.  The step-h state
    of the start is h * v mod n, running iff it lies in [1, t).  The
    substrate (`substrate`, or a new one named `substrate_id`) and the
    attributes are built on the spec's first read of them.
    """

    def parts() -> tuple:
        sub = substrate
        if sub is None:
            sub = Substrate(substrate_id, range(n), {c: (c + v) % n for c in range(n)})
        attr0, attrR = Attribute(sub, (0,), name="0"), Attribute(sub, range(1, t), name="R")
        attr1 = Attribute(sub, range(t, n), name="1")
        return sub, attr0, attrR, attr1, attr1

    horizon = (n - 1 - min(t + v - 1, n - 1)) // v
    halt = t // v
    warnings = _warnings(t == 1, horizon, halt)
    return TimerSpec(name, (halt,), horizon, warnings, n // gcd(n, v), parts, (n, v, t))


def recurrence_horizon(c: TimerSpec) -> int:
    """Least k > 0 after which the starting attribute's representative recurs.

    The representative is the starting state that comes first in the
    substrate's state order, so the result does not depend on set order.
    """
    return c.recurrence


def check_staggered_halt(c1: TimerSpec, c2: TimerSpec) -> bool:
    """The strictly faster timer halts while the slower one still runs.

    Requires duration(c1) < duration(c2).  True iff from every joint
    starting state the pair shows (completed, running) at the faster
    timer's halt step.  A timer first shows completion when its flag is
    raised, and running is disjoint from completed, so no step up to the
    halt shows joint completion.  Operationally this is the failure of the
    (0,0) -> (1,1) task on the pair.  The halt steps are c1.halts, and
    c2.runs_at answers for each whether every start of c2 runs then.
    """
    if c1.duration >= c2.duration:
        raise ModelError("staggered-halt check requires duration(c1) < duration(c2)")
    return all(c2.runs_at(h) for h in c1.halts)


def check_simultaneous_halt(c1: TimerSpec, c2: TimerSpec) -> bool:
    """True iff both timers first reach completion at the same step from every joint start.

    This is the operational success of the (0,0) -> (1,1) task on the
    pair, and it holds exactly when the durations coincide.  Each timer's
    halt step was found on its own step map, so the two may share a substrate.
    """
    return c1.halt_step is not None and c1.halt_step == c2.halt_step


class TimerClass(NamedTuple):
    duration: int
    members: tuple[TimerSpec, ...]


def classify_timers(catalog: Sequence[TimerSpec]) -> tuple[TimerClass, ...]:
    """Partition a catalog by the simultaneous-halt relation.

    Classes come out sorted by duration and members by name.  Classes of
    equal duration keep the catalog order of their first members (a timer
    without a halt step is a class of its own), so a caller wanting a
    result independent of catalog order sorts the catalog first, as
    ``ctm classify`` does by name.
    """
    specs = list(catalog)
    if not specs:
        raise ModelError("catalog must be non-empty")
    # co-halting is equality of halt steps; a timer without one co-halts with nothing
    groups: dict[object, list[TimerSpec]] = {}
    for i, spec in enumerate(specs):
        k = spec.halt_step
        groups.setdefault(("alone", i) if k is None else k, []).append(spec)
    classes = [
        TimerClass(members[0].duration, tuple(sorted(members, key=lambda m: m.name)))
        for members in groups.values()
    ]
    return tuple(sorted(classes, key=lambda c: c.duration))


def check_synchrony(c: TimerSpec) -> bool:
    """Twins prepared in the same starting attribute co-halt.

    Equal to check_simultaneous_halt(c, c): every starting state first
    reaches completion at one common step.
    """
    return c.halt_step is not None


def duration_task(c: TimerSpec, reference: TimerSpec | None = None) -> Task:
    """The 0 -> 1 task on the timer, optionally against a reference completion set.

    With a reference, the output attribute is the reference threshold's
    member set read on this timer's substrate (both must share labels);
    used to measure how far a mis-set timer halts from the intended one.
    """
    if reference is None:
        return Task(c.attr0, c.attr1)
    if set(reference.substrate.states) - set(c.substrate.states):
        raise ModelError("reference timer uses states unknown to this timer")
    return Task(c.attr0, Attribute(c.substrate, reference.attr1.members, name="1(ref)"))
