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

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Attribute,
    ModelError,
    Substrate,
    clone_substrate,
    compose_substrates,
    cyclic_substrate,
    evolve,
    first_entry,
    is_static,
    make_substrate,
    orbit,
    pair_attribute,
    recurrence_period,
    retarget,
    static_horizon,
)
from .tasks import Task
from .witnesses import ConstructorWitness


@dataclass(frozen=True, eq=False)
class TimerSpec:
    """A substrate with designated 0 / R / 1 attributes and a halt flag.

    duration is None when the starting attribute never fully reaches the
    completed one within a recurrence period (such specs are constructible
    so that validation can describe what is wrong with them).  halt_step
    is the first step into completion shared by every starting state, or
    None when they differ; when it exists it equals the duration.
    """

    name: str
    substrate: Substrate
    attr0: Attribute
    attrR: Attribute
    attr1: Attribute
    halt_flag: Attribute
    duration: int | None
    static_horizon: int
    recurrence: int
    halt_step: int | None

    def __repr__(self) -> str:
        return f"TimerSpec({self.name!r}, duration={self.duration})"


def make_timer(
    name: str,
    substrate: Substrate,
    attr0: Attribute,
    attrR: Attribute,
    attr1: Attribute,
    halt_flag: Attribute | None = None,
) -> TimerSpec:
    """Assemble a TimerSpec, deriving duration, halt step and the completed-static horizon."""
    for a in (attr0, attrR, attr1):
        if a.substrate is not substrate:
            raise ModelError(f"timer {name!r}: attribute {a.name!r} is on a different substrate")
    if not attr0.members:
        raise ModelError(f"timer {name!r}: starting attribute must be non-empty")
    if halt_flag is None:
        halt_flag = attr1
    rec = recurrence_period(substrate)
    # a first entry, if any, happens within the recurrence period
    firsts = [first_entry(substrate, s, attr1.members, rec) for s in attr0.members]
    duration = halt_step = None
    if None not in firsts:
        k = max(firsts)
        # the duration is the first step with every starting state inside at once
        if all(evolve(substrate, s, k) in attr1.members for s in attr0.members):
            duration = k
        if min(firsts) == k:
            halt_step = k
    horizon = static_horizon(attr1, cap=rec) if attr1.members else 0
    return TimerSpec(
        name, substrate, attr0, attrR, attr1, halt_flag, duration, horizon, rec, halt_step
    )


def make_counter_timer(
    bits: int, threshold: int, substrate: Substrate | None = None, name: str | None = None
) -> TimerSpec:
    """Counter over 0..2^bits - 1, incrementing each step and wrapping.

    Starting attribute {0}, running {1..T-1}, completed {T..2^bits - 1};
    the halt flag coincides with the completed attribute.  The completed
    attribute stays static for exactly 2^bits - T - 1 steps after entry,
    the wrap made explicit.
    """
    size = 2**bits
    if not 1 <= threshold < size:
        raise ModelError(f"threshold must satisfy 1 <= T < 2^{bits} = {size}")
    if substrate is None:
        substrate = cyclic_substrate(f"counter{bits}", tuple(range(size)))
    else:
        if substrate.states != tuple(range(size)):
            raise ModelError("provided substrate is not a counter over 0..2^bits - 1")
        if any(substrate.step[i] != (i + 1) % size for i in range(size)):
            raise ModelError("provided substrate does not increment mod 2^bits")
    attr0 = Attribute(substrate, frozenset({0}), name="0")
    attrR = Attribute(substrate, frozenset(range(1, threshold)), name="R")
    attr1 = Attribute(substrate, frozenset(range(threshold, size)), name="1")
    return make_timer(name or f"counter({bits},{threshold})", substrate, attr0, attrR, attr1)


def make_particle_timer(
    cells: int, speed: int, target: int, name: str | None = None
) -> TimerSpec:
    """Point particle on a wrapping line of cells, moving `speed` cells per step.

    Starting attribute is the particle at cell 0 (there only for an
    instant), running is strictly between 0 and the target cell, completed
    is at the target or beyond; the wrap region bounds how long completion
    stays static.
    """
    if speed < 1:
        raise ModelError("speed must be at least 1 cell per step")
    if not 0 < target < cells:
        raise ModelError("target cell must lie strictly inside the line")
    if target % speed != 0:
        raise ModelError(
            f"target cell {target} is not reached in a whole number of steps at speed {speed}"
        )
    substrate = make_substrate(
        f"particle{cells}v{speed}",
        tuple(range(cells)),
        {c: (c + speed) % cells for c in range(cells)},
    )
    attr0 = Attribute(substrate, frozenset({0}), name="0")
    attrR = Attribute(substrate, frozenset(range(1, target)), name="R")
    attr1 = Attribute(substrate, frozenset(range(target, cells)), name="1")
    return make_timer(name or f"particle({cells},{speed},{target})", substrate, attr0, attrR, attr1)


def composite_timer(c1: TimerSpec, c2: TimerSpec, name: str | None = None) -> TimerSpec:
    """The pair of timers read as a single timer that halts when the faster does.

    Requires duration(c1) <= duration(c2).  The completion attribute is
    (1, R) when the durations differ and (1, 1) when they coincide; the
    halt flag is the first timer's flag, raised regardless of the second
    component.
    """
    if c1.duration is None or c2.duration is None:
        raise ModelError("composite timer needs both durations defined")
    if c1.duration > c2.duration:
        raise ModelError("compose the shorter-duration timer first")
    second = _distinct(c1, c2)
    joint = compose_substrates(c1.substrate, second.substrate)
    attr0 = pair_attribute(joint, c1.attr0, second.attr0, name="(0,0)")
    full2 = Attribute(second.substrate, frozenset(second.substrate.states), name="any")
    halt = pair_attribute(joint, c1.halt_flag, full2, name="(halt,any)")
    if c1.duration < c2.duration:
        attr1 = pair_attribute(joint, c1.attr1, second.attrR, name="(1,R)")
    else:
        attr1 = pair_attribute(joint, c1.attr1, second.attr1, name="(1,1)")
    not_done1 = Attribute(
        c1.substrate, c1.attr0.members | c1.attrR.members, name="0|R"
    )
    running = pair_attribute(joint, not_done1, full2, name="(0|R,any)")
    attrR = Attribute(joint, running.members - attr0.members, name="R")
    return make_timer(name or f"[{c1.name}⊕{second.name}]", joint, attr0, attrR, attr1, halt)


def recurrence_horizon(c: TimerSpec) -> int:
    """Least k > 0 after which the starting attribute's representative recurs.

    The representative is the starting state that comes first in the
    substrate's state order, so the result does not depend on set order.
    """
    rep = min(c.attr0.members, key=c.substrate.states.index)
    return len(orbit(c.substrate, rep))


def check_staggered_halt(c1: TimerSpec, c2: TimerSpec) -> bool:
    """The strictly faster timer halts while the slower one still runs.

    Requires duration(c1) < duration(c2).  True iff from every joint
    starting state the pair never shows joint completion up to and
    including the halt step, and at the halt step shows exactly
    (completed, running).  Operationally this is the failure of the
    (0,0) -> (1,1) task on the pair.
    """
    if c1.duration is None or c2.duration is None:
        raise ModelError("both timers need a defined duration")
    if c1.duration >= c2.duration:
        raise ModelError("staggered-halt check requires duration(c1) < duration(c2)")
    bound = max(c1.recurrence, c2.recurrence)
    for s0 in c1.attr0.members:
        h = first_entry(c1.substrate, s0, c1.halt_flag.members, bound)
        if h is None:
            return False
        for t0 in c2.attr0.members:
            x, y = s0, t0
            for k in range(h + 1):
                if x in c1.attr1.members and y in c2.attr1.members:
                    return False
                if k < h:
                    x, y = c1.substrate.step[x], c2.substrate.step[y]
            if x not in c1.attr1.members or y not in c2.attrR.members:
                return False
    return True


def check_simultaneous_halt(c1: TimerSpec, c2: TimerSpec) -> bool:
    """True iff both timers first reach completion at the same step from every joint start.

    This is the operational success of the (0,0) -> (1,1) task on the
    pair, and it holds exactly when the durations coincide.  Each timer's
    halt step was found on its own step map, so the two may share a substrate.
    """
    return c1.halt_step is not None and c1.halt_step == c2.halt_step


def _distinct(c1: TimerSpec, c2: TimerSpec) -> TimerSpec:
    """A copy of c2 on a fresh substrate instance when it shares c1's."""
    if c2.substrate is not c1.substrate:
        return c2
    sub = clone_substrate(c2.substrate)
    return TimerSpec(
        c2.name + "'",
        sub,
        retarget(c2.attr0, sub),
        retarget(c2.attrR, sub),
        retarget(c2.attr1, sub),
        retarget(c2.halt_flag, sub),
        c2.duration,
        c2.static_horizon,
        c2.recurrence,
        c2.halt_step,
    )


@dataclass(frozen=True)
class TimerClass:
    duration: int
    members: tuple[TimerSpec, ...]


def classify_timers(catalog: Sequence[TimerSpec]) -> tuple[TimerClass, ...]:
    """Partition a catalog by the simultaneous-halt relation.

    Classes come out sorted by duration and members by name.  Classes of
    equal duration keep the catalog order of their first members (a timer
    without a halt step is a class of its own), so a caller wanting a
    result independent of catalog order sorts the catalog first, as
    ``ctm classify`` does by name.  Any member failing validation is
    rejected up front.
    """
    specs = list(catalog)
    if not specs:
        raise ModelError("catalog must be non-empty")
    for spec in specs:
        report = validate_null_constructor(spec)
        if not report.passed:
            raise ModelError(f"timer {spec.name!r} fails validation: {report.failures()}")
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


_CHECKS = (
    "starting-preparable",
    "starting-non-static",
    "running-non-static",
    "completed-static-for-horizon",
    "halt-distinguishable",
    "halt-at-completion",
    "attributes-disjoint",
)


@dataclass(frozen=True)
class NullConstructorReport:
    """Per-check outcomes for the timer attribute structure."""

    checks: dict
    warnings: tuple[str, ...]
    horizon: int

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failures(self) -> tuple[str, ...]:
        return tuple(k for k, ok in self.checks.items() if not ok)


def validate_null_constructor(c: TimerSpec, horizon: int | None = None) -> NullConstructorReport:
    """Check the 0 / R / 1 / halt-flag structure, reporting each item separately.

    The completed attribute is required static for the given horizon
    (default: the timer's own computed horizon).  An empty running
    attribute is degenerate but legal for duration-1 timers and is
    reported as a warning, as is a horizon shorter than four durations.
    """
    warnings: list[str] = []
    h = c.static_horizon if horizon is None else horizon
    checks = dict.fromkeys(_CHECKS, True)
    checks["starting-preparable"] = bool(c.attr0.members)
    checks["starting-non-static"] = bool(c.attr0.members) and not is_static(c.attr0)
    if c.attrR.members:
        checks["running-non-static"] = not is_static(c.attrR)
    else:
        warnings.append("running attribute is empty (duration-1 degenerate timer)")
    if c.attr1.members:
        checks["completed-static-for-horizon"] = (
            c.duration is not None and c.static_horizon >= h
        )
    else:
        checks["completed-static-for-horizon"] = False
    checks["halt-distinguishable"] = bool(c.halt_flag.members)
    if c.duration is None:
        checks["halt-at-completion"] = False
    else:
        for s in c.attr0.members:
            flag_at = first_entry(c.substrate, s, c.halt_flag.members, c.recurrence)
            done_at = first_entry(c.substrate, s, c.attr1.members, c.recurrence)
            if flag_at is None or flag_at != done_at:
                checks["halt-at-completion"] = False
                break
    seen: set = set()
    for a in (c.attr0, c.attrR, c.attr1):
        if a.members & seen:
            checks["attributes-disjoint"] = False
        seen |= a.members
    if c.duration is not None and c.static_horizon < 4 * c.duration:
        warnings.append(
            f"completed attribute stays static for {c.static_horizon} steps, "
            f"less than four durations ({4 * c.duration})"
        )
    return NullConstructorReport(checks, tuple(warnings), h)


def timer_witness(c: TimerSpec, max_steps: int | None = None) -> ConstructorWitness:
    """The timer as a constructor acting on nothing but itself.

    Trivial one-state device; the timer's own substrate carries the halt
    flag, so verification and accuracy read the timer's halt state
    directly.
    """
    device = make_substrate(f"{c.name}-dev", ("*",), {"*": "*"})
    joint = {("*", s): ("*", c.substrate.step[s]) for s in c.substrate.states}
    return ConstructorWitness(
        device=device,
        substrate=c.substrate,
        ready=Attribute(device, frozenset({"*"}), name="ready"),
        halt_flag=c.halt_flag,
        joint_step=joint,
        max_steps=max_steps if max_steps is not None else c.recurrence,
        name=f"{c.name}-as-witness",
    )


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
