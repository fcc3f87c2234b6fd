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
    cycle_lengths,
    cyclic_substrate,
    evolve,
    first_entry,
    is_static,
    make_substrate,
    orbit,
    pair_attribute,
    retarget,
    static_horizon,
)
from .tasks import Task
from .witnesses import ConstructorWitness


@dataclass(frozen=True, eq=False)
class TimerSpec:
    """A well-formed null constructor: 0 / R / 1 attributes and a halt flag.

    Only make_timer builds one, so every spec has passed the checks there.
    halts holds the distinct first-halt steps of the starting states, in
    ascending order, each found within its start's own cycle.  The last is
    the duration; halt_step is the one step shared by every start, or None.
    warnings holds make_timer's notes on a legal but degenerate structure.
    """

    name: str
    substrate: Substrate
    attr0: Attribute
    attrR: Attribute
    attr1: Attribute
    halt_flag: Attribute
    halts: tuple[int, ...]
    static_horizon: int
    warnings: tuple[str, ...]

    @property
    def duration(self) -> int:
        return self.halts[-1]

    @property
    def halt_step(self) -> int | None:
        return self.halts[0] if len(self.halts) == 1 else None

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
    """Assemble a TimerSpec, deriving the halt steps and the completed-static horizon.

    Raises ModelError naming each failed null-constructor check.  The
    completed attribute passes its static check once every starting state
    lies in it at one step: it is then static for the computed horizon.
    An empty running attribute (a duration-1 timer) and a horizon shorter
    than four durations are legal and recorded as warnings.
    """
    if halt_flag is None:
        halt_flag = attr1
    for a in (attr0, attrR, attr1, halt_flag):
        if a.substrate is not substrate:
            raise ModelError(f"timer {name!r}: attribute {a.name!r} is on a different substrate")
    if not attr0.members:
        raise ModelError(f"timer {name!r}: starting attribute must be non-empty")
    firsts = [first_entry(substrate, s, attr1.members) for s in attr0.members]
    k = None if None in firsts else max(firsts)
    # the duration is the first step with every starting state inside at once
    complete = k is not None and all(
        evolve(substrate, s, k) in attr1.members for s in attr0.members
    )
    flags = [first_entry(substrate, s, halt_flag.members) for s in attr0.members]
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
    warnings = []
    if not attrR.members:
        warnings.append("running attribute is empty (duration-1 degenerate timer)")
    if horizon < 4 * k:
        warnings.append(
            f"completed attribute stays static for {horizon} steps, "
            f"less than four durations ({4 * k})"
        )
    halts = tuple(sorted(set(firsts)))
    return TimerSpec(
        name, substrate, attr0, attrR, attr1, halt_flag, halts, horizon, tuple(warnings)
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


def composite_timer(c1: TimerSpec, c2: TimerSpec) -> TimerSpec:
    """The pair of timers read as a single timer that halts when the faster does.

    Requires duration(c1) <= duration(c2).  The completion attribute is
    (1, R) when the durations differ and (1, 1) when they coincide; the
    halt flag is the first timer's flag, raised regardless of the second
    component.  make_timer rejects a pair that is no well-formed timer,
    such as two skewed timers whose flag rises before joint completion.
    """
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
    return make_timer(f"[{c1.name}⊕{second.name}]", joint, attr0, attrR, attr1, halt)


def recurrence_horizon(c: TimerSpec) -> int:
    """Least k > 0 after which the starting attribute's representative recurs.

    The representative is the starting state that comes first in the
    substrate's state order, so the result does not depend on set order.
    """
    members = c.attr0.members
    rep = next(s for s in c.substrate.states if s in members)
    return len(orbit(c.substrate, rep))


def check_staggered_halt(c1: TimerSpec, c2: TimerSpec) -> bool:
    """The strictly faster timer halts while the slower one still runs.

    Requires duration(c1) < duration(c2).  True iff from every joint
    starting state the pair shows (completed, running) at the faster
    timer's halt step.  A timer first shows completion when its flag is
    raised, and running is disjoint from completed, so no step up to the
    halt shows joint completion.  Operationally this is the failure of the
    (0,0) -> (1,1) task on the pair.  The halt steps are c1.halts, found
    by make_timer within each start's own cycle.
    """
    if c1.duration >= c2.duration:
        raise ModelError("staggered-halt check requires duration(c1) < duration(c2)")
    return all(
        evolve(c2.substrate, t, h) in c2.attrR.members for h in c1.halts for t in c2.attr0.members
    )


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
        c2.halts,
        c2.static_horizon,
        c2.warnings,
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


def timer_witness(c: TimerSpec) -> ConstructorWitness:
    """The timer as a constructor acting on nothing but itself.

    Trivial one-state device; the timer's own substrate carries the halt
    flag, so verification and accuracy read the timer's halt state
    directly.  The flag rises within the start's cycle or never, so the
    step budget, the longest cycle's length, cuts no run short.
    """
    device = make_substrate(f"{c.name}-dev", ("*",), {"*": "*"})
    joint = {("*", s): ("*", c.substrate.step[s]) for s in c.substrate.states}
    return ConstructorWitness(
        device=device,
        substrate=c.substrate,
        ready=Attribute(device, frozenset({"*"}), name="ready"),
        halt_flag=c.halt_flag,
        joint_step=joint,
        max_steps=max(cycle_lengths(c.substrate)),
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
