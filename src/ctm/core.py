"""Finite substrates, attributes, and reversible one-step dynamics.

The desk-scale model: a substrate is a finite set of state labels plus a
bijective one-step evolution map.  An attribute is a subset of a
substrate's states.  Every verdict exported by the other modules is
ultimately computed by exhaustive simulation of these maps, so all types
here are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Hashable, Iterable, Mapping

State = Hashable


class ModelError(ValueError):
    """A model object or argument violates a structural requirement."""


@dataclass(frozen=True, eq=False)
class Substrate:
    """A finite ordered set of distinct state labels evolving under a bijective one-step map.

    Equality is object identity: two substrates built from identical data
    are still distinct physical systems, and several operations (pairing,
    composition) depend on telling instances apart.
    """

    id: str
    states: tuple[State, ...]
    step: Mapping[State, State]
    children: tuple["Substrate", ...] = ()
    # every state lies on exactly one cycle: the cycles, and each state's (cycle, position)
    cycles: tuple[tuple[State, ...], ...] = field(init=False, repr=False)
    cycle_index: Mapping[State, tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "step", dict(self.step))
        if not self.states:
            raise ModelError(f"state space {self.id!r} has no states")
        labels = set(self.states)
        # a repeated label passes the domain check below, so count the labels here
        if len(labels) != len(self.states):
            raise ModelError(f"state space {self.id!r} has duplicate state labels")
        if set(self.step) != labels:
            raise ModelError(f"substrate {self.id!r}: step map domain != state set")
        if set(self.step.values()) != labels:
            raise ModelError(f"substrate {self.id!r}: step map is not a bijection")
        cycles = cycle_decomposition(self.states, self.step)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(
            self,
            "cycle_index",
            {state: (c, i) for c, cyc in enumerate(cycles) for i, state in enumerate(cyc)},
        )

    def __repr__(self) -> str:
        kind = "composite" if self.children else "atomic"
        return f"Substrate({self.id!r}, {len(self.states)} states, {kind})"


@dataclass(frozen=True)
class Attribute:
    """A named subset of a substrate's states.

    Name is metadata only; two attributes are equal when they pick out the
    same states of the same substrate instance.  Empty member sets are
    allowed (degenerate timers need them) and flagged by validators.
    """

    substrate: Substrate
    members: frozenset
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        step = self.substrate.step
        # per-member lookups: `members - step.keys()` would walk every state
        stray = [s for s in self.members if s not in step]
        if stray:
            raise ModelError(
                f"attribute {self.name or '?'}: members {sorted(map(repr, stray))} "
                f"not states of {self.substrate.id!r}"
            )

    def __repr__(self) -> str:
        return f"Attribute({self.name or sorted(map(repr, self.members))} on {self.substrate.id!r})"


def parameter_key(lam) -> int | Fraction:
    """The canonical form of a rational parameter value: an int when whole, else a Fraction.

    `lam` is anything `Fraction` accepts (an int, a Fraction, a float, or a
    string such as "3/2").  A whole value equals, and hashes like, its
    Fraction, so a table keyed by parameter_key answers lookups by either;
    keeping the DSL's integer parameters as ints lets hashing, sorting and
    comparison run in C instead of in Fraction's Python methods.
    """
    if type(lam) is int:
        return lam
    q = Fraction(lam)
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True, eq=False)
class Variable:
    """Disjoint attributes of one substrate indexed by a rational parameter.

    The parameter values are kept as `parameter_key` gives them: whole values
    as ints, the others as Fractions.  `attribute` and `in` accept any value
    `Fraction` accepts.  An entry may be static, which the `.ctm` loader
    warns on: no timed advance leaves it (`check_timed_advance` is False
    there, an empty entry included), and pointer recovery lists every static
    entry but λ = 0 as unmapped, so none makes a verdict wrong.
    """

    substrate: Substrate
    entries: Mapping[int | Fraction, Attribute]
    # the parameter values in increasing order
    domain: tuple[int | Fraction, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        normal = {parameter_key(k): v for k, v in self.entries.items()}
        object.__setattr__(self, "entries", normal)
        object.__setattr__(self, "domain", tuple(sorted(normal)))
        seen: set = set()
        for lam in self.domain:
            attr = normal[lam]
            if attr.substrate is not self.substrate:
                raise ModelError(f"variable entry {lam}: attribute on a different substrate")
            if attr.members & seen:
                raise ModelError(f"variable entry {lam}: attributes are not pairwise disjoint")
            seen |= attr.members

    def attribute(self, lam) -> Attribute:
        key = parameter_key(lam)
        if key not in self.entries:
            raise ModelError(f"parameter {lam} outside the variable's domain")
        return self.entries[key]

    def __contains__(self, lam) -> bool:
        return parameter_key(lam) in self.entries


def cycle_decomposition(
    states: Iterable[State], step: Mapping[State, State]
) -> tuple[tuple[State, ...], ...]:
    """The cycles of a bijective step map, in the order of their earliest states.

    Walks `states` in order and starts a new cycle at each state not yet
    seen, so each cycle begins at its earliest member in that order.
    """
    seen: set = set()
    cycles = []
    for start in states:
        if start in seen:
            continue
        cyc = [start]
        cur = step[start]
        while cur != start:
            cyc.append(cur)
            cur = step[cur]
        seen.update(cyc)
        cycles.append(tuple(cyc))
    return tuple(cycles)


def make_substrate(sid: str, states: Iterable[State], step: Mapping[State, State]) -> Substrate:
    return Substrate(sid, states, step)


def cyclic_substrate(sid: str, states: Iterable[State]) -> Substrate:
    """Substrate whose step advances along the given order, wrapping at the end."""
    seq = tuple(states)
    step = {seq[i]: seq[(i + 1) % len(seq)] for i in range(len(seq))}
    return make_substrate(sid, seq, step)


def identity_substrate(sid: str, states: Iterable[State]) -> Substrate:
    seq = tuple(states)
    return make_substrate(sid, seq, {s: s for s in seq})


def clone_substrate(s: Substrate) -> Substrate:
    """Fresh instance, its id primed, with the same states and step (a second copy of the system)."""
    return Substrate(s.id + "'", s.states, s.step, s.children)


def retarget(attr: Attribute, substrate: Substrate) -> Attribute:
    """The same member set read as an attribute of another substrate instance."""
    return Attribute(substrate, attr.members, name=attr.name)


def compose_substrates(a: Substrate, b: Substrate) -> Substrate:
    """Composite substrate: ordered-pair states, component-wise step.

    Rejects composing a substrate instance with itself; use
    :func:`clone_substrate` to model two copies of the same system.
    """
    if a is b:
        raise ModelError(
            f"cannot compose substrate {a.id!r} with itself; clone it to get a second instance"
        )
    states = tuple(product(a.states, b.states))
    step = {(x, y): (a.step[x], b.step[y]) for x, y in states}
    return Substrate(f"({a.id}⊕{b.id})", states, step, children=(a, b))


def pair_attribute(composite: Substrate, left: Attribute, right: Attribute, name: str = "") -> Attribute:
    """Attribute (x, y) of a composite substrate."""
    if len(composite.children) != 2:
        raise ModelError(f"{composite.id!r} is not a binary composite")
    ca, cb = composite.children
    if left.substrate is not ca or right.substrate is not cb:
        raise ModelError("pair_attribute: attributes do not match the composite's components")
    members = frozenset(product(left.members, right.members))
    return Attribute(composite, members, name=name or f"({left.name},{right.name})")


def evolve(s: Substrate, state: State, n: int) -> State:
    """State after n applications of the substrate's step map.

    Model-internal machinery: the step counter exists only inside the
    simulations, every exported verdict is a task-level statement.
    """
    if state not in s.step:
        raise ModelError(f"unknown state {state!r} of substrate {s.id!r}")
    if n < 0:
        raise ModelError("step count must be non-negative")
    c, i = s.cycle_index[state]
    cyc = s.cycles[c]
    return cyc[(i + n) % len(cyc)]


def first_entry(s: Substrate, state: State, members: frozenset) -> int | None:
    """First step index (0-based, counting the start) at which the state lies in members.

    Walks the state's own cycle once: a first entry, if any, happens within it.
    """
    for k, x in enumerate(orbit(s, state)):
        if x in members:
            return k
    return None


def orbit(s: Substrate, state: State) -> tuple[State, ...]:
    """The cycle through `state` under the step map, starting at `state`."""
    if state not in s.step:
        raise ModelError(f"unknown state {state!r} of substrate {s.id!r}")
    c, i = s.cycle_index[state]
    cyc = s.cycles[c]
    return cyc[i:] + cyc[:i]


def cycle_lengths(s: Substrate) -> tuple[int, ...]:
    return tuple(len(cyc) for cyc in s.cycles)


def recurrence_period(s: Substrate) -> int:
    """Least L > 0 with evolve(s, x, L) == x for every state x (lcm of cycle lengths)."""
    return math.lcm(*cycle_lengths(s))


def is_static(x: Attribute) -> bool:
    """True iff the member set is invariant under the step map.

    On a finite bijection, forward closure already forces exact
    invariance, so image == members is the whole check.
    """
    step = x.substrate.step
    return {step[s] for s in x.members} == x.members


def entry_states(x: Attribute) -> frozenset:
    """Members whose immediate predecessor lies outside the attribute."""
    cycles, index = x.substrate.cycles, x.substrate.cycle_index
    entries = set()
    for s in x.members:
        c, i = index[s]
        if cycles[c][i - 1] not in x.members:
            entries.add(s)
    return frozenset(entries)


def is_static_for_horizon(x: Attribute, h: int) -> bool:
    """Horizon-bounded staticity.

    True iff every state that enters the attribute (its predecessor lies
    outside) then remains inside for at least h further steps.  An
    attribute with no entry states is invariant under a bijection and so
    is static for every horizon; h = 0 is trivially true.  This is the
    operational sense in which a finite system's completion attribute is
    "static in practice" despite eventual recurrence.
    """
    if h < 0:
        raise ModelError("horizon must be non-negative")
    return static_horizon(x, cap=h) >= h


def static_horizon(x: Attribute, cap: int | None = None) -> int:
    """Largest h <= cap for which is_static_for_horizon holds (cap defaults to the recurrence period)."""
    if cap is None:
        cap = recurrence_period(x.substrate)
    step = x.substrate.step
    best = cap
    for start in entry_states(x):
        cur = start
        stayed = 0
        while stayed < cap:
            cur = step[cur]
            if cur not in x.members:
                break
            stayed += 1
        best = min(best, stayed)
    return best


def are_distinguishable(xs: Iterable[Attribute]) -> bool:
    """Pairwise disjointness, the classical criterion for perfect classification."""
    attrs = list(xs)
    if len(attrs) < 2:
        raise ModelError("distinguishability needs at least two attributes")
    substrate = attrs[0].substrate
    for a in attrs[1:]:
        if a.substrate is not substrate:
            raise ModelError("attributes on different substrates are not comparable")
    seen: set = set()
    for a in attrs:
        if a.members & seen:
            return False
        seen |= a.members
    return True
