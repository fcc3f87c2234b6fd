"""Finite substrates, attributes, and reversible one-step dynamics.

The desk-scale model: a substrate is a finite set of state labels plus a
bijective one-step evolution map.  An attribute is a subset of a
substrate's states.  Every verdict exported by the other modules is a
fact of these maps, found by simulating them or by a closed form equal
to the simulation (a counter or particle timer builds its ring only when
asked), and all operations are pure functions.  The types here are
immutable by convention: each has ``__slots__`` (no attribute can be
added), and nothing assigns to an instance once it is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import attrgetter
from typing import Hashable, Iterable, Mapping

State = Hashable


class ModelError(ValueError):
    """A model object or argument violates a structural requirement."""


class Substrate:
    """A finite ordered set of distinct state labels evolving under a bijective one-step map.

    Equality is object identity: two substrates built from identical data
    are still distinct physical systems, and several operations (pairing,
    composition) depend on telling instances apart.
    """

    # every state lies on exactly one cycle: the cycles, and each state's (cycle, position)
    __slots__ = ("id", "states", "step", "children", "cycles", "cycle_index")

    def __init__(
        self,
        id: str,
        states: Iterable[State],
        step: Mapping[State, State],
        children: tuple["Substrate", ...] = (),
    ) -> None:
        self.id = id
        self.states = states = tuple(states)
        self.step = step = dict(step)
        self.children = children
        if not states:
            raise ModelError(f"state space {id!r} has no states")
        labels = set(states)
        # a repeated label passes the domain check below, so count the labels here
        if len(labels) != len(states):
            raise ModelError(f"state space {id!r} has duplicate state labels")
        if set(step) != labels:
            raise ModelError(f"substrate {id!r}: step map domain != state set")
        if set(step.values()) != labels:
            raise ModelError(f"substrate {id!r}: step map is not a bijection")
        self.cycles = cycles = cycle_decomposition(states, step)
        self.cycle_index = {
            state: (c, i) for c, cyc in enumerate(cycles) for i, state in enumerate(cyc)
        }

    def __repr__(self) -> str:
        kind = "composite" if self.children else "atomic"
        return f"Substrate({self.id!r}, {len(self.states)} states, {kind})"


class Attribute:
    """A named subset of a substrate's states.

    Name is metadata only; two attributes are equal when they pick out the
    same states of the same substrate instance.  Empty member sets are
    allowed (degenerate timers need them) and flagged by validators.
    """

    __slots__ = ("substrate", "members", "name")

    def __init__(self, substrate: Substrate, members: Iterable[State], name: str = "") -> None:
        self.substrate = substrate
        self.members = members = frozenset(members)
        self.name = name
        step = substrate.step
        # one lookup per member, in C: `members - step.keys()` would walk every state
        if not step.keys() >= members:
            stray = [s for s in members if s not in step]
            raise ModelError(
                f"attribute {name or '?'}: members {sorted(map(repr, stray))} "
                f"not states of {substrate.id!r}"
            )

    def __eq__(self, other: object):
        if other.__class__ is not Attribute:
            return NotImplemented
        return self.substrate is other.substrate and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.substrate, self.members))

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


_INT = frozenset((int,))


def parameter_table(table: Mapping, convert=None) -> dict:
    """`table` keyed by `parameter_key`, each value passed through `convert` when it is given.

    A table whose keys are all ints, as the `.ctm` loader's are, is copied
    in C; of two keys with one canonical form, the later one's value stays.
    """
    keys = table.keys()
    if _INT.issuperset(map(type, keys)):
        if convert is None:
            return dict(table)
    else:
        keys = map(parameter_key, keys)
    values = table.values()
    return dict(zip(keys, values if convert is None else map(convert, values)))


_members, _substrate = attrgetter("members"), attrgetter("substrate")


class Variable:
    """Disjoint attributes of one substrate indexed by a rational parameter.

    The parameter values are kept as `parameter_key` gives them: whole values
    as ints, the others as Fractions.  `attribute` and `in` accept any value
    `Fraction` accepts.  An entry may be static, which the `.ctm` loader
    warns on: no timed advance leaves it (`incremental_ratio` raises
    AdvanceCheckFailed there, an empty entry included), so none makes a
    verdict wrong.  Equality is object identity.
    """

    # domain: the parameter values in increasing order
    __slots__ = ("substrate", "entries", "domain")

    def __init__(self, substrate: Substrate, entries: Mapping[object, Attribute]) -> None:
        self.substrate = substrate
        self.entries = normal = parameter_table(entries)
        self.domain = tuple(sorted(normal))
        # the entries are disjoint iff no state is in two of them; both checks run
        # in C, and the loop below runs only to name the first entry that fails
        sets = list(map(_members, normal.values()))
        on_substrate = {substrate}.issuperset(map(_substrate, normal.values()))
        if on_substrate and sum(map(len, sets)) == len(frozenset().union(*sets)):
            return
        seen: set = set()
        for lam in self.domain:
            attr = normal[lam]
            if attr.substrate is not substrate:
                raise ModelError(f"variable entry {lam}: attribute on a different substrate")
            if not seen.isdisjoint(attr.members):
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


def cyclic_substrate(sid: str, states: Iterable[State]) -> Substrate:
    """Substrate whose step advances along the given order, wrapping at the end."""
    seq = tuple(states)
    step = {seq[i]: seq[(i + 1) % len(seq)] for i in range(len(seq))}
    return Substrate(sid, seq, step)


def identity_substrate(sid: str, states: Iterable[State]) -> Substrate:
    seq = tuple(states)
    return Substrate(sid, seq, {s: s for s in seq})


def compose_substrates(a: Substrate, b: Substrate) -> Substrate:
    """Composite substrate: ordered-pair states, component-wise step.

    Rejects composing a substrate instance with itself: two copies of one
    system are two instances, built from the same states and step.
    """
    if a is b:
        raise ModelError(
            f"cannot compose substrate {a.id!r} with itself; build a second instance of it"
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
    invariance, and the step sends the members onto as many distinct
    states, so image <= members is the whole check.
    """
    members = x.members
    return members.issuperset(map(x.substrate.step.__getitem__, members))


def entry_states(x: Attribute) -> frozenset:
    """Members whose immediate predecessor lies outside the attribute."""
    cycles, index = x.substrate.cycles, x.substrate.cycle_index
    entries = set()
    for s in x.members:
        c, i = index[s]
        if cycles[c][i - 1] not in x.members:
            entries.add(s)
    return frozenset(entries)


def static_horizon(x: Attribute, cap: int | None = None) -> int:
    """Largest h <= cap such that every state entering the attribute stays in it for h more steps.

    A state enters when its predecessor lies outside.  An attribute with no
    entry state is invariant under the bijection, so its horizon is the cap,
    which defaults to the recurrence period.  This is the operational sense
    in which a finite system's completion attribute is "static in practice"
    despite eventual recurrence.
    """
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
