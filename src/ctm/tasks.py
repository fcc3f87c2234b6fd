"""Tasks, law sets, and the deductive closure of possibility statements.

A task is an ordered pair of attributes of one substrate.  Declared laws
assign a status (possible / impossible) to tasks; the closure derives
further possible statements from serial and parallel composition, with
provenance kept on every derived fact.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from itertools import chain
from dataclasses import dataclass, field
from typing import Mapping, Union

from .core import (
    Attribute,
    ModelError,
    Substrate,
    compose_substrates,
    pair_attribute,
)


class Possibility(enum.Enum):
    POSSIBLE = "possible"
    IMPOSSIBLE = "impossible"


class CompositionUndefined(ModelError):
    """Serial composition with partially overlapping intermediate attributes."""


@dataclass(frozen=True)
class NullTask:
    """The most lenient task: no substrate, no input or output constraint.

    Represented by the empty set of attribute pairs, so serial composition
    with it yields the null task again (there are no pairs to chain).
    """

    def __repr__(self) -> str:
        return "NullTask()"


NULL_TASK = NullTask()


@dataclass(frozen=True)
class Task:
    """Ordered pair of attributes on one substrate."""

    input: Attribute
    output: Attribute

    def __post_init__(self) -> None:
        if self.input.substrate is not self.output.substrate:
            raise ModelError("task input and output must be attributes of the same substrate")

    @property
    def substrate(self) -> Substrate:
        return self.input.substrate

    def __repr__(self) -> str:
        i = self.input.name or "{" + ",".join(sorted(map(str, self.input.members))) + "}"
        o = self.output.name or "{" + ",".join(sorted(map(str, self.output.members))) + "}"
        return f"Task({i} -> {o} on {self.substrate.id})"


TaskLike = Union[Task, NullTask]


@dataclass(frozen=True)
class Declared:
    note: str = ""


@dataclass(frozen=True)
class Derived:
    rule: str
    premises: tuple["LawStatement", ...]


Provenance = Union[Declared, Derived]


@dataclass(frozen=True)
class LawStatement:
    task: TaskLike
    status: Possibility
    provenance: Provenance = Declared()

    def __repr__(self) -> str:
        mark = "✓" if self.status is Possibility.POSSIBLE else "✗"
        return f"LawStatement({self.task!r}{mark})"


def possible(task: TaskLike, note: str = "") -> LawStatement:
    return LawStatement(task, Possibility.POSSIBLE, Declared(note))


def impossible(task: TaskLike, note: str = "") -> LawStatement:
    return LawStatement(task, Possibility.IMPOSSIBLE, Declared(note))


@dataclass(frozen=True)
class LawSet:
    """A collection of law statements plus the substrate registry they mention.

    The composite-substrate cache is part of the value so that repeated
    closure runs derive tasks on identical composite instances (closure is
    then idempotent in the strict sense).
    """

    statements: tuple[LawStatement, ...]
    composites: Mapping[tuple[int, int], Substrate] = field(
        default_factory=dict, compare=False, repr=False
    )
    closed: bool = False

    @staticmethod
    def of(*statements: LawStatement) -> "LawSet":
        out: list[LawStatement] = []
        seen: set = set()
        for st in statements:
            key = (st.task, st.status)
            if key not in seen:
                seen.add(key)
                out.append(st)
        return LawSet(tuple(out))

    def substrates(self) -> tuple[Substrate, ...]:
        """Substrates mentioned by any statement, in first-mention order, except cached composites.

        The composites an earlier closure built stay out, so closing a
        closed set pairs the same substrates as the first closure did.
        """
        built = {id(c) for c in self.composites.values()}
        seen: dict[int, Substrate] = {}
        for st in self.statements:
            if isinstance(st.task, Task) and id(st.task.substrate) not in built:
                seen.setdefault(id(st.task.substrate), st.task.substrate)
        return tuple(seen.values())

    def facts(self) -> dict[tuple[TaskLike, Possibility], LawStatement]:
        return {(st.task, st.status): st for st in self.statements}

    def statement_keys(self) -> frozenset:
        return frozenset((st.task, st.status) for st in self.statements)

    def holds(self, task: TaskLike, status: Possibility) -> bool:
        return any(st.task == task and st.status is status for st in self.statements)


def serial_compose(a: TaskLike, b: TaskLike) -> TaskLike:
    """Chain two tasks on one substrate.

    Equal intermediate attributes chain into one task; disjoint ones
    compose to the null task; a partial overlap is rejected outright
    rather than guessed at.  The null task is absorbing (it has no
    attribute pairs to chain through).
    """
    if isinstance(a, NullTask) or isinstance(b, NullTask):
        return NULL_TASK
    if a.substrate is not b.substrate:
        raise ModelError("serial composition needs both tasks on the same substrate")
    if a.output.members == b.input.members:
        return Task(a.input, b.output)
    if not (a.output.members & b.input.members):
        return NULL_TASK
    raise CompositionUndefined(
        "composition undefined: intermediate attributes overlap without being equal"
    )


def parallel_compose(a: Task, b: Task, composite: Substrate | None = None) -> Task:
    """Run two tasks side by side on the composite of their substrates."""
    if isinstance(a, NullTask) or isinstance(b, NullTask):
        raise ModelError("parallel composition is defined for substrate tasks only")
    if a.substrate is b.substrate:
        raise ModelError("parallel composition needs two distinct substrate instances")
    if composite is None:
        composite = compose_substrates(a.substrate, b.substrate)
    elif composite.children != (a.substrate, b.substrate):
        raise ModelError("provided composite does not pair the tasks' substrates")
    return Task(
        pair_attribute(composite, a.input, b.input),
        pair_attribute(composite, a.output, b.output),
    )


def deductive_closure(laws: LawSet) -> LawSet:
    """Least fixpoint of the composition rules over the mentioned attributes.

    Derives possible statements only: serial composition within a
    substrate, and parallel composition across distinct substrates that
    appear in the declared statements.  Composites created by the closure
    itself are not paired again, which keeps the attribute universe (and
    hence the run) finite.  Every derived statement records its rule and
    premises.

    The result is that of the naive fixpoint, which in every round tries
    each ordered pair of distinct possible facts, then each fact with
    itself, in list order.  Three kinds of pair are skipped, each of which
    the naive loop tries to no effect:

    * Pairs already tried (semi-naive evaluation).  Facts are only ever
      appended, so a round's facts are the previous round's plus a new
      suffix, and a pair of two old facts was tried last round.
      ``derive_pair`` depends only on the two tasks and the composite
      cache, whose entries never change, so trying it again either
      rebuilds a task already in ``facts`` or raises
      ``CompositionUndefined``: it adds nothing.
    * Pairs that no rule applies to: facts on two different substrates
      that are not both declared ones.
    * Once the null task is a fact, serial pairs whose intermediate
      attributes differ: disjoint ones give the null task again and
      partially overlapping ones are undefined.  Serial partners are then
      looked up by input attribute.

    The remaining pairs are tried in the same lexicographic order, so the
    same statements are derived in the same order from the same premises.
    """
    facts = dict(laws.facts())
    order: list[LawStatement] = list(laws.statements)
    base = {id(s) for s in laws.substrates()}
    composites: dict[tuple[int, int], Substrate] = dict(laws.composites)

    def add(task: TaskLike, rule: str, premises: tuple[LawStatement, ...]) -> bool:
        key = (task, Possibility.POSSIBLE)
        if key in facts:
            return False
        st = LawStatement(task, Possibility.POSSIBLE, Derived(rule, premises))
        facts[key] = st
        order.append(st)
        return True

    def derive_pair(s1: LawStatement, s2: LawStatement) -> bool:
        t1, t2 = s1.task, s2.task
        if t1.substrate is t2.substrate:
            try:
                composed = serial_compose(t1, t2)
            except CompositionUndefined:
                return False
            return add(composed, "serial", (s1, s2))
        if id(t1.substrate) in base and id(t2.substrate) in base:
            key = (id(t1.substrate), id(t2.substrate))
            if key not in composites:
                composites[key] = compose_substrates(t1.substrate, t2.substrate)
            return add(parallel_compose(t1, t2, composites[key]), "parallel", (s1, s2))
        return False

    # positions in `possibles`, ascending: by substrate, and by (substrate, input members)
    possibles: list[LawStatement] = []
    by_substrate: dict[int, list[int]] = {}
    joins: dict[tuple[int, frozenset], list[int]] = {}
    scanned = 0
    changed = True
    while changed:
        changed = False
        old = len(possibles)
        for st in order[scanned:]:
            if st.status is Possibility.POSSIBLE and isinstance(st.task, Task):
                sid = id(st.task.substrate)
                by_substrate.setdefault(sid, []).append(len(possibles))
                joins.setdefault((sid, st.task.input.members), []).append(len(possibles))
                possibles.append(st)
        scanned = len(order)
        # distinct pairs first, so derived facts carry the more informative trace
        for i, s1 in enumerate(possibles):
            sid = id(s1.task.substrate)
            if (NULL_TASK, Possibility.POSSIBLE) in facts:
                partners = joins.get((sid, s1.task.output.members), [])
            else:
                partners = by_substrate[sid]
            if sid in base:  # add the parallel partners, on the other declared substrates
                others = (by_substrate.get(b, []) for b in base if b != sid)
                partners = sorted(chain(partners, *others))
            for j in partners[bisect_left(partners, 0 if i >= old else old):]:
                if possibles[j] is not s1:
                    changed |= derive_pair(s1, possibles[j])
        for s1 in possibles[old:]:
            changed |= derive_pair(s1, s1)
    return LawSet(tuple(order), composites=composites, closed=True)


@dataclass(frozen=True)
class Contradiction:
    task: TaskLike
    possible: LawStatement
    impossible: LawStatement


@dataclass(frozen=True)
class ConsistencyReport:
    contradictions: tuple[Contradiction, ...]

    @property
    def consistent(self) -> bool:
        return not self.contradictions


def check_consistency(laws: LawSet) -> ConsistencyReport:
    """Report every task held both possible and impossible.

    Run after deductive_closure to catch derived contradictions; on an
    unclosed set only declared clashes are visible.
    """
    facts = laws.facts()
    found = []
    seen: set = set()
    for (task, status), st in facts.items():
        if task in seen:
            continue
        other = facts.get((task, _flip(status)))
        if other is not None:
            seen.add(task)
            pos, neg = (st, other) if status is Possibility.POSSIBLE else (other, st)
            found.append(Contradiction(task, pos, neg))
    return ConsistencyReport(tuple(found))


def _flip(status: Possibility) -> Possibility:
    return (
        Possibility.IMPOSSIBLE if status is Possibility.POSSIBLE else Possibility.POSSIBLE
    )


def premise_chain(st: LawStatement) -> list[LawStatement]:
    """Statements supporting st, depth-first, declared leaves included."""
    out: list[LawStatement] = []

    def walk(s: LawStatement) -> None:
        out.append(s)
        if isinstance(s.provenance, Derived):
            for p in s.provenance.premises:
                walk(p)

    walk(st)
    return out
