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


_NULL_KEY = None


def _task_key(task: TaskLike) -> tuple | None:
    """What a task compares by: its substrate instance and its two member sets.

    Names play no part, as in ``Task.__eq__``, and every null task has the
    key ``_NULL_KEY``.  The tuple hashes in C: ``Substrate`` hashes by
    identity and a frozenset caches its hash.
    """
    if isinstance(task, NullTask):
        return _NULL_KEY
    return (task.input.substrate, task.input.members, task.output.members)


@dataclass(frozen=True)
class Declared:
    """Provenance of a law stated by the model rather than derived."""


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


def possible(task: TaskLike) -> LawStatement:
    return LawStatement(task, Possibility.POSSIBLE)


def impossible(task: TaskLike) -> LawStatement:
    return LawStatement(task, Possibility.IMPOSSIBLE)


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
    return Task(a.input, b.output) if _chains(a, b) else NULL_TASK


def _chains(a: Task, b: Task) -> bool:
    """Whether a's output attribute is b's input (True) or disjoint from it (False).

    Raises CompositionUndefined when the two overlap without being equal.
    """
    if a.output.members == b.input.members:
        return True
    if a.output.members.isdisjoint(b.input.members):
        return False
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

    This is the library entry point, and the oracle for ``closure_summary``:
    ``ctm check`` runs the same loop without the parallel rule and counts
    the composite facts in closed form, so it builds no composite substrate.

    The result is that of the naive fixpoint, which in every round tries
    each ordered pair of distinct possible facts, then each fact with
    itself, in list order.  Three kinds of pair are skipped, each of which
    the naive loop tries to no effect:

    * Pairs already tried (semi-naive evaluation).  Facts are only ever
      appended, so a round's facts are the previous round's plus a new
      suffix, and a pair of two old facts was tried last round.
      ``derive_pair`` depends only on the two tasks and the composite
      cache, whose entries never change, so trying it again either
      finds its task already known or raises ``CompositionUndefined``:
      it adds nothing.
    * Pairs that no rule applies to: facts on two different substrates
      that are not both declared ones.
    * Once the null task is a fact, serial pairs whose intermediate
      attributes differ: disjoint ones give the null task again and
      partially overlapping ones are undefined.  Serial partners are then
      looked up by input attribute.

    The remaining pairs are tried in the same lexicographic order, so the
    same statements are derived in the same order from the same premises.

    Two tables keep each tried pair cheap.  Known facts are keyed by value
    (``_task_key``), a tuple that CPython hashes in C; a ``(Task,
    Possibility)`` key would run the dataclass-generated ``__hash__`` of
    the task and of both its attributes, and ``Enum.__hash__``, on every
    lookup.  The key is computed before anything is built, so a pair that
    derives a known fact builds no task and no statement.  And each
    composite pair attribute is built once per run, then shared by every
    task that uses it, so the parallel rule is ``parallel_compose`` without
    a fresh product per pair (and without its argument checks, which hold
    here by construction).  That memo is keyed by the identity of the
    composite and of both component attributes, never by attribute
    equality: equal attributes may carry different names, and a pair
    attribute's name is made from its components' names.
    """
    return _close(laws, parallel=True)


def _close(laws: LawSet, parallel: bool) -> LawSet:
    """The closure loop of ``deductive_closure``; with ``parallel`` false, the serial rule only."""
    known = {_task_key(st.task) for st in laws.statements if st.status is Possibility.POSSIBLE}
    order: list[LawStatement] = list(laws.statements)
    # the substrates the parallel rule pairs; with none, neither derive_pair's
    # parallel branch nor the parallel-partner merge below ever runs
    base = {id(s) for s in laws.substrates()} if parallel else set()
    composites: dict[tuple[int, int], Substrate] = dict(laws.composites)
    paired: dict[tuple[int, int, int], Attribute] = {}

    def pair(composite: Substrate, left: Attribute, right: Attribute) -> Attribute:
        key = (id(composite), id(left), id(right))
        attr = paired.get(key)
        if attr is None:
            attr = paired[key] = pair_attribute(composite, left, right)
        return attr

    def derive_pair(s1: LawStatement, s2: LawStatement) -> bool:
        t1, t2 = s1.task, s2.task
        sub1, sub2 = t1.input.substrate, t2.input.substrate
        if sub1 is sub2:
            try:
                chained = _chains(t1, t2)
            except CompositionUndefined:
                return False
            key = (sub1, t1.input.members, t2.output.members) if chained else _NULL_KEY
            if key in known:
                return False
            task = Task(t1.input, t2.output) if chained else NULL_TASK
            rule = "serial"
        elif id(sub1) in base and id(sub2) in base:
            composite = composites.get((id(sub1), id(sub2)))
            if composite is None:
                composite = composites[id(sub1), id(sub2)] = compose_substrates(sub1, sub2)
            inp, out = pair(composite, t1.input, t2.input), pair(composite, t1.output, t2.output)
            key = (composite, inp.members, out.members)
            if key in known:
                return False
            task, rule = Task(inp, out), "parallel"
        else:
            return False
        known.add(key)
        order.append(LawStatement(task, Possibility.POSSIBLE, Derived(rule, (s1, s2))))
        return True

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
                sid = id(st.task.input.substrate)
                by_substrate.setdefault(sid, []).append(len(possibles))
                joins.setdefault((sid, st.task.input.members), []).append(len(possibles))
                possibles.append(st)
        scanned = len(order)
        # distinct pairs first, so derived facts carry the more informative trace
        for i, s1 in enumerate(possibles):
            sid = id(s1.task.input.substrate)
            if _NULL_KEY in known:
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
    return LawSet(tuple(order), composites=composites)


def closure_summary(laws: LawSet) -> tuple[LawSet, int]:
    """The serial-rule closure of ``laws``, and ``len(deductive_closure(laws).statements)``.

    ``laws`` must cache no composite substrate, as a loaded model's laws do.

    *The serial closure is the full closure less its composite facts.*  In
    the full loop a fact on a composite pairs only with facts on the same
    composite (a composite is not a substrate the parallel rule pairs), and
    two facts on declared substrates derive a composite fact only by the
    parallel rule.  So dropping that rule drops exactly the composite facts,
    and every other pair is tried in the same relative order.  No composite
    fact is the null task or contradicts a declared law: a serial pair on a
    composite with disjoint intermediates y1 × y2 and z1 × z2 has y1, z1 or
    y2, z2 disjoint, so its component facts give the null task first, and
    declared laws are on declared substrates only.

    *The count.*  Key a product X × Y by ``(X, Y)``, or by EMPTY (``None``)
    when X or Y is empty; two products are equal sets exactly when their
    keys are equal, since products of non-empty factors determine their
    factors.  For an ordered pair (A, B) of distinct declared substrates, let
    P hold (in1 × in2, out1 × out2) for each possible fact in1 -> out1 of A's
    serial closure and in2 -> out2 of B's.  The parallel rule derives P,
    then the serial rule closes P on the composite; the claim is that the
    result is S = P ∪ E, E = {(x, z) : (x, EMPTY) ∈ P, (EMPTY, z) ∈ P}.

    * S is derivable: E's pairs chain through the equal intermediate EMPTY.
    * S is closed.  Chain (x, y), (y, z) in S.  An element of E with EMPTY
      on one side is in P already.
      - y is EMPTY: (x, EMPTY) and (EMPTY, z) lie in P, so (x, z) ∈ E.
      - y is not EMPTY, both in P: y = out1 × out2 = in1' × in2' gives
        out1 = in1' and out2 = in2', and A's and B's serial closures are
        transitively closed, so (x, z) ∈ P.
      - y is not EMPTY, (y, z) ∈ E: (y, EMPTY) ∈ P, so (x, EMPTY) ∈ P (by
        the case above, or from (x, y) ∈ E), and (EMPTY, z) ∈ P: (x, z) ∈ E.
      - y is not EMPTY, (x, y) ∈ E, (y, z) ∈ P: likewise (EMPTY, z) ∈ P and
        (x, EMPTY) ∈ P, so (x, z) ∈ E.

    So the composite facts on (A, B) number |S|, and the closure has that
    many statements beyond the serial closure's, summed over all (A, B).
    """
    if laws.composites:
        raise ModelError("closure_summary needs a law set that caches no composite substrate")
    serial = _close(laws, parallel=False)
    facts: dict[int, set[tuple[frozenset, frozenset]]] = {}
    for st in serial.statements:
        task = st.task
        if st.status is Possibility.POSSIBLE and isinstance(task, Task):
            fact = (task.input.members, task.output.members)
            facts.setdefault(id(task.substrate), set()).add(fact)

    def product(x: frozenset, y: frozenset) -> tuple | None:
        return (x, y) if x and y else None

    size = len(serial.statements)
    for a in facts.values():
        for b in facts.values():
            if a is not b:
                p = {(product(i1, i2), product(o1, o2)) for i1, o1 in a for i2, o2 in b}
                into = [x for x, y in p if y is None]
                out_of = [z for y, z in p if y is None]
                size += len(p.union((x, z) for x in into for z in out_of))
    return serial, size


@dataclass(frozen=True)
class Contradiction:
    task: TaskLike
    possible: LawStatement
    impossible: LawStatement


@dataclass(frozen=True)
class ConsistencyReport:
    contradictions: tuple[Contradiction, ...]


def check_consistency(laws: LawSet) -> ConsistencyReport:
    """Report every task held both possible and impossible.

    Run on a closed set to catch derived contradictions: the serial closure
    of ``closure_summary`` suffices, as no composite fact can contradict a
    declared law.  On an unclosed set only declared clashes are visible.
    Contradictions come in the order their tasks are first mentioned; each
    names the task as first mentioned and the last possible and last
    impossible statement on it.
    """
    first: dict = {}  # task key -> the task as first mentioned
    possibles: dict = {}  # task key -> the last possible statement on it
    impossibles: dict = {}
    for st in laws.statements:
        key = _task_key(st.task)
        first.setdefault(key, st.task)
        (possibles if st.status is Possibility.POSSIBLE else impossibles)[key] = st
    return ConsistencyReport(
        tuple(
            Contradiction(task, possibles[key], impossibles[key])
            for key, task in first.items()
            if key in possibles and key in impossibles
        )
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
