"""Tasks, law sets, and the deductive closure of possibility statements.

A task is an ordered pair of attributes of one substrate.  Declared laws
assign a status (possible / impossible) to tasks; the closure derives
further possible statements from serial and parallel composition, with
provenance kept on every derived fact.

``deductive_closure`` builds every derived statement.  ``closure_summary``
decides what ``ctm check`` reports from the declared laws alone: on one
substrate the possible facts are the pairs joined by a walk of declared
possible laws, found by breadth-first search; the null task comes from the
first pair of declared laws with disjoint intermediates; and the composite
facts are counted in closed form.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from itertools import chain, permutations
from typing import Collection, Mapping, NamedTuple, Union

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


class NullTask:
    """The most lenient task: no substrate, no input or output constraint.

    Represented by the empty set of attribute pairs, so serial composition
    with it yields the null task again (there are no pairs to chain).
    Every null task equals every other.
    """

    __slots__ = ()

    def __eq__(self, other: object):
        return True if other.__class__ is NullTask else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "NullTask()"


NULL_TASK = NullTask()


class Task:
    """Ordered pair of attributes on one substrate, equal to a task with equal attributes."""

    __slots__ = ("input", "output")

    def __init__(self, input: Attribute, output: Attribute) -> None:
        if input.substrate is not output.substrate:
            raise ModelError("task input and output must be attributes of the same substrate")
        self.input = input
        self.output = output

    def __eq__(self, other: object):
        if other.__class__ is not Task:
            return NotImplemented
        return self.input == other.input and self.output == other.output

    def __hash__(self) -> int:
        return hash((self.input, self.output))

    @property
    def substrate(self) -> Substrate:
        return self.input.substrate

    def __repr__(self) -> str:
        return f"Task({task_label(self)})"


TaskLike = Union[Task, NullTask]


def _attr_label(attr: Attribute) -> str:
    return attr.name or "{" + ",".join(sorted(map(str, attr.members))) + "}"


def task_label(task: TaskLike) -> str:
    """``in -> out on S``, each attribute by its name or else its sorted members; or ``null``."""
    if isinstance(task, NullTask):
        return "null"
    return f"{_attr_label(task.input)} -> {_attr_label(task.output)} on {task.substrate.id}"


def permutation_possible(t: Task) -> bool:
    """Does some permutation of the substrate's states map the input into the output?

    Iff |input| <= |output|.  A permutation is injective, so it sends the
    input onto |input| distinct states, all in the output.  Conversely,
    match the input one-to-one into the output and the remaining states
    one-to-one onto the remaining images; the two counts agree.  This is
    Hall's condition for the bipartite graph in which an input state may
    take any output and every other state any state: a set holding a
    non-input state sees every state, and a set of input states sees the
    output, so the whole input is the one set to test.  It decides
    ``witnesses.search_impossibility(t).found`` at any substrate size.
    """
    return len(t.input.members) <= len(t.output.members)


_NULL_KEY = None


def _task_key(task: TaskLike) -> tuple | None:
    """What a task compares by: its substrate instance and its two member sets.

    Names play no part, as in ``Task.__eq__``, and every null task has the
    key ``_NULL_KEY``.  The tuple hashes in C, where ``Task.__hash__`` and
    ``Attribute.__hash__`` are Python methods: ``Substrate`` hashes by
    identity and a frozenset caches its hash.
    """
    if isinstance(task, NullTask):
        return _NULL_KEY
    return (task.input.substrate, task.input.members, task.output.members)


class Derived(NamedTuple):
    rule: str
    premises: tuple["LawStatement", ...]


class LawStatement(NamedTuple):
    """A status on a task; ``provenance`` None means the model states the law."""

    task: TaskLike
    status: Possibility
    provenance: Derived | None = None

    def __repr__(self) -> str:
        mark = "✓" if self.status is Possibility.POSSIBLE else "✗"
        return f"LawStatement({self.task!r}{mark})"


def possible(task: TaskLike) -> LawStatement:
    return LawStatement(task, Possibility.POSSIBLE)


def impossible(task: TaskLike) -> LawStatement:
    return LawStatement(task, Possibility.IMPOSSIBLE)


class LawSet:
    """A collection of law statements plus the substrate registry they mention.

    A law set carries the composite-substrate cache so that repeated
    closure runs derive tasks on identical composite instances (closure is
    then idempotent in the strict sense).  Two law sets are equal when
    their statements are; the cache plays no part.
    """

    __slots__ = ("statements", "composites")

    def __init__(
        self,
        statements: tuple[LawStatement, ...],
        composites: Mapping[tuple[int, int], Substrate] | None = None,
    ) -> None:
        self.statements = statements
        self.composites = {} if composites is None else composites

    def __eq__(self, other: object):
        if other.__class__ is not LawSet:
            return NotImplemented
        return self.statements == other.statements

    def __hash__(self) -> int:
        return hash(self.statements)

    def __repr__(self) -> str:
        return f"LawSet(statements={self.statements!r})"

    @staticmethod
    def of(*statements: LawStatement) -> "LawSet":
        out: list[LawStatement] = []
        seen: set = set()
        for st in statements:
            key = (_task_key(st.task), st.status)
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
    attribute pairs to chain through).  This is the serial rule of
    ``deductive_closure``, which applies it inline; the reference fixpoint
    ``naive_closure`` in ``tests/test_tasks.py`` calls it as written.
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
    """Run two tasks side by side on the composite of their substrates.

    This is the parallel rule of ``deductive_closure``, which applies it
    inline; the reference fixpoint ``naive_closure`` in
    ``tests/test_tasks.py`` calls it as written.
    """
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

    This is the library entry point, and the oracle for ``closure_summary``,
    which decides what ``ctm check`` reports without building any derived
    statement or composite substrate.

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
    Possibility)`` key would run the Python ``__hash__`` methods of the
    task and of both its attributes, and ``Enum.__hash__``, on every
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
    known = {_task_key(st.task) for st in laws.statements if st.status is Possibility.POSSIBLE}
    order: list[LawStatement] = list(laws.statements)
    base = {id(s) for s in laws.substrates()}
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
        else:  # two declared substrates, the only ones the loop below pairs across
            composite = composites.get((id(sub1), id(sub2)))
            if composite is None:
                composite = composites[id(sub1), id(sub2)] = compose_substrates(sub1, sub2)
            inp, out = pair(composite, t1.input, t2.input), pair(composite, t1.output, t2.output)
            key = (composite, inp.members, out.members)
            if key in known:
                return False
            task, rule = Task(inp, out), "parallel"
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


def closure_summary(
    laws: LawSet,
) -> tuple[tuple[Contradiction, ...], LawStatement | None, int]:
    """What ``ctm check`` reports of the closure, decided on the declared laws.

    Returns ``check_consistency(deductive_closure(laws))``, the closure's
    possible null-task statement (or None), and the number of statements in
    ``deductive_closure(laws)``.  Only a derived fact whose shortest chain
    has three or more laws is cited differently (see *Premises*).  ``laws``
    must cache no composite substrate, as a loaded model's laws do.  No
    composite substrate is built, and no statement per derived fact.

    *Facts on a declared substrate are reachable pairs.*  The parallel rule
    derives facts on composites only, and a fact on a composite pairs only
    with facts on the same composite (a composite is not a substrate the
    parallel rule pairs).  So the facts on a declared substrate come from
    the serial rule alone.  It chains a -> b and b' -> c into a -> c only
    when b = b' as member sets: disjoint intermediates give the null task,
    and partially overlapping ones are undefined.  Take a substrate's
    declared possible laws as the edges of a graph on member sets.  Every
    fact is then a walk of one or more edges, and every such walk is derived
    (by induction on its length).  So the facts are the pairs (a, c) joined
    by a walk, and one breadth-first search from each input finds them
    (``_walks``).  The closure's statements are the declared ones, one per
    such pair that no declared possible law names, the null task if derived,
    and the composite facts.

    *No composite fact is the null task or contradicts a declared law.*  A
    serial pair on a composite with disjoint intermediates y1 × y2 and
    z1 × z2 has y1, z1 or y2, z2 disjoint, so its component facts give the
    null task first; and declared laws are on declared substrates only.

    *The null task.*  A serial pair gives it iff its intermediates are
    disjoint and unequal (two empty sets are equal).  A fact's input is that
    of the first law of its walk and its output that of the last, so the
    null task is derived iff two declared possible laws on one substrate,
    or one law with itself, have such an output and input.  The fixpoint's
    first round tries every pair of declared laws: distinct pairs in
    lexicographic order of declaration, then each law with itself.  So its
    premises are the first such pair in that order (``_null_statement``).

    *Premises.*  A contradiction needs an impossible statement, and only
    declared statements are impossible, so only a fact on a task some
    declared law names can be contradicted.  Its possible statement is the
    last declared possible one on that task or, with none, the derived one.
    A fact a -> c whose shortest walk has two laws is derived in the first
    round, from the lexicographically first pair (i, j) of declared laws
    with in_i = a, out_i = in_j and out_j = c.  The search from a tries the
    laws leaving each node in declared order, and keeps the first law that
    reaches each node.  The nodes one law from a thus enter its queue in the
    order of the first law reaching each.  So the first of them with a law
    to c is out_i for the least such i, and the first law from it to c is
    j: the search's path is the fixpoint's pair of premises.  A fact whose
    shortest walk is longer cites the flat chain of declared laws on the
    search's path, where the fixpoint nests pairs of facts.

    *The composite count.*  Key a product X × Y by ``(X, Y)``, or by EMPTY
    when X or Y is empty; two products are equal sets exactly when their
    keys are equal.  For an ordered pair (A, B) of distinct declared
    substrates, let P hold (in1 × in2, out1 × out2) for each fact in1 ->
    out1 of A and in2 -> out2 of B.  The parallel rule derives P, then the
    serial rule closes P on the composite; the result is S = P ∪ E, where
    E = into × out_of, into = {x : (x, EMPTY) ∈ P} and out_of = {z :
    (EMPTY, z) ∈ P}.

    * S is derivable: E's pairs chain through the equal intermediate EMPTY.
    * S is closed.  Chain (x, y), (y, z) in S.  An element of E with EMPTY
      on one side is in P already.
      - y is EMPTY: (x, EMPTY) and (EMPTY, z) lie in P, so (x, z) ∈ E.
      - y is not EMPTY, both in P: y = out1 × out2 = in1' × in2' gives
        out1 = in1' and out2 = in2', and A's and B's facts are transitively
        closed, so (x, z) ∈ P.
      - y is not EMPTY, (y, z) ∈ E: (y, EMPTY) ∈ P, so (x, EMPTY) ∈ P (by
        the case above, or from (x, y) ∈ E), and (EMPTY, z) ∈ P: (x, z) ∈ E.
      - y is not EMPTY, (x, y) ∈ E, (y, z) ∈ P: likewise (EMPTY, z) ∈ P and
        (x, EMPTY) ∈ P, so (x, z) ∈ E.

    |S| then follows from counts of A's facts and of B's, in closed form
    (``_composite_facts``).
    """
    if laws.composites:
        raise ModelError("closure_summary needs a law set that caches no composite substrate")
    possibles = [st for st in laws.statements if st.status is Possibility.POSSIBLE]
    on: dict[Substrate, list[LawStatement]] = {}
    for st in possibles:
        if isinstance(st.task, Task):
            on.setdefault(st.task.substrate, []).append(st)
    reached = {sub: _walks(sub_laws) for sub, sub_laws in on.items()}
    known = {_task_key(st.task) for st in possibles}
    # a declared possible null task leaves every declared possible law a task
    declared_null = next((st for st in possibles if isinstance(st.task, NullTask)), None)
    null = declared_null or _null_statement(possibles, on)
    facts = sum(len(walk) for walks in reached.values() for walk in walks.values())
    size = len(laws.statements) + facts - len(known - {_NULL_KEY}) + (null is not declared_null)
    counts = [_fact_counts(walks) for walks in reached.values()]
    size += sum(_composite_facts(a, b) for a, b in permutations(counts, 2))
    # the derived statements a contradiction can name: the null task, then the task of
    # each impossible law that a walk reaches and no declared possible law names
    derived = {} if null is declared_null else {_NULL_KEY: null}
    for st in laws.statements:
        key = _task_key(st.task)
        if isinstance(st.task, Task) and key not in known and key not in derived:
            walk = reached.get(st.task.substrate, {}).get(st.task.input.members, {})
            if st.task.output.members in walk:
                derived[key] = _chain(walk, st.task.input.members, st.task.output.members)
    contradictions = check_consistency(LawSet(laws.statements + tuple(derived.values())))
    return contradictions, null, size


class Contradiction(NamedTuple):
    task: TaskLike
    possible: LawStatement
    impossible: LawStatement


def check_consistency(laws: LawSet) -> tuple[Contradiction, ...]:
    """Every task held both possible and impossible.

    Run on a closed set to catch derived contradictions; on an unclosed set
    only declared clashes are visible.  Contradictions come in the order
    their tasks are first mentioned; each names the task as first mentioned
    and the last possible and last impossible statement on it.
    """
    first: dict = {}  # task key -> the task as first mentioned
    possibles: dict = {}  # task key -> the last possible statement on it
    impossibles: dict = {}
    for st in laws.statements:
        key = _task_key(st.task)
        first.setdefault(key, st.task)
        (possibles if st.status is Possibility.POSSIBLE else impossibles)[key] = st
    return tuple(
        Contradiction(task, possibles[key], impossibles[key])
        for key, task in first.items()
        if key in possibles and key in impossibles
    )


def _walks(laws: list[LawStatement]) -> dict[frozenset, dict[frozenset, LawStatement]]:
    """From each input of ``laws``, the member sets one or more of them lead to.

    Each comes with the law that first reaches it in a breadth-first
    search that tries the laws leaving each node in the order given.
    """
    leaving: dict[frozenset, list[LawStatement]] = {}
    for law in laws:
        leaving.setdefault(law.task.input.members, []).append(law)
    walks = {}
    for source in leaving:
        parent = walks[source] = {}
        queue = [source]
        for node in queue:
            for law in leaving.get(node, ()):
                out = law.task.output.members
                if out not in parent:
                    parent[out] = law
                    queue.append(out)
    return walks


def _chain(
    parent: Mapping[frozenset, LawStatement], source: frozenset, target: frozenset
) -> LawStatement:
    """The possible statement on source -> target, from the laws on ``_walks``'s path."""
    laws = [parent[target]]
    while laws[-1].task.input.members != source:
        laws.append(parent[laws[-1].task.input.members])
    laws.reverse()
    task = Task(laws[0].task.input, laws[-1].task.output)
    return LawStatement(task, Possibility.POSSIBLE, Derived("serial", tuple(laws)))


def _null_statement(
    possibles: list[LawStatement], on: Mapping[Substrate, list[LawStatement]]
) -> LawStatement | None:
    """The null task from the first pair of declared possible laws that gives it, or None.

    ``possibles`` holds the declared possible laws in declared order, and
    ``on`` those of each substrate.  Distinct pairs come first, in
    lexicographic order, then each law with itself, as in the fixpoint's
    first round.  A pair gives the null task iff the first law's output
    misses the second's input and, when that output is empty, the input is
    not.  So, with one bitset of law positions per input state on each
    substrate, a law's first partner is the lowest position whose input
    holds no state of its output: no pair is scanned.
    """
    masks = {}
    for sub, laws in on.items():
        by_state: dict = {}
        filled = 0  # the laws with a non-empty input
        same: dict[int, int] = {}  # the positions of each statement object
        for p, st in enumerate(laws):
            same[id(st)] = same.get(id(st), 0) | 1 << p
            filled |= bool(st.task.input.members) << p
            for x in st.task.input.members:
                by_state[x] = by_state.get(x, 0) | 1 << p
        masks[sub] = (by_state, filled, same, (1 << len(laws)) - 1)
    for s1 in possibles:
        by_state, filled, same, every = masks[s1.task.substrate]
        out = s1.task.output.members
        hits = (every if out else filled) & ~same[id(s1)]
        for x in out:
            hits &= ~by_state.get(x, 0)
        if hits:
            s2 = on[s1.task.substrate][(hits & -hits).bit_length() - 1]
            return LawStatement(NULL_TASK, Possibility.POSSIBLE, Derived("serial", (s1, s2)))
    for st in possibles:
        out, inp = st.task.output.members, st.task.input.members
        if out.isdisjoint(inp) and out != inp:
            return LawStatement(NULL_TASK, Possibility.POSSIBLE, Derived("serial", (st, st)))
    return None


def _fact_counts(facts: Mapping[frozenset, Collection[frozenset]]) -> tuple:
    """What ``_composite_facts`` reads of one substrate's facts, given as ``{input: outputs}``.

    In order: the number of non-empty inputs, and of those with no fact to
    the empty set; of non-empty outputs, and of those with no fact from the
    empty set; the facts with non-empty ends whose input has no fact to the
    empty set (u), whose output has none from it (v), and both (w); and
    whether there is a fact from the empty set to itself.
    """
    empty = frozenset()
    to_empty = {a for a, outs in facts.items() if a and empty in outs}
    from_empty = {c for c in facts.get(empty, ()) if c}
    inputs = [a for a in facts if a]
    outputs = {c for a in inputs for c in facts[a] if c} | from_empty
    u = sum(len(facts[a]) for a in inputs if a not in to_empty)
    v = sum(1 for a in inputs for c in facts[a] if c and c not in from_empty)
    w = sum(1 for a in inputs if a not in to_empty for c in facts[a] if c not in from_empty)
    return (
        len(inputs),
        len(inputs) - len(to_empty),
        len(outputs),
        len(outputs) - len(from_empty),
        u,
        v,
        w,
        empty in facts.get(empty, ()),
    )


def _composite_facts(a: tuple, b: tuple) -> int:
    """|S|, the composite facts on (A, B), from ``_fact_counts`` of A's and of B's facts.

    Split S by whether each end of a pair is EMPTY.

    * (EMPTY, EMPTY) is in P, and so in S, iff A or B has a fact from the
      empty set to itself, or one has a fact from a non-empty set to it and
      the other one from it to a non-empty set; and it is in E iff in P.
    * (x, EMPTY) with x non-empty is in P iff x = in1 × in2 where in1 is an
      input of A, in2 one of B, and in1 or in2 has a fact to the empty set.
      There are ``c_in = |I_A| |I_B| - |I'_A| |I'_B|`` of them, where I'
      holds the inputs with no fact to the empty set.  Such a pair is in E
      only if it is in P.  Likewise for the ``c_out`` pairs (EMPTY, z).
    * Pairs with both ends non-empty: P holds one for each pair of facts
      with non-empty ends, and E holds ``c_in c_out``.  Of these, N lie in
      both: the pairs of facts in1 -> out1, in2 -> out2 where in1 or in2
      has a fact to the empty set and out1 or out2 one from it.

    So |S| = e + (c_in + 1)(c_out + 1) - 1 + n_A n_B - N, with e the first
    case's indicator and n the facts with non-empty ends.  Counting the
    complement of each "or" (inclusion-exclusion) gives n_A n_B - N =
    u_A u_B + v_A v_B - w_A w_B.  The cost is O(1) per pair, after
    O(|F_A| + |F_B|) to count.
    """
    ins_a, lone_ins_a, outs_a, lone_outs_a, u_a, v_a, w_a, loop_a = a
    ins_b, lone_ins_b, outs_b, lone_outs_b, u_b, v_b, w_b, loop_b = b
    c_in = ins_a * ins_b - lone_ins_a * lone_ins_b
    c_out = outs_a * outs_b - lone_outs_a * lone_outs_b
    into_a, into_b = ins_a > lone_ins_a, ins_b > lone_ins_b
    out_of_a, out_of_b = outs_a > lone_outs_a, outs_b > lone_outs_b
    e = loop_a or loop_b or (into_a and out_of_b) or (out_of_a and into_b)
    return e + (c_in + 1) * (c_out + 1) - 1 + u_a * u_b + v_a * v_b - w_a * w_b
