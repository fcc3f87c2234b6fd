import hashlib
import json
import random
import time

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from ctm import (
    NULL_TASK,
    Attribute,
    CompositionUndefined,
    Derived,
    LawSet,
    LawStatement,
    ModelError,
    NullTask,
    Possibility,
    Task,
    check_consistency,
    compose_substrates,
    cyclic_substrate,
    deductive_closure,
    identity_substrate,
    impossible,
    parallel_compose,
    possible,
    serial_compose,
    uniform_possibility,
)
from ctm.cli import main
from ctm.dsl import analyze_model, parse_model
from ctm.tasks import _composite_facts, _fact_counts, closure_summary, permutation_possible
from conftest import assert_distinct, assert_same_value, assert_slotted, singleton


@pytest.fixture()
def s4():
    return cyclic_substrate("S4", ("s0", "s1", "s2", "s3"))


def attrs(sub, *names):
    return [singleton(sub, f"s{i}", name=n) for i, n in enumerate(names)]


# serial composition ----------------------------------------------------------


def test_serial_chain(s4):
    x, y, z = attrs(s4, "x", "y", "z")
    t = serial_compose(Task(x, y), Task(y, z))
    assert isinstance(t, Task)
    assert t.input == x and t.output == z


def test_serial_disjoint_intermediates_give_null_task(s4):
    a, b, c, d = attrs(s4, "a", "b", "c", "d")
    assert serial_compose(Task(a, b), Task(c, d)) == NULL_TASK


def test_serial_partial_overlap_is_undefined():
    s = cyclic_substrate("P4", (1, 2, 3, 4))
    x = singleton(s, 1, "x")
    y = Attribute(s, frozenset({1, 2}), name="y")
    y2 = Attribute(s, frozenset({2, 3}), name="y'")
    z = singleton(s, 4, "z")
    with pytest.raises(CompositionUndefined, match="undefined"):
        serial_compose(Task(x, y), Task(y2, z))


def test_serial_null_task_absorbs(s4):
    x, y = attrs(s4, "x", "y")
    assert serial_compose(NULL_TASK, Task(x, y)) == NULL_TASK
    assert serial_compose(Task(x, y), NULL_TASK) == NULL_TASK


def test_serial_requires_shared_substrate(s4):
    other = cyclic_substrate("O", ("s0", "s1"))
    with pytest.raises(ModelError, match="same substrate"):
        serial_compose(Task(*attrs(s4, "x", "y")[:2]), Task(singleton(other, "s0"), singleton(other, "s1")))


def test_task_attributes_on_two_substrates_rejected(s4):
    other = cyclic_substrate("O", ("s0", "s1"))
    with pytest.raises(ModelError, match="attributes of the same substrate"):
        Task(singleton(s4, "s0"), singleton(other, "s1"))


def tiny_tasks(substrate_states=4):
    """Three tasks on one substrate with singleton attributes."""

    @st.composite
    def build(draw):
        sub = cyclic_substrate("T", tuple(range(substrate_states)))
        picks = [draw(st.integers(0, substrate_states - 1)) for _ in range(6)]
        return [
            Task(singleton(sub, picks[2 * i]), singleton(sub, picks[2 * i + 1]))
            for i in range(3)
        ]

    return build()


@settings(max_examples=200)
@given(tiny_tasks())
def test_serial_associative_where_defined(ts):
    a, b, c = ts
    try:
        left = serial_compose(serial_compose(a, b), c)
        right = serial_compose(a, serial_compose(b, c))
    except CompositionUndefined:
        return
    assert left == right


# parallel composition ---------------------------------------------------------


def test_parallel_pairs_attributes(s4):
    other = cyclic_substrate("Q2", ("q0", "q1"))
    t1 = Task(*attrs(s4, "x", "y")[:2])
    t2 = Task(singleton(other, "q0"), singleton(other, "q1"))
    t = parallel_compose(t1, t2)
    assert t.input.members == {("s0", "q0")}
    assert t.output.members == {("s1", "q1")}


def test_parallel_same_instance_rejected(s4):
    t1 = Task(*attrs(s4, "x", "y")[:2])
    t2 = Task(singleton(s4, "s2"), singleton(s4, "s3"))
    with pytest.raises(ModelError, match="distinct"):
        parallel_compose(t1, t2)


def test_parallel_rejects_the_null_task_and_a_composite_of_other_substrates(s4):
    other = cyclic_substrate("Q2", ("q0", "q1"))
    t1 = Task(*attrs(s4, "x", "y")[:2])
    t2 = Task(singleton(other, "q0"), singleton(other, "q1"))
    for a, b in ((t1, NULL_TASK), (NULL_TASK, t2)):
        with pytest.raises(ModelError, match="defined for substrate tasks only"):
            parallel_compose(a, b)
    swapped = compose_substrates(other, s4)
    with pytest.raises(ModelError, match="does not pair the tasks' substrates"):
        parallel_compose(t1, t2, swapped)


def test_parallel_with_identity_task_preserved_under_closure(s4):
    other = cyclic_substrate("W2", ("w0", "w1"))
    w = singleton(other, "w0", "w")
    x, y = attrs(s4, "x", "y")
    laws = LawSet.of(possible(Task(x, y)), possible(Task(w, w)))
    closed = deductive_closure(laws)
    derived = [
        st
        for st in closed.statements
        if isinstance(st.task, Task)
        and st.task.input.members == {("s0", "w0")}
        and st.task.output.members == {("s1", "w0")}
    ]
    assert derived and derived[0].status is Possibility.POSSIBLE


# closure ----------------------------------------------------------------------


def statement_keys(laws):
    return frozenset((s.task, s.status) for s in laws.statements)


def holds(laws, task, status):
    return any(s.task == task and s.status is status for s in laws.statements)


def test_closure_derives_null_task_with_two_premises(s4):
    a, b, c, d = attrs(s4, "a", "b", "c", "d")
    laws = LawSet.of(possible(Task(a, b)), possible(Task(c, d)))
    closed = deductive_closure(laws)
    nulls = [st for st in closed.statements if isinstance(st.task, NullTask)]
    assert len(nulls) == 1
    prov = nulls[0].provenance
    assert isinstance(prov, Derived) and prov.rule == "serial"
    assert len(prov.premises) == 2
    assert {p.task for p in prov.premises} == {Task(a, b), Task(c, d)}


def test_closure_derives_transitive_chain(s4):
    x, y, z = attrs(s4, "x", "y", "z")
    closed = deductive_closure(LawSet.of(possible(Task(x, y)), possible(Task(y, z))))
    assert holds(closed, Task(x, z), Possibility.POSSIBLE)


def test_closure_idempotent(s4):
    a, b, c, d = attrs(s4, "a", "b", "c", "d")
    once = deductive_closure(LawSet.of(possible(Task(a, b)), possible(Task(c, d))))
    twice = deductive_closure(once)
    assert statement_keys(twice) == statement_keys(once)
    assert len(twice.statements) == len(once.statements)


def test_reclosing_parallel_facts_derives_nothing_new():
    # the first closure's composite substrate is not a declared one to pair again
    left = cyclic_substrate("L", ("s0", "s1", "s2"))
    right = cyclic_substrate("R", ("s0", "s1", "s2"))
    a, b = attrs(left, "a", "b")
    c, d = attrs(right, "c", "d")
    laws = LawSet.of(possible(Task(a, b)), possible(Task(c, d)))
    sizes = []
    for _ in range(3):
        laws = deductive_closure(laws)
        sizes.append(len(laws.statements))
    assert sizes == [5, 5, 5]
    assert laws.substrates() == (left, right)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_closure_monotone(data):
    sub = cyclic_substrate("M", tuple(range(6)))
    def random_law(tag):
        i = data.draw(st.integers(0, 5), label=f"{tag}-in")
        o = data.draw(st.integers(0, 5), label=f"{tag}-out")
        return possible(Task(singleton(sub, i), singleton(sub, o)))
    base = [random_law(k) for k in range(2)]
    extra = random_law("extra")
    small = deductive_closure(LawSet.of(*base))
    large = deductive_closure(LawSet.of(*base, extra))
    assert statement_keys(small) <= statement_keys(large)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_null_task_derivable_whenever_intermediates_disjoint(data):
    sub = cyclic_substrate("R8", tuple(range(8)))
    picks = data.draw(st.lists(st.integers(0, 7), min_size=4, max_size=4))
    a, b, c, d = (singleton(sub, p) for p in picks)
    laws = LawSet.of(possible(Task(a, b)), possible(Task(c, d)))
    closed = deductive_closure(laws)
    has_null = any(isinstance(st_.task, NullTask) for st_ in closed.statements)
    if b.members.isdisjoint(c.members) or d.members.isdisjoint(a.members):
        assert has_null
    if not has_null:
        assert not b.members.isdisjoint(c.members)


# closure against the naive fixpoint ------------------------------------------


def naive_closure(laws):
    """Oracle: every round tries every ordered pair of possible facts, then each with itself."""
    facts, order = {(s.task, s.status): s for s in laws.statements}, list(laws.statements)
    base, composites = laws.substrates(), dict(laws.composites)

    def derive_pair(s1, s2):
        t1, t2 = s1.task, s2.task
        if t1.substrate is t2.substrate:
            try:
                task, rule = serial_compose(t1, t2), "serial"
            except CompositionUndefined:
                return False
        elif any(t1.substrate is b for b in base) and any(t2.substrate is b for b in base):
            key = (id(t1.substrate), id(t2.substrate))
            if key not in composites:
                composites[key] = compose_substrates(t1.substrate, t2.substrate)
            task, rule = parallel_compose(t1, t2, composites[key]), "parallel"
        else:
            return False
        if (task, Possibility.POSSIBLE) in facts:
            return False
        st_ = LawStatement(task, Possibility.POSSIBLE, Derived(rule, (s1, s2)))
        facts[task, Possibility.POSSIBLE] = st_
        order.append(st_)
        return True

    changed = True
    while changed:
        ps = [s for s in order if s.status is Possibility.POSSIBLE and isinstance(s.task, Task)]
        distinct = [derive_pair(a, b) for a in ps for b in ps if a is not b]
        changed = any(distinct + [derive_pair(a, a) for a in ps])
    return LawSet(tuple(order), composites=composites)


def signature(laws):
    """(task, status, rule, premise positions) of every statement, in order."""
    position = {id(s): i for i, s in enumerate(laws.statements)}
    out = []
    for s in laws.statements:
        prov = s.provenance
        if isinstance(prov, Derived):
            rule, premises = prov.rule, tuple(position[id(p)] for p in prov.premises)
        else:
            rule, premises = "declared", ()
        out.append((repr(s.task), s.status.value, rule, premises))
    return out


@st.composite
def law_sets(draw):
    """1-3 substrates of 2-4 states, 1-4 arbitrary (possibly empty) attributes each,
    and 1-6 possible or impossible laws between attributes of one substrate."""
    groups = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 4))
        sub = cyclic_substrate(f"H{k}", tuple(range(n)))
        members = st.frozensets(st.integers(0, n - 1))
        groups.append(
            [Attribute(sub, draw(members), name=f"h{k}{a}") for a in range(draw(st.integers(1, 4)))]
        )
    laws = []
    for _ in range(draw(st.integers(1, 6))):
        group = draw(st.sampled_from(groups))
        declare = draw(st.sampled_from((possible, impossible)))
        laws.append(declare(Task(draw(st.sampled_from(group)), draw(st.sampled_from(group)))))
    return LawSet.of(*laws)


def has_undefined_serial_pair(laws):
    tasks = [s.task for s in laws.statements if s.status is Possibility.POSSIBLE]
    for a in tasks:
        for b in tasks:
            if isinstance(a, Task) and isinstance(b, Task) and a.substrate is b.substrate:
                try:
                    serial_compose(a, b)
                except CompositionUndefined:
                    return True
    return False


def test_law_set_corpus_reaches_null_task_undefined_and_parallel_pairs():
    first = settings(phases=[Phase.generate], database=None, derandomize=True)
    has_null = lambda laws: any(isinstance(s.task, NullTask) for s in laws.statements)
    find(law_sets(), lambda laws: has_null(naive_closure(laws)), settings=first)
    find(law_sets(), lambda laws: has_undefined_serial_pair(naive_closure(laws)), settings=first)
    find(law_sets(), lambda laws: bool(naive_closure(laws).composites), settings=first)


@settings(max_examples=150, deadline=None)
@given(law_sets())
def test_closure_matches_naive_fixpoint(laws):
    closed = deductive_closure(laws)
    assert signature(closed) == signature(naive_closure(laws))
    # re-closing pairs the first run's composites again, reusing the composite cache
    assert signature(deductive_closure(closed)) == signature(naive_closure(closed))


def dedup_by_task_and_status(statements):
    """Oracle: the first statement of each (task, status), by the tasks' own equality."""
    kept = []
    for st in statements:
        if not any(k.task == st.task and k.status is st.status for k in kept):
            kept.append(st)
    return kept


def renamed(st):
    """st on a task with equal member sets under other names."""
    if isinstance(st.task, NullTask):
        return LawStatement(NullTask(), st.status)
    i, o = st.task.input, st.task.output
    task = Task(Attribute(i.substrate, i.members, i.name + "'"), Attribute(o.substrate, o.members))
    return LawStatement(task, st.status)


@settings(max_examples=200, deadline=None)
@given(law_sets(), st.data())
def test_law_set_of_keeps_the_first_statement_of_each_task_and_status(laws, data):
    statements = list(laws.statements) + [possible(NULL_TASK), impossible(NullTask())]
    statements += [renamed(s) for s in statements]
    statements = data.draw(st.permutations(statements))
    got = LawSet.of(*statements).statements
    assert list(map(id, got)) == list(map(id, dedup_by_task_and_status(statements)))


def test_null_task_repr():
    assert repr(NULL_TASK) == repr(NullTask()) == "NullTask()"


@pytest.mark.parametrize(
    "name", ["contradiction", "degenerate", "linear", "nulltask", "rotation", "timers"]
)
def test_task_repr_wraps_the_report_label(capsys, models_dir, name):
    path = models_dir / f"{name}.ctm"
    model, _ = analyze_model(parse_model(path.read_text())[0])
    main(["check", str(path)])
    checks = json.loads(capsys.readouterr().out)["files"][0]["law_checks"]
    assert len(checks) == len(model.laws.statements)
    for st, entry in zip(model.laws.statements, checks):
        assert repr(st.task) == f"Task({entry['task']})"


def ring_laws(shape):
    """Four-state rings; ring j carries shape[j] chained possible laws a0 -> a1 -> a2 -> ..."""
    laws = []
    for j, m in enumerate(shape):
        sub = cyclic_substrate(f"R{j}", tuple(f"q{i}" for i in range(4)))
        a = [singleton(sub, f"q{i}", f"a{i}") for i in range(4)]
        laws += [possible(Task(a[k], a[(k + 1) % 4])) for k in range(m)]
    return laws


@pytest.mark.parametrize("shape", [(2, 2, 2, 3), (3, 4)])
def test_closure_matches_naive_fixpoint_on_rings(shape):
    laws = ring_laws(shape)
    planted = impossible(Task(laws[0].task.input, laws[1].task.output))
    for law_set in (LawSet.of(*laws), LawSet.of(*laws, planted)):
        assert signature(deductive_closure(law_set)) == signature(naive_closure(law_set))


def test_closure_of_four_rings_with_four_laws_each():
    start = time.perf_counter()
    closed = deductive_closure(LawSet.of(*ring_laws((4, 4, 4, 4))))
    elapsed = time.perf_counter() - start
    assert len(closed.statements) == 3137
    # digest of the naive fixpoint's signature, which took about 16 s to compute
    digest = hashlib.sha256(repr(signature(closed)).encode()).hexdigest()
    assert digest == "6f4fe9221567ae9206abbd9b4c09de6deacd0a7c2f0346d5603a749ab46ac517"
    # well under a second on a 2-core VM; the naive fixpoint is about 40x slower
    assert elapsed < 5


def test_closure_names_parallel_tasks_after_their_own_premises():
    # x and x2 (u and u2) pick out the same state under different names, so
    # equal pair attributes are built from differently named components
    tasks = []
    for sid, (a, a2, b) in (("L", ("x", "x2", "y")), ("R", ("u", "u2", "v"))):
        sub = cyclic_substrate(sid, ("s0", "s1", "s2"))
        first, again = singleton(sub, "s0", a), singleton(sub, "s0", a2)
        other = singleton(sub, "s1", b)
        tasks += [Task(first, other), Task(other, again)]
    laws = LawSet.of(*map(possible, tasks))
    closed = deductive_closure(laws)
    assert signature(closed) == signature(naive_closure(laws))
    parallel = [
        s for s in closed.statements
        if isinstance(s.provenance, Derived) and s.provenance.rule == "parallel"
    ]
    assert len(parallel) == 28
    for s in parallel:
        left, right = (p.task for p in s.provenance.premises)
        assert s.task.input.name == f"({left.input.name},{right.input.name})"
        assert s.task.output.name == f"({left.output.name},{right.output.name})"


# closure summary against the full closure --------------------------------------


def closure_oracle(laws):
    """closure_summary's three results, read off the full closure."""
    closed = deductive_closure(laws)
    nulls = [s for s in closed.statements if isinstance(s.task, NullTask)]
    null = next((s for s in nulls if s.status is Possibility.POSSIBLE), None)
    return check_consistency(closed), null, len(closed.statements)


def shortest_walk(laws, task):
    """The fewest declared possible laws that chain task's input to its output, by brute force."""
    edges = {
        (s.task.input.members, s.task.output.members)
        for s in laws.statements
        if s.status is Possibility.POSSIBLE and s.task.substrate is task.substrate
    }
    ends = {task.input.members}
    for length in range(1, len(edges) + 1):
        ends = {c for a, c in edges if a in ends}
        if task.output.members in ends:
            return length
    raise AssertionError(f"no walk for {task!r}")


def assert_same_derivation(laws, got, want):
    """got derives want's task from the fixpoint's premises, or from a shortest chain of laws."""
    if not isinstance(want.provenance, Derived):
        assert got is want
        return
    assert got.task == want.task and got.provenance.rule == want.provenance.rule
    premises = got.provenance.premises
    if all(not isinstance(p.provenance, Derived) for p in want.provenance.premises):
        # two declared laws: the fixpoint's own premises
        assert list(map(id, premises)) == list(map(id, want.provenance.premises))
        return
    assert len(premises) == shortest_walk(laws, got.task) >= 3
    assert all(any(p is s for s in laws.statements) for p in premises)
    assert all(p.status is Possibility.POSSIBLE for p in premises)
    for a, b in zip(premises, premises[1:]):
        assert a.task.output.members == b.task.input.members
    assert got.task.input is premises[0].task.input
    assert got.task.output is premises[-1].task.output


def assert_summary_matches_closure(laws):
    contradictions, null, size = closure_summary(laws)
    want_contradictions, want_null, want_size = closure_oracle(laws)
    assert size == want_size
    assert (null is None) == (want_null is None)
    if null is not None:
        assert_same_derivation(laws, null, want_null)
    assert len(contradictions) == len(want_contradictions)
    for got, want in zip(contradictions, want_contradictions):
        assert got.task is want.task and got.impossible is want.impossible
        assert_same_derivation(laws, got.possible, want.possible)


@settings(max_examples=300, deadline=None)
@given(law_sets())
def test_closure_summary_matches_closure(laws):
    assert_summary_matches_closure(laws)
    assert_null_matches_pair_scan(laws)


@pytest.mark.parametrize("shape", [(2, 2, 2, 3), (3, 4), (4, 4, 4, 4)])
def test_closure_summary_matches_closure_on_rings(shape):
    laws = ring_laws(shape)
    planted = impossible(Task(laws[0].task.input, laws[1].task.output))
    for law_set in (LawSet.of(*laws), LawSet.of(*laws, planted)):
        assert_summary_matches_closure(law_set)
        assert_null_matches_pair_scan(law_set)


@pytest.mark.parametrize(
    "name", ["contradiction", "degenerate", "linear", "nulltask", "rotation", "timers"]
)
def test_closure_summary_matches_closure_on_fixtures(models_dir, name):
    model, _ = analyze_model(parse_model((models_dir / f"{name}.ctm").read_text())[0])
    assert_summary_matches_closure(model.laws)
    assert_null_matches_pair_scan(model.laws)


def refutes_a_declared_law(laws):
    """True iff some declared task is possible by permutation and not declared so, or the reverse."""
    return any(
        permutation_possible(s.task) != (s.status is Possibility.POSSIBLE) for s in laws.statements
    )


@settings(max_examples=300, deadline=None)
@given(law_sets())
def test_every_contradiction_comes_with_a_refuted_declared_law(laws):
    # every rule keeps |input| <= |output|, so a contradiction needs a declared law that
    # breaks Hall's condition; `ctm check` relies on this to read its status off its rows
    if closure_summary(laws)[0]:
        assert refutes_a_declared_law(laws)


def seeded_law_sets(seed, count):
    """`count` law sets of 2-8 task statements on 1-3 rings of 2-5 states, 2-4 attributes each."""
    rng = random.Random(seed)
    for _ in range(count):
        pool = []
        for k in range(rng.randint(1, 3)):
            sub = cyclic_substrate(f"R{k}", tuple(range(rng.randint(2, 5))))
            for a in range(rng.randint(2, 4)):
                members = frozenset(rng.sample(sub.states, rng.randint(0, len(sub.states))))
                pool.append(Attribute(sub, members, name=f"r{k}{a}"))
        statements = []
        for _ in range(rng.randint(2, 8)):
            i = rng.choice(pool)
            o = rng.choice([a for a in pool if a.substrate is i.substrate])
            statements.append(rng.choice((possible, impossible))(Task(i, o)))
        yield LawSet.of(*statements)


def test_every_contradiction_comes_with_a_refuted_declared_law_on_seeded_law_sets():
    contradicted = 0
    for laws in seeded_law_sets(20261020, 3000):
        if closure_summary(laws)[0]:
            contradicted += 1
            assert refutes_a_declared_law(laws)
    assert contradicted >= 1000


def pair_scan_null(laws):
    """Oracle: the first pair of declared possible laws giving the null task, by trying every pair.

    Distinct pairs on one substrate in lexicographic order of declaration,
    then each law with itself; None when no pair gives it.
    """
    possibles = [s for s in laws.statements if s.status is Possibility.POSSIBLE]
    pairs = [
        (s1, s2)
        for s1 in possibles
        for s2 in possibles
        if s2 is not s1 and s2.task.substrate is s1.task.substrate
    ]
    for s1, s2 in pairs + [(s, s) for s in possibles]:
        out, inp = s1.task.output.members, s2.task.input.members
        if out.isdisjoint(inp) and out != inp:
            return s1, s2
    return None


def assert_null_matches_pair_scan(laws):
    null = closure_summary(laws)[1]
    want = pair_scan_null(laws)
    assert (null is None) == (want is None)
    if null is not None:
        assert null.task is NULL_TASK and null.provenance.rule == "serial"
        assert list(map(id, null.provenance.premises)) == list(map(id, want))
    return want


def test_null_task_matches_the_pair_scan_on_many_random_laws():
    # more laws than law_sets() draws, so partners sit at high bit positions; some law
    # sets hold one statement object twice, which the scan never pairs with itself
    rng = random.Random(20261019)
    kinds = set()
    for _ in range(300):
        subs = [cyclic_substrate(f"N{k}", tuple(range(rng.randint(2, 6)))) for k in range(2)]
        pool = [
            Attribute(sub, frozenset(rng.sample(sub.states, rng.randint(0, len(sub.states)))))
            for sub in subs
            for _ in range(6)
        ]
        statements = []
        for _ in range(rng.randint(1, 40)):
            if statements and rng.random() < 0.05:
                statements.append(rng.choice(statements))
                continue
            i = rng.choice(pool)
            o = rng.choice([a for a in pool if a.substrate is i.substrate])
            statements.append(rng.choice((possible, impossible))(Task(i, o)))
        want = assert_null_matches_pair_scan(LawSet(tuple(statements)))
        kinds.add(None if want is None else want[0] is want[1])
    assert kinds == {None, False, True}


def shared_state_laws(seed):
    """2,000 random possible laws on a 64-state ring between 400 attributes that all hold 0."""
    rng = random.Random(seed)
    sub = cyclic_substrate("S", tuple(range(64)))
    pool = [
        Attribute(sub, frozenset({0, *rng.sample(range(1, 64), rng.randint(1, 3))}), f"a{k}")
        for k in range(400)
    ]
    return LawSet.of(*(possible(Task(rng.choice(pool), rng.choice(pool))) for _ in range(2000)))


def test_closure_summary_finds_no_null_task_among_many_laws_quickly():
    # no two laws give the null task, so a scan over pairs tries all 1955 x 1954 of them
    laws = shared_state_laws(9)
    assert len(laws.statements) == 1955
    start = time.perf_counter()
    _, null, size = closure_summary(laws)
    elapsed = time.perf_counter() - start
    assert null is None and size == 94250
    # 0.59 s with the pair scan, 0.11 s without, on a 2-core VM
    assert elapsed < 0.5


@pytest.mark.parametrize("declare", [possible, impossible])
def test_closure_summary_matches_closure_with_a_declared_null_task(s4, declare):
    a, b, c, d = attrs(s4, "a", "b", "c", "d")
    laws = LawSet.of(possible(Task(a, b)), declare(NULL_TASK), possible(Task(c, d)))
    assert_summary_matches_closure(laws)
    contradictions, null, _ = closure_summary(laws)
    # a declared possible null task is the closure's; a declared impossible one clashes
    assert (null is laws.statements[1]) == (declare is possible)
    assert len(contradictions) == (declare is impossible)


def test_closure_summary_cites_a_flat_chain_of_three_laws(s4):
    # the fixpoint derives x -> w from x -> y and the derived y -> w
    x, y, z, w = attrs(s4, "x", "y", "z", "w")
    chain = [possible(Task(x, y)), possible(Task(y, z)), possible(Task(z, w))]
    clash = impossible(Task(x, w))
    laws = LawSet.of(*chain, clash)
    [contradiction], null, size = closure_summary(laws)
    assert contradiction.task is clash.task and contradiction.impossible is clash
    assert contradiction.possible.task == Task(x, w)
    assert contradiction.possible.provenance == Derived("serial", tuple(chain))
    nested = check_consistency(deductive_closure(laws))[0].possible.provenance.premises
    assert nested[0] is chain[0] and nested[1].provenance.premises == tuple(chain[1:])
    # the null task from x -> y and z -> w; the 4 laws and 3 derived facts on S4
    assert null.provenance.premises == (chain[0], chain[2])
    assert size == 8
    assert_summary_matches_closure(laws)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=8))
def test_closure_summary_matches_closure_when_every_other_task_is_impossible(edges):
    # each derived fact is then a contradiction, whatever the length of its shortest chain
    sub = cyclic_substrate("C5", tuple(range(5)))
    nodes = [singleton(sub, i, f"n{i}") for i in range(5)]
    laws = [possible(Task(nodes[i], nodes[o])) for i, o in edges]
    laws += [
        impossible(Task(nodes[i], nodes[o]))
        for i in range(5)
        for o in range(5)
        if (i, o) not in edges
    ]
    assert_summary_matches_closure(LawSet.of(*laws))


def test_closure_summary_counts_composite_facts_chained_through_empty_products():
    # a -> {} times d -> e and b -> c times {} -> f give (a,d) -> {} and {} -> (c,f)
    # on the composite, which chain to (a,d) -> (c,f) although A has no a -> c
    left, right = (cyclic_substrate(sid, ("s0", "s1", "s2")) for sid in "AB")
    a, b, c = attrs(left, "a", "b", "c")
    d, e, f = attrs(right, "d", "e", "f")
    none_l, none_r = Attribute(left, frozenset(), "none"), Attribute(right, frozenset(), "none")
    laws = LawSet.of(*map(possible, (Task(a, none_l), Task(b, c), Task(d, e), Task(none_r, f))))
    assert_summary_matches_closure(laws)
    chained = [
        s for s in deductive_closure(laws).statements
        if isinstance(s.task, Task)
        and s.task.input.members == {("s0", "s0")}
        and s.task.output.members == {("s2", "s2")}
    ]
    # one on each of the composites (A, B) and (B, A)
    assert [s.provenance.rule for s in chained] == ["serial", "serial"]
    # 4 laws and the null task, then 5 composite facts on each of (A, B) and (B, A)
    assert closure_summary(laws)[2] == 15


def test_closure_summary_rejects_a_composite_cache():
    left, right = (cyclic_substrate(sid, ("s0", "s1")) for sid in "LR")
    laws = LawSet.of(
        possible(Task(*attrs(left, "x", "y"))), possible(Task(*attrs(right, "u", "v")))
    )
    with pytest.raises(ModelError, match="caches no composite"):
        closure_summary(deductive_closure(laws))


def composite_facts_by_products(a, b):
    """Oracle: the composite facts on (A, B), from every product of a fact of A and one of B.

    A product X × Y is keyed by (X, Y), or by None when X or Y is empty.
    The facts are the products P and the pairs chained through None.
    """
    def product(x, y):
        return (x, y) if x and y else None

    p = {(product(i1, i2), product(o1, o2)) for i1, o1 in a for i2, o2 in b}
    into = [x for x, y in p if y is None]
    out_of = [z for y, z in p if y is None]
    return len(p.union((x, z) for x in into for z in out_of))


def by_input(facts):
    grouped = {}
    for i, o in facts:
        grouped.setdefault(i, set()).add(o)
    return grouped


fact_sets = st.frozensets(
    st.tuples(*[st.frozensets(st.integers(0, 2), max_size=2)] * 2), min_size=1, max_size=8
)


@settings(max_examples=300, deadline=None)
@given(fact_sets, fact_sets)
def test_composite_count_matches_the_product_loop(a, b):
    got = _composite_facts(_fact_counts(by_input(a)), _fact_counts(by_input(b)))
    assert got == composite_facts_by_products(a, b)


def random_rings(seed, rings, states, attributes, laws):
    """A .ctm model of rings with random attributes of 1-3 states and random possible laws."""
    rng = random.Random(seed)
    lines = []
    for r in range(rings):
        labels = [f"q{i}" for i in range(states)]
        lines.append(f"substrate R{r} {{ states {' '.join(labels)} ; step ({' '.join(labels)}) }}")
        for a in range(attributes):
            members = " ".join(rng.sample(labels, rng.randint(1, 3)))
            lines.append(f"attribute r{r}a{a} on R{r} {{ {members} }}")
        for _ in range(laws):
            i, o = rng.randrange(attributes), rng.randrange(attributes)
            lines.append(f"law possible r{r}a{i} -> r{r}a{o} on R{r}")
    return "\n".join(lines) + "\n"


# closure_size as the pairwise fixpoint and the product loop found it, in 19 s and 52 s
@pytest.mark.parametrize(
    "rings, states, attributes, laws, size", [(1, 120, 400, 800, 79852), (2, 40, 60, 120, 7801543)]
)
def test_check_decides_the_closure_of_many_random_laws(
    capsys, tmp_path, rings, states, attributes, laws, size
):
    model = tmp_path / "rings.ctm"
    model.write_text(random_rings(16, rings, states, attributes, laws))
    start = time.perf_counter()
    main(["check", str(model)])
    elapsed = time.perf_counter() - start
    assert json.loads(capsys.readouterr().out)["files"][0]["closure_size"] == size
    # about 0.2 s and 0.02 s on a 2-core VM
    assert elapsed < 2


# consistency -------------------------------------------------------------------


def test_contradiction_detected_with_trace(s4):
    x, y, z = attrs(s4, "x", "y", "z")
    laws = LawSet.of(possible(Task(x, y)), possible(Task(y, z)), impossible(Task(x, z)))
    contradictions = check_consistency(deductive_closure(laws))
    assert len(contradictions) == 1
    contra = contradictions[0]
    assert contra.task == Task(x, z)
    assert isinstance(contra.possible.provenance, Derived)
    assert len(contra.possible.provenance.premises) == 2
    # the trace bottoms out in the two declared laws
    premises = contra.possible.provenance.premises
    assert all(p.provenance is None for p in premises)
    assert {p.task for p in premises} == {Task(x, y), Task(y, z)}


def test_empty_law_set_consistent():
    assert check_consistency(deductive_closure(LawSet.of())) == ()


def brute_force_contradictions(laws):
    """Oracle: scan every pair of statements for each task, taken in order of first mention.

    A contradiction names the task as first mentioned and the last possible
    and last impossible statement on an equal task.
    """
    found = []
    for i, a in enumerate(laws.statements):
        if any(b.task == a.task for b in laws.statements[:i]):
            continue
        on_task = [b for b in laws.statements if b.task == a.task]
        pos = [b for b in on_task if b.status is Possibility.POSSIBLE]
        neg = [b for b in on_task if b.status is Possibility.IMPOSSIBLE]
        if pos and neg:
            found.append((a.task, pos[-1], neg[-1]))
    return found


def assert_same_contradictions(laws):
    # identity, not equality: equal tasks and statements may carry different names
    got = [(c.task, c.possible, c.impossible) for c in check_consistency(laws)]
    want = brute_force_contradictions(laws)
    assert [tuple(map(id, c)) for c in got] == [tuple(map(id, c)) for c in want]


@settings(max_examples=150, deadline=None)
@given(law_sets())
def test_consistency_matches_brute_force_scan(laws):
    assert_same_contradictions(laws)
    assert_same_contradictions(deductive_closure(laws))


def test_consistency_matches_brute_force_scan_on_renamed_duplicates(s4):
    x, y, z = attrs(s4, "x", "y", "z")
    x2, y2 = singleton(s4, "s0", "x2"), singleton(s4, "s1", "y2")
    # built directly, so equal (task, status) pairs are kept under both names
    laws = LawSet((
        possible(Task(x, y)),
        impossible(Task(y, z)),
        impossible(Task(x2, y2)),
        possible(Task(y2, z)),
        possible(Task(x2, y)),
        impossible(Task(x, y2)),
        possible(Task(z, x)),
    ))
    named = [
        (repr(c.task), c.possible.task.input.name, c.impossible.task.output.name)
        for c in check_consistency(laws)
    ]
    assert named == [("Task(x -> y on S4)", "x2", "y2"), ("Task(y -> z on S4)", "y2", "z")]
    assert_same_contradictions(laws)
    assert_same_contradictions(deductive_closure(laws))


# uniform possibility -----------------------------------------------------------


def flip_family():
    m1 = identity_substrate("M1", ("a", "b", "c"))
    m2 = identity_substrate("M2", ("a", "b", "c"))
    z1, o1 = singleton(m1, "a", "0"), singleton(m1, "b", "1")
    z2, o2 = singleton(m2, "b", "0"), singleton(m2, "c", "1")
    return m1, m2, z1, o1, z2, o2


def test_flip_family_is_pointwise_only():
    m1, m2, z1, o1, z2, o2 = flip_family()
    res = uniform_possibility(
        [m1, m2], [[z1, o1], [z2, o2]], [[o1, z1], [o2, z2]]
    )
    assert res.kind == "pointwise-only"
    assert res.witness is None
    assert all(a is not None for a in res.member_actions)


def test_singleton_family_reduces_to_plain_possibility():
    m1, _, z1, o1, _, _ = flip_family()
    res = uniform_possibility([m1], [z1], [o1])
    assert res.kind == "uniformly-possible"


def test_identity_task_uniform_with_identity_witness():
    m1, m2, z1, _, z2, _ = flip_family()
    res = uniform_possibility([m1, m2], [z1, z2], [z1, z2])
    assert res.kind == "uniformly-possible"
    assert res.action == {"a": "a", "b": "b", "c": "c"}


def test_uniform_implies_pointwise():
    m1, m2, z1, o1, z2, o2 = flip_family()
    res = uniform_possibility([m1, m2], [z1, z2], [o1, o2])
    if res.kind == "uniformly-possible":
        for member, i, o in ((m1, z1, o1), (m2, z2, o2)):
            alone = uniform_possibility([member], [i], [o])
            assert alone.kind == "uniformly-possible"


def test_empty_family_rejected():
    with pytest.raises(ModelError, match="non-empty"):
        uniform_possibility([], [], [])


# equality and hashing ------------------------------------------------------------


def test_task_equality_ignores_names_and_compares_the_substrate_by_identity(s4):
    x, y = attrs(s4, "x", "y")
    renamed = Task(singleton(s4, "s0", name="u"), singleton(s4, "s1", name="v"))
    assert_same_value(Task(x, y), renamed)
    assert_distinct(Task(x, y), Task(y, x))
    twin = cyclic_substrate("S4", s4.states)
    assert_distinct(Task(x, y), Task(*attrs(twin, "x", "y")))
    assert_distinct(Task(x, y), NULL_TASK)


def test_every_null_task_is_equal():
    assert_same_value(NullTask(), NULL_TASK)
    assert repr(NullTask()) == "NullTask()"
    assert_distinct(NULL_TASK, ())


def test_law_set_equality_ignores_the_composite_cache(s4):
    x, y = attrs(s4, "x", "y")
    statements = (possible(Task(x, y)), impossible(Task(y, x)))
    cache = {(0, 1): compose_substrates(s4, cyclic_substrate("T", ("t0",)))}
    assert_same_value(LawSet(statements), LawSet(statements, composites=cache))
    assert_distinct(LawSet(statements), LawSet(statements[:1]))
    assert_distinct(LawSet(statements), statements)
    assert LawSet(statements).composites == {}
    assert LawSet(statements).composites is not LawSet(statements).composites


def test_statements_compare_by_task_status_and_provenance(s4):
    x, y = attrs(s4, "x", "y")
    plain = possible(Task(x, y))
    assert_same_value(plain, LawStatement(Task(x, y), Possibility.POSSIBLE))
    assert_distinct(plain, impossible(Task(x, y)))
    derived = LawStatement(Task(x, y), Possibility.POSSIBLE, Derived("serial", (plain, plain)))
    assert_distinct(plain, derived)
    assert_same_value(derived.provenance, Derived("serial", (plain, plain)))
    (clash,) = check_consistency(LawSet.of(plain, impossible(Task(x, y))))
    assert_same_value(clash, check_consistency(LawSet.of(plain, impossible(Task(x, y))))[0])


def test_task_records_take_no_undeclared_attribute(s4):
    x, y = attrs(s4, "x", "y")
    task = Task(x, y)
    assert_slotted(task, NULL_TASK, LawSet((possible(task),)), possible(task))
