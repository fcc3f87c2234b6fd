import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctm import (
    NULL_TASK,
    Attribute,
    CompositionUndefined,
    Derived,
    LawSet,
    ModelError,
    NullTask,
    Possibility,
    Task,
    check_consistency,
    cyclic_substrate,
    deductive_closure,
    identity_substrate,
    impossible,
    parallel_compose,
    possible,
    premise_chain,
    serial_compose,
    uniform_possibility,
)
from conftest import singleton


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
    assert closed.holds(Task(x, z), Possibility.POSSIBLE)


def test_closure_idempotent(s4):
    a, b, c, d = attrs(s4, "a", "b", "c", "d")
    once = deductive_closure(LawSet.of(possible(Task(a, b)), possible(Task(c, d))))
    twice = deductive_closure(once)
    assert twice.statement_keys() == once.statement_keys()
    assert once.closed and twice.closed


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
    assert small.statement_keys() <= large.statement_keys()


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


# consistency -------------------------------------------------------------------


def test_contradiction_detected_with_trace(s4):
    x, y, z = attrs(s4, "x", "y", "z")
    laws = LawSet.of(possible(Task(x, y)), possible(Task(y, z)), impossible(Task(x, z)))
    report = check_consistency(deductive_closure(laws))
    assert not report.consistent
    assert len(report.contradictions) == 1
    contra = report.contradictions[0]
    assert contra.task == Task(x, z)
    assert isinstance(contra.possible.provenance, Derived)
    assert len(contra.possible.provenance.premises) == 2
    # the trace bottoms out in the two declared laws
    chain = premise_chain(contra.possible)
    declared = [s for s in chain if not isinstance(s.provenance, Derived)]
    assert {s.task for s in declared} == {Task(x, y), Task(y, z)}


def test_empty_law_set_consistent():
    report = check_consistency(deductive_closure(LawSet.of()))
    assert report.consistent


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
