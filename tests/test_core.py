from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctm import (
    Attribute,
    ModelError,
    Variable,
    are_distinguishable,
    clone_substrate,
    compose_substrates,
    cycle_lengths,
    cyclic_substrate,
    evolve,
    first_entry,
    identity_substrate,
    is_static,
    is_static_for_horizon,
    make_substrate,
    orbit,
    pair_attribute,
    recurrence_period,
    static_horizon,
)
from ctm.core import entry_states, parameter_key
from conftest import LAMBDA_PROBES, MIXED_LAMBDAS, singleton


def label_perm_substrates(max_size=8):
    """Random substrate: a permutation step over a small label set."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_size))
        labels = tuple(range(n))
        image = draw(st.permutations(labels))
        return make_substrate("rand", labels, dict(zip(labels, image)))

    return build()


# construction ---------------------------------------------------------------


def test_state_space_rejects_empty_and_duplicates():
    with pytest.raises(ModelError, match="no states"):
        make_substrate("x", (), {})
    # the step map {a: a} covers the label set {a}, so only the label count shows the repeat
    with pytest.raises(ModelError, match="duplicate"):
        make_substrate("x", ("a", "a"), {"a": "a"})


def test_substrate_requires_bijective_step():
    with pytest.raises(ModelError, match="bijection"):
        make_substrate("bad", ("a", "b"), {"a": "a", "b": "a"})
    with pytest.raises(ModelError, match="domain"):
        make_substrate("bad", ("a", "b"), {"a": "b"})


def test_attribute_members_must_be_states(counter16):
    with pytest.raises(ModelError):
        Attribute(counter16, frozenset({99}))
    assert Attribute(counter16, frozenset()).members == frozenset()
    s = make_substrate("S", ("a", "b", 3), {"a": "b", "b": 3, 3: "a"})
    with pytest.raises(ModelError) as exc:
        Attribute(s, frozenset({"a", "x", 7, 3}), name="odd")
    assert str(exc.value) == """attribute odd: members ["'x'", '7'] not states of 'S'"""
    with pytest.raises(ModelError) as exc:
        Attribute(s, {"zz"})
    assert str(exc.value) == "attribute ?: members [\"'zz'\"] not states of 'S'"
    assert Attribute(s, frozenset(s.states)).members == {"a", "b", 3}


# composition ----------------------------------------------------------------


def test_compose_two_bits_gives_four_paired_states():
    a = cyclic_substrate("A", ("a0", "a1"))
    b = cyclic_substrate("B", ("b0", "b1"))
    joint = compose_substrates(a, b)
    assert len(joint.states) == 4
    assert joint.step[("a0", "b0")] == ("a1", "b1")
    assert joint.children == (a, b)


def test_compose_counters_step_factorizes(counter16):
    other = clone_substrate(counter16)
    joint = compose_substrates(counter16, other)
    assert len(joint.states) == 256
    for x, y in joint.states:
        assert joint.step[(x, y)] == (counter16.step[x], other.step[y])


def test_compose_with_identity_preserves_orbit_structure():
    a = cyclic_substrate("A", tuple(range(6)))
    e = identity_substrate("E", ("e",))
    joint = compose_substrates(a, e)
    assert sorted(cycle_lengths(joint)) == sorted(cycle_lengths(a))


def test_compose_same_instance_rejected(counter16):
    with pytest.raises(ModelError, match="itself"):
        compose_substrates(counter16, counter16)


def test_pair_attribute_is_cartesian_product():
    a = cyclic_substrate("A", ("a0", "a1"))
    b = cyclic_substrate("B", ("b0", "b1"))
    joint = compose_substrates(a, b)
    pa = pair_attribute(joint, singleton(a, "a0"), Attribute(b, frozenset({"b0", "b1"})))
    assert pa.members == {("a0", "b0"), ("a0", "b1")}


# evolution ------------------------------------------------------------------


def test_evolve_counter_examples(counter16):
    assert evolve(counter16, 0, 5) == 5
    assert evolve(counter16, 7, 0) == 7
    # full wrap: the counter counts to 2^N - 1 and then shows 0 again
    assert evolve(counter16, 0, 16) == 0


def test_evolve_rejects_unknown_state_and_negative_steps(counter16):
    with pytest.raises(ModelError, match="unknown state"):
        evolve(counter16, 99, 1)
    with pytest.raises(ModelError, match="non-negative"):
        evolve(counter16, 0, -1)


@settings(max_examples=60)
@given(label_perm_substrates())
def test_every_state_recurs_at_the_lcm_period(s):
    period = recurrence_period(s)
    for state in s.states:
        assert evolve(s, state, period) == state
        assert evolve(s, state, 3 * period) == state


@settings(max_examples=40)
@given(label_perm_substrates(max_size=5), label_perm_substrates(max_size=5),
       st.integers(min_value=0, max_value=64))
def test_composite_evolution_is_componentwise(a, b, n):
    joint = compose_substrates(a, b)
    for x, y in joint.states:
        assert evolve(joint, (x, y), n) == (evolve(a, x, n), evolve(b, y, n))


# staticity ------------------------------------------------------------------


def test_counter_completion_attribute_is_not_strictly_static(counter16):
    attr1 = Attribute(counter16, frozenset(range(5, 16)), name="1")
    assert not is_static(attr1)  # state 15 wraps to 0
    assert is_static(Attribute(counter16, frozenset(range(16))))


def test_identity_dynamics_fix_every_singleton():
    g = identity_substrate("G", ("g1", "g2", "g3"))
    assert is_static(singleton(g, "g1"))


def test_horizon_staticity_of_counter_completion(counter16):
    attr1 = Attribute(counter16, frozenset(range(5, 16)), name="1")
    # the entering state (5) survives 2^N - T - 1 = 10 further steps
    assert is_static_for_horizon(attr1, 10)
    assert not is_static_for_horizon(attr1, 11)
    assert static_horizon(attr1) == 10
    for h in range(11):
        assert is_static_for_horizon(attr1, h)


def test_zero_horizon_always_static(counter16):
    attr0 = singleton(counter16, 0)
    assert is_static_for_horizon(attr0, 0)
    assert not is_static_for_horizon(attr0, 1)


@settings(max_examples=60)
@given(label_perm_substrates(max_size=6), st.data())
def test_static_iff_static_for_full_period(s, data):
    members = data.draw(st.sets(st.sampled_from(s.states)))
    attr = Attribute(s, frozenset(members))
    assert is_static(attr) == is_static_for_horizon(attr, recurrence_period(s))


@settings(max_examples=40)
@given(label_perm_substrates(max_size=6), st.data())
def test_static_attributes_are_unions_of_cycles(s, data):
    members = data.draw(st.sets(st.sampled_from(s.states)))
    attr = Attribute(s, frozenset(members))
    cycles = []
    seen = set()
    for state in s.states:
        if state not in seen:
            cyc = set(orbit(s, state))
            seen |= cyc
            cycles.append(cyc)
    is_union = all((cyc <= attr.members) or not (cyc & attr.members) for cyc in cycles)
    assert is_static(attr) == is_union


# cycle index against step-by-step walks -------------------------------------------


def shuffled_bijections(max_size=12):
    """Random bijection whose state order is a shuffle of its labels."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_size))
        labels = tuple(draw(st.permutations([f"q{i}" for i in range(n)])))
        image = draw(st.permutations(labels))
        return make_substrate("rand", labels, dict(zip(labels, image)))

    return build()


def walk(s, state, n):
    for _ in range(n):
        state = s.step[state]
    return state


def walk_orbit(s, state):
    out = [state]
    cur = s.step[state]
    while cur != state:
        out.append(cur)
        cur = s.step[cur]
    return tuple(out)


def walk_cycles(s):
    seen, cycles = set(), []
    for state in s.states:
        if state not in seen:
            cycles.append(walk_orbit(s, state))
            seen.update(cycles[-1])
    return tuple(cycles)


def walk_period(s):
    period = 1
    while any(walk(s, x, period) != x for x in s.states):
        period += 1
    return period


def walk_entry_states(attr):
    inverse = {v: k for k, v in attr.substrate.step.items()}
    return frozenset(x for x in attr.members if inverse[x] not in attr.members)


def walk_static_for_horizon(attr, h):
    return all(
        walk(attr.substrate, start, k) in attr.members
        for start in walk_entry_states(attr)
        for k in range(1, h + 1)
    )


def walk_static_horizon(attr, cap):
    return max(h for h in range(cap + 1) if walk_static_for_horizon(attr, h))


@settings(max_examples=150, deadline=None)
@given(shuffled_bijections(), st.data())
def test_cycle_index_matches_step_walks(s, data):
    assert s.cycles == walk_cycles(s)
    assert cycle_lengths(s) == tuple(map(len, walk_cycles(s)))
    period = walk_period(s)
    assert recurrence_period(s) == period
    for x in s.states:
        assert orbit(s, x) == walk_orbit(s, x)
        for n in range(2 * len(s.states) + 2):
            assert evolve(s, x, n) == walk(s, x, n)
    attr = Attribute(s, frozenset(data.draw(st.sets(st.sampled_from(s.states)))))
    assert entry_states(attr) == walk_entry_states(attr)
    for h in range(period + 2):
        assert is_static_for_horizon(attr, h) == walk_static_for_horizon(attr, h)
        assert static_horizon(attr, cap=h) == walk_static_horizon(attr, h)
    assert static_horizon(attr) == walk_static_horizon(attr, period)
    with pytest.raises(ModelError, match="non-negative"):
        is_static_for_horizon(attr, -1)


def test_first_entry_matches_a_walk_over_the_recurrence_period():
    # every bijection on up to 5 states, every start and every member set
    for n in range(1, 6):
        labels = tuple(range(n))
        subsets = [frozenset(c) for r in range(n + 1) for c in combinations(labels, r)]
        for image in permutations(labels):
            s = make_substrate("p", labels, dict(zip(labels, image)))
            period = walk_period(s)
            for start in labels:
                for members in subsets:
                    walked = next(
                        (k for k in range(period + 1) if walk(s, start, k) in members), None
                    )
                    assert first_entry(s, start, members) == walked


# distinguishability ---------------------------------------------------------


def test_distinguishability_examples(counter16):
    zero = singleton(counter16, 0)
    one = Attribute(counter16, frozenset(range(5, 16)))
    assert are_distinguishable([zero, one])
    a = Attribute(counter16, frozenset(range(1, 5)))
    b = Attribute(counter16, frozenset(range(4, 16)))
    assert not are_distinguishable([a, b])  # share state 4
    with pytest.raises(ModelError):
        are_distinguishable([zero])


# variables ------------------------------------------------------------------


def test_variable_requires_disjoint_nonstatic_entries():
    ring = cyclic_substrate("ring", tuple(range(8)))
    entries = {k: singleton(ring, k) for k in (2, 0, 3, 1)}
    v = Variable(ring, entries)
    assert [int(x) for x in v.domain] == [0, 1, 2, 3]
    assert v.attribute(2).members == {2}
    with pytest.raises(ModelError, match="domain"):
        v.attribute(9)
    overlapping = {0: singleton(ring, 0), 1: singleton(ring, 0)}
    with pytest.raises(ModelError, match="disjoint"):
        Variable(ring, overlapping)


def test_variable_admits_a_static_entry():
    frozen = identity_substrate("F", ("f0", "f1"))
    assert Variable(frozen, {0: singleton(frozen, "f0")}).domain == (0,)


@given(st.fractions())
def test_parameter_key_is_the_number_as_an_int_when_whole(q):
    forms = [q, str(q)] + ([q.numerator] if q.denominator == 1 else [])
    for form in forms:
        key = parameter_key(form)
        assert key == q and hash(key) == hash(q)
        assert type(key) is (int if q.denominator == 1 else Fraction)


def mixed_variable():
    ring = cyclic_substrate("r16", tuple(range(16)))
    entries = {lam: singleton(ring, cell) for cell, lam in enumerate(MIXED_LAMBDAS)}
    return entries, Variable(ring, entries)


def test_variable_keys_whole_parameters_as_ints():
    _, v = mixed_variable()
    assert v.domain == tuple(sorted(Fraction(lam) for lam in MIXED_LAMBDAS))
    for lam in v.entries:
        assert type(lam) is (int if Fraction(lam).denominator == 1 else Fraction)


def test_variable_lookups_match_a_fraction_keyed_reference():
    entries, v = mixed_variable()
    reference = {Fraction(lam): attr for lam, attr in entries.items()}
    for probe in LAMBDA_PROBES:
        want = reference.get(Fraction(probe))
        assert (probe in v) == (want is not None), probe
        if want is not None:
            assert v.attribute(probe) is want
        else:
            with pytest.raises(ModelError) as err:
                v.attribute(probe)
            assert str(err.value) == f"parameter {probe} outside the variable's domain"
