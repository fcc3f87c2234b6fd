import random

import pytest

from ctm import timers
from ctm import (
    Attribute,
    ModelError,
    are_distinguishable,
    check_simultaneous_halt,
    check_staggered_halt,
    check_synchrony,
    classify_timers,
    composite_timer,
    cyclic_substrate,
    identity_substrate,
    make_counter_timer,
    make_particle_timer,
    make_timer,
    recurrence_horizon,
    validate_null_constructor,
)


def naive_halt_step(spec, start):
    """Independent oracle: walk the step map until the halt flag raises."""
    state = start
    for k in range(len(spec.substrate.states) + 1):
        if state in spec.halt_flag.members:
            return k
        state = spec.substrate.step[state]
    return None


# constructors ----------------------------------------------------------------


def test_counter_timer_shape():
    spec = make_counter_timer(4, 5)
    assert len(spec.substrate.states) == 16
    assert spec.duration == 5
    assert spec.attr0.members == {0}
    assert spec.attrR.members == set(range(1, 5))
    assert spec.attr1.members == set(range(5, 16))
    assert spec.halt_flag is spec.attr1
    assert spec.static_horizon == 10


def test_counter_threshold_one_is_degenerate_but_legal():
    spec = make_counter_timer(4, 1)
    assert spec.attrR.members == set()
    report = validate_null_constructor(spec)
    assert report.passed
    assert any("empty" in w for w in report.warnings)


def test_counter_threshold_out_of_range():
    with pytest.raises(ModelError, match="threshold"):
        make_counter_timer(3, 8)


def test_particle_timer_durations():
    p = make_particle_timer(64, 1, 5)
    assert p.duration == 5
    assert check_simultaneous_halt(p, make_counter_timer(4, 5))
    p2 = make_particle_timer(64, 2, 10)
    assert p2.duration == 5
    assert check_simultaneous_halt(p, p2)


def test_particle_timer_requires_whole_steps():
    with pytest.raises(ModelError, match="whole number"):
        make_particle_timer(64, 3, 5)


# composites ------------------------------------------------------------------


def naive_joint_halt(c1, c2):
    """Oracle: simulate the pair until c1's flag raises, return (step, state1, state2)."""
    x = next(iter(c1.attr0.members))
    y = next(iter(c2.attr0.members))
    for k in range(len(c1.substrate.states) + 1):
        if x in c1.halt_flag.members:
            return k, x, y
        x, y = c1.substrate.step[x], c2.substrate.step[y]
    raise AssertionError("no halt")


def test_composite_unequal_halts_in_completed_running():
    c45, c47 = make_counter_timer(4, 5), make_counter_timer(4, 7)
    comp = composite_timer(c45, c47)
    assert comp.duration == 5
    k, x, y = naive_joint_halt(c45, c47)
    assert k == 5
    assert x in c45.attr1.members and y in c47.attrR.members
    assert (x, y) in comp.attr1.members


def test_composite_equal_halts_in_joint_completion():
    a = make_counter_timer(4, 5)
    b = make_counter_timer(4, 5)
    comp = composite_timer(a, b)
    k, x, y = naive_joint_halt(a, b)
    assert k == 5
    assert x in a.attr1.members and y in b.attr1.members
    assert (x, y) in comp.attr1.members


def test_composite_cross_family_same_class():
    a = make_counter_timer(4, 5)
    p = make_particle_timer(64, 1, 5)
    comp = composite_timer(a, p)
    assert comp.duration == 5
    assert comp.attr1.name == "(1,1)"
    assert check_simultaneous_halt(a, p)


def test_composite_self_pair_clones_the_substrate():
    a = make_counter_timer(4, 5)
    comp = composite_timer(a, a)
    assert comp.duration == 5
    copy = timers._distinct(a, a)
    assert copy.substrate is not a.substrate
    assert (copy.duration, copy.halt_step, copy.static_horizon) == (5, 5, 10)


def test_composite_requires_faster_first():
    with pytest.raises(ModelError, match="shorter"):
        composite_timer(make_counter_timer(4, 7), make_counter_timer(4, 5))


def test_composite_duration_equals_faster_duration():
    rng = random.Random(7)
    for _ in range(10):
        t1 = rng.randrange(2, 10)
        t2 = rng.randrange(t1, 12)
        comp = composite_timer(make_counter_timer(4, t1), make_counter_timer(4, t2))
        assert comp.duration == t1


# halt conditions ----------------------------------------------------------------


def test_staggered_halt_examples():
    c45, c47 = make_counter_timer(4, 5), make_counter_timer(4, 7)
    assert check_staggered_halt(c45, c47)
    assert check_staggered_halt(c45, make_particle_timer(64, 1, 7))
    with pytest.raises(ModelError, match="duration"):
        check_staggered_halt(c45, make_counter_timer(5, 5))


def test_simultaneous_halt_examples():
    c45 = make_counter_timer(4, 5)
    assert check_simultaneous_halt(c45, make_counter_timer(6, 5))
    assert not check_simultaneous_halt(c45, make_counter_timer(4, 6))
    assert check_simultaneous_halt(c45, make_counter_timer(4, 5))
    assert check_simultaneous_halt(c45, c45)  # each timer runs on its own step map


def test_small_duration_truth_table():
    for t1 in range(2, 6):
        for t2 in range(2, 6):
            a, b = make_counter_timer(4, t1), make_counter_timer(4, t2)
            assert check_simultaneous_halt(a, b) == (t1 == t2)
            if t1 < t2:
                assert check_staggered_halt(a, b)


# classification ------------------------------------------------------------------


def test_catalog_splits_into_two_classes():
    catalog = [
        make_counter_timer(4, 5, name="C45"),
        make_counter_timer(6, 5, name="C65"),
        make_particle_timer(64, 1, 5, name="P5"),
        make_counter_timer(4, 7, name="C47"),
    ]
    classes = classify_timers(catalog)
    assert [(c.duration, [m.name for m in c.members]) for c in classes] == [
        (5, ["C45", "C65", "P5"]),
        (7, ["C47"]),
    ]


def test_singleton_catalog_is_one_class():
    classes = classify_timers([make_counter_timer(4, 5)])
    assert len(classes) == 1 and classes[0].duration == 5


def test_one_substrate_two_attribute_choices_lands_in_two_classes():
    base = make_counter_timer(4, 5, name="T5")
    other = make_counter_timer(4, 7, substrate=base.substrate, name="T7")
    assert other.substrate is base.substrate
    classes = classify_timers([base, other])
    assert [c.duration for c in classes] == [5, 7]


def test_classify_rejects_invalid_member():
    frozen = identity_substrate("F", ("f0", "f1", "f2"))
    bad = make_timer(
        "bad",
        frozen,
        Attribute(frozen, frozenset({"f0"}), name="0"),
        Attribute(frozen, frozenset({"f1"}), name="R"),
        Attribute(frozen, frozenset({"f2"}), name="1"),
    )
    with pytest.raises(ModelError, match="validation"):
        classify_timers([bad])


# synchrony -----------------------------------------------------------------------


def test_synchrony_of_isolated_copies():
    for spec in (make_counter_timer(4, 5), make_particle_timer(64, 2, 10)):
        assert check_synchrony(spec)


def skewed_timer(name="K"):
    """8-cycle timer whose two starting states first complete at steps 3 and 2."""
    sub = cyclic_substrate("S8", tuple(f"s{i}" for i in range(8)))
    return make_timer(
        name,
        sub,
        Attribute(sub, frozenset({"s0", "s1"}), name="0"),
        Attribute(sub, frozenset({"s2"}), name="R"),
        Attribute(sub, frozenset({"s3", "s4", "s5", "s6"}), name="1"),
    )


def test_synchrony_is_self_co_halt():
    skewed = skewed_timer()
    assert validate_null_constructor(skewed).passed
    assert skewed.duration == 3
    assert not check_synchrony(skewed)
    assert not check_simultaneous_halt(skewed, skewed)
    for spec in (make_counter_timer(4, 5), make_particle_timer(64, 2, 10)):
        assert check_synchrony(spec) == check_simultaneous_halt(spec, spec)


# validation -----------------------------------------------------------------------


def test_validate_counter_passes_at_declared_horizon():
    report = validate_null_constructor(make_counter_timer(4, 5), horizon=10)
    assert report.passed


def test_validate_catches_eroded_completion_attribute():
    sub = cyclic_substrate("c16", tuple(range(16)))
    spec = make_timer(
        "eroded",
        sub,
        Attribute(sub, frozenset({0}), name="0"),
        Attribute(sub, frozenset(range(1, 5)), name="R"),
        Attribute(sub, frozenset(range(5, 15)), name="1"),  # 15 excluded: exits early
    )
    report = validate_null_constructor(spec, horizon=10)
    assert not report.passed
    assert "completed-static-for-horizon" in report.failures()


def test_validate_catches_flag_raised_before_completion():
    sub = cyclic_substrate("c16", tuple(range(16)))
    attrR = Attribute(sub, frozenset(range(1, 5)), name="R")
    spec = make_timer(
        "early-flag",
        sub,
        Attribute(sub, frozenset({0}), name="0"),
        attrR,
        Attribute(sub, frozenset(range(5, 16)), name="1"),
        halt_flag=attrR,
    )
    report = validate_null_constructor(spec)
    assert not report.passed
    assert "halt-at-completion" in report.failures()


def test_validate_rejects_static_starting_attribute():
    frozen = identity_substrate("F", ("f0", "f1", "f2"))
    spec = make_timer(
        "stuck",
        frozen,
        Attribute(frozen, frozenset({"f0"}), name="0"),
        Attribute(frozen, frozenset({"f1"}), name="R"),
        Attribute(frozen, frozenset({"f2"}), name="1"),
    )
    report = validate_null_constructor(spec)
    assert not report.passed
    assert "starting-non-static" in report.failures()
    assert spec.duration is None


def test_every_shipped_style_timer_validates():
    for spec in (
        make_counter_timer(4, 5),
        make_counter_timer(6, 5),
        make_counter_timer(4, 7),
        make_particle_timer(64, 1, 5),
        make_particle_timer(64, 2, 10),
    ):
        assert validate_null_constructor(spec).passed
        assert are_distinguishable([spec.attr0, spec.attrR, spec.attr1])


def test_composite_lands_in_faster_timers_class():
    c45, c47 = make_counter_timer(4, 5), make_counter_timer(4, 7)
    comp = composite_timer(c45, c47)
    assert check_simultaneous_halt(comp, c45)
    assert not check_simultaneous_halt(comp, c47)


# recurrence -----------------------------------------------------------------------


def test_recurrence_horizons():
    assert recurrence_horizon(make_counter_timer(4, 5)) == 16
    assert recurrence_horizon(make_counter_timer(8, 5)) == 256
    assert recurrence_horizon(make_particle_timer(64, 2, 10)) == 32


def test_recurrence_horizon_waits_for_the_representative():
    # the walk from s0 reaches s1, also a starting state, after one step
    assert recurrence_horizon(skewed_timer()) == 8


def test_halt_step_equals_duration_oracle():
    for spec in (make_counter_timer(4, 5), make_particle_timer(64, 2, 10)):
        assert naive_halt_step(spec, next(iter(spec.attr0.members))) == spec.duration


# equivalence-relation property -------------------------------------------------------


def random_catalog(rng, size=8):
    catalog = []
    for i in range(size):
        if rng.random() < 0.5:
            bits = rng.randrange(3, 6)
            t = rng.randrange(2, min(8, 2**bits))
            catalog.append(make_counter_timer(bits, t, name=f"c{i}"))
        else:
            speed = rng.choice((1, 2))
            duration = rng.randrange(2, 8)
            catalog.append(
                make_particle_timer(64, speed, speed * duration, name=f"p{i}")
            )
    return catalog


def test_simultaneous_halt_is_an_equivalence_relation():
    rng = random.Random(99)
    catalog = random_catalog(rng, size=8)
    n = len(catalog)
    rel = {
        (i, j): check_simultaneous_halt(catalog[i], catalog[j])
        for i in range(n)
        for j in range(n)
    }
    for i in range(n):
        assert rel[(i, i)]
        for j in range(n):
            assert rel[(i, j)] == rel[(j, i)]
            for k in range(n):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


def union_find_classes(catalog):
    """Oracle: union-find over pairwise check_simultaneous_halt, classes as name lists."""
    parent = list(range(len(catalog)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(catalog)):
        for j in range(i + 1, len(catalog)):
            if check_simultaneous_halt(catalog[i], catalog[j]):
                parent[find(i)] = find(j)
    groups = {}
    for i, spec in enumerate(catalog):
        groups.setdefault(find(i), []).append(spec)
    classes = [(group[0].duration, sorted(m.name for m in group)) for group in groups.values()]
    return sorted(classes, key=lambda c: c[0])


def seeded_catalog(seed):
    """Random timers plus two sharing one substrate and some skewed ones, shuffled."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, size=rng.randrange(1, 9))
    shared = make_counter_timer(4, 5, name="shared5")
    threshold = rng.randrange(2, 9)
    catalog.append(make_counter_timer(4, threshold, substrate=shared.substrate, name="shared"))
    catalog.append(shared)
    catalog += [skewed_timer(f"k{i}") for i in range(rng.randrange(0, 3))]
    rng.shuffle(catalog)
    return catalog


def test_classify_matches_pairwise_union_find():
    for seed in range(20):
        catalog = seeded_catalog(seed)
        got = [(c.duration, [m.name for m in c.members]) for c in classify_timers(catalog)]
        assert got == union_find_classes(catalog), seed


def walked_halt_step(spec):
    """Oracle: walk each starting state into completion; the common first step, else None."""
    firsts = set()
    for start in spec.attr0.members:
        state, first = start, None
        for k in range(len(spec.substrate.states) + 1):
            if state in spec.attr1.members:
                first = k
                break
            state = spec.substrate.step[state]
        firsts.add(first)
    return firsts.pop() if len(firsts) == 1 else None


def test_halt_step_matches_per_start_walk():
    skewed, counter = skewed_timer(), make_counter_timer(4, 5)
    specs = [skewed, composite_timer(counter, make_particle_timer(64, 2, 14))]
    specs.append(composite_timer(skewed, counter))
    specs.append(composite_timer(counter, counter))
    for seed in range(20):
        specs += seeded_catalog(seed)
    for spec in specs:
        assert spec.halt_step == walked_halt_step(spec), spec
    assert [spec.halt_step for spec in specs[:4]] == [None, 5, None, 5]


def test_classify_equal_durations_keep_catalog_order():
    skewed, counter = skewed_timer(), make_counter_timer(4, 3)
    assert skewed.duration == counter.duration == 3
    for catalog in ([skewed, counter], [counter, skewed]):
        got = [[m.name for m in c.members] for c in classify_timers(catalog)]
        assert got == [[spec.name] for spec in catalog]
