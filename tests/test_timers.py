import functools
import hashlib
import json
import random
from types import SimpleNamespace

import pytest

from ctm import timers
from ctm.cli import main
from ctm.core import (
    evolve,
    first_entry,
    is_static,
    recurrence_period,
    static_horizon,
)
from ctm import (
    Attribute,
    ModelError,
    Substrate,
    Task,
    check_simultaneous_halt,
    check_staggered_halt,
    check_synchrony,
    classify_timers,
    compose_substrates,
    cyclic_substrate,
    duration_task,
    identity_substrate,
    make_counter_timer,
    make_particle_timer,
    make_timer,
    pair_attribute,
    recurrence_horizon,
    timer_witness,
    verify_witness,
)
from conftest import assert_distinct, assert_same_value, assert_slotted


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
    assert any("empty" in w for w in spec.warnings)


def test_counter_threshold_out_of_range():
    with pytest.raises(ModelError, match="threshold"):
        make_counter_timer(3, 8)


def test_counter_timer_on_a_substrate_that_is_not_a_counter():
    with pytest.raises(ModelError, match="is not a counter over 0..2\\^bits - 1"):
        make_counter_timer(3, 5, substrate=cyclic_substrate("R", tuple(range(1, 9))))
    down = Substrate("D", tuple(range(8)), {i: (i - 1) % 8 for i in range(8)})
    with pytest.raises(ModelError, match="does not increment mod 2\\^bits"):
        make_counter_timer(3, 5, substrate=down)


def test_duration_task_against_a_reference_with_unknown_states():
    with pytest.raises(ModelError, match="reference timer uses states unknown to this timer"):
        duration_task(make_counter_timer(4, 5), reference=make_counter_timer(5, 6))


def test_particle_timer_durations():
    p = make_particle_timer(64, 1, 5)
    assert p.duration == 5
    assert check_simultaneous_halt(p, make_counter_timer(4, 5))
    p2 = make_particle_timer(64, 2, 10)
    assert p2.duration == 5
    assert check_simultaneous_halt(p, p2)


def timer_facts(make, *args, **kwargs):
    """What a timer constructor returns, or the message it raises, as plain values."""
    try:
        spec = make(*args, **kwargs)
    except ModelError as e:
        return ("error", str(e))
    sub = spec.substrate
    attrs = (spec.attr0, spec.attrR, spec.attr1, spec.halt_flag)
    return (
        spec.name,
        sub.id,
        sub.states,
        sorted(sub.step.items()),
        [(a.name, sorted(a.members)) for a in attrs],
        spec.halts,
        spec.static_horizon,
        spec.warnings,
    )


def test_counter_and_particle_timers_keep_their_grid():
    facts = []
    for bits in range(1, 7):
        for threshold in range(0, 2**bits + 1):
            facts.append(timer_facts(make_counter_timer, bits, threshold))
            if 1 <= threshold < 2**bits:
                spec = make_counter_timer(bits, threshold)
                assert spec.static_horizon == 2**bits - threshold - 1
        given = cyclic_substrate(f"given{bits}", tuple(range(2**bits)))
        facts.append(timer_facts(make_counter_timer, bits, 1, substrate=given, name="C"))
    for cells in range(1, 13):
        for speed in range(0, cells + 1):
            for target in range(0, cells + 1):
                facts.append(timer_facts(make_particle_timer, cells, speed, target))
    facts.append(timer_facts(make_particle_timer, 12, 3, 6, name="P"))
    assert (len(facts), sum(f[0] == "error" for f in facts)) == (957, 674)
    # the digest of these facts when each constructor built its own attributes
    digest = hashlib.sha256(repr(facts).encode()).hexdigest()
    assert digest == "1eab9c84393cfef8ab58201beea27661aaa465ecc8350408542c41187fb0a24c"


def test_particle_timer_requires_whole_steps():
    with pytest.raises(ModelError, match="whole number"):
        make_particle_timer(64, 3, 5)


# composites ------------------------------------------------------------------


def composite_parts(c1, c2):
    """make_timer's arguments for a pair read as one timer that halts when c1, the faster, does.

    The completion attribute is (1, R) when the durations differ and (1, 1) when they
    coincide; the halt flag is c1's flag, whatever c2 shows.  A c2 on c1's substrate
    runs on a second instance of it.
    """
    name2, sub2 = c2.name, c2.substrate
    if sub2 is c1.substrate:
        name2, sub2 = name2 + "'", Substrate(sub2.id + "'", sub2.states, sub2.step)
    start2, run2, done2 = (Attribute(sub2, a.members) for a in (c2.attr0, c2.attrR, c2.attr1))
    joint = compose_substrates(c1.substrate, sub2)
    any2 = Attribute(sub2, sub2.states, name="any")
    attr0 = pair_attribute(joint, c1.attr0, start2, name="(0,0)")
    if c1.duration < c2.duration:
        attr1 = pair_attribute(joint, c1.attr1, run2, name="(1,R)")
    else:
        attr1 = pair_attribute(joint, c1.attr1, done2, name="(1,1)")
    not_done1 = Attribute(c1.substrate, c1.attr0.members | c1.attrR.members, name="0|R")
    running = pair_attribute(joint, not_done1, any2)
    attrR = Attribute(joint, running.members - attr0.members, name="R")
    halt = pair_attribute(joint, c1.halt_flag, any2, name="(halt,any)")
    return f"[{c1.name}⊕{name2}]", joint, attr0, attrR, attr1, halt


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
    comp = make_timer(*composite_parts(c45, c47))
    assert comp.duration == 5
    k, x, y = naive_joint_halt(c45, c47)
    assert k == 5
    assert x in c45.attr1.members and y in c47.attrR.members
    assert (x, y) in comp.attr1.members


def test_composite_equal_halts_in_joint_completion():
    a = make_counter_timer(4, 5)
    b = make_counter_timer(4, 5)
    comp = make_timer(*composite_parts(a, b))
    k, x, y = naive_joint_halt(a, b)
    assert k == 5
    assert x in a.attr1.members and y in b.attr1.members
    assert (x, y) in comp.attr1.members


def test_composite_cross_family_same_class():
    a = make_counter_timer(4, 5)
    p = make_particle_timer(64, 1, 5)
    comp = make_timer(*composite_parts(a, p))
    assert comp.duration == 5
    assert comp.attr1.name == "(1,1)"
    assert check_simultaneous_halt(a, p)


def test_composite_duration_equals_faster_duration():
    rng = random.Random(7)
    for _ in range(10):
        t1 = rng.randrange(2, 10)
        t2 = rng.randrange(t1, 12)
        comp = make_timer(*composite_parts(make_counter_timer(4, t1), make_counter_timer(4, t2)))
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


def test_empty_catalog_rejected():
    with pytest.raises(ModelError, match="catalog must be non-empty"):
        classify_timers([])


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
    # an invalid member never reaches the catalog: building it raises
    frozen = identity_substrate("F", ("f0", "f1", "f2"))
    with pytest.raises(ModelError, match="not a well-formed null constructor"):
        classify_timers(
            [
                make_timer(
                    "bad",
                    frozen,
                    Attribute(frozen, frozenset({"f0"}), name="0"),
                    Attribute(frozen, frozenset({"f1"}), name="R"),
                    Attribute(frozen, frozenset({"f2"}), name="1"),
                )
            ]
        )


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
    skewed = skewed_timer()  # well formed: make_timer accepts it
    assert seed_validate(skewed).passed
    assert skewed.duration == 3
    assert not check_synchrony(skewed)
    assert not check_simultaneous_halt(skewed, skewed)
    for spec in (make_counter_timer(4, 5), make_particle_timer(64, 2, 10)):
        assert check_synchrony(spec) == check_simultaneous_halt(spec, spec)


# validation -----------------------------------------------------------------------


def c16_timer_file(tmp_path, done):
    """A custom timer on the 16-cycle: start {0}, running 1..4, the given completed states."""
    path = tmp_path / "c16.ctm"
    path.write_text(
        "substrate C16 { states "
        + " ".join(f"c{i}" for i in range(16))
        + " ; step ("
        + " ".join(f"c{i}" for i in range(16))
        + ") }\n"
        "attribute z on C16 { c0 }\n"
        "attribute r on C16 { c1 c2 c3 c4 }\n"
        f"attribute o on C16 {{ {' '.join(f'c{i}' for i in done)} }}\n"
        "timer custom T on C16 { start z ; running r ; done o }\n"
    )
    return str(path)


def check_at_horizon_10(capsys, path):
    status = main(["check", path, "--horizon", "10"])
    [entry] = json.loads(capsys.readouterr().out)["files"]
    return status, entry["synchrony"][0]["validation_ok"]


def test_validate_counter_passes_at_declared_horizon(capsys, tmp_path):
    assert make_counter_timer(4, 5).static_horizon == 10
    assert check_at_horizon_10(capsys, c16_timer_file(tmp_path, range(5, 16))) == (0, True)


def test_validate_catches_eroded_completion_attribute(capsys, tmp_path):
    sub = cyclic_substrate("c16", tuple(range(16)))
    spec = make_timer(
        "eroded",
        sub,
        Attribute(sub, frozenset({0}), name="0"),
        Attribute(sub, frozenset(range(1, 5)), name="R"),
        Attribute(sub, frozenset(range(5, 15)), name="1"),  # 15 excluded: exits early
    )
    assert spec.static_horizon < 10
    assert check_at_horizon_10(capsys, c16_timer_file(tmp_path, range(5, 15))) == (1, False)


def test_validate_catches_flag_raised_before_completion():
    sub = cyclic_substrate("c16", tuple(range(16)))
    attrR = Attribute(sub, frozenset(range(1, 5)), name="R")
    with pytest.raises(ModelError, match="halt-at-completion"):
        make_timer(
            "early-flag",
            sub,
            Attribute(sub, frozenset({0}), name="0"),
            attrR,
            Attribute(sub, frozenset(range(5, 16)), name="1"),
            halt_flag=attrR,
        )


def test_validate_rejects_static_starting_attribute():
    frozen = identity_substrate("F", ("f0", "f1", "f2"))
    # never completing, the timer also fails both checks that need a duration
    failed = (
        "starting-non-static, running-non-static, completed-static-for-horizon, "
        "halt-at-completion"
    )
    with pytest.raises(ModelError, match=failed):
        make_timer(
            "stuck",
            frozen,
            Attribute(frozen, frozenset({"f0"}), name="0"),
            Attribute(frozen, frozenset({"f1"}), name="R"),
            Attribute(frozen, frozenset({"f2"}), name="1"),
        )


def test_every_shipped_style_timer_validates():
    for spec in (
        make_counter_timer(4, 5),
        make_counter_timer(6, 5),
        make_counter_timer(4, 7),
        make_particle_timer(64, 1, 5),
        make_particle_timer(64, 2, 10),
    ):
        assert seed_validate(spec).passed
        attr0, attrR, attr1 = spec.attr0.members, spec.attrR.members, spec.attr1.members
        assert attr0.isdisjoint(attrR) and attr0.isdisjoint(attr1) and attrR.isdisjoint(attr1)


def test_composite_of_skewed_timers_is_rejected():
    # each skewed start completes, and raises the pair's flag, at its own step
    with pytest.raises(ModelError, match="halt-at-completion"):
        make_timer(*composite_parts(skewed_timer("K1"), skewed_timer("K2")))


def test_composite_lands_in_faster_timers_class():
    c45, c47 = make_counter_timer(4, 5), make_counter_timer(4, 7)
    comp = make_timer(*composite_parts(c45, c47))
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


@pytest.mark.parametrize("seed", range(20))
def test_recurrence_horizon_matches_the_minimum_by_state_order(seed):
    # cycles of 3 to 6 states, each with one start, one running state and a completed
    # rest, listed in a shuffled state order so the representative's cycle varies
    rng = random.Random(seed)
    cycles = [[f"c{i}_{j}" for j in range(rng.randrange(3, 7))] for i in range(rng.randrange(1, 9))]
    states = [s for cyc in cycles for s in cyc]
    rng.shuffle(states)
    step = {cyc[j]: cyc[(j + 1) % len(cyc)] for cyc in cycles for j in range(len(cyc))}
    sub = Substrate("M", states, step)
    start, running, done = (
        Attribute(sub, frozenset(s for cyc in cycles for s in cyc[part]))
        for part in (slice(0, 1), slice(1, 2), slice(2, None))
    )
    spec = make_timer("M", sub, start, running, done)
    rep = min(spec.attr0.members, key=sub.states.index)
    assert recurrence_horizon(spec) == len(next(cyc for cyc in cycles if rep in cyc))


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
    specs = [skewed, make_timer(*composite_parts(counter, make_particle_timer(64, 2, 14)))]
    specs.append(make_timer(*composite_parts(skewed, counter)))
    specs.append(make_timer(*composite_parts(counter, counter)))
    for seed in range(20):
        specs += seeded_catalog(seed)
    for spec in specs:
        assert spec.halt_step == walked_halt_step(spec), spec
    assert [spec.halt_step for spec in specs[:4]] == [None, 5, None, 5]


def test_halt_step_is_duration_or_none_and_unequal_durations_never_co_halt():
    # why ctm check reports one row per timer pair: the staggered pairs need no co-halt row
    for seed in range(20):
        catalog = seeded_catalog(seed)
        for spec in catalog:
            assert spec.halt_step in (spec.duration, None), (seed, spec)
        for a in catalog:
            for b in catalog:
                if a.duration != b.duration:
                    assert not check_simultaneous_halt(a, b), (seed, a, b)


def test_classify_equal_durations_keep_catalog_order():
    skewed, counter = skewed_timer(), make_counter_timer(4, 3)
    assert skewed.duration == counter.duration == 3
    for catalog in ([skewed, counter], [counter, skewed]):
        got = [[m.name for m in c.members] for c in classify_timers(catalog)]
        assert got == [[spec.name] for spec in catalog]


def test_make_timer_rejects_halt_flag_on_another_substrate():
    # a foreign flag would be read by state label on a substrate the timer never steps
    a = cyclic_substrate("A", range(8))
    b = cyclic_substrate("B", range(8))
    attr0, attrR, attr1 = (Attribute(a, frozenset(m)) for m in ({0}, {1, 2}, range(3, 8)))
    flag = Attribute(b, frozenset(range(3, 8)), name="flag")
    assert make_timer("x", a, attr0, attrR, attr1).duration == 3
    with pytest.raises(ModelError, match="attribute 'flag' is on a different substrate"):
        make_timer("x", a, attr0, attrR, attr1, halt_flag=flag)


# construction-time validation against the seed validator ------------------------------


def seed_spec(name, substrate, attr0, attrR, attr1, halt_flag=None):
    """The seed make_timer: the derived fields, unvalidated (duration None if never complete)."""
    for a in (attr0, attrR, attr1):
        if a.substrate is not substrate:
            raise ModelError(f"timer {name!r}: attribute {a.name!r} is on a different substrate")
    if not attr0.members:
        raise ModelError(f"timer {name!r}: starting attribute must be non-empty")
    rec = recurrence_period(substrate)
    firsts = [first_entry(substrate, s, attr1.members) for s in attr0.members]
    duration = None
    if None not in firsts:
        k = max(firsts)
        if all(evolve(substrate, s, k) in attr1.members for s in attr0.members):
            duration = k
    return SimpleNamespace(
        substrate=substrate,
        attr0=attr0,
        attrR=attrR,
        attr1=attr1,
        halt_flag=attr1 if halt_flag is None else halt_flag,
        duration=duration,
        static_horizon=static_horizon(attr1, cap=rec) if attr1.members else 0,
    )


SEED_CHECKS = (
    "starting-preparable",
    "starting-non-static",
    "running-non-static",
    "completed-static-for-horizon",
    "halt-distinguishable",
    "halt-at-completion",
    "attributes-disjoint",
)


def seed_validate(c, horizon=None):
    """The seed validate_null_constructor: each check of the 0 / R / 1 / halt structure."""
    warnings = []
    h = c.static_horizon if horizon is None else horizon
    checks = dict.fromkeys(SEED_CHECKS, True)
    checks["starting-preparable"] = bool(c.attr0.members)
    checks["starting-non-static"] = bool(c.attr0.members) and not is_static(c.attr0)
    if c.attrR.members:
        checks["running-non-static"] = not is_static(c.attrR)
    elif c.duration == 1:
        warnings.append("running attribute is empty (duration-1 degenerate timer)")
    else:
        warnings.append("running attribute is empty")
    if c.attr1.members:
        checks["completed-static-for-horizon"] = c.duration is not None and c.static_horizon >= h
    else:
        checks["completed-static-for-horizon"] = False
    checks["halt-distinguishable"] = bool(c.halt_flag.members)
    if c.duration is None:
        checks["halt-at-completion"] = False
    else:
        for s in c.attr0.members:
            flag_at = first_entry(c.substrate, s, c.halt_flag.members)
            done_at = first_entry(c.substrate, s, c.attr1.members)
            if flag_at is None or flag_at != done_at:
                checks["halt-at-completion"] = False
                break
    seen = set()
    for a in (c.attr0, c.attrR, c.attr1):
        if a.members & seen:
            checks["attributes-disjoint"] = False
        seen |= a.members
    if c.duration is not None and c.static_horizon < 4 * c.duration:
        warnings.append(
            f"completed attribute stays static for {c.static_horizon} steps, "
            f"less than four durations ({4 * c.duration})"
        )
    failures = tuple(k for k, ok in checks.items() if not ok)
    return SimpleNamespace(passed=not failures, failures=failures, warnings=tuple(warnings))


def seed_staggered(c1, c2):
    """The seed check_staggered_halt: simulate the pair step by step up to c1's halt."""
    for s0 in c1.attr0.members:
        h = first_entry(c1.substrate, s0, c1.halt_flag.members)
        if h is None:
            return False
        for t0 in c2.attr0.members:
            x, y = s0, t0
            for k in range(h + 1):
                if x in c1.attr1.members and y in c2.attr1.members:
                    return False
                if k < h:
                    x, y = c1.substrate.step[x], c2.substrate.step[y]
            if x not in c1.attr1.members or y not in c2.attrR.members:
                return False
    return True


def decision(parts):
    """make_timer's verdict on a structure: its derived fields and warnings, or its error."""
    try:
        spec = make_timer(*parts)
    except ModelError as e:
        return str(e)
    return spec.duration, spec.static_horizon, spec.warnings


def seed_decision(parts):
    """The seed's verdict: construct, then validate as its model analysis did."""
    try:
        spec = seed_spec(*parts)
    except ModelError as e:
        return str(e)
    report = seed_validate(spec)
    if not report.passed:
        failed = ", ".join(report.failures)
        return f"timer {parts[0]!r} is not a well-formed null constructor: {failed}"
    return spec.duration, spec.static_horizon, report.warnings


def random_parts(rng, i):
    """A random custom timer structure on a 3-9-state substrate, often malformed."""
    n = rng.randrange(3, 10)
    states = tuple(f"s{j}" for j in range(n))
    if rng.random() < 0.5:
        images = rng.sample(states, n)
        sub = Substrate(f"R{i}", states, dict(zip(states, images)))
    else:
        sub = cyclic_substrate(f"R{i}", tuple(rng.sample(states, n)))
    roles = {s: rng.choice("00RR11-") for s in states}
    attr0, attrR, attr1 = (
        Attribute(sub, frozenset(s for s in states if roles[s] == role), name=role)
        for role in "0R1"
    )
    if rng.random() < 0.3:
        attr1 = Attribute(sub, attr1.members | {rng.choice(states)}, name="1")
    halt = None
    if rng.random() < 0.3:
        halt = Attribute(sub, frozenset(rng.sample(states, rng.randrange(0, n))), name="h")
    return f"r{i}", sub, attr0, attrR, attr1, halt


def random_timer_parts(count=3000):
    rng = random.Random(2025)
    return [random_parts(rng, i) for i in range(count)]


@functools.cache
def catalog_composite_parts():
    """The composite structure of every ordered pair, faster first, of each seeded catalog."""
    pairs = []
    for seed in range(20):
        catalog = seeded_catalog(seed)
        pairs += [
            (seed, composite_parts(c1, c2))
            for c1 in catalog
            for c2 in catalog
            if c1.duration <= c2.duration
        ]
    return pairs


def test_make_timer_matches_seed_validation_on_catalogs():
    for seed in range(20):
        for spec in seeded_catalog(seed):
            parts = (spec.name, spec.substrate, spec.attr0, spec.attrR, spec.attr1, spec.halt_flag)
            assert decision(parts) == seed_decision(parts), (seed, spec)


def test_make_timer_matches_seed_validation_on_composites():
    pairs = catalog_composite_parts()
    for seed, parts in pairs:
        assert decision(parts) == seed_decision(parts), (seed, parts[0])
    # the seed built every pair; 90 of them, each with a skewed timer, were malformed
    rejected = [parts[0] for _, parts in pairs if isinstance(decision(parts), str)]
    assert (len(pairs), len(rejected)) == (798, 90)
    assert all("k" in name for name in rejected)


def test_make_timer_matches_seed_validation_on_random_structures():
    verdicts = [(decision(parts), seed_decision(parts)) for parts in random_timer_parts()]
    for mine, seed in verdicts:
        assert mine == seed
    assert sum(not isinstance(mine, str) for mine, _ in verdicts) == 501


def test_first_entries_match_first_entry_on_seeded_substrates():
    # several cycles, some without a member, and starts on some of them only
    rng = random.Random(2029)
    compared = unreached = 0
    for i in range(400):
        n = rng.randrange(1, 40)
        states = tuple(f"s{j}" for j in range(n))
        sub = Substrate(f"S{i}", states, dict(zip(states, rng.sample(states, n))))
        members = frozenset(rng.sample(states, rng.randrange(0, n + 1) // rng.choice((1, 4))))
        starts = frozenset(rng.sample(states, rng.randrange(1, n + 1)))
        firsts = timers._first_entries(sub, starts, members)
        assert firsts == [first_entry(sub, s, members) for s in starts], (sub.step, members)
        compared += len(firsts)
        unreached += firsts.count(None)
    assert (compared, unreached) == (3920, 855)


def test_custom_timer_halts_are_the_first_entries_of_their_starts():
    for name, sub, attr0, attrR, attr1, halt in random_timer_parts():
        if not isinstance(decision((name, sub, attr0, attrR, attr1, halt)), str):
            spec = make_timer(name, sub, attr0, attrR, attr1, halt)
            firsts = {first_entry(sub, s, attr1.members) for s in attr0.members}
            assert spec.halts == tuple(sorted(firsts))


@functools.cache
def valid_timer_groups():
    """Groups of well-formed timers: each seeded catalog with its composites, then random ones."""
    groups = [seeded_catalog(seed) for seed in range(20)]
    for seed, parts in catalog_composite_parts():
        if not isinstance(decision(parts), str):
            groups[seed].append(make_timer(*parts))
    valid = [
        make_timer(*parts) for parts in random_timer_parts() if not isinstance(decision(parts), str)
    ]
    return groups + [valid[i : i + 25] for i in range(0, len(valid), 25)]


def test_staggered_halt_matches_pair_simulation():
    staggered = []
    for group in valid_timer_groups():
        for c1 in group:
            for c2 in group:
                if c1.duration < c2.duration:
                    staggered.append(seed_staggered(c1, c2))
                    assert check_staggered_halt(c1, c2) == staggered[-1], (c1, c2)
    assert (len(staggered), sum(staggered)) == (19771, 16605)


# the timer as a witness ---------------------------------------------------------------


def test_timer_witness_halts_at_the_timer_halt_steps():
    # counter, particle, skewed, composite and random custom timers
    specs = [spec for group in valid_timer_groups() for spec in group]
    kinds = {spec.name[0] for spec in specs}
    assert {"c", "p", "k", "[", "r"} <= kinds
    for spec in specs:
        report = verify_witness(timer_witness(spec), Task(spec.attr0, spec.attr1))
        assert report.performs, spec
        assert set(report.halt_steps.values()) == set(spec.halts), spec
    skewed = skewed_timer()
    report = verify_witness(timer_witness(skewed), Task(skewed.attr0, skewed.attr1))
    assert (skewed.halts, report.halt_steps) == ((2, 3), {("*", "s0"): 3, ("*", "s1"): 2})


# equality and hashing ------------------------------------------------------------------


def test_timer_specs_equal_only_themselves_and_classes_compare_by_value():
    spec = make_counter_timer(3, 2)
    assert_same_value(spec, spec)
    assert_distinct(spec, make_counter_timer(3, 2))
    (cls,) = classify_timers([spec])
    assert_same_value(cls, timers.TimerClass(2, (spec,)))
    assert_distinct(cls, timers.TimerClass(2, (make_counter_timer(3, 2),)))
    assert_slotted(spec, cls)
