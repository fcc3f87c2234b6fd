import random
from itertools import islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctm import (
    ApproximateConstructor,
    Attribute,
    ConstructorWitness,
    ModelError,
    Substrate,
    Task,
    WitnessFamily,
    accuracy,
    check_possible_in_limit,
    cyclic_substrate,
    duration_task,
    identity_substrate,
    make_counter_timer,
    make_timer,
    reliability,
    search_impossibility,
    timer_witness,
    uniform_possibility,
    verify_witness,
    wrap_permutation,
)
from ctm.witnesses import VerifyReport, _distance, permutation_possible
from conftest import (
    assert_distinct,
    assert_same_value,
    assert_slotted,
    prime_cycle_substrate,
    singleton,
)


@pytest.fixture()
def abc():
    return identity_substrate("ABC", ("a", "b", "c"))


def flip_witness(abc):
    return wrap_permutation(abc, {"a": "b", "b": "a", "c": "c"})


# verify ----------------------------------------------------------------------


def test_swap_constructor_performs_flip(abc):
    w = flip_witness(abc)
    report = verify_witness(w, Task(singleton(abc, "a"), singleton(abc, "b")))
    assert report.performs
    assert report.halt_steps == {(0, "a"): 1}
    assert report.reason is None and report.halt_on == "device"


def test_identity_task_with_immediate_halt_performs(abc):
    device = Substrate("d1", ("*",), {"*": "*"})
    out = singleton(abc, "a")
    w = ConstructorWitness(
        device=device,
        substrate=abc,
        ready=Attribute(device, frozenset({"*"}), name="ready"),
        halt_flag=out,
        joint_step={("*", s): ("*", s) for s in abc.states},
        max_steps=4,
    )
    report = verify_witness(w, Task(out, out))
    assert report.performs
    assert report.halt_steps == {("*", "a"): 0}
    assert report.halt_on == "substrate"


def test_timer_as_its_own_device_performs_duration_task():
    spec = make_counter_timer(4, 5)
    w = timer_witness(spec)
    report = verify_witness(w, duration_task(spec))
    assert report.performs
    assert report.halt_steps[("*", 0)] == 5


def test_timer_witness_gives_up_on_a_run_that_never_halts_after_the_longest_cycle():
    # a duration-1 timer on the 2-cycle of a substrate whose recurrence period is about
    # 6.5e9; a start on the 3-cycle never raises the flag, and its run stops after 29 steps
    sub = prime_cycle_substrate(29)
    spec = make_timer(
        "T", sub, singleton(sub, "c2_0"), Attribute(sub, frozenset()), singleton(sub, "c2_1")
    )
    w = timer_witness(spec)
    assert w.max_steps == 29
    report = verify_witness(w, Task(Attribute(sub, frozenset({"c2_0", "c3_0"})), spec.attr1))
    assert (report.reason, report.failing_run) == ("timeout", ("*", "c3_0"))
    assert report.halt_steps == {("*", "c2_0"): 1}


def test_failure_modes(abc):
    never = wrap_permutation(abc, {s: s for s in abc.states})
    # halt flag on the substrate, never reached
    device = Substrate("d1", ("*",), {"*": "*"})
    silent = ConstructorWitness(
        device=device,
        substrate=abc,
        ready=Attribute(device, frozenset({"*"}), name="ready"),
        halt_flag=singleton(abc, "c"),
        joint_step={("*", s): ("*", s) for s in abc.states},
        max_steps=6,
    )
    report = verify_witness(silent, Task(singleton(abc, "a"), singleton(abc, "b")))
    assert not report.performs and report.reason == "timeout"

    wrong = verify_witness(never, Task(singleton(abc, "a"), singleton(abc, "b")))
    assert not wrong.performs and wrong.reason == "wrong output"

    # device cycles 0 -> 1 -> 2 but the budget ends before it returns to ready
    slow_dev = Substrate("d3", (0, 1, 2), {0: 1, 1: 2, 2: 0})
    w = ConstructorWitness(
        device=slow_dev,
        substrate=abc,
        ready=Attribute(slow_dev, frozenset({0}), name="ready"),
        halt_flag=Attribute(slow_dev, frozenset({1}), name="halt"),
        joint_step={(d, s): (slow_dev.step[d], s) for d in slow_dev.states for s in abc.states},
        max_steps=1,
    )
    broken = verify_witness(w, Task(singleton(abc, "a"), singleton(abc, "a")))
    assert not broken.performs and broken.reason == "cycle broken"


# a verifier that performs a task and a search that finds no witness for it ----------


def leaking_device():
    """A 1-state device on the 3-cycle x -> y -> z with its halt flag on {z}.

    Its halt step depends on the input: 2 from x, 1 from y.
    """
    sub = cyclic_substrate("XYZ", ("x", "y", "z"))
    device = Substrate("d1", ("*",), {"*": "*"})
    w = ConstructorWitness(
        device=device,
        substrate=sub,
        ready=Attribute(device, frozenset({"*"}), name="ready"),
        halt_flag=singleton(sub, "z"),
        joint_step={("*", s): ("*", sub.step[s]) for s in sub.states},
        max_steps=3,
    )
    return w, sub


def test_leaking_device_performs_each_task_into_z():
    w, sub = leaking_device()
    x, y, z = (singleton(sub, s) for s in ("x", "y", "z"))
    both = verify_witness(w, Task(Attribute(sub, frozenset({"x", "y"})), z))
    assert both.performs and both.halt_steps == {("*", "x"): 2, ("*", "y"): 1}
    assert verify_witness(w, Task(x, z)).performs and verify_witness(w, Task(y, z)).performs


ITEM_1 = (
    "ROADMAP item 1: verify_witness accepts a device whose halt step depends on the input, "
    "which the permutation search assumes no device does"
)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
def test_a_task_the_verifier_performs_is_found_by_the_search():
    w, sub = leaking_device()
    t = Task(Attribute(sub, frozenset({"x", "y"})), singleton(sub, "z"))
    assert not verify_witness(w, t).performs or search_impossibility(t).found


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
def test_pairs_the_verifier_performs_one_at_a_time_are_found_together():
    w, sub = leaking_device()
    pairs = [Task(singleton(sub, s), singleton(sub, "z")) for s in ("x", "y")]
    performs = all(verify_witness(w, t).performs for t in pairs)
    assert not performs or search_impossibility(pairs).found


# accuracy ---------------------------------------------------------------------


def test_exact_witness_has_zero_accuracy_error(abc):
    w = flip_witness(abc)
    assert accuracy(w, Task(singleton(abc, "a"), singleton(abc, "b"))) == 0.0


def test_misset_threshold_gives_one_step_deviation():
    reference = make_counter_timer(4, 5)
    low = make_counter_timer(4, 4)  # halts one state early
    err = accuracy(timer_witness(low), duration_task(low, reference=reference))
    assert err == 1 / 16


def test_witness_that_never_halts_has_undefined_accuracy(abc):
    device = Substrate("d1", ("*",), {"*": "*"})
    silent = ConstructorWitness(
        device=device,
        substrate=abc,
        ready=Attribute(device, frozenset({"*"}), name="ready"),
        halt_flag=singleton(abc, "c"),
        joint_step={("*", s): ("*", s) for s in abc.states},
        max_steps=6,
    )
    assert accuracy(silent, Task(singleton(abc, "a"), singleton(abc, "b"))) is None


def test_performs_implies_zero_accuracy(abc):
    for action in (
        {"a": "b", "b": "a", "c": "c"},
        {"a": "b", "b": "c", "c": "a"},
        {s: s for s in abc.states},
    ):
        w = wrap_permutation(abc, action)
        t = Task(singleton(abc, "a"), singleton(abc, action["a"]))
        assert verify_witness(w, t).performs
        assert accuracy(w, t) == 0.0


# verify and accuracy against the step loop they replace ------------------------


def in_state_order(attr):
    return [s for s in attr.substrate.states if s in attr.members]


def flag_raised(w, state):
    return (state[0] if w.halt_on == "device" else state[1]) in w.halt_flag.members


def loop_verify(w, t):
    """Oracle: step the joint map from each run, watching halt, output and return to ready."""
    halt_steps = {}
    for r in in_state_order(w.ready):
        for sigma in in_state_order(t.input):
            state, halt_at, cycled = (r, sigma), None, False
            for k in range(w.max_steps + 1):
                if halt_at is None and flag_raised(w, state):
                    halt_at = k
                    if state[1] not in t.output.members:
                        return VerifyReport("wrong output", (r, sigma), halt_steps, w.halt_on)
                if halt_at is not None and state[0] in w.ready.members:
                    cycled = True
                    break
                state = w.joint.step[state]
            if halt_at is None:
                return VerifyReport("timeout", (r, sigma), halt_steps, w.halt_on)
            if not cycled:
                return VerifyReport("cycle broken", (r, sigma), halt_steps, w.halt_on)
            halt_steps[(r, sigma)] = halt_at
    return VerifyReport(None, None, halt_steps, w.halt_on)


def loop_accuracy(w, t):
    """Oracle: step the joint map from each run to its first raise within max_steps."""
    worst = 0.0
    for r in in_state_order(w.ready):
        for sigma in in_state_order(t.input):
            state, halt_state = (r, sigma), None
            for _ in range(w.max_steps + 1):
                if flag_raised(w, state):
                    halt_state = state
                    break
                state = w.joint.step[state]
            if halt_state is None:
                return None
            worst = max(worst, _distance(w.substrate, halt_state[1], t.output.members))
    return worst


def small_witness_parts(nd, ns):
    """The arguments of every witness on a |D| = nd device and an |S| = ns substrate.

    One per joint bijection, non-empty ready set, halt flag (any subset of
    the device or of the substrate) and budget from 0 to nd·ns + 1.
    """
    dev = cyclic_substrate("D", tuple(range(nd)))
    sub = cyclic_substrate("S", ("c", "a", "d", "b")[:ns])
    space = [(d, s) for d in dev.states for s in sub.states]
    flags = [Attribute(dev, m) for m in subsets(dev.states)]
    flags += [Attribute(sub, m) for m in subsets(sub.states)]
    for image in permutations(space):
        step = dict(zip(space, image))
        for ready in subsets(dev.states)[1:]:
            for flag in flags:
                for budget in range(nd * ns + 2):
                    yield dev, sub, Attribute(dev, ready), flag, step, budget


# (1, 4) and (4, 1) check every 11th witness, a stride prime to the counts of budgets and flags
@pytest.mark.parametrize(
    "nd, ns, stride",
    [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 3, 1), (3, 1, 1), (2, 2, 1), (1, 4, 11), (4, 1, 11)],
)
def test_verify_and_accuracy_match_the_step_loop_on_small_witnesses(nd, ns, stride):
    parts = islice(small_witness_parts(nd, ns), 0, None, stride)
    witnesses = [ConstructorWitness(*args) for args in parts]
    sub = witnesses[0].substrate
    members = subsets(sub.states)
    tasks = [Task(Attribute(sub, i), Attribute(sub, o)) for i in members for o in members]
    reasons = set()
    for w in witnesses:
        for t in tasks:
            report, want = verify_witness(w, t), loop_verify(w, t)
            assert report == want, (w.joint.step, w.ready, w.halt_flag, w.max_steps, t)
            assert report.performs == want.performs == (want.failing_run is None)
            assert accuracy(w, t) == loop_accuracy(w, t), (w.joint.step, w.ready, w.halt_flag, t)
            reasons.add(report.reason)
    assert {"timeout", "wrong output", None} <= reasons
    assert ("cycle broken" in reasons) == (nd > 1)


def test_joint_step_that_is_not_a_bijection_rejected(abc):
    device = Substrate("d1", ("*",), {"*": "*"})
    ready = Attribute(device, frozenset({"*"}), name="ready")
    merged = {("*", s): ("*", "a") for s in abc.states}
    partial = {("*", "a"): ("*", "a")}
    for step in (merged, partial):
        with pytest.raises(ModelError, match="joint step is not a bijection on device × substrate"):
            ConstructorWitness(device, abc, ready, singleton(abc, "a"), step, 4)


def test_witness_arguments_rejected(abc):
    device = Substrate("d1", ("*",), {"*": "*"})
    ready = Attribute(device, frozenset({"*"}), name="ready")
    step = {("*", s): ("*", s) for s in abc.states}
    elsewhere = identity_substrate("XY", ("x", "y"))
    cases = [
        ((abc, abc, singleton(abc, "a"), singleton(abc, "a"), {}, 4), "must be distinct instances"),
        ((device, abc, singleton(abc, "a"), singleton(abc, "a"), step, 4), "ready must be an"),
        ((device, abc, Attribute(device, frozenset()), singleton(abc, "a"), step, 4), "non-empty"),
        ((device, abc, ready, singleton(elsewhere, "x"), step, 4), "of the device or of the"),
        ((device, abc, ready, singleton(abc, "a"), step, -1), "max_steps must be non-negative"),
    ]
    for args, message in cases:
        with pytest.raises(ModelError, match=message):
            ConstructorWitness(*args)


def test_a_task_on_another_substrate_is_rejected(abc):
    other = identity_substrate("ABC2", abc.states)
    task = Task(singleton(other, "a"), singleton(other, "b"))
    for run in (verify_witness, accuracy):
        with pytest.raises(ModelError, match="task is not on this witness's substrate"):
            run(flip_witness(abc), task)


# reliability -------------------------------------------------------------------


def drifting_counter(offsets):
    """Approximate constructor whose threshold drifts by offsets[k] at reuse k."""
    base_spec = make_counter_timer(4, 5)

    def drift(base, k):
        t = max(1, 5 + offsets[min(k, len(offsets) - 1)])
        return timer_witness(make_counter_timer(4, t, substrate=base_spec.substrate))

    return ApproximateConstructor(timer_witness(base_spec), drift), base_spec


def test_zero_drift_reliability_constant():
    spec = make_counter_timer(4, 5)
    approx = ApproximateConstructor(timer_witness(spec))
    seq = reliability(approx, duration_task(spec), 5)
    assert seq == (0.0,) * 5


def test_threshold_drift_gives_nondecreasing_error():
    offsets = [0, -1, -2, -3, -4, -5, -6, -7, -8, -9]
    approx, spec = drifting_counter(offsets)
    reference = make_counter_timer(4, 5)
    task = duration_task(spec, reference=reference)
    seq = reliability(approx, task, 10)
    # deviation k/16 until the threshold bottoms out at 1
    assert seq == (0.0, 1 / 16, 2 / 16, 3 / 16, 4 / 16, 4 / 16, 4 / 16, 4 / 16, 4 / 16, 4 / 16)
    assert all(b >= a for a, b in zip(seq, seq[1:]))


def test_self_cancelling_drift_has_period_two():
    offsets_by_parity = [0, -1]
    spec = make_counter_timer(4, 5)

    def drift(base, k):
        t = 5 + offsets_by_parity[k % 2]
        return timer_witness(make_counter_timer(4, t, substrate=spec.substrate))

    approx = ApproximateConstructor(timer_witness(spec), drift)
    seq = reliability(approx, duration_task(spec), 4)
    assert seq == (0.0, 1 / 16, 0.0, 1 / 16)


def test_reliability_requires_positive_reuse_count():
    spec = make_counter_timer(4, 5)
    with pytest.raises(ModelError):
        reliability(ApproximateConstructor(timer_witness(spec)), duration_task(spec), 0)


# possible in the limit -----------------------------------------------------------


def bitwidth_family(widths=(3, 4, 5, 6, 7)):
    entries = []
    tasks = []
    for bits in widths:
        spec = make_counter_timer(bits, 5)
        reference = make_counter_timer(bits, 6)
        entries.append((bits, timer_witness(spec)))
        tasks.append(duration_task(spec, reference=reference))
    return WitnessFamily(tuple(entries)), tasks


def test_bitwidth_family_possible_in_limit():
    family, tasks = bitwidth_family()
    report = check_possible_in_limit(family, tasks, tol=1e-2)
    assert report.established
    assert report.accuracies == (1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128)
    assert all(b < a for a, b in zip(report.accuracies, report.accuracies[1:]))


def test_constant_error_family_not_established():
    spec = make_counter_timer(4, 5)
    reference = make_counter_timer(4, 6)
    task = duration_task(spec, reference=reference)
    fam = WitnessFamily(tuple((k, timer_witness(spec)) for k in (1, 2, 3)))
    report = check_possible_in_limit(fam, task, tol=1e-2)
    assert not report.established
    assert report.accuracies == (1 / 16,) * 3


def test_exact_witness_constant_family_established_for_any_tol():
    spec = make_counter_timer(4, 5)
    fam = WitnessFamily(tuple((k, timer_witness(spec)) for k in (1, 2, 3)))
    for tol in (1e-9, 1e-3, 0.5):
        assert check_possible_in_limit(fam, duration_task(spec), tol=tol).established


def test_short_prefix_rejected():
    spec = make_counter_timer(4, 5)
    fam = WitnessFamily(((1, timer_witness(spec)), (2, timer_witness(spec))))
    with pytest.raises(ModelError, match="at least 3"):
        check_possible_in_limit(fam, duration_task(spec), tol=0.1)


@pytest.mark.parametrize("count", [2, 4])
def test_task_sequence_of_another_length_than_the_family_rejected(count):
    spec = make_counter_timer(4, 5)
    fam = WitnessFamily(tuple((k, timer_witness(spec)) for k in (1, 2, 3)))
    with pytest.raises(ModelError, match=f"{count} tasks for a family prefix of 3 witnesses"):
        check_possible_in_limit(fam, [duration_task(spec)] * count, tol=0.1)


def silent_witness(substrate):
    """A one-state device whose halt flag, on the substrate, is never raised."""
    device = Substrate("d1", ("*",), {"*": "*"})
    return ConstructorWitness(
        device=device,
        substrate=substrate,
        ready=Attribute(device, frozenset({"*"}), name="ready"),
        halt_flag=Attribute(substrate, frozenset()),
        joint_step={("*", s): ("*", substrate.step[s]) for s in substrate.states},
        max_steps=4,
    )


def test_limit_not_established_names_its_reason():
    drifting, spec = drifting_counter([0, -1])
    exact, silent, task = drifting.base, silent_witness(spec.substrate), duration_task(spec)
    never = WitnessFamily(((1, exact), (2, silent), (3, exact)))
    report = check_possible_in_limit(never, task, tol=0.1)
    assert report == (False, (0.0, None, 0.0), None, "some witness never halts")

    # thresholds ever further below the reference's 8
    specs = [make_counter_timer(4, t) for t in (7, 6, 5)]
    rising = WitnessFamily(tuple((k, timer_witness(c)) for k, c in enumerate(specs, 1)))
    tasks = [duration_task(c, reference=make_counter_timer(4, 8)) for c in specs]
    report = check_possible_in_limit(rising, tasks, tol=0.5)
    assert report == (False, (1 / 16, 2 / 16, 3 / 16), None, "accuracy sequence increases")

    stops = ApproximateConstructor(exact, lambda base, k: silent if k else base)
    report = check_possible_in_limit(WitnessFamily(((1, exact), (2, exact), (3, stops))), task, 0.1)
    assert report == (False, (0.0,) * 3, None, "witness 3 stops halting on reuse")

    worn = WitnessFamily(((1, exact), (2, drifting), (3, exact)))
    report = check_possible_in_limit(worn, task, tol=0.01)
    assert report == (False, (0.0,) * 3, 1 / 16, "witness 2 deteriorates beyond tol")


def test_family_indices_strictly_increasing():
    spec = make_counter_timer(4, 5)
    with pytest.raises(ModelError, match="increasing"):
        WitnessFamily(((2, timer_witness(spec)), (2, timer_witness(spec))))


# search ---------------------------------------------------------------------------


def test_search_finds_single_flip(abc):
    res = search_impossibility(
        [Task(singleton(abc, "a"), singleton(abc, "b")),
         Task(singleton(abc, "b"), singleton(abc, "a"))]
    )
    assert res.found
    assert res.action == {"a": "b", "b": "a", "c": "c"}
    assert verify_witness(res.witness, Task(singleton(abc, "a"), singleton(abc, "b"))).performs


def test_search_rejects_no_pairs_and_pairs_on_two_substrates(abc):
    other = identity_substrate("ABC2", abc.states)
    with pytest.raises(ModelError, match="no task pairs given"):
        search_impossibility([])
    mixed = [Task(singleton(s, "a"), singleton(s, "b")) for s in (abc, other)]
    with pytest.raises(ModelError, match="all task pairs must live on one substrate"):
        search_impossibility(mixed)


def test_search_identity_witness_first(abc):
    res = search_impossibility(Task(singleton(abc, "a"), singleton(abc, "a")))
    assert res.found
    assert res.action == {s: s for s in abc.states}


def test_search_certificate_counts_whole_space(abc):
    # no bijection can merge two states into one
    merged = search_impossibility(
        Task(Attribute(abc, frozenset({"a", "b"})), singleton(abc, "c"))
    )
    assert not merged.found
    assert merged.witness is None


def random_pairs(rng, substrate, count):
    states = substrate.states
    return [
        Task(
            Attribute(substrate, frozenset(rng.sample(states, rng.randint(0, len(states))))),
            Attribute(substrate, frozenset(rng.sample(states, rng.randint(1, len(states))))),
        )
        for _ in range(count)
    ]


def test_search_serves_substrates_past_six_states():
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(30):
        n = rng.randint(7, 64)
        sub = identity_substrate(f"S{n}", tuple(f"q{i}" for i in range(n)))
        (single,) = random_pairs(rng, sub, 1)
        assert search_impossibility(single).found == permutation_possible(single)
        pairs = random_pairs(rng, sub, rng.randint(1, 3))
        res = search_impossibility(pairs)
        outcomes.add(res.found)
        if res.found:
            assert sorted(res.action) == sorted(res.action.values()) == sorted(sub.states)
            for t in pairs:
                assert all(res.action[s] in t.output.members for s in t.input.members)
    assert outcomes == {True, False}
    labels = tuple(f"q{i}" for i in range(7))
    members = [identity_substrate(f"M{m}", labels) for m in range(2)]
    ins = [singleton(members[0], "q0"), singleton(members[1], "q1")]
    outs = [singleton(members[0], "q1"), singleton(members[1], "q2")]
    res = uniform_possibility(members, ins, outs)
    assert res.kind == "uniformly-possible"
    assert res.action["q0"] == "q1" and res.action["q1"] == "q2"


def test_search_soundness_random_sampling(abc):
    """A no-witness certificate survives 100 random candidate probes."""
    pairs = [Task(Attribute(abc, frozenset({"a", "b"})), singleton(abc, "c"))]
    res = search_impossibility(pairs)
    assert not res.found
    rng = random.Random(20260809)
    states = list(abc.states)
    for _ in range(100):
        image = states[:]
        rng.shuffle(image)
        action = dict(zip(states, image))
        w = wrap_permutation(abc, action)
        assert not all(
            verify_witness(w, t).performs for t in pairs
        )


def test_search_deterministic(abc):
    t = [Task(singleton(abc, "a"), singleton(abc, "b"))]
    first = search_impossibility(t)
    second = search_impossibility(t)
    assert first.action == second.action
    assert repr(first.action) == repr(second.action)


# search against the enumeration it replaces ------------------------------------------


def enumerate_first_hit(states, pairs):
    """Oracle: walk itertools.permutations(states) to the first action realizing every pair."""
    for image in permutations(states):
        action = dict(zip(states, image))
        if all(action[s] in t.output.members for t in pairs for s in t.input.members):
            return action
    return None


def assert_search_matches_oracle(pairs):
    action = enumerate_first_hit(pairs[0].substrate.states, pairs)
    res = search_impossibility(pairs)
    assert (res.found, res.action) == (action is not None, action)


def subsets(states):
    return [
        frozenset(s for k, s in enumerate(states) if mask >> k & 1)
        for mask in range(2 ** len(states))
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_search_matches_enumeration_on_every_small_task(n):
    # labels out of sorted order, so a scan by label instead of by state order shows
    sub = identity_substrate("S", ("c", "a", "d", "b")[:n])
    for ins in subsets(sub.states):
        for outs in subsets(sub.states):
            assert_search_matches_oracle([Task(Attribute(sub, ins), Attribute(sub, outs))])


def test_permutation_possible_matches_search_on_every_pair_up_to_six_states():
    checked = 0
    for n in range(1, 7):
        sub = identity_substrate("S", ("f", "c", "a", "e", "d", "b")[:n])
        for ins in subsets(sub.states):
            for outs in subsets(sub.states):
                t = Task(Attribute(sub, ins), Attribute(sub, outs))
                assert permutation_possible(t) == search_impossibility(t).found, t
                checked += 1
    assert checked == 5460


@st.composite
def conjunctive_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    labels = tuple(draw(st.permutations([f"q{i}" for i in range(n)])))
    sub = identity_substrate("R", labels)
    members = st.frozensets(st.sampled_from(labels))
    count = draw(st.integers(min_value=1, max_value=3))
    return [
        Task(Attribute(sub, draw(members)), Attribute(sub, draw(members))) for _ in range(count)
    ]


@settings(max_examples=300, deadline=None)
@given(conjunctive_pairs())
def test_search_matches_enumeration_on_conjunctive_pairs(pairs):
    assert_search_matches_oracle(pairs)


def random_family(rng):
    n = rng.randint(1, 5)
    labels = [f"q{i}" for i in range(n)]
    members, ins, outs = [], [], []
    for m in range(rng.randint(2, 3)):
        rng.shuffle(labels)
        member = identity_substrate(f"M{m}", tuple(labels))
        picks = [
            (
                Attribute(member, frozenset(rng.sample(labels, rng.randint(0, n)))),
                Attribute(member, frozenset(rng.sample(labels, rng.randint(1, n)))),
            )
            for _ in range(rng.randint(1, 2))
        ]
        members.append(member)
        ins.append([i for i, _ in picks])
        outs.append([o for _, o in picks])
    return members, ins, outs


def test_uniform_possibility_matches_enumeration():
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(400):
        members, ins, outs = random_family(rng)
        tasks = [[Task(i, o) for i, o in zip(i_s, o_s)] for i_s, o_s in zip(ins, outs)]
        action = enumerate_first_hit(members[0].states, [t for ts in tasks for t in ts])
        if action is not None:
            expected = ("uniformly-possible", action, (action,) * len(members))
        else:
            member_actions = tuple(
                enumerate_first_hit(member.states, ts) for member, ts in zip(members, tasks)
            )
            pointwise = all(a is not None for a in member_actions)
            kind = "pointwise-only" if pointwise else "impossible"
            expected = (kind, None, member_actions)
        res = uniform_possibility(members, ins, outs)
        assert (res.kind, res.action, res.member_actions) == expected
        kinds.add(res.kind)
    assert kinds == {"uniformly-possible", "pointwise-only", "impossible"}


def test_uniform_possibility_argument_errors(abc):
    twin = identity_substrate("ABC2", abc.states)
    other = identity_substrate("AB", ("a", "b"))
    a, b = singleton(abc, "a"), singleton(abc, "b")
    ta, tb = singleton(twin, "a"), singleton(twin, "b")
    oa, ob = singleton(other, "a"), singleton(other, "b")
    cases = [
        (([abc, twin], [a], [b, tb]), "per-member attribute lists must match the family length"),
        (([abc, other], [a, oa], [b, ob]), "family members must share one state-label set"),
        (([abc, twin], [a, [ta, tb]], [b, [tb]]), "input and output attribute lists differ"),
        (([abc, twin], [a, a], [b, b]), "attributes must live on their own family member"),
    ]
    for args, message in cases:
        with pytest.raises(ModelError, match=message):
            uniform_possibility(*args)


# equality and hashing --------------------------------------------------------


def test_witnesses_equal_only_themselves_and_reports_compare_by_value(abc):
    w = flip_witness(abc)
    assert w.raised == {(1, s) for s in abc.states}
    assert w.ready_states == {(0, s) for s in abc.states}
    twin = flip_witness(abc)
    assert_same_value(w, w)
    assert_distinct(w, twin)
    approx = ApproximateConstructor(w)
    family = WitnessFamily(((0, w), (1, approx)))
    assert family.entries[1][1] is approx and family.entries[0][1].base is w
    assert_distinct(approx, ApproximateConstructor(w))
    task = Task(singleton(abc, "a"), singleton(abc, "b"))
    report = verify_witness(w, task)
    assert report == verify_witness(twin, task)
    assert report == VerifyReport(None, None, {(0, "a"): 1}, "device") and report.performs
    assert_slotted(w, approx, family, report)
