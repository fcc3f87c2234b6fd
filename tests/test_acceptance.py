"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a single PASS line on success (run with -s to see them);
a failed assertion marks the criterion FAILED.  Runtime bounds are part of
the criteria and asserted where stated.
"""

import math
import random
import time

import pytest

from ctm import (
    Derived,
    LawSet,
    ModelError,
    NullTask,
    Possibility,
    Task,
    WitnessFamily,
    check_possible_in_limit,
    check_simultaneous_halt,
    check_staggered_halt,
    check_synchrony,
    classify_timers,
    cyclic_substrate,
    deductive_closure,
    duration_task,
    estimate_derivative,
    identity_substrate,
    is_static,
    make_counter_timer,
    make_particle_timer,
    possible,
    search_impossibility,
    timer_witness,
    uniform_possibility,
    verify_witness,
)
from ctm.dsl import build_model, parse_model, pretty_print
from conftest import singleton
from test_dsl import FUZZ_ALPHABET, random_decl

OMEGA = 2 * math.pi / 64


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def timed(limit_s):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds {limit_s}s"
        return elapsed

    return check


def test_criterion_1_null_task_derivation():
    done = timed(1.0)
    s = cyclic_substrate("S4", ("s0", "s1", "s2", "s3"))
    a, b, c, d = (singleton(s, f"s{i}", name=n) for i, n in enumerate("abcd"))
    laws = LawSet.of(possible(Task(a, b)), possible(Task(c, d)))
    closed = deductive_closure(laws)
    nulls = [
        st
        for st in closed.statements
        if isinstance(st.task, NullTask) and st.status is Possibility.POSSIBLE
    ]
    assert len(nulls) == 1
    prov = nulls[0].provenance
    assert isinstance(prov, Derived) and prov.rule == "serial"
    assert len(prov.premises) == 2
    assert {p.task for p in prov.premises} == {Task(a, b), Task(c, d)}
    done()
    report(1, "null task derived from two disjoint possible laws with a 2-premise trace")


def test_criterion_2_duration_truth_table():
    done = timed(10.0)
    specs = [
        (bits, t, make_counter_timer(bits, t))
        for bits in range(3, 7)
        for t in range(2, 11)
        if t < 2**bits
    ]
    pairs = exceptions = 0
    for _, t1, c1 in specs:
        for _, t2, c2 in specs:
            pairs += 1
            cohalt = check_simultaneous_halt(c1, c2)
            if cohalt != (t1 == t2):
                exceptions += 1
            if t1 < t2:
                if not check_staggered_halt(c1, c2):
                    exceptions += 1
            else:
                with pytest.raises(ModelError):
                    check_staggered_halt(c1, c2)
    assert exceptions == 0
    elapsed = done()
    report(2, f"{pairs} counter pairs: staggered iff faster, co-halt iff equal ({elapsed:.1f}s)")


def build_random_catalog(rng):
    catalog = []
    for i in range(12):
        duration = rng.choice((2, 3, 4, 5, 5, 6, 7, 8))
        if rng.random() < 0.5:
            bits = rng.randrange(max(3, (duration + 1).bit_length()), 7)
            catalog.append(make_counter_timer(bits, duration, name=f"c{i:02d}"))
        else:
            speed = rng.choice((1, 2))
            catalog.append(
                make_particle_timer(64, speed, speed * duration, name=f"p{i:02d}")
            )
    return catalog


def test_criterion_3_equivalence_classes():
    rng = random.Random(20260809)
    catalog = build_random_catalog(rng)
    n = len(catalog)
    rel = {
        (i, j): check_simultaneous_halt(catalog[i], catalog[j])
        for i in range(n)
        for j in range(n)
    }
    for i in range(n):
        assert rel[(i, i)], "reflexivity"
        for j in range(n):
            assert rel[(i, j)] == rel[(j, i)], "symmetry"
            for k in range(n):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)], "transitivity"
    baseline = [
        (cls.duration, tuple(m.name for m in cls.members))
        for cls in classify_timers(catalog)
    ]
    assert sum(len(m) for _, m in baseline) == n  # a partition
    assert len({name for _, ms in baseline for name in ms}) == n
    for shuffle in range(100):
        shuffled = catalog[:]
        random.Random(shuffle).shuffle(shuffled)
        result = [
            (cls.duration, tuple(m.name for m in cls.members))
            for cls in classify_timers(shuffled)
        ]
        assert result == baseline
    report(3, f"12-timer catalog partitions into {len(baseline)} classes, stable over 100 shuffles")


def test_criterion_4_uniform_flip_family():
    done = timed(1.0)
    m1 = identity_substrate("M1", ("a", "b", "c"))
    m2 = identity_substrate("M2", ("a", "b", "c"))
    z1, o1 = singleton(m1, "a", "0"), singleton(m1, "b", "1")
    z2, o2 = singleton(m2, "b", "0"), singleton(m2, "c", "1")
    res = uniform_possibility([m1, m2], [[z1, o1], [z2, o2]], [[o1, z1], [o2, z2]])
    assert res.kind == "pointwise-only"
    each = [
        search_impossibility([Task(z1, o1), Task(o1, z1)]),
        search_impossibility([Task(z2, o2), Task(o2, z2)]),
    ]
    assert all(r.found for r in each)
    assert each[0].action == {"a": "b", "b": "a", "c": "c"}
    assert each[1].action == {"a": "a", "b": "c", "c": "b"}
    done()
    report(4, "flip family pointwise-only: none of the 6 bijections serves both; each member found")


def test_criterion_5_static_attribute_vs_external_constructor(models_dir):
    model = build_model(parse_model((models_dir / "degenerate.ctm").read_text())[0])
    x, y = model.attributes["x"], model.attributes["y"]
    assert is_static(x)
    res = search_impossibility(Task(x, y))
    assert res.found
    assert verify_witness(res.witness, Task(x, y)).performs
    report(5, "static singleton under isolation, yet an external constructor performs x -> y")


def test_criterion_6_recurrence_and_static_horizon():
    from ctm import recurrence_horizon

    for bits in range(3, 9):
        size = 2**bits
        for t in range(2, min(11, size)):
            spec = make_counter_timer(bits, t)
            assert recurrence_horizon(spec) == size
            assert spec.static_horizon == size - t - 1
    report(6, "counter recurrence = 2^N and completed-static horizon = 2^N - T - 1, N in 3..8")


def test_criterion_7_synchrony_of_shipped_timers(models_dir):
    checked = 0
    for path in sorted(models_dir.glob("*.ctm")):
        built = build_model(parse_model(path.read_text())[0])
        for spec in built.timers.values():
            assert check_synchrony(spec), f"{path.name}:{spec.name}"
            checked += 1
    assert checked >= 8
    report(7, f"{checked} shipped timers: twins prepared in the starting attribute co-halt")


def test_criterion_8_dynamics_recovery(models_dir):
    done = timed(5.0)
    rotation = build_model(parse_model((models_dir / "rotation.ctm").read_text())[0])
    theta = rotation.trajectories["theta"]
    timers = {spec.duration: spec for spec in rotation.timers.values()}
    est = estimate_derivative(theta, 0, [8, 4, 2, 1], timers=timers)
    assert abs(est.extrapolated - OMEGA) / OMEGA < 0.05
    assert 0.8 <= est.order <= 1.2
    linear = build_model(parse_model((models_dir / "linear.ctm").read_text())[0])
    pos = linear.trajectories["pos"]
    est_lin = estimate_derivative(pos, 0, [8, 4, 2, 1])
    assert est_lin.ratios == (1.0, 1.0, 1.0, 1.0)
    done()
    report(
        8,
        f"rotation derivative {est.extrapolated:.5f} within 5% of {OMEGA:.5f}, "
        f"order {est.order:.2f}; linear ratios exactly constant",
    )


def test_criterion_9_possible_in_the_limit():
    entries = []
    tasks = []
    for bits in (3, 4, 5, 6, 7):
        spec = make_counter_timer(bits, 5)
        reference = make_counter_timer(bits, 6)
        entries.append((bits, timer_witness(spec)))
        tasks.append(duration_task(spec, reference=reference))
    fam = WitnessFamily(tuple(entries))
    limit = check_possible_in_limit(fam, tasks, tol=1e-2)
    assert limit.established
    assert all(b < a for a, b in zip(limit.accuracies, limit.accuracies[1:]))
    assert limit.accuracies[-1] < 1e-2

    const_spec = make_counter_timer(4, 5)
    const_task = duration_task(const_spec, reference=make_counter_timer(4, 6))
    const = check_possible_in_limit(
        WitnessFamily(tuple((k, timer_witness(const_spec)) for k in (1, 2, 3))),
        const_task,
        tol=1e-2,
    )
    assert not const.established
    report(9, f"bit-width family certified at tol 1e-2 (errors {limit.accuracies}); constant family not")


def test_criterion_10_dsl_round_trip_and_fuzz(models_dir):
    shipped = sorted(models_dir.glob("*.ctm"))
    assert len(shipped) >= 5
    for path in shipped:
        parsed, diags = parse_model(path.read_text())
        assert parsed is not None, (path, diags)
        assert parse_model(pretty_print(parsed)) == (parsed, []), path

    rng = random.Random(31337)
    for _ in range(1000):
        decl = random_decl(rng)
        printed = pretty_print(decl)
        assert parse_model(printed) == (decl, [])

    fuzz_rng = random.Random(0xC0FFEE)
    corpus = [p.read_text() for p in shipped]
    crashes = 0
    for i in range(100_000):
        if i % 2 == 0:
            text = "".join(
                fuzz_rng.choice(FUZZ_ALPHABET) for _ in range(fuzz_rng.randrange(0, 40))
            )
        else:
            base = fuzz_rng.choice(corpus)
            cut = fuzz_rng.randrange(0, len(base))
            junk = "".join(
                fuzz_rng.choice(FUZZ_ALPHABET) for _ in range(fuzz_rng.randrange(0, 8))
            )
            text = base[: cut] + junk + base[cut + fuzz_rng.randrange(0, 40) :]
        try:
            parse_model(text)
        except Exception:  # noqa: BLE001 - the property under test is "never raises"
            crashes += 1
    assert crashes == 0
    report(10, "round trip on shipped + 1000 generated models; 100k fuzz inputs, zero crashes")
