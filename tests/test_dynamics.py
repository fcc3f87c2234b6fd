import math
from fractions import Fraction

import numpy as np
import pytest

from ctm import (
    AdvanceCheckFailed,
    Attribute,
    ModelError,
    TimerClass,
    TrajectoryModel,
    Variable,
    check_timed_advance,
    cyclic_substrate,
    estimate_derivative,
    identity_substrate,
    incremental_ratio,
    make_counter_timer,
    recover_clock_pointer,
)
from conftest import LAMBDA_PROBES, MIXED_LAMBDAS, call_within, prime_cycle_substrate, singleton

OMEGA = 2 * math.pi / 64


def ring_model(size, readings, span=None):
    ring = cyclic_substrate(f"ring{size}", tuple(range(size)))
    span = span if span is not None else range(size // 2)
    var = Variable(ring, {k: singleton(ring, k, name=f"p{k}") for k in span})
    return TrajectoryModel(var, {k: readings(k) for k in span})


@pytest.fixture()
def linear_model():
    return ring_model(32, float, span=range(13))


@pytest.fixture()
def sine_model():
    return ring_model(64, lambda k: math.sin(OMEGA * k), span=range(17))


# timed advance -----------------------------------------------------------------


def test_advance_check_true_for_matching_target(linear_model):
    timer = make_counter_timer(4, 4)
    assert check_timed_advance(linear_model, timer, 3)


def test_advance_check_false_for_wrong_target():
    ring = cyclic_substrate("ring16", tuple(range(16)))
    var = Variable(
        ring,
        {0: singleton(ring, 3, "x"), 4: singleton(ring, 8, "x'")},  # 8, not 7
    )
    model = TrajectoryModel(var, {0: 0.0, 4: 4.0})
    assert not check_timed_advance(model, make_counter_timer(4, 4), 0)


def test_no_advance_leaves_a_static_entry():
    # an empty entry is static too; an advance from it must not hold vacuously
    ring = cyclic_substrate("ring8", tuple(range(8)))
    var = Variable(
        ring,
        {0: Attribute(ring, frozenset()), 1: singleton(ring, 1), 2: singleton(ring, 2)},
    )
    model = TrajectoryModel(var, {0: 0.0, 1: 5.0, 2: 6.0})
    assert not check_timed_advance(model, make_counter_timer(3, 1), 0)
    with pytest.raises(AdvanceCheckFailed):
        incremental_ratio(model, 0, 1)
    assert check_timed_advance(model, make_counter_timer(3, 1), 1)


def test_advance_outside_domain_rejected(linear_model):
    with pytest.raises(ModelError, match="domain"):
        check_timed_advance(linear_model, make_counter_timer(4, 9), 8)


def test_zero_step_rejected(linear_model):
    with pytest.raises(ModelError, match="positive"):
        incremental_ratio(linear_model, 0, 0)


def test_advance_transitivity(linear_model, sine_model):
    for model in (linear_model, sine_model):
        for lam, d1, d2 in ((0, 2, 3), (1, 1, 4), (2, 4, 2)):
            assert check_timed_advance(model, make_counter_timer(5, d1), lam)
            assert check_timed_advance(model, make_counter_timer(5, d2), lam + d1)
            assert check_timed_advance(model, make_counter_timer(5, d1 + d2), lam)


# incremental ratios -------------------------------------------------------------


def test_linear_ratio_is_exactly_one(linear_model):
    for lam in (0, 1, 5):
        for dlam in (1, 2, 4):
            assert incremental_ratio(linear_model, lam, dlam) == 1.0


def test_sine_ratio_matches_direct_evaluation(sine_model):
    # forward difference of sin at 0 over 4 steps
    expected = (math.sin(4 * OMEGA) - 0.0) / 4
    got = incremental_ratio(sine_model, 0, 4)
    assert got == pytest.approx(expected, abs=0)
    assert got == pytest.approx(0.09567085809127245)


def test_ratio_refused_when_advance_fails():
    ring = cyclic_substrate("ring16", tuple(range(16)))
    var = Variable(ring, {0: singleton(ring, 3, "x"), 4: singleton(ring, 9, "bad")})
    model = TrajectoryModel(var, {0: 0.0, 4: 1.0})
    with pytest.raises(AdvanceCheckFailed):
        incremental_ratio(model, 0, 4)


def test_ratio_requires_matching_timer_duration(linear_model):
    with pytest.raises(ModelError, match="duration"):
        incremental_ratio(linear_model, 0, 4, timer=make_counter_timer(4, 5))


# derivative estimation ------------------------------------------------------------


def test_linear_estimate_is_exact(linear_model):
    est = estimate_derivative(linear_model, 0, [8, 4, 2, 1])
    assert est.ratios == (1.0, 1.0, 1.0, 1.0)
    assert est.extrapolated == 1.0
    assert est.order is None
    assert all(r == 0.0 for r in est.residuals)


def test_sine_estimate_matches_numpy_fit(sine_model):
    schedule = [8, 4, 2, 1]
    est = estimate_derivative(sine_model, 0, schedule)
    ratios = [math.sin(OMEGA * d) / d for d in schedule]
    slope, intercept = np.polyfit(np.array(schedule, dtype=float), np.array(ratios), 1)
    assert est.extrapolated == pytest.approx(intercept, rel=1e-12)
    residuals = np.array(ratios) - intercept
    o_slope, _ = np.polyfit(np.log(np.array(schedule, dtype=float)), np.log(np.abs(residuals)), 1)
    assert est.order == pytest.approx(o_slope, rel=1e-9)
    assert abs(est.extrapolated - OMEGA) / OMEGA < 0.05
    assert 0.8 <= est.order <= 1.2


def test_sine_estimate_away_from_zero(sine_model):
    est = estimate_derivative(sine_model, 8, [8, 4, 2, 1])
    analytic = OMEGA * math.cos(OMEGA * 8)
    assert abs(est.extrapolated - analytic) / analytic < 0.05
    assert 0.8 <= est.order <= 1.2


def test_estimate_schedule_guards(linear_model):
    with pytest.raises(ModelError, match="at least 3"):
        estimate_derivative(linear_model, 0, [4, 2])
    with pytest.raises(ModelError, match="decreasing"):
        estimate_derivative(linear_model, 0, [4, 4, 2])
    with pytest.raises(ModelError, match="decreasing"):
        estimate_derivative(linear_model, 0, [4, 2, 0])


def test_estimate_accepts_model_timers(sine_model):
    timers = {d: make_counter_timer(5, d) for d in (8, 4, 2, 1)}
    est = estimate_derivative(sine_model, 0, [8, 4, 2, 1], timers=timers)
    assert abs(est.extrapolated - OMEGA) / OMEGA < 0.05


# pointer recovery -------------------------------------------------------------------


def reference_classes(durations=range(1, 9)):
    return [TimerClass(d, (make_counter_timer(5, d),)) for d in durations]


def test_drifting_pointer_maps_to_matching_durations(linear_model):
    rec = recover_clock_pointer(linear_model, reference_classes())
    for lam in range(1, 9):
        assert rec.mapping[Fraction(lam)] == lam
    assert rec.mapping[Fraction(0)] == 0
    assert set(rec.unmapped) == {Fraction(k) for k in range(9, 13)}
    assert rec.period == 32


def test_static_pointer_has_no_mappings_beyond_zero():
    frozen = identity_substrate("F", ("f0", "f1"))
    var = Variable(frozen, {0: singleton(frozen, "f0"), 1: singleton(frozen, "f1")})
    model = TrajectoryModel(var, {0: 0.0, 1: 1.0})
    rec = recover_clock_pointer(model, reference_classes())
    assert rec.mapping == {Fraction(0): 0}
    assert rec.unmapped == (Fraction(1),)


def test_short_period_pointer_reports_wrap():
    model = ring_model(16, float, span=range(16))
    rec = recover_clock_pointer(model, reference_classes())
    assert rec.period == 16
    assert set(rec.mapping) == {Fraction(k) for k in range(9)}
    assert set(rec.unmapped) == {Fraction(k) for k in range(9, 16)}


def test_pointer_recovery_on_prime_cycles_walks_each_start_once_around_its_cycle():
    # λ=0 holds one state on each prime cycle up to 29, whose recurrence period is
    # about 6.5e9; λ=2 lies on the 3-cycle alone, so the other starts never reach it
    ring = prime_cycle_substrate(29)
    cycles = ring.cycles
    var = Variable(
        ring,
        {
            0: Attribute(ring, frozenset(c[0] for c in cycles)),
            1: Attribute(ring, frozenset(c[1] for c in cycles)),
            2: singleton(ring, "c3_2"),
        },
    )
    model = TrajectoryModel(var, {0: 0.0, 1: 1.0, 2: 2.0})
    rec = call_within(20, recover_clock_pointer, model, reference_classes(range(1, 3)))
    assert rec.mapping == {0: 0, 1: 1}
    assert rec.unmapped == (2,)
    assert rec.period == math.prod(len(c) for c in cycles)


def test_pointer_recovery_needs_zero_entry():
    ring = cyclic_substrate("r8", tuple(range(8)))
    var = Variable(ring, {1: singleton(ring, 1)})
    model = TrajectoryModel(var, {1: 1.0})
    with pytest.raises(ModelError, match="λ = 0"):
        recover_clock_pointer(model, reference_classes())


# parameter values in mixed forms ------------------------------------------------


def mixed_model(form):
    """A 16-ring trajectory with λ = MIXED_LAMBDAS[i] at cell i, keys written by `form`."""
    ring = cyclic_substrate("ring16", tuple(range(16)))
    var = Variable(ring, {form(lam): singleton(ring, c) for c, lam in enumerate(MIXED_LAMBDAS)})
    readings = {form(lam): 10.0 * c for c, lam in enumerate(MIXED_LAMBDAS)}
    return TrajectoryModel(var, readings)


KEY_FORMS = [lambda lam: lam, Fraction, str]


@pytest.mark.parametrize("form", KEY_FORMS, ids=["mixed", "fraction", "str"])
def test_readings_match_a_fraction_keyed_reference(form):
    model = mixed_model(form)
    reference = {Fraction(lam): 10.0 * c for c, lam in enumerate(MIXED_LAMBDAS)}
    for lam in model.readings:
        assert type(lam) is (int if Fraction(lam).denominator == 1 else Fraction)
    for probe in LAMBDA_PROBES:
        want = reference.get(Fraction(probe))
        if want is not None:
            assert model.reading(probe) == want
        else:
            with pytest.raises(ModelError) as err:
                model.reading(probe)
            assert str(err.value) == f"no reading at parameter {probe}"


@pytest.mark.parametrize("form", KEY_FORMS, ids=["mixed", "fraction", "str"])
def test_pointer_recovery_matches_a_fraction_keyed_reference(form):
    # on a ring, v(0) first reaches v(λ) after the distance between their cells
    cells = {Fraction(lam): c for c, lam in enumerate(MIXED_LAMBDAS)}
    durations = range(1, 9)
    mapping, unmapped = {Fraction(0): 0}, []
    for lam in sorted(cells):
        if lam != 0:
            k = (cells[lam] - cells[Fraction(0)]) % 16
            if k in durations:
                mapping[lam] = k
            else:
                unmapped.append(lam)
    rec = recover_clock_pointer(mixed_model(form), reference_classes(durations))
    assert rec.mapping == mapping and rec.unmapped == tuple(unmapped)
    assert mapping and unmapped  # the reference exercises both outcomes


def test_missing_readings_are_listed_as_canonical_values():
    ring = cyclic_substrate("ring8", tuple(range(8)))
    entries = {0: singleton(ring, 0), Fraction(3): singleton(ring, 3), "5/2": singleton(ring, 5)}
    var = Variable(ring, entries)
    with pytest.raises(ModelError) as err:
        TrajectoryModel(var, {0: 0.0})
    assert str(err.value) == "readings missing for parameters [Fraction(5, 2), 3]"
