import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctm import (
    AdvanceCheckFailed,
    Attribute,
    ModelError,
    TrajectoryModel,
    Variable,
    cyclic_substrate,
    estimate_derivative,
    incremental_ratio,
    make_counter_timer,
)
from ctm.dynamics import _ols
from conftest import (
    LAMBDA_PROBES,
    MIXED_LAMBDAS,
    assert_distinct,
    assert_same_value,
    assert_slotted,
    singleton,
)

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


def advances(model, timer, lam):
    """Whether incremental_ratio verifies the advance from λ over the timer's duration."""
    try:
        incremental_ratio(model, lam, timer.duration, timer)
    except AdvanceCheckFailed:
        return False
    return True


def stepped_advance(model, lam, d):
    """Oracle: every state of a non-empty v(λ) lies in v(λ + d) after d steps of the step map."""
    start = model.variable.attribute(lam).members
    target = model.variable.attribute(lam + d).members
    reached = []
    for state in start:
        for _ in range(d):
            state = model.substrate.step[state]
        reached.append(state)
    return bool(start) and all(state in target for state in reached)


def test_advance_check_true_for_matching_target(linear_model):
    timer = make_counter_timer(4, 4)
    assert advances(linear_model, timer, 3)


def test_advance_check_false_for_wrong_target():
    ring = cyclic_substrate("ring16", tuple(range(16)))
    var = Variable(
        ring,
        {0: singleton(ring, 3, "x"), 4: singleton(ring, 8, "x'")},  # 8, not 7
    )
    model = TrajectoryModel(var, {0: 0.0, 4: 4.0})
    assert not advances(model, make_counter_timer(4, 4), 0)


def test_no_advance_leaves_a_static_entry():
    # an empty entry is static too; an advance from it must not hold vacuously
    ring = cyclic_substrate("ring8", tuple(range(8)))
    var = Variable(
        ring,
        {0: Attribute(ring, frozenset()), 1: singleton(ring, 1), 2: singleton(ring, 2)},
    )
    model = TrajectoryModel(var, {0: 0.0, 1: 5.0, 2: 6.0})
    assert not advances(model, make_counter_timer(3, 1), 0)
    with pytest.raises(AdvanceCheckFailed):
        incremental_ratio(model, 0, 1)
    assert advances(model, make_counter_timer(3, 1), 1)


def test_advance_outside_domain_rejected(linear_model):
    with pytest.raises(ModelError, match="domain"):
        advances(linear_model, make_counter_timer(4, 9), 8)


def test_zero_step_rejected(linear_model):
    with pytest.raises(ModelError, match="positive"):
        incremental_ratio(linear_model, 0, 0)


def test_advance_transitivity(linear_model, sine_model):
    for model in (linear_model, sine_model):
        for lam, d1, d2 in ((0, 2, 3), (1, 1, 4), (2, 4, 2)):
            assert advances(model, make_counter_timer(5, d1), lam)
            assert advances(model, make_counter_timer(5, d2), lam + d1)
            assert advances(model, make_counter_timer(5, d1 + d2), lam)


def test_ideal_advance_check_agrees_with_counter_timers():
    # each entry λ of a 4-entry variable on an 8-ring is {λ}, the misaligned {λ + 4},
    # the empty {} or {λ, λ + 4}: 256 variables, each advance checked without a timer
    # and against counter timers of three widths
    ring = cyclic_substrate("ring8", tuple(range(8)))
    choices = [lambda k: {k}, lambda k: {k + 4}, lambda k: set(), lambda k: {k, k + 4}]
    widths = {d: max(3, (2 * d + 1).bit_length()) for d in (1, 2, 3)}
    counters = {
        d: [make_counter_timer(bits, d) for bits in range(low, low + 3)]
        for d, low in widths.items()
    }
    outcomes = set()
    for picks in itertools.product(choices, repeat=4):
        entries = {k: Attribute(ring, frozenset(pick(k))) for k, pick in enumerate(picks)}
        model = TrajectoryModel(Variable(ring, entries), {k: float(k) for k in range(4)})
        for lam, d in ((lam, d) for lam in range(3) for d in range(1, 4 - lam)):
            want = stepped_advance(model, lam, d)
            try:
                incremental_ratio(model, lam, d)
                ideal = True
            except AdvanceCheckFailed:
                ideal = False
            assert ideal == want
            assert [advances(model, t, lam) for t in counters[d]] == [want] * 3
            outcomes.add(want)
    assert outcomes == {True, False}


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


def test_a_step_that_is_not_whole_is_refused_not_truncated(linear_model):
    with pytest.raises(ModelError, match="Δλ must be a whole number of steps in this model"):
        estimate_derivative(linear_model, 0, [8, 4, 2.5])
    with pytest.raises(ModelError, match="Δλ must be a whole number of steps in this model"):
        incremental_ratio(linear_model, 0, 2.5)


def test_steps_that_round_to_one_float_are_a_degenerate_schedule():
    # a pointer on a 5-cycle: 2**60 is 1 mod 5, so the four entries are distinct cells
    ring = cyclic_substrate("ring5", tuple(range(5)))
    schedule = [2**60 + 2, 2**60 + 1, 2**60]
    var = Variable(ring, {k: singleton(ring, k % 5) for k in (0, *schedule)})
    model = TrajectoryModel(var, {k: float(k) for k in var.domain})
    with pytest.raises(ModelError, match="degenerate schedule: all step sizes equal"):
        estimate_derivative(model, 0, schedule)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**6).map(float),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        min_size=2,
        max_size=12,
        unique_by=lambda point: point[0],
    ),
    st.randoms(use_true_random=False),
)
def test_a_fit_does_not_depend_on_the_order_of_its_points(points, rng):
    # correctly rounded sums, so one result on every interpreter: sum() of floats
    # rounds differently from Python 3.12 on, and depends on the order
    fit = _ols(*zip(*points))
    for order in (points[::-1], rng.sample(points, len(points))):
        assert _ols(*zip(*order)) == fit


def test_estimate_accepts_model_timers(sine_model):
    timers = {d: make_counter_timer(5, d) for d in (8, 4, 2, 1)}
    est = estimate_derivative(sine_model, 0, [8, 4, 2, 1], timers=timers)
    assert abs(est.extrapolated - OMEGA) / OMEGA < 0.05


def test_estimate_names_a_schedule_step_without_a_timer(linear_model):
    timers = {4: make_counter_timer(4, 4)}
    with pytest.raises(ModelError, match="no timer for Δλ = 2"):
        estimate_derivative(linear_model, 0, [4, 2, 1], timers=timers)


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


def test_missing_readings_are_listed_as_canonical_values():
    ring = cyclic_substrate("ring8", tuple(range(8)))
    entries = {0: singleton(ring, 0), Fraction(3): singleton(ring, 3), "5/2": singleton(ring, 5)}
    var = Variable(ring, entries)
    with pytest.raises(ModelError) as err:
        TrajectoryModel(var, {0: 0.0})
    assert str(err.value) == "readings missing for parameters [Fraction(5, 2), 3]"


# each key type gives one table -----------------------------------------------------

# parameter values in file order, not domain order: whole ones, and whole and halves
WHOLE = (6, 0, 4, 12, 2, 10)
HALVES = (Fraction(5, 2), 0, 4, Fraction(1, 2), 2, Fraction(3, 2))
# each key type, as a function of a canonical value and its position in the file
KEY_TYPES = {
    "int": lambda q, i: int(q),
    "fraction": lambda q, i: Fraction(q),
    "str": lambda q, i: str(q),
    "mixed": lambda q, i: (Fraction(q), str(q), q)[i % 3],
}
RING16 = cyclic_substrate("ring16", tuple(range(16)))
CELLS = [singleton(RING16, c) for c in range(16)]


def typed_model(key_type, lams):
    """The trajectory with λ = lams[i] at CELLS[i] and reading i, keyed by `key_type`."""
    form = KEY_TYPES[key_type]
    entries = {form(q, i): CELLS[i] for i, q in enumerate(lams)}
    return TrajectoryModel(
        Variable(RING16, entries), {form(q, i): float(i) for i, q in enumerate(lams)}
    )


@pytest.mark.parametrize("lams", [WHOLE, HALVES], ids=["whole", "halves"])
def test_every_key_type_gives_equal_entries_domain_and_readings(lams):
    key_types = [k for k in KEY_TYPES if k != "int" or lams is WHOLE]
    models = [typed_model(k, lams) for k in key_types]
    canonical = [q.numerator if q.denominator == 1 else q for q in map(Fraction, lams)]
    for model in models:
        var = model.variable
        assert var.domain == tuple(sorted(canonical))
        assert var.entries == dict(zip(canonical, CELLS))
        assert model.readings == {q: float(i) for i, q in enumerate(canonical)}
        # in file order, whole values as ints and the others as Fractions
        for table in (var.entries, model.readings):
            assert list(table) == canonical
            assert [type(q) for q in table] == [type(q) for q in canonical]


# (λ in file order, cell of each or None for a cell of another ring, the message)
FAULTS = [
    # the first overlap in domain order is at 6 (in file order: 12) and at 3/2 (4)
    (WHOLE, (0, 1, 2, 1, 0, 3), "variable entry 6: attributes are not pairwise disjoint"),
    (HALVES, (0, 1, 0, 2, 3, 1), "variable entry 3/2: attributes are not pairwise disjoint"),
    # the first attribute of another ring in domain order is at 4 (6) and at 2 (5/2)
    (WHOLE, (None, 1, None, 3, 0, 5), "variable entry 4: attribute on a different substrate"),
    (HALVES, (None, 1, 2, 3, None, 5), "variable entry 2: attribute on a different substrate"),
    # whichever fault comes first in domain order is named, not the first in file order
    (WHOLE, (0, 1, None, 3, 1, 4), "variable entry 2: attributes are not pairwise disjoint"),
    (WHOLE, (0, 1, 0, 3, None, 4), "variable entry 2: attribute on a different substrate"),
]


@pytest.mark.parametrize(
    "key_type, lams, cells, message",
    # a half value has no int key
    [(k, *fault) for fault in FAULTS for k in KEY_TYPES if k != "int" or fault[0] is WHOLE],
)
def test_a_variable_fault_names_the_first_failing_value_in_domain_order(
    key_type, lams, cells, message
):
    form = KEY_TYPES[key_type]
    other = cyclic_substrate("ring16", tuple(range(16)))
    entries = {
        form(q, i): singleton(other, 15) if c is None else CELLS[c]
        for i, (q, c) in enumerate(zip(lams, cells))
    }
    with pytest.raises(ModelError) as caught:
        Variable(RING16, entries)
    assert str(caught.value) == message


# equality and hashing -------------------------------------------------------------


def test_trajectory_models_equal_only_themselves(linear_model):
    twin = TrajectoryModel(linear_model.variable, linear_model.readings)
    assert_same_value(linear_model, linear_model)
    assert_distinct(linear_model, twin)
    assert_slotted(linear_model)


def test_estimates_compare_by_value(sine_model):
    first = estimate_derivative(sine_model, 0, [4, 2, 1])
    assert_same_value(first, estimate_derivative(sine_model, 0, [4, 2, 1]))
    assert_distinct(first, estimate_derivative(sine_model, 1, [4, 2, 1]))
    assert_slotted(first)
