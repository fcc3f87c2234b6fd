"""Recovering derivatives from timed advance tasks.

A trajectory model attaches numeric readings to a variable's attributes.
The advance of the variable from one attribute to another is verified
against a timer (the pair must reach (next value, completed) exactly at
the timer's halt); only then is the forward-difference ratio of the
readings computed.  Shrinking the timer duration and extrapolating the
ratios recovers the derivative of the reading with respect to the
parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import ModelError, Substrate, Variable, evolve, first_entry, orbit, parameter_key
from .timers import TimerClass, TimerSpec, make_counter_timer


class AdvanceCheckFailed(RuntimeError):
    """The timed advance task failed operationally; no ratio is computed."""

    def __init__(self, lam: Fraction, dlam: Fraction):
        self.lam = lam
        self.dlam = dlam
        super().__init__(f"advance task from λ={lam} over Δλ={dlam} is not performed")


@dataclass(frozen=True, eq=False)
class TrajectoryModel:
    """A variable together with a numeric reading for each parameter value.

    Readings are keyed like the variable's entries, by `parameter_key`;
    `reading` accepts any value `Fraction` accepts.
    """

    variable: Variable
    readings: Mapping[int | Fraction, float]

    def __post_init__(self) -> None:
        normal = {parameter_key(k): float(v) for k, v in self.readings.items()}
        object.__setattr__(self, "readings", normal)
        missing = [lam for lam in self.variable.domain if lam not in normal]
        if missing:
            raise ModelError(f"readings missing for parameters {missing}")

    @property
    def substrate(self) -> Substrate:
        return self.variable.substrate

    def reading(self, lam) -> float:
        key = parameter_key(lam)
        if key not in self.readings:
            raise ModelError(f"no reading at parameter {lam}")
        return self.readings[key]


def check_timed_advance(m: TrajectoryModel, timer: TimerSpec, lam) -> bool:
    """Does the variable advance by the timer's duration exactly at its halt?

    True iff v(lam) is non-empty and from every joint start (state of
    v(lam), timer starting state) the substrate lies in v(lam + duration)
    at the first raise of the timer's halt flag, when the timer completes.
    An empty v(lam) has no start to advance, so it performs no advance.
    The halt steps are timer.halts, found by make_timer within each start's
    own cycle.
    """
    lam = Fraction(lam)
    dlam = Fraction(timer.duration)
    x = m.variable.attribute(lam)
    x_next = m.variable.attribute(lam + dlam)
    return bool(x.members) and all(
        evolve(m.substrate, sigma, h) in x_next.members for h in timer.halts for sigma in x.members
    )


def _default_timer(dlam: int) -> TimerSpec:
    bits = max(3, int(2 * dlam + 1).bit_length())
    return make_counter_timer(bits, dlam)


def incremental_ratio(m: TrajectoryModel, lam, dlam, timer: TimerSpec | None = None) -> float:
    """Forward-difference ratio of readings over a verified advance.

    Refuses (raises AdvanceCheckFailed) whenever the timed advance task is
    not performed: the ratio is grounded in a verified task, never in bare
    arithmetic on the readings.
    """
    lam = Fraction(lam)
    dlam = Fraction(dlam)
    if dlam <= 0:
        raise ModelError("Δλ must be positive")
    if dlam.denominator != 1:
        raise ModelError("Δλ must be a whole number of steps in this model")
    if timer is None:
        timer = _default_timer(int(dlam))
    if Fraction(timer.duration) != dlam:
        raise ModelError(f"timer duration {timer.duration} does not match Δλ = {dlam}")
    if lam + dlam not in m.variable:
        raise ModelError(f"λ + Δλ = {lam + dlam} outside the variable's domain")
    if not check_timed_advance(m, timer, lam):
        raise AdvanceCheckFailed(lam, dlam)
    return (m.reading(lam + dlam) - m.reading(lam)) / float(dlam)


@dataclass(frozen=True)
class DerivativeEstimate:
    lam: Fraction
    schedule: tuple[int, ...]
    ratios: tuple[float, ...]
    extrapolated: float
    order: float | None
    residuals: tuple[float, ...]


def _ols(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Ordinary least squares fit y = intercept + slope * x."""
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        raise ModelError("degenerate schedule: all step sizes equal")
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    return ybar - slope * xbar, slope


def estimate_derivative(
    m: TrajectoryModel,
    lam,
    schedule: Sequence[int],
    timers: Mapping[int, TimerSpec] | None = None,
) -> DerivativeEstimate:
    """Ratios over a shrinking-step schedule, extrapolated to step zero.

    Each schedule entry needs a timer of that duration (default: counter
    timers).  The extrapolated value is the intercept of the least-squares
    line ratio = L + c * Δλ; the convergence order is the log-log slope of
    the residuals against the step sizes (None when the fit is exact, as
    for linear readings).  Ratios or an extrapolation that overflow to a
    non-finite value raise ModelError.
    """
    steps = [int(d) for d in schedule]
    if len(steps) < 3:
        raise ModelError("schedule must contain at least 3 step sizes")
    if any(b >= a for a, b in zip(steps, steps[1:])) or steps[-1] <= 0:
        raise ModelError("schedule must be strictly decreasing and positive")
    lam = Fraction(lam)
    ratios = []
    for d in steps:
        timer = timers[d] if timers is not None else _default_timer(d)
        ratios.append(incremental_ratio(m, lam, d, timer))
    extrapolated, _ = _ols([float(d) for d in steps], ratios)
    residuals = tuple(r - extrapolated for r in ratios)
    if not all(math.isfinite(x) for x in (*ratios, extrapolated, *residuals)):
        raise ModelError(f"ratios at λ={lam} overflow: readings too large for a finite fit")
    pts = [
        (math.log(d), math.log(abs(r)))
        for d, r in zip(steps, residuals)
        if abs(r) > 1e-12
    ]
    order: float | None
    if len(pts) < 2:
        order = None
    else:
        _, order = _ols([p[0] for p in pts], [p[1] for p in pts])
    return DerivativeEstimate(lam, tuple(steps), tuple(ratios), extrapolated, order, residuals)


@dataclass(frozen=True)
class PointerRecovery:
    """Pointer readings of a clock expressed in timer-duration units."""

    mapping: dict
    unmapped: tuple
    period: int


def recover_clock_pointer(m: TrajectoryModel, reference: Sequence[TimerClass]) -> PointerRecovery:
    """Assign each parameter value the duration class co-halting with its advance.

    For each λ in the variable's domain the transition from v(0) must
    reach v(λ) at one common step k for every v(0) state; when a reference
    class of duration k exists, λ maps to it, otherwise the entry is
    reported unmapped.  The recurrence period of the pointer bounds how far
    readings can go before wrapping.
    """
    if 0 not in m.variable:
        raise ModelError("pointer recovery needs an entry at λ = 0")
    v0 = m.variable.attribute(0)
    period = math.lcm(*(len(orbit(m.substrate, s)) for s in v0.members))
    by_duration = {cls.duration: cls for cls in reference}
    mapping: dict = {0: 0}
    unmapped = []
    for lam in m.variable.domain:
        if lam == 0:
            continue
        target = m.variable.attribute(lam)
        firsts = {first_entry(m.substrate, s, target.members) for s in v0.members}
        if len(firsts) != 1 or None in firsts:
            unmapped.append(lam)
            continue
        k = firsts.pop()
        if k in by_duration:
            mapping[lam] = k
        else:
            unmapped.append(lam)
    return PointerRecovery(mapping, tuple(unmapped), period)
